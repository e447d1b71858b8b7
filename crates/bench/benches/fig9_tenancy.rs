//! Figure 9c — λ-NIC-style serverless multi-tenancy at 10k-function
//! scale (ROADMAP item 3, `docs/TENANCY.md`).
//!
//! The SNIC's match-action stage (`lynx_core::tenancy`) carries 10 002
//! registered functions: 10 000 ordinary tenants with Zipf(0.99)
//! popularity, one rate-limited tenant and one quota-zero ("banned")
//! tenant. An LRU residency budget of 256 function slots forces the cold
//! tail through the deterministic cold-start model while the hot head
//! stays resident. Three probe clients measure the per-class p99:
//!
//! * **resident** — the Zipf rank-0 function, kept warm by the
//!   background stream;
//! * **cold** — cycles through 400 tail functions, so nearly every touch
//!   lands after eviction and pays the cold start;
//! * **throttled** — hammers the quota-zero function and must see only
//!   the empty shed marker, never a served response.
//!
//! The single-tenant baseline is the identical deployment with a
//! one-function registry under the same offered load, and the
//! host-centric baseline runs the same noisy-neighbor mix through
//! [`HostCentricServer`] — which has no per-tenant governance at all.
//!
//! Acceptance (the committed `BENCH_10.json` gate): resident-class p99
//! within 1.1× of the single-tenant baseline while the throttled tenant
//! sheds everything without raising resident p99. `LYNX_SMOKE=1`
//! shrinks the registry and the runs and relaxes the ratio for CI.

use std::rc::Rc;
use std::time::Duration;

use lynx_bench::client_stack;
use lynx_core::testbed::{DeployConfig, Machine};
use lynx_core::{
    FunctionRegistry, FunctionSpec, HostCentricServer, MatchRule, MqueueConfig, ProcessorApp,
    TenancyConfig, TenancyStats, TenantQuota,
};
use lynx_device::{DelayProcessor, GpuSpec};
use lynx_sim::Sim;
use lynx_workload::report::{banner, Table};
use lynx_workload::{run_measured, ClientStats, ClosedLoopClient, LoadClient, RunSpec, ZipfKeyGen};

/// Per-request accelerator work: long enough that dispatch, cold starts
/// and queueing are visible against it, short enough for 10k-tenant runs.
const WORK: Duration = Duration::from_micros(20);
/// LRU residency budget, in function slots (footprint × slots bytes).
const RESIDENT_SLOTS: usize = 256;
/// Residency footprint per function.
const FOOTPRINT: usize = 16 << 10;
/// Cold-start warm-up charged on a non-resident dispatch.
const COLD_START: Duration = Duration::from_micros(200);
/// Distinct tail functions the cold probe cycles through — enough past
/// the residency budget that each revisit lands evicted.
const COLD_CYCLE: u64 = 400;

/// Payload for tenant function `key`: the registry's 4-byte
/// little-endian match key plus filler (echoed back by the worker).
fn fn_payload(key: u32) -> Vec<u8> {
    let mut p = key.to_le_bytes().to_vec();
    p.resize(32, 0x5A);
    p
}

/// `tenants` ordinary functions plus `fn-limited` (key = tenants) and
/// `fn-banned` (key = tenants + 1, quota zero).
fn registry(tenants: u32) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for k in 0..tenants {
        reg.register(
            FunctionSpec::new(format!("fn-{k}"), MatchRule::FnKey(k)).footprint(FOOTPRINT),
        )
        .expect("unique keys");
    }
    reg.register(
        FunctionSpec::new("fn-limited", MatchRule::FnKey(tenants))
            .footprint(FOOTPRINT)
            .quota(TenantQuota::rate_limited(20_000.0, 16.0)),
    )
    .expect("unique key");
    reg.register(
        FunctionSpec::new("fn-banned", MatchRule::FnKey(tenants + 1))
            .footprint(FOOTPRINT)
            .quota(TenantQuota::zero()),
    )
    .expect("unique key");
    reg
}

/// Observables of one tenancy run.
struct TenancyRun {
    throughput: f64,
    resident: ClientStats,
    cold: Option<ClientStats>,
    throttled: Option<ClientStats>,
    stats: TenancyStats,
}

fn p99_us(st: &ClientStats) -> f64 {
    st.latency
        .try_percentile(99.0)
        .expect("no latency samples")
        .as_secs_f64()
        * 1e6
}

/// Deploys the echo service behind the Lynx SNIC with the tenancy stage
/// installed and drives it closed-loop. `multi` selects the full
/// 10k-tenant noisy-neighbor mix; otherwise a one-function registry
/// carries the same offered load (the single-tenant baseline).
fn run_lynx_tenancy(tenants: u32, multi: bool, spec: RunSpec) -> TenancyRun {
    let mut sim = Sim::new(11);
    let net = lynx_net::Network::new();
    let machine = Machine::new(&net, "serverless-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let reg = if multi {
        registry(tenants)
    } else {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("fn-0", MatchRule::FnKey(0)).footprint(FOOTPRINT))
            .expect("single function");
        reg
    };
    let cfg = DeployConfig {
        mqueues_per_gpu: 4,
        mq: MqueueConfig {
            slots: 32,
            slot_size: 256,
            ..MqueueConfig::default()
        },
        tenancy: Some((
            TenancyConfig {
                enabled: true,
                accel_memory_bytes: RESIDENT_SLOTS * FOOTPRINT,
                cold_start: COLD_START,
            },
            reg,
        )),
        ..DeployConfig::default()
    };
    let d = cfg.deploy(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        Rc::new(ProcessorApp::new(Rc::new(DelayProcessor::new(WORK)))),
    );
    let addr = d.server_addr;

    // Background load: Zipf(0.99) across every ordinary tenant in the
    // multi-tenant mix, all on function 0 in the baseline — the same
    // offered window either way, so the p99 comparison is load-matched.
    let background = {
        let keys = ZipfKeyGen::new(tenants as usize, 0.99, 42);
        ClosedLoopClient::new(
            client_stack(&net, "client-bg", 3),
            addr,
            12,
            Rc::new(move |seq| {
                let rank = if multi { keys.rank(seq) as u32 } else { 0 };
                fn_payload(rank)
            }),
        )
        .validate(|_, p| p.len() == 32)
    };
    // Resident-class probe: the Zipf rank-0 function, always warm.
    let resident = ClosedLoopClient::new(
        client_stack(&net, "client-resident", 2),
        addr,
        2,
        Rc::new(|_| fn_payload(0)),
    )
    .validate(|_, p| p == fn_payload(0));

    let mut clients: Vec<&dyn LoadClient> = vec![&background, &resident];
    // Cold-class probe: cycles COLD_CYCLE distinct tail functions, so a
    // revisit arrives long after LRU eviction and pays the cold start.
    let cold = multi.then(|| {
        ClosedLoopClient::new(
            client_stack(&net, "client-cold", 2),
            addr,
            2,
            Rc::new(move |seq| fn_payload(tenants - 1 - (seq % COLD_CYCLE) as u32)),
        )
        .validate(|_, p| p.len() == 32)
    });
    // Throttled-class probe: the quota-zero tenant; every request must
    // come back as the empty shed marker.
    let throttled = multi.then(|| {
        ClosedLoopClient::new(
            client_stack(&net, "client-banned", 2),
            addr,
            2,
            Rc::new(move |_| fn_payload(tenants + 1)),
        )
    });
    if let Some(c) = &cold {
        clients.push(c);
    }
    if let Some(c) = &throttled {
        clients.push(c);
    }
    let summary = run_measured(&mut sim, &clients, spec);
    assert_eq!(summary.invalid, 0);
    TenancyRun {
        throughput: summary.throughput,
        resident: resident.stats(),
        cold: cold.map(|c| c.stats()),
        throttled: throttled.map(|c| c.stats()),
        stats: d.server.tenancy_stats(),
    }
}

/// The host-centric baseline: the same noisy-neighbor mix through
/// [`HostCentricServer`] — host CPU receive, kernel launch per request,
/// and *no* per-tenant governance, so the banned tenant's flood is
/// served instead of shed and queues ahead of everyone else.
fn run_hostcentric(tenants: u32, spec: RunSpec) -> (f64, f64) {
    let mut sim = Sim::new(11);
    let net = lynx_net::Network::new();
    let machine = Machine::new(&net, "host-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let stack = machine.host_stack(2, lynx_net::StackKind::Vma);
    let server = HostCentricServer::new(stack, gpu, Rc::new(DelayProcessor::new(WORK)), 7777);
    let addr = lynx_net::SockAddr::new(machine.host_id(), 7777);
    let keys = ZipfKeyGen::new(tenants as usize, 0.99, 42);
    let background = ClosedLoopClient::new(
        client_stack(&net, "client-bg", 3),
        addr,
        12,
        Rc::new(move |seq| fn_payload(keys.rank(seq) as u32)),
    );
    let resident = ClosedLoopClient::new(
        client_stack(&net, "client-resident", 2),
        addr,
        2,
        Rc::new(|_| fn_payload(0)),
    );
    let noisy = ClosedLoopClient::new(
        client_stack(&net, "client-banned", 2),
        addr,
        2,
        Rc::new(move |_| fn_payload(tenants + 1)),
    );
    let clients: Vec<&dyn LoadClient> = vec![&background, &resident, &noisy];
    let summary = run_measured(&mut sim, &clients, spec);
    let _ = server;
    (summary.throughput, p99_us(&resident.stats()))
}

fn main() {
    let smoke = lynx_bench::smoke();
    banner("Figure 9c — serverless multi-tenancy: 10k functions on the SNIC's match-action stage");
    let tenants: u32 = if smoke { 500 } else { 10_000 };
    let spec = if smoke {
        RunSpec {
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(200),
        }
    } else {
        RunSpec {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(800),
        }
    };

    let base = run_lynx_tenancy(tenants, false, spec);
    let multi = run_lynx_tenancy(tenants, true, spec);
    let (hc_tput, hc_resident_p99) = run_hostcentric(tenants, spec);

    let base_p99 = p99_us(&base.resident);
    let resident_p99 = p99_us(&multi.resident);
    let ratio = resident_p99 / base_p99;
    let cold_st = multi.cold.as_ref().expect("multi run has a cold probe");
    let cold_p99 = p99_us(cold_st);
    let throttled = multi
        .throttled
        .as_ref()
        .expect("multi run has a throttled probe");

    let mut table = Table::new(&["tenant class", "p99 [us]", "received", "rejected"]);
    table.row(&[
        "single-tenant baseline".to_string(),
        format!("{base_p99:.1}"),
        format!("{}", base.resident.received),
        format!("{}", base.resident.rejected),
    ]);
    table.row(&[
        format!("resident (of {tenants})"),
        format!("{resident_p99:.1}"),
        format!("{}", multi.resident.received),
        format!("{}", multi.resident.rejected),
    ]);
    table.row(&[
        "cold (tail cycle)".to_string(),
        format!("{cold_p99:.1}"),
        format!("{}", cold_st.received),
        format!("{}", cold_st.rejected),
    ]);
    table.row(&[
        "throttled (quota zero)".to_string(),
        "-".to_string(),
        format!("{}", throttled.received),
        format!("{}", throttled.rejected),
    ]);
    table.row(&[
        "host-centric resident".to_string(),
        format!("{hc_resident_p99:.1}"),
        "-".to_string(),
        "-".to_string(),
    ]);
    println!("\n{}", table.render());
    table
        .write_csv(lynx_bench::results_dir().join("fig9_tenancy.csv"))
        .expect("write csv");
    println!(
        "tenancy: resident p99 ratio {ratio:.3} (gate 1.1), cold p99 {cold_p99:.0} us, \
         {} cold starts, {} evictions ({} deferred), {} shed, served {:.0} Ktps \
         (host-centric {:.0} Ktps)",
        multi.stats.cold_starts,
        multi.stats.evictions,
        multi.stats.evictions_deferred,
        multi.stats.shed,
        multi.throughput / 1e3,
        hc_tput / 1e3,
    );

    let json = format!(
        "{{\n  \"tenancy\": {{\n    \"tenants\": {},\n    \"zipf_theta\": 0.99,\n    \
         \"resident_slots\": {RESIDENT_SLOTS},\n    \"cold_start_us\": {:.1},\n    \
         \"baseline_p99_us\": {base_p99:.2},\n    \"resident_p99_us\": {resident_p99:.2},\n    \
         \"resident_ratio\": {ratio:.4},\n    \"cold_p99_us\": {cold_p99:.2},\n    \
         \"throttled_rejected\": {},\n    \"throttled_received\": {},\n    \
         \"hostcentric_resident_p99_us\": {hc_resident_p99:.2},\n    \
         \"served_pkts_per_sec\": {:.0},\n    \"matched\": {},\n    \"cold_starts\": {},\n    \
         \"evictions\": {},\n    \"evictions_deferred\": {},\n    \"shed\": {},\n    \
         \"unmatched\": {}\n  }}\n}}\n",
        tenants + 2,
        COLD_START.as_secs_f64() * 1e6,
        throttled.rejected,
        throttled.received,
        multi.throughput,
        multi.stats.matched,
        multi.stats.cold_starts,
        multi.stats.evictions,
        multi.stats.evictions_deferred,
        multi.stats.shed,
        multi.stats.unmatched,
    );
    let out = std::env::var("LYNX_BENCH_OUT").unwrap_or_else(|_| {
        if smoke {
            // CI smoke runs must not clobber the committed full-run record.
            lynx_bench::results_dir()
                .join("BENCH_10.smoke.json")
                .display()
                .to_string()
        } else {
            format!("{}/../../BENCH_10.json", env!("CARGO_MANIFEST_DIR"))
        }
    });
    std::fs::write(&out, &json).expect("write BENCH_10 json");
    println!("wrote {out}");

    // The gate: these assertions fail the bench process, which fails CI.
    let max_ratio = if smoke { 1.3 } else { 1.1 };
    assert!(
        ratio <= max_ratio,
        "resident-class p99 ratio {ratio:.3} above the {max_ratio}x noisy-neighbor gate"
    );
    assert_eq!(
        throttled.received, 0,
        "the quota-zero tenant must never be served"
    );
    assert!(
        throttled.rejected > 100,
        "the throttled tenant must shed continuously (got {})",
        throttled.rejected
    );
    assert!(
        cold_p99 >= COLD_START.as_secs_f64() * 1e6,
        "cold-class p99 {cold_p99:.0} us below the {COLD_START:?} cold start it must include"
    );
    assert!(
        multi.stats.cold_starts >= u64::from(COLD_CYCLE as u32),
        "the cold tail must keep cold-starting (got {})",
        multi.stats.cold_starts
    );
    assert!(
        multi.stats.evictions > 0,
        "a {RESIDENT_SLOTS}-slot budget under {tenants} tenants must evict"
    );
    assert_eq!(multi.stats.unmatched, 0, "every probe key is registered");
    assert!(
        multi.resident.received > 1_000 / u64::from(smoke as u8 + 1),
        "resident probe too idle ({})",
        multi.resident.received
    );
}
