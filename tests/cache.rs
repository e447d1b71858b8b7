//! The SNIC-resident hot-key cache end to end: write-through
//! invalidation on the wire, the serve-stale degradation control loop,
//! the on-NIC compute offload, and byte-identity of same-seed
//! cache-enabled runs (the CI matrix reruns this file under
//! `LYNX_SIM_THREADS=1/2/8`). Tests that take a [`PipelineConfig`] run
//! both per-message and batched.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx::apps::kv::{self, KvStore};
use lynx::core::testbed::{deploy_processor, DeployConfig, Machine};
use lynx::core::RmqConfig;
use lynx::core::{
    BatchPolicy, CacheConfig, CacheOp, CacheProtocol, ControlConfig, FunctionRegistry,
    FunctionSpec, MatchRule, MqueueConfig, PipelineConfig, ServiceId, SnicKernel, TenancyConfig,
};
use lynx::device::{GpuSpec, RequestProcessor};
use lynx::net::{HostStack, LinkSpec, Network, Platform, SockAddr, StackKind, StackProfile};
use lynx::sim::{MultiServer, Sim, Telemetry};
use lynx::workload::{run_measured, ClosedLoopClient, RunSpec, ZipfKeyGen};
use lynx::{FaultAction, FaultPlan, RecoveryConfig, Trigger};

/// The kv wire format as a [`CacheProtocol`] (mirrors the adapter
/// `lynx-bench` uses for fig9b; root tests cannot depend on the bench
/// crate, so the handful of lines is restated here).
#[derive(Clone, Copy, Debug, Default)]
struct KvWire;

impl CacheProtocol for KvWire {
    fn classify(&self, payload: &[u8]) -> CacheOp {
        match kv::Request::decode(payload) {
            Some(kv::Request::Get { key }) => CacheOp::Get(key),
            Some(kv::Request::Set { key, .. }) => CacheOp::Set(key),
            None => CacheOp::Other,
        }
    }

    fn cacheable_response(&self, response: &[u8]) -> bool {
        matches!(kv::Response::decode(response), Some(kv::Response::Value(_)))
    }
}

/// A kv store as a slow accelerator kernel: every request costs
/// `service_time` on the reference GPU, so a small fleet saturates at a
/// few tens of Kreq/s and the SNIC cache's contribution is visible.
struct SlowKv {
    store: Rc<RefCell<KvStore>>,
    service_time: Duration,
}

impl fmt::Debug for SlowKv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlowKv").finish_non_exhaustive()
    }
}

impl RequestProcessor for SlowKv {
    fn name(&self) -> &str {
        "slow-kv"
    }

    fn service_time(&self, _request: &[u8]) -> Duration {
        self.service_time
    }

    fn process(&self, request: &[u8]) -> Vec<u8> {
        kv::execute_wire(&mut self.store.borrow_mut(), request)
    }
}

fn client_stack(net: &Network, name: &str) -> HostStack {
    let host = net.add_host(name, LinkSpec::gbps40());
    HostStack::new(
        net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    )
}

fn get(key: &str) -> Vec<u8> {
    kv::Request::Get {
        key: key.as_bytes().to_vec(),
    }
    .encode()
}

/// The request path at both ends of the batch knob: per-message dispatch
/// (the default `Fixed(1)`) and a batched two-core pipeline.
fn pipelines() -> [PipelineConfig; 2] {
    [
        PipelineConfig::default(),
        PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(8),
        },
    ]
}

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counters()
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// GET → fill, GET → hit, write-through SET → invalidate, GET → miss
/// (the stale entry is invisible outside degradation) → refill → hit,
/// all observed from the wire with a single outstanding request.
#[test]
fn write_through_set_invalidates_and_the_next_get_refills() {
    let mut sim = Sim::new(11);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    store.borrow_mut().set(b"alpha".to_vec(), b"v1".to_vec());
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_micros(50),
        }),
    );
    // One outstanding request keeps the script strictly ordered.
    let client = ClosedLoopClient::new(
        client_stack(&net, "client"),
        d.server_addr,
        1,
        Rc::new(|seq| match seq {
            2 => kv::Request::Set {
                key: b"alpha".to_vec(),
                val: b"v2".to_vec(),
            }
            .encode(),
            _ => get("alpha"),
        }),
    )
    .validate(|seq, p| match (seq, kv::Response::decode(p)) {
        (2, Some(kv::Response::Stored)) => true,
        (0 | 1, Some(kv::Response::Value(v))) => v == b"v1",
        (_, Some(kv::Response::Value(v))) => v == b"v2",
        _ => false,
    });
    let spec = RunSpec {
        warmup: Duration::from_millis(1),
        measure: Duration::from_millis(20),
    };
    let summary = run_measured(&mut sim, &[&client], spec);
    assert_eq!(summary.invalid, 0, "every scripted response must match");
    assert!(summary.received > 10);

    let stats = d.server.cache_stats();
    // seq 0 misses cold, seq 3 misses because the SET marked the entry
    // stale (not evicted — serve-stale keeps it); everything else hits.
    assert_eq!(stats.misses, 2, "cold miss + post-invalidation miss");
    assert_eq!(stats.fills, 2, "each miss response refills");
    assert_eq!(stats.invalidations, 1, "the SET wrote through once");
    // Count against the server's own request total: `summary.sent` only
    // covers the measured phase, while the counters span warmup too. The
    // last request may still be in flight when the run ends, so allow a
    // one-request gap.
    let requests = d.server.stats().requests;
    let expected = requests - 3; // minus 2 misses and 1 SET
    assert!(
        stats.hits == expected || stats.hits == expected - 1,
        "all GETs but two misses and one SET hit: {} vs {expected}",
        stats.hits
    );
    assert!(d.server.cache_bytes() > 0);
}

/// The serve-stale control loop. A flood of uncacheable (absent-key)
/// GETs saturates the accelerator fleet while a steady hot-key flow
/// rides along:
///
/// * degradation engages once occupancy crosses the band — with the
///   token bucket sized above the admitted load, `dispatch.shed` stays
///   zero, i.e. cache-only degradation acts strictly *before*
///   token-bucket shedding;
/// * while degraded, hot-key GETs are answered from the SNIC cache ahead
///   of admission (the hits counter keeps climbing);
/// * when the flood stops, occupancy falls and the service disengages
///   only after `hysteresis` consecutive calm windows.
#[test]
fn degradation_engages_before_shedding_and_recovers_with_hysteresis() {
    let mut sim = Sim::new(33);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let mut sites = Vec::new();
    for _ in 0..2 {
        let gpu = machine.add_gpu(GpuSpec::k80());
        sites.push(machine.gpu_site(&gpu));
    }
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    for k in 0..16 {
        store
            .borrow_mut()
            .set(format!("hot-{k:03}").into_bytes(), vec![0xCD; 32]);
    }
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        mq: MqueueConfig {
            slots: 16,
            slot_size: 512,
            ..MqueueConfig::default()
        },
        control: ControlConfig {
            min_workers: 2,
            max_workers: 2,
            scan_interval: Duration::from_micros(200),
            hysteresis: 2,
            // Far above what two 100 µs workers admit: the bucket never
            // sheds in this test, so any overload response is the
            // degradation switch, not admission control.
            admission_rate: 500_000.0,
            admission_burst: 64.0,
            degrade_occupancy: 0.85,
            degrade_recover_occupancy: 0.4,
            ..ControlConfig::default()
        },
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 18,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &sites,
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_micros(100),
        }),
    );
    let svc = ServiceId::DEFAULT;
    let addr = d.server_addr;

    // Hot-key flow: fixed-gap GETs over the preloaded keys; replies are
    // tallied client-side (a cached Value vs the empty shed marker).
    let hot_stack = client_stack(&net, "hot-client");
    let hot_values = Rc::new(Cell::new(0u64));
    let hot_shed = Rc::new(Cell::new(0u64));
    {
        let (values, shed) = (Rc::clone(&hot_values), Rc::clone(&hot_shed));
        hot_stack.bind_udp_default(move |_, dg| {
            if dg.payload.is_empty() {
                shed.set(shed.get() + 1);
            } else if matches!(
                kv::Response::decode(&dg.payload),
                Some(kv::Response::Value(_))
            ) {
                values.set(values.get() + 1);
            }
        });
    }
    // A single source port keeps the whole hot flow on one dispatch
    // lane (lanes shard by flow), so each key cold-misses exactly once.
    fn hot_tick(sim: &mut Sim, stack: HostStack, dst: SockAddr, n: u64) {
        stack.send_udp(sim, 9000, dst, get(&format!("hot-{:03}", n % 16)));
        sim.schedule_in(Duration::from_micros(250), move |sim| {
            hot_tick(sim, stack, dst, n + 1)
        });
    }
    {
        let stack = hot_stack.clone();
        sim.schedule_in(Duration::from_micros(10), move |sim| {
            hot_tick(sim, stack, addr, 0)
        });
    }

    // Flood: absent-key GETs (their Miss responses are not cacheable, so
    // they always occupy the accelerator path). Rate switches per phase.
    let flood_rate = Rc::new(Cell::new(0.0f64));
    let flood_stack = client_stack(&net, "flood-client");
    flood_stack.bind_udp_default(|_, _| {});
    fn flood_tick(sim: &mut Sim, stack: HostStack, dst: SockAddr, rate: Rc<Cell<f64>>, n: u64) {
        let r = rate.get();
        if r > 0.0 {
            stack.send_udp(
                sim,
                10_000 + (n % 10_000) as u16,
                dst,
                get(&format!("absent-{n:012}")),
            );
        }
        let gap = Duration::from_secs_f64(1.0 / r.max(1_000.0));
        sim.schedule_in(gap, move |sim| flood_tick(sim, stack, dst, rate, n + 1));
    }
    {
        let (stack, rate) = (flood_stack.clone(), Rc::clone(&flood_rate));
        sim.schedule_in(Duration::from_micros(5), move |sim| {
            flood_tick(sim, stack, addr, rate, 0)
        });
    }

    // Phase A — hot flow only, well under capacity: the cache warms up
    // (one cold miss per key and lane) and nothing degrades.
    sim.run_for(Duration::from_millis(10));
    assert!(!d.server.degraded(svc), "no overload yet");
    assert_eq!(d.server.degrade_transitions(), (0, 0));
    let warm_hits = d.server.cache_stats().hits;
    assert!(warm_hits > 0, "hot keys must be cache hits after warmup");

    // Phase B — 80 Kreq/s of absent keys against ~20 Kreq/s of fleet
    // capacity: occupancy pins at 1.0 and the switch must engage.
    flood_rate.set(80_000.0);
    sim.run_for(Duration::from_millis(30));
    assert!(d.server.degraded(svc), "sustained overload must degrade");
    let (on, _) = d.server.degrade_transitions();
    assert!(on >= 1);
    assert_eq!(
        counter(&telemetry, "dispatch.shed"),
        0,
        "degradation must act before the token bucket sheds anything"
    );
    let hits_in_b = d.server.cache_stats().hits - warm_hits;
    assert!(
        hits_in_b > 50,
        "hot keys must keep flowing from the cache under degradation, got {hits_in_b}"
    );
    assert_eq!(hot_shed.get(), 0, "no hot-key request was shed");

    // Phase C — flood stops; after the queues drain, `hysteresis`
    // consecutive calm windows release the switch.
    flood_rate.set(0.0);
    sim.run_for(Duration::from_millis(30));
    assert!(!d.server.degraded(svc), "calm traffic must recover");
    let (on, off) = d.server.degrade_transitions();
    assert!(on >= 1 && on == off, "every engage has a matching release");
    assert_eq!(counter(&telemetry, "control.degrade_on"), on);
    assert_eq!(counter(&telemetry, "control.degrade_off"), off);
    assert_eq!(telemetry.gauge_value("control.svc0.degraded"), Some(0.0));
    assert!(hot_values.get() > 100, "hot flow was served throughout");
}

/// One cache-enabled closed-loop run under `pipeline`, fully traced.
fn traced_cache_run(seed: u64, pipeline: PipelineConfig) -> (Telemetry, u64, u64, String) {
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    for k in 0..500 {
        store
            .borrow_mut()
            .set(format!("key-{k:06}").into_bytes(), vec![0xEE; 24]);
    }
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        pipeline,
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_micros(40),
        }),
    );
    let keys = ZipfKeyGen::new(500, 0.99, seed);
    let client = ClosedLoopClient::new(
        client_stack(&net, "client"),
        d.server_addr,
        8,
        Rc::new(move |seq| get(&keys.key(seq))),
    )
    .validate(|_, p| matches!(kv::Response::decode(p), Some(kv::Response::Value(_))));
    let summary = run_measured(&mut sim, &[&client], RunSpec::quick());
    assert_eq!(summary.invalid, 0);
    let stats = d.server.cache_stats();
    assert!(stats.hits > 0, "a Zipf stream over a warm cache must hit");
    (
        telemetry,
        stats.hits,
        stats.misses,
        format!("{:.6}", summary.throughput),
    )
}

/// Cache-enabled same-seed runs are byte-identical on replay (the CLOCK
/// cache adds no nondeterminism), per-message and batched. The CI thread
/// matrix reruns this under `LYNX_SIM_THREADS=1/2/8`.
#[test]
fn cache_enabled_runs_are_byte_identical_across_replays() {
    for pipeline in pipelines() {
        let (base_t, base_hits, base_misses, base_tput) = traced_cache_run(4242, pipeline);
        assert!(base_t.event_count() > 100, "trace must be non-trivial");
        let (t, hits, misses, tput) = traced_cache_run(4242, pipeline);
        assert_eq!(base_hits, hits, "{pipeline:?}: hit counts diverge");
        assert_eq!(base_misses, misses, "{pipeline:?}: miss counts diverge");
        assert_eq!(base_tput, tput, "{pipeline:?}: throughput diverges");
        assert_eq!(
            base_t.to_jsonl(),
            t.to_jsonl(),
            "{pipeline:?}: trace bytes diverge"
        );
        assert_eq!(
            base_t.counters(),
            t.counters(),
            "{pipeline:?}: counters diverge"
        );
        assert_eq!(base_t.gauges(), t.gauges(), "{pipeline:?}: gauges diverge");
    }
}

/// The stale-fill race (two outstanding requests): a GET misses and its
/// fill slot is leased; a SET to the same key is dispatched while the
/// GET is still on the accelerator. The SET's write-through invalidation
/// must void the lease so the GET's pre-SET response cannot install
/// itself — every GET sent after the SET's response must observe `v2`.
#[test]
fn racing_set_voids_the_in_flight_fill_lease() {
    let mut sim = Sim::new(17);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    store.borrow_mut().set(b"alpha".to_vec(), b"v1".to_vec());
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_micros(50),
        }),
    );
    // Window 2: seq 0 (GET) and seq 1 (SET) are in flight TOGETHER — the
    // SET races the GET's accelerator round trip. The single mqueue
    // serializes them in order, so every response from seq 2 on is `v2`.
    let client = ClosedLoopClient::new(
        client_stack(&net, "client"),
        d.server_addr,
        2,
        Rc::new(|seq| match seq {
            1 => kv::Request::Set {
                key: b"alpha".to_vec(),
                val: b"v2".to_vec(),
            }
            .encode(),
            _ => get("alpha"),
        }),
    )
    .validate(|seq, p| match (seq, kv::Response::decode(p)) {
        (0, Some(kv::Response::Value(v))) => v == b"v1",
        (1, Some(kv::Response::Stored)) => true,
        // The coherence claim under test: had the in-flight pre-SET
        // response been allowed to fill, these would hit stale `v1`.
        (_, Some(kv::Response::Value(v))) => v == b"v2",
        _ => false,
    });
    let spec = RunSpec {
        warmup: Duration::from_millis(1),
        measure: Duration::from_millis(20),
    };
    let summary = run_measured(&mut sim, &[&client], spec);
    assert_eq!(summary.invalid, 0, "no GET may observe the overwritten v1");
    assert!(summary.received > 10);

    let stats = d.server.cache_stats();
    // seq 0 misses cold (its fill is refused — the SET voided the
    // lease); seq 2 misses and re-leases; seq 3 overlaps seq 2's round
    // trip, so it misses without a lease (first holder wins). Everything
    // after seq 2's fill lands is a hit.
    assert_eq!(stats.misses, 3, "cold + post-SET + one overlapped miss");
    assert_eq!(stats.fills, 1, "only seq 2's leased fill is admitted");
    // The SET raced ahead of any fill: there was no cache entry to mark
    // stale, yet the lease was still voided — coherence does not depend
    // on the entry existing.
    assert_eq!(stats.invalidations, 0);
}

/// Fix for the degraded-path cost hole: a serve-stale hit must charge
/// the dispatch-stage CPU like any other consult, so its client-observed
/// latency can never undercut a normal-mode cache hit in the same
/// deployment (it skipped admission, not work).
#[test]
fn degraded_hit_pays_the_dispatch_cost_like_a_normal_hit() {
    let mut sim = Sim::new(71);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k80());
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    store.borrow_mut().set(b"alpha".to_vec(), b"v1".to_vec());
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        mq: MqueueConfig {
            slots: 4,
            slot_size: 512,
            ..MqueueConfig::default()
        },
        control: ControlConfig {
            min_workers: 1,
            max_workers: 1,
            scan_interval: Duration::from_micros(200),
            hysteresis: 2,
            admission_rate: 1_000_000.0,
            admission_burst: 64.0,
            degrade_occupancy: 0.8,
            degrade_recover_occupancy: 0.4,
            ..ControlConfig::default()
        },
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    // A 1 s service time makes the accelerator an occupancy dial: four
    // parked absent-key GETs pin the lone mqueue at 1.0 for seconds
    // without generating any concurrent SNIC work that could blur the
    // latency comparison below.
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_secs(1),
        }),
    );
    let svc = ServiceId::DEFAULT;
    let addr = d.server_addr;

    // Probe client: strictly one outstanding `GET alpha` at a time, each
    // reply's latency collected in order.
    let probe = client_stack(&net, "probe");
    let sent_at: Rc<Cell<Option<lynx::sim::Time>>> = Rc::new(Cell::new(None));
    let latencies: Rc<RefCell<Vec<Duration>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let (sent_at, latencies) = (Rc::clone(&sent_at), Rc::clone(&latencies));
        probe.bind_udp_default(move |sim, dg| {
            assert!(
                matches!(
                    kv::Response::decode(&dg.payload),
                    Some(kv::Response::Value(_))
                ),
                "every probe reply is a Value"
            );
            let t0 = sent_at.take().expect("exactly one probe in flight");
            latencies.borrow_mut().push(sim.now() - t0);
        });
    }
    let send_probe = {
        let probe = probe.clone();
        let sent_at = Rc::clone(&sent_at);
        move |sim: &mut Sim| {
            assert!(sent_at.get().is_none());
            sent_at.set(Some(sim.now()));
            probe.send_udp(sim, 9000, addr, get("alpha"));
        }
    };

    // Occupier: four absent-key GETs camp on the mqueue's four slots.
    let occupier = client_stack(&net, "occupier");
    occupier.bind_udp_default(|_, _| {});

    // Phase 1 — cold fill: the first probe takes the 1 s accelerator
    // round trip and populates the cache.
    send_probe(&mut sim);
    sim.run_for(Duration::from_millis(1100));
    assert_eq!(latencies.borrow().len(), 1, "cold miss served");

    // Phase 2 — normal-mode hit on an idle SNIC.
    send_probe(&mut sim);
    sim.run_for(Duration::from_millis(10));
    assert_eq!(latencies.borrow().len(), 2, "warm hit served");
    assert!(!d.server.degraded(svc));

    // Phase 3 — pin occupancy at 1.0 and wait out the hysteresis.
    {
        let occupier = occupier.clone();
        sim.schedule_in(Duration::ZERO, move |sim| {
            for k in 0..4 {
                occupier.send_udp(sim, 11_000 + k, addr, get(&format!("absent-{k}")));
            }
        });
    }
    sim.run_for(Duration::from_millis(5));
    assert!(d.server.degraded(svc), "pinned occupancy must degrade");

    // Phase 4 — degraded serve-stale hit, SNIC otherwise idle again.
    send_probe(&mut sim);
    sim.run_for(Duration::from_millis(10));
    let lat = latencies.borrow();
    assert_eq!(lat.len(), 3, "degraded hit served ahead of admission");
    let (cold, normal_hit, degraded_hit) = (lat[0], lat[1], lat[2]);
    assert!(
        cold >= Duration::from_secs(1),
        "cold miss rode the accelerator"
    );
    assert!(normal_hit < Duration::from_millis(1));
    // The regression under test: the degraded path used to reply before
    // any dispatch-stage charge, undercutting the normal hit by exactly
    // the dispatch cost. Charged equally, it can never be faster.
    assert!(
        degraded_hit >= normal_hit,
        "a degraded hit must pay at least a normal hit's SNIC cost: {degraded_hit:?} < {normal_hit:?}"
    );
    assert_eq!(
        d.server.cache_stats().hits,
        2,
        "one normal + one degraded hit"
    );
}

/// A response lost *after* acceptance (pull-side retry give-up) releases
/// exactly its own request context: its fill lease is abandoned and it
/// counts once in `server.path_resets`, while the responses behind it
/// still fill the cache under their own keys — each context travels with
/// its mqueue slot, so a lost response cannot shift the pairing of later
/// ones. Verified from the wire: after the loss, every key still reads
/// back its own value.
#[test]
fn lost_response_resets_path_matching_instead_of_filling_the_wrong_key() {
    let mut sim = Sim::new(23);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    for i in 0..6 {
        store
            .borrow_mut()
            .set(format!("k{i}").into_bytes(), format!("v{i}").into_bytes());
    }
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        // No retry budget: the single injected read error becomes an
        // immediate give-up, i.e. one discarded response.
        rmq: RmqConfig {
            max_retries: 0,
            ..RmqConfig::default()
        },
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_micros(50),
        }),
    );
    // The second response pull (k1's) errors once; with max_retries 0
    // the slot is released but the response is discarded.
    sim.enable_faults(FaultPlan::new(23).rule("rdma.read", Trigger::Nth(2), FaultAction::CqeError));
    let addr = d.server_addr;

    // One stack, one source port: every request rides the same dispatch
    // lane, so the probes below read the very cache the burst filled.
    let stack = client_stack(&net, "client");
    let responses = Rc::new(Cell::new(0u64));
    let expected: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
    {
        let (responses, expected) = (Rc::clone(&responses), Rc::clone(&expected));
        stack.bind_udp_default(move |_, dg| {
            responses.set(responses.get() + 1);
            if let Some(want) = expected.borrow().as_deref() {
                match kv::Response::decode(&dg.payload) {
                    Some(kv::Response::Value(v)) => {
                        assert_eq!(v, want, "a key served a value that is not its own");
                    }
                    other => panic!("probe expected a Value, got {other:?}"),
                }
            }
        });
    }

    // Burst: five cold GETs queue together on the lone mqueue, so five
    // path entries are outstanding when k1's response is discarded.
    {
        let stack = stack.clone();
        sim.schedule_in(Duration::ZERO, move |sim| {
            for i in 0..5 {
                stack.send_udp(sim, 9000, addr, get(&format!("k{i}")));
            }
        });
    }
    sim.run_for(Duration::from_millis(5));
    assert_eq!(responses.get(), 4, "exactly k1's reply was lost");
    assert_eq!(counter(&telemetry, "rmq.giveups"), 1);
    assert_eq!(
        counter(&telemetry, "server.path_resets"),
        1,
        "exactly the lost response's context is released without a reply"
    );

    // Probes, strictly one at a time: every key must read back its own
    // value. (Had the loss shifted the pairing, k2's response would have
    // cached v2 under k1 — the probe would hit the wrong value straight
    // from the SNIC.)
    for i in 0..5 {
        let before = responses.get();
        *expected.borrow_mut() = Some(format!("v{i}").into_bytes());
        stack.send_udp(&mut sim, 9000, addr, get(&format!("k{i}")));
        sim.run_for(Duration::from_millis(2));
        assert_eq!(responses.get(), before + 1, "probe k{i} must be answered");
    }

    let stats = d.server.cache_stats();
    // Burst: 5 cold misses; k0 and k2–k4 fill under their own keys, k1's
    // response is lost and its lease abandoned. Probes: k0 and k2–k4 hit,
    // only k1 is fetched again — it leases afresh and fills.
    assert_eq!(stats.misses, 6, "5 burst misses + k1's probe miss");
    assert_eq!(stats.hits, 4, "every probe but k1's hits");
    assert_eq!(stats.fills, 5, "four burst fills + k1's probe refill");
}

/// A kv store whose GETs of the key `slow` take 500 µs on the
/// accelerator and every other request 20 µs.
struct KeyedKv {
    store: Rc<RefCell<KvStore>>,
}

impl fmt::Debug for KeyedKv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedKv").finish_non_exhaustive()
    }
}

impl RequestProcessor for KeyedKv {
    fn name(&self) -> &str {
        "keyed-kv"
    }

    fn service_time(&self, request: &[u8]) -> Duration {
        match kv::Request::decode(request) {
            Some(kv::Request::Get { key }) if key == b"slow" => Duration::from_micros(500),
            _ => Duration::from_micros(20),
        }
    }

    fn process(&self, request: &[u8]) -> Vec<u8> {
        kv::execute_wire(&mut self.store.borrow_mut(), request)
    }
}

/// The stale-read race across mqueues: a SET waits on one mqueue behind
/// a slow request while a GET of the same key, dispatched after the
/// SET's write-through invalidation, runs first on the other mqueue and
/// fills the old value under a lease nothing voided. The SET must
/// invalidate its key again before it is acknowledged: a GET sent after
/// the acknowledgement must not read the old value from the SNIC.
#[test]
fn get_sent_after_a_set_ack_never_reads_the_old_value() {
    for pipeline in pipelines() {
        get_after_set_ack(pipeline);
    }
}

fn get_after_set_ack(pipeline: PipelineConfig) {
    let mut sim = Sim::new(5);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let sites: Vec<_> = (0..2)
        .map(|_| machine.gpu_site(&machine.add_gpu(GpuSpec::k40m())))
        .collect();
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    for (k, v) in [("alpha", "v1"), ("slow", "s"), ("filler", "f")] {
        store
            .borrow_mut()
            .set(k.as_bytes().to_vec(), v.as_bytes().to_vec());
    }
    // Round-robin over one mqueue per GPU: requests alternate queues.
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        pipeline,
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &sites,
        &cfg,
        Rc::new(KeyedKv { store }),
    );
    let addr = d.server_addr;
    let stack = client_stack(&net, "client");
    let replies: Rc<RefCell<Vec<kv::Response>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let replies = Rc::clone(&replies);
        stack.bind_udp_default(move |_, dg| {
            let r = kv::Response::decode(&dg.payload).expect("a kv response");
            replies.borrow_mut().push(r);
        });
    }
    let set = kv::Request::Set {
        key: b"alpha".to_vec(),
        val: b"v2".to_vec(),
    }
    .encode();
    {
        let stack = stack.clone();
        sim.schedule_in(Duration::ZERO, move |sim| {
            // queue 0: the slow GET, then the SET behind it;
            // queue 1: a filler, then the racing GET of `alpha`.
            for req in [get("slow"), get("filler"), set, get("alpha")] {
                stack.send_udp(sim, 9000, addr, req);
            }
        });
    }
    sim.run_for(Duration::from_millis(5));
    {
        let got = replies.borrow();
        assert_eq!(got.len(), 4, "{pipeline:?}: all four answered");
        // The race happened: the GET ran ahead of the SET and read v1.
        assert!(
            got.contains(&kv::Response::Value(b"v1".to_vec())),
            "{pipeline:?}: the GET must run ahead of the SET"
        );
        assert_eq!(
            got.last(),
            Some(&kv::Response::Stored),
            "{pipeline:?}: SET acked last"
        );
    }
    stack.send_udp(&mut sim, 9000, addr, get("alpha"));
    sim.run_for(Duration::from_millis(2));
    assert_eq!(
        replies.borrow().last(),
        Some(&kv::Response::Value(b"v2".to_vec())),
        "{pipeline:?}: a GET sent after the SET's acknowledgement read the old value"
    );
}

/// An on-NIC kernel that, while `on`, answers GETs itself with a value
/// only it produces; SETs (and every request while off) go to the
/// accelerator.
#[derive(Debug)]
struct GetKernel {
    on: Rc<Cell<bool>>,
}

impl GetKernel {
    fn answer(key: &[u8]) -> Vec<u8> {
        kv::Response::Value([b"snic:".as_slice(), key].concat()).encode()
    }
}

impl SnicKernel for GetKernel {
    fn name(&self) -> &str {
        "get-kernel"
    }

    fn work(&self, _request: &[u8]) -> Duration {
        Duration::from_micros(2)
    }

    fn execute(&self, request: &[u8]) -> Option<Vec<u8>> {
        match kv::Request::decode(request)? {
            kv::Request::Get { key } if self.on.get() => Some(GetKernel::answer(&key)),
            _ => None,
        }
    }
}

/// The on-NIC compute offload, per-message and batched. Engaged at
/// occupancy 0.0, the kernel answers every GET: each GET's reply is the
/// kernel's output, `snic.compute.offloaded` counts exactly those GETs,
/// and nothing fills the cache. SETs, which the kernel declines, still
/// reach the accelerator. The fill lease each GET miss took is released
/// when the kernel answers: once the kernel is switched off, one GET per
/// key and lane reaches the accelerator and fills.
#[test]
fn offloaded_gets_reply_with_the_kernel_output_and_release_their_leases() {
    for pipeline in pipelines() {
        let mut sim = Sim::new(21);
        let telemetry = sim.enable_telemetry();
        let net = Network::new();
        let machine = Machine::new(&net, "server-0");
        let gpu = machine.add_gpu(GpuSpec::k40m());
        let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
        for k in 0..7 {
            store
                .borrow_mut()
                .set(format!("key-{k}").into_bytes(), b"v0".to_vec());
        }
        let kernel_on = Rc::new(Cell::new(true));
        let cfg = DeployConfig {
            mqueues_per_gpu: 2,
            pipeline,
            cache: CacheConfig {
                enabled: true,
                bytes_per_lane: 1 << 16,
            },
            cache_protocol: Some(Rc::new(KvWire)),
            snic_compute: Some((
                Rc::new(GetKernel {
                    on: Rc::clone(&kernel_on),
                }),
                0.0,
            )),
            ..DeployConfig::default()
        };
        let d = deploy_processor(
            &mut sim,
            &net,
            &machine,
            &[machine.gpu_site(&gpu)],
            &cfg,
            Rc::new(SlowKv {
                store,
                service_time: Duration::from_micros(20),
            }),
        );
        // Every request leaves from its own source port, so each reply
        // pairs with its request. Two client hosts load both shards of a
        // two-core pipeline.
        let replies = Rc::new(RefCell::new(Vec::<(u16, Vec<u8>)>::new()));
        let stacks: Vec<HostStack> = (0..2)
            .map(|h| {
                let stack = client_stack(&net, &format!("client-{h}"));
                let replies = Rc::clone(&replies);
                stack.bind_udp_default(move |_, dg| {
                    replies
                        .borrow_mut()
                        .push((dg.dst.port, dg.payload.to_vec()));
                });
                stack
            })
            .collect();
        let burst = |sim: &mut Sim, requests: &[(u16, kv::Request)]| {
            for (port, req) in requests {
                let stack = &stacks[usize::from(port / 100 % 2)];
                stack.send_udp(sim, *port, d.server_addr, req.encode());
            }
            sim.run_for(Duration::from_millis(5));
        };
        let reply_to = |port: u16| {
            let replies = replies.borrow();
            let (_, reply) = replies
                .iter()
                .find(|(p, _)| *p == port)
                .expect("one reply per request");
            reply.clone()
        };

        // Kernel on: 20 requests per host, every fifth a SET. The SETs
        // write other keys: their invalidation would void the GETs'
        // leases and hide one that was never released.
        let requests: Vec<(u16, kv::Request)> = (0..40u16)
            .map(|n| {
                let req = if n % 5 == 4 {
                    kv::Request::Set {
                        key: format!("set-{n}").into_bytes(),
                        val: b"v1".to_vec(),
                    }
                } else {
                    kv::Request::Get {
                        key: format!("key-{}", n % 7).into_bytes(),
                    }
                };
                (10_000 + n / 20 * 100 + n % 20, req)
            })
            .collect();
        burst(&mut sim, &requests);
        assert_eq!(
            replies.borrow().len(),
            requests.len(),
            "{pipeline:?}: all answered"
        );
        let mut gets = 0;
        for (port, req) in &requests {
            let reply = reply_to(*port);
            match req {
                kv::Request::Get { key } => {
                    gets += 1;
                    assert_eq!(
                        reply,
                        GetKernel::answer(key),
                        "{pipeline:?}: a GET was not answered by the kernel"
                    );
                }
                kv::Request::Set { .. } => assert_eq!(
                    kv::Response::decode(&reply),
                    Some(kv::Response::Stored),
                    "{pipeline:?}: a SET must reach the accelerator"
                ),
            }
        }
        assert_eq!(gets, 32);
        assert_eq!(counter(&telemetry, "snic.compute.offloaded"), gets);
        assert_eq!(counter(&telemetry, "cache.misses"), gets, "{pipeline:?}");
        assert_eq!(
            counter(&telemetry, "cache.fills"),
            0,
            "{pipeline:?}: the kernel answered every GET, nothing fills"
        );
        if pipeline.is_batched() {
            assert!(counter(&telemetry, "pipeline.batches") > 0);
        }

        // Kernel off: one GET per key from each host, on fresh ports.
        kernel_on.set(false);
        let requests: Vec<(u16, kv::Request)> = (0..14u16)
            .map(|n| {
                let key = format!("key-{}", n % 7).into_bytes();
                (10_050 + n / 7 * 100 + n % 7, kv::Request::Get { key })
            })
            .collect();
        burst(&mut sim, &requests);
        for (port, _) in &requests {
            assert!(
                matches!(
                    kv::Response::decode(&reply_to(*port)),
                    Some(kv::Response::Value(_))
                ),
                "{pipeline:?}: the accelerator answers once the kernel is off"
            );
        }
        let lanes = pipeline.snic_cores as u64;
        assert_eq!(
            counter(&telemetry, "cache.fills"),
            7 * lanes,
            "{pipeline:?}: a lease an offloaded GET took was never released"
        );
        assert_eq!(counter(&telemetry, "snic.compute.offloaded"), gets);
    }
}

/// Conservation under faults with cache, tenancy and the control plane
/// on together. One response is lost to a pull give-up and one
/// accelerator crashes (its queue is quarantined with requests in
/// flight). Every request context is settled exactly once: collected
/// responses fill under their own keys, every tenant slot is released,
/// the lost key can lease and fill again, and `server.path_resets`
/// counts exactly the contexts released without a response.
#[test]
fn lost_response_and_quarantine_release_every_request_context() {
    let mut sim = Sim::new(31);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    // Distinct names: fault sites address a GPU's region and its queue.
    let sites: Vec<_> = ["gpu-a", "gpu-b"]
        .into_iter()
        .map(|name| {
            let spec = GpuSpec {
                name,
                ..GpuSpec::k40m()
            };
            machine.gpu_site(&machine.add_gpu(spec))
        })
        .collect();
    let store = Rc::new(RefCell::new(KvStore::new(1 << 20)));
    for i in 0..10 {
        store
            .borrow_mut()
            .set(format!("k{i}").into_bytes(), format!("v{i}").into_bytes());
    }
    let mut registry = FunctionRegistry::new();
    let kv_get = registry
        .register(FunctionSpec::new("kv-get", MatchRule::Prefix(vec![0x01])))
        .unwrap();
    let kv_set = registry
        .register(FunctionSpec::new("kv-set", MatchRule::Prefix(vec![0x02])))
        .unwrap();
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        recovery: RecoveryConfig::default(),
        // No retry budget: one read error is one lost response.
        rmq: RmqConfig {
            max_retries: 0,
            ..RmqConfig::default()
        },
        control: ControlConfig {
            min_workers: 2,
            max_workers: 2,
            ..ControlConfig::default()
        },
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 16,
        },
        cache_protocol: Some(Rc::new(KvWire)),
        tenancy: Some((
            TenancyConfig {
                enabled: true,
                cold_start: Duration::from_micros(10),
                ..TenancyConfig::default()
            },
            registry,
        )),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &sites,
        &cfg,
        Rc::new(SlowKv {
            store,
            service_time: Duration::from_micros(20),
        }),
    );
    let addr = d.server_addr;
    let stack = client_stack(&net, "client");
    let replies: Rc<RefCell<Vec<kv::Response>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let replies = Rc::clone(&replies);
        stack.bind_udp_default(move |_, dg| {
            let r = kv::Response::decode(&dg.payload).expect("a kv response");
            replies.borrow_mut().push(r);
        });
    }
    let value = |v: &str| kv::Response::Value(v.as_bytes().to_vec());

    // Warm-up, one request at a time: both functions go resident, and
    // round-robin returns to queue 0.
    let set8 = kv::Request::Set {
        key: b"k8".to_vec(),
        val: b"v8".to_vec(),
    }
    .encode();
    for req in [get("k9"), set8] {
        stack.send_udp(&mut sim, 9000, addr, req);
        sim.run_for(Duration::from_millis(1));
    }
    assert_eq!(replies.borrow().len(), 2);

    // Burst: queue 0 serves k0, k2, k4 (the 2nd read of its region from
    // here on — k2's response — is lost); queue 1's worker crashes on the burst,
    // wedging k1, the SET of k7 and k5 until quarantine releases them.
    let t_burst = sim.now();
    let region = d.mqueues[0].mem().name().to_string();
    sim.enable_faults(
        FaultPlan::new(31)
            .rule(
                format!("rdma.read.{region}"),
                Trigger::Nth(2),
                FaultAction::CqeError,
            )
            .rule(
                format!("accel.{}", d.mqueues[1].label()),
                Trigger::After(t_burst),
                FaultAction::Crash,
            ),
    );
    let set7 = kv::Request::Set {
        key: b"k7".to_vec(),
        val: b"v7-new".to_vec(),
    }
    .encode();
    {
        let stack = stack.clone();
        sim.schedule_in(Duration::ZERO, move |sim| {
            for req in [get("k0"), get("k1"), get("k2"), set7, get("k4"), get("k5")] {
                stack.send_udp(sim, 9000, addr, req);
            }
        });
    }
    sim.run_for(Duration::from_millis(10));
    assert_eq!(
        replies.borrow()[2..],
        [value("v0"), value("v4")],
        "k2's reply was lost; queue 1's three requests are never answered"
    );
    assert_eq!(telemetry.counter("rmq.giveups"), 1);
    assert_eq!(telemetry.counter("accel.crashed"), 1);
    assert_eq!(d.server.quarantined_queues(), 1);
    assert_eq!(
        telemetry.counter("server.path_resets"),
        4,
        "k2's lost response + k1, the SET of k7 and k5 released at quarantine"
    );
    for f in [kv_get, kv_set] {
        assert_eq!(
            d.server.tenancy_in_flight(f),
            0,
            "{f:?} holds no slot once its requests are answered or released"
        );
    }
    // k9 at warm-up, then k0 and k4 — collected after the loss.
    assert_eq!(d.server.cache_stats().fills, 3);

    // Probes, one at a time (queue 1 is quarantined, so all go to queue
    // 0): k0 and k4 hit their own values; the lost k2 and the released
    // k1 lease afresh and fill, then hit.
    let probes = [
        ("k0", true),
        ("k4", true),
        ("k2", false),
        ("k2", true),
        ("k1", false),
        ("k1", true),
    ];
    for (key, hit) in probes {
        let before = d.server.cache_stats();
        stack.send_udp(&mut sim, 9000, addr, get(key));
        sim.run_for(Duration::from_millis(1));
        let want = format!("v{}", &key[1..]);
        assert_eq!(replies.borrow().last(), Some(&value(&want)), "probe {key}");
        let after = d.server.cache_stats();
        if hit {
            assert_eq!(after.hits, before.hits + 1, "probe {key} hits");
        } else {
            assert_eq!(after.misses, before.misses + 1, "probe {key} misses");
            assert_eq!(
                after.fills,
                before.fills + 1,
                "probe {key} leases and fills"
            );
        }
    }
    assert_eq!(telemetry.counter("server.path_resets"), 4);
    for f in [kv_get, kv_set] {
        assert_eq!(d.server.tenancy_in_flight(f), 0);
    }
}
