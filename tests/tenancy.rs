//! Multi-tenancy (§4.5): "Lynx is designed to support multiple independent
//! applications while ensuring full state protection among them." — and,
//! since 0.8.0, the λ-NIC-style serverless tier on top of it: a function
//! registry matched on the request header, per-tenant quotas, cold starts
//! and LRU residency eviction (`lynx_core::tenancy`, `docs/TENANCY.md`).

use std::rc::Rc;
use std::time::Duration;

use lynx::core::shard::ReplicaSet;
use lynx::core::testbed::{deploy_processor, DeployConfig, Machine};
use lynx::core::{
    CostModel, DispatchPolicy, Error, FunctionRegistry, FunctionSpec, LynxServer,
    LynxServerBuilder, MatchRule, Mqueue, MqueueConfig, MqueueKind, ProcessorApp, RemoteMqManager,
    ServiceId, Tenancy, TenancyConfig, TenantQuota, ThreadblockUnit, Worker,
};
use lynx::device::{CpuKind, EchoProcessor, GpuSpec, RequestProcessor};
use lynx::net::{HostStack, LinkSpec, Network, Platform, SockAddr, StackKind, StackProfile};
use lynx::sim::shard::FinishFn;
use lynx::sim::{MultiServer, Sim, SimConfig, Telemetry, Time};
use lynx::workload::{run_measured, ClosedLoopClient, LoadClient, RunSpec};

/// A processor that tags every response with a tenant marker byte.
#[derive(Debug)]
struct Tagger(u8);

impl RequestProcessor for Tagger {
    fn name(&self) -> &str {
        "tagger"
    }

    fn service_time(&self, _request: &[u8]) -> Duration {
        Duration::from_micros(20)
    }

    fn process(&self, request: &[u8]) -> Vec<u8> {
        let mut out = vec![self.0];
        out.extend_from_slice(request);
        out
    }
}

struct Rig {
    sim: Sim,
    server: LynxServer,
    snic: lynx::net::HostId,
    net: Network,
}

fn two_tenant_rig() -> Rig {
    let mut sim = Sim::new(9);
    let _ = &mut sim;
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let snic = net.add_host("server-0-bf", LinkSpec::gbps25());
    let stack = HostStack::new(
        &net,
        snic,
        MultiServer::new(7, 1.0),
        StackProfile::of(Platform::ArmA72, StackKind::Vma),
    );
    let cfg = MqueueConfig {
        slots: 16,
        slot_size: 256,
        ..MqueueConfig::default()
    };
    let spawn = |tag: u8| -> Vec<Mqueue> {
        (0..2)
            .map(|_| {
                let base = gpu.alloc(cfg.required_bytes());
                let mq = Mqueue::new(MqueueKind::Server, gpu.mem(), base, cfg);
                let worker = Worker::new(
                    Rc::new(ThreadblockUnit::new(gpu.spawn_block())),
                    mq.clone(),
                    Rc::new(ProcessorApp::new(Rc::new(Tagger(tag)))),
                );
                worker.start();
                std::mem::forget(worker);
                mq
            })
            .collect()
    };
    let mut builder = LynxServerBuilder::new(stack)
        .cost_model(CostModel::for_cpu(CpuKind::ArmA72))
        .policy(DispatchPolicy::RoundRobin)
        .accelerator(RemoteMqManager::new(machine.rdma_nic().loopback_qp()));
    for mq in spawn(0xA0) {
        builder = builder.server_mqueue(0, mq);
    }
    builder = builder.listen_udp(7001).service(DispatchPolicy::RoundRobin);
    for mq in spawn(0xB0) {
        builder = builder.server_mqueue(0, mq);
    }
    let server = builder
        .listen_udp(7002)
        .build(&mut sim)
        .expect("two-tenant rig is valid");
    assert_eq!(server.services(), 2);
    Rig {
        sim,
        server,
        snic,
        net,
    }
}

fn client(net: &Network, name: &str, addr: SockAddr, tag: u8) -> ClosedLoopClient {
    let host = net.add_host(name, LinkSpec::gbps40());
    let stack = HostStack::new(
        net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    ClosedLoopClient::new(stack, addr, 4, Rc::new(|s| vec![s as u8; 16]))
        .validate(move |s, p| p.len() == 17 && p[0] == tag && p[1] == s as u8)
}

#[test]
fn tenants_never_receive_each_others_responses() {
    let mut rig = two_tenant_rig();
    let a = client(&rig.net, "client-a", SockAddr::new(rig.snic, 7001), 0xA0);
    let b = client(&rig.net, "client-b", SockAddr::new(rig.snic, 7002), 0xB0);
    let summary = run_measured(&mut rig.sim, &[&a, &b], RunSpec::quick());
    // Every response carried the tag of the tenant its port belongs to.
    assert_eq!(summary.invalid, 0);
    assert!(a.stats().received > 100);
    assert!(b.stats().received > 100);
}

#[test]
fn per_service_stats_are_partitioned() {
    let mut rig = two_tenant_rig();
    // Only tenant B gets traffic.
    let b = client(&rig.net, "client-b", SockAddr::new(rig.snic, 7002), 0xB0);
    let _ = run_measured(&mut rig.sim, &[&b], RunSpec::quick());
    let sa = rig.server.service_stats(ServiceId::DEFAULT);
    let sb = rig.server.service_stats(ServiceId(1));
    assert_eq!(sa.requests, 0, "idle tenant saw no requests");
    assert!(sb.requests > 100);
    let total = rig.server.stats();
    assert_eq!(total.requests, sb.requests);
}

#[test]
fn tenant_overload_does_not_drop_the_other_tenants_traffic() {
    let mut rig = two_tenant_rig();
    // Tenant A floods its two 20us workers (capacity ~100 Kreq/s) with a
    // huge closed-loop window that saturates its own rings.
    let host = rig.net.add_host("flood", LinkSpec::gbps40());
    let stack = HostStack::new(
        &rig.net,
        host,
        MultiServer::new(3, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    let flood = ClosedLoopClient::new(
        stack,
        SockAddr::new(rig.snic, 7001),
        64, // 2x the 2x16-slot ring capacity
        Rc::new(|s| vec![s as u8; 16]),
    );
    let b = client(&rig.net, "client-b", SockAddr::new(rig.snic, 7002), 0xB0);
    let _ = run_measured(
        &mut rig.sim,
        &[&flood as &dyn LoadClient, &b],
        RunSpec::quick(),
    );
    let sa = rig.server.service_stats(ServiceId::DEFAULT);
    let sb = rig.server.service_stats(ServiceId(1));
    assert!(
        sa.dropped > 0,
        "the flooding tenant overflows its own rings"
    );
    assert_eq!(sb.dropped, 0, "the well-behaved tenant loses nothing");
    assert_eq!(b.stats().invalid, 0);
}

// ---------------------------------------------------------------------------
// λ-NIC serverless tier: registry, quotas, residency, determinism.
// ---------------------------------------------------------------------------

/// Payload for function `key`: the 4-byte little-endian match key the
/// registry's `MatchRule::FnKey` rule consumes, plus filler.
fn fn_payload(key: u32, seq: u64) -> Vec<u8> {
    let mut p = key.to_le_bytes().to_vec();
    p.push(seq as u8);
    p.resize(16, 0x5A);
    p
}

/// A registry exercising every quota shape: `funcs` unlimited functions,
/// one rate-limited function (`key = funcs`) and one quota-zero function
/// (`key = funcs + 1`), all with `footprint`-byte residency cost.
fn serverless_registry(funcs: u32, footprint: usize) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for k in 0..funcs {
        reg.register(
            FunctionSpec::new(format!("fn-{k}"), MatchRule::FnKey(k)).footprint(footprint),
        )
        .expect("unique keys");
    }
    reg.register(
        FunctionSpec::new("fn-limited", MatchRule::FnKey(funcs))
            .footprint(footprint)
            .quota(TenantQuota::rate_limited(50_000.0, 8.0)),
    )
    .expect("unique key");
    reg.register(
        FunctionSpec::new("fn-banned", MatchRule::FnKey(funcs + 1))
            .footprint(footprint)
            .quota(TenantQuota::zero()),
    )
    .expect("unique key");
    reg
}

#[test]
fn duplicate_function_registration_is_rejected() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new("alpha", MatchRule::FnKey(7)))
        .expect("first registration");
    // Same name, fresh key.
    let e = reg
        .register(FunctionSpec::new("alpha", MatchRule::FnKey(8)))
        .unwrap_err();
    assert!(matches!(e, Error::InvalidConfig { .. }), "got {e:?}");
    // Fresh name, same match key.
    let e = reg
        .register(FunctionSpec::new("beta", MatchRule::FnKey(7)))
        .unwrap_err();
    assert!(matches!(e, Error::InvalidConfig { .. }), "got {e:?}");
    // Identical prefix rule.
    reg.register(FunctionSpec::new("px", MatchRule::Prefix(b"img/".to_vec())))
        .expect("first prefix");
    let e = reg
        .register(FunctionSpec::new("py", MatchRule::Prefix(b"img/".to_vec())))
        .unwrap_err();
    assert!(matches!(e, Error::InvalidConfig { .. }), "got {e:?}");
    // The failed registrations left no trace.
    assert_eq!(reg.len(), 2);
}

#[test]
fn quota_zero_tenant_sheds_with_typed_overloaded() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new("banned", MatchRule::FnKey(0)).quota(TenantQuota::zero()))
        .unwrap();
    let cfg = TenancyConfig {
        enabled: true,
        ..TenancyConfig::default()
    };
    let mut t = Tenancy::new(cfg, reg).unwrap();
    let e = t
        .decide(Time::from_micros(1), 3, &fn_payload(0, 0))
        .unwrap_err();
    match e {
        Error::Overloaded { service } => assert_eq!(service, 3),
        other => panic!("expected Error::Overloaded, got {other:?}"),
    }
    assert_eq!(t.stats().shed, 1);
}

#[test]
fn eviction_of_in_flight_function_defers_until_drain() {
    let mut reg = FunctionRegistry::new();
    let a = reg
        .register(FunctionSpec::new("a", MatchRule::FnKey(0)).footprint(1024))
        .unwrap();
    let b = reg
        .register(FunctionSpec::new("b", MatchRule::FnKey(1)).footprint(1024))
        .unwrap();
    let cfg = TenancyConfig {
        enabled: true,
        accel_memory_bytes: 1024, // room for exactly one resident function
        cold_start: Duration::from_micros(50),
    };
    let mut t = Tenancy::new(cfg, reg).unwrap();
    // A is admitted (cold start) and still in flight when B needs its slot.
    t.decide(Time::from_micros(1), 0, &fn_payload(0, 0))
        .unwrap();
    assert!(t.is_resident(a));
    t.decide(Time::from_millis(1), 0, &fn_payload(1, 0))
        .unwrap();
    assert!(
        t.is_resident(a),
        "an in-flight victim must not lose its state mid-request"
    );
    assert_eq!(t.stats().evictions_deferred, 1);
    assert_eq!(t.stats().evictions, 0);
    // Drain A: the deferred eviction lands, making room for B's next run.
    t.complete(a);
    assert!(!t.is_resident(a), "deferred eviction lands on drain");
    assert_eq!(t.stats().evictions, 1);
    t.complete(b);
}

/// One fully-traced serverless run: an echo deployment with the tenancy
/// stage installed, one client cycling across every registered function
/// (cold starts + LRU eviction churn) and one client hammering the
/// quota-zero function (typed sheds on the empty-reply path).
fn traced_tenancy_run(seed: u64) -> (Telemetry, String) {
    const FUNCS: u32 = 24;
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        tenancy: Some((
            TenancyConfig {
                enabled: true,
                // Room for 8 of the 26 functions: the cycling client
                // keeps the LRU busy.
                accel_memory_bytes: 8 * 4096,
                cold_start: Duration::from_micros(100),
            },
            serverless_registry(FUNCS, 4096),
        )),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(EchoProcessor),
    );
    let mk_stack = |name: &str| {
        let host = net.add_host(name, LinkSpec::gbps40());
        HostStack::new(
            &net,
            host,
            MultiServer::new(2, 1.0),
            StackProfile::of(Platform::Xeon, StackKind::Vma),
        )
    };
    let sweep = ClosedLoopClient::new(
        mk_stack("client-sweep"),
        d.server_addr,
        4,
        Rc::new(|s| fn_payload((s % FUNCS as u64) as u32, s)),
    )
    .validate(|s, p| p == fn_payload((s % FUNCS as u64) as u32, s));
    let banned = ClosedLoopClient::new(
        mk_stack("client-banned"),
        d.server_addr,
        2,
        Rc::new(|s| fn_payload(FUNCS + 1, s)),
    );
    let summary = run_measured(
        &mut sim,
        &[&sweep as &dyn LoadClient, &banned],
        RunSpec::quick(),
    );
    assert!(sweep.stats().received > 100, "sweep too idle");
    assert_eq!(summary.invalid, 0);
    assert!(banned.stats().rejected > 10, "quota-zero tenant must shed");
    assert_eq!(
        banned.stats().received,
        0,
        "quota-zero tenant serves nothing"
    );
    let st = d.server.tenancy_stats();
    assert!(
        st.cold_starts >= u64::from(FUNCS),
        "every function cold-starts"
    );
    assert!(st.evictions > 0, "the LRU must churn under a 8-slot budget");
    assert!(st.shed > 10);
    assert_eq!(st.unmatched, 0);
    let digest = format!(
        "sent={} recv={} rejected={} matched={} cold={} evicted={} shed={}",
        summary.sent,
        summary.received,
        summary.rejected,
        st.matched,
        st.cold_starts,
        st.evictions,
        st.shed,
    );
    (telemetry, digest)
}

/// Same-seed tenancy runs are byte-identical on replay: cold-start
/// timers, LRU tie-breaks and quota sheds all come off the deterministic
/// clock.
#[test]
fn tenancy_runs_are_byte_identical_across_replays() {
    let (first_t, first_d) = traced_tenancy_run(7_700);
    assert!(first_t.event_count() > 1_000, "trace must be non-trivial");
    let (t, d) = traced_tenancy_run(7_700);
    assert_eq!(d, first_d, "digest diverged on replay");
    assert_eq!(t.to_jsonl(), first_t.to_jsonl(), "trace bytes diverge");
    assert_eq!(
        t.counters_csv(),
        first_t.counters_csv(),
        "counter snapshots diverge"
    );
    assert_eq!(t.gauges(), first_t.gauges());
}

/// One serverless replica for the partitioned engine (same shape as
/// `traced_tenancy_run`, sized down): returns the finisher rendering the
/// replica's observable outcome for byte comparison across thread counts.
fn build_tenancy_replica(sim: &mut Sim, index: u64) -> FinishFn<String> {
    const FUNCS: u32 = 12;
    let net = Network::new();
    let machine = Machine::new(&net, format!("server-{index}"));
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        tenancy: Some((
            TenancyConfig {
                enabled: true,
                accel_memory_bytes: 4 * 4096,
                cold_start: Duration::from_micros(100),
            },
            serverless_registry(FUNCS, 4096),
        )),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(EchoProcessor),
    );
    let host = net.add_host(format!("client-{index}"), LinkSpec::gbps40());
    let stack = HostStack::new(
        &net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    let client = ClosedLoopClient::new(
        stack,
        d.server_addr,
        4,
        Rc::new(|s| fn_payload((s % (FUNCS as u64 + 2)) as u32, s)),
    );
    client.start(sim);
    let c = client.clone();
    sim.schedule_in(Duration::from_millis(2), move |sim| {
        c.begin_measure(sim.now())
    });
    let c = client.clone();
    sim.schedule_in(Duration::from_millis(22), move |sim| {
        c.end_measure(sim.now())
    });
    let server = d.server.clone();
    Box::new(move |_sim: &mut Sim| {
        let st = client.stats();
        let ts = server.tenancy_stats();
        format!(
            "sent={} recv={} invalid={} rejected={} matched={} cold={} evicted={} shed={} p99={:?}",
            st.sent,
            st.received,
            st.invalid,
            st.rejected,
            ts.matched,
            ts.cold_starts,
            ts.evictions,
            ts.shed,
            st.latency.try_percentile(99.0),
        )
    })
}

/// `LYNX_SIM_THREADS` is a performance knob, never an observable one —
/// also with the serverless tier installed: same-seed scale-out runs of
/// tenancy-enabled replicas are byte-identical at 1, 2 and 8 threads.
#[test]
fn tenancy_scaleout_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut set: ReplicaSet<String> =
            ReplicaSet::new(8_642, SimConfig::new().threads(threads)).telemetry(true);
        for r in 0..4u64 {
            set.add_replica(&format!("replica/{r}"), move |sim| {
                build_tenancy_replica(sim, r)
            });
        }
        let report = set.run_until(Time::from_millis(25));
        let (jsonl, csv) = (report.to_jsonl(), report.counters_csv());
        (report.outputs, jsonl, csv)
    };
    let (outputs, jsonl, csv) = run(1);
    assert!(!jsonl.is_empty(), "telemetry must record the run");
    for o in &outputs {
        assert!(o.contains("invalid=0"), "echo validation failed: {o}");
    }
    for threads in [2, 8] {
        let (o, j, c) = run(threads);
        assert_eq!(outputs, o, "summaries diverged at {threads} threads");
        assert_eq!(jsonl, j, "trace bytes diverged at {threads} threads");
        assert_eq!(csv, c, "counters diverged at {threads} threads");
    }
}
