//! The whole simulation is deterministic: identical seeds and identical
//! construction produce bit-identical results, which is what lets every
//! figure of the paper regenerate exactly.

use std::rc::Rc;
use std::time::Duration;

use lynx::core::testbed::{deploy_processor, DeployConfig, Machine};
use lynx::device::{DelayProcessor, GpuSpec};
use lynx::net::{HostStack, LinkSpec, Network, Platform, StackKind, StackProfile};
use lynx::sim::{MultiServer, Sim, Telemetry};
use lynx::workload::{run_measured, ClosedLoopClient, OpenLoopClient, RunSpec, RunSummary};
use lynx::{FaultAction, FaultPlan, Trigger};

fn run_once(seed: u64) -> RunSummary {
    let mut sim = Sim::new(seed);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 4,
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(DelayProcessor::new(Duration::from_micros(80))),
    );
    let host = net.add_host("client", LinkSpec::gbps40());
    let stack = HostStack::new(
        &net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    // Poisson arrivals exercise the random stream.
    let client = OpenLoopClient::new(
        stack,
        d.server_addr,
        20_000.0,
        Rc::new(|s| vec![s as u8; 64]),
    );
    run_measured(&mut sim, &[&client], RunSpec::quick())
}

#[test]
fn identical_seeds_reproduce_bit_identical_results() {
    let a = run_once(12345);
    let b = run_once(12345);
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.received, b.received);
    assert_eq!(a.throughput, b.throughput);
    for p in [1.0, 50.0, 99.0, 99.9] {
        assert_eq!(a.latency.percentile(p), b.latency.percentile(p));
    }
    assert_eq!(a.latency.mean(), b.latency.mean());
}

/// One fully-traced closed-loop run of the whole Lynx pipeline,
/// optionally with a fault plan armed.
fn traced_run(seed: u64, faults: bool) -> (Telemetry, RunSummary) {
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(DelayProcessor::new(Duration::from_micros(30))),
    );
    if faults {
        // Recoverable CQE errors on the RDMA write path keep the retry
        // machinery busy.
        sim.enable_faults(FaultPlan::new(seed).rule_limited(
            "rdma.write",
            Trigger::Every {
                period: 40,
                offset: 7,
            },
            FaultAction::CqeError,
            6,
        ));
    }
    let host = net.add_host("client", LinkSpec::gbps40());
    let stack = HostStack::new(
        &net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    let client = ClosedLoopClient::new(stack, d.server_addr, 4, Rc::new(|s| vec![s as u8; 64]));
    let summary = run_measured(&mut sim, &[&client], RunSpec::quick());
    assert!(summary.received > 100, "received {}", summary.received);
    if faults {
        assert!(sim.faults_injected() >= 1, "the fault plan must fire");
    }
    (telemetry, summary)
}

/// A same-seed end-to-end replay is observably identical, with and
/// without faults: same trace bytes, same counter and gauge snapshots,
/// same summary.
#[test]
fn same_seed_traced_runs_are_observably_identical() {
    for faults in [false, true] {
        let (first_t, first_s) = traced_run(4242, faults);
        assert!(first_t.event_count() > 1_000, "trace must be non-trivial");
        let (t, s) = traced_run(4242, faults);
        assert_eq!(
            t.to_jsonl(),
            first_t.to_jsonl(),
            "trace bytes diverge (faults={faults})"
        );
        assert_eq!(t.to_chrome_trace(), first_t.to_chrome_trace());
        assert_eq!(
            t.counters_csv(),
            first_t.counters_csv(),
            "counter snapshots diverge (faults={faults})"
        );
        assert_eq!(t.counters(), first_t.counters());
        assert_eq!(t.gauges(), first_t.gauges());
        assert_eq!(s.sent, first_s.sent);
        assert_eq!(s.received, first_s.received);
        assert_eq!(s.throughput, first_s.throughput);
        for p in [1.0, 50.0, 99.0, 99.9] {
            assert_eq!(s.latency.percentile(p), first_s.latency.percentile(p));
        }
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run_once(1);
    let b = run_once(2);
    // Poisson arrival times differ, so the sampled latencies differ.
    assert!(
        a.latency.mean() != b.latency.mean() || a.sent != b.sent,
        "different seeds should explore different arrival sequences"
    );
}
