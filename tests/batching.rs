//! Edge cases of the batched multi-core SNIC pipeline.
//!
//! Four properties are pinned down end to end:
//!
//! 1. batched runs are deterministic: same seed + same pipeline produce
//!    byte-identical telemetry exports, with and without an armed
//!    [`FaultPlan`];
//! 2. a faulted verb inside a coalesced RDMA batch retries only its own
//!    span, deterministically across reruns and for several seeds;
//! 3. when a ring fills mid-batch, only the tail of the batch sees
//!    [`Backpressure`](lynx::Error::Backpressure) — the head still lands;
//! 4. a batch spread over same-model accelerators pushes each request
//!    into the queue the dispatcher picked for it, and every queue keeps
//!    its own label and drop counter.

use std::rc::Rc;
use std::time::Duration;

use lynx::core::testbed::{deploy_processor, DeployConfig, Machine};
use lynx::core::{
    BatchPolicy, Mqueue, MqueueConfig, MqueueKind, PipelineConfig, RemoteMqManager, ReturnAddr,
};
use lynx::device::{DelayProcessor, GpuSpec};
use lynx::net::{LinkSpec, Network};
use lynx::sim::{Sim, TraceEvent};
use lynx::workload::{run_measured, ClosedLoopClient, RunSpec, RunSummary};
use lynx::{Error, FaultAction, FaultPlan, Trigger};

/// Everything observable about one run: the workload summary, the full
/// counter snapshot, and the serialized event trace.
struct RunRecord {
    summary: RunSummary,
    counters: Vec<(String, u64)>,
    trace: String,
    faults: u64,
}

/// Runs the echo deployment under `pipeline` with 4 client machines
/// (distinct hashes, so every shard of a multi-core pipeline sees load)
/// and an optionally armed fault plan.
fn run_echo(seed: u64, pipeline: PipelineConfig, plan: Option<FaultPlan>) -> RunRecord {
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 4,
        pipeline,
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(DelayProcessor::new(Duration::from_micros(20))),
    );
    if let Some(plan) = plan {
        sim.enable_faults(plan);
    }
    let clients: Vec<ClosedLoopClient> = (0..4)
        .map(|i| {
            ClosedLoopClient::new(
                lynx_bench_client(&net, &format!("client-{i}")),
                d.server_addr,
                8,
                Rc::new(|seq| vec![seq as u8; 64]),
            )
            .validate(|seq, p| p.len() == 64 && p[0] == seq as u8)
        })
        .collect();
    let refs: Vec<&dyn lynx::workload::LoadClient> = clients
        .iter()
        .map(|c| c as &dyn lynx::workload::LoadClient)
        .collect();
    let spec = RunSpec {
        warmup: Duration::from_millis(20),
        measure: Duration::from_millis(100),
    };
    let summary = run_measured(&mut sim, &refs, spec);
    RunRecord {
        summary,
        counters: telemetry.counters(),
        trace: telemetry.to_jsonl(),
        faults: sim.faults_injected(),
    }
}

fn lynx_bench_client(net: &Network, name: &str) -> lynx::net::HostStack {
    let host = net.add_host(name, LinkSpec::gbps40());
    lynx::net::HostStack::new(
        net,
        host,
        lynx::sim::MultiServer::new(2, 1.0),
        lynx::net::StackProfile::of(lynx::net::Platform::Xeon, lynx::net::StackKind::Vma),
    )
}

fn assert_identical(a: &RunRecord, b: &RunRecord, what: &str) {
    assert_eq!(a.summary.sent, b.summary.sent, "{what}: sent diverged");
    assert_eq!(
        a.summary.received, b.summary.received,
        "{what}: received diverged"
    );
    assert_eq!(
        a.summary.throughput, b.summary.throughput,
        "{what}: throughput diverged"
    );
    for p in [1.0, 50.0, 99.0, 99.9] {
        assert_eq!(
            a.summary.latency.percentile(p),
            b.summary.latency.percentile(p),
            "{what}: p{p} diverged"
        );
    }
    assert_eq!(a.counters, b.counters, "{what}: counters diverged");
    assert_eq!(a.trace, b.trace, "{what}: event traces diverged");
}

/// Same seed + same batched multi-core pipeline → byte-identical runs.
#[test]
fn batched_multicore_runs_are_deterministic() {
    let cfg = PipelineConfig {
        snic_cores: 4,
        batch: BatchPolicy::Fixed(8),
    };
    let a = run_echo(7, cfg, None);
    let b = run_echo(7, cfg, None);
    assert_identical(&a, &b, "batched rerun");
    assert!(
        a.counters
            .iter()
            .any(|(n, v)| n == "pipeline.batches" && *v > 0),
        "the batched path must actually run"
    );
    assert!(a.summary.invalid == 0, "echo payloads must round-trip");
}

/// Determinism holds under an armed fault plan too: a CQE error striking
/// inside a coalesced verb retries only its own span, and two identical
/// runs replay the same recovery byte for byte. Swept across seeds.
#[test]
fn coalesced_fault_retry_replays_deterministically() {
    for seed in [3, 11, 2020] {
        let cfg = PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(16),
        };
        let plan = || {
            FaultPlan::new(seed).rule_limited(
                "rdma.write",
                Trigger::Every {
                    period: 25,
                    offset: 3,
                },
                FaultAction::CqeError,
                8,
            )
        };
        let a = run_echo(seed, cfg, Some(plan()));
        let b = run_echo(seed, cfg, Some(plan()));
        assert_identical(&a, &b, "faulted batched rerun");
        assert_eq!(a.faults, b.faults, "same plan fires identically");
        assert!(a.faults >= 1, "seed {seed}: the plan must fire");
        let counter = |name: &str| {
            a.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(
            counter("rmq.retries") >= 1,
            "seed {seed}: the struck span goes through the retry path"
        );
        assert_eq!(
            counter("rmq.giveups"),
            0,
            "seed {seed}: isolated CQE errors never exhaust the budget"
        );
        assert_eq!(a.summary.invalid, 0, "seed {seed}: payloads intact");
    }
}

/// A batched push that hits a full ring lands its head and reports
/// [`Error::Backpressure`] for the tail only — partial batch failure is
/// expressed per message, not as an aborted batch.
#[test]
fn partial_batch_reports_backpressure_for_tail_only() {
    let mut sim = Sim::new(0);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = MqueueConfig {
        slots: 2,
        slot_size: 256,
        ..MqueueConfig::default()
    };
    let base = gpu.alloc(cfg.required_bytes());
    let mq = Mqueue::new(MqueueKind::Server, gpu.mem(), base, cfg);
    let rmq = RemoteMqManager::new(machine.rdma_nic().loopback_qp());

    let items: Vec<(ReturnAddr, Vec<u8>)> =
        (0..4u8).map(|i| (ReturnAddr::Fixed, vec![i; 16])).collect();
    let results = rmq.push_requests(&mut sim, &mq, items);
    sim.run();

    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok() && results[1].is_ok(), "head must land");
    for r in &results[2..] {
        assert!(
            matches!(r, Err(Error::Backpressure { .. })),
            "tail must see Backpressure, got {r:?}"
        );
    }
    // Both head slots reached accelerator memory.
    assert_eq!(mq.in_flight(), 2);
    assert_eq!(mq.drops(), 2);
}

/// Two K40m GPUs with one mqueue each behind one batching SNIC core,
/// overloaded by 8 closed-loop clients so the rings fill. Returns each
/// queue's label, pushes, drops and dispatcher picks (counted from the
/// `Dispatch` trace), plus the server's `mqueue_drops()`.
fn run_two_k40m() -> (Vec<(String, u64, u64, u64)>, u64) {
    let mut sim = Sim::new(1);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpus = [
        machine.add_gpu(GpuSpec::k40m()),
        machine.add_gpu(GpuSpec::k40m()),
    ];
    let sites: Vec<_> = gpus.iter().map(|g| machine.gpu_site(g)).collect();
    let cfg = DeployConfig {
        mqueues_per_gpu: 1,
        pipeline: PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Fixed(8),
        },
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &sites,
        &cfg,
        Rc::new(DelayProcessor::new(Duration::from_micros(20))),
    );
    let clients: Vec<ClosedLoopClient> = (0..8)
        .map(|i| {
            ClosedLoopClient::new(
                lynx_bench_client(&net, &format!("client-{i}")),
                d.server_addr,
                64,
                Rc::new(|seq| vec![seq as u8; 64]),
            )
        })
        .collect();
    let refs: Vec<&dyn lynx::workload::LoadClient> = clients
        .iter()
        .map(|c| c as &dyn lynx::workload::LoadClient)
        .collect();
    let spec = RunSpec {
        warmup: Duration::from_millis(1),
        measure: Duration::from_millis(5),
    };
    run_measured(&mut sim, &refs, spec);
    let picks = |label: &str| {
        telemetry.with_records(|records| {
            records
                .iter()
                .filter(|r| {
                    matches!(&r.event, TraceEvent::Dispatch { queue: Some(q), .. } if q == label)
                })
                .count() as u64
        })
    };
    let queues = d
        .mqueues
        .iter()
        .map(|mq| {
            let label = mq.label();
            let picked = picks(&label);
            (label, mq.pushed(), mq.drops(), picked)
        })
        .collect();
    (queues, d.server.mqueue_drops())
}

/// A batch groups its requests by target queue identity: requests the
/// dispatcher picked for GPU 1 land in GPU 1's ring even though both
/// GPUs are the same model. Every pick is either pushed into its queue
/// or rejected there by backpressure.
#[test]
fn batched_dispatch_pushes_into_the_picked_queue() {
    let (queues, _) = run_two_k40m();
    assert_eq!(queues.len(), 2);
    for (label, pushed, drops, picked) in &queues {
        assert!(*pushed > 0, "{label}: the rig must load both queues");
        assert_eq!(
            pushed + drops,
            *picked,
            "{label}: pushed {pushed} + rejected {drops} != picked {picked}"
        );
    }
}

/// Same-model GPUs get distinct mqueue labels (named after their fabric
/// node), so per-queue counters stay apart and `mqueue_drops()` counts
/// each backpressure rejection once.
#[test]
fn same_model_gpus_get_distinct_mqueue_labels() {
    let (queues, mqueue_drops) = run_two_k40m();
    let labels: Vec<&str> = queues.iter().map(|q| q.0.as_str()).collect();
    assert_eq!(labels, ["server-0/gpu0+0x0", "server-0/gpu1+0x0"]);
    let rejected: u64 = queues
        .iter()
        .map(|(_, pushed, _, picked)| picked - pushed)
        .sum();
    assert!(rejected > 0, "the rig must overload the rings");
    assert_eq!(mqueue_drops, rejected);
}
