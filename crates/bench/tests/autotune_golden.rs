//! Golden pin of the tuned Figure 8b deployment, plus a same-seed replay
//! check over the simulated deployment it produces.
//!
//! The pin is deliberate friction: any change to the cost model, the
//! predictor, or the search order that moves the fig8b answer shows up
//! here as a diff to review, not as silent drift in the bench report.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use lynx_apps::nn::{DigitGenerator, LeNetProcessor, IMAGE_BYTES};
use lynx_bench::{client_stack, rig_with_config};
use lynx_core::testbed::DeployConfig;
use lynx_core::{BatchPolicy, MqueueConfig, PipelineConfig, SnicPlatform};
use lynx_device::{AppProfile, BluefieldProfile, GpuProfile, GpuSpec};
use lynx_workload::tune::{tune, Candidate, Stage, TuneGoal, TuneSpace};
use lynx_workload::{run_measured, ClosedLoopClient, RunSpec};

const MODEL_SEED: u64 = 99;

/// The fig8b tuning problem exactly as `benches/autotune.rs` poses it:
/// LeNet on up to four K80s behind a BlueField, 5 ms SLO.
fn fig8b_tuning() -> (TuneGoal, TuneSpace) {
    let app = AppProfile::of("lenet", &LeNetProcessor::new(MODEL_SEED), IMAGE_BYTES);
    let goal = TuneGoal::maximize(app, Duration::from_millis(5));
    let space = TuneSpace {
        gpus: vec![1, 2, 3, 4],
        gpu: GpuProfile::k80(),
        ..TuneSpace::bluefield()
    };
    (goal, space)
}

#[test]
fn tuned_fig8b_config_is_pinned() {
    let (goal, space) = fig8b_tuning();
    let tuned = tune(&BluefieldProfile, &goal, &space).expect("fig8b goal is feasible");

    // The golden answer: all four K80s, 30 workers per GPU (the sweet
    // spot between worker parallelism and per-message scan cost), the
    // default unbatched single-core pipeline (the accelerator is the
    // bottleneck, so SNIC batching buys nothing), compact 16-slot rings,
    // and 1 KiB slots fitting the 784-byte MNIST image plus header.
    assert_eq!(
        tuned.candidate,
        Candidate {
            gpus: 4,
            mqueues_per_gpu: 30,
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1),
            slots: 16,
            cache: false,
        },
        "tuned fig8b candidate drifted: {:?}",
        tuned.candidate
    );
    assert_eq!(tuned.slot_size, 1024);
    assert_eq!(tuned.platform, SnicPlatform::Bluefield);
    assert_eq!(tuned.prediction.bottleneck, Stage::Accelerator);
    // ~30× the paper's static 4-GPU bar (13.3 Kreq/s), because one
    // worker per K80 leaves the GPU idle between kernel launches.
    assert!(
        (390_000.0..400_000.0).contains(&tuned.prediction.throughput),
        "tuned fig8b prediction drifted: {:.1} Kreq/s",
        tuned.prediction.throughput / 1e3
    );
}

/// Deploys the tuned fig8b config and drives it twice from scratch:
/// same seed, same clients, same duration. The two runs must agree to
/// the byte — the tuner's output cannot introduce nondeterminism into
/// the simulated deployment.
#[test]
fn tuned_fig8b_deployment_replays_byte_identically() {
    let (goal, space) = fig8b_tuning();
    let tuned = tune(&BluefieldProfile, &goal, &space).expect("fig8b goal is feasible");
    let cfg: DeployConfig = tuned.deploy_config(None);
    assert_eq!(cfg.mq.slots, 16);
    assert_eq!(
        cfg.pipeline,
        PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1)
        }
    );
    assert_eq!(
        cfg.mq,
        MqueueConfig {
            slots: 16,
            slot_size: 1024,
            ..MqueueConfig::default()
        }
    );

    let run = |cfg: &DeployConfig| {
        let mut r = rig_with_config(
            Rc::new(LeNetProcessor::new(MODEL_SEED)),
            tuned.candidate.gpus,
            GpuSpec::k80(),
            cfg,
        );
        let payload = {
            let gen = Rc::new(RefCell::new(DigitGenerator::new(7)));
            Rc::new(move |seq: u64| gen.borrow_mut().image((seq % 10) as u8))
        };
        // A small window and short run keep this fast under the debug
        // profile — determinism either holds or breaks within a few
        // thousand requests.
        let client =
            ClosedLoopClient::new(client_stack(&r.net, "client-0", 2), r.addr, 16, payload);
        let summary = run_measured(
            &mut r.sim,
            &[&client],
            RunSpec {
                warmup: Duration::from_millis(2),
                measure: Duration::from_millis(10),
            },
        );
        (summary.received, format!("{summary:?}"))
    };

    let (received, a) = run(&cfg);
    let (_, b) = run(&cfg);
    assert_eq!(a, b, "same-seed replays of the tuned deployment diverged");
    assert!(received > 0, "replay window recorded no responses: {a}");
}
