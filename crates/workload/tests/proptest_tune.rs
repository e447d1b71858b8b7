//! Property-based tests of the deployment auto-tuner.
//!
//! Two invariants matter to callers: whatever `tune` emits must pass the
//! same `Validate` checks the server builder runs (no "tuned" config that
//! `deploy` then rejects), and the whole tuner must be a pure function of
//! its inputs so a tuned deployment replays byte-identically.

use std::time::Duration;

use proptest::prelude::*;

use lynx_core::{BatchPolicy, Validate};
use lynx_device::{AppProfile, BluefieldProfile, CostProfile};
use lynx_workload::tune::{predict, tune, Candidate, TuneGoal, TuneSpace};

/// Picks the subset of `all` selected by `mask`, falling back to the
/// first element so no axis ever comes out empty.
fn subset(all: &[usize], mask: u32) -> Vec<usize> {
    let picked: Vec<usize> = all
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v)
        .collect();
    if picked.is_empty() {
        vec![all[0]]
    } else {
        picked
    }
}

fn batch_axis(mask: u32) -> Vec<BatchPolicy> {
    let all = [
        BatchPolicy::Fixed(1),
        BatchPolicy::Fixed(4),
        BatchPolicy::Fixed(16),
        BatchPolicy::Fixed(32),
    ];
    let picked: Vec<BatchPolicy> = all
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v)
        .collect();
    if picked.is_empty() {
        vec![BatchPolicy::Fixed(1)]
    } else {
        picked
    }
}

fn space_from(masks: (u32, u32, u32, u32, u32)) -> TuneSpace {
    TuneSpace {
        gpus: subset(&[1, 2, 4], masks.0),
        mqueues_per_gpu: subset(&[1, 8, 30, 60, 240], masks.1),
        snic_cores: subset(&[1, 2, 4, 6], masks.2),
        batch: batch_axis(masks.3),
        slots: subset(&[16, 32, 64], masks.4),
        ..TuneSpace::bluefield()
    }
}

/// Builds a goal from raw draws: `load_kreq == 0` means "maximize".
fn goal_from(delay_us: u64, payload: usize, slo_us: u64, load_kreq: u64) -> TuneGoal {
    let app = AppProfile::delay_echo(Duration::from_micros(delay_us), payload);
    let slo = Duration::from_micros(slo_us);
    if load_kreq == 0 {
        TuneGoal::maximize(app, slo)
    } else {
        TuneGoal::provision(app, load_kreq as f64 * 1_000.0, slo)
    }
}

proptest! {
    /// Every configuration the tuner emits passes the same [`Validate`]
    /// checks the server builder runs, and its knobs all come from the
    /// declared axes.
    #[test]
    fn tune_output_passes_builder_validation(
        masks in (0u32..8, 0u32..32, 0u32..16, 0u32..16, 0u32..8),
        delay_us in 5u64..1_000,
        payload in 16usize..1_024,
        slo_us in 200u64..50_000,
        load_kreq in 0u64..400,
    ) {
        let space = space_from(masks);
        let goal = goal_from(delay_us, payload, slo_us, load_kreq);
        if let Ok(t) = tune(&BluefieldProfile, &goal, &space) {
            prop_assert!(t.prediction.feasible, "tune must only return feasible configs");
            let dc = t.deploy_config(None);
            prop_assert!(dc.pipeline.check(BluefieldProfile.pipeline_cores()).is_ok());
            prop_assert!(dc.mq.validate().is_ok());
            prop_assert!(dc.control.validate().is_ok());
            prop_assert!(dc.cache.validate().is_ok());
            prop_assert!(!dc.cache.enabled, "no protocol given, cache must be emitted off");
            prop_assert!(t.cache.validate().is_ok());
            prop_assert!(dc.rmq.validate().is_ok());
            prop_assert!(space.gpus.contains(&t.candidate.gpus));
            prop_assert!(space.mqueues_per_gpu.contains(&t.candidate.mqueues_per_gpu));
            prop_assert!(space.snic_cores.contains(&t.candidate.snic_cores));
            prop_assert!(space.batch.contains(&t.candidate.batch));
            prop_assert!(space.slots.contains(&t.candidate.slots));
        }
    }

    /// The whole search replays byte-identically: two runs over the same
    /// inputs render the same `Debug` output (which covers every knob,
    /// the full prediction, and the evaluation count).
    #[test]
    fn tune_replays_byte_identically(
        masks in (0u32..8, 0u32..32, 0u32..16, 0u32..16, 0u32..8),
        delay_us in 5u64..1_000,
        payload in 16usize..1_024,
        slo_us in 200u64..50_000,
        load_kreq in 0u64..400,
    ) {
        let space = space_from(masks);
        let goal = goal_from(delay_us, payload, slo_us, load_kreq);
        let a = tune(&BluefieldProfile, &goal, &space);
        let b = tune(&BluefieldProfile, &goal, &space);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The predictor is deterministic point-wise, including the
    /// fixed-point iteration that sizes batched forward cycles.
    #[test]
    fn predict_is_pure(
        delay_us in 5u64..1_000,
        payload in 16usize..1_024,
        gpus in 1usize..=4,
        mq in 1usize..=240,
        cores in 1usize..=6,
        k in 1usize..=32,
        slots in 1usize..=128,
    ) {
        let goal = goal_from(delay_us, payload, 2_000, 0);
        let cand = Candidate {
            gpus,
            mqueues_per_gpu: mq,
            snic_cores: cores,
            batch: BatchPolicy::Fixed(k),
            slots,
            cache: false,
        };
        let space = TuneSpace::bluefield();
        let a = predict(&BluefieldProfile, &goal, &space, &cand);
        let b = predict(&BluefieldProfile, &goal, &space, &cand);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
