//! Auto-tuner validation: cost-model-driven configurations versus the
//! hand-tuned deployments of Figures 6 and 8b.
//!
//! For each workload point the harness (1) runs `lynx_workload::tune`
//! over the platform's knob space, (2) simulates both the hand-tuned
//! figure configuration and the tuned one under identical load, and
//! (3) reports predictor-vs-simulated error for every searched point it
//! prints. Acceptance gates (enforced — the process exits non-zero on a
//! miss):
//!
//! * tuned throughput ≥ 0.95× hand-tuned at saturation;
//! * tuned p99 ≤ hand-tuned p99 (×1.05 measurement tolerance) at a
//!   common offered load;
//! * analytic prediction within 25% of simulated throughput on every
//!   reported point.
//!
//! `LYNX_SMOKE=1` (or `--smoke`) runs a reduced grid on the first point
//! only — the CI mode — asserting the tuned deployment's simulated p99
//! meets the SLO the tuner promised.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use lynx_apps::nn::{DigitGenerator, LeNetProcessor, IMAGE_BYTES};
use lynx_bench::{client_stack, rig_with_config, EchoRig, ShapeReport};
use lynx_core::testbed::DeployConfig;
use lynx_core::{BatchPolicy, MqueueConfig, SnicPlatform};
use lynx_device::{
    AppProfile, BluefieldProfile, DelayProcessor, GpuProfile, GpuSpec, RequestProcessor,
};
use lynx_workload::report::{banner, Table};
use lynx_workload::tune::{predict, tune, Candidate, TuneGoal, TuneSpace};
use lynx_workload::{
    run_measured, ClosedLoopClient, OpenLoopClient, PayloadFn, RunSpec, RunSummary,
};

/// One workload point: the app, the GPUs available to it, and the
/// paper's hand-tuned deployment for it.
struct Point {
    name: &'static str,
    app: AppProfile,
    gpu: GpuProfile,
    gpu_spec: GpuSpec,
    avail_gpus: Vec<usize>,
    hand: Candidate,
    slo: Duration,
    proc: Box<dyn Fn() -> Rc<dyn RequestProcessor>>,
    payload: Box<dyn Fn() -> PayloadFn>,
}

fn echo_point(name: &'static str, delay: Duration, slo: Duration) -> Point {
    Point {
        name,
        app: AppProfile::delay_echo(delay, 64),
        gpu: GpuProfile::k40m(),
        gpu_spec: GpuSpec::k40m(),
        avail_gpus: vec![1],
        // Figure 6's best Lynx/BlueField bar: 240 mqueues, default
        // (unbatched, single-core) pipeline, 32×256 B rings.
        hand: Candidate {
            gpus: 1,
            mqueues_per_gpu: 240,
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1),
            slots: 32,
            cache: false,
        },
        slo,
        proc: Box::new(move |/* fresh per deployment */| Rc::new(DelayProcessor::new(delay))),
        payload: Box::new(|| Rc::new(|_| vec![0x5A; 64])),
    }
}

fn lenet_point() -> Point {
    const MODEL_SEED: u64 = 99;
    Point {
        name: "fig8b lenet 4xK80",
        app: AppProfile::of("lenet", &LeNetProcessor::new(MODEL_SEED), IMAGE_BYTES),
        gpu: GpuProfile::k80(),
        gpu_spec: GpuSpec::k80(),
        avail_gpus: vec![1, 2, 3, 4],
        // Figure 8b's static 4-GPU bar: one mqueue per GPU, 16×1024 B
        // rings, default pipeline.
        hand: Candidate {
            gpus: 4,
            mqueues_per_gpu: 1,
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1),
            slots: 16,
            cache: false,
        },
        slo: Duration::from_millis(5),
        proc: Box::new(move || Rc::new(LeNetProcessor::new(MODEL_SEED))),
        payload: Box::new(|| {
            let gen = Rc::new(RefCell::new(DigitGenerator::new(7)));
            Rc::new(move |seq| gen.borrow_mut().image((seq % 10) as u8))
        }),
    }
}

/// A `DeployConfig` realizing `cand` with the point's ring slot size.
fn config_for(cand: &Candidate, slot_size: usize) -> DeployConfig {
    DeployConfig {
        platform: SnicPlatform::Bluefield,
        mqueues_per_gpu: cand.mqueues_per_gpu,
        mq: MqueueConfig {
            slots: cand.slots,
            slot_size,
            ..MqueueConfig::default()
        },
        pipeline: lynx_core::PipelineConfig {
            snic_cores: cand.snic_cores,
            batch: cand.batch,
        },
        ..DeployConfig::default()
    }
}

fn rig(point: &Point, cand: &Candidate, slot_size: usize) -> EchoRig {
    rig_with_config(
        (point.proc)(),
        cand.gpus,
        point.gpu_spec,
        &config_for(cand, slot_size),
    )
}

/// Closed-loop saturation throughput: two client machines, fig6-style
/// capacity-safe windows.
fn saturation(point: &Point, cand: &Candidate, slot_size: usize, spec: RunSpec) -> RunSummary {
    let q = cand.gpus * cand.mqueues_per_gpu;
    let window = (q + 16).min(q * cand.slots / 2).max(4);
    let mut r = rig(point, cand, slot_size);
    let c1 = ClosedLoopClient::new(
        client_stack(&r.net, "client-0", 2),
        r.addr,
        window,
        (point.payload)(),
    );
    let c2 = ClosedLoopClient::new(
        client_stack(&r.net, "client-1", 2),
        r.addr,
        window,
        (point.payload)(),
    );
    run_measured(&mut r.sim, &[&c1, &c2], spec)
}

/// Open-loop p99 at a fixed offered load (split over two clients).
fn latency_at(
    point: &Point,
    cand: &Candidate,
    slot_size: usize,
    rate: f64,
    spec: RunSpec,
) -> RunSummary {
    let mut r = rig(point, cand, slot_size);
    let c1 = OpenLoopClient::new(
        client_stack(&r.net, "client-0", 2),
        r.addr,
        rate / 2.0,
        (point.payload)(),
    );
    let c2 = OpenLoopClient::new(
        client_stack(&r.net, "client-1", 2),
        r.addr,
        rate / 2.0,
        (point.payload)(),
    );
    run_measured(&mut r.sim, &[&c1, &c2], spec)
}

fn pct_err(predicted: f64, simulated: f64) -> f64 {
    (predicted - simulated).abs() / simulated * 100.0
}

fn smoke() {
    banner("Auto-tuner smoke (reduced grid)");
    let point = echo_point(
        "fig6 echo 20us",
        Duration::from_micros(20),
        Duration::from_micros(500),
    );
    let goal = TuneGoal::maximize(point.app, point.slo);
    let space = TuneSpace {
        gpus: point.avail_gpus.clone(),
        gpu: point.gpu,
        ..TuneSpace::reduced()
    };
    let tuned = tune(&BluefieldProfile, &goal, &space).expect("smoke point is tunable");
    println!(
        "tuned: {:?} predicting {:.1} Kreq/s, p99 {:?} ({} evaluations)",
        tuned.candidate,
        tuned.prediction.throughput / 1e3,
        tuned.prediction.p99,
        tuned.evaluations
    );

    let spec = RunSpec {
        warmup: Duration::from_millis(20),
        measure: Duration::from_millis(100),
    };
    let sat = saturation(&point, &tuned.candidate, tuned.slot_size, spec);
    let lat = latency_at(
        &point,
        &tuned.candidate,
        tuned.slot_size,
        tuned.prediction.throughput * 0.6,
        spec,
    );
    let p99 = Duration::from_secs_f64(lat.percentile_us(99.0).expect("no samples") * 1e-6);
    let err = pct_err(tuned.prediction.throughput, sat.throughput);

    let mut report = ShapeReport::new();
    report.check(
        "tuned deployment's simulated p99 meets the SLO the tuner promised",
        p99 <= goal.slo_p99,
        format!("{p99:?} vs SLO {:?}", goal.slo_p99),
    );
    report.check(
        "predictor within 25% of simulated saturation throughput",
        err <= 25.0,
        format!(
            "predicted {:.1} vs simulated {:.1} Kreq/s ({err:.1}%)",
            tuned.prediction.throughput / 1e3,
            sat.throughput / 1e3
        ),
    );
    if !report.print() {
        std::process::exit(1);
    }
}

fn main() {
    if lynx_bench::smoke() {
        smoke();
        return;
    }

    banner("Auto-tuner vs hand-tuned deployments (fig6 / fig8b workloads)");
    println!("\nEvery printed point carries its predictor-vs-simulated error.\n");

    let points = [
        echo_point(
            "fig6 echo 20us",
            Duration::from_micros(20),
            Duration::from_micros(500),
        ),
        // An 800us kernel puts ~2.3ms of M/D/1 queueing delay on the
        // workers at the tuner's 85%-load operating point, so the SLO has
        // to leave room for it — 2ms would force the tuner to trade all
        // its throughput for latency headroom.
        echo_point(
            "fig6 echo 800us",
            Duration::from_micros(800),
            Duration::from_millis(10),
        ),
        lenet_point(),
    ];
    let spec = RunSpec {
        warmup: Duration::from_millis(50),
        measure: Duration::from_millis(200),
    };

    let mut table = Table::new(&[
        "workload",
        "config",
        "knobs",
        "sim Kreq/s",
        "pred Kreq/s",
        "err %",
        "p99 [us]",
    ]);
    let mut report = ShapeReport::new();

    for point in &points {
        let goal = TuneGoal::maximize(point.app, point.slo);
        let space = TuneSpace {
            gpus: point.avail_gpus.clone(),
            gpu: point.gpu,
            ..TuneSpace::bluefield()
        };
        let tuned = tune(&BluefieldProfile, &goal, &space).expect("point is tunable");
        let hand_pred = predict(&BluefieldProfile, &goal, &space, &point.hand);
        // Keep the figures' exact ring slot sizes for the hand configs.
        let hand_slot_size = if point.app.request_bytes > 128 {
            1024
        } else {
            256
        };

        let hand_sat = saturation(point, &point.hand, hand_slot_size, spec);
        let tuned_sat = saturation(point, &tuned.candidate, tuned.slot_size, spec);
        // Common offered load for the latency comparison: 60% of the
        // hand-tuned deployment's measured capacity.
        let rate = hand_sat.throughput * 0.6;
        let hand_lat = latency_at(point, &point.hand, hand_slot_size, rate, spec);
        let tuned_lat = latency_at(point, &tuned.candidate, tuned.slot_size, rate, spec);
        let hand_p99 = hand_lat.percentile_us(99.0).expect("no samples");
        let tuned_p99 = tuned_lat.percentile_us(99.0).expect("no samples");

        let hand_err = pct_err(hand_pred.throughput, hand_sat.throughput);
        let tuned_err = pct_err(tuned.prediction.throughput, tuned_sat.throughput);
        for (cfg, cand, sim, pred, err, p99) in [
            (
                "hand",
                &point.hand,
                &hand_sat,
                hand_pred.throughput,
                hand_err,
                hand_p99,
            ),
            (
                "tuned",
                &tuned.candidate,
                &tuned_sat,
                tuned.prediction.throughput,
                tuned_err,
                tuned_p99,
            ),
        ] {
            table.row(&[
                point.name.to_string(),
                cfg.to_string(),
                format!(
                    "{}g x {}mq, {} cores, {:?}, {} slots",
                    cand.gpus, cand.mqueues_per_gpu, cand.snic_cores, cand.batch, cand.slots
                ),
                format!("{:.1}", sim.kreq_per_sec()),
                format!("{:.1}", pred / 1e3),
                format!("{err:.1}"),
                format!("{p99:.0}"),
            ]);
        }

        report.check(
            format!("{}: tuned >= 0.95x hand-tuned throughput", point.name),
            tuned_sat.throughput >= 0.95 * hand_sat.throughput,
            format!(
                "tuned {:.1} vs hand {:.1} Kreq/s",
                tuned_sat.kreq_per_sec(),
                hand_sat.kreq_per_sec()
            ),
        );
        report.check(
            format!("{}: tuned p99 equal-or-better at common load", point.name),
            tuned_p99 <= hand_p99 * 1.05,
            format!(
                "tuned {tuned_p99:.0} us vs hand {hand_p99:.0} us at {:.0} Kreq/s",
                rate / 1e3
            ),
        );
        report.check(
            format!(
                "{}: predictor within 25% on both reported points",
                point.name
            ),
            hand_err <= 25.0 && tuned_err <= 25.0,
            format!("hand {hand_err:.1}%, tuned {tuned_err:.1}%"),
        );
    }

    println!("{}", table.render());
    table
        .write_csv(lynx_bench::results_dir().join("autotune.csv"))
        .expect("write csv");
    if !report.print() {
        std::process::exit(1);
    }
}
