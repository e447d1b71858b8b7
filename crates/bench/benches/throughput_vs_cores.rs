//! Pipeline scaling: echo throughput vs simulated SNIC cores, batched
//! against unbatched (§4.4, §6.2 — the dispatcher/forwarder as the
//! server's scaling bottleneck).
//!
//! Sweep: SNIC cores {1..4} with a `Fixed(16)` batch policy, plus the
//! unbatched single-pipeline baseline (the pre-pipeline server, whose
//! work floats freely over the BlueField lane pool). 64 B UDP echo with
//! 5 µs of GPU work over 8 busy mqueues — short requests concentrated
//! on few queues, so response bursts actually form per-mqueue forward
//! batches (spreading the same load over hundreds of queues starves
//! every queue down to singleton batches and measures nothing).
//! Closed-loop saturation load from 12 client machines — enough
//! distinct client hashes to populate every shard.
//!
//! Smoke mode (`LYNX_SMOKE=1`): 2 cores and a short run, used by CI to
//! keep the harness compiling and converging without the full sweep.

use std::rc::Rc;
use std::time::Duration;

use lynx_bench::{client_stack, echo_rig_with, Design, ShapeReport};
use lynx_core::{BatchPolicy, PipelineConfig, SnicPlatform};
use lynx_workload::report::{banner, Table};
use lynx_workload::{run_measured, ClosedLoopClient, RunSpec};

const MQUEUES: usize = 8;
const CLIENTS: usize = 12;
const WINDOW: usize = 16;
const DELAY_US: u64 = 5;

fn saturation_throughput(pipeline: PipelineConfig, spec: RunSpec) -> f64 {
    let mut rig = echo_rig_with(
        Design::Lynx(SnicPlatform::Bluefield),
        Duration::from_micros(DELAY_US),
        MQUEUES,
        pipeline,
    );
    let clients: Vec<ClosedLoopClient> = (0..CLIENTS)
        .map(|i| {
            ClosedLoopClient::new(
                client_stack(&rig.net, &format!("client-{i}"), 2),
                rig.addr,
                WINDOW,
                Rc::new(|_| vec![0x5A; 64]),
            )
        })
        .collect();
    let refs: Vec<&dyn lynx_workload::LoadClient> = clients
        .iter()
        .map(|c| c as &dyn lynx_workload::LoadClient)
        .collect();
    let summary = run_measured(&mut rig.sim, &refs, spec);
    summary.throughput
}

fn main() {
    let smoke = lynx_bench::smoke();
    banner("Pipeline scaling — throughput vs SNIC cores, batched vs unbatched");
    println!("\n64B UDP echo, {DELAY_US}us GPU work, {MQUEUES} mqueues, closed loop.\n");

    let spec = if smoke {
        RunSpec {
            warmup: Duration::from_millis(10),
            measure: Duration::from_millis(30),
        }
    } else {
        RunSpec {
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(200),
        }
    };
    let max_cores = if smoke { 2 } else { 4 };

    let unbatched = saturation_throughput(PipelineConfig::default(), spec);
    let mut table = Table::new(&["pipeline", "cores", "Kreq/s", "vs unbatched"]);
    table.row(&[
        "unbatched".into(),
        "-".into(),
        format!("{:.1}", unbatched / 1e3),
        "1.00x".into(),
    ]);

    let mut batched = Vec::new();
    for cores in 1..=max_cores {
        let t = saturation_throughput(
            PipelineConfig {
                snic_cores: cores,
                batch: BatchPolicy::Fixed(16),
            },
            spec,
        );
        table.row(&[
            "Fixed(16)".into(),
            format!("{cores}"),
            format!("{:.1}", t / 1e3),
            format!("{:.2}x", t / unbatched),
        ]);
        batched.push(t);
    }
    println!("{}", table.render());
    table
        .write_csv(lynx_bench::results_dir().join("throughput_vs_cores.csv"))
        .expect("write csv");

    let mut report = ShapeReport::new();
    report.check(
        "every configuration sustains load",
        unbatched > 0.0 && batched.iter().all(|&t| t > 0.0),
        format!("unbatched {:.0}/s, batched min {:.0}/s", unbatched, {
            batched.iter().cloned().fold(f64::INFINITY, f64::min)
        }),
    );
    if !smoke {
        report.check(
            "batched throughput scales monotonically from 1 to 4 cores",
            batched.windows(2).all(|w| w[1] >= w[0] * 0.99),
            batched
                .iter()
                .map(|t| format!("{:.0}K", t / 1e3))
                .collect::<Vec<_>>()
                .join(" -> "),
        );
        let best = batched.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        report.check(
            "batching wins >= 1.5x over the unbatched pipeline at saturation",
            best >= unbatched * 1.5,
            format!("{:.2}x at {} cores", best / unbatched, max_cores),
        );
    }
    if !report.print() {
        std::process::exit(1);
    }
}
