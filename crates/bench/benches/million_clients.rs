//! Client-count scalability: one **million** simulated clients against a
//! sharded Lynx fleet (PR 8).
//!
//! The paper's motivation is a network server facing huge client
//! populations; this harness shows the partitioned engine makes that
//! population simulable in CI-feasible wall-clock time. Each of 8 shard
//! replicas runs a complete deployment (SmartNIC stack, 4 GPUs, echoing
//! workers) loaded by a [`FleetClient`] multiplexing 125 000 logical
//! closed-loop clients over one UDP port — 1 000 000 clients total, each
//! with a ~1 s exponential think time, so the aggregate offered load
//! (~1 Mreq/s) sits below fleet capacity and every replica stays stable.
//!
//! Because the replicas share no links, the engine runs them
//! embarrassingly parallel in a single conservative window; the run is
//! byte-deterministic at any thread count (the smoke profile asserts it).
//!
//! `--smoke` / `LYNX_SMOKE=1` shrinks the fleet to 16k clients for
//! CI. The full run's wall-clock and throughput feed the EXPERIMENTS.md
//! row for the 1M-client experiment.

use std::rc::Rc;
use std::time::{Duration, Instant};

use lynx_bench::{client_stack, ShapeReport};
use lynx_core::shard::ReplicaSet;
use lynx_core::testbed::{deploy_processor, DeployConfig, Machine};
use lynx_device::{DelayProcessor, GpuSpec};
use lynx_sim::{Sim, SimConfig, Time};
use lynx_workload::report::{banner, Table};
use lynx_workload::{FleetClient, LoadClient, RunSpec};

const REPLICAS: usize = 8;
/// Request size: the 16-byte fleet header plus a small body.
const REQ_BYTES: usize = 64;
/// Simulated GPU-side service time per request.
const SERVICE: Duration = Duration::from_micros(20);

struct Scale {
    clients_per_replica: usize,
    /// Mean exponential think time between a response and the next request.
    think: Duration,
    /// The fleet's first requests are spread over this ramp.
    ramp: Duration,
    spec: RunSpec,
}

impl Scale {
    /// The headline run: 8 × 125k = 1 000 000 logical clients. The ramp
    /// equals the think time so the fleet's start rate never exceeds its
    /// steady-state rate (a short ramp would burst past server capacity,
    /// drop requests, and permanently stall those clients' loops).
    fn full() -> Scale {
        Scale {
            clients_per_replica: 125_000,
            think: Duration::from_secs(1),
            ramp: Duration::from_secs(1),
            spec: RunSpec {
                warmup: Duration::from_millis(1_200),
                measure: Duration::from_millis(1_000),
            },
        }
    }

    /// CI shape check: same topology, 8 × 2k clients.
    fn smoke() -> Scale {
        Scale {
            clients_per_replica: 2_000,
            think: Duration::from_millis(20),
            ramp: Duration::from_millis(20),
            spec: RunSpec {
                warmup: Duration::from_millis(25),
                measure: Duration::from_millis(25),
            },
        }
    }

    fn total_clients(&self) -> usize {
        REPLICAS * self.clients_per_replica
    }
}

/// Per-replica outcome, byte-compared across thread counts.
type ReplicaOut = (u64, u64, u64, u64); // sent, received, invalid, rejected

/// Runs the sharded fleet and returns (wall, threads used, per-replica
/// outcomes). `LYNX_SIM_THREADS` (the CI thread-matrix pin) overrides the
/// requested thread count, as everywhere else in the typed config.
fn run_fleet(scale: &Scale, threads: usize) -> (Duration, usize, Vec<ReplicaOut>) {
    let mut set: ReplicaSet<ReplicaOut> =
        ReplicaSet::new(777, SimConfig::new().threads(threads).with_env_overrides());
    let (clients, think, ramp, spec) = (
        scale.clients_per_replica,
        scale.think,
        scale.ramp,
        scale.spec,
    );
    for r in 0..REPLICAS {
        set.add_replica(&format!("replica/{r}"), move |sim| {
            let net = lynx_net::Network::new();
            let machine = Machine::new(&net, format!("server-{r}"));
            let sites: Vec<_> = (0..4)
                .map(|_| {
                    let gpu = machine.add_gpu(GpuSpec::k40m());
                    machine.gpu_site(&gpu)
                })
                .collect();
            let cfg = DeployConfig {
                mqueues_per_gpu: 2,
                ..DeployConfig::default()
            };
            let d = deploy_processor(
                sim,
                &net,
                &machine,
                &sites,
                &cfg,
                Rc::new(DelayProcessor::new(SERVICE)),
            );
            let fleet = FleetClient::new(
                client_stack(&net, &format!("fleet-{r}"), 4),
                d.server_addr,
                clients,
                REQ_BYTES,
            )
            .think(think)
            .ramp(ramp);
            fleet.start(sim);
            let f = fleet.clone();
            sim.schedule_in(spec.warmup, move |sim| f.begin_measure(sim.now()));
            let f = fleet.clone();
            sim.schedule_in(spec.warmup + spec.measure, move |sim| {
                f.end_measure(sim.now())
            });
            Box::new(move |_sim: &mut Sim| {
                let st = fleet.stats();
                (st.sent, st.received, st.invalid, st.rejected)
            })
        });
    }
    let deadline = Time::from_nanos((spec.warmup + spec.measure).as_nanos() as u64);
    let start = Instant::now();
    let report = set.run_until(deadline);
    (start.elapsed(), report.threads, report.outputs)
}

fn main() {
    let smoke = lynx_bench::smoke();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    banner("Client-count scalability — a million clients on the sharded engine");
    println!(
        "\n{} replicas x {} logical clients = {} total, think {:?}, measure {:?}\n",
        REPLICAS,
        scale.clients_per_replica,
        scale.total_clients(),
        scale.think,
        scale.spec.measure,
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (wall, threads, outs) = run_fleet(&scale, cores.clamp(1, 8));

    let recv: u64 = outs.iter().map(|o| o.1).sum();
    let sent: u64 = outs.iter().map(|o| o.0).sum();
    let invalid: u64 = outs.iter().map(|o| o.2).sum();
    let rejected: u64 = outs.iter().map(|o| o.3).sum();
    let sim_kreq = recv as f64 / scale.spec.measure.as_secs_f64() / 1e3;

    let mut table = Table::new(&["clients", "threads", "wall s", "Kreq/s (sim)", "recv"]);
    table.row(&[
        format!("{}", scale.total_clients()),
        format!("{threads}"),
        format!("{:.1}", wall.as_secs_f64()),
        format!("{sim_kreq:.0}"),
        format!("{recv}"),
    ]);
    println!("{}", table.render());
    table
        .write_csv(lynx_bench::results_dir().join("million_clients.csv"))
        .expect("write csv");

    let mut report = ShapeReport::new();
    report.check(
        "the full fleet participates (every replica sends and receives)",
        outs.iter().all(|o| o.0 > 0 && o.1 > 0),
        format!("sent={sent} recv={recv}"),
    );
    report.check(
        "no invalid or shed responses at this operating point",
        invalid == 0 && rejected == 0,
        format!("invalid={invalid} rejected={rejected}"),
    );
    report.check(
        "aggregate measured throughput is within 30% of the offered load",
        {
            let offered = scale.total_clients() as f64 / scale.think.as_secs_f64() / 1e3;
            (sim_kreq - offered).abs() / offered < 0.3
        },
        format!(
            "{sim_kreq:.0} Kreq/s vs {:.0} Kreq/s offered",
            scale.total_clients() as f64 / scale.think.as_secs_f64() / 1e3
        ),
    );
    if smoke {
        // Cheap at smoke scale: the run is byte-deterministic in the
        // thread count. (tests/partition.rs covers this exhaustively.)
        let (_, _, one) = run_fleet(&scale, 1);
        report.check(
            "thread count is not observable (1 thread == N threads)",
            one == outs,
            format!("{} replica outcomes compared", outs.len()),
        );
    }
    let pass = report.print();
    assert!(pass, "million_clients shape checks failed");
}
