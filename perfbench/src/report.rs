//! The run protocol, the metrics and the printed report.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::calib;
use crate::capacity;
use crate::rigs::{self, Inputs, Kind, Mode, Obs, Spec};
use crate::stats::{self, Digest};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const E2E: [(&str, &str); 8] = [
    ("sim_goodput_rps", "req/s"),
    ("sim_mean_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_capacity_rps", "req/s"),
    ("host_req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const LAYER: [(&str, &str); 47] = [
    ("sim.p50_us", "us"),
    ("sim.events_per_req", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.allocs_per_req", "count"),
    ("sim.alloc_bytes_per_req", "B"),
    ("sim.run_self_frac", "ratio"),
    ("shard.windows", "count"),
    ("shard.messages", "count"),
    ("shard.events_imbalance", "ratio"),
    ("net.msgs_per_req", "count"),
    ("pipeline.rx_batch_mean", "count"),
    ("pipeline.fwd_batch_mean", "count"),
    ("server.replies_per_forward_poll", "count"),
    ("server.dropped", "count"),
    ("dispatch.shed", "count"),
    ("server.path_resets", "count"),
    ("mqueue.drops", "count"),
    ("mqueue.wait_us_p50", "us"),
    ("mqueue.wait_us_p99", "us"),
    ("rmq.forward_us_p50", "us"),
    ("rmq.forward_us_p99", "us"),
    ("fabric.rdma_verbs_per_req", "count"),
    ("fabric.rdma_bytes_per_req", "B"),
    ("accel.service_us_p50", "us"),
    ("accel.service_us_p99", "us"),
    ("gpu.exec_util", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.fills_per_miss", "ratio"),
    ("cache.invalidations_per_set", "ratio"),
    ("snic.compute.offloaded", "count"),
    ("tenancy.cold_starts_per_kreq", "count"),
    ("tenancy.evictions_per_kreq", "count"),
    ("tenancy.evictions_deferred", "count"),
    ("tenancy.unmatched", "count"),
    ("tenancy.register_us_per_fn", "us"),
    ("control.lane_util", "ratio"),
    ("control.degrade_on", "count"),
    ("setup.deploy_s", "s"),
    ("setup.preload_s", "s"),
    ("apps.host_us_per_call", "us"),
    ("apps.calls_per_req", "count"),
    ("workload.host_ns_per_req", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.peak_rss_mb", "MB"),
    ("trace.records_per_req", "count"),
    ("untraced.peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];

/// Set-ups timed per run in all, those of the measured runs included:
/// `setup_s` is their median.
const SETUPS: usize = 40;

/// Host-timing repetitions a run makes even past its time budget.
const MIN_TIMING_REPS: usize = 3;

/// Paper: one K80 serves LeNet at 3.3 Kreq/s (Fig. 8b, footnote 2).
const PAPER_LENET_PER_K80: f64 = 3_300.0;

/// Fingerprint of the modelled behaviour of one run: the ledger (every
/// outcome and served latency) and the server, cache and tenancy stats.
/// Host-side quantities (event counts, timings) are left out, so a
/// simulator-only change keeps it.
fn sim_digest(o: &Obs) -> u64 {
    let mut d = Digest::default();
    d.u64(o.result.ledger_digest);
    for &v in &o.model {
        d.u64(v);
    }
    d.value()
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host times of every set-up a run made, scaled to the reference host.
#[derive(Default)]
struct Setups {
    total: Vec<f64>,
    deploy: Vec<f64>,
    preload: Vec<f64>,
    register_us: Vec<f64>,
}

impl Setups {
    /// Adds the set-up of `o`, timed where [`calib::scale`] gave `scale`.
    fn add(&mut self, o: &Obs, scale: f64) {
        self.total.push(o.setup.as_secs_f64() * scale);
        self.deploy.push(o.deploy.as_secs_f64() * scale);
        self.preload.push(o.preload.as_secs_f64() * scale);
        self.register_us.push(ratio(
            o.register.as_secs_f64() * 1e6 * scale,
            o.functions as f64,
        ));
    }

    /// Times set-ups on their own until there are `n`.
    fn fill(&mut self, n: usize, spec: &Spec, inputs: &Inputs, seed: u64) {
        if self.total.len() >= n {
            return;
        }
        let scale = calib::scale();
        while self.total.len() < n {
            self.total
                .push(rigs::setup_time(spec, inputs, seed).as_secs_f64() * scale);
        }
    }
}

/// Host-timing repetitions of the fixed-rate workload over its timing
/// window, with the real application (nothing memoised). Host times are
/// scaled to the reference host.
struct Timing {
    first: Obs,
    digest: u64,
    /// Host throughput of each repetition (printed).
    host_rps: Vec<f64>,
    /// Reference-loop time before each repetition (printed).
    reference_ms: Vec<f64>,
    /// Requests, simulator events and host seconds over all repetitions.
    attempted: u64,
    events: u64,
    run_s: f64,
    deterministic: bool,
    wrong: u64,
}

impl Timing {
    /// Host throughput over all repetitions: their requests over their
    /// host time. Single repetitions of one run differ by up to 2x on a
    /// shared VM; many short ones spread over the run even that out.
    fn rps(&self) -> f64 {
        ratio(self.attempted as f64, self.run_s)
    }

    /// Host cost per simulator event over all repetitions.
    fn ns_per_event(&self) -> f64 {
        ratio(self.run_s * 1e9, self.events as f64)
    }
}

/// Repeats the timing window until the next repetition, and `reserve`
/// more of its length, would end past `deadline`; at least
/// [`MIN_TIMING_REPS`] times. Every repetition must reproduce the first
/// one's digest. With `spread_setups`, set-ups timed on their own are
/// spread over the repetitions until [`SETUPS`] were timed in all, so that
/// `setup_s` samples the whole run rather than one moment of it.
fn timing_reps(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    deadline: Instant,
    reserve: f64,
    setups: &mut Setups,
    spread_setups: bool,
) -> Result<Timing, String> {
    let start = Instant::now();
    let budget = deadline.saturating_duration_since(start).as_secs_f64();
    let mut timing: Option<Timing> = None;
    loop {
        let t0 = Instant::now();
        let scale = calib::scale();
        let o = rigs::run(spec, inputs, seed, spec.rate, spec.timing, Mode::default());
        check_balanced(&o)?;
        if timing.is_none() {
            print_wrong(&o);
        }
        setups.add(&o, scale);
        let digest = sim_digest(&o);
        let run_s = o.run.as_secs_f64() * scale;
        let attempted = o.result.tally.attempted;
        let events = o.events;
        let wrong = o.result.tally.wrong;
        let t = timing.get_or_insert_with(|| Timing {
            first: o,
            digest,
            host_rps: Vec::new(),
            reference_ms: Vec::new(),
            attempted: 0,
            events: 0,
            run_s: 0.0,
            deterministic: true,
            wrong: 0,
        });
        if digest != t.digest {
            eprintln!(
                "timing repetition {} digest {digest:016x} differs from {:016x}",
                t.host_rps.len(),
                t.digest
            );
            t.deterministic = false;
        }
        t.wrong += wrong;
        t.host_rps.push(attempted as f64 / run_s);
        t.reference_ms.push(calib::NOMINAL_S / scale * 1e3);
        t.attempted += attempted;
        t.events += events;
        t.run_s += run_s;
        if spread_setups {
            let share = (start.elapsed().as_secs_f64() / budget).min(1.0);
            setups.fill((SETUPS as f64 * share) as usize, spec, inputs, seed);
        }
        let rep = t0.elapsed().mul_f64(1.0 + reserve);
        if t.host_rps.len() >= MIN_TIMING_REPS && Instant::now() + rep > deadline {
            break;
        }
    }
    if spread_setups {
        setups.fill(SETUPS, spec, inputs, seed);
    }
    Ok(timing.expect("at least one repetition"))
}

fn check_balanced(o: &Obs) -> Result<(), String> {
    let t = o.result.tally;
    if t.balanced() {
        Ok(())
    } else {
        Err(format!("incomplete run: ledger does not balance ({t:?})"))
    }
}

fn print_wrong(o: &Obs) {
    for (id, why) in o.result.wrong_log.iter().take(20) {
        println!("WRONG request {id}: {why}");
    }
    if o.result.wrong_log.len() > 20 {
        println!("... {} wrong responses in all", o.result.wrong_log.len());
    }
}

fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head.to_string(),
    }
}

fn print_env(spec: &Spec, seed: u64, trace: bool) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed {seed} trace {}",
        spec.name,
        u8::from(trace)
    );
    println!(
        "host: available_parallelism {cores}, {}, commit {}",
        env!("PERFBENCH_RUSTC"),
        commit()
    );
    println!(
        "offered {} req/s, p99 limit {} us, windows {:?} + {:?} (timing {:?} + {:?})",
        spec.rate,
        spec.limit.as_micros(),
        spec.fixed.0,
        spec.fixed.1,
        spec.timing.0,
        spec.timing.1
    );
}

/// Simulated metrics of one fixed-rate run, identical for every
/// repetition of a seed.
struct SimMetrics {
    goodput: f64,
    mean: f64,
    p50: f64,
    p99: f64,
    p999: f64,
    samples: usize,
    beyond: usize,
}

fn sim_metrics(o: &Obs) -> Result<SimMetrics, String> {
    let lat = &o.result.lat_ns;
    let tail = stats::tail_percentile(lat.len());
    if tail != Some(99.9) {
        return Err(format!(
            "only {} latency samples: p99.9 needs {} beyond it ({:?})",
            lat.len(),
            stats::MIN_BEYOND,
            o.result.tally
        ));
    }
    Ok(SimMetrics {
        goodput: lat.len() as f64 / o.result.measure.as_secs_f64(),
        mean: lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e3,
        p50: us(stats::percentile(lat, 50.0)),
        p99: us(stats::percentile(lat, 99.0)),
        p999: us(stats::percentile(lat, 99.9)),
        samples: lat.len(),
        beyond: stats::beyond(99.9, lat.len()),
    })
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Checks the metric set against the published names and renders it.
fn finish(
    names: &[(&str, &str)],
    values: Vec<(&'static str, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut rows = Vec::new();
    for (&(name, unit), (got, v)) in names.iter().zip(values.iter()) {
        assert_eq!(name, *got, "metric order");
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        rows.push((name, unit, *v));
    }
    assert_eq!(rows.len(), names.len(), "every metric is reported");
    for (name, unit, v) in &rows {
        println!("  {name:<34} {v:>16.4} {unit}");
    }
    Ok(json(correct, attempted, failed, &rows))
}

/// Runs one workload and returns the result line.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    print_env(spec, seed, trace);
    let inputs = Inputs::new(spec.kind, seed);
    if trace {
        traced(spec, &inputs, seed, seconds)
    } else {
        untraced(spec, &inputs, seed, seconds)
    }
}

fn memo() -> Mode {
    Mode {
        memo: true,
        ..Mode::default()
    }
}

fn untraced(spec: &Spec, inputs: &Inputs, seed: u64, seconds: f64) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setups = Setups::default();
    // The full fixed-rate run: the simulated metrics.
    let scale = calib::scale();
    let o = rigs::run(spec, inputs, seed, spec.rate, spec.fixed, memo());
    check_balanced(&o)?;
    setups.add(&o, scale);
    let peak_rss = alloc::peak_rss_mb();
    let sim = sim_metrics(&o)?;
    let digest = sim_digest(&o);
    // The same run with telemetry on, where `server.path_resets` is
    // counted; it must not change the model.
    let scale = calib::scale();
    let replay = rigs::run(
        spec,
        inputs,
        seed,
        spec.rate,
        spec.fixed,
        Mode {
            traced: true,
            memo: true,
        },
    );
    check_balanced(&replay)?;
    setups.add(&replay, scale);
    let path_resets = replay.counter("server.path_resets");
    let replay_digest = sim_digest(&replay);
    drop(replay);

    let limit_us = spec.limit.as_secs_f64() * 1e6;
    let mut probe_wrong = 0;
    let mut probe_unbalanced = 0;
    let (cap, log) = capacity::search(spec.rate / 0.7, limit_us, |rate| {
        let scale = calib::scale();
        let p = rigs::run(spec, inputs, seed, rate, spec.probe, memo());
        setups.add(&p, scale);
        probe_wrong += p.result.tally.wrong;
        probe_unbalanced += u64::from(!p.result.tally.balanced());
        print_wrong(&p);
        capacity::judge(rate, limit_us, &p.result)
    });
    if probe_unbalanced > 0 {
        return Err(format!(
            "{probe_unbalanced} capacity probes left an open ledger"
        ));
    }
    let timing = timing_reps(spec, inputs, seed, deadline, 0.0, &mut setups, true)?;
    print_wrong(&o);
    let t = o.result.tally;
    let correct = t.wrong == 0
        && probe_wrong == 0
        && timing.wrong == 0
        && timing.deterministic
        && replay_digest == digest
        && o.unmatched == 0
        && path_resets == 0;

    println!(
        "ledger: attempted {} served {} shed(expected) {} refused {} wrong {} unanswered {} \
         late {} | failed_frac {}",
        t.attempted,
        t.served,
        t.shed,
        t.refused,
        t.wrong,
        t.unanswered,
        o.result.late,
        ratio(t.failed() as f64, t.attempted as f64)
    );
    println!(
        "sim_digest {digest:016x}; telemetry replay {replay_digest:016x} ({}), \
         server.path_resets {path_resets}, tenancy.unmatched {}",
        if replay_digest == digest {
            "identical"
        } else {
            "DIFFERENT"
        },
        o.unmatched
    );
    println!(
        "wrong responses: fixed run {}, capacity probes {probe_wrong}, timing repetitions {}",
        t.wrong, timing.wrong
    );
    let per_rep: Vec<String> = timing.host_rps.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "host_req_per_s per timing repetition ({:?} + {:?}, digest {:016x}, {}): {}",
        spec.timing.0,
        spec.timing.1,
        timing.digest,
        if timing.deterministic {
            "all identical"
        } else {
            "NOT identical"
        },
        per_rep.join(" ")
    );
    let r = &timing.reference_ms;
    println!(
        "host speed: reference loop {:.2} / {:.2} / {:.2} ms (min / median / max of {}), \
         host times scaled to {:.1} ms",
        r.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(r),
        r.iter().copied().fold(0.0, f64::max),
        r.len(),
        calib::NOMINAL_S * 1e3
    );
    println!(
        "sim_p50_us {} | sim_p999_us from {} samples, {} beyond it",
        sim.p50, sim.samples, sim.beyond
    );
    println!("generator lateness 0 us (arrivals are events at their due times)");
    for p in &log {
        println!(
            "capacity probe {:>12.1} req/s: p99 {:>10.1} us, backlog {:>6} -> {}",
            p.rate,
            p.p99_us,
            p.backlog,
            if p.pass { "pass" } else { "miss" }
        );
    }
    if spec.kind == Kind::LenetScaleout {
        let per_gpu = cap / rigs::LENET_GPUS as f64;
        println!(
            "paper: LeNet per K80 {per_gpu:.1} req/s at p99 <= {limit_us} us vs 3300 req/s \
             (error {:+.1}%)",
            (per_gpu / PAPER_LENET_PER_K80 - 1.0) * 100.0
        );
    }
    println!(
        "setup_s from {} set-ups; peak RSS {peak_rss:.1} MB after the fixed run, {:.1} MB at exit",
        setups.total.len(),
        alloc::peak_rss_mb()
    );
    let values = vec![
        ("sim_goodput_rps", sim.goodput),
        ("sim_mean_us", sim.mean),
        ("sim_p99_us", sim.p99),
        ("sim_p999_us", sim.p999),
        ("sim_capacity_rps", cap),
        ("host_req_per_s", timing.rps()),
        ("setup_s", stats::median(&setups.total)),
        ("peak_rss_mb", peak_rss),
    ];
    finish(&E2E, values, correct, t.attempted, t.failed())
}

fn traced(spec: &Spec, inputs: &Inputs, seed: u64, seconds: f64) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setups = Setups::default();
    // The full fixed-rate run, untraced and traced: the model and the
    // program's own counters and trace records.
    let scale = calib::scale();
    let plain = rigs::run(spec, inputs, seed, spec.rate, spec.fixed, memo());
    check_balanced(&plain)?;
    setups.add(&plain, scale);
    let untraced_peak = alloc::peak_rss_mb();
    let scale = calib::scale();
    let o = rigs::run(
        spec,
        inputs,
        seed,
        spec.rate,
        spec.fixed,
        Mode {
            traced: true,
            memo: true,
        },
    );
    check_balanced(&o)?;
    setups.add(&o, scale);
    let traced_peak = alloc::peak_rss_mb();
    print_wrong(&o);
    let digest = sim_digest(&o);
    let plain_digest = sim_digest(&plain);
    let same = digest == plain_digest;
    let (a, b) = (sim_metrics(&plain)?, sim_metrics(&o)?);
    let same_metrics =
        (a.goodput, a.mean, a.p50, a.p99, a.p999) == (b.goodput, b.mean, b.p50, b.p99, b.p999);
    println!(
        "sim_digest traced {digest:016x} vs untraced {plain_digest:016x}: {}",
        if same && same_metrics {
            "identical"
        } else {
            "DIFFERENT"
        }
    );
    println!(
        "traced sim_goodput_rps {} sim_mean_us {} sim_p99_us {} sim_p999_us {}",
        b.goodput, b.mean, b.p99, b.p999
    );
    // Host costs: untraced repetitions of the timing window with the real
    // application, then one traced repetition with callback spans.
    let timing = timing_reps(spec, inputs, seed, deadline, 2.0, &mut setups, false)?;
    let tt_scale = calib::scale();
    let tt = rigs::run(
        spec,
        inputs,
        seed,
        spec.rate,
        spec.timing,
        Mode {
            traced: true,
            memo: false,
        },
    );
    check_balanced(&tt)?;
    setups.add(&tt, tt_scale);
    print_wrong(&tt);
    let tt_same = sim_digest(&tt) == timing.digest;
    println!(
        "timing window digest traced {:016x} vs untraced {:016x}: {}",
        sim_digest(&tt),
        timing.digest,
        if tt_same { "identical" } else { "DIFFERENT" }
    );

    let t = o.result.tally;
    let att = t.attempted as f64;
    let c = |name: &str| o.counter(name) as f64;
    let drops: u64 = o
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("mqueue.") && k.ends_with(".drops"))
        .map(|(_, v)| v)
        .sum();
    let mut st = o.stages.clone();
    st.wait.sort_unstable();
    st.service.sort_unstable();
    st.forward.sort_unstable();
    let (windows, messages, imbalance) = match &o.shard {
        Some((w, m, per)) => {
            let max = per.iter().copied().max().unwrap_or(0) as f64;
            let mean = per.iter().sum::<u64>() as f64 / per.len().max(1) as f64;
            (*w as f64, *m as f64, ratio(max, mean))
        }
        None => (0.0, 0.0, 1.0),
    };
    let first = &timing.first;
    let first_att = first.result.tally.attempted as f64;
    let tt_att = tt.result.tally.attempted as f64;
    let tt_run_ns = tt.run.as_secs_f64() * 1e9;
    let path_resets = o.counter("server.path_resets");
    let correct = same
        && same_metrics
        && timing.deterministic
        && tt_same
        && t.wrong == 0
        && plain.result.tally.wrong == 0
        && timing.wrong == 0
        && tt.result.tally.wrong == 0
        && path_resets == 0
        && o.unmatched == 0;
    let values = vec![
        ("sim.p50_us", a.p50),
        ("sim.events_per_req", ratio(plain.events as f64, att)),
        ("sim.host_ns_per_event", timing.ns_per_event()),
        (
            "sim.allocs_per_req",
            ratio(first.allocs.0 as f64, first_att),
        ),
        (
            "sim.alloc_bytes_per_req",
            ratio(first.allocs.1 as f64, first_att),
        ),
        (
            "sim.run_self_frac",
            ratio(
                tt_run_ns - (tt.result.callback_ns + tt.app_ns) as f64,
                tt_run_ns,
            ),
        ),
        ("shard.windows", windows),
        ("shard.messages", messages),
        ("shard.events_imbalance", imbalance),
        ("net.msgs_per_req", ratio(plain.server_msgs as f64, att)),
        (
            "pipeline.rx_batch_mean",
            ratio(c("pipeline.batched_msgs"), c("pipeline.batches")),
        ),
        (
            "pipeline.fwd_batch_mean",
            ratio(
                c("pipeline.forward_batched_msgs"),
                c("pipeline.forward_batches"),
            ),
        ),
        (
            "server.replies_per_forward_poll",
            ratio(c("server.replies"), c("server.forward_polls")),
        ),
        ("server.dropped", c("server.dropped")),
        ("dispatch.shed", c("dispatch.shed")),
        ("server.path_resets", path_resets as f64),
        ("mqueue.drops", drops as f64),
        ("mqueue.wait_us_p50", us(stats::percentile(&st.wait, 50.0))),
        ("mqueue.wait_us_p99", us(stats::percentile(&st.wait, 99.0))),
        (
            "rmq.forward_us_p50",
            us(stats::percentile(&st.forward, 50.0)),
        ),
        (
            "rmq.forward_us_p99",
            us(stats::percentile(&st.forward, 99.0)),
        ),
        (
            "fabric.rdma_verbs_per_req",
            ratio(c("fabric.rdma.writes") + c("fabric.rdma.reads"), att),
        ),
        (
            "fabric.rdma_bytes_per_req",
            ratio(c("fabric.rdma.bytes"), att),
        ),
        (
            "accel.service_us_p50",
            us(stats::percentile(&st.service, 50.0)),
        ),
        (
            "accel.service_us_p99",
            us(stats::percentile(&st.service, 99.0)),
        ),
        (
            "gpu.exec_util",
            ratio(
                st.service.iter().sum::<u64>() as f64,
                (o.workers * o.sim_ns) as f64,
            ),
        ),
        (
            "cache.hit_rate",
            ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
        ),
        (
            "cache.fills_per_miss",
            ratio(c("cache.fills"), c("cache.misses")),
        ),
        (
            "cache.invalidations_per_set",
            ratio(c("cache.invalidations"), o.result.writes as f64),
        ),
        ("snic.compute.offloaded", c("snic.compute.offloaded")),
        (
            "tenancy.cold_starts_per_kreq",
            ratio(c("tenancy.cold_starts") * 1e3, att),
        ),
        (
            "tenancy.evictions_per_kreq",
            ratio(c("tenancy.evictions") * 1e3, att),
        ),
        (
            "tenancy.evictions_deferred",
            c("tenancy.evictions_deferred"),
        ),
        ("tenancy.unmatched", o.unmatched as f64),
        (
            "tenancy.register_us_per_fn",
            stats::median(&setups.register_us),
        ),
        (
            "control.lane_util",
            o.gauges.get("control.lane_util").copied().unwrap_or(0.0),
        ),
        ("control.degrade_on", c("control.degrade_on")),
        ("setup.deploy_s", stats::median(&setups.deploy)),
        ("setup.preload_s", stats::median(&setups.preload)),
        (
            "apps.host_us_per_call",
            ratio(tt.app_ns as f64 / 1e3 * tt_scale, tt.app_calls as f64),
        ),
        (
            "apps.calls_per_req",
            ratio(first.app_calls as f64, first_att),
        ),
        (
            "workload.host_ns_per_req",
            ratio(tt.result.load_ns as f64 * tt_scale, tt_att),
        ),
        (
            "trace.overhead_ratio",
            ratio(timing.rps(), tt_att / (tt.run.as_secs_f64() * tt_scale)),
        ),
        ("trace.peak_rss_mb", traced_peak),
        ("trace.records_per_req", ratio(o.records as f64, att)),
        ("untraced.peak_rss_mb", untraced_peak),
        ("failed_frac", ratio(t.failed() as f64, att)),
    ];
    finish(&LAYER, values, correct, t.attempted, t.failed())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"` pairs of one array of `BENCHMARK.json`.
    fn section(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\""))?;
                    let rest = &obj[at + f.len() + 2..];
                    let rest = &rest[rest.find('"')? + 1..];
                    Some(rest[..rest.find('"')?].to_string())
                };
                (field("name").expect("a name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn benchmark_json_names_match_the_binary() {
        let json = benchmark_json();
        let e2e: Vec<_> = E2E
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(section(&json, "end_to_end"), e2e);
        let layer: Vec<_> = LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(section(&json, "per_layer"), layer);
        for (name, _) in section(&json, "workloads") {
            assert!(Spec::by_name(&name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn capacity_predicate_is_monotone_in_offered_rate() {
        let spec = Spec::by_name("tenant_mix").expect("tenant_mix");
        let inputs = Inputs::new(spec.kind, 3);
        let limit_us = spec.limit.as_secs_f64() * 1e6;
        let windows = (Duration::from_millis(10), Duration::from_millis(40));
        let verdicts: Vec<bool> = [0.4, 0.7, 1.0, 1.3, 1.6]
            .iter()
            .map(|f| {
                let rate = spec.rate / 0.7 * f;
                let mode = memo();
                let o = rigs::run(&spec, &inputs, 3, rate, windows, mode);
                capacity::judge(rate, limit_us, &o.result).pass
            })
            .collect();
        // Once a rate misses the limit, every higher rate misses too.
        assert!(verdicts.windows(2).all(|w| w[0] || !w[1]), "{verdicts:?}");
        assert!(verdicts[0] && !verdicts[verdicts.len() - 1], "{verdicts:?}");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = E2E.iter().chain(LAYER.iter()).map(|(n, _)| *n).collect();
        for n in &all {
            assert!(n.len() <= 64);
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), E2E.len() + LAYER.len());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json(true, 10, 0, &[("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
