//! Cost-model-driven deployment auto-tuner.
//!
//! The paper tunes every deployment by hand: Figure 6 sweeps mqueue
//! counts, Figure 8 fixes GPU counts per design, and the batching/core
//! sharding knobs introduced by later releases multiply the configuration
//! space again. This module closes the loop analytically: it consumes the
//! typed [`CostProfile`] surface (never the raw calibration constants),
//! predicts throughput and latency for a candidate deployment with a
//! queueing approximation, and searches the discrete knob space with
//! deterministic coordinate descent.
//!
//! The pipeline is:
//!
//! 1. [`TuneGoal`] states *what* to achieve — the application's
//!    [`AppProfile`], an offered load (or zero to maximize), and a p99 SLO.
//! 2. [`TuneSpace`] states *which* knob values may be considered.
//! 3. [`predict`] scores one candidate: per-stage capacities (SNIC CPU,
//!    accelerator workers, ring slots, wire, admission ceiling) and an
//!    M/D/1-style latency estimate.
//! 4. [`tune`] walks the space and emits a [`TunedConfig`] whose
//!    [`TunedConfig::deploy_config`] passes the same [`Validate`] checks
//!    [`lynx_core::LynxServerBuilder`] enforces.
//!
//! The search is pure arithmetic over the profile's `Duration`s — no
//! randomness, no wall clock — so two runs with the same inputs produce
//! byte-identical results (see the property tests).
//!
//! See `docs/TUNING.md` for the cost-model derivation and the measured
//! predictor accuracy.

use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx_core::testbed::DeployConfig;
use lynx_core::{
    BatchPolicy, CacheConfig, CacheProtocol, ControlConfig, MqueueConfig, PipelineConfig,
    SnicPlatform, Validate, SLOT_HEADER,
};
use lynx_device::{AppProfile, CostProfile, CpuKind, GpuProfile};
use lynx_net::{StackKind, StackProfile};

/// What the tuner should achieve.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneGoal {
    /// The application being deployed.
    pub app: AppProfile,
    /// Offered load in requests/second. `0.0` means "maximize throughput"
    /// (closed-loop saturation, Figure 6 style); a positive value means
    /// "provision the cheapest deployment that sustains this rate"
    /// (Figure 8 style).
    pub offered_load: f64,
    /// The 99th-percentile latency target the deployment must meet at its
    /// operating point.
    pub slo_p99: Duration,
}

impl TuneGoal {
    /// Goal: saturate — find the configuration with the highest predicted
    /// throughput whose p99 at 85% utilization still meets `slo_p99`.
    pub fn maximize(app: AppProfile, slo_p99: Duration) -> TuneGoal {
        TuneGoal {
            app,
            offered_load: 0.0,
            slo_p99,
        }
    }

    /// Goal: provision — find the cheapest configuration that sustains
    /// `offered_load` within `slo_p99`.
    pub fn provision(app: AppProfile, offered_load: f64, slo_p99: Duration) -> TuneGoal {
        TuneGoal {
            app,
            offered_load,
            slo_p99,
        }
    }
}

/// The discrete configuration space the tuner may explore.
///
/// Axes are searched in declaration order; every axis must be non-empty.
/// The values are deliberately plain `Vec`s so experiments can pin an axis
/// by giving it a single element.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneSpace {
    /// Candidate GPU counts.
    pub gpus: Vec<usize>,
    /// Candidate mqueues (= persistent workers) per GPU.
    pub mqueues_per_gpu: Vec<usize>,
    /// Candidate SNIC core counts dedicated to the dispatch/forward
    /// pipeline (only engaged by batched policies).
    pub snic_cores: Vec<usize>,
    /// Candidate batching policies.
    pub batch: Vec<BatchPolicy>,
    /// Candidate ring depths (slots per mqueue).
    pub slots: Vec<usize>,
    /// Whether the SNIC-resident hot-key cache may be enabled. Defaults
    /// to `vec![false]` (axis pinned off) so existing spaces and goldens
    /// are unchanged; workloads with a measured hit rate opt in with
    /// `vec![false, true]`.
    pub cache: Vec<bool>,
    /// Expected cache hit rate of the workload's key distribution when
    /// the cache is enabled (e.g. ~0.9 for Zipf θ=0.99 over a hot set
    /// that fits the byte budget). Not a tunable — it is a property of
    /// the workload, measured or estimated by the caller.
    pub cache_hit_rate: f64,
    /// Cache byte budget per SNIC lane carried into the emitted
    /// deployment when the cache axis picks `true`.
    pub cache_bytes_per_lane: usize,
    /// I/O stack the server uses.
    pub stack_kind: StackKind,
    /// Distinct client machines driving the server. The batched
    /// dispatcher shards by client key, so effective dispatch
    /// parallelism is `min(snic_cores, client_flows)`.
    pub client_flows: usize,
    /// The accelerator model serving the workers; its
    /// [`relative_speed`](GpuProfile::relative_speed) scales every
    /// worker-side cost, and its threadblock budget bounds
    /// `mqueues_per_gpu`.
    pub gpu: GpuProfile,
    /// Control plane carried into the emitted deployment; its admission
    /// ceiling (when enabled) caps predicted throughput.
    pub control: ControlConfig,
    /// Round-trip network + client-stack overhead added to every
    /// predicted latency: client TX/RX processing plus wire propagation
    /// both ways. Not a tunable — it rides on every candidate equally.
    pub client_rtt_overhead: Duration,
    /// Server link bandwidth in bytes/second (the wire capacity stage).
    pub link_bandwidth_bps: f64,
}

/// Per-direction UDP header overhead the wire stage charges on top of the
/// application payload (Ethernet + IP + UDP framing).
const WIRE_OVERHEAD_BYTES: usize = 46;

impl TuneSpace {
    /// The full knob space of the paper's BlueField testbed: up to four
    /// K40m-class GPUs, mqueue counts spanning Figure 6's sweep, the ARM
    /// pipeline's core sharding and batching options, and power-of-two
    /// ring depths.
    pub fn bluefield() -> TuneSpace {
        TuneSpace {
            gpus: vec![1, 2, 3, 4],
            mqueues_per_gpu: vec![1, 2, 4, 8, 15, 30, 60, 120, 240],
            snic_cores: vec![1, 2, 3, 4, 5, 6],
            batch: vec![
                BatchPolicy::Fixed(1),
                BatchPolicy::Fixed(4),
                BatchPolicy::Fixed(8),
                BatchPolicy::Fixed(16),
                BatchPolicy::Fixed(32),
            ],
            slots: vec![16, 32, 64, 128],
            cache: vec![false],
            cache_hit_rate: 0.0,
            cache_bytes_per_lane: 4 << 20,
            stack_kind: StackKind::Vma,
            client_flows: 2, // the paper's two client machines
            gpu: GpuProfile::reference(),
            control: ControlConfig::disabled(),
            // Client Xeon/VMA tx+rx (0.8 + 1.0 us) plus two switch
            // traversals of ~1.3 us propagation each way.
            client_rtt_overhead: Duration::from_micros(4),
            link_bandwidth_bps: 3.125e9, // 25 Gbps BlueField port
        }
    }

    /// A reduced grid for CI smoke runs: the same axes with 2–3 values
    /// each, small enough to search in well under a second.
    pub fn reduced() -> TuneSpace {
        TuneSpace {
            gpus: vec![1, 4],
            mqueues_per_gpu: vec![4, 15, 60],
            snic_cores: vec![2, 4],
            batch: vec![BatchPolicy::Fixed(1), BatchPolicy::Fixed(16)],
            slots: vec![32, 64],
            ..TuneSpace::bluefield()
        }
    }

    fn check_nonempty(&self) -> Result<(), TuneError> {
        for (axis, empty) in [
            ("gpus", self.gpus.is_empty()),
            ("mqueues_per_gpu", self.mqueues_per_gpu.is_empty()),
            ("snic_cores", self.snic_cores.is_empty()),
            ("batch", self.batch.is_empty()),
            ("slots", self.slots.is_empty()),
            ("cache", self.cache.is_empty()),
        ] {
            if empty {
                return Err(TuneError::EmptySpace { axis });
            }
        }
        Ok(())
    }
}

/// The pipeline stage that limits a candidate's predicted throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// SNIC CPU: protocol stack + dispatcher + forwarder cycles.
    SnicCpu,
    /// Accelerator workers: kernel time across all persistent workers.
    Accelerator,
    /// Ring occupancy: all slots in flight.
    Ring,
    /// Server network port serialization.
    Wire,
    /// The control plane's admission ceiling.
    Admission,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::SnicCpu => "snic-cpu",
            Stage::Accelerator => "accelerator",
            Stage::Ring => "ring",
            Stage::Wire => "wire",
            Stage::Admission => "admission",
        })
    }
}

/// The analytic model's verdict on one candidate configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Sustainable throughput (responses/second).
    pub throughput: f64,
    /// Predicted median latency at the operating point.
    pub p50: Duration,
    /// Predicted 99th-percentile latency at the operating point.
    pub p99: Duration,
    /// Which stage caps the throughput.
    pub bottleneck: Stage,
    /// SNIC CPU utilization at the operating point (0..1).
    pub snic_utilization: f64,
    /// Accelerator worker utilization at the operating point (0..1).
    pub accel_utilization: f64,
    /// Whether the candidate meets the goal: capacity covers the offered
    /// load (when one is given) and the predicted p99 is within the SLO.
    pub feasible: bool,
}

/// One point in the configuration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Number of GPUs.
    pub gpus: usize,
    /// Mqueues (workers) per GPU.
    pub mqueues_per_gpu: usize,
    /// SNIC cores sharding the batched pipeline.
    pub snic_cores: usize,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Ring depth per mqueue.
    pub slots: usize,
    /// Whether the SNIC-resident hot-key cache is enabled.
    pub cache: bool,
}

/// Drain size of a batching policy at saturation: drains run full.
fn effective_batch(policy: BatchPolicy) -> u32 {
    let BatchPolicy::Fixed(n) = policy;
    n.max(1) as u32
}

/// Mean waiting time in an M/D/1 queue with utilization `rho` and
/// deterministic service time `service`: `Wq = rho / (2 (1 - rho)) * s`.
fn md1_wait(rho: f64, service: Duration) -> Duration {
    if rho <= 0.0 {
        return Duration::ZERO;
    }
    let rho = rho.min(0.95); // keep the estimate finite at saturation
    service.mul_f64(rho / (2.0 * (1.0 - rho)))
}

/// Predicts throughput and latency of `cand` serving `goal.app` on the
/// platform described by `profile`.
///
/// The capacity model mirrors the simulator's charging exactly:
///
/// * **SNIC CPU** — per message, the stack charges `udp_rx`; the
///   dispatcher charges `dispatch + mq_scan × Q` (`Fixed(1)`) or an
///   amortized `(mq_scan_cycle(Q) + dispatch_batch(k)) / k` (batched,
///   drains run full at saturation); the stack charges `udp_tx`
///   (batched sends amortize via `udp_tx_batched`). The forwarder runs
///   one cycle per *mqueue*, so its achievable batch is set by the
///   per-queue arrival rate, not the policy limit — the model solves
///   that self-consistently by fixed-point iteration. Per-message work
///   floats across the whole lane pool; batched pipeline work is pinned
///   to `snic_cores` lanes and dispatch only reaches the
///   `min(snic_cores, client_flows)` lanes the client shards map to.
/// * **Accelerator** — each of the `Q = gpus × mqueues_per_gpu` persistent
///   workers completes one request per `poll_detect + 2×local_io +
///   kernel_cost(app, 1)`.
/// * **Ring** — a slot is held from RDMA write to response collection:
///   verb latency in, worker service, detection delay (`mq_poll_rtt ×
///   Q / 2`), forward work and verb latency out. Little's law bounds
///   per-ring throughput at `slots / hold`.
/// * **Wire** — the server port serializes `payload + 46` framing bytes
///   per direction.
/// * **Admission** — an enabled control plane caps goodput at its
///   configured ceiling.
///
/// Latency is the unloaded request chain plus M/D/1 queueing delay at the
/// SNIC and the workers; p99 adds three times the mean queueing delay
/// (deterministic service leaves queueing as the dominant variance
/// source).
pub fn predict(
    profile: &dyn CostProfile,
    goal: &TuneGoal,
    space: &TuneSpace,
    cand: &Candidate,
) -> Prediction {
    let gpu = &space.gpu;
    let stack = StackProfile::of(profile.cpu().platform(), space.stack_kind);
    let q = (cand.gpus * cand.mqueues_per_gpu).max(1);
    let k = effective_batch(cand.batch);
    let scan = profile.mq_scan_cycle(q);
    let req_bytes = goal.app.request_bytes;
    let resp_bytes = goal.app.response_bytes;

    // --- SNIC-resident hot-key cache -----------------------------------
    // A fraction `h` of requests is answered at the dispatch stage
    // without touching the accelerator, its ring, or the forwarder, so
    // those stages only see the miss traffic: their *served* capacity is
    // the raw capacity divided by `(1 - h)`. Predicted latency stays the
    // miss path — conservative, since hits are strictly faster.
    let h = if cand.cache {
        space.cache_hit_rate.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let miss = 1.0 - h;
    let served = |raw: f64| {
        if miss <= 0.0 {
            f64::INFINITY
        } else {
            raw / miss
        }
    };

    // --- accelerator capacity ------------------------------------------
    // Every worker-side op runs on a threadblock whose wall time is
    // `work / relative_speed` (the K80 is slower than the reference).
    let worker_time = (gpu.poll_detect + gpu.local_io * 2 + profile.kernel_cost(&goal.app, 1))
        .div_f64(gpu.relative_speed);
    let accel_capacity = if cand.mqueues_per_gpu > gpu.max_threadblocks {
        0.0 // more persistent workers than the GPU has threadblock slots
    } else {
        served(q as f64 / worker_time.as_secs_f64())
    };

    // --- ring occupancy -------------------------------------------------
    let slot_in = req_bytes + SLOT_HEADER;
    let slot_out = resp_bytes + SLOT_HEADER;
    let detection = profile.mq_poll_rtt() * q as u32 / 2;
    let hold = profile.verb_cost(slot_in)
        + worker_time
        + detection
        + profile.forward_cost()
        + profile.verb_cost(slot_out);
    let ring_capacity = served((q * cand.slots) as f64 / hold.as_secs_f64());

    // --- wire -----------------------------------------------------------
    let wire_capacity =
        space.link_bandwidth_bps / (req_bytes.max(resp_bytes) + WIRE_OVERHEAD_BYTES) as f64;

    // --- admission ceiling ----------------------------------------------
    let admission_capacity = if space.control.enabled && space.control.admission_rate > 0.0 {
        space.control.admission_rate
    } else {
        f64::INFINITY
    };
    let non_cpu_cap = accel_capacity
        .min(ring_capacity)
        .min(wire_capacity)
        .min(admission_capacity);

    // --- per-message SNIC CPU cost -------------------------------------
    let rx = stack.udp_rx + stack.per_byte * req_bytes as u32;
    let tx_single = stack.udp_tx + stack.per_byte * resp_bytes as u32;
    let lanes = profile.pipeline_cores() as f64;
    let scan_s = scan.as_secs_f64();
    let (snic_capacity, total_cpu) = if k <= 1 {
        // Per-message work floats across the whole lane pool; every message
        // pays rx, dispatch (where the cache is consulted) and tx, but
        // only misses pay the scans and the forward cycle.
        let total = rx
            + profile.dispatch_cost()
            + tx_single
            + (scan + profile.forward_cost() + scan).mul_f64(miss);
        (lanes / total.as_secs_f64(), total)
    } else {
        // The batched dispatcher drains staged requests up to the policy
        // limit each pass, so at saturation its cycles run full and the
        // scan amortizes over `k`. Dispatch shards by client key, so only
        // `min(snic_cores, client_flows)` lanes ever carry dispatch work.
        //
        // The forwarder is different: it runs one cycle per *mqueue* and
        // each cycle only drains the responses pending on that queue — at
        // a per-queue arrival rate of `λ / Q` that is usually far fewer
        // than the policy limit, so the per-cycle scan is barely
        // amortized. The achievable batch `k_f` depends on the arrival
        // rate, which depends on capacity, which depends on `k_f`; a few
        // fixed-point rounds converge (the map is monotone and bounded in
        // `[1, k]`), and an iteration count rather than an epsilon test
        // keeps the result bit-identical across runs.
        let pinned = cand.snic_cores.min(profile.pipeline_cores());
        let dispatch_cores = pinned.min(space.client_flows.max(1)) as f64;
        let pinned = pinned as f64;
        let dispatch_msg_s = (scan + profile.dispatch_batch(k)).as_secs_f64() / k as f64;
        let fwd_s = profile.forward_cost().as_secs_f64();
        let fwd_marg_s = profile.forward_marginal().as_secs_f64();
        let tx_s = tx_single.as_secs_f64();
        let tx_batched_s = stack.udp_tx_batched.as_secs_f64();
        let detect_s = detection.as_secs_f64();
        let mut kf = k as f64;
        let mut cap = 0.0;
        let mut total_s = f64::INFINITY;
        for _ in 0..8 {
            // Only the miss fraction reaches the forwarder — cache hits
            // are replied from the dispatch stage via the batched tx.
            let forward_msg_s = miss * (scan_s + fwd_s + (kf - 1.0) * fwd_marg_s) / kf;
            let tx_msg_s = (tx_s + (kf - 1.0) * tx_batched_s) / kf;
            total_s = rx.as_secs_f64() + dispatch_msg_s + forward_msg_s + tx_msg_s;
            // Three CPU constraints: the whole pool, the pinned pipeline
            // lanes (dispatch + forward both run there), and the subset
            // of lanes the client shards actually reach.
            cap = (lanes / total_s)
                .min(pinned / (dispatch_msg_s + forward_msg_s))
                .min(dispatch_cores / dispatch_msg_s);
            // The saturated *miss* rate each mqueue's forwarder sees.
            let lambda = cap.min(non_cpu_cap) * miss;
            let cycle_s = detect_s + scan_s + fwd_s + (kf - 1.0) * fwd_marg_s;
            kf = (lambda / q as f64 * cycle_s).clamp(1.0, k as f64);
        }
        (cap, Duration::from_secs_f64(total_s))
    };

    // Fixed evaluation order keeps the argmin (and therefore the whole
    // search trajectory) deterministic.
    let stages = [
        (Stage::SnicCpu, snic_capacity),
        (Stage::Accelerator, accel_capacity),
        (Stage::Ring, ring_capacity),
        (Stage::Wire, wire_capacity),
        (Stage::Admission, admission_capacity),
    ];
    let (bottleneck, capacity) = stages
        .iter()
        .copied()
        .reduce(|best, next| if next.1 < best.1 { next } else { best })
        .expect("stage list is non-empty");

    // --- latency at the operating point ---------------------------------
    let load = if goal.offered_load > 0.0 {
        goal.offered_load.min(capacity)
    } else {
        capacity * 0.85
    };
    let snic_utilization = if capacity > 0.0 {
        load * total_cpu.as_secs_f64() / lanes
    } else {
        1.0
    };
    let accel_utilization = if capacity > 0.0 {
        load * miss * worker_time.as_secs_f64() / q as f64
    } else {
        1.0
    };

    // Unloaded chain: client/wire overhead, rx, dispatch (first-of-batch
    // pays the full cost), RDMA in, worker service, detection, forward,
    // RDMA out, tx.
    let base = space.client_rtt_overhead
        + rx
        + profile.dispatch_cost()
        + scan
        + profile.verb_cost(slot_in)
        + worker_time
        + detection
        + profile.forward_cost()
        + scan
        + profile.verb_cost(slot_out)
        + tx_single;
    // A request in a filling batch waits for (k-1)/2 peers on average,
    // but never longer than one drain cycle — the dispatcher drains
    // whatever has arrived each pass rather than holding for a full
    // batch, so low loads see a cycle of staging delay, not k/λ.
    let batch_wait = if k > 1 && load > 0.0 {
        Duration::from_secs_f64((k as f64 - 1.0) / 2.0 / load).min(scan + profile.dispatch_cost())
    } else {
        Duration::ZERO
    };
    let queueing = md1_wait(snic_utilization, total_cpu) + md1_wait(accel_utilization, worker_time);
    let p50 = base + batch_wait + queueing;
    let p99 = base + batch_wait + queueing * 3;

    let feasible = capacity > 0.0
        && (goal.offered_load <= 0.0 || capacity >= goal.offered_load)
        && p99 <= goal.slo_p99;

    Prediction {
        throughput: capacity,
        p50,
        p99,
        bottleneck,
        snic_utilization,
        accel_utilization,
        feasible,
    }
}

/// The tuner's output: the chosen knob values, the prediction backing the
/// choice, and enough bookkeeping to audit the search.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedConfig {
    /// The winning point in the space.
    pub candidate: Candidate,
    /// Slot size derived from the application's message sizes.
    pub slot_size: usize,
    /// I/O stack carried into the deployment.
    pub stack_kind: StackKind,
    /// Control plane carried into the deployment.
    pub control: ControlConfig,
    /// Hot-key cache configuration carried into the deployment (enabled
    /// iff the cache axis picked `true`).
    pub cache: CacheConfig,
    /// SNIC platform the profile maps to.
    pub platform: SnicPlatform,
    /// The model's verdict on the winning candidate.
    pub prediction: Prediction,
    /// How many candidate evaluations the search performed.
    pub evaluations: usize,
}

impl TunedConfig {
    /// Materializes the tuned knobs as a [`DeployConfig`] ready for
    /// [`DeployConfig::deploy`]. The returned configuration always passes
    /// the same [`Validate`] checks the builder runs.
    ///
    /// Which payloads are GETs is application knowledge the tuner does
    /// not have, so the caller supplies the protocol lens here: when the
    /// cache axis picked `true` and a `cache_protocol` is given, the
    /// deployment carries the tuned [`CacheConfig`] with the protocol
    /// attached. Without a protocol the cache is emitted disabled — the
    /// recommendation stays available as [`TunedConfig::cache`] — so the
    /// config never pairs an enabled cache with a missing protocol (the
    /// builder rejects that combination).
    pub fn deploy_config(&self, cache_protocol: Option<Rc<dyn CacheProtocol>>) -> DeployConfig {
        let (cache, cache_protocol) = match cache_protocol {
            Some(p) if self.cache.enabled => (self.cache, Some(p)),
            _ => (CacheConfig::disabled(), None),
        };
        DeployConfig {
            platform: self.platform,
            mqueues_per_gpu: self.candidate.mqueues_per_gpu,
            mq: MqueueConfig {
                slots: self.candidate.slots,
                slot_size: self.slot_size,
                ..MqueueConfig::default()
            },
            stack_kind: self.stack_kind,
            pipeline: PipelineConfig {
                snic_cores: self.candidate.snic_cores,
                batch: self.candidate.batch,
            },
            control: self.control,
            cache,
            cache_protocol,
            ..DeployConfig::default()
        }
    }
}

/// Why [`tune`] could not produce a deployable configuration.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// An axis of the [`TuneSpace`] has no values.
    EmptySpace {
        /// Name of the empty axis.
        axis: &'static str,
    },
    /// No point in the space meets the goal; `best` is the closest miss
    /// (highest-scoring infeasible point) for diagnostics.
    Infeasible {
        /// The best point found, for diagnostics.
        best: Box<TunedConfig>,
    },
    /// The winning candidate failed deployment validation — a tuner bug
    /// or a hand-built [`TuneSpace`] with out-of-range values.
    Rejected(lynx_core::Error),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptySpace { axis } => {
                write!(f, "tune space axis `{axis}` has no values")
            }
            TuneError::Infeasible { best } => write!(
                f,
                "no configuration meets the goal; best miss: {:?} predicting {:.0} req/s at p99 {:?}",
                best.candidate, best.prediction.throughput, best.prediction.p99
            ),
            TuneError::Rejected(e) => write!(f, "tuned configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Abstract resource cost used to break throughput ties: GPUs dominate,
/// then dedicated SNIC cores, then total workers, then ring memory.
fn resource_cost(c: &Candidate) -> i64 {
    (c.gpus as i64) * 100_000
        + (c.snic_cores as i64) * 1_000
        + (c.gpus * c.mqueues_per_gpu) as i64 * 10
        + (c.slots as i64)
        // SNIC memory is cheap but not free: a cache that buys no
        // throughput loses the tie to cache-off.
        + (c.cache as i64)
}

/// Lexicographic score: larger is better. Throughput is quantized to
/// 1 Kreq/s so floating-point dust cannot flip a comparison between runs.
fn score(goal: &TuneGoal, cand: &Candidate, pred: &Prediction) -> (bool, i64, i64, i64) {
    let tput_q = (pred.throughput / 1_000.0).round() as i64;
    let p99 = -(pred.p99.as_nanos().min(i64::MAX as u128) as i64);
    let cost = -resource_cost(cand);
    if goal.offered_load > 0.0 {
        // Provisioning: cheapest feasible point, then best latency, then
        // throughput headroom.
        (pred.feasible, cost, p99, tput_q)
    } else {
        // Maximizing: fastest feasible point, then cheapest, then latency.
        (pred.feasible, tput_q, cost, p99)
    }
}

/// Searches `space` by deterministic coordinate descent and returns the
/// best deployable configuration for `goal` on `profile`.
///
/// The search starts at the first value of every axis and repeatedly
/// sweeps the axes in declaration order, moving an axis only when a
/// strictly better score appears (ties keep the incumbent, so the walk is
/// deterministic). `snic_cores` and `batch` are swept as one joint axis:
/// core sharding only pays off together with batching, so independent
/// sweeps would park both at their starting values. It stops at a fixed
/// point or after eight passes. The winning candidate is validated with
/// the same [`Validate`] impls the server builder runs before it is
/// returned.
pub fn tune(
    profile: &dyn CostProfile,
    goal: &TuneGoal,
    space: &TuneSpace,
) -> Result<TunedConfig, TuneError> {
    space.check_nonempty()?;

    // snic_cores and batch are coupled (sharding is inert without
    // batching and vice versa), so they form one joint axis.
    let mut pipe = Vec::with_capacity(space.batch.len() * space.snic_cores.len());
    for &batch in &space.batch {
        for &cores in &space.snic_cores {
            pipe.push((cores, batch));
        }
    }
    let make = |ix: [usize; 5]| Candidate {
        gpus: space.gpus[ix[0]],
        mqueues_per_gpu: space.mqueues_per_gpu[ix[1]],
        snic_cores: pipe[ix[2]].0,
        batch: pipe[ix[2]].1,
        slots: space.slots[ix[3]],
        cache: space.cache[ix[4]],
    };
    let axis_len = [
        space.gpus.len(),
        space.mqueues_per_gpu.len(),
        pipe.len(),
        space.slots.len(),
        space.cache.len(),
    ];

    let mut evaluations = 0usize;
    let mut eval = |ix: [usize; 5]| {
        evaluations += 1;
        let cand = make(ix);
        let pred = predict(profile, goal, space, &cand);
        let s = score(goal, &cand, &pred);
        (cand, pred, s)
    };

    let mut ix = [0usize; 5];
    let (mut best_cand, mut best_pred, mut best_score) = eval(ix);
    for _pass in 0..8 {
        let mut moved = false;
        for axis in 0..5 {
            for j in 0..axis_len[axis] {
                if j == ix[axis] {
                    continue;
                }
                let mut trial = ix;
                trial[axis] = j;
                let (cand, pred, s) = eval(trial);
                if s > best_score {
                    best_cand = cand;
                    best_pred = pred;
                    best_score = s;
                    ix = trial;
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }

    let slot_size = (goal.app.request_bytes.max(goal.app.response_bytes) + SLOT_HEADER)
        .next_power_of_two()
        .max(64);
    let platform = match profile.cpu() {
        CpuKind::ArmA72 => SnicPlatform::Bluefield,
        _ => SnicPlatform::HostCores(profile.pipeline_cores()),
    };
    let tuned = TunedConfig {
        candidate: best_cand,
        slot_size,
        stack_kind: space.stack_kind,
        control: space.control,
        cache: if best_cand.cache {
            CacheConfig {
                enabled: true,
                bytes_per_lane: space.cache_bytes_per_lane,
            }
        } else {
            CacheConfig::disabled()
        },
        platform,
        prediction: best_pred,
        evaluations,
    };

    if !tuned.prediction.feasible {
        return Err(TuneError::Infeasible {
            best: Box::new(tuned),
        });
    }

    // The emitted deployment must pass exactly the checks the builder
    // runs; reject here rather than at deploy time. The recommended cache
    // config is validated directly — deploy_config(None) emits it
    // disabled until the caller attaches a protocol.
    let dc = tuned.deploy_config(None);
    dc.pipeline
        .check(profile.pipeline_cores())
        .and_then(|()| dc.mq.validate())
        .and_then(|()| dc.control.validate())
        .and_then(|()| tuned.cache.validate())
        .and_then(|()| dc.rmq.validate())
        .map_err(TuneError::Rejected)?;

    Ok(tuned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynx_device::BluefieldProfile;

    fn echo_goal() -> TuneGoal {
        TuneGoal::maximize(
            AppProfile::delay_echo(Duration::from_micros(20), 64),
            Duration::from_millis(2),
        )
    }

    #[test]
    fn batching_beats_unbatched_on_the_arm_cores() {
        let space = TuneSpace::bluefield();
        let goal = echo_goal();
        let base = Candidate {
            gpus: 2,
            mqueues_per_gpu: 15,
            snic_cores: 4,
            batch: BatchPolicy::Fixed(1),
            slots: 32,
            cache: false,
        };
        let batched = Candidate {
            batch: BatchPolicy::Fixed(16),
            ..base
        };
        let p0 = predict(&BluefieldProfile, &goal, &space, &base);
        let p1 = predict(&BluefieldProfile, &goal, &space, &batched);
        // Dispatch drains run full so the gain there is ~k-fold, but the
        // per-mqueue forwarder only amortizes as far as its per-queue
        // arrival rate allows, so the end-to-end win is well under k.
        assert!(
            p1.throughput > p0.throughput * 1.25,
            "expected batching to amortize the ARM dispatch cost: {} vs {}",
            p1.throughput,
            p0.throughput
        );
    }

    #[test]
    fn more_mqueues_raise_scan_cost() {
        let space = TuneSpace::bluefield();
        let goal = echo_goal();
        let small = Candidate {
            gpus: 1,
            mqueues_per_gpu: 60,
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1),
            slots: 32,
            cache: false,
        };
        let large = Candidate { gpus: 4, ..small };
        let p_small = predict(&BluefieldProfile, &goal, &space, &small);
        let p_large = predict(&BluefieldProfile, &goal, &space, &large);
        // 240 mqueues quadruple the scan term, so per-message CPU rises
        // and SNIC-bound throughput falls.
        assert_eq!(p_small.bottleneck, Stage::SnicCpu);
        assert!(p_large.throughput < p_small.throughput);
    }

    #[test]
    fn slow_kernels_move_the_bottleneck_to_the_accelerator() {
        let space = TuneSpace::bluefield();
        let goal = TuneGoal::maximize(
            AppProfile::delay_echo(Duration::from_millis(2), 64),
            Duration::from_millis(50),
        );
        let cand = Candidate {
            gpus: 1,
            mqueues_per_gpu: 1,
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1),
            slots: 16,
            cache: false,
        };
        let p = predict(&BluefieldProfile, &goal, &space, &cand);
        assert_eq!(p.bottleneck, Stage::Accelerator);
        // One worker at a 2 ms kernel: ~500 req/s.
        assert!(p.throughput < 600.0, "got {}", p.throughput);
    }

    #[test]
    fn cache_lifts_an_accelerator_bound_deployment() {
        let mut space = TuneSpace::bluefield();
        space.cache_hit_rate = 0.9;
        // A slow kernel leaves the accelerator as the bottleneck; a 90%
        // hit rate means only 10% of traffic reaches it, so served
        // throughput should rise close to 10x.
        let goal = TuneGoal::maximize(
            AppProfile::delay_echo(Duration::from_millis(2), 64),
            Duration::from_millis(50),
        );
        let base = Candidate {
            gpus: 1,
            mqueues_per_gpu: 1,
            snic_cores: 1,
            batch: BatchPolicy::Fixed(1),
            slots: 16,
            cache: false,
        };
        let cached = Candidate {
            cache: true,
            ..base
        };
        let p0 = predict(&BluefieldProfile, &goal, &space, &base);
        let p1 = predict(&BluefieldProfile, &goal, &space, &cached);
        assert!(
            p1.throughput > p0.throughput * 5.0,
            "expected the cache to absorb 90% of the load: {} vs {}",
            p1.throughput,
            p0.throughput
        );
    }

    #[test]
    fn tune_picks_the_cache_when_the_hit_rate_is_high() {
        let mut space = TuneSpace::bluefield();
        space.cache = vec![false, true];
        space.cache_hit_rate = 0.95;
        let goal = TuneGoal::maximize(
            AppProfile::delay_echo(Duration::from_millis(2), 64),
            Duration::from_millis(50),
        );
        let tuned = tune(&BluefieldProfile, &goal, &space).expect("tunable");
        assert!(tuned.candidate.cache, "got {:?}", tuned.candidate);
        assert!(tuned.cache.enabled);
        assert_eq!(tuned.cache.bytes_per_lane, space.cache_bytes_per_lane);
        // Without a protocol the emitted config must keep the cache off
        // (enabled-without-protocol is rejected by the builder)…
        let bare = tuned.deploy_config(None);
        assert!(!bare.cache.enabled);
        assert!(bare.cache_protocol.is_none());
        assert!(bare.cache.validate().is_ok());
        // …and with one it carries the tuned cache, protocol attached.
        let protocol: Rc<dyn CacheProtocol> = Rc::new(lynx_core::FnCacheProtocol::new(
            |_| lynx_core::CacheOp::Other,
            |_| false,
        ));
        let dc = tuned.deploy_config(Some(protocol));
        assert!(dc.cache.enabled);
        assert_eq!(dc.cache, tuned.cache);
        assert!(dc.cache_protocol.is_some());
        assert!(dc.cache.validate().is_ok());
    }

    #[test]
    fn zero_hit_rate_keeps_the_cache_off() {
        let mut space = TuneSpace::bluefield();
        space.cache = vec![false, true];
        // cache_hit_rate stays 0.0: enabling the cache buys nothing and
        // costs a resource tie-break point.
        let tuned = tune(&BluefieldProfile, &echo_goal(), &space).expect("tunable");
        assert!(!tuned.candidate.cache);
        assert!(!tuned.cache.enabled);
    }

    #[test]
    fn tune_emits_a_valid_feasible_config() {
        let tuned = tune(&BluefieldProfile, &echo_goal(), &TuneSpace::bluefield())
            .expect("echo at 20us is tunable on BlueField");
        assert!(tuned.prediction.feasible);
        assert!(tuned.evaluations > 0);
        let dc = tuned.deploy_config(None);
        assert!(dc.pipeline.check(7).is_ok());
        assert!(dc.mq.validate().is_ok());
        // The tuner should discover that batching wins on the ARM cores.
        assert!(
            tuned.candidate.batch != BatchPolicy::Fixed(1),
            "expected a batched policy, got {:?}",
            tuned.candidate.batch
        );
    }

    #[test]
    fn provisioning_prefers_fewer_resources() {
        let goal = TuneGoal::provision(
            AppProfile::delay_echo(Duration::from_micros(20), 64),
            50_000.0,
            Duration::from_millis(2),
        );
        let tuned = tune(&BluefieldProfile, &goal, &TuneSpace::bluefield())
            .expect("50 Kreq/s is easily provisionable");
        let max = tune(&BluefieldProfile, &echo_goal(), &TuneSpace::bluefield()).unwrap();
        assert!(
            resource_cost(&tuned.candidate) <= resource_cost(&max.candidate),
            "provisioning picked {:?}, maximizing picked {:?}",
            tuned.candidate,
            max.candidate
        );
        assert!(tuned.prediction.throughput >= 50_000.0);
    }

    #[test]
    fn impossible_slo_reports_the_best_miss() {
        let goal = TuneGoal::maximize(
            AppProfile::delay_echo(Duration::from_micros(20), 64),
            Duration::from_nanos(1),
        );
        match tune(&BluefieldProfile, &goal, &TuneSpace::bluefield()) {
            Err(TuneError::Infeasible { best }) => {
                assert!(best.prediction.p99 > Duration::from_nanos(1));
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn empty_axis_is_a_typed_error() {
        let mut space = TuneSpace::bluefield();
        space.slots.clear();
        match tune(&BluefieldProfile, &echo_goal(), &space) {
            Err(TuneError::EmptySpace { axis: "slots" }) => {}
            other => panic!("expected EmptySpace, got {other:?}"),
        }
    }

    #[test]
    fn tuning_is_deterministic() {
        let a = tune(&BluefieldProfile, &echo_goal(), &TuneSpace::bluefield()).unwrap();
        let b = tune(&BluefieldProfile, &echo_goal(), &TuneSpace::bluefield()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
