//! SLO-driven control plane: elastic scale-out and admission control.
//!
//! The paper evaluates *static* deployments — Figure 8b picks the remote
//! GPU count by hand and shows linear scaling. This module closes the
//! loop: a deterministic, telemetry-driven controller runs as a periodic
//! task on a dedicated SNIC lane (off the request-path cores, like the
//! health monitor of `docs/ROBUSTNESS.md`), watches mqueue occupancy and
//! the per-service p99 over sliding windows, and
//!
//! * **scales out** by unparking pre-provisioned remote-GPU workers
//!   (paying the persistent-kernel launch cost,
//!   [`CostModel::provision`](crate::CostModel::provision)),
//! * **scales in** by quiescing a worker's mqueue (park → flush in-flight
//!   slots → [`crate::Mqueue::drain`], which hands its staged slot
//!   buffers back to the scratch pool), and
//! * **sheds load** with a per-service token bucket when even maximum
//!   scale-out cannot hold the SLO — a typed
//!   [`Error::Overloaded`](crate::Error::Overloaded) early-reject at the
//!   dispatcher, before any RDMA verb is issued; the client sees an
//!   immediate empty (0-byte) reject datagram.
//!
//! Every decision derives from simulated time and counters — no wall
//! clock, no randomness — so same-seed elastic runs are byte-identical
//! (`tests/control.rs` asserts this). Hysteresis (consecutive windows of
//! agreement before acting) keeps the autoscaler from flapping.

use std::collections::BTreeSet;
use std::time::Duration;

use lynx_sim::{Time, WindowedHistogram};

/// Policy of the elastic control plane (§ "SLO-driven control plane" of
/// `docs/ARCHITECTURE.md`).
///
/// Enable it on the builder with
/// [`LynxServerBuilder::control`](crate::LynxServerBuilder::control); the
/// default server runs with [`ControlConfig::disabled`], i.e. the exact
/// static behaviour of earlier releases.
///
/// # Example
///
/// ```
/// # use lynx_core::testbed::Machine;
/// # use lynx_core::{ControlConfig, DispatchPolicy, LynxServerBuilder, Mqueue,
/// #                 MqueueConfig, MqueueKind, RemoteMqManager};
/// # use lynx_device::GpuSpec;
/// # use lynx_net::{Network, StackKind};
/// # use lynx_sim::Sim;
/// # use std::time::Duration;
/// # let mut sim = Sim::new(0);
/// # let net = Network::new();
/// # let machine = Machine::new(&net, "server-0");
/// # let gpu = machine.add_gpu(GpuSpec::k40m());
/// # let cfg = MqueueConfig::default();
/// # let stack = machine.host_stack(1, StackKind::Vma);
/// # let mut builder = LynxServerBuilder::new(stack)
/// #     .accelerator(RemoteMqManager::new(machine.rdma_nic().loopback_qp()));
/// # for _ in 0..4 {
/// #     let base = gpu.alloc(cfg.required_bytes());
/// #     builder = builder.server_mqueue(0, Mqueue::new(MqueueKind::Server, gpu.mem(), base, cfg));
/// # }
/// let server = builder
///     .policy(DispatchPolicy::RoundRobin)
///     .control(ControlConfig {
///         min_workers: 1,              // park 3 of the 4 queues at start
///         slo_p99: Duration::from_micros(300),
///         scan_interval: Duration::from_micros(100),
///         ..ControlConfig::default()
///     })
///     .listen_udp(7000)
///     .build(&mut sim)
///     .expect("valid deployment");
/// assert_eq!(server.active_workers(lynx_core::ServiceId::DEFAULT), 4);
/// sim.run(); // parking happens lazily, on the first control scan
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlConfig {
    /// Master switch. A disabled control plane schedules nothing and
    /// admits everything — the static pre-control server.
    pub enabled: bool,
    /// Workers (server mqueues) each service keeps active even when idle.
    pub min_workers: usize,
    /// Upper bound on active workers per service (`0` = every registered
    /// mqueue).
    pub max_workers: usize,
    /// The p99 latency target. A closed window whose p99 exceeds this is
    /// scale-out pressure; past max scale-out it tightens admission.
    pub slo_p99: Duration,
    /// Scan period — also the sliding-window length for the per-service
    /// latency histogram ([`lynx_sim::WindowedHistogram`] rolls once per
    /// scan).
    pub scan_interval: Duration,
    /// Mean occupancy (`in_flight / slots` over active queues) above which
    /// a window counts as scale-out pressure.
    pub scale_out_occupancy: f64,
    /// Mean occupancy below which a window counts as scale-in slack.
    pub scale_in_occupancy: f64,
    /// Consecutive agreeing windows required before the controller acts —
    /// the hysteresis that keeps same-seed runs stable and the fleet from
    /// flapping.
    pub hysteresis: u32,
    /// Token-bucket admission rate in requests/second (`0.0` = admit
    /// everything; the bucket never engages).
    pub admission_rate: f64,
    /// Token-bucket depth in requests — the burst the service absorbs
    /// before shedding.
    pub admission_burst: f64,
    /// Mean occupancy above which a window counts toward *cache-only
    /// degradation* (serve-stale-on-overload). Only meaningful on
    /// deployments with an enabled [`CacheConfig`](crate::CacheConfig):
    /// once `hysteresis` consecutive windows exceed this, the service
    /// answers cacheable reads from the SNIC cache (stale entries
    /// included) *before* the token bucket sees them, shedding work from
    /// the accelerator path without dropping hot-key traffic. Must be at
    /// least `scale_out_occupancy`, so degradation is the last resort
    /// after scale-out.
    pub degrade_occupancy: f64,
    /// Mean occupancy below which a degraded window counts toward
    /// recovery; after `hysteresis` such windows the service returns to
    /// normal cache semantics.
    pub degrade_recover_occupancy: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            enabled: true,
            min_workers: 1,
            max_workers: 0,
            slo_p99: Duration::from_micros(300),
            scan_interval: Duration::from_micros(250),
            scale_out_occupancy: 0.75,
            scale_in_occupancy: 0.25,
            hysteresis: 2,
            admission_rate: 0.0,
            admission_burst: 32.0,
            degrade_occupancy: 0.9,
            degrade_recover_occupancy: 0.5,
        }
    }
}

impl ControlConfig {
    /// A configuration with the control plane switched off (the behaviour
    /// of the static server; this is the builder's default).
    pub fn disabled() -> ControlConfig {
        ControlConfig {
            enabled: false,
            ..ControlConfig::default()
        }
    }

    /// Validates the configuration, reporting the first problem found
    /// (delegates to the [`Validate`](crate::Validate) impl).
    pub fn check(&self) -> crate::Result<()> {
        crate::Validate::validate(self)
    }
}

impl crate::Validate for ControlConfig {
    fn validate(&self) -> crate::Result<()> {
        use crate::validate::invalid;
        if !self.enabled {
            return Ok(());
        }
        if self.min_workers == 0 {
            return Err(invalid(
                "control.min_workers",
                "min_workers must be at least 1",
            ));
        }
        if self.max_workers != 0 && self.max_workers < self.min_workers {
            return Err(invalid(
                "control.max_workers",
                format!(
                    "max_workers {} below min_workers {}",
                    self.max_workers, self.min_workers
                ),
            ));
        }
        if self.scan_interval.is_zero() {
            return Err(invalid(
                "control.scan_interval",
                "scan_interval must be positive",
            ));
        }
        // `partial_cmp` (not `<=`) so NaN thresholds are rejected too.
        if self
            .scale_in_occupancy
            .partial_cmp(&self.scale_out_occupancy)
            .is_none_or(|o| o == std::cmp::Ordering::Greater)
        {
            return Err(invalid(
                "control.scale_in_occupancy",
                format!(
                    "scale_in_occupancy {} above scale_out_occupancy {}",
                    self.scale_in_occupancy, self.scale_out_occupancy
                ),
            ));
        }
        if self.hysteresis == 0 {
            return Err(invalid(
                "control.hysteresis",
                "hysteresis must be at least 1 window",
            ));
        }
        if self
            .degrade_occupancy
            .partial_cmp(&self.scale_out_occupancy)
            .is_none_or(|o| o == std::cmp::Ordering::Less)
        {
            return Err(invalid(
                "control.degrade_occupancy",
                format!(
                    "degrade_occupancy {} below scale_out_occupancy {}",
                    self.degrade_occupancy, self.scale_out_occupancy
                ),
            ));
        }
        if self
            .degrade_recover_occupancy
            .partial_cmp(&self.degrade_occupancy)
            .is_none_or(|o| o == std::cmp::Ordering::Greater)
        {
            return Err(invalid(
                "control.degrade_recover_occupancy",
                format!(
                    "degrade_recover_occupancy {} above degrade_occupancy {}",
                    self.degrade_recover_occupancy, self.degrade_occupancy
                ),
            ));
        }
        Ok(())
    }
}

/// A deterministic token bucket: refills continuously at a configured
/// rate from the simulated clock, capped at the burst depth. One request
/// costs one token; an empty bucket means *shed*.
#[derive(Clone, Debug)]
pub(crate) struct TokenBucket {
    tokens: f64,
    last: Time,
}

impl TokenBucket {
    pub(crate) fn new(burst: f64) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            last: Time::ZERO,
        }
    }

    /// Refills from elapsed simulated time, then tries to take one token.
    pub(crate) fn admit(&mut self, now: Time, rate: f64, burst: f64) -> bool {
        if rate <= 0.0 {
            return true;
        }
        if now > self.last {
            let elapsed = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + elapsed * rate).min(burst);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// What one closed observation window tells the controller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    /// Sustained pressure: unpark one worker.
    Out,
    /// Sustained slack: park (and later drain) one worker.
    In,
    /// Within band, or hysteresis not yet satisfied.
    Hold,
}

/// Consecutive-window counters implementing the controller's hysteresis.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Hysteresis {
    above: u32,
    below: u32,
}

impl Hysteresis {
    /// Folds one closed window (mean occupancy over active queues, window
    /// p99 if any request completed) into the counters and returns the
    /// action once `cfg.hysteresis` consecutive windows agree.
    pub(crate) fn decide(
        &mut self,
        cfg: &ControlConfig,
        occupancy: f64,
        p99: Option<Duration>,
    ) -> ScaleDecision {
        let slo_miss = p99.is_some_and(|p| p > cfg.slo_p99);
        let pressure = occupancy > cfg.scale_out_occupancy || slo_miss;
        let slack = occupancy < cfg.scale_in_occupancy && !slo_miss;
        self.above = if pressure { self.above + 1 } else { 0 };
        self.below = if slack { self.below + 1 } else { 0 };
        if self.above >= cfg.hysteresis {
            self.above = 0;
            self.below = 0;
            ScaleDecision::Out
        } else if self.below >= cfg.hysteresis {
            self.above = 0;
            self.below = 0;
            ScaleDecision::In
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Hysteresis for the cache-only degradation switch: engages after
/// `cfg.hysteresis` consecutive windows above `degrade_occupancy`,
/// disengages after as many below `degrade_recover_occupancy`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DegradeState {
    /// Whether the service currently answers cacheable reads stale-OK
    /// from the SNIC cache, ahead of the admission bucket.
    pub(crate) active: bool,
    above: u32,
    below: u32,
}

impl DegradeState {
    /// Folds one closed window's mean occupancy in; returns `Some(state)`
    /// when the switch flips.
    pub(crate) fn decide(&mut self, cfg: &ControlConfig, occupancy: f64) -> Option<bool> {
        self.above = if occupancy > cfg.degrade_occupancy {
            self.above + 1
        } else {
            0
        };
        self.below = if occupancy < cfg.degrade_recover_occupancy {
            self.below + 1
        } else {
            0
        };
        if !self.active && self.above >= cfg.hysteresis {
            self.active = true;
            self.above = 0;
            self.below = 0;
            Some(true)
        } else if self.active && self.below >= cfg.hysteresis {
            self.active = false;
            self.above = 0;
            self.below = 0;
            Some(false)
        } else {
            None
        }
    }
}

/// Per-service controller state, owned by the server next to the
/// dispatcher it steers.
#[derive(Debug)]
pub(crate) struct SvcControl {
    /// Dispatch→collection latency, rolled once per scan window.
    pub(crate) latency: WindowedHistogram,
    /// Admission token bucket.
    pub(crate) bucket: TokenBucket,
    /// Scale-decision hysteresis.
    pub(crate) hysteresis: Hysteresis,
    /// Serve-stale degradation switch (cache-backed deployments only).
    pub(crate) degrade: DegradeState,
    /// Queues parked by scale-in that still hold in-flight slots; drained
    /// (and their staged buffers recycled) once the backlog flushes.
    pub(crate) draining: BTreeSet<usize>,
    /// Queues whose scale-out provisioning delay is still running.
    pub(crate) provisioning: BTreeSet<usize>,
}

impl SvcControl {
    pub(crate) fn new(burst: f64) -> SvcControl {
        SvcControl {
            latency: WindowedHistogram::new(),
            bucket: TokenBucket::new(burst),
            hysteresis: Hysteresis::default(),
            degrade: DegradeState::default(),
            draining: BTreeSet::new(),
            provisioning: BTreeSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ControlConfig {
        ControlConfig {
            hysteresis: 2,
            ..ControlConfig::default()
        }
    }

    #[test]
    fn defaults_are_sane_and_disabled_passes_check() {
        let c = ControlConfig::default();
        assert!(c.check().is_ok());
        assert!(c.scale_in_occupancy < c.scale_out_occupancy);
        assert!(!ControlConfig::disabled().enabled);
        assert!(ControlConfig::disabled().check().is_ok());
    }

    #[test]
    fn check_rejects_bad_configs() {
        let bad = ControlConfig {
            min_workers: 0,
            ..cfg()
        };
        assert!(bad.check().is_err());
        let bad = ControlConfig {
            min_workers: 4,
            max_workers: 2,
            ..cfg()
        };
        assert!(bad.check().is_err());
        let bad = ControlConfig {
            scan_interval: Duration::ZERO,
            ..cfg()
        };
        assert!(bad.check().is_err());
        let bad = ControlConfig {
            scale_in_occupancy: 0.9,
            scale_out_occupancy: 0.5,
            ..cfg()
        };
        assert!(bad.check().is_err());
        let bad = ControlConfig {
            hysteresis: 0,
            ..cfg()
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn token_bucket_refills_at_rate_and_caps_at_burst() {
        let mut b = TokenBucket::new(2.0);
        let rate = 1_000_000.0; // one token per microsecond
        assert!(b.admit(Time::ZERO, rate, 2.0));
        assert!(b.admit(Time::ZERO, rate, 2.0));
        assert!(!b.admit(Time::ZERO, rate, 2.0), "burst exhausted");
        // 1 µs refills one token.
        assert!(b.admit(Time::from_micros(1), rate, 2.0));
        assert!(!b.admit(Time::from_micros(1), rate, 2.0));
        // A long idle period refills to the cap, not beyond.
        let late = Time::from_micros(1_000);
        for _ in 0..2 {
            assert!(b.admit(late, rate, 2.0));
        }
        assert!(!b.admit(late, rate, 2.0), "capped at burst depth");
    }

    #[test]
    fn zero_rate_admits_everything() {
        let mut b = TokenBucket::new(0.0);
        for _ in 0..100 {
            assert!(b.admit(Time::ZERO, 0.0, 0.0));
        }
    }

    #[test]
    fn hysteresis_requires_consecutive_windows() {
        let c = cfg();
        let mut h = Hysteresis::default();
        assert_eq!(h.decide(&c, 0.9, None), ScaleDecision::Hold);
        // An in-band window resets the streak.
        assert_eq!(h.decide(&c, 0.5, None), ScaleDecision::Hold);
        assert_eq!(h.decide(&c, 0.9, None), ScaleDecision::Hold);
        assert_eq!(h.decide(&c, 0.9, None), ScaleDecision::Out);
        // Counters reset after acting.
        assert_eq!(h.decide(&c, 0.9, None), ScaleDecision::Hold);
    }

    #[test]
    fn slo_miss_is_scale_out_pressure_even_at_low_occupancy() {
        let c = cfg();
        let mut h = Hysteresis::default();
        let slow = Some(c.slo_p99 * 2);
        assert_eq!(h.decide(&c, 0.1, slow), ScaleDecision::Hold);
        assert_eq!(h.decide(&c, 0.1, slow), ScaleDecision::Out);
    }

    #[test]
    fn check_rejects_inverted_degrade_band() {
        let bad = ControlConfig {
            degrade_occupancy: 0.5, // below scale_out_occupancy 0.75
            ..cfg()
        };
        assert!(bad.check().is_err());
        let bad = ControlConfig {
            degrade_occupancy: 0.8,
            degrade_recover_occupancy: 0.85,
            ..cfg()
        };
        assert!(bad.check().is_err());
        let bad = ControlConfig {
            degrade_occupancy: f64::NAN,
            ..cfg()
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn degrade_engages_and_recovers_with_hysteresis() {
        let c = cfg(); // hysteresis 2, degrade 0.9, recover 0.5
        let mut d = DegradeState::default();
        assert_eq!(d.decide(&c, 0.95), None);
        // A calm window resets the engage streak.
        assert_eq!(d.decide(&c, 0.6), None);
        assert_eq!(d.decide(&c, 0.95), None);
        assert_eq!(d.decide(&c, 0.95), Some(true));
        assert!(d.active);
        // Mid-band windows neither engage further nor recover.
        assert_eq!(d.decide(&c, 0.7), None);
        assert_eq!(d.decide(&c, 0.4), None);
        assert_eq!(d.decide(&c, 0.4), Some(false));
        assert!(!d.active);
    }

    #[test]
    fn sustained_slack_scales_in() {
        let c = cfg();
        let mut h = Hysteresis::default();
        let fast = Some(c.slo_p99 / 10);
        assert_eq!(h.decide(&c, 0.05, fast), ScaleDecision::Hold);
        assert_eq!(h.decide(&c, 0.05, None), ScaleDecision::In);
    }
}
