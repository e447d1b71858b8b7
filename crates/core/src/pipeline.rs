//! The batched, multi-core SNIC pipeline (§6.2's scaling story).
//!
//! The paper's headline result is that Lynx throughput scales with the
//! number of SmartNIC cores *until the ARM network stack saturates*
//! (≈0.5 M pkt/s UDP on BlueField), and that amortizing per-message
//! costs — RDMA doorbell/verb coalescing and batched mqueue completions —
//! is what makes a wimpy-core SmartNIC competitive. This module holds the
//! configuration and runtime state of that pipeline:
//!
//! * [`PipelineConfig`] — how many simulated SNIC cores run the
//!   dispatcher/forwarder ([`PipelineConfig::snic_cores`]) and how
//!   aggressively each core batches ([`BatchPolicy`]).
//! * [`Pipeline`] — the per-core staging queues the sharded dispatcher
//!   drains. Each incoming request is sharded to core `key % snic_cores`
//!   and drained in deterministic FIFO order, pinned to that core's lane
//!   of the SNIC's [`lynx_net::HostStack`] pool.
//!
//! # Default = legacy
//!
//! The default configuration (`snic_cores = 1`,
//! [`BatchPolicy::Unbatched`]) takes the *exact* pre-pipeline code path:
//! every message is dispatched immediately on the join-shortest-completion
//! lane pool, byte-identical to servers built before this API existed.
//! Batching machinery only engages when the effective batch size can
//! exceed one — [`BatchPolicy::Fixed`]`(1)` is therefore *defined* as
//! equivalent to `Unbatched` (see [`PipelineConfig::is_batched`]), which
//! is what makes "batch size 1 equals unbatched byte-identically" hold by
//! construction.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::{ReturnAddr, ServiceId};

/// How many messages a SNIC core drains per pipeline invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// No batching: each message is dispatched the moment it arrives, on
    /// the shared join-shortest-completion core pool. This is the legacy
    /// (pre-pipeline) behaviour and the default.
    #[default]
    Unbatched,
    /// Drain up to `B` staged messages per invocation. `Fixed(1)` is
    /// equivalent to [`BatchPolicy::Unbatched`] by definition; `Fixed(0)`
    /// is rejected at build time.
    Fixed(usize),
    /// Occupancy-adaptive batching: each drain takes
    /// `staged.clamp(min, max)` messages — small batches (low latency)
    /// when the core is keeping up, large batches (high throughput) when
    /// a backlog builds. `1 <= min <= max` is required, `max >= 2`.
    Adaptive {
        /// Smallest batch a drain may take.
        min: usize,
        /// Largest batch a drain may take.
        max: usize,
    },
}

impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchPolicy::Unbatched => f.write_str("unbatched"),
            BatchPolicy::Fixed(b) => write!(f, "fixed({b})"),
            BatchPolicy::Adaptive { min, max } => write!(f, "adaptive({min}..{max})"),
        }
    }
}

/// Configuration of the SNIC pipeline: sharding plus batching.
///
/// Constructed through [`crate::LynxServerBuilder::snic_cores`] /
/// [`crate::LynxServerBuilder::batch`] (or set directly on
/// [`crate::testbed::DeployConfig::pipeline`]) and validated at build
/// time: `snic_cores` must be at least 1 and no larger than the stack's
/// lane count, since each pipeline core pins its drain work to one lane
/// of the SNIC's core pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of simulated SNIC cores the dispatcher/forwarder is sharded
    /// across. Requests shard by client key (`key % snic_cores`), mqueue
    /// forwarders by queue index, so each partition drains on its own
    /// core with deterministic round-robin interleaving in the DES.
    pub snic_cores: usize,
    /// Batch-draining policy of each core.
    pub batch: BatchPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Unbatched,
        }
    }
}

impl PipelineConfig {
    /// Whether the staged/sharded batch path is engaged.
    ///
    /// `false` for [`BatchPolicy::Unbatched`] and for
    /// [`BatchPolicy::Fixed`]`(1)` — those configurations take the exact
    /// legacy immediate-dispatch path (batch size 1 *is* unbatched), so
    /// same-seed runs are byte-identical with the pre-pipeline server.
    pub fn is_batched(&self) -> bool {
        match self.batch {
            BatchPolicy::Unbatched => false,
            BatchPolicy::Fixed(b) => b >= 2,
            BatchPolicy::Adaptive { .. } => true,
        }
    }

    /// The SNIC core a client key shards to.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.snic_cores as u64) as usize
    }

    /// Validates the configuration against the SNIC stack's lane count:
    /// the intrinsic [`Validate`](crate::Validate) invariants plus the
    /// cross-object check that `snic_cores` fits `stack_lanes`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](crate::Error::InvalidConfig) when
    /// `snic_cores` is 0 or exceeds `stack_lanes`, when the batch policy
    /// is `Fixed(0)`, or when an adaptive range is empty or degenerate.
    pub fn check(&self, stack_lanes: usize) -> crate::Result<()> {
        use crate::validate::{invalid, Validate};
        self.validate()?;
        if self.snic_cores > stack_lanes {
            return Err(invalid(
                "pipeline.snic_cores",
                format!(
                    "pipeline wants {} SNIC cores but the stack pool has only {} lanes",
                    self.snic_cores, stack_lanes
                ),
            ));
        }
        Ok(())
    }

    /// How many messages a drain may take given `staged` waiting ones.
    pub(crate) fn batch_limit(&self, staged: usize) -> usize {
        match self.batch {
            BatchPolicy::Unbatched => 1,
            BatchPolicy::Fixed(b) => b.max(1),
            BatchPolicy::Adaptive { min, max } => staged.clamp(min, max),
        }
    }
}

impl crate::Validate for PipelineConfig {
    fn validate(&self) -> crate::Result<()> {
        use crate::validate::invalid;
        if self.snic_cores == 0 {
            return Err(invalid(
                "pipeline.snic_cores",
                "pipeline needs at least one SNIC core",
            ));
        }
        match self.batch {
            BatchPolicy::Fixed(0) => Err(invalid(
                "pipeline.batch",
                "batch size 0 is meaningless; use BatchPolicy::Unbatched",
            )),
            BatchPolicy::Adaptive { min, max } if min == 0 || min > max || max < 2 => Err(invalid(
                "pipeline.batch",
                format!("adaptive batch range {min}..{max} must satisfy 1 <= min <= max, max >= 2"),
            )),
            _ => Ok(()),
        }
    }
}

/// One request staged on a pipeline core, waiting for its drain cycle.
pub(crate) struct StagedRequest {
    pub(crate) service: ServiceId,
    pub(crate) ret: ReturnAddr,
    pub(crate) key: u64,
    pub(crate) payload: lynx_sim::Payload,
    /// The tenant function the tenancy gate admitted the request as.
    pub(crate) func: Option<crate::tenancy::FnId>,
}

struct CoreState {
    staged: VecDeque<StagedRequest>,
    drain_scheduled: bool,
}

struct Inner {
    cfg: PipelineConfig,
    cores: Vec<CoreState>,
}

/// Runtime state of the batched multi-core pipeline: the per-core staging
/// queues and drain scheduling flags of the sharded dispatcher.
///
/// Owned by the [`crate::LynxServer`]; the server stages each incoming
/// request on its shard's queue and drains up to the policy's batch limit
/// per cycle, charging the (amortized) drain cost pinned to that core's
/// stack lane. Handles are cheap clones sharing one state.
#[derive(Clone)]
pub struct Pipeline {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Pipeline")
            .field("snic_cores", &inner.cfg.snic_cores)
            .field("batch", &inner.cfg.batch)
            .field(
                "staged",
                &inner.cores.iter().map(|c| c.staged.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl Pipeline {
    /// Creates the pipeline runtime for a validated configuration.
    pub fn new(cfg: PipelineConfig) -> Pipeline {
        Pipeline {
            inner: Rc::new(RefCell::new(Inner {
                cores: (0..cfg.snic_cores.max(1))
                    .map(|_| CoreState {
                        staged: VecDeque::new(),
                        drain_scheduled: false,
                    })
                    .collect(),
                cfg,
            })),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> PipelineConfig {
        self.inner.borrow().cfg
    }

    /// Messages currently staged (all cores) — waiting for a drain cycle.
    pub fn staged(&self) -> usize {
        self.inner
            .borrow()
            .cores
            .iter()
            .map(|c| c.staged.len())
            .sum()
    }

    /// Stages a request on `core`; returns `true` when the caller must
    /// schedule a drain cycle (none is pending for that core yet).
    pub(crate) fn stage(&self, core: usize, req: StagedRequest) -> bool {
        let mut inner = self.inner.borrow_mut();
        let c = &mut inner.cores[core];
        c.staged.push_back(req);
        if c.drain_scheduled {
            false
        } else {
            c.drain_scheduled = true;
            true
        }
    }

    /// Takes up to the policy's batch limit of staged requests off `core`.
    pub(crate) fn take_batch(&self, core: usize) -> Vec<StagedRequest> {
        let mut inner = self.inner.borrow_mut();
        let limit = {
            let staged = inner.cores[core].staged.len();
            inner.cfg.batch_limit(staged)
        };
        let c = &mut inner.cores[core];
        let n = c.staged.len().min(limit);
        c.staged.drain(..n).collect()
    }

    /// Ends `core`'s drain cycle. Returns `true` when more work is staged
    /// (the caller must start another cycle — the flag stays set); `false`
    /// once the core goes idle and the flag is cleared.
    pub(crate) fn end_drain(&self, core: usize) -> bool {
        let mut inner = self.inner.borrow_mut();
        let c = &mut inner.cores[core];
        if c.staged.is_empty() {
            c.drain_scheduled = false;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_legacy() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.snic_cores, 1);
        assert_eq!(cfg.batch, BatchPolicy::Unbatched);
        assert!(!cfg.is_batched());
    }

    #[test]
    fn fixed_one_is_unbatched() {
        let cfg = PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(1),
        };
        assert!(!cfg.is_batched());
        assert!(PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(2),
        }
        .is_batched());
        assert!(cfg.check(7).is_ok());
    }

    #[test]
    fn check_rejects_bad_configs() {
        let bad = |cfg: PipelineConfig| cfg.check(7).is_err();
        assert!(bad(PipelineConfig {
            snic_cores: 0,
            batch: BatchPolicy::Unbatched,
        }));
        assert!(bad(PipelineConfig {
            snic_cores: 8,
            batch: BatchPolicy::Unbatched,
        }));
        assert!(bad(PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Fixed(0),
        }));
        assert!(bad(PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Adaptive { min: 3, max: 2 },
        }));
        assert!(bad(PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Adaptive { min: 0, max: 4 },
        }));
        assert!(PipelineConfig {
            snic_cores: 4,
            batch: BatchPolicy::Adaptive { min: 1, max: 16 },
        }
        .check(7)
        .is_ok());
    }

    #[test]
    fn sharding_is_modular() {
        let cfg = PipelineConfig {
            snic_cores: 4,
            batch: BatchPolicy::Fixed(8),
        };
        assert_eq!(cfg.shard_of(0), 0);
        assert_eq!(cfg.shard_of(5), 1);
        assert_eq!(cfg.shard_of(7), 3);
    }

    #[test]
    fn adaptive_limit_follows_occupancy() {
        let cfg = PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Adaptive { min: 2, max: 8 },
        };
        assert_eq!(cfg.batch_limit(0), 2);
        assert_eq!(cfg.batch_limit(5), 5);
        assert_eq!(cfg.batch_limit(50), 8);
    }

    #[test]
    fn staging_coalesces_drains() {
        let p = Pipeline::new(PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(4),
        });
        let req = |key| StagedRequest {
            service: ServiceId::DEFAULT,
            ret: ReturnAddr::Fixed,
            key,
            payload: lynx_sim::Payload::new(),
            func: None,
        };
        assert!(p.stage(0, req(0)), "first stage on a core schedules");
        assert!(!p.stage(0, req(2)), "second rides the pending drain");
        assert!(p.stage(1, req(1)), "other core schedules its own");
        assert_eq!(p.staged(), 3);
        let batch = p.take_batch(0);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].key, 0);
        assert_eq!(batch[1].key, 2);
        assert!(!p.end_drain(0), "core 0 idle");
        assert!(p.stage(0, req(4)), "idle core schedules again");
        // Core 1 still has one staged: end_drain keeps the cycle alive.
        let _ = p.take_batch(1);
        assert!(!p.end_drain(1));
    }

    #[test]
    fn take_batch_respects_fixed_limit() {
        let p = Pipeline::new(PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Fixed(2),
        });
        for k in 0..5 {
            let _ = p.stage(
                0,
                StagedRequest {
                    service: ServiceId::DEFAULT,
                    ret: ReturnAddr::Fixed,
                    key: k,
                    payload: lynx_sim::Payload::new(),
                    func: None,
                },
            );
        }
        assert_eq!(p.take_batch(0).len(), 2);
        assert!(p.end_drain(0), "3 left: cycle continues");
        assert_eq!(p.take_batch(0).len(), 2);
        assert_eq!(p.take_batch(0).len(), 1);
        assert!(!p.end_drain(0));
    }
}
