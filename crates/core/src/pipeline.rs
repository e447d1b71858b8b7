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
//!   dispatcher/forwarder ([`PipelineConfig::snic_cores`]) and how many
//!   messages each core drains per invocation ([`BatchPolicy`]).
//! * `Pipeline` (crate-private) — the per-core staging queues the
//!   sharded dispatcher drains. Each incoming request is sharded to core
//!   `key % snic_cores` and drained in deterministic FIFO order, pinned to
//!   that core's lane of the SNIC's [`lynx_net::HostStack`] pool.
//!
//! # One request path
//!
//! Batching amortizes per-message costs; it does not change what happens
//! to a request. The server runs the same dispatch, forward and reply
//! code at every batch size. The default, `Fixed(1)`, dispatches each
//! message the moment it arrives, as a batch of one, on the shared
//! join-shortest-completion lane pool. Staging, per-core lanes and the
//! coalesced forward cycle engage only when a batch can hold two or more
//! messages (see [`PipelineConfig::is_batched`]).

use std::collections::VecDeque;
use std::fmt;

use crate::{ReturnAddr, ServiceId};

/// How many messages a SNIC core drains per pipeline invocation.
///
/// `Fixed(b)` drains up to `b` staged messages per invocation: a drain
/// takes what is staged, never waiting for a batch to fill, so an idle
/// core still sends a singleton at once. The default `Fixed(1)` is
/// per-message dispatch on the shared lane pool; `Fixed(0)` is rejected
/// at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Drain up to this many staged messages per invocation.
    Fixed(usize),
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::Fixed(1)
    }
}

impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let BatchPolicy::Fixed(b) = self;
        write!(f, "fixed({b})")
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
    /// How many messages each core drains per invocation.
    pub batch: BatchPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::default(),
        }
    }
}

impl PipelineConfig {
    /// Whether the staged/sharded batch path is engaged: a batch can
    /// hold two or more messages. `Fixed(1)` dispatches each message on
    /// arrival on the shared lane pool, through the same code.
    pub fn is_batched(&self) -> bool {
        self.batch_limit() >= 2
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
    /// `snic_cores` is 0 or exceeds `stack_lanes`, or when the batch
    /// policy is `Fixed(0)`.
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

    /// How many messages a drain may take.
    pub(crate) fn batch_limit(&self) -> usize {
        let BatchPolicy::Fixed(b) = self.batch;
        b.max(1)
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
        if self.batch == BatchPolicy::Fixed(0) {
            return Err(invalid(
                "pipeline.batch",
                "batch size 0 is meaningless; the smallest batch is Fixed(1)",
            ));
        }
        Ok(())
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

/// Runtime state of the batched multi-core pipeline: the per-core staging
/// queues and drain scheduling flags of the sharded dispatcher.
///
/// Owned by the [`crate::LynxServer`]; the server stages each incoming
/// request on its shard's queue and drains up to the policy's batch limit
/// per cycle, charging the (amortized) drain cost pinned to that core's
/// stack lane.
pub(crate) struct Pipeline {
    cfg: PipelineConfig,
    cores: Vec<CoreState>,
}

impl Pipeline {
    /// Creates the pipeline runtime for a validated configuration.
    pub(crate) fn new(cfg: PipelineConfig) -> Pipeline {
        Pipeline {
            cores: (0..cfg.snic_cores.max(1))
                .map(|_| CoreState {
                    staged: VecDeque::new(),
                    drain_scheduled: false,
                })
                .collect(),
            cfg,
        }
    }

    /// The pipeline's configuration.
    pub(crate) fn config(&self) -> PipelineConfig {
        self.cfg
    }

    /// Stages a request on `core`; returns `true` when the caller must
    /// schedule a drain cycle (none is pending for that core yet).
    pub(crate) fn stage(&mut self, core: usize, req: StagedRequest) -> bool {
        let c = &mut self.cores[core];
        c.staged.push_back(req);
        !std::mem::replace(&mut c.drain_scheduled, true)
    }

    /// Takes up to the policy's batch limit of staged requests off `core`.
    pub(crate) fn take_batch(&mut self, core: usize) -> Vec<StagedRequest> {
        let limit = self.cfg.batch_limit();
        let c = &mut self.cores[core];
        let n = c.staged.len().min(limit);
        c.staged.drain(..n).collect()
    }

    /// Ends `core`'s drain cycle. Returns `true` when more work is staged
    /// (the caller must start another cycle — the flag stays set); `false`
    /// once the core goes idle and the flag is cleared.
    pub(crate) fn end_drain(&mut self, core: usize) -> bool {
        let c = &mut self.cores[core];
        c.drain_scheduled = !c.staged.is_empty();
        c.drain_scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(key: u64) -> StagedRequest {
        StagedRequest {
            service: ServiceId::DEFAULT,
            ret: ReturnAddr::Fixed,
            key,
            payload: lynx_sim::Payload::new(),
            func: None,
        }
    }

    #[test]
    fn default_is_a_batch_of_one() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.snic_cores, 1);
        assert_eq!(cfg.batch, BatchPolicy::Fixed(1));
        assert_eq!(cfg.batch_limit(), 1);
        assert!(!cfg.is_batched());
    }

    #[test]
    fn only_batches_of_two_or_more_stage() {
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
            batch: BatchPolicy::Fixed(1),
        }));
        assert!(bad(PipelineConfig {
            snic_cores: 8,
            batch: BatchPolicy::Fixed(1),
        }));
        assert!(bad(PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Fixed(0),
        }));
        assert!(PipelineConfig {
            snic_cores: 4,
            batch: BatchPolicy::Fixed(16),
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
    fn staging_coalesces_drains() {
        let mut p = Pipeline::new(PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(4),
        });
        assert!(p.stage(0, req(0)), "first stage on a core schedules");
        assert!(!p.stage(0, req(2)), "second rides the pending drain");
        assert!(p.stage(1, req(1)), "other core schedules its own");
        let batch = p.take_batch(0);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].key, 0);
        assert_eq!(batch[1].key, 2);
        assert!(!p.end_drain(0), "core 0 idle");
        assert!(p.stage(0, req(4)), "idle core schedules again");
        assert_eq!(p.take_batch(1).len(), 1);
        assert!(!p.end_drain(1));
    }

    #[test]
    fn take_batch_respects_fixed_limit() {
        let mut p = Pipeline::new(PipelineConfig {
            snic_cores: 1,
            batch: BatchPolicy::Fixed(2),
        });
        for k in 0..5 {
            let _ = p.stage(0, req(k));
        }
        assert_eq!(p.take_batch(0).len(), 2);
        assert!(p.end_drain(0), "3 left: cycle continues");
        assert_eq!(p.take_batch(0).len(), 2);
        assert_eq!(p.take_batch(0).len(), 1);
        assert!(!p.end_drain(0));
    }
}
