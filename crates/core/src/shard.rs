//! Mapping Lynx deployments onto the partitioned simulation engine.
//!
//! `lynx_sim::shard` provides the generic machinery — shards, conservative
//! windows, deterministic merge. This module binds it to the *Lynx* shape
//! of a simulation:
//!
//! * [`ShardPlan`] — the pipeline-lane → shard mapping. A Lynx server's
//!   SNIC pipeline is a pool of per-core lanes
//!   ([`PipelineConfig::snic_cores`](crate::PipelineConfig)); when a
//!   scale-out experiment replicates the server, the plan says which
//!   replica (and therefore which shard) each lane lives on.
//! * [`conservative_window`] — discovers a safe cross-shard window width
//!   from the modelled interconnects: the minimum one-way latency across
//!   the datacenter network ([`Network::min_path_latency`]) and every
//!   RDMA wire profile in play ([`WireProfile::min_one_way`]). Nothing in
//!   the model can cross shards faster than the slowest of these bounds
//!   allows, so the window is conservative by construction.
//! * [`ReplicaSet`] — the replica-per-shard scale-out harness: each shard
//!   hosts one complete server group (machine + GPUs + its own clients),
//!   the layout of `fig8b_scaleout` and the 1M-client experiment. With no
//!   cross-replica links the engine runs a single window and the replicas
//!   are embarrassingly parallel; [`ReplicaSet::ring`] optionally declares
//!   a heartbeat ring so differential tests can exercise the windowed
//!   path on the same topology.
//!
//! Determinism is inherited wholesale: a [`ReplicaSet`] run merges its
//! telemetry by `(time, shard, order)` and produces byte-identical output
//! at any thread count (see `lynx_sim::shard`).

use std::time::Duration;

use lynx_fabric::WireProfile;
use lynx_net::Network;
use lynx_sim::shard::FinishFn;
use lynx_sim::{Partition, PartitionReport, ShardId, Sim, SimConfig, Time};

/// Static assignment of SNIC pipeline lanes to shards.
///
/// The mapping is round-robin by lane index — a pure function of
/// `(lanes, shards)`, so the same plan is computed on every thread and
/// every run. Lanes on the same shard share one simulated clock and may
/// exchange work without cross-shard traffic; lanes on different shards
/// may only interact through declared links.
///
/// ```
/// use lynx_core::shard::ShardPlan;
///
/// let plan = ShardPlan::new(8, 3);
/// assert_eq!(plan.shard_for_lane(0), 0);
/// assert_eq!(plan.shard_for_lane(4), 1);
/// assert_eq!(plan.lanes_on(0), vec![0, 3, 6]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    lanes: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans `lanes` pipeline lanes over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when either count is zero.
    pub fn new(lanes: usize, shards: usize) -> ShardPlan {
        assert!(lanes > 0, "a plan needs at least one lane");
        assert!(shards > 0, "a plan needs at least one shard");
        ShardPlan { lanes, shards }
    }

    /// Total pipeline lanes planned.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of shards the lanes are spread over (capped at the lane
    /// count — extra shards would sit empty).
    pub fn shards(&self) -> usize {
        self.shards.min(self.lanes)
    }

    /// The shard hosting `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn shard_for_lane(&self, lane: usize) -> usize {
        assert!(lane < self.lanes, "lane {lane} out of range");
        lane % self.shards()
    }

    /// The lanes hosted on `shard`, in ascending order.
    pub fn lanes_on(&self, shard: usize) -> Vec<usize> {
        (0..self.lanes)
            .filter(|&l| self.shard_for_lane(l) == shard)
            .collect()
    }
}

/// Discovers a conservative cross-shard window width from the modelled
/// interconnects.
///
/// Returns the minimum of the network's smallest host-to-host one-way
/// propagation latency and every wire profile's earliest one-way verb
/// landing time — i.e. a lower bound on how fast *anything* in the model
/// can cross between shards. Returns `None` when no bound exists (a
/// network with fewer than two hosts and no wires), in which case the
/// partition should run unlinked.
pub fn conservative_window(net: &Network, wires: &[WireProfile]) -> Option<Duration> {
    let mut window = net.min_path_latency();
    for wire in wires {
        let w = wire.min_one_way();
        window = Some(match window {
            Some(cur) => cur.min(w),
            None => w,
        });
    }
    window
}

/// Replica-per-shard scale-out harness.
///
/// Each replica is one self-contained server group — typically a
/// [`Machine`](crate::testbed::Machine) with its GPUs, a built
/// [`LynxServer`](crate::LynxServer), and the clients that drive it —
/// constructed by its build closure *on the shard's worker thread* against
/// the shard's private [`Sim`]. Replica `i` is seeded
/// `derive_seed(root, "shard/i")`, so adding replicas never perturbs the
/// event streams of existing ones.
///
/// Without links the engine runs all replicas to the deadline in a single
/// conservative window — the scale-out case is embarrassingly parallel
/// and the per-window barrier cost is paid exactly once. [`ReplicaSet::ring`]
/// adds a cross-replica heartbeat ring for tests that must exercise
/// windowed message exchange on the same topology.
pub struct ReplicaSet<V> {
    partition: Partition<V>,
    ids: Vec<ShardId>,
}

impl<V> std::fmt::Debug for ReplicaSet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("replicas", &self.ids.len())
            .finish()
    }
}

impl<V: Send + 'static> ReplicaSet<V> {
    /// Creates an empty replica set with the given root seed and engine
    /// configuration (thread cap).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`SimConfig::validate`].
    pub fn new(seed: u64, config: SimConfig) -> ReplicaSet<V> {
        ReplicaSet {
            partition: Partition::new(seed, config),
            ids: Vec::new(),
        }
    }

    /// Enables per-replica telemetry, merged deterministically in the
    /// report.
    pub fn telemetry(mut self, on: bool) -> ReplicaSet<V> {
        self.partition = self.partition.telemetry(on);
        self
    }

    /// Adds one replica. `build` runs on the replica's worker thread with
    /// the replica's private simulator and returns the finisher that
    /// extracts the replica's output after the run.
    pub fn add_replica(
        &mut self,
        name: &str,
        build: impl FnOnce(&mut Sim) -> FinishFn<V> + Send + 'static,
    ) -> ShardId {
        let id = self.partition.add_shard(name, move |sim, _ctx| build(sim));
        self.ids.push(id);
        id
    }

    /// Declares a heartbeat ring over all replicas added so far: replica
    /// `i` links to replica `(i + 1) % n` with the given one-way latency,
    /// which becomes the conservative window width.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two replicas, or on a zero latency.
    pub fn ring(&mut self, latency: Duration) {
        assert!(self.ids.len() >= 2, "a ring needs at least two replicas");
        let n = self.ids.len();
        for i in 0..n {
            let a = self.ids[i];
            let b = self.ids[(i + 1) % n];
            if a != b {
                // Links are symmetric and keyed per pair, so the n == 2
                // case (both directions visit the same pair) is harmless.
                self.partition.link(a, b, latency);
            }
        }
    }

    /// Number of replicas added so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no replica has been added yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The conservative window the run will use (`None` without links).
    pub fn window(&self) -> Option<Duration> {
        self.partition.window()
    }

    /// Runs every replica until `deadline` and collects the merged report.
    pub fn run_until(self, deadline: Time) -> PartitionReport<V> {
        self.partition.run_until(deadline)
    }

    /// Runs every replica until all queues drain.
    pub fn run(self) -> PartitionReport<V> {
        self.partition.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynx_net::LinkSpec;

    #[test]
    fn plan_is_round_robin_and_total() {
        let plan = ShardPlan::new(8, 3);
        assert_eq!(plan.lanes(), 8);
        assert_eq!(plan.shards(), 3);
        let mut seen = vec![];
        for s in 0..plan.shards() {
            seen.extend(plan.lanes_on(s));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>(), "every lane placed once");
    }

    #[test]
    fn plan_caps_shards_at_lane_count() {
        let plan = ShardPlan::new(2, 8);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.shard_for_lane(1), 1);
    }

    #[test]
    fn window_discovery_takes_the_minimum_bound() {
        let net = Network::new();
        net.add_host("a", LinkSpec::gbps40());
        net.add_host("b", LinkSpec::gbps40());
        // Network path: 500ns + 300ns + 500ns = 1.3us; loopback RDMA wire:
        // 600ns + 100ns = 700ns — the tighter bound wins.
        let w = conservative_window(&net, &[WireProfile::loopback()]).unwrap();
        assert_eq!(w, Duration::from_nanos(700));
        // Without wires the network path is the bound.
        let w = conservative_window(&net, &[]).unwrap();
        assert_eq!(w, Duration::from_nanos(1300));
        // No hosts, no wires: no bound.
        assert_eq!(conservative_window(&Network::new(), &[]), None);
    }

    #[test]
    fn replicas_run_unlinked_in_one_window() {
        let mut set: ReplicaSet<u64> = ReplicaSet::new(7, SimConfig::new().threads(2));
        for r in 0..4u64 {
            set.add_replica(&format!("replica/{r}"), move |sim| {
                for i in 0..10u64 {
                    sim.schedule_in(Duration::from_micros(i + 1), |_| {});
                }
                Box::new(move |sim: &mut Sim| sim.executed() + r)
            });
        }
        assert_eq!(set.window(), None);
        let report = set.run_until(Time::from_millis(1));
        assert_eq!(report.windows, 1, "unlinked replicas run one window");
        assert_eq!(report.outputs.len(), 4);
        assert!(report.executed() >= 40);
    }

    #[test]
    fn ring_links_make_a_window_and_stay_deterministic() {
        let run = |threads: usize| {
            let mut set: ReplicaSet<u64> = ReplicaSet::new(11, SimConfig::new().threads(threads));
            for r in 0..3u64 {
                set.add_replica(&format!("replica/{r}"), move |sim| {
                    sim.schedule_in(Duration::from_micros(r + 1), |_| {});
                    Box::new(|sim: &mut Sim| sim.executed())
                });
            }
            set.ring(Duration::from_micros(2));
            assert_eq!(set.window(), Some(Duration::from_micros(2)));
            set.run_until(Time::from_micros(50))
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.outputs, eight.outputs);
        assert_eq!(one.counters(), eight.counters());
    }
}
