//! One-sided RDMA: NICs, queue pairs, ordered remote memory access.
//!
//! Lynx uses RDMA in exactly one place (§4.2 of the paper): the SmartNIC's
//! *Remote Message Queue Manager* reads and writes mqueues that live in
//! accelerator memory. Locally this is a loopback through the NIC ASIC and a
//! peer-to-peer PCIe DMA; for remote accelerators the same verbs traverse
//! the network to the accelerator's own RDMA NIC. Both paths share this
//! model, differing only in their [`WireProfile`].
//!
//! Both one-sided verbs post *chains*: every span is its own work-queue
//! element, but the chain rings one doorbell. A one-span chain is a plain
//! verb.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx_sim::telemetry::SiteCounter;
use lynx_sim::{FaultAction, Payload, Server, Sim};

use crate::{MemRegion, NodeId, PcieFabric};

/// A verb completed with an error CQE instead of taking effect.
///
/// Produced only by injected faults (site `rdma.write.<region>` /
/// `rdma.read.<region>`, action `CqeError` — see `lynx_sim::faults`). The
/// verb still consumed queue-pair occupancy and wire time, but the target
/// memory was never touched (writes) or never sampled (reads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqeError {
    /// Verb kind: `"write"` or `"read"`.
    pub verb: &'static str,
    /// Name of the memory region the verb targeted.
    pub region: String,
}

impl fmt::Display for CqeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RDMA {} to region '{}' completed in error",
            self.verb, self.region
        )
    }
}

impl std::error::Error for CqeError {}

/// InfiniBand queue-pair transport kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QpKind {
    /// Reliable Connection: ordered, supports one-sided READ and WRITE.
    /// Lynx creates one RC QP per accelerator (§5.1).
    ReliableConnection,
    /// Unreliable Connection: WRITE only, needs receiver-side refill. Used
    /// by the NICA-based Innova prototype's custom rings (§5.2).
    UnreliableConnection,
}

/// Timing profile of the path between an RDMA NIC and a peer NIC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireProfile {
    /// One-way propagation latency NIC-to-NIC (zero for loopback).
    pub latency: Duration,
    /// Wire bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// NIC ASIC processing time per work-queue element.
    pub per_wqe: Duration,
}

impl WireProfile {
    /// Loopback through the local NIC ASIC (SmartNIC to a local accelerator
    /// behind the same root complex). ConnectX-class ASICs sustain ~10 M
    /// one-sided ops/s per QP, hence 100 ns per WQE.
    pub fn loopback() -> WireProfile {
        WireProfile {
            latency: Duration::from_nanos(600),
            bandwidth_bps: 10.0e9,
            per_wqe: Duration::from_nanos(100),
        }
    }

    /// A 40 Gbps network crossing through one switch (the paper's Mellanox
    /// SN2100 testbed). Remote accelerator access adds ~2 µs one-way,
    /// matching the paper's "+8 µs per request" for remote GPUs once the
    /// request write and response read round-trip are accounted for.
    pub fn network_40g() -> WireProfile {
        WireProfile {
            latency: Duration::from_micros(2),
            bandwidth_bps: 5.0e9,
            per_wqe: Duration::from_nanos(100),
        }
    }

    /// The earliest a one-sided verb on this wire can land at the peer:
    /// propagation plus one WQE of NIC processing, before any
    /// serialization or PCIe hop.
    ///
    /// This lower bound is what a partitioned simulation uses as the
    /// conservative lookahead for a cross-shard RDMA path — no completion
    /// can cross the wire faster, so it is a safe
    /// [`lynx_sim::Partition::link`] latency when the two NICs live on
    /// different shards.
    pub fn min_one_way(&self) -> Duration {
        self.latency + self.per_wqe
    }
}

#[derive(Debug, Default)]
struct QpStats {
    writes: u64,
    reads: u64,
    bytes: u64,
}

/// Interned `fabric.rdma.*` counter handles, cached per queue pair so the
/// per-verb hot path indexes the registry instead of walking it by name.
#[derive(Debug, Default)]
struct QpSites {
    writes: SiteCounter,
    reads: SiteCounter,
    doorbells: SiteCounter,
    bytes: SiteCounter,
    cqe_errors: SiteCounter,
    barriers: SiteCounter,
}

/// An RDMA-capable NIC attached to a PCIe fabric node.
///
/// The NIC provides [`QueuePair`]s. Each QP serializes its own work queue
/// (RDMA ordering guarantee on RC QPs); distinct QPs proceed independently.
#[derive(Clone)]
pub struct RdmaNic {
    fabric: PcieFabric,
    node: NodeId,
    name: Rc<str>,
}

impl fmt::Debug for RdmaNic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RdmaNic")
            .field("name", &self.name)
            .field("node", &self.node)
            .finish()
    }
}

impl RdmaNic {
    /// Creates an RDMA NIC on fabric node `node`.
    pub fn new(fabric: PcieFabric, node: NodeId, name: impl Into<Rc<str>>) -> RdmaNic {
        RdmaNic {
            fabric,
            node,
            name: name.into(),
        }
    }

    /// The fabric node this NIC occupies.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The PCIe fabric this NIC is attached to.
    pub fn fabric(&self) -> PcieFabric {
        self.fabric.clone()
    }

    /// Creates a queue pair whose remote end is the NIC at `dst_nic` on
    /// `dst_fabric` (pass this NIC's own fabric and node for loopback).
    pub fn create_qp(
        &self,
        kind: QpKind,
        wire: WireProfile,
        dst_fabric: PcieFabric,
        dst_nic: NodeId,
    ) -> QueuePair {
        QueuePair {
            kind,
            wire,
            dst_fabric,
            dst_nic,
            queue: Server::new(1.0),
            stats: Rc::new(RefCell::new(QpStats::default())),
            sites: Rc::new(QpSites::default()),
        }
    }

    /// Convenience: loopback RC QP for reaching local accelerator memory.
    pub fn loopback_qp(&self) -> QueuePair {
        self.create_qp(
            QpKind::ReliableConnection,
            WireProfile::loopback(),
            self.fabric.clone(),
            self.node,
        )
    }
}

/// An RDMA queue pair: an ordered pipe of one-sided verbs.
///
/// Completion order equals posting order (RC semantics). Posting itself is
/// free — the *issuing CPU's* cost (< 1 µs per `ibv_post_send`, per the
/// paper's §5.1 discussion) must be charged by the caller on its own core
/// model; this type models the NIC and wire side.
#[derive(Clone)]
pub struct QueuePair {
    kind: QpKind,
    wire: WireProfile,
    dst_fabric: PcieFabric,
    dst_nic: NodeId,
    queue: Server,
    stats: Rc<RefCell<QpStats>>,
    sites: Rc<QpSites>,
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats.borrow();
        f.debug_struct("QueuePair")
            .field("kind", &self.kind)
            .field("writes", &s.writes)
            .field("reads", &s.reads)
            .field("bytes", &s.bytes)
            .finish()
    }
}

impl QueuePair {
    /// Transport kind of this QP.
    pub fn kind(&self) -> QpKind {
        self.kind
    }

    /// Total (writes, reads, bytes) posted so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        let s = self.stats.borrow();
        (s.writes, s.reads, s.bytes)
    }

    fn landing_delay(&self, dst_node: NodeId, bytes: usize) -> (Duration, Duration) {
        let occupancy =
            self.wire.per_wqe + Duration::from_secs_f64(bytes as f64 / self.wire.bandwidth_bps);
        let pcie = self
            .dst_fabric
            .transfer_time(self.dst_nic, dst_node, bytes)
            .expect("RDMA target not reachable from its NIC");
        (occupancy, self.wire.latency + pcie)
    }

    /// Draws each span's fault verdict and charges a chain of `spans`
    /// verbs moving `bytes` to the QP's counters. Returns the QP
    /// occupancy, the landing delay and one result per span: a
    /// placeholder `Ok` the completion fills in, or the `Err` of a span an
    /// armed fault plan struck.
    ///
    /// Each span is its own hit of site `rdma.<verb>.<region>`, so
    /// `Trigger::Nth` counts verbs, not chains. A `CqeError` fault strikes
    /// its span only; a `Delay` fault models a PCIe stall and stretches
    /// the landing of the whole chain.
    fn charge<T: Default>(
        &self,
        sim: &mut Sim,
        verb: &'static str,
        region: &MemRegion,
        spans: usize,
        bytes: usize,
    ) -> (Duration, Duration, Vec<Result<T, CqeError>>) {
        assert!(spans > 0, "a chain needs at least one span");
        let (occupancy, mut delay) = self.landing_delay(region.node(), bytes);
        let mut results = Vec::with_capacity(spans);
        for _ in 0..spans {
            let mut result = Ok(T::default());
            if sim.faults_enabled() {
                match sim.fault_at(&format!("rdma.{verb}.{}", region.name())) {
                    Some(FaultAction::CqeError) => {
                        result = Err(CqeError {
                            verb,
                            region: region.name().to_string(),
                        })
                    }
                    Some(FaultAction::Delay(stall)) => delay += stall,
                    _ => {}
                }
            }
            results.push(result);
        }
        let write = verb == "write";
        {
            let mut s = self.stats.borrow_mut();
            if write {
                s.writes += spans as u64;
            } else {
                s.reads += spans as u64;
            }
            s.bytes += bytes as u64;
        }
        if let Some(t) = sim.telemetry() {
            let (site, name) = if write {
                (&self.sites.writes, "fabric.rdma.writes")
            } else {
                (&self.sites.reads, "fabric.rdma.reads")
            };
            site.add(t, name, spans as u64);
            self.sites.doorbells.add(t, "fabric.rdma.doorbells", 1);
            self.sites.bytes.add(t, "fabric.rdma.bytes", bytes as u64);
            let errors = results.iter().filter(|r| r.is_err()).count() as u64;
            if errors > 0 {
                self.sites
                    .cqe_errors
                    .add(t, "fabric.rdma.cqe_errors", errors);
            }
        }
        (occupancy, delay, results)
    }

    /// Posts a chained one-sided RDMA WRITE: each `(offset, bytes)` span
    /// of `spans` is its own work-queue element, but the chain rings a
    /// **single doorbell** and takes one `per_wqe` NIC slot. This is the
    /// verb coalescing that amortizes per-message RDMA cost (paper §5.1,
    /// §6.2); a one-span chain is a plain write.
    ///
    /// The bytes become visible in `dst` when the chain lands, and `done`
    /// then runs once with one result per span, in posting order. Chains
    /// posted on the same QP land in posting order. A span an armed fault
    /// plan struck (site `rdma.write.<region>`, action `CqeError`) leaves
    /// its range of `dst` untouched and reports `Err(`[`CqeError`]`)`; the
    /// other spans still land, as RDMA WRITEs carry no inter-WQE
    /// dependency. Reposting a shared [`Payload`] costs an `Rc` bump, not
    /// a copy.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty, a destination range is out of bounds,
    /// or the target node is unreachable from the QP's remote NIC.
    pub fn post_write(
        &self,
        sim: &mut Sim,
        spans: Vec<(usize, Payload)>,
        dst: &MemRegion,
        done: impl FnOnce(&mut Sim, Vec<Result<(), CqeError>>) + 'static,
    ) {
        let bytes = spans.iter().map(|(_, d)| d.len()).sum();
        let (occupancy, delay, results) = self.charge(sim, "write", dst, spans.len(), bytes);
        let dst = dst.clone();
        self.queue.submit(sim, occupancy, move |sim| {
            sim.schedule_in(delay, move |sim| {
                for ((off, data), result) in spans.iter().zip(&results) {
                    if result.is_ok() {
                        dst.write(*off, data);
                    }
                }
                done(sim, results);
            });
        });
    }

    /// Posts a chained one-sided RDMA READ of each `(offset, len)` span of
    /// `spans` from `src`: one doorbell and one `per_wqe` NIC slot for the
    /// chain, the read-side twin of [`QueuePair::post_write`].
    ///
    /// `done` runs once, a full round trip later, with each span's bytes
    /// (a shared [`Payload`]) as they were when the read reached `src`, in
    /// posting order. A span an armed fault plan struck (site
    /// `rdma.read.<region>`, action `CqeError`) never samples `src` and
    /// reports `Err(`[`CqeError`]`)`; a `Delay` fault stretches both legs.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty, if called on an
    /// [`QpKind::UnreliableConnection`] QP (UC does not support RDMA
    /// READ), if a source range is out of bounds, or if the target node is
    /// unreachable.
    pub fn post_read(
        &self,
        sim: &mut Sim,
        src: &MemRegion,
        spans: Vec<(usize, usize)>,
        done: impl FnOnce(&mut Sim, Vec<Result<Payload, CqeError>>) + 'static,
    ) {
        assert!(
            self.kind == QpKind::ReliableConnection,
            "RDMA READ requires a Reliable Connection QP"
        );
        let bytes = spans.iter().map(|(_, len)| len).sum();
        let (occupancy, delay, mut results) = self.charge(sim, "read", src, spans.len(), bytes);
        let src = src.clone();
        self.queue.submit(sim, occupancy, move |sim| {
            // The request reaches the target after `delay`; the data is
            // sampled there and returns after another `delay`.
            sim.schedule_in(delay, move |sim| {
                for ((off, len), result) in spans.into_iter().zip(&mut results) {
                    if let Ok(data) = result {
                        *data = Payload::from(src.read(off, len));
                    }
                }
                sim.schedule_in(delay, move |sim| done(sim, results));
            });
        });
    }

    /// Posts a zero-byte READ used as a write barrier — the GPU memory
    /// consistency workaround of §5.1 (an RDMA read flushes preceding
    /// writes). Unlike a plain read, the barrier *fences* the queue pair:
    /// work posted after it cannot start until the read's round trip
    /// completes, which is what makes the workaround cost ~5 µs per
    /// message in the paper.
    pub fn post_barrier(
        &self,
        sim: &mut Sim,
        probe: &MemRegion,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        let (occupancy, delay) = self.landing_delay(probe.node(), 0);
        self.stats.borrow_mut().reads += 1;
        if let Some(t) = sim.telemetry() {
            self.sites.barriers.add(t, "fabric.rdma.barriers", 1);
            self.sites.doorbells.add(t, "fabric.rdma.doorbells", 1);
        }
        // The round trip is charged as QP occupancy: the pipe stalls.
        self.queue.submit(sim, occupancy + delay * 2, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcieLink;
    use lynx_sim::{FaultPlan, Time, Trigger};
    use std::cell::Cell;
    use std::rc::Rc;

    fn rig() -> (Sim, RdmaNic, MemRegion) {
        let sim = Sim::new(0);
        let fabric = PcieFabric::new();
        let host = fabric.add_node("host");
        let nic = fabric.add_node("nic");
        let gpu = fabric.add_node("gpu");
        fabric.link(host, nic, PcieLink::gen3_x8());
        fabric.link(host, gpu, PcieLink::gen3_x16());
        let rnic = RdmaNic::new(fabric, nic, "cx5");
        let gpu_mem = MemRegion::new(gpu, 4096, "gpu-mem");
        (sim, rnic, gpu_mem)
    }

    /// A one-span chain: `data` at `off`.
    fn span(off: usize, data: impl Into<Payload>) -> Vec<(usize, Payload)> {
        vec![(off, data.into())]
    }

    /// Posts a one-span write and returns the cell its landing time goes to.
    fn timed_write(
        sim: &mut Sim,
        qp: &QueuePair,
        mem: &MemRegion,
        off: usize,
        data: Vec<u8>,
    ) -> Rc<Cell<Time>> {
        let landed = Rc::new(Cell::new(Time::ZERO));
        let l = Rc::clone(&landed);
        qp.post_write(sim, span(off, data), mem, move |sim, _| l.set(sim.now()));
        landed
    }

    #[test]
    fn write_lands_with_payload() {
        let (mut sim, nic, gpu_mem) = rig();
        let qp = nic.loopback_qp();
        let landed = timed_write(&mut sim, &qp, &gpu_mem, 100, b"request".to_vec());
        assert_eq!(gpu_mem.read(100, 7), vec![0; 7]);
        sim.run();
        assert_eq!(gpu_mem.read(100, 7), b"request");
        // per_wqe 100ns + wire + 600ns loopback + 700ns two PCIe hops.
        assert!(landed.get() > Time::from_nanos(1_300));
        assert!(landed.get() < Time::from_micros(3));
    }

    #[test]
    fn writes_on_one_qp_stay_ordered() {
        let (mut sim, nic, gpu_mem) = rig();
        let qp = nic.loopback_qp();
        // Data write then doorbell write: doorbell must land second.
        qp.post_write(&mut sim, span(0, vec![0xAA; 64]), &gpu_mem, |_, _| {});
        let gm = gpu_mem.clone();
        qp.post_write(&mut sim, span(512, vec![1]), &gpu_mem, move |_, _| {
            // When the doorbell lands, the data must already be there.
            assert_eq!(gm.read(0, 64), vec![0xAA; 64]);
        });
        sim.run();
        assert_eq!(gpu_mem.read(512, 1), vec![1]);
    }

    #[test]
    fn read_returns_snapshot_after_round_trip() {
        let (mut sim, nic, gpu_mem) = rig();
        gpu_mem.write(0, b"resp");
        let qp = nic.loopback_qp();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        let write_landed = timed_write(&mut sim, &qp, &gpu_mem, 64, vec![9]);
        let read_done = Rc::new(Cell::new(Time::ZERO));
        let rd = Rc::clone(&read_done);
        qp.post_read(&mut sim, &gpu_mem, vec![(0, 4)], move |sim, r| {
            *g.borrow_mut() = r;
            rd.set(sim.now());
        });
        sim.run();
        assert_eq!(got.borrow()[0].as_ref().unwrap()[..], b"resp"[..]);
        // Read is a round trip: completes strictly after the one-way write.
        assert!(read_done.get() > write_landed.get());
    }

    #[test]
    #[should_panic(expected = "Reliable Connection")]
    fn uc_qp_rejects_read() {
        let (mut sim, nic, gpu_mem) = rig();
        let qp = nic.create_qp(
            QpKind::UnreliableConnection,
            WireProfile::loopback(),
            // Same-fabric loopback.
            nic.fabric.clone(),
            nic.node(),
        );
        qp.post_read(&mut sim, &gpu_mem, vec![(0, 4)], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "at least one span")]
    fn empty_chain_is_rejected() {
        let (mut sim, nic, gpu_mem) = rig();
        nic.loopback_qp()
            .post_write(&mut sim, Vec::new(), &gpu_mem, |_, _| {});
    }

    #[test]
    fn stats_track_ops() {
        let (mut sim, nic, gpu_mem) = rig();
        let qp = nic.loopback_qp();
        qp.post_write(&mut sim, span(0, vec![0; 100]), &gpu_mem, |_, _| {});
        qp.post_read(&mut sim, &gpu_mem, vec![(0, 50)], |_, _| {});
        sim.run();
        assert_eq!(qp.stats(), (1, 1, 150));
    }

    #[test]
    fn injected_cqe_error_skips_memory_but_costs_time() {
        let (mut sim, nic, gpu_mem) = rig();
        sim.enable_faults(FaultPlan::new(0).rule(
            "rdma.write.gpu-mem",
            Trigger::Nth(1),
            FaultAction::CqeError,
        ));
        sim.enable_telemetry();
        let qp = nic.loopback_qp();
        let outcome = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&outcome);
        let completed = Rc::new(Cell::new(Time::ZERO));
        let c = Rc::clone(&completed);
        qp.post_write(&mut sim, span(0, vec![7; 16]), &gpu_mem, move |sim, r| {
            *o.borrow_mut() = r;
            c.set(sim.now());
        });
        sim.run();
        let err = outcome.borrow_mut().pop().unwrap().unwrap_err();
        assert_eq!(err.verb, "write");
        assert_eq!(err.region, "gpu-mem");
        // Memory untouched, but the verb consumed wire time.
        assert_eq!(gpu_mem.read(0, 16), vec![0; 16]);
        assert!(completed.get() > Time::from_nanos(1_300));
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("fabric.rdma.cqe_errors"), 1);
        assert_eq!(t.counter("faults.injected.cqe_error"), 1);
    }

    #[test]
    fn injected_read_error_completes_without_data() {
        let (mut sim, nic, gpu_mem) = rig();
        gpu_mem.write(0, b"resp");
        sim.enable_faults(FaultPlan::new(0).rule(
            "rdma.read.",
            Trigger::Nth(1),
            FaultAction::CqeError,
        ));
        let qp = nic.loopback_qp();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        qp.post_read(&mut sim, &gpu_mem, vec![(0, 4)], move |_, r| {
            *g.borrow_mut() = r;
        });
        sim.run();
        assert!(got.borrow()[0].is_err());
    }

    #[test]
    fn injected_pcie_stall_delays_landing() {
        let run = |stall_us: u64| {
            let (mut sim, nic, gpu_mem) = rig();
            if stall_us > 0 {
                sim.enable_faults(FaultPlan::new(0).rule(
                    "rdma.write.",
                    Trigger::Nth(1),
                    FaultAction::Delay(Duration::from_micros(stall_us)),
                ));
            }
            let qp = nic.loopback_qp();
            let landed = timed_write(&mut sim, &qp, &gpu_mem, 0, vec![1; 8]);
            sim.run();
            landed.get()
        };
        let clean = run(0);
        let stalled = run(25);
        assert_eq!(stalled, clean + Duration::from_micros(25));
    }

    #[test]
    fn chained_write_lands_all_spans_with_one_doorbell() {
        let (mut sim, nic, gpu_mem) = rig();
        sim.enable_telemetry();
        let qp = nic.loopback_qp();
        let done = Rc::new(RefCell::new(Vec::new()));
        let d = Rc::clone(&done);
        qp.post_write(
            &mut sim,
            vec![(0, b"aaaa".to_vec().into()), (64, b"bb".to_vec().into())],
            &gpu_mem,
            move |_, results| *d.borrow_mut() = results,
        );
        sim.run();
        assert_eq!(gpu_mem.read(0, 4), b"aaaa");
        assert_eq!(gpu_mem.read(64, 2), b"bb");
        assert!(done.borrow().iter().all(|r| r.is_ok()));
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("fabric.rdma.doorbells"), 1);
        assert_eq!(t.counter("fabric.rdma.writes"), 2);
        assert_eq!(qp.stats(), (2, 0, 6));
    }

    #[test]
    fn chained_read_returns_per_span_results() {
        let (mut sim, nic, gpu_mem) = rig();
        sim.enable_telemetry();
        gpu_mem.write(0, b"head");
        gpu_mem.write(128, b"tail");
        let qp = nic.loopback_qp();
        let done = Rc::new(RefCell::new(Vec::new()));
        let d = Rc::clone(&done);
        qp.post_read(&mut sim, &gpu_mem, vec![(0, 4), (128, 4)], move |_, r| {
            *d.borrow_mut() = r;
        });
        sim.run();
        let got = done.borrow();
        assert_eq!(got[0].as_ref().unwrap(), b"head");
        assert_eq!(got[1].as_ref().unwrap(), b"tail");
        assert_eq!(sim.telemetry().unwrap().counter("fabric.rdma.doorbells"), 1);
    }

    #[test]
    fn chained_write_fault_strikes_one_span_only() {
        let (mut sim, nic, gpu_mem) = rig();
        // Second WQE of the chain errors; first still lands.
        sim.enable_faults(FaultPlan::new(0).rule(
            "rdma.write.gpu-mem",
            Trigger::Nth(2),
            FaultAction::CqeError,
        ));
        let qp = nic.loopback_qp();
        let done = Rc::new(RefCell::new(Vec::new()));
        let d = Rc::clone(&done);
        let spans = [(0, 1u8), (64, 2), (200, 3)]
            .map(|(off, b)| (off, Payload::from(vec![b; 8])))
            .to_vec();
        qp.post_write(&mut sim, spans, &gpu_mem, move |_, results| {
            *d.borrow_mut() = results
        });
        sim.run();
        let got = done.borrow();
        assert!(got[0].is_ok());
        assert!(got[1].is_err());
        assert!(got[2].is_ok());
        assert_eq!(gpu_mem.read(0, 8), vec![1; 8]);
        assert_eq!(
            gpu_mem.read(64, 8),
            vec![0; 8],
            "faulted span must not land"
        );
        assert_eq!(gpu_mem.read(200, 8), vec![3; 8]);
    }

    #[test]
    fn chain_beats_separate_posts() {
        // A 2-span chain completes before two separate posts: it saves
        // one per_wqe NIC slot.
        let (mut sim, nic, gpu_mem) = rig();
        let qp = nic.loopback_qp();
        let t_chain = Rc::new(Cell::new(Time::ZERO));
        let tc = Rc::clone(&t_chain);
        qp.post_write(
            &mut sim,
            vec![(0, vec![1; 256].into()), (256, vec![2; 256].into())],
            &gpu_mem,
            move |sim, _| tc.set(sim.now()),
        );
        sim.run();
        let (mut sim2, nic2, gpu_mem2) = rig();
        let qp2 = nic2.loopback_qp();
        qp2.post_write(&mut sim2, span(0, vec![1; 256]), &gpu_mem2, |_, _| {});
        let t_sep = timed_write(&mut sim2, &qp2, &gpu_mem2, 256, vec![2; 256]);
        sim2.run();
        assert!(t_chain.get() < t_sep.get());
    }

    #[test]
    fn network_profile_is_slower_than_loopback() {
        let (mut sim, nic, gpu_mem) = rig();
        let local = nic.loopback_qp();
        let remote = nic.create_qp(
            QpKind::ReliableConnection,
            WireProfile::network_40g(),
            nic.fabric.clone(),
            nic.node(),
        );
        let t_local = timed_write(&mut sim, &local, &gpu_mem, 0, vec![0; 64]);
        let t_remote = timed_write(&mut sim, &remote, &gpu_mem, 64, vec![0; 64]);
        sim.run();
        assert!(t_remote.get() > t_local.get() + Duration::from_micros(1));
    }
}
