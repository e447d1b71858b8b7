//! The Remote Message Queue Manager (§4.2).
//!
//! Runs on the SmartNIC and accesses mqueues in accelerator memory with
//! one-sided RDMA — "a key to maintaining the mqueues in accelerator
//! memory". One RC QP per accelerator carries all of that accelerator's
//! mqueues (§5.1), keeping the SNIC fully accelerator-agnostic: it never
//! runs an accelerator driver.
//!
//! Every push and every pull is a batch, and every batch goes out as one
//! chained verb with a single doorbell (split at ring wraps); a one-item
//! batch is a one-span chain.
//!
//! # Recovery
//!
//! When a fault plan is armed (see `lynx_sim::faults`), one retry rule
//! covers every post, a chain or a single span; [`RmqConfig`] states it.
//! Without a fault plan no watchdog is armed and no span is kept for
//! reposting.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use lynx_fabric::{CqeError, MemRegion, QueuePair};
use lynx_sim::{Payload, Sim, TraceEvent};

use crate::mqueue::SLOT_HEADER;
use crate::{Mqueue, ReqCtx, ReturnAddr};

/// Timeout/retry policy for the manager's RDMA verbs: the one retry
/// rule that covers chains and single spans alike.
///
/// - Every post, a whole chain or one reposted span, runs under one
///   [`verb_timeout`](RmqConfig::verb_timeout) watchdog.
/// - A span that completes in error (injected CQE), or every span of a
///   chain whose watchdog fires first, is reposted alone after a bounded
///   exponential backoff, under its own watchdog.
/// - Each span gets at most [`max_retries`](RmqConfig::max_retries)
///   reposts after its first post, then gives up (`rmq.giveups`).
/// - Each span settles exactly once: its doorbell notification or its
///   pulled context is delivered once, even when a late completion races
///   the watchdog. Reposts are idempotent (same bytes, same offset), so a
///   late original landing is harmless.
///
/// Only consulted when a fault plan is armed on the simulation; on the
/// fault-free path no watchdog timers are scheduled at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmqConfig {
    /// How long a post (a whole chain, or one reposted span) may take to
    /// complete before its watchdog reposts its spans.
    pub verb_timeout: Duration,
    /// Maximum reposts of one span after its first post.
    pub max_retries: u32,
    /// Backoff before a span's first repost; doubles per repost.
    pub backoff: Duration,
    /// Upper bound on the backoff growth.
    pub backoff_max: Duration,
}

impl Default for RmqConfig {
    fn default() -> Self {
        RmqConfig {
            verb_timeout: Duration::from_micros(100),
            max_retries: 4,
            backoff: Duration::from_micros(5),
            backoff_max: Duration::from_micros(80),
        }
    }
}

impl RmqConfig {
    fn backoff_delay(&self, prior_attempts: u32) -> Duration {
        let exp = prior_attempts.min(16);
        self.backoff_max.min(self.backoff * 2u32.pow(exp))
    }
}

impl crate::Validate for RmqConfig {
    fn validate(&self) -> crate::Result<()> {
        use crate::validate::invalid;
        if self.verb_timeout.is_zero() {
            return Err(invalid(
                "rmq.verb_timeout",
                "verb watchdog timeout must be positive",
            ));
        }
        if self.max_retries > 0 && self.backoff.is_zero() {
            return Err(invalid(
                "rmq.backoff",
                "retry backoff must be positive when retries are enabled",
            ));
        }
        if self.backoff_max < self.backoff {
            return Err(invalid(
                "rmq.backoff_max",
                format!(
                    "backoff_max {:?} below initial backoff {:?}",
                    self.backoff_max, self.backoff
                ),
            ));
        }
        Ok(())
    }
}

/// The two one-sided verbs the manager posts, each as a chain of spans.
trait Verb: 'static {
    /// One work-queue element: what a repost sends again.
    type Span: Clone + 'static;
    /// What a landed span yields.
    type Out: 'static;

    fn post(
        qp: &QueuePair,
        sim: &mut Sim,
        mem: &MemRegion,
        spans: Vec<Self::Span>,
        done: impl FnOnce(&mut Sim, Vec<Result<Self::Out, CqeError>>) + 'static,
    );
}

/// RDMA WRITE of `(offset, bytes)` spans.
struct Write;

/// RDMA READ of `(offset, len)` spans.
struct Read;

impl Verb for Write {
    type Span = (usize, Payload);
    type Out = ();

    fn post(
        qp: &QueuePair,
        sim: &mut Sim,
        mem: &MemRegion,
        spans: Vec<Self::Span>,
        done: impl FnOnce(&mut Sim, Vec<Result<(), CqeError>>) + 'static,
    ) {
        qp.post_write(sim, spans, mem, done);
    }
}

impl Verb for Read {
    type Span = (usize, usize);
    type Out = Payload;

    fn post(
        qp: &QueuePair,
        sim: &mut Sim,
        mem: &MemRegion,
        spans: Vec<Self::Span>,
        done: impl FnOnce(&mut Sim, Vec<Result<Payload, CqeError>>) + 'static,
    ) {
        qp.post_read(sim, mem, spans, done);
    }
}

/// A chain in flight under an armed fault plan: its spans, kept for
/// reposts, and the continuation each span settles through exactly once.
struct Flight<V: Verb, S> {
    rmq: RemoteMqManager,
    mem: MemRegion,
    label: String,
    spans: Vec<V::Span>,
    settle: RefCell<S>,
}

impl<V: Verb, S: FnMut(&mut Sim, usize, Option<V::Out>) + 'static> Flight<V, S> {
    /// Posts spans `idx` as one chain, each on its attempt `n`, under one
    /// watchdog.
    fn post(self: &Rc<Self>, sim: &mut Sim, idx: Vec<usize>, n: u32) {
        let spans = idx.iter().map(|&i| self.spans[i].clone()).collect();
        // The post settles once, by its completion or by its watchdog,
        // whichever comes first. A late completion is ignored: the
        // reposts rewrite (or re-read) the same bytes.
        let settled = Rc::new(Cell::new(false));
        let (flight, done, chain) = (Rc::clone(self), Rc::clone(&settled), idx.clone());
        V::post(&self.rmq.qp, sim, &self.mem, spans, move |sim, results| {
            if done.replace(true) {
                return;
            }
            for (i, result) in chain.into_iter().zip(results) {
                match result {
                    Ok(out) => (flight.settle.borrow_mut())(sim, i, Some(out)),
                    Err(_) => flight.retry(sim, i, n),
                }
            }
        });
        let flight = Rc::clone(self);
        sim.schedule_in(self.rmq.cfg.verb_timeout, move |sim| {
            if settled.replace(true) {
                return;
            }
            sim.count("rmq.timeouts", 1);
            for i in idx {
                flight.retry(sim, i, n);
            }
        });
    }

    /// Reposts span `i` alone after its attempt `n` failed, or gives it up
    /// once its budget is spent.
    fn retry(self: &Rc<Self>, sim: &mut Sim, i: usize, n: u32) {
        let cfg = self.rmq.cfg;
        if n < cfg.max_retries {
            sim.count("rmq.retries", 1);
            sim.trace(|| TraceEvent::RmqRetry {
                queue: self.label.clone(),
                attempt: n + 1,
            });
            let flight = Rc::clone(self);
            sim.schedule_in(cfg.backoff_delay(n), move |sim| {
                flight.post(sim, vec![i], n + 1);
            });
        } else {
            sim.count("rmq.giveups", 1);
            sim.trace(|| TraceEvent::RmqGiveUp {
                queue: self.label.clone(),
                attempts: n + 1,
            });
            (self.settle.borrow_mut())(sim, i, None);
        }
    }
}

/// Runs `then` once response `seq` is the oldest outstanding one of `mq`.
/// Retried reads can settle out of posting order, but slots complete in
/// order; this restores the order by polling deterministically.
fn when_oldest(sim: &mut Sim, mq: Mqueue, seq: u64, then: impl FnOnce(&mut Sim) + 'static) {
    if mq.collected() == seq {
        then(sim);
    } else {
        sim.schedule_in(Duration::from_nanos(500), move |sim| {
            when_oldest(sim, mq, seq, then);
        });
    }
}

/// SmartNIC-side manager of all mqueues of one accelerator.
#[derive(Clone, Debug)]
pub struct RemoteMqManager {
    qp: QueuePair,
    cfg: RmqConfig,
}

impl RemoteMqManager {
    /// Creates a manager using `qp` — the accelerator's dedicated RC queue
    /// pair (loopback for local accelerators, network RDMA for remote
    /// ones, §5.5) — with the default [`RmqConfig`].
    pub fn new(qp: QueuePair) -> RemoteMqManager {
        RemoteMqManager::with_config(qp, RmqConfig::default())
    }

    /// Creates a manager with an explicit timeout/retry policy.
    pub fn with_config(qp: QueuePair, cfg: RmqConfig) -> RemoteMqManager {
        RemoteMqManager { qp, cfg }
    }

    /// The manager's timeout/retry policy.
    pub fn config(&self) -> RmqConfig {
        self.cfg
    }

    /// RDMA statistics of the underlying QP: `(writes, reads, bytes)`.
    pub fn qp_stats(&self) -> (u64, u64, u64) {
        self.qp.stats()
    }

    /// Posts `spans` of `mq`'s region as one chain and settles each span
    /// exactly once through `settle(sim, index, outcome)`: with what it
    /// yielded once it landed, or with `None` once it gave up. Under an
    /// armed fault plan the post follows the retry rule of [`RmqConfig`];
    /// without one it is a bare post.
    fn drive<V: Verb>(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        spans: Vec<V::Span>,
        mut settle: impl FnMut(&mut Sim, usize, Option<V::Out>) + 'static,
    ) {
        if !sim.faults_enabled() {
            V::post(&self.qp, sim, &mq.mem(), spans, move |sim, results| {
                for (i, result) in results.into_iter().enumerate() {
                    settle(sim, i, result.ok());
                }
            });
            return;
        }
        let all = (0..spans.len()).collect();
        let flight = Rc::new(Flight::<V, _> {
            rmq: self.clone(),
            mem: mq.mem(),
            label: mq.label(),
            spans,
            settle: RefCell::new(settle),
        });
        flight.post(sim, all, 0);
    }

    /// Delivers a batch of requests into an mqueue's RX ring.
    ///
    /// Every item is reserved on its own: an item that hits a full ring
    /// gets its own [`Error::Backpressure`](crate::Error::Backpressure) in
    /// the returned vector (and its own drop count on the mqueue), while
    /// the items before and after it still deliver. The others get their
    /// ring sequence number.
    ///
    /// In the default coalesced mode each slot image carries header and
    /// payload together, and the ring-contiguous slots go out as one
    /// chained write with a single doorbell, so `k` messages ring the NIC
    /// once instead of `k` times. With split metadata or `write_barrier`
    /// configured, each message is a data write, an optional flushing
    /// read and a doorbell write of its own (the §5.1 GPU-consistency
    /// workaround, +5 µs/message), which a shared doorbell cannot express.
    ///
    /// Each slot's accelerator doorbell fires once its write has landed.
    /// A slot whose write gave up (counted in `rmq.giveups`) never rings
    /// it; the accelerator's doorbell gating stalls consumption at a
    /// missing slot until it lands.
    pub fn push_requests<B: Into<Payload>>(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        items: impl IntoIterator<Item = (ReturnAddr, B)>,
    ) -> Vec<crate::Result<u64>> {
        let cfg = mq.config();
        let coalesce = cfg.coalesce_metadata && !cfg.write_barrier;
        let pool = sim.buffers();
        let items = items.into_iter();
        let n = items.size_hint().0;
        let mut results = Vec::with_capacity(n);
        let mut spans: Vec<(usize, Payload)> = Vec::with_capacity(if coalesce { n } else { 0 });
        for (ret, payload) in items {
            let seq = match mq.try_reserve(ret) {
                Ok(seq) => seq,
                Err(e) => {
                    results.push(Err(e));
                    continue;
                }
            };
            results.push(Ok(seq));
            let payload = payload.into();
            let bytes = payload.len();
            sim.trace(|| TraceEvent::Enqueue {
                queue: mq.label(),
                seq,
                bytes,
            });
            if coalesce {
                // Pooled encode: the slot image is staged on the mqueue so
                // its scratch buffer returns to the pool at completion.
                let slot = Payload::from(mq.encode_slot_pooled(&pool, seq, &payload));
                mq.stage_slot(&pool, seq, slot.clone());
                spans.push((mq.rx_slot_offset(seq), slot));
            } else {
                self.push_split(sim, mq, seq, &payload);
            }
        }
        // A chain covers ascending offsets: split the run at the ring wrap.
        while let Some(k) = spans
            .windows(2)
            .position(|w| w[1].0 != w[0].0 + cfg.slot_size)
        {
            let rest = spans.split_off(k + 1);
            self.push_chain(sim, mq, std::mem::replace(&mut spans, rest));
        }
        if !spans.is_empty() {
            self.push_chain(sim, mq, spans);
        }
        results
    }

    /// Writes a chain of slot spans; each landed span rings its doorbell.
    fn push_chain(&self, sim: &mut Sim, mq: &Mqueue, spans: Vec<(usize, Payload)>) {
        let bell = mq.clone();
        self.drive::<Write>(sim, mq, spans, move |sim, _, landed| {
            if landed.is_some() {
                bell.notify_rx(sim);
            }
        });
    }

    /// Split delivery of request `seq`: payload first, an optional
    /// flushing read, then the doorbell word, each a one-span chain.
    /// Without faults the three are pipelined and RC-QP ordering keeps
    /// data before doorbell. Under faults the doorbell is posted only once
    /// the data write verifiably landed: a doorbell over an errored data
    /// write would expose garbage to the accelerator.
    fn push_split(&self, sim: &mut Sim, mq: &Mqueue, seq: u64, payload: &[u8]) {
        let offset = mq.rx_slot_offset(seq);
        let mut data = (payload.len() as u32).to_le_bytes().to_vec();
        data.extend_from_slice(&[0; 4]); // doorbell written separately
        data.extend_from_slice(payload);
        let data = vec![(offset, Payload::from(data))];
        let bell = ((seq + 1) as u32).to_le_bytes().to_vec();
        let bell = vec![(offset + 4, Payload::from(bell))];
        let barrier = mq.config().write_barrier;
        if !sim.faults_enabled() {
            self.drive::<Write>(sim, mq, data, |_, _, _| {});
            if barrier {
                self.qp.post_barrier(sim, &mq.mem(), |_| {});
            }
            self.push_chain(sim, mq, bell);
            return;
        }
        let (rmq, mq2) = (self.clone(), mq.clone());
        let mut bell = Some(bell);
        self.drive::<Write>(sim, mq, data, move |sim, _, landed| {
            // A data write that gave up never rings the doorbell.
            let (Some(()), Some(bell)) = (landed, bell.take()) else {
                return;
            };
            let (rmq2, mq3) = (rmq.clone(), mq2.clone());
            let ring = move |sim: &mut Sim| rmq2.push_chain(sim, &mq3, bell);
            if barrier {
                // The barrier is exempt from injection: it already is a
                // flushing read.
                rmq.qp.post_barrier(sim, &mq2.mem(), ring);
            } else {
                ring(sim);
            }
        });
    }

    /// Collects up to `max` ready responses from an mqueue's TX ring as
    /// one chained RDMA read with one doorbell; the slots are released in
    /// one bulk acknowledgement.
    ///
    /// Calls `collected` once with the context of every claimed slot and
    /// its response, in production order; if no response is pending,
    /// `collected` never runs. A span that gave up (counted in
    /// `rmq.giveups`) is still released, so later responses are not
    /// wedged: its context arrives with `None` in place of the payload, so
    /// the caller can settle what the request held. To a UDP client that
    /// looks like a lost reply.
    pub fn pull_responses(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        max: usize,
        collected: impl FnOnce(&mut Sim, Vec<(ReqCtx, Option<Payload>)>) + 'static,
    ) {
        let n = (mq.pending_responses() as usize).min(max);
        let mut spans = Vec::with_capacity(n);
        let mut first = None;
        for _ in 0..n {
            let (seq, _, len) = mq.begin_pull().expect("a pending response to claim");
            first.get_or_insert(seq);
            // Header and payload in one span: the length was snooped from
            // the model's shared memory (a real implementation reads the
            // whole slot or uses a two-phase read — cost-equivalent).
            spans.push((mq.tx_slot_offset(seq), SLOT_HEADER + len));
        }
        let Some(first) = first else {
            return;
        };
        // One entry per claimed slot; the contexts are filled in when the
        // slots complete.
        let mut out: Vec<(ReqCtx, Option<Payload>)> = (0..n)
            .map(|_| (ReqCtx::new(ReturnAddr::Fixed), None))
            .collect();
        let mut pending = n;
        let mut collected = Some(collected);
        let owner = mq.clone();
        self.drive::<Read>(sim, mq, spans, move |sim, i, bytes| {
            // A view past the header: no payload copy.
            out[i].1 = bytes.map(|b| b.slice_from(SLOT_HEADER));
            pending -= 1;
            if pending > 0 {
                return;
            }
            let collected = collected.take().expect("each span settles once");
            let (mut out, mq) = (std::mem::take(&mut out), owner.clone());
            when_oldest(sim, owner.clone(), first, move |sim| {
                let mut slots = out.iter_mut();
                mq.complete_n(first, n as u64, |ctx| {
                    slots.next().expect("one slot per context").0 = ctx;
                });
                for (seq, (_, payload)) in (first..).zip(&out) {
                    if let Some(payload) = payload {
                        sim.trace(|| TraceEvent::Forward {
                            queue: mq.label(),
                            seq,
                            bytes: payload.len(),
                        });
                    }
                }
                collected(sim, out);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, MqueueConfig, MqueueKind};
    use lynx_fabric::{PcieFabric, PcieLink, RdmaNic};
    use lynx_net::{HostId, SockAddr};
    use lynx_sim::{FaultAction, FaultPlan, Time, Trigger};

    fn rig(cfg: MqueueConfig) -> (Sim, RemoteMqManager, Mqueue) {
        let sim = Sim::new(0);
        let fabric = PcieFabric::new();
        let host = fabric.add_node("host");
        let nic = fabric.add_node("snic");
        let gpu = fabric.add_node("gpu");
        fabric.link(host, nic, PcieLink::gen3_x8());
        fabric.link(host, gpu, PcieLink::gen3_x16());
        let gpu_mem = MemRegion::new(gpu, 1 << 20, "gpu");
        let mq = Mqueue::new(MqueueKind::Server, gpu_mem, 0, cfg);
        let rnic = RdmaNic::new(fabric, nic, "snic-asic");
        (sim, RemoteMqManager::new(rnic.loopback_qp()), mq)
    }

    fn client(i: u32) -> ReturnAddr {
        ReturnAddr::Udp(SockAddr::new(HostId(i), 9))
    }

    /// Pushes one request (a one-item batch) and returns its sequence.
    fn push(sim: &mut Sim, rmq: &RemoteMqManager, mq: &Mqueue, ret: ReturnAddr, req: &[u8]) -> u64 {
        let mut results = rmq.push_requests(sim, mq, [(ret, req.to_vec())]);
        assert_eq!(results.len(), 1);
        results.pop().unwrap().unwrap()
    }

    /// Counts the accelerator-side doorbell notifications of `mq`.
    fn count_notifications(mq: &Mqueue) -> Rc<Cell<u32>> {
        let hits = Rc::new(Cell::new(0));
        let h = Rc::clone(&hits);
        mq.set_rx_watcher(move |_| h.set(h.get() + 1));
        hits
    }

    /// Accelerator side: pops every delivered request and answers it with
    /// `resp(i)`, the `i`th in order.
    fn serve(sim: &mut Sim, mq: &Mqueue, resp: impl Fn(u64) -> Vec<u8>) {
        while let Some((seq, _)) = mq.acc_pop_request() {
            mq.acc_push_response(sim, seq, &resp(seq));
        }
    }

    type Collected = Rc<RefCell<Vec<(ReqCtx, Option<Payload>)>>>;

    /// Pulls up to `max` responses into the returned cell.
    fn pull(sim: &mut Sim, rmq: &RemoteMqManager, mq: &Mqueue, max: usize) -> Collected {
        let got: Collected = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        rmq.pull_responses(sim, mq, max, move |_, responses| {
            assert!(g.borrow().is_empty(), "collected runs once");
            *g.borrow_mut() = responses;
        });
        got
    }

    #[test]
    fn coalesced_push_delivers_and_notifies() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        let notified = count_notifications(&mq);
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"req-1");
        sim.run();
        assert_eq!(notified.get(), 1);
        let (_, payload) = mq.acc_pop_request().unwrap();
        assert_eq!(payload, b"req-1");
        // One RDMA write total (metadata coalesced).
        assert_eq!(rmq.qp_stats().0, 1);
    }

    #[test]
    fn barrier_mode_uses_three_ops_and_is_slower() {
        let notified_at = |cfg: MqueueConfig| {
            let (mut sim, rmq, mq) = rig(cfg);
            let t = Rc::new(Cell::new(Time::ZERO));
            let t2 = Rc::clone(&t);
            mq.set_rx_watcher(move |sim| t2.set(sim.now()));
            push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"x");
            sim.run();
            (t.get(), rmq.qp_stats(), mq.acc_pop_request().unwrap().1)
        };
        let (coalesced, _, _) = notified_at(MqueueConfig::default());
        let (barrier, (w, r, _), payload) = notified_at(MqueueConfig {
            write_barrier: true,
            coalesce_metadata: false,
            ..MqueueConfig::default()
        });
        assert!(barrier > coalesced);
        // Data + doorbell writes, barrier read.
        assert_eq!((w, r), (2, 1));
        assert_eq!(payload, b"x", "payload must still be intact");
    }

    #[test]
    fn full_ring_reports_backpressure() {
        let cfg = MqueueConfig {
            slots: 1,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        let notified = count_notifications(&mq);
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"a");
        let err = rmq
            .push_requests(&mut sim, &mq, [(ReturnAddr::Fixed, b"b".to_vec())])
            .pop()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }), "{err}");
        sim.run();
        assert_eq!(mq.drops(), 1);
        assert_eq!(notified.get(), 1, "a rejected request rings nothing");
        assert_eq!(rmq.qp_stats().0, 1, "and posts nothing");
    }

    #[test]
    fn pull_roundtrip() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        push(&mut sim, &rmq, &mq, client(3), b"ping");
        sim.run();
        serve(&mut sim, &mq, |_| b"pong".to_vec());
        let got = pull(&mut sim, &rmq, &mq, 1);
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.ret, client(3));
        assert_eq!(got[0].1.as_ref().unwrap(), b"pong");
        assert_eq!(mq.in_flight(), 0);
        assert_eq!(rmq.qp_stats().1, 1, "one read");
    }

    #[test]
    fn pull_with_no_pending_response_is_noop() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        rmq.pull_responses(&mut sim, &mq, 8, |_, _| panic!("nothing to collect"));
        sim.run();
        assert_eq!(rmq.qp_stats(), (0, 0, 0));
    }

    #[test]
    fn injected_cqe_error_is_retried_transparently() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(1).rule(
            "rdma.write.gpu",
            Trigger::Nth(1),
            FaultAction::CqeError,
        ));
        let notified = count_notifications(&mq);
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"req");
        sim.run();
        assert_eq!(notified.get(), 1, "delivered once, after the retry");
        assert_eq!(mq.acc_pop_request().unwrap().1, b"req");
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.retries"), 1);
        assert_eq!(t.counter("rmq.giveups"), 0);
        assert_eq!(rmq.qp_stats().0, 2, "original + one repost");
    }

    #[test]
    fn exhausted_retries_give_up() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        // Every write to the region errors: the budget must run out.
        sim.enable_faults(FaultPlan::new(1).rule(
            "rdma.write.gpu",
            Trigger::Every {
                period: 1,
                offset: 0,
            },
            FaultAction::CqeError,
        ));
        let notified = count_notifications(&mq);
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"req");
        sim.run();
        let max = rmq.config().max_retries;
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.giveups"), 1);
        assert_eq!(t.counter("rmq.retries"), u64::from(max));
        assert_eq!(rmq.qp_stats().0, u64::from(max) + 1, "first post + reposts");
        // The doorbell never landed, so the accelerator sees nothing.
        assert_eq!(notified.get(), 0);
        assert!(mq.acc_pop_request().is_none());
    }

    #[test]
    fn pull_retries_read_errors_and_still_collects() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"ping");
        sim.run();
        serve(&mut sim, &mq, |_| b"pong".to_vec());
        // Arm faults only now: the request path above ran clean.
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(2).rule(
            "rdma.read.gpu",
            Trigger::Nth(1),
            FaultAction::CqeError,
        ));
        let got = pull(&mut sim, &rmq, &mq, 1);
        sim.run();
        assert_eq!(
            got.borrow()[0].1.as_ref().unwrap(),
            b"pong",
            "response must survive one read error"
        );
        assert_eq!(sim.telemetry().unwrap().counter("rmq.retries"), 1);
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn pull_giveup_hands_back_the_context_without_payload() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        push(&mut sim, &rmq, &mq, client(4), b"ping");
        sim.run();
        serve(&mut sim, &mq, |_| b"pong".to_vec());
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(4).rule(
            "rdma.read.gpu",
            Trigger::Every {
                period: 1,
                offset: 0,
            },
            FaultAction::CqeError,
        ));
        let got = pull(&mut sim, &rmq, &mq, 1);
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0.ret, got[0].1.clone()), (client(4), None));
        assert_eq!(sim.telemetry().unwrap().counter("rmq.giveups"), 1);
        assert_eq!(mq.in_flight(), 0, "the slot is released");
    }

    #[test]
    fn batched_push_lands_all_with_one_doorbell() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        let items: Vec<_> = (0..3u8).map(|i| (ReturnAddr::Fixed, vec![i; 4])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.is_ok()));
        sim.run();
        for i in 0..3u8 {
            assert_eq!(mq.acc_pop_request().unwrap().1, vec![i; 4]);
        }
        let t = sim.telemetry().unwrap();
        // Three chained WQEs, one doorbell ring.
        assert_eq!(t.counter("fabric.rdma.writes"), 3);
        assert_eq!(t.counter("fabric.rdma.doorbells"), 1);
    }

    #[test]
    fn batched_push_reports_tail_backpressure_only() {
        let cfg = MqueueConfig {
            slots: 2,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        let items: Vec<_> = (0..3u8).map(|i| (ReturnAddr::Fixed, vec![i])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(
            matches!(&results[2], Err(Error::Backpressure { queue }) if *queue == mq.label()),
            "{results:?}"
        );
        assert_eq!(mq.drops(), 1);
        sim.run();
        // The two reserved requests still delivered.
        assert_eq!(mq.acc_pop_request().unwrap().1, vec![0]);
        assert_eq!(mq.acc_pop_request().unwrap().1, vec![1]);
    }

    #[test]
    fn batched_push_splits_at_ring_wrap() {
        let cfg = MqueueConfig {
            slots: 4,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        sim.enable_telemetry();
        // Advance the ring so a 3-item batch wraps: occupy+complete 3 slots.
        for _ in 0..3 {
            push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"w");
        }
        sim.run();
        serve(&mut sim, &mq, |_| b"r".to_vec());
        for _ in 0..3 {
            pull(&mut sim, &rmq, &mq, 1);
            sim.run();
        }
        let before = sim.telemetry().unwrap().counter("fabric.rdma.doorbells");
        // Seqs 3,4,5 map to slots 3,0,1: one wrap, hence two chained verbs.
        let items: Vec<_> = (0..3u8).map(|i| (ReturnAddr::Fixed, vec![i])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert!(results.iter().all(|r| r.is_ok()));
        sim.run();
        let after = sim.telemetry().unwrap().counter("fabric.rdma.doorbells");
        assert_eq!(after - before, 2, "wrap splits the chain");
        for i in 0..3u8 {
            assert_eq!(mq.acc_pop_request().unwrap().1, vec![i]);
        }
    }

    #[test]
    fn batched_push_noncoalesced_degrades_to_per_message() {
        let cfg = MqueueConfig {
            coalesce_metadata: false,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        let items: Vec<_> = (0..2u8).map(|i| (ReturnAddr::Fixed, vec![i])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert!(results.iter().all(|r| r.is_ok()));
        sim.run();
        // Split mode: data + doorbell writes per message.
        assert_eq!(rmq.qp_stats().0, 4);
        assert_eq!(mq.acc_pop_request().unwrap().1, vec![0]);
        assert_eq!(mq.acc_pop_request().unwrap().1, vec![1]);
    }

    #[test]
    fn batched_pull_collects_in_order_with_one_doorbell() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        for i in 0..3 {
            push(&mut sim, &rmq, &mq, client(i), b"ping");
        }
        sim.run();
        serve(&mut sim, &mq, |seq| format!("pong{seq}").into_bytes());
        let before = sim.telemetry().unwrap().counter("fabric.rdma.doorbells");
        let got = pull(&mut sim, &rmq, &mq, 8);
        sim.run();
        let after = sim.telemetry().unwrap().counter("fabric.rdma.doorbells");
        assert_eq!(after - before, 1, "one chained read for the whole batch");
        let got = got.borrow();
        assert_eq!(got.len(), 3);
        for (i, (ctx, payload)) in got.iter().enumerate() {
            assert_eq!(ctx.ret, client(i as u32));
            assert_eq!(payload.as_ref().unwrap(), format!("pong{i}").as_bytes());
        }
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn batched_pull_respects_max() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        for _ in 0..3 {
            push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"p");
        }
        sim.run();
        serve(&mut sim, &mq, |_| b"r".to_vec());
        let got = pull(&mut sim, &rmq, &mq, 2);
        sim.run();
        assert_eq!(got.borrow().len(), 2);
        assert_eq!(mq.pending_responses(), 1);
    }

    #[test]
    fn batched_push_fault_retries_only_struck_span() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        // Strike the middle WQE of the chain; spans 1 and 3 sail through.
        sim.enable_faults(FaultPlan::new(7).rule(
            "rdma.write.gpu",
            Trigger::Nth(2),
            FaultAction::CqeError,
        ));
        let notified = count_notifications(&mq);
        let items: Vec<_> = (0..3u8).map(|i| (ReturnAddr::Fixed, vec![i])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert!(results.iter().all(|r| r.is_ok()));
        sim.run();
        // All three land (the struck span via its solo repost), in order.
        for i in 0..3u8 {
            assert_eq!(mq.acc_pop_request().unwrap().1, vec![i]);
        }
        assert_eq!(notified.get(), 3, "one doorbell per slot");
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.retries"), 1);
        assert_eq!(t.counter("rmq.giveups"), 0);
        assert_eq!(rmq.qp_stats().0, 4, "the chain + one solo repost");
    }

    #[test]
    fn chain_span_struck_on_every_attempt_gets_max_retries_reposts() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        // The chain's WQEs are hits 1-3 of the site and the middle span's
        // reposts hits 4 onwards. The two zero-delay rules absorb hits 1
        // and 3 (a fired rule ends the site's evaluation); the last rule
        // strikes everything else: the middle span on every attempt.
        sim.enable_faults(
            FaultPlan::new(7)
                .rule(
                    "rdma.write.gpu",
                    Trigger::Nth(1),
                    FaultAction::Delay(Duration::ZERO),
                )
                .rule(
                    "rdma.write.gpu",
                    Trigger::Nth(2),
                    FaultAction::Delay(Duration::ZERO),
                )
                .rule(
                    "rdma.write.gpu",
                    Trigger::Every {
                        period: 1,
                        offset: 0,
                    },
                    FaultAction::CqeError,
                ),
        );
        let notified = count_notifications(&mq);
        let items: Vec<_> = (0..3u8).map(|i| (ReturnAddr::Fixed, vec![i])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert!(results.iter().all(|r| r.is_ok()));
        sim.run();
        let max = u64::from(rmq.config().max_retries);
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.retries"), max);
        assert_eq!(t.counter("rmq.giveups"), 1);
        assert_eq!(t.counter("fabric.rdma.cqe_errors"), max + 1);
        assert_eq!(rmq.qp_stats().0, 3 + max, "the chain + max_retries reposts");
        // The first slot delivers; consumption stalls at the lost one.
        assert_eq!(notified.get(), 2);
        assert_eq!(mq.acc_pop_request().unwrap().1, vec![0]);
        assert!(mq.acc_pop_request().is_none());
    }

    #[test]
    fn stalled_chained_read_is_reposted_by_its_watchdog() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        for _ in 0..2 {
            push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"p");
        }
        sim.run();
        serve(&mut sim, &mq, |seq| vec![seq as u8 + 10; 16]);
        sim.enable_telemetry();
        // The chain stalls past the watchdog; its late completion must
        // not deliver the contexts a second time.
        let stall = rmq.config().verb_timeout * 3;
        sim.enable_faults(FaultPlan::new(5).rule(
            "rdma.read.gpu",
            Trigger::Nth(1),
            FaultAction::Delay(stall),
        ));
        let got = pull(&mut sim, &rmq, &mq, 8);
        sim.run();
        let t = sim.telemetry().unwrap();
        assert!(t.counter("rmq.timeouts") >= 1);
        assert_eq!(t.counter("rmq.retries"), 2, "both spans reposted alone");
        assert_eq!(t.counter("rmq.giveups"), 0);
        let got = got.borrow();
        assert_eq!(got.len(), 2, "each context handed back once");
        for (i, (_, payload)) in got.iter().enumerate() {
            assert_eq!(payload.as_ref().unwrap(), &vec![i as u8 + 10; 16]);
        }
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn stalled_push_notifies_exactly_once() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        sim.enable_telemetry();
        let stall = rmq.config().verb_timeout * 3;
        sim.enable_faults(FaultPlan::new(5).rule(
            "rdma.write.gpu",
            Trigger::Nth(1),
            FaultAction::Delay(stall),
        ));
        let notified = count_notifications(&mq);
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"late");
        sim.run();
        assert_eq!(sim.telemetry().unwrap().counter("rmq.timeouts"), 1);
        assert_eq!(notified.get(), 1, "the late original rings nothing");
        assert_eq!(mq.acc_pop_request().unwrap().1, b"late");
        assert_eq!(rmq.qp_stats().0, 2);
    }

    #[test]
    fn batched_pull_survives_span_fault() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        for _ in 0..3 {
            push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"p");
        }
        sim.run();
        serve(&mut sim, &mq, |seq| vec![seq as u8]);
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(9).rule(
            "rdma.read.gpu",
            Trigger::Nth(2),
            FaultAction::CqeError,
        ));
        let got = pull(&mut sim, &rmq, &mq, 8);
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 3, "struck span recovered via retry");
        for (i, (_, payload)) in got.iter().enumerate() {
            assert_eq!(payload.as_ref().unwrap(), &[i as u8]);
        }
        assert_eq!(sim.telemetry().unwrap().counter("rmq.retries"), 1);
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn split_mode_survives_data_write_error() {
        let cfg = MqueueConfig {
            coalesce_metadata: false,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        sim.enable_faults(FaultPlan::new(3).rule(
            "rdma.write.gpu",
            Trigger::Nth(1),
            FaultAction::CqeError,
        ));
        let notified = count_notifications(&mq);
        push(&mut sim, &rmq, &mq, ReturnAddr::Fixed, b"split");
        sim.run();
        assert_eq!(notified.get(), 1);
        // Doorbell landed only after the (retried) data write: payload
        // visible and intact.
        assert_eq!(mq.acc_pop_request().unwrap().1, b"split");
        assert_eq!(rmq.qp_stats().0, 3, "data, its repost, doorbell");
    }
}
