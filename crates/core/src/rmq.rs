//! The Remote Message Queue Manager (§4.2).
//!
//! Runs on the SmartNIC and accesses mqueues in accelerator memory with
//! one-sided RDMA — "a key to maintaining the mqueues in accelerator
//! memory". One RC QP per accelerator carries all of that accelerator's
//! mqueues (§5.1), keeping the SNIC fully accelerator-agnostic: it never
//! runs an accelerator driver.
//!
//! # Recovery
//!
//! When a fault plan is armed (see `lynx_sim::faults`), every verb the
//! manager posts is guarded by a watchdog: a verb that completes in error
//! (injected CQE) or fails to complete within [`RmqConfig::verb_timeout`]
//! is reposted with bounded exponential backoff, up to
//! [`RmqConfig::max_retries`] times. Retried verbs are idempotent — they
//! rewrite the same bytes at the same offset — so a late original landing
//! after its watchdog fired is harmless. Exhausting the budget surfaces
//! [`Error::Transport`] to the caller. Without a fault plan the watchdog is
//! never armed and the data path is bit-identical to the pre-recovery
//! implementation.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx_fabric::QueuePair;
use lynx_sim::{Payload, Sim, TraceEvent};

use crate::mqueue::SLOT_HEADER;
use crate::{Error, Mqueue, ReqCtx, ReturnAddr};

/// Timeout/retry policy for the manager's RDMA verbs.
///
/// Only consulted when a fault plan is armed on the simulation; on the
/// fault-free fast path no watchdog timers are scheduled at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmqConfig {
    /// How long to wait for a verb's completion before reposting it.
    pub verb_timeout: Duration,
    /// Maximum repost attempts after the initial one.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
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

/// One posting attempt: runs the verb, reporting `Ok(value)` on success or
/// `Err(())` on an error CQE. Invoked once per attempt by [`with_retry`].
type PostFn<T> = dyn Fn(&mut Sim, Box<dyn FnOnce(&mut Sim, Result<T, ()>)>);

/// Completion continuation handed to [`with_retry`].
type DoneFn<T> = Box<dyn FnOnce(&mut Sim, crate::Result<T>)>;

/// The self-reposting attempt closure of [`with_retry`] (argument: attempt
/// index) and the holder it re-invokes itself through on retry.
type AttemptFn = Rc<dyn Fn(&mut Sim, u32)>;
type AttemptHolder = Rc<RefCell<Option<AttemptFn>>>;

/// One collected slot: the request's context and the response payload,
/// `None` when the transport gave up on reading it.
type Response = (ReqCtx, Option<Payload>);

/// Delivery continuation of a batched [`RemoteMqManager::pull_responses`].
type CollectFn = dyn FnOnce(&mut Sim, Vec<Response>);

/// Drives `post` to completion under a per-attempt watchdog with bounded
/// exponential backoff, then calls `done` exactly once with the final
/// outcome. Counts `rmq.timeouts` / `rmq.retries` / `rmq.giveups` and
/// emits `RmqRetry` / `RmqGiveUp` trace events along the way.
fn with_retry<T: 'static>(
    cfg: RmqConfig,
    sim: &mut Sim,
    queue: String,
    post: Rc<PostFn<T>>,
    done: DoneFn<T>,
) {
    let done: Rc<RefCell<Option<DoneFn<T>>>> = Rc::new(RefCell::new(Some(done)));
    // The attempt closure re-invokes itself (via this holder) on retry; the
    // holder is cleared once the delivery settles, breaking the Rc cycle.
    let holder: AttemptHolder = Rc::new(RefCell::new(None));
    let attempt: AttemptFn = {
        let holder = Rc::clone(&holder);
        let done = Rc::clone(&done);
        Rc::new(move |sim: &mut Sim, n: u32| {
            // Each attempt settles exactly once: either its completion
            // callback or its watchdog, whichever comes first. A late
            // completion of an attempt whose watchdog already fired is
            // ignored (the repost rewrote the same bytes — idempotent).
            let settled = Rc::new(Cell::new(false));
            let retry = {
                let holder = Rc::clone(&holder);
                let done = Rc::clone(&done);
                let queue = queue.clone();
                move |sim: &mut Sim| {
                    if n < cfg.max_retries {
                        let next = n + 1;
                        sim.count("rmq.retries", 1);
                        let q = queue.clone();
                        sim.trace(|| TraceEvent::RmqRetry {
                            queue: q,
                            attempt: next,
                        });
                        let holder2 = Rc::clone(&holder);
                        sim.schedule_in(cfg.backoff_delay(n), move |sim| {
                            let again = holder2
                                .borrow()
                                .clone()
                                .expect("retry scheduled after delivery settled");
                            again(sim, next);
                        });
                    } else {
                        let attempts = n + 1;
                        sim.count("rmq.giveups", 1);
                        let q = queue.clone();
                        sim.trace(|| TraceEvent::RmqGiveUp { queue: q, attempts });
                        holder.borrow_mut().take();
                        if let Some(d) = done.borrow_mut().take() {
                            d(
                                sim,
                                Err(Error::Transport {
                                    queue: queue.clone(),
                                    attempts,
                                }),
                            );
                        }
                    }
                }
            };
            let on_timeout = retry.clone();
            let s1 = Rc::clone(&settled);
            let done_ok = Rc::clone(&done);
            let holder_ok = Rc::clone(&holder);
            post(
                sim,
                Box::new(move |sim, result| {
                    if s1.replace(true) {
                        return;
                    }
                    match result {
                        Ok(v) => {
                            holder_ok.borrow_mut().take();
                            if let Some(d) = done_ok.borrow_mut().take() {
                                d(sim, Ok(v));
                            }
                        }
                        Err(()) => retry(sim),
                    }
                }),
            );
            let s2 = settled;
            sim.schedule_in(cfg.verb_timeout, move |sim| {
                if s2.replace(true) {
                    return;
                }
                sim.count("rmq.timeouts", 1);
                on_timeout(sim);
            });
        })
    };
    *holder.borrow_mut() = Some(Rc::clone(&attempt));
    attempt(sim, 0);
}

/// Continuation of [`complete_in_order`]: receives the released slot's
/// request context.
type DeliverFn = Box<dyn FnOnce(&mut Sim, ReqCtx)>;

/// Releases response slot `seq` as soon as it becomes the oldest
/// outstanding one, then runs `deliver` with the slot's context. Retried
/// RDMA reads can land out of posting order, but [`Mqueue::complete`]
/// requires in-order release; this shim restores the order by polling
/// deterministically.
fn complete_in_order(sim: &mut Sim, mq: Mqueue, seq: u64, deliver: DeliverFn) {
    if mq.collected() == seq {
        let ctx = mq.complete(seq);
        deliver(sim, ctx);
    } else {
        sim.schedule_in(Duration::from_nanos(500), move |sim| {
            complete_in_order(sim, mq, seq, deliver);
        });
    }
}

/// SmartNIC-side manager of all mqueues of one accelerator.
pub struct RemoteMqManager {
    qp: QueuePair,
    cfg: RmqConfig,
}

impl fmt::Debug for RemoteMqManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteMqManager")
            .field("qp", &self.qp)
            .field("cfg", &self.cfg)
            .finish()
    }
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

    /// Delivers a request into an mqueue's RX ring.
    ///
    /// In the default (coalesced) mode this is a single RDMA write carrying
    /// header and payload together. With `write_barrier` configured the
    /// data write, a flushing RDMA read, and the doorbell write are issued
    /// separately — the §5.1 GPU-consistency workaround (+5 µs/message).
    ///
    /// Returns the reserved ring sequence number, or
    /// [`Error::Backpressure`] when the ring is full (the drop is counted
    /// on the mqueue's own sink; `delivered` is *not* called in that case).
    /// After a successful reservation, `delivered` runs exactly once: with
    /// `Ok(())` once the doorbell has landed and the accelerator has been
    /// notified, or — only possible when a fault plan is armed — with
    /// [`Error::Transport`] after the retry budget is exhausted.
    pub fn push_request(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        ret: ReturnAddr,
        payload: &[u8],
        delivered: impl FnOnce(&mut Sim, crate::Result<()>) + 'static,
    ) -> crate::Result<u64> {
        let seq = mq.try_reserve(ret)?;
        let bytes = payload.len();
        let mq_evt = mq.clone();
        sim.trace(|| TraceEvent::Enqueue {
            queue: mq_evt.label(),
            seq,
            bytes,
        });
        let offset = mq.rx_slot_offset(seq);
        let mem = mq.mem();
        let cfg = mq.config();
        let mq2 = mq.clone();
        if !sim.faults_enabled() {
            // Fault-free fast path: identical verb sequence (and timing) to
            // the pre-recovery implementation; no watchdogs are armed.
            if cfg.coalesce_metadata && !cfg.write_barrier {
                // Pooled encode: the slot image is staged on the mqueue so
                // its scratch buffer returns to the pool at completion (or
                // at scale-in drain) instead of being dropped.
                let pool = sim.buffers();
                let slot = Payload::from(mq.encode_slot_pooled(&pool, seq, payload));
                mq.stage_slot(&pool, seq, slot.clone());
                self.qp.post_write(sim, slot, &mem, offset, move |sim| {
                    mq2.notify_rx(sim);
                    delivered(sim, Ok(()));
                });
            } else {
                // Split delivery: payload first, optional flushing read,
                // then the doorbell word. RC-QP ordering keeps data before
                // doorbell.
                let mut data = ((payload.len() as u32).to_le_bytes()).to_vec();
                data.extend_from_slice(&[0; 4]); // doorbell written separately
                data.extend_from_slice(payload);
                self.qp.post_write(sim, data, &mem, offset, |_| {});
                if cfg.write_barrier {
                    self.qp.post_barrier(sim, &mem, |_| {});
                }
                let bell = ((seq + 1) as u32).to_le_bytes().to_vec();
                self.qp.post_write(sim, bell, &mem, offset + 4, move |sim| {
                    mq2.notify_rx(sim);
                    delivered(sim, Ok(()));
                });
            }
            return Ok(seq);
        }
        // Fault-aware delivery: every write is watchdog-guarded and retried.
        let rmq_cfg = self.cfg;
        let label = mq.label();
        let delivered: DoneFn<()> = Box::new(delivered);
        if cfg.coalesce_metadata && !cfg.write_barrier {
            // Bytes: each retry attempt reposts the same shared buffer
            // (an `Rc` bump), instead of deep-copying the slot image.
            let pool = sim.buffers();
            let slot = Payload::from(mq.encode_slot_pooled(&pool, seq, payload));
            mq.stage_slot(&pool, seq, slot.clone());
            let qp = self.qp.clone();
            let post: Rc<PostFn<()>> = Rc::new(move |sim, cb| {
                qp.post_write_checked(sim, slot.clone(), &mem, offset, move |sim, r| {
                    cb(sim, r.map_err(|_| ()));
                });
            });
            with_retry(
                rmq_cfg,
                sim,
                label,
                post,
                Box::new(move |sim, r| match r {
                    Ok(()) => {
                        mq2.notify_rx(sim);
                        delivered(sim, Ok(()));
                    }
                    Err(e) => delivered(sim, Err(e)),
                }),
            );
        } else {
            // Split delivery under faults is a *sequential checked chain*:
            // the doorbell is only posted once the data write has verifiably
            // landed (a doorbell over an errored data write would expose
            // garbage to the accelerator). Slower than the pipelined
            // fault-free path — the price of end-to-end acknowledgement.
            let mut data = ((payload.len() as u32).to_le_bytes()).to_vec();
            data.extend_from_slice(&[0; 4]);
            data.extend_from_slice(payload);
            let data = Payload::from(data);
            let bell = Payload::from(((seq + 1) as u32).to_le_bytes().to_vec());
            let write_barrier = cfg.write_barrier;
            let qp_bell = self.qp.clone();
            let mem_bell = mem.clone();
            let label_bell = label.clone();
            let push_bell = move |sim: &mut Sim, finish: DoneFn<()>| {
                let post: Rc<PostFn<()>> = Rc::new(move |sim, cb| {
                    qp_bell.post_write_checked(
                        sim,
                        bell.clone(),
                        &mem_bell,
                        offset + 4,
                        move |sim, r| cb(sim, r.map_err(|_| ())),
                    );
                });
                with_retry(rmq_cfg, sim, label_bell.clone(), post, finish);
            };
            let qp_data = self.qp.clone();
            let mem_data = mem.clone();
            let post: Rc<PostFn<()>> = Rc::new(move |sim, cb| {
                qp_data.post_write_checked(sim, data.clone(), &mem_data, offset, move |sim, r| {
                    cb(sim, r.map_err(|_| ()));
                });
            });
            let qp_barrier = self.qp.clone();
            with_retry(
                rmq_cfg,
                sim,
                label,
                post,
                Box::new(move |sim, r| match r {
                    Err(e) => delivered(sim, Err(e)),
                    Ok(()) => {
                        let finish: DoneFn<()> = Box::new(move |sim, r| match r {
                            Ok(()) => {
                                mq2.notify_rx(sim);
                                delivered(sim, Ok(()));
                            }
                            Err(e) => delivered(sim, Err(e)),
                        });
                        if write_barrier {
                            // The barrier itself is exempt from injection
                            // (it is already a flushing read).
                            qp_barrier.post_barrier(sim, &mem, move |sim| {
                                push_bell(sim, finish);
                            });
                        } else {
                            push_bell(sim, finish);
                        }
                    }
                }),
            );
        }
        Ok(seq)
    }

    /// Delivers a batch of requests into an mqueue's RX ring with
    /// coalesced RDMA: ring-contiguous slots are written as one chained
    /// verb with a single doorbell ([`QueuePair::post_write_vectored`]),
    /// so a batch of `k` messages rings the NIC once instead of `k` times.
    ///
    /// Every item is reserved individually: items that hit a full ring get
    /// their own [`Error::Backpressure`] in the returned vector (and their
    /// own drop count on the mqueue), while the items before and after
    /// them still deliver — a partial batch failure never aborts the rest
    /// of the batch. The vectored path requires the default coalesced
    /// metadata mode; with `write_barrier` or split metadata configured the
    /// batch degrades to the per-message [`RemoteMqManager::push_request`]
    /// chain (those modes order verbs per message, which a shared doorbell
    /// cannot express).
    ///
    /// Under an armed fault plan each slot write in the chain is its own
    /// fault site, evaluated in batch order — `Trigger::Nth` counts the
    /// same verbs it would count unbatched. A struck span is re-driven
    /// alone through the watchdog/retry machinery with a fresh budget
    /// (counted in `rmq.retries` / `rmq.giveups` like any retry); the
    /// remaining spans of the batch are unaffected. The accelerator's
    /// doorbell gating handles late-landing retried slots: consumption
    /// stalls at the missing slot and resumes once it lands.
    pub fn push_requests<B: Into<Payload>>(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        items: Vec<(ReturnAddr, B)>,
    ) -> Vec<crate::Result<u64>> {
        let items: Vec<(ReturnAddr, Payload)> =
            items.into_iter().map(|(ret, p)| (ret, p.into())).collect();
        let cfg = mq.config();
        if !cfg.coalesce_metadata || cfg.write_barrier {
            return items
                .into_iter()
                .map(|(ret, payload)| self.push_request(sim, mq, ret, &payload, |_, _| {}))
                .collect();
        }
        let mut results = Vec::with_capacity(items.len());
        let mut reserved: Vec<(u64, Payload)> = Vec::new();
        for (ret, payload) in items {
            match mq.try_reserve(ret) {
                Ok(seq) => {
                    let bytes = payload.len();
                    let mq_evt = mq.clone();
                    sim.trace(|| TraceEvent::Enqueue {
                        queue: mq_evt.label(),
                        seq,
                        bytes,
                    });
                    results.push(Ok(seq));
                    reserved.push((seq, payload));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        if reserved.is_empty() {
            return results;
        }
        let slot_size = cfg.slot_size;
        let mem = mq.mem();
        // Split the reserved run at ring-wrap boundaries: a chained verb
        // covers ascending offsets only.
        let mut runs: Vec<Vec<(u64, usize, Payload)>> = Vec::new();
        let mut prev_offset: Option<usize> = None;
        for (seq, payload) in reserved {
            let offset = mq.rx_slot_offset(seq);
            let contiguous = prev_offset.is_some_and(|p| offset == p + slot_size);
            if !contiguous {
                runs.push(Vec::new());
            }
            prev_offset = Some(offset);
            runs.last_mut().unwrap().push((seq, offset, payload));
        }
        let faults = sim.faults_enabled();
        let pool = sim.buffers();
        for run in runs {
            let spans: Vec<(usize, Payload)> = run
                .iter()
                .map(|(seq, offset, payload)| {
                    let slot = Payload::from(mq.encode_slot_pooled(&pool, *seq, payload));
                    mq.stage_slot(&pool, *seq, slot.clone());
                    (*offset, slot)
                })
                .collect();
            let mq2 = mq.clone();
            if !faults {
                self.qp
                    .post_write_vectored(sim, spans, &mem, move |sim, outcomes| {
                        for _ in outcomes {
                            mq2.notify_rx(sim);
                        }
                    });
                continue;
            }
            let rmq_cfg = self.cfg;
            let label = mq.label();
            let qp = self.qp.clone();
            let mem2 = mem.clone();
            let retry_spans = spans.clone();
            self.qp
                .post_write_vectored(sim, spans, &mem, move |sim, outcomes| {
                    for (i, outcome) in outcomes.into_iter().enumerate() {
                        match outcome {
                            Ok(()) => mq2.notify_rx(sim),
                            Err(_) => {
                                // Re-drive only the struck span, alone, under
                                // the standard watchdog with a fresh budget.
                                sim.count("rmq.retries", 1);
                                let q = label.clone();
                                sim.trace(|| TraceEvent::RmqRetry {
                                    queue: q,
                                    attempt: 1,
                                });
                                let (offset, slot) = retry_spans[i].clone();
                                let qp2 = qp.clone();
                                let mem3 = mem2.clone();
                                let post: Rc<PostFn<()>> = Rc::new(move |sim, cb| {
                                    qp2.post_write_checked(
                                        sim,
                                        slot.clone(),
                                        &mem3,
                                        offset,
                                        move |sim, r| cb(sim, r.map_err(|_| ())),
                                    );
                                });
                                let mq3 = mq2.clone();
                                with_retry(
                                    rmq_cfg,
                                    sim,
                                    label.clone(),
                                    post,
                                    Box::new(move |sim, r| {
                                        if r.is_ok() {
                                            mq3.notify_rx(sim);
                                        }
                                        // A giveup leaves the doorbell
                                        // unrung; rmq.giveups was counted.
                                    }),
                                );
                            }
                        }
                    }
                });
        }
        results
    }

    /// Collects up to `max` ready responses from an mqueue's TX ring as
    /// one batched RDMA operation: every claimed slot becomes a span of a
    /// single chained read with one doorbell, and the slots are released
    /// in one bulk acknowledgement.
    ///
    /// Calls `collected` once with the context of every claimed slot and
    /// its response (in production order); if no response is pending,
    /// `collected` never runs. Under an armed fault plan each span is its
    /// own fault site: struck spans are re-driven individually through
    /// the retry machinery while the rest of the batch proceeds, slots
    /// are released strictly in order, and a span whose retry budget is
    /// exhausted (counted in `rmq.giveups`) is released without wedging
    /// later responses — its context arrives with `None` in place of the
    /// payload, so the caller can settle what the request held.
    pub fn pull_responses(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        max: usize,
        collected: impl FnOnce(&mut Sim, Vec<(ReqCtx, Option<Payload>)>) + 'static,
    ) {
        let mut claims = Vec::new();
        while claims.len() < max {
            let Some((seq, _, len)) = mq.begin_pull() else {
                break;
            };
            claims.push((seq, len));
        }
        if claims.is_empty() {
            return;
        }
        let spans: Vec<(usize, usize)> = claims
            .iter()
            .map(|(seq, len)| (mq.tx_slot_offset(*seq), SLOT_HEADER + len))
            .collect();
        let mem = mq.mem();
        let mq2 = mq.clone();
        if !sim.faults_enabled() {
            let first_seq = claims[0].0;
            self.qp
                .post_read_vectored(sim, &mem, spans, move |sim, outcomes| {
                    let ctxs = mq2.complete_n(first_seq, outcomes.len() as u64);
                    let mut out = Vec::with_capacity(outcomes.len());
                    for (((seq, _), bytes), ctx) in claims.into_iter().zip(outcomes).zip(ctxs) {
                        let bytes = bytes.expect("fault-free read cannot error");
                        // A view past the header — no payload copy.
                        let payload = bytes.slice_from(SLOT_HEADER);
                        let mq_evt = mq2.clone();
                        let bytes_out = payload.len();
                        sim.trace(|| TraceEvent::Forward {
                            queue: mq_evt.label(),
                            seq,
                            bytes: bytes_out,
                        });
                        out.push((ctx, Some(payload)));
                    }
                    collected(sim, out);
                });
            return;
        }
        // Fault-aware collection: the batch read goes out as one chained
        // verb, then each span settles independently (possibly through
        // retries). Results are assembled in order and delivered together
        // once every span has either landed or given up.
        let k = claims.len();
        let slots: Rc<RefCell<Vec<Option<Response>>>> =
            Rc::new(RefCell::new((0..k).map(|_| None).collect()));
        let remaining = Rc::new(Cell::new(k));
        let collected: Rc<RefCell<Option<Box<CollectFn>>>> =
            Rc::new(RefCell::new(Some(Box::new(collected))));
        let rmq_cfg = self.cfg;
        let label = mq.label();
        let qp = self.qp.clone();
        let mem2 = mem.clone();
        let retry_spans = spans.clone();
        self.qp
            .post_read_vectored(sim, &mem, spans, move |sim, outcomes| {
                for (i, outcome) in outcomes.into_iter().enumerate() {
                    let (seq, _) = claims[i];
                    let settle = {
                        let slots = Rc::clone(&slots);
                        let remaining = Rc::clone(&remaining);
                        let collected = Rc::clone(&collected);
                        let mq_evt = mq2.clone();
                        move |sim: &mut Sim, ctx: ReqCtx, bytes: Option<Payload>| {
                            let payload = bytes.map(|bytes| {
                                let payload = bytes.slice_from(SLOT_HEADER);
                                let bytes_out = payload.len();
                                let q = mq_evt.label();
                                sim.trace(|| TraceEvent::Forward {
                                    queue: q,
                                    seq,
                                    bytes: bytes_out,
                                });
                                payload
                            });
                            slots.borrow_mut()[i] = Some((ctx, payload));
                            remaining.set(remaining.get() - 1);
                            if remaining.get() == 0 {
                                let out = slots.borrow_mut().drain(..).flatten().collect();
                                if let Some(c) = collected.borrow_mut().take() {
                                    c(sim, out);
                                }
                            }
                        }
                    };
                    let mq3 = mq2.clone();
                    match outcome {
                        Ok(bytes) => {
                            complete_in_order(
                                sim,
                                mq3,
                                seq,
                                Box::new(move |sim, ctx| settle(sim, ctx, Some(bytes))),
                            );
                        }
                        Err(_) => {
                            sim.count("rmq.retries", 1);
                            let q = label.clone();
                            sim.trace(|| TraceEvent::RmqRetry {
                                queue: q,
                                attempt: 1,
                            });
                            let (offset, len) = retry_spans[i];
                            let qp2 = qp.clone();
                            let mem3 = mem2.clone();
                            let post: Rc<PostFn<Payload>> = Rc::new(move |sim, cb| {
                                qp2.post_read_checked(sim, &mem3, offset, len, move |sim, r| {
                                    cb(sim, r.map_err(|_| ()));
                                });
                            });
                            with_retry(
                                rmq_cfg,
                                sim,
                                label.clone(),
                                post,
                                Box::new(move |sim, r| {
                                    complete_in_order(
                                        sim,
                                        mq3,
                                        seq,
                                        Box::new(move |sim, ctx| settle(sim, ctx, r.ok())),
                                    );
                                }),
                            );
                        }
                    }
                }
            });
    }

    /// Collects the next ready response from an mqueue's TX ring: an RDMA
    /// read of the slot, after which the slot is released.
    ///
    /// Calls `collected` with the request's context and the response
    /// payload. Does nothing if no response is pending. Under an armed
    /// fault plan the read is watchdog-guarded and retried; if the retry
    /// budget is exhausted the slot is still released (so later responses
    /// are not wedged) but the response is discarded — counted in
    /// `rmq.giveups` — and `collected` receives `None` in place of the
    /// payload, which to a UDP client looks like a lost reply.
    pub fn pull_response(
        &self,
        sim: &mut Sim,
        mq: &Mqueue,
        collected: impl FnOnce(&mut Sim, ReqCtx, Option<Payload>) + 'static,
    ) {
        let Some((seq, _, len)) = mq.begin_pull() else {
            return;
        };
        let offset = mq.tx_slot_offset(seq);
        let mem = mq.mem();
        let mq2 = mq.clone();
        if !sim.faults_enabled() {
            // Read header + payload in one go (the header length was already
            // snooped from the model's shared memory; a real implementation
            // reads the whole slot or uses a two-phase read —
            // cost-equivalent).
            self.qp
                .post_read(sim, &mem, offset, SLOT_HEADER + len, move |sim, bytes| {
                    let ctx = mq2.complete(seq);
                    let payload = bytes.slice_from(SLOT_HEADER);
                    let mq_evt = mq2.clone();
                    let bytes_out = payload.len();
                    sim.trace(|| TraceEvent::Forward {
                        queue: mq_evt.label(),
                        seq,
                        bytes: bytes_out,
                    });
                    collected(sim, ctx, Some(payload));
                });
            return;
        }
        let qp = self.qp.clone();
        let label = mq.label();
        let post: Rc<PostFn<Payload>> = Rc::new(move |sim, cb| {
            qp.post_read_checked(sim, &mem, offset, SLOT_HEADER + len, move |sim, r| {
                cb(sim, r.map_err(|_| ()));
            });
        });
        with_retry(
            self.cfg,
            sim,
            label,
            post,
            Box::new(move |sim, result| {
                let deliver: DeliverFn = match result {
                    Ok(bytes) => {
                        let mq_evt = mq2.clone();
                        Box::new(move |sim: &mut Sim, ctx| {
                            let payload = bytes.slice_from(SLOT_HEADER);
                            let bytes_out = payload.len();
                            sim.trace(|| TraceEvent::Forward {
                                queue: mq_evt.label(),
                                seq,
                                bytes: bytes_out,
                            });
                            collected(sim, ctx, Some(payload));
                        })
                    }
                    // Discarded: rmq.giveups was counted by the retry
                    // driver; the context still goes back to the caller.
                    Err(_) => Box::new(move |sim: &mut Sim, ctx| collected(sim, ctx, None)),
                };
                complete_in_order(sim, mq2.clone(), seq, deliver);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MqueueConfig, MqueueKind};
    use lynx_fabric::{MemRegion, PcieFabric, PcieLink, RdmaNic};
    use lynx_sim::{FaultAction, FaultPlan, Time, Trigger};
    use std::cell::Cell;
    use std::rc::Rc;

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

    #[test]
    fn coalesced_push_delivers_and_notifies() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        let notified = Rc::new(Cell::new(false));
        let n = Rc::clone(&notified);
        mq.set_rx_watcher(move |_| n.set(true));
        let ok = Rc::new(Cell::new(false));
        let o = Rc::clone(&ok);
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"req-1", move |_, d| {
            o.set(d.is_ok());
        })
        .unwrap();
        sim.run();
        assert!(ok.get() && notified.get());
        let (_, payload) = mq.acc_pop_request().unwrap();
        assert_eq!(payload, b"req-1");
        // One RDMA write total (metadata coalesced).
        assert_eq!(rmq.qp_stats().0, 1);
    }

    #[test]
    fn barrier_mode_uses_three_ops_and_is_slower() {
        let coalesced_done = {
            let (mut sim, rmq, mq) = rig(MqueueConfig::default());
            let t = Rc::new(Cell::new(Time::ZERO));
            let t2 = Rc::clone(&t);
            rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"x", move |sim, _| {
                t2.set(sim.now());
            })
            .unwrap();
            sim.run();
            t.get()
        };
        let cfg = MqueueConfig {
            write_barrier: true,
            coalesce_metadata: false,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        let t = Rc::new(Cell::new(Time::ZERO));
        let t2 = Rc::clone(&t);
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"x", move |sim, _| {
            t2.set(sim.now());
        })
        .unwrap();
        sim.run();
        assert!(t.get() > coalesced_done);
        let (w, r, _) = rmq.qp_stats();
        assert_eq!((w, r), (2, 1)); // data + doorbell writes, barrier read
                                    // Payload must still be intact.
        assert_eq!(mq.acc_pop_request().unwrap().1, b"x");
    }

    #[test]
    fn full_ring_reports_backpressure() {
        let cfg = MqueueConfig {
            slots: 1,
            ..MqueueConfig::default()
        };
        let (mut sim, rmq, mq) = rig(cfg);
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"a", |_, d| {
            assert!(d.is_ok())
        })
        .unwrap();
        let err = rmq
            .push_request(&mut sim, &mq, ReturnAddr::Fixed, b"b", |_, _| {
                panic!("delivered must not run for a rejected request")
            })
            .unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }), "{err}");
        sim.run();
        assert_eq!(mq.drops(), 1);
    }

    #[test]
    fn pull_response_roundtrip() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        let client = ReturnAddr::Udp(lynx_net::SockAddr::new(lynx_net::HostId(3), 9));
        rmq.push_request(&mut sim, &mq, client, b"ping", |_, _| {})
            .unwrap();
        sim.run();
        let (seq, _) = mq.acc_pop_request().unwrap();
        mq.acc_push_response(&mut sim, seq, b"pong");
        let got = Rc::new(Cell::new(false));
        let g = Rc::clone(&got);
        rmq.pull_response(&mut sim, &mq, move |_, ctx, payload| {
            assert_eq!(ctx.ret, client);
            assert_eq!(payload.unwrap(), b"pong");
            g.set(true);
        });
        sim.run();
        assert!(got.get());
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn pull_with_no_pending_response_is_noop() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        rmq.pull_response(&mut sim, &mq, |_, _, _| panic!("nothing to collect"));
        sim.run();
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
        let ok = Rc::new(Cell::new(false));
        let o = Rc::clone(&ok);
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"req", move |_, d| {
            o.set(d.is_ok());
        })
        .unwrap();
        sim.run();
        assert!(ok.get(), "delivery must succeed after retry");
        assert_eq!(mq.acc_pop_request().unwrap().1, b"req");
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.retries"), 1);
        assert_eq!(t.counter("rmq.giveups"), 0);
        assert_eq!(rmq.qp_stats().0, 2, "original + one repost");
    }

    #[test]
    fn exhausted_retries_surface_transport_error() {
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
        let outcome = Rc::new(RefCell::new(None));
        let o = Rc::clone(&outcome);
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"req", move |_, d| {
            *o.borrow_mut() = Some(d);
        })
        .unwrap();
        sim.run();
        let result = outcome.borrow_mut().take().expect("delivered must run");
        match result {
            Err(Error::Transport { queue, attempts }) => {
                assert_eq!(queue, mq.label());
                assert_eq!(attempts, rmq.config().max_retries + 1);
            }
            other => panic!("expected transport error, got {other:?}"),
        }
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.giveups"), 1);
        assert_eq!(
            t.counter("rmq.retries"),
            u64::from(rmq.config().max_retries)
        );
        // The doorbell never landed, so the accelerator sees nothing.
        assert!(mq.acc_pop_request().is_none());
    }

    #[test]
    fn pull_retries_read_errors_and_still_collects() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"ping", |_, _| {})
            .unwrap();
        sim.run();
        let (seq, _) = mq.acc_pop_request().unwrap();
        mq.acc_push_response(&mut sim, seq, b"pong");
        // Arm faults only now: the request path above ran clean.
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(2).rule(
            "rdma.read.gpu",
            Trigger::Nth(1),
            FaultAction::CqeError,
        ));
        let got = Rc::new(Cell::new(false));
        let g = Rc::clone(&got);
        rmq.pull_response(&mut sim, &mq, move |_, _, payload| {
            assert_eq!(payload.unwrap(), b"pong");
            g.set(true);
        });
        sim.run();
        assert!(got.get(), "response must survive one read error");
        assert_eq!(sim.telemetry().unwrap().counter("rmq.retries"), 1);
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn pull_giveup_hands_back_the_context_without_payload() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        let client = ReturnAddr::Udp(lynx_net::SockAddr::new(lynx_net::HostId(4), 9));
        rmq.push_request(&mut sim, &mq, client, b"ping", |_, _| {})
            .unwrap();
        sim.run();
        let (seq, _) = mq.acc_pop_request().unwrap();
        mq.acc_push_response(&mut sim, seq, b"pong");
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(4).rule(
            "rdma.read.gpu",
            Trigger::Every {
                period: 1,
                offset: 0,
            },
            FaultAction::CqeError,
        ));
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        rmq.pull_response(&mut sim, &mq, move |_, ctx, payload| {
            *g.borrow_mut() = Some((ctx.ret, payload));
        });
        sim.run();
        assert_eq!(*got.borrow(), Some((client, None)), "context, no payload");
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
            rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"w", |_, _| {})
                .unwrap();
        }
        sim.run();
        for _ in 0..3 {
            let (seq, _) = mq.acc_pop_request().unwrap();
            mq.acc_push_response(&mut sim, seq, b"r");
        }
        for _ in 0..3 {
            rmq.pull_response(&mut sim, &mq, |_, _, _| {});
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
        let clients: Vec<_> = (0..3)
            .map(|i| ReturnAddr::Udp(lynx_net::SockAddr::new(lynx_net::HostId(i), 9)))
            .collect();
        for c in &clients {
            rmq.push_request(&mut sim, &mq, *c, b"ping", |_, _| {})
                .unwrap();
        }
        sim.run();
        for _ in 0..3 {
            let (seq, _) = mq.acc_pop_request().unwrap();
            mq.acc_push_response(&mut sim, seq, format!("pong{seq}").as_bytes());
        }
        let before = sim.telemetry().unwrap().counter("fabric.rdma.doorbells");
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        rmq.pull_responses(&mut sim, &mq, 8, move |_, responses| {
            *g.borrow_mut() = responses;
        });
        sim.run();
        let after = sim.telemetry().unwrap().counter("fabric.rdma.doorbells");
        assert_eq!(after - before, 1, "one chained read for the whole batch");
        let got = got.borrow();
        assert_eq!(got.len(), 3);
        for (i, (ctx, payload)) in got.iter().enumerate() {
            assert_eq!(ctx.ret, clients[i]);
            assert_eq!(payload.as_ref().unwrap(), format!("pong{i}").as_bytes());
        }
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn batched_pull_respects_max() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        for _ in 0..3 {
            rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"p", |_, _| {})
                .unwrap();
        }
        sim.run();
        for _ in 0..3 {
            let (seq, _) = mq.acc_pop_request().unwrap();
            mq.acc_push_response(&mut sim, seq, b"r");
        }
        let n = Rc::new(Cell::new(0usize));
        let n2 = Rc::clone(&n);
        rmq.pull_responses(&mut sim, &mq, 2, move |_, responses| {
            n2.set(responses.len());
        });
        sim.run();
        assert_eq!(n.get(), 2);
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
        let items: Vec<_> = (0..3u8).map(|i| (ReturnAddr::Fixed, vec![i])).collect();
        let results = rmq.push_requests(&mut sim, &mq, items);
        assert!(results.iter().all(|r| r.is_ok()));
        sim.run();
        // All three land (the struck span via its solo retry), in order.
        for i in 0..3u8 {
            assert_eq!(mq.acc_pop_request().unwrap().1, vec![i]);
        }
        let t = sim.telemetry().unwrap();
        assert_eq!(t.counter("rmq.retries"), 1);
        assert_eq!(t.counter("rmq.giveups"), 0);
    }

    #[test]
    fn batched_pull_survives_span_fault() {
        let (mut sim, rmq, mq) = rig(MqueueConfig::default());
        for _ in 0..3 {
            rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"p", |_, _| {})
                .unwrap();
        }
        sim.run();
        for i in 0..3u8 {
            let (seq, _) = mq.acc_pop_request().unwrap();
            mq.acc_push_response(&mut sim, seq, &[i]);
        }
        sim.enable_telemetry();
        sim.enable_faults(FaultPlan::new(9).rule(
            "rdma.read.gpu",
            Trigger::Nth(2),
            FaultAction::CqeError,
        ));
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        rmq.pull_responses(&mut sim, &mq, 8, move |_, responses| {
            *g.borrow_mut() = responses;
        });
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
        let ok = Rc::new(Cell::new(false));
        let o = Rc::clone(&ok);
        rmq.push_request(&mut sim, &mq, ReturnAddr::Fixed, b"split", move |_, d| {
            o.set(d.is_ok());
        })
        .unwrap();
        sim.run();
        assert!(ok.get());
        // Doorbell landed only after the (retried) data write: payload
        // visible and intact.
        assert_eq!(mq.acc_pop_request().unwrap().1, b"split");
    }
}
