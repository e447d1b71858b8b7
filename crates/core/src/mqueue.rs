//! Message queues — the accelerator I/O abstraction of Lynx (§4.2–§4.3).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use lynx_fabric::MemRegion;
use lynx_net::{ConnId, SockAddr};
use lynx_sim::{BufferPool, Payload, Sim, SiteCounter, SiteGauge, Telemetry, Time, TraceEvent};

use crate::cache::CacheTicket;
use crate::tenancy::FnId;
use crate::Error;

/// Per-slot header: message length (u32) + sequence/doorbell (u32).
///
/// The paper appends 4 bytes of metadata (size, error status, notification
/// register) to each message so that a single RDMA write delivers payload
/// and doorbell together; we use 8 for alignment with an explicit sequence
/// number that doubles as the doorbell.
pub const SLOT_HEADER: usize = 8;

/// Where a response to a request must be sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReturnAddr {
    /// Reply with a UDP datagram to the originating client.
    Udp(SockAddr),
    /// Reply on the TCP connection the request arrived on.
    Tcp(ConnId),
    /// No reply routing (client mqueues have a fixed destination).
    Fixed,
}

/// The SNIC's bookkeeping for one in-flight request, kept beside its
/// server-mqueue slot (§4.3) and handed back when the slot is collected
/// ([`RemoteMqManager::pull_responses`](crate::RemoteMqManager::pull_responses)).
///
/// Every per-request fact the forward path needs lives here, so it pairs
/// with its response by construction: the mqueue completes slots in
/// order and pops exactly one context per slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReqCtx {
    /// Where the response goes.
    pub ret: ReturnAddr,
    /// When the request was dispatched into the mqueue. `None` until the
    /// server attaches it after a successful push, and again once the
    /// context has been released without a response (queue quarantine).
    pub dispatched_at: Option<Time>,
    /// What the response owes the SNIC cache, if anything.
    pub ticket: Option<CacheTicket>,
    /// The tenant function holding an in-flight slot for this request.
    pub func: Option<FnId>,
}

impl ReqCtx {
    /// A bare context: return address only.
    pub fn new(ret: ReturnAddr) -> ReqCtx {
        ReqCtx {
            ret,
            dispatched_at: None,
            ticket: None,
            func: None,
        }
    }
}

/// One occupied server-mqueue slot: the request's context plus the
/// SNIC-side staging of its encoded slot image, whose buffer returns to
/// the scratch pool when the slot completes (or the queue is drained at
/// scale-in), so steady-state encoding reuses scratch.
#[derive(Debug)]
struct Slot {
    ctx: ReqCtx,
    image: Option<Payload>,
}

/// Kind of mqueue (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MqueueKind {
    /// Connection-less RPC endpoint bound to a server port. Multiple client
    /// connections multiplex onto one server mqueue; each response returns
    /// to the client its request came from.
    Server,
    /// Fixed-destination queue for calling a backend service (destination
    /// assigned at initialization; favors simplicity over dynamic
    /// connection establishment).
    Client,
}

/// Configuration of one mqueue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MqueueConfig {
    /// Ring depth (requests that may be in flight on this mqueue).
    pub slots: usize,
    /// Bytes per slot including the [`SLOT_HEADER`].
    pub slot_size: usize,
    /// Deliver metadata and payload in one RDMA write (§5.1 optimization).
    /// When disabled, the doorbell is a separate (ordered) RDMA write.
    pub coalesce_metadata: bool,
    /// Issue an RDMA-read write barrier between data and doorbell — the GPU
    /// memory-consistency workaround (§5.1, +5 µs/message, forces
    /// `coalesce_metadata` off).
    pub write_barrier: bool,
}

impl Default for MqueueConfig {
    fn default() -> Self {
        MqueueConfig {
            slots: 64,
            slot_size: 2048,
            coalesce_metadata: true,
            write_barrier: false,
        }
    }
}

impl MqueueConfig {
    /// Bytes of accelerator memory one mqueue occupies (RX + TX rings).
    pub fn required_bytes(&self) -> usize {
        2 * self.slots * self.slot_size
    }

    /// Maximum payload bytes per message.
    pub fn max_payload(&self) -> usize {
        self.slot_size - SLOT_HEADER
    }

    /// Validates the configuration, reporting the first problem found
    /// (delegates to the [`Validate`](crate::Validate) impl).
    pub fn check(&self) -> crate::Result<()> {
        crate::Validate::validate(self)
    }
}

impl crate::Validate for MqueueConfig {
    fn validate(&self) -> crate::Result<()> {
        use crate::validate::invalid;
        if self.slots == 0 {
            return Err(invalid("mqueue.slots", "mqueue needs at least one slot"));
        }
        if self.slot_size <= SLOT_HEADER {
            return Err(invalid(
                "mqueue.slot_size",
                format!(
                    "slot_size {} must exceed the {SLOT_HEADER}-byte header",
                    self.slot_size
                ),
            ));
        }
        Ok(())
    }
}

type Watcher = Rc<RefCell<dyn FnMut(&mut Sim)>>;

/// Current queue depth (same definition as [`Mqueue::in_flight`]) from an
/// already-borrowed `Inner`.
fn depth_of(inner: &Inner) -> usize {
    match inner.kind {
        MqueueKind::Server => (inner.rx_pushed - inner.tx_popped) as usize,
        MqueueKind::Client => inner.tx_pushed.saturating_sub(inner.rx_pushed) as usize,
    }
}

struct Inner {
    kind: MqueueKind,
    cfg: MqueueConfig,
    mem: MemRegion,
    /// Stable identity used in telemetry: region name + base offset.
    label: String,
    rx_base: usize,
    tx_base: usize,
    /// Requests pushed by the SNIC (producer count).
    rx_pushed: u64,
    /// Requests consumed by the accelerator.
    rx_popped: u64,
    /// Responses produced by the accelerator.
    tx_pushed: u64,
    /// Responses collected by the SNIC.
    tx_popped: u64,
    /// Responses whose RDMA read is in flight (pull cursor ≥ `tx_popped`).
    tx_pulled: u64,
    /// In-flight slots of a server mqueue, oldest first (index 0 is
    /// sequence `tx_popped`).
    inflight: VecDeque<Slot>,
    rx_watcher: Option<Watcher>,
    tx_watcher: Option<Watcher>,
    /// Counter sink this queue reports drops into. Starts as a private
    /// registry; [`Mqueue::bind_stats`] rebinds it (e.g. to the server's
    /// sink) so queue counters and server stats share one source of truth.
    stats: Telemetry,
    /// Interned handle for `mqueue.<label>.drops` in `stats`; reset when
    /// [`Mqueue::bind_stats`] swaps the sink.
    drops_site: SiteCounter,
    /// Interned handles for `mqueue.<label>.responses` / `.depth` in the
    /// simulation's telemetry sink.
    responses_site: SiteCounter,
    depth_site: SiteGauge,
    /// Scratch pool the staged slot images came from and return to.
    pool: Option<BufferPool>,
}

/// One message queue residing in accelerator memory.
///
/// The rings and doorbells are real bytes in the accelerator's
/// [`MemRegion`]; the SmartNIC reaches them via RDMA
/// ([`crate::RemoteMqManager`]) while the accelerator accesses them as
/// plain local memory. This struct additionally holds the SNIC-side
/// bookkeeping (one [`ReqCtx`] per in-flight slot, flow-control counters)
/// that the real system keeps in SNIC DRAM.
///
/// Flow control: a request occupies its RX slot until its response has been
/// collected from the matching TX slot, so at most `slots` requests are in
/// flight; [`Mqueue::try_reserve`] fails (and counts a drop) beyond that.
pub struct Mqueue {
    inner: Rc<RefCell<Inner>>,
}

impl Clone for Mqueue {
    fn clone(&self) -> Self {
        Mqueue {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for Mqueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Mqueue")
            .field("kind", &inner.kind)
            .field("slots", &inner.cfg.slots)
            .field("in_flight", &inner.inflight.len())
            .field("rx_pushed", &inner.rx_pushed)
            .field("tx_popped", &inner.tx_popped)
            .finish()
    }
}

impl Mqueue {
    /// Carves an mqueue out of accelerator memory at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the region is too small.
    /// Use [`Mqueue::try_new`] for a non-panicking variant.
    pub fn new(kind: MqueueKind, mem: MemRegion, base: usize, cfg: MqueueConfig) -> Mqueue {
        match Mqueue::try_new(kind, mem, base, cfg) {
            Ok(mq) => mq,
            Err(e) => panic!("{e}"),
        }
    }

    /// Carves an mqueue out of accelerator memory at `base`, reporting
    /// configuration problems instead of panicking.
    pub fn try_new(
        kind: MqueueKind,
        mem: MemRegion,
        base: usize,
        cfg: MqueueConfig,
    ) -> crate::Result<Mqueue> {
        cfg.check()?;
        if base + cfg.required_bytes() > mem.len() {
            return Err(Error::Config(format!(
                "mqueue needs {} bytes at offset {base} but region '{}' holds {}",
                cfg.required_bytes(),
                mem.name(),
                mem.len()
            )));
        }
        let ring = cfg.slots * cfg.slot_size;
        let label = format!("{}+{base:#x}", mem.name());
        Ok(Mqueue {
            inner: Rc::new(RefCell::new(Inner {
                kind,
                cfg,
                mem,
                label,
                rx_base: base,
                tx_base: base + ring,
                rx_pushed: 0,
                rx_popped: 0,
                tx_pushed: 0,
                tx_popped: 0,
                tx_pulled: 0,
                inflight: VecDeque::new(),
                rx_watcher: None,
                tx_watcher: None,
                stats: Telemetry::new(),
                drops_site: SiteCounter::new(),
                responses_site: SiteCounter::new(),
                depth_site: SiteGauge::new(),
                pool: None,
            })),
        })
    }

    /// The queue's kind.
    pub fn kind(&self) -> MqueueKind {
        self.inner.borrow().kind
    }

    /// The queue's configuration.
    pub fn config(&self) -> MqueueConfig {
        self.inner.borrow().cfg
    }

    /// The accelerator memory region holding the rings.
    pub fn mem(&self) -> MemRegion {
        self.inner.borrow().mem.clone()
    }

    /// Stable identity of this queue in telemetry traces and counter
    /// names: `<region name>+<base offset>` (e.g. `"server-0/gpu0+0x0"`).
    pub fn label(&self) -> String {
        self.inner.borrow().label.clone()
    }

    /// Whether `self` and `other` are handles to the same queue.
    pub(crate) fn same(&self, other: &Mqueue) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Requests currently in flight.
    ///
    /// For a server mqueue: requests pushed whose responses have not yet
    /// been collected. For a client mqueue: backend calls sent by the
    /// accelerator whose responses have not yet arrived.
    pub fn in_flight(&self) -> usize {
        depth_of(&self.inner.borrow())
    }

    /// Requests rejected because the ring was full, read from the queue's
    /// counter sink (counter `mqueue.<label>.drops`).
    pub fn drops(&self) -> u64 {
        let inner = self.inner.borrow();
        inner
            .stats
            .counter(&format!("mqueue.{}.drops", inner.label))
    }

    /// Total requests pushed so far.
    pub fn pushed(&self) -> u64 {
        self.inner.borrow().rx_pushed
    }

    /// Total responses the accelerator has produced on this queue — the
    /// progress signal the SNIC health monitor watches.
    pub fn responses(&self) -> u64 {
        self.inner.borrow().tx_pushed
    }

    /// Total responses already collected (completed) by the SNIC — the
    /// sequence number the next [`Mqueue::complete_n`] must start at.
    pub fn collected(&self) -> u64 {
        self.inner.borrow().tx_popped
    }

    /// Rebinds the queue's counter sink (e.g. to the owning server's
    /// telemetry registry), migrating counts recorded so far so readings
    /// like [`Mqueue::drops`] never lose history.
    pub fn bind_stats(&self, sink: &Telemetry) {
        let mut inner = self.inner.borrow_mut();
        let name = format!("mqueue.{}.drops", inner.label);
        let prior = inner.stats.counter(&name);
        if prior > 0 {
            sink.count(&name, prior);
        }
        inner.stats = sink.clone();
        // The cached counter id indexes the *old* sink's registry.
        inner.drops_site.reset();
    }

    // --- SNIC (producer/collector) side -----------------------------------

    /// Reserves the next RX slot for a request, recording where its
    /// response must go. Returns the slot's byte offset in the region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Backpressure`] — and counts a drop — when `slots`
    /// requests are already in flight.
    ///
    /// Transport-internal: exposed for integration tests and benchmarks
    /// that drive the wire format by hand.
    #[doc(hidden)]
    pub fn try_reserve(&self, ret: ReturnAddr) -> crate::Result<u64> {
        let mut inner = self.inner.borrow_mut();
        let occupied = match inner.kind {
            // A server RX slot stays occupied until its response leaves.
            MqueueKind::Server => inner.rx_pushed - inner.tx_popped,
            // A client RX slot holds a backend response until consumed.
            MqueueKind::Client => inner.rx_pushed - inner.rx_popped,
        };
        if occupied as usize >= inner.cfg.slots {
            let label = &inner.label;
            inner
                .drops_site
                .add_with(&inner.stats, || format!("mqueue.{label}.drops"), 1);
            return Err(Error::Backpressure {
                queue: inner.label.clone(),
            });
        }
        let seq = inner.rx_pushed;
        inner.rx_pushed += 1;
        if inner.kind == MqueueKind::Server {
            inner.inflight.push_back(Slot {
                ctx: ReqCtx::new(ret),
                image: None,
            });
        }
        Ok(seq)
    }

    /// The in-flight server slot `seq`, if it is still outstanding.
    fn slot_mut(inner: &mut Inner, seq: u64) -> Option<&mut Slot> {
        let idx = seq.checked_sub(inner.tx_popped)?;
        inner.inflight.get_mut(idx as usize)
    }

    /// Attaches the server's bookkeeping to the context of in-flight
    /// request `seq` (the sequence a push returned as `Ok`). A request
    /// rejected by backpressure never gets a slot, so its lease and
    /// tenant slot stay with the caller.
    pub(crate) fn attach(
        &self,
        seq: u64,
        dispatched_at: Time,
        ticket: Option<CacheTicket>,
        func: Option<FnId>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let slot = Self::slot_mut(&mut inner, seq).expect("attach to an in-flight slot");
        slot.ctx.dispatched_at = Some(dispatched_at);
        slot.ctx.ticket = ticket;
        slot.ctx.func = func;
    }

    /// Visits the context of every in-flight slot, oldest first (e.g. to
    /// release what a quarantined queue's requests hold).
    pub(crate) fn for_each_in_flight(&self, mut f: impl FnMut(&mut ReqCtx)) {
        for slot in self.inner.borrow_mut().inflight.iter_mut() {
            f(&mut slot.ctx);
        }
    }

    /// Byte offset of RX slot `seq` within the region (transport-internal).
    #[doc(hidden)]
    pub fn rx_slot_offset(&self, seq: u64) -> usize {
        let inner = self.inner.borrow();
        inner.rx_base + (seq as usize % inner.cfg.slots) * inner.cfg.slot_size
    }

    /// Byte offset of TX slot `seq` within the region (transport-internal).
    #[doc(hidden)]
    pub fn tx_slot_offset(&self, seq: u64) -> usize {
        let inner = self.inner.borrow();
        inner.tx_base + (seq as usize % inner.cfg.slots) * inner.cfg.slot_size
    }

    /// Encodes a slot image (header + payload) for RDMA delivery.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MqueueConfig::max_payload`].
    #[doc(hidden)]
    pub fn encode_slot(&self, seq: u64, payload: &[u8]) -> Vec<u8> {
        self.fill_slot(
            Vec::with_capacity(SLOT_HEADER + payload.len()),
            seq,
            payload,
        )
    }

    /// Like [`Mqueue::encode_slot`] but draws the scratch buffer from
    /// `pool`, so steady-state encoding stops allocating. Pair with
    /// [`Mqueue::stage_slot`] so the buffer finds its way back to the pool
    /// once the matching response completes.
    #[doc(hidden)]
    pub fn encode_slot_pooled(&self, pool: &BufferPool, seq: u64, payload: &[u8]) -> Vec<u8> {
        self.fill_slot(pool.take(SLOT_HEADER + payload.len()), seq, payload)
    }

    fn fill_slot(&self, mut slot: Vec<u8>, seq: u64, payload: &[u8]) -> Vec<u8> {
        let cfg = self.inner.borrow().cfg;
        assert!(
            payload.len() <= cfg.max_payload(),
            "payload of {} bytes exceeds slot capacity {}",
            payload.len(),
            cfg.max_payload()
        );
        slot.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        // Doorbell value: seq + 1 (0 means empty). Written last on the
        // wire: Mellanox NICs DMA from lower to higher addresses (§5.1),
        // but we place it first in memory and rely on the single-write
        // atomicity of the model; ordering correctness is exercised by the
        // non-coalesced mode instead.
        slot.extend_from_slice(&((seq + 1) as u32).to_le_bytes());
        slot.extend_from_slice(payload);
        slot
    }

    /// Stages the SNIC-side copy of in-flight request `seq`'s encoded
    /// slot image in its slot. When the matching response completes (or
    /// the queue is [`Mqueue::drain`]ed at scale-in) the image's buffer
    /// is recycled into `pool` rather than dropped. Server queues only;
    /// on other kinds the image is simply dropped.
    pub(crate) fn stage_slot(&self, pool: &BufferPool, seq: u64, image: Payload) {
        let mut inner = self.inner.borrow_mut();
        if inner.kind != MqueueKind::Server {
            return;
        }
        if inner.pool.is_none() {
            inner.pool = Some(pool.clone());
        }
        if let Some(slot) = Self::slot_mut(&mut inner, seq) {
            slot.image = Some(image);
        }
    }

    /// Pops the oldest in-flight slot, recycling its staged image, and
    /// returns its context (a bare [`ReturnAddr::Fixed`] one on client
    /// queues, which keep no per-slot state).
    fn pop_slot(inner: &mut Inner) -> ReqCtx {
        if inner.kind != MqueueKind::Server {
            return ReqCtx::new(ReturnAddr::Fixed);
        }
        let slot = inner
            .inflight
            .pop_front()
            .expect("completed slot without a request");
        // The completed request's staged slot image goes back to the
        // scratch pool (a shared image degrades to a copy — never
        // aliasing).
        if let (Some(img), Some(pool)) = (slot.image, &inner.pool) {
            pool.recycle(img.into_vec());
        }
        slot.ctx
    }

    /// Deregisters a quiesced mqueue at scale-in. Every slot has
    /// completed, so every staged slot image is already back in the
    /// scratch [`BufferPool`]; the pool's idle depth is published as the
    /// `buffer_pool.idle` gauge so tests can assert that repeated
    /// scale-in/out cycles do not grow the pool watermark. The ring
    /// cursors are left intact: a later scale-out resumes the queue where
    /// it stopped.
    ///
    /// # Panics
    ///
    /// Panics if requests are still in flight — the control plane must
    /// park (quiesce) the queue and let in-flight slots flush first.
    pub fn drain(&self, sim: &mut Sim) {
        let pool = {
            let inner = self.inner.borrow();
            assert_eq!(
                depth_of(&inner),
                0,
                "drain of a non-quiesced mqueue '{}' (park + flush first)",
                inner.label
            );
            inner.pool.clone().unwrap_or_else(|| sim.buffers())
        };
        sim.gauge("buffer_pool.idle", pool.idle() as f64);
    }

    /// Fires the accelerator-side RX doorbell notification.
    pub(crate) fn notify_rx(&self, sim: &mut Sim) {
        // Drop the inner borrow before invoking the watcher: the watcher
        // is accelerator code and may immediately pop the request.
        let watcher = {
            let inner = self.inner.borrow();
            if let Some(t) = sim.telemetry() {
                let label = &inner.label;
                inner.depth_site.set_with(
                    t,
                    || format!("mqueue.{label}.depth"),
                    depth_of(&inner) as f64,
                );
            }
            inner.rx_watcher.clone()
        };
        if let Some(w) = watcher {
            (w.borrow_mut())(sim);
        }
    }

    /// Claims the next response for collection, advancing the pull cursor:
    /// returns `(seq, return address, payload length)`. Consecutive calls
    /// claim consecutive responses, so overlapping RDMA reads never
    /// collect the same slot. The payload bytes must then be fetched (RDMA
    /// read) from [`Mqueue::tx_slot_offset`] and the slot released with
    /// [`Mqueue::complete_n`] once the read lands.
    #[doc(hidden)]
    pub fn begin_pull(&self) -> Option<(u64, ReturnAddr, usize)> {
        let mut inner = self.inner.borrow_mut();
        if inner.tx_pulled >= inner.tx_pushed {
            return None;
        }
        let seq = inner.tx_pulled;
        inner.tx_pulled += 1;
        let off = inner.tx_base + (seq as usize % inner.cfg.slots) * inner.cfg.slot_size;
        let len = inner.mem.read_u32(off) as usize;
        let ret = match inner.kind {
            MqueueKind::Server => {
                let idx = (seq - inner.tx_popped) as usize;
                inner
                    .inflight
                    .get(idx)
                    .expect("response without matching request")
                    .ctx
                    .ret
            }
            MqueueKind::Client => ReturnAddr::Fixed,
        };
        Some((seq, ret, len))
    }

    /// Releases `n` consecutive claimed responses starting at `first_seq`,
    /// freeing their RX credits in one bulk acknowledgement, and hands
    /// each request's context to `each`, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `first_seq` is not the oldest outstanding response, or if
    /// fewer than `n` responses have been claimed with
    /// [`Mqueue::begin_pull`].
    #[doc(hidden)]
    pub fn complete_n(&self, first_seq: u64, n: u64, mut each: impl FnMut(ReqCtx)) {
        {
            let mut inner = self.inner.borrow_mut();
            assert_eq!(first_seq, inner.tx_popped, "responses complete in order");
            assert!(
                first_seq + n <= inner.tx_pulled,
                "completing responses that were never claimed"
            );
            inner.tx_popped += n;
        }
        for _ in 0..n {
            let ctx = Self::pop_slot(&mut self.inner.borrow_mut());
            each(ctx);
        }
    }

    /// Responses produced by the accelerator but not yet claimed for
    /// collection by the SNIC — what a batched forwarder pass can take.
    pub fn pending_responses(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.tx_pushed - inner.tx_pulled
    }

    // --- Accelerator side --------------------------------------------------

    /// Pops the next pending request (local-memory access on the
    /// accelerator): returns `(seq, payload)`.
    pub fn acc_pop_request(&self) -> Option<(u64, Payload)> {
        let mut inner = self.inner.borrow_mut();
        if inner.rx_popped >= inner.rx_pushed {
            return None;
        }
        let seq = inner.rx_popped;
        let off = inner.rx_base + (seq as usize % inner.cfg.slots) * inner.cfg.slot_size;
        // Check the doorbell: the RDMA write may not have landed yet.
        let bell = inner.mem.read_u32(off + 4);
        if bell as u64 != seq + 1 {
            return None;
        }
        let len = inner.mem.read_u32(off) as usize;
        let payload = Payload::from(inner.mem.read(off + SLOT_HEADER, len));
        inner.rx_popped += 1;
        Some((seq, payload))
    }

    /// Releases the RX credit of a consumed request *without* producing a
    /// response — receive-only operation, as in the Innova prototype's
    /// custom rings (§5.2: the paper's FPGA port "does not yet support the
    /// send path").
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest outstanding request.
    pub fn release_request(&self, seq: u64) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(seq, inner.tx_popped, "requests release in order");
        assert!(seq < inner.rx_pushed, "release of a request never pushed");
        inner.tx_pushed = inner.tx_pushed.max(seq + 1);
        inner.tx_pulled = inner.tx_pulled.max(seq + 1);
        inner.tx_popped += 1;
        Self::pop_slot(&mut inner);
    }

    /// Sends a message on the TX ring using the next sequence number —
    /// the accelerator-side `send` of the I/O shim. Returns the sequence
    /// used.
    pub(crate) fn acc_send(&self, sim: &mut Sim, payload: &[u8]) -> u64 {
        let seq = self.inner.borrow().tx_pushed;
        self.acc_push_response(sim, seq, payload);
        seq
    }

    /// Writes a response into TX slot `seq` and rings the TX doorbell
    /// (local-memory stores on the accelerator).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the slot capacity, or if `seq` is out
    /// of order (a worker produces responses in request order).
    pub fn acc_push_response(&self, sim: &mut Sim, seq: u64, payload: &[u8]) {
        {
            let mut inner = self.inner.borrow_mut();
            assert_eq!(seq, inner.tx_pushed, "responses must be produced in order");
            assert!(
                payload.len() <= inner.cfg.max_payload(),
                "response exceeds slot capacity"
            );
            let off = inner.tx_base + (seq as usize % inner.cfg.slots) * inner.cfg.slot_size;
            let mem = inner.mem.clone();
            mem.write_u32(off, payload.len() as u32);
            mem.write_u32(off + 4, (seq + 1) as u32);
            mem.write(off + SLOT_HEADER, payload);
            inner.tx_pushed += 1;
        }
        let w = {
            let inner = self.inner.borrow();
            if let Some(t) = sim.telemetry() {
                let label = &inner.label;
                inner
                    .responses_site
                    .add_with(t, || format!("mqueue.{label}.responses"), 1);
                inner.depth_site.set_with(
                    t,
                    || format!("mqueue.{label}.depth"),
                    depth_of(&inner) as f64,
                );
                if inner.kind == MqueueKind::Server {
                    t.record(
                        sim.now(),
                        TraceEvent::AccelComplete {
                            queue: inner.label.clone(),
                            seq,
                            bytes: payload.len(),
                        },
                    );
                }
            }
            inner.tx_watcher.clone()
        };
        if let Some(w) = w {
            (w.borrow_mut())(sim);
        }
    }

    // --- Watchers -----------------------------------------------------------

    /// Registers the accelerator-side request watcher (persistent kernel
    /// poll loop).
    pub fn set_rx_watcher(&self, f: impl FnMut(&mut Sim) + 'static) {
        self.inner.borrow_mut().rx_watcher = Some(Rc::new(RefCell::new(f)));
    }

    /// Registers the SNIC-side response watcher (Message Forwarder poll).
    pub(crate) fn set_tx_watcher(&self, f: impl FnMut(&mut Sim) + 'static) {
        self.inner.borrow_mut().tx_watcher = Some(Rc::new(RefCell::new(f)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynx_fabric::NodeId;

    fn mq(kind: MqueueKind, slots: usize) -> Mqueue {
        let cfg = MqueueConfig {
            slots,
            slot_size: 256,
            ..MqueueConfig::default()
        };
        let mem = MemRegion::new(NodeId::host(), cfg.required_bytes(), "mq-test");
        Mqueue::new(kind, mem, 0, cfg)
    }

    /// Simulates the RDMA landing of an encoded slot.
    fn land(q: &Mqueue, seq: u64, payload: &[u8]) {
        let slot = q.encode_slot(seq, payload);
        q.mem().write(q.rx_slot_offset(seq), &slot);
    }

    #[test]
    fn request_roundtrip_preserves_payload() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        let client = ReturnAddr::Udp(SockAddr::new(lynx_net::HostId(9), 1234));
        let seq = q.try_reserve(client).unwrap();
        land(&q, seq, b"face-image-bytes");
        let (s2, payload) = q.acc_pop_request().unwrap();
        assert_eq!(s2, seq);
        assert_eq!(payload, b"face-image-bytes");
        q.acc_push_response(&mut sim, seq, b"match");
        let (s3, ret, len) = q.begin_pull().unwrap();
        assert_eq!((s3, ret, len), (seq, client, 5));
        let bytes = q.mem().read(q.tx_slot_offset(seq) + SLOT_HEADER, len);
        assert_eq!(bytes, b"match");
        q.complete_n(seq, 1, drop);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn doorbell_gates_consumption() {
        let q = mq(MqueueKind::Server, 4);
        let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
        // Data written without the doorbell (e.g. non-coalesced mode,
        // doorbell write still in flight): must not be consumable.
        q.mem().write_u32(q.rx_slot_offset(seq), 4);
        q.mem()
            .write(q.rx_slot_offset(seq) + SLOT_HEADER, &[1, 2, 3, 4]);
        assert!(q.acc_pop_request().is_none());
        // Doorbell lands: now visible.
        q.mem()
            .write_u32(q.rx_slot_offset(seq) + 4, (seq + 1) as u32);
        assert!(q.acc_pop_request().is_some());
    }

    #[test]
    fn ring_full_counts_drop() {
        let q = mq(MqueueKind::Server, 2);
        assert!(q.try_reserve(ReturnAddr::Fixed).is_ok());
        assert!(q.try_reserve(ReturnAddr::Fixed).is_ok());
        assert!(q.try_reserve(ReturnAddr::Fixed).is_err());
        assert_eq!(q.drops(), 1);
        assert_eq!(q.in_flight(), 2);
    }

    #[test]
    fn slot_is_reusable_after_completion() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 1);
        for round in 0..5u64 {
            let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
            assert_eq!(seq, round);
            land(&q, seq, &[round as u8]);
            let (_, p) = q.acc_pop_request().unwrap();
            assert_eq!(p, vec![round as u8]);
            q.acc_push_response(&mut sim, seq, &[round as u8 + 100]);
            let (s, _, _) = q.begin_pull().unwrap();
            q.complete_n(s, 1, drop);
        }
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn responses_route_to_their_clients_in_order() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 8);
        let c1 = ReturnAddr::Udp(SockAddr::new(lynx_net::HostId(1), 1));
        let c2 = ReturnAddr::Udp(SockAddr::new(lynx_net::HostId(2), 2));
        let s1 = q.try_reserve(c1).unwrap();
        let s2 = q.try_reserve(c2).unwrap();
        land(&q, s1, b"a");
        land(&q, s2, b"b");
        q.acc_pop_request().unwrap();
        q.acc_pop_request().unwrap();
        q.acc_push_response(&mut sim, s1, b"ra");
        q.acc_push_response(&mut sim, s2, b"rb");
        let (seq, ret, _) = q.begin_pull().unwrap();
        assert_eq!(ret, c1);
        let mut got = Vec::new();
        q.complete_n(seq, 1, |ctx| got.push(ctx.ret));
        assert_eq!(got, [c1]);
        let (_, ret2, _) = q.begin_pull().unwrap();
        assert_eq!(ret2, c2);
    }

    #[test]
    fn watchers_fire() {
        use std::cell::Cell;
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        let rx_hits = Rc::new(Cell::new(0));
        let tx_hits = Rc::new(Cell::new(0));
        let (r, t) = (Rc::clone(&rx_hits), Rc::clone(&tx_hits));
        q.set_rx_watcher(move |_| r.set(r.get() + 1));
        q.set_tx_watcher(move |_| t.set(t.get() + 1));
        let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
        land(&q, seq, b"x");
        q.notify_rx(&mut sim);
        q.acc_pop_request().unwrap();
        q.acc_push_response(&mut sim, seq, b"y");
        assert_eq!((rx_hits.get(), tx_hits.get()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversized_payload_rejected() {
        let q = mq(MqueueKind::Server, 2);
        let _ = q.encode_slot(0, &vec![0; 4096]);
    }

    #[test]
    #[should_panic(expected = "region 'tiny' holds 64")]
    fn region_too_small_rejected() {
        let mem = MemRegion::new(NodeId::host(), 64, "tiny");
        let _ = Mqueue::new(MqueueKind::Server, mem, 0, MqueueConfig::default());
    }

    #[test]
    fn bad_configs_are_reported_not_panicked() {
        use crate::Error;
        let zero_slots = MqueueConfig {
            slots: 0,
            ..MqueueConfig::default()
        };
        assert!(matches!(
            zero_slots.check(),
            Err(Error::InvalidConfig {
                field: "mqueue.slots",
                ..
            })
        ));
        let thin_slots = MqueueConfig {
            slot_size: SLOT_HEADER,
            ..MqueueConfig::default()
        };
        assert!(matches!(
            thin_slots.check(),
            Err(Error::InvalidConfig {
                field: "mqueue.slot_size",
                ..
            })
        ));
        assert!(MqueueConfig::default().check().is_ok());
        let mem = MemRegion::new(NodeId::host(), 64, "tiny");
        let err = Mqueue::try_new(MqueueKind::Server, mem, 0, MqueueConfig::default()).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn full_ring_reports_backpressure_with_queue_label() {
        use crate::Error;
        let q = mq(MqueueKind::Server, 1);
        q.try_reserve(ReturnAddr::Fixed).unwrap();
        match q.try_reserve(ReturnAddr::Fixed) {
            Err(Error::Backpressure { queue }) => assert_eq!(queue, q.label()),
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn bind_stats_migrates_drop_history() {
        use lynx_sim::Telemetry;
        let q = mq(MqueueKind::Server, 1);
        q.try_reserve(ReturnAddr::Fixed).unwrap();
        let _ = q.try_reserve(ReturnAddr::Fixed);
        assert_eq!(q.drops(), 1);
        let sink = Telemetry::new();
        q.bind_stats(&sink);
        // History carried over, and new drops land in the shared sink.
        assert_eq!(q.drops(), 1);
        let _ = q.try_reserve(ReturnAddr::Fixed);
        assert_eq!(q.drops(), 2);
        assert_eq!(sink.counter(&format!("mqueue.{}.drops", q.label())), 2);
    }

    #[test]
    fn bulk_completion_releases_credits_in_order() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        for i in 0..3u64 {
            let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
            land(&q, seq, &[i as u8]);
            q.acc_pop_request().unwrap();
            q.acc_push_response(&mut sim, seq, &[i as u8]);
        }
        assert_eq!(q.pending_responses(), 3);
        // Claim all three, then acknowledge them in one bulk completion.
        for _ in 0..3 {
            q.begin_pull().unwrap();
        }
        assert_eq!(q.pending_responses(), 0);
        q.complete_n(0, 3, drop);
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.collected(), 3);
        // Freed credits are immediately reusable.
        assert!(q.try_reserve(ReturnAddr::Fixed).is_ok());
    }

    #[test]
    #[should_panic(expected = "complete in order")]
    fn bulk_completion_must_start_at_oldest() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
        land(&q, seq, b"x");
        q.acc_pop_request().unwrap();
        q.acc_push_response(&mut sim, seq, b"y");
        q.begin_pull().unwrap();
        q.complete_n(1, 1, drop);
    }

    #[test]
    #[should_panic(expected = "never claimed")]
    fn completion_needs_a_claim() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
        land(&q, seq, b"x");
        q.acc_pop_request().unwrap();
        q.acc_push_response(&mut sim, seq, b"y");
        q.complete_n(seq, 1, drop);
    }

    #[test]
    fn staged_slot_images_recycle_on_completion() {
        let mut sim = Sim::new(0);
        let pool = sim.buffers();
        let q = mq(MqueueKind::Server, 4);
        for round in 0..3u64 {
            let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
            let slot = q.encode_slot_pooled(&pool, seq, &[round as u8]);
            q.mem().write(q.rx_slot_offset(seq), &slot);
            q.stage_slot(&pool, seq, Payload::from(slot));
            q.acc_pop_request().unwrap();
            q.acc_push_response(&mut sim, seq, &[round as u8]);
            let (s, _, _) = q.begin_pull().unwrap();
            q.complete_n(s, 1, drop);
        }
        assert_eq!(pool.idle(), 1, "one scratch buffer cycles through");
        let (hits, misses) = pool.stats();
        assert_eq!(misses, 1, "only the first encode allocates");
        assert_eq!(hits, 2, "later encodes reuse the recycled buffer");
    }

    #[test]
    fn drain_returns_staged_buffers_and_publishes_gauge() {
        let mut sim = Sim::new(0);
        let t = sim.enable_telemetry();
        let pool = sim.buffers();
        let q = mq(MqueueKind::Server, 4);
        // A request whose image was staged but never completed through the
        // normal path would leak its buffer; flush it, then drain.
        let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
        let slot = q.encode_slot_pooled(&pool, seq, b"x");
        q.mem().write(q.rx_slot_offset(seq), &slot);
        q.stage_slot(&pool, seq, Payload::from(slot));
        q.acc_pop_request().unwrap();
        q.acc_push_response(&mut sim, seq, b"y");
        let (s, _, _) = q.begin_pull().unwrap();
        q.complete_n(s, 1, drop);
        q.drain(&mut sim);
        assert_eq!(t.gauge_value("buffer_pool.idle"), Some(pool.idle() as f64));
        // Repeated drain cycles don't grow the watermark.
        let idle = pool.idle();
        for _ in 0..5 {
            q.drain(&mut sim);
        }
        assert_eq!(pool.idle(), idle);
    }

    #[test]
    #[should_panic(expected = "non-quiesced")]
    fn drain_rejects_inflight_requests() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        q.try_reserve(ReturnAddr::Fixed).unwrap();
        q.drain(&mut sim);
    }

    #[test]
    fn attached_contexts_come_back_with_their_slots() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Server, 4);
        let c1 = ReturnAddr::Udp(SockAddr::new(lynx_net::HostId(1), 1));
        let s0 = q.try_reserve(ReturnAddr::Fixed).unwrap();
        let s1 = q.try_reserve(c1).unwrap();
        let ticket = CacheTicket::Set(b"k".to_vec());
        q.attach(
            s1,
            Time::from_micros(3),
            Some(ticket.clone()),
            Some(FnId(7)),
        );
        for (seq, p) in [(s0, b"a"), (s1, b"b")] {
            land(&q, seq, p);
            q.acc_pop_request().unwrap();
            q.acc_push_response(&mut sim, seq, p);
        }
        let (first, _, _) = q.begin_pull().unwrap();
        q.begin_pull().unwrap();
        let mut ctxs = Vec::new();
        q.complete_n(first, 2, |ctx| ctxs.push(ctx));
        assert_eq!(ctxs[0], ReqCtx::new(ReturnAddr::Fixed), "never attached");
        assert_eq!(
            ctxs[1],
            ReqCtx {
                ret: c1,
                dispatched_at: Some(Time::from_micros(3)),
                ticket: Some(ticket),
                func: Some(FnId(7)),
            }
        );
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn client_mqueue_has_fixed_return() {
        let mut sim = Sim::new(0);
        let q = mq(MqueueKind::Client, 4);
        // Client mqueue TX: the accelerator sends a backend request.
        q.acc_push_response(&mut sim, 0, b"get key7");
        let (seq, ret, len) = q.begin_pull().unwrap();
        assert_eq!(ret, ReturnAddr::Fixed);
        assert_eq!(len, 8);
        let mut got = Vec::new();
        q.complete_n(seq, 1, |ctx| got.push(ctx));
        assert_eq!(got, [ReqCtx::new(ReturnAddr::Fixed)]);
        assert_eq!(q.collected(), 1);
    }
}
