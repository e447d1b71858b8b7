//! Partitioned parallel simulation: shard the topology across OS threads,
//! keep every byte deterministic.
//!
//! # Model
//!
//! A [`Partition`] splits one simulated system into **shards** — disjoint
//! sub-topologies (a SNIC core, a GPU machine, a client group) — each
//! owning a private [`Sim`] with its own event queue, RNG stream
//! ([`rng::derive_seed`](crate::rng::derive_seed) of the root seed and the
//! shard index), telemetry sink, and fault injector. Shards interact only
//! through **cross-shard links** declared with [`Partition::link`]: a
//! [`ShardSender`] turns a payload into an envelope stamped
//! `(deliver_at = now + link latency, seq, src shard)`, and the engine
//! hands it to the destination shard's bound port handler at exactly
//! `deliver_at`.
//!
//! # Conservative windows
//!
//! Execution proceeds in lockstep windows of width `w` = the **minimum
//! declared link latency**. Every worker runs its shards up to the window
//! edge, parks, and exchanges envelopes at the barrier. Any envelope sent
//! during a window has `deliver_at ≥ sent_at + w ≥` the window's end, so
//! no shard can ever receive a message "from its past" — the classic
//! conservative PDES argument (Chandy–Misra windows, here with a global
//! barrier instead of per-link null messages). When no shard has an event
//! and no envelope is in flight before the next window, the coordinator
//! fast-forwards the window base to the earliest pending activity; the
//! skip is computed from per-shard state only, so it is deterministic.
//!
//! # Determinism
//!
//! Two properties make the same seed byte-identical at *any* thread
//! count, `LYNX_SIM_THREADS=1` or `=8`:
//!
//! 1. **Shard-local execution is thread-blind.** A shard's event order
//!    depends only on its own queue and the envelopes injected at
//!    barriers — never on which OS thread hosts it (assignment is
//!    `shard_id % threads`, and a worker runs its shards in shard-id
//!    order purely as a scheduling detail that no shard can observe).
//! 2. **Barrier merges have a total order.** Envelopes released at a
//!    barrier are sorted by `(deliver_at, seq, src shard)` and injected
//!    in that order, so same-instant deliveries tie-break identically on
//!    every run. A delivery landing exactly on a window edge executes at
//!    that instant but *after* the local events the previous window
//!    already executed there — a fixed, documented edge rule.
//!
//! Per-shard telemetry is merged the same way: traces by
//! `(time, shard, per-shard order)`, counters by *sorted name* so
//! [`CounterId`](crate::CounterId) assignment in the merged registry is
//! independent of which shard (or thread) touched a counter first.
//!
//! # Example
//!
//! ```
//! use lynx_sim::{Partition, SimConfig, Time};
//! use std::time::Duration;
//!
//! let mut part = Partition::new(42, SimConfig::new().threads(2));
//! let ping = part.add_shard("ping", |sim, ctx| {
//!     let tx = ctx.sender(lynx_sim::ShardId::new(1), "echo");
//!     sim.schedule_in(Duration::from_micros(5), move |sim| {
//!         tx.send(sim, b"hello");
//!     });
//!     Box::new(|sim| sim.executed())
//! });
//! let echo = part.add_shard("echo", |_sim, ctx| {
//!     ctx.bind("echo", |sim, msg| {
//!         assert_eq!(&msg.payload[..], b"hello");
//!         assert_eq!(sim.now(), msg.sent_at + Duration::from_micros(2));
//!     });
//!     Box::new(|sim| sim.executed())
//! });
//! part.link(ping, echo, Duration::from_micros(2));
//! let report = part.run_until(Time::from_millis(1));
//! assert_eq!(report.messages, 1);
//! # let _ = (ping, echo);
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::payload::Payload;
use crate::rng::derive_seed;
use crate::telemetry::{Telemetry, TraceRecord};
use crate::{Sim, SimConfig, Time};

/// Identifies one shard of a [`Partition`] (dense indices, assigned by
/// [`Partition::add_shard`] in call order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(u16);

impl ShardId {
    /// Wraps a raw shard index.
    pub fn new(index: u16) -> ShardId {
        ShardId(index)
    }

    /// The shard's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard/{}", self.0)
    }
}

/// A cross-shard message as the destination's port handler sees it.
#[derive(Clone, Debug)]
pub struct CrossShardMsg {
    /// The shard that sent the message.
    pub src: ShardId,
    /// Simulated instant the sender called [`ShardSender::send`].
    pub sent_at: Time,
    /// The bytes. `Payload` is `Arc`-backed, so crossing threads is a
    /// refcount bump, not a copy.
    pub payload: Payload,
}

/// A cross-shard envelope in flight between two barriers.
#[derive(Debug)]
struct Envelope {
    src: ShardId,
    dst: ShardId,
    /// Per-source-shard send sequence — the `seq` of the merge order.
    seq: u64,
    sent_at: Time,
    deliver_at: Time,
    port: String,
    payload: Payload,
}

/// Envelope merge key: `(time, seq, shard)` exactly as documented.
fn merge_key(e: &Envelope) -> (Time, u64, ShardId) {
    (e.deliver_at, e.seq, e.src)
}

#[derive(Default)]
struct Outbox {
    next_seq: u64,
    queued: Vec<Envelope>,
}

type Handler = Box<dyn FnMut(&mut Sim, CrossShardMsg)>;
type HandlerMap = Rc<RefCell<HashMap<String, Handler>>>;

/// A handle for sending payloads over one declared cross-shard link, bound
/// to a destination shard and port name.
///
/// Created by [`ShardCtx::sender`] inside the owning shard's build
/// closure; like every model handle it stays on its shard's thread (only
/// the envelope it produces crosses threads).
#[derive(Clone)]
pub struct ShardSender {
    src: ShardId,
    dst: ShardId,
    latency: Duration,
    port: String,
    outbox: Rc<RefCell<Outbox>>,
}

impl fmt::Debug for ShardSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardSender({} -> {} port {:?}, {:?})",
            self.src, self.dst, self.port, self.latency
        )
    }
}

impl ShardSender {
    /// Sends `payload` to the destination shard's port; it arrives exactly
    /// one link latency after `sim.now()`.
    pub fn send(&self, sim: &mut Sim, payload: impl Into<Payload>) {
        let mut outbox = self.outbox.borrow_mut();
        let seq = outbox.next_seq;
        outbox.next_seq += 1;
        let sent_at = sim.now();
        outbox.queued.push(Envelope {
            src: self.src,
            dst: self.dst,
            seq,
            sent_at,
            deliver_at: sent_at + self.latency,
            port: self.port.clone(),
            payload: payload.into(),
        });
    }

    /// The link latency this sender was created with.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

/// Build-time view of one shard: its identity plus the cross-shard ports
/// and senders it may use. Passed to the closure given to
/// [`Partition::add_shard`].
pub struct ShardCtx {
    id: ShardId,
    shards: usize,
    links: Arc<BTreeMap<(u16, u16), Duration>>,
    outbox: Rc<RefCell<Outbox>>,
    handlers: HandlerMap,
}

impl fmt::Debug for ShardCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCtx")
            .field("id", &self.id)
            .field("shards", &self.shards)
            .finish()
    }
}

impl ShardCtx {
    /// This shard's id.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// Total number of shards in the partition.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Binds `handler` to the named inbound port. Cross-shard messages
    /// addressed to `(this shard, port)` invoke it at their delivery
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound.
    pub fn bind(&self, port: &str, handler: impl FnMut(&mut Sim, CrossShardMsg) + 'static) {
        let prev = self
            .handlers
            .borrow_mut()
            .insert(port.to_string(), Box::new(handler));
        assert!(prev.is_none(), "port {port:?} already bound on {}", self.id);
    }

    /// Creates a sender towards `dst`'s named port over the declared link.
    ///
    /// # Panics
    ///
    /// Panics when no [`Partition::link`] joins this shard to `dst` —
    /// undeclared links would break the conservative window size.
    pub fn sender(&self, dst: ShardId, port: &str) -> ShardSender {
        let latency = *self
            .links
            .get(&(self.id.0, dst.0))
            .unwrap_or_else(|| panic!("no link declared from {} to {}", self.id, dst));
        ShardSender {
            src: self.id,
            dst,
            latency,
            port: port.to_string(),
            outbox: Rc::clone(&self.outbox),
        }
    }
}

/// What one finished shard reports back to the coordinator.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// The shard's id.
    pub id: ShardId,
    /// The name given to [`Partition::add_shard`].
    pub name: String,
    /// The shard clock when the run ended.
    pub now: Time,
    /// Events the shard executed.
    pub executed: u64,
    /// Events still pending when the run ended (beyond the deadline).
    pub pending: usize,
    /// Cross-shard envelopes this shard sent.
    pub sent: u64,
    /// Cross-shard envelopes delivered to this shard.
    pub received: u64,
    /// Name-sorted counter snapshot (empty when telemetry is off).
    pub counters: Vec<(String, u64)>,
    /// Name-sorted gauge snapshot (empty when telemetry is off).
    pub gauges: Vec<(String, f64)>,
    /// The shard's trace records in execution order.
    pub records: Vec<TraceRecord>,
}

/// Everything a [`Partition`] run produced.
#[derive(Debug)]
pub struct PartitionReport<V> {
    /// Per-shard outputs (the values returned by each build closure's
    /// finisher), in shard-id order.
    pub outputs: Vec<V>,
    /// Per-shard execution reports, in shard-id order.
    pub shards: Vec<ShardReport>,
    /// Conservative windows the coordinator ran.
    pub windows: u64,
    /// Cross-shard envelopes delivered at barriers.
    pub messages: u64,
    /// Worker threads actually used (`min(config.threads, shards)`).
    pub threads: usize,
}

impl<V> PartitionReport<V> {
    /// Sum of events executed across all shards.
    pub fn executed(&self) -> u64 {
        self.shards.iter().map(|s| s.executed).sum()
    }

    /// Merges the per-shard telemetry into one deterministic sink.
    ///
    /// * Traces are ordered by `(time, shard, per-shard order)`.
    /// * Counters are summed and interned in **sorted name order**, so
    ///   the merged [`CounterId`](crate::CounterId) assignment depends
    ///   only on the set of names — never on thread count or which shard
    ///   incremented first.
    /// * Gauges are merged in shard-id order (a later shard's value wins
    ///   on a name collision — a fixed, thread-count-independent rule).
    pub fn merged_telemetry(&self) -> Telemetry {
        let t = Telemetry::new();
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (order, shard) in self.shards.iter().enumerate() {
            for (name, v) in &shard.counters {
                *counters.entry(name).or_insert(0) += v;
            }
            for (name, v) in &shard.gauges {
                gauges.insert(name, (order, *v));
            }
        }
        for (name, v) in counters {
            t.count(name, v);
        }
        for (name, (_, v)) in gauges {
            t.gauge(name, v);
        }
        let mut all: Vec<(Time, usize, usize, &TraceRecord)> = Vec::new();
        for (order, shard) in self.shards.iter().enumerate() {
            for (idx, r) in shard.records.iter().enumerate() {
                all.push((r.at, order, idx, r));
            }
        }
        all.sort_by_key(|&(at, shard, idx, _)| (at, shard, idx));
        for (_, _, _, r) in all {
            t.record(r.at, r.event.clone());
        }
        t
    }

    /// Merged, summed counters in sorted name order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.merged_telemetry().counters()
    }

    /// Merged trace as JSON-lines (see [`Telemetry::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        self.merged_telemetry().to_jsonl()
    }

    /// Merged counters as CSV (see [`Telemetry::counters_csv`]).
    pub fn counters_csv(&self) -> String {
        self.merged_telemetry().counters_csv()
    }
}

/// The finisher a build closure returns: runs on the shard's thread after
/// the last window and extracts the shard's output value.
pub type FinishFn<V> = Box<dyn FnOnce(&mut Sim) -> V>;
type BuildFn<V> = Box<dyn FnOnce(&mut Sim, &mut ShardCtx) -> FinishFn<V> + Send>;

struct ShardSpec<V> {
    id: ShardId,
    name: String,
    build: BuildFn<V>,
}

/// A partitioned simulation: shards built and owned by worker threads,
/// cross-shard messages exchanged at conservative window barriers. See
/// the [module docs](self) for the full model and determinism argument.
pub struct Partition<V> {
    seed: u64,
    config: SimConfig,
    telemetry: bool,
    shards: Vec<ShardSpec<V>>,
    links: BTreeMap<(u16, u16), Duration>,
}

impl<V> fmt::Debug for Partition<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Partition")
            .field("seed", &self.seed)
            .field("config", &self.config)
            .field("shards", &self.shards.len())
            .field("links", &self.links.len())
            .finish()
    }
}

/// One worker's view of a window barrier.
enum Cmd {
    /// Inject `deliveries` (already in merge order) and run every owned
    /// shard up to `until`.
    Window {
        until: Time,
        deliveries: Vec<Envelope>,
    },
    /// Run the finishers and report.
    Finish,
}

struct WindowAck {
    worker: usize,
    outgoing: Vec<Envelope>,
    /// Earliest pending event across the worker's shards.
    next_event: Option<Time>,
}

struct FinishAck<V> {
    shards: Vec<(ShardReport, V)>,
}

/// Barrier ack, or a forwarded panic message from a worker thread.
enum AckMsg {
    Ok(WindowAck),
    Panicked(String),
}

/// Finish ack, or a forwarded panic message from a worker thread.
enum DoneMsg<V> {
    Ok(FinishAck<V>),
    Panicked(String),
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// One shard as its worker thread owns it between barriers.
struct ShardRt<V> {
    id: ShardId,
    name: String,
    sim: Sim,
    outbox: Rc<RefCell<Outbox>>,
    handlers: HandlerMap,
    finish: Option<FinishFn<V>>,
    sent: u64,
    received: u64,
}

impl<V: Send + 'static> Partition<V> {
    /// Creates an empty partition with the given root seed and engine
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`SimConfig::validate`].
    pub fn new(seed: u64, config: SimConfig) -> Partition<V> {
        if let Err(reason) = config.validate() {
            panic!("invalid SimConfig: {reason}");
        }
        Partition {
            seed,
            config,
            telemetry: false,
            shards: Vec::new(),
            links: BTreeMap::new(),
        }
    }

    /// Enables per-shard telemetry (merged deterministically in the
    /// report). Build closures may also enable it per shard.
    pub fn telemetry(mut self, on: bool) -> Partition<V> {
        self.telemetry = on;
        self
    }

    /// Adds a shard. `build` runs once on the shard's worker thread with
    /// the shard's private [`Sim`] (seeded `derive_seed(root, "shard/i")`)
    /// and returns the finisher that later extracts the shard's output.
    pub fn add_shard(
        &mut self,
        name: &str,
        build: impl FnOnce(&mut Sim, &mut ShardCtx) -> FinishFn<V> + Send + 'static,
    ) -> ShardId {
        assert!(self.shards.len() < u16::MAX as usize, "too many shards");
        let id = ShardId(self.shards.len() as u16);
        self.shards.push(ShardSpec {
            id,
            name: name.to_string(),
            build: Box::new(build),
        });
        id
    }

    /// Declares a symmetric cross-shard link between `a` and `b` with the
    /// given one-way latency. The minimum latency over all links sizes
    /// the conservative window.
    ///
    /// # Panics
    ///
    /// Panics on a zero latency (it would force zero-width windows) or a
    /// self-link.
    pub fn link(&mut self, a: ShardId, b: ShardId, latency: Duration) {
        assert!(!latency.is_zero(), "cross-shard link latency must be > 0");
        assert_ne!(a, b, "a shard cannot link to itself");
        self.links.insert((a.0, b.0), latency);
        self.links.insert((b.0, a.0), latency);
    }

    /// The conservative window width: the minimum declared link latency
    /// (`None` when the partition has no links — shards then run straight
    /// to the deadline in one window).
    pub fn window(&self) -> Option<Duration> {
        self.links.values().min().copied()
    }

    /// Runs every shard until `deadline`, exchanging cross-shard messages
    /// at conservative window barriers, and collects the report. Shard
    /// clocks are advanced to `deadline` exactly (like
    /// [`Sim::run_until`]).
    pub fn run_until(self, deadline: Time) -> PartitionReport<V> {
        self.execute(deadline)
    }

    /// Runs every shard until all queues drain and no envelope is in
    /// flight (like [`Sim::run`]).
    pub fn run(self) -> PartitionReport<V> {
        self.execute(Time::MAX)
    }

    fn execute(self, deadline: Time) -> PartitionReport<V> {
        let nshards = self.shards.len();
        assert!(nshards > 0, "partition has no shards");
        let threads = self.config.threads.min(nshards).max(1);
        let window = self.window();
        let links = Arc::new(self.links);
        let seed = self.seed;
        let telemetry = self.telemetry;

        // Deal shards to workers round-robin: shard i -> worker i % threads.
        // The assignment affects wall-clock balance only; no shard can
        // observe which worker hosts it.
        let mut per_worker: Vec<Vec<ShardSpec<V>>> = (0..threads).map(|_| Vec::new()).collect();
        for spec in self.shards {
            per_worker[spec.id.index() % threads].push(spec);
        }

        let (ack_tx, ack_rx) = mpsc::channel::<AckMsg>();
        let (done_tx, done_rx) = mpsc::channel::<DoneMsg<V>>();

        let mut report = std::thread::scope(|scope| {
            let mut cmd_txs = Vec::with_capacity(threads);
            for (worker, specs) in per_worker.into_iter().enumerate() {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                cmd_txs.push(cmd_tx);
                let ack_tx = ack_tx.clone();
                let done_tx = done_tx.clone();
                let links = Arc::clone(&links);
                scope.spawn(move || {
                    // Forward a worker panic's message to the coordinator,
                    // so a failed build closure or handler surfaces as
                    // itself instead of as a bare channel disconnect.
                    let panic_ack = ack_tx.clone();
                    let panic_done = done_tx.clone();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_main(
                            worker, specs, nshards, seed, telemetry, links, cmd_rx, ack_tx, done_tx,
                        );
                    }));
                    if let Err(payload) = result {
                        let msg = panic_message(payload.as_ref());
                        let _ = panic_ack.send(AckMsg::Panicked(msg.clone()));
                        let _ = panic_done.send(DoneMsg::Panicked(msg));
                    }
                });
            }
            drop(ack_tx);
            drop(done_tx);
            coordinate(deadline, window, threads, &cmd_txs, &ack_rx, &done_rx)
        });

        report.shards.sort_by_key(|s| s.id);
        report
    }
}

/// The coordinator: sizes windows, merges and routes envelopes, drives the
/// workers through barriers, and assembles the final report.
fn coordinate<V>(
    deadline: Time,
    window: Option<Duration>,
    threads: usize,
    cmd_txs: &[mpsc::Sender<Cmd>],
    ack_rx: &mpsc::Receiver<AckMsg>,
    done_rx: &mpsc::Receiver<DoneMsg<V>>,
) -> PartitionReport<V> {
    let recv_ack = |inflight: &mut Vec<Envelope>, next_events: &mut [Option<Time>]| {
        for _ in 0..threads {
            let ack = match ack_rx.recv() {
                Ok(AckMsg::Ok(ack)) => ack,
                Ok(AckMsg::Panicked(msg)) => panic!("shard worker panicked: {msg}"),
                Err(_) => panic!("a partition worker thread exited without reporting"),
            };
            inflight.extend(ack.outgoing);
            next_events[ack.worker] = ack.next_event;
        }
    };

    let mut inflight: Vec<Envelope> = Vec::new();
    let mut next_events: Vec<Option<Time>> = vec![None; threads];
    // Workers report their post-build state as an unsolicited first ack
    // (build closures may already have scheduled events or sent messages).
    recv_ack(&mut inflight, &mut next_events);

    let mut windows = 0u64;
    let mut messages = 0u64;
    let mut clock = Time::ZERO;
    loop {
        // The earliest activity anywhere: a pending shard event or an
        // in-flight delivery. Deterministic — it is a pure function of
        // per-shard queue state and the envelope set.
        let next_event = next_events.iter().flatten().min().copied();
        let next_delivery = inflight.iter().map(|e| e.deliver_at).min();
        let base = match (next_event, next_delivery) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        let until = match base {
            Some(b) if b <= deadline => match window {
                // Fast-forwarding the window base to the earliest activity
                // skips empty barriers without changing any shard's view.
                Some(w) => (b + w).min(deadline),
                None => deadline,
            },
            // Nothing left before the deadline: advance every clock to it
            // (mirroring `Sim::run_until`) and stop. `Time::MAX` means
            // "drain", where clocks stay on each shard's last event.
            _ => {
                if deadline != Time::MAX && clock < deadline {
                    for tx in cmd_txs {
                        tx.send(Cmd::Window {
                            until: deadline,
                            deliveries: Vec::new(),
                        })
                        .expect("a partition worker thread exited early");
                    }
                    recv_ack(&mut inflight, &mut next_events);
                    windows += 1;
                }
                break;
            }
        };

        // Release every envelope due in this window, in the fixed
        // `(time, seq, shard)` merge order, routed to its owner's worker.
        let mut due: Vec<Envelope> = Vec::new();
        let mut still = Vec::with_capacity(inflight.len());
        for e in inflight.drain(..) {
            if e.deliver_at <= until {
                due.push(e);
            } else {
                still.push(e);
            }
        }
        inflight = still;
        due.sort_by_key(merge_key);
        messages += due.len() as u64;
        let mut deliveries: Vec<Vec<Envelope>> = (0..threads).map(|_| Vec::new()).collect();
        for e in due {
            deliveries[e.dst.index() % threads].push(e);
        }
        for (tx, batch) in cmd_txs.iter().zip(deliveries) {
            tx.send(Cmd::Window {
                until,
                deliveries: batch,
            })
            .expect("a partition worker thread exited early");
        }
        recv_ack(&mut inflight, &mut next_events);
        windows += 1;
        clock = until;
    }

    for tx in cmd_txs {
        tx.send(Cmd::Finish)
            .expect("a partition worker thread exited early");
    }
    let mut outputs: Vec<(ShardId, V)> = Vec::new();
    let mut shards: Vec<ShardReport> = Vec::new();
    for _ in 0..threads {
        let ack = match done_rx.recv() {
            Ok(DoneMsg::Ok(ack)) => ack,
            Ok(DoneMsg::Panicked(msg)) => panic!("shard worker panicked: {msg}"),
            Err(_) => panic!("a partition worker thread exited without reporting"),
        };
        for (report, value) in ack.shards {
            outputs.push((report.id, value));
            shards.push(report);
        }
    }
    outputs.sort_by_key(|(id, _)| *id);
    PartitionReport {
        outputs: outputs.into_iter().map(|(_, v)| v).collect(),
        shards,
        windows,
        messages,
        threads,
    }
}

/// One worker thread: builds its shards, then alternates "inject + run to
/// the window edge" with barrier acks until told to finish.
#[allow(clippy::too_many_arguments)]
fn worker_main<V: Send + 'static>(
    worker: usize,
    specs: Vec<ShardSpec<V>>,
    nshards: usize,
    seed: u64,
    telemetry: bool,
    links: Arc<BTreeMap<(u16, u16), Duration>>,
    cmd_rx: mpsc::Receiver<Cmd>,
    ack_tx: mpsc::Sender<AckMsg>,
    done_tx: mpsc::Sender<DoneMsg<V>>,
) {
    let mut shards: Vec<ShardRt<V>> = specs
        .into_iter()
        .map(|spec| {
            let mut sim = Sim::new(derive_seed(seed, &format!("shard/{}", spec.id.index())));
            if telemetry {
                sim.enable_telemetry();
            }
            let outbox = Rc::new(RefCell::new(Outbox::default()));
            let handlers: HandlerMap = Rc::new(RefCell::new(HashMap::new()));
            let mut ctx = ShardCtx {
                id: spec.id,
                shards: nshards,
                links: Arc::clone(&links),
                outbox: Rc::clone(&outbox),
                handlers: Rc::clone(&handlers),
            };
            let finish = (spec.build)(&mut sim, &mut ctx);
            ShardRt {
                id: spec.id,
                name: spec.name,
                sim,
                outbox,
                handlers,
                finish: Some(finish),
                sent: 0,
                received: 0,
            }
        })
        .collect();

    let collect_ack = |shards: &mut [ShardRt<V>]| {
        let mut outgoing = Vec::new();
        let mut next_event = None;
        for shard in shards.iter_mut() {
            let mut outbox = shard.outbox.borrow_mut();
            shard.sent += outbox.queued.len() as u64;
            outgoing.append(&mut outbox.queued);
            drop(outbox);
            next_event = match (next_event, shard.sim.next_event_at()) {
                (Some(a), Some(b)) => Some(Time::min(a, b)),
                (a, None) => a,
                (None, b) => b,
            };
        }
        WindowAck {
            worker,
            outgoing,
            next_event,
        }
    };

    // Unsolicited post-build ack: build closures may have scheduled events
    // or sent cross-shard messages already.
    let ack = collect_ack(&mut shards);
    if ack_tx.send(AckMsg::Ok(ack)).is_err() {
        return;
    }

    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            Cmd::Window { until, deliveries } => {
                for env in deliveries {
                    let shard = shards
                        .iter_mut()
                        .find(|s| s.id == env.dst)
                        .expect("envelope routed to the wrong worker");
                    shard.received += 1;
                    debug_assert!(
                        env.deliver_at >= shard.sim.now(),
                        "conservative window violated: delivery at {} into a shard at {}",
                        env.deliver_at,
                        shard.sim.now()
                    );
                    let handlers = Rc::clone(&shard.handlers);
                    let msg = CrossShardMsg {
                        src: env.src,
                        sent_at: env.sent_at,
                        payload: env.payload,
                    };
                    let port = env.port;
                    shard.sim.schedule_at(env.deliver_at, move |sim| {
                        let handler = handlers.borrow_mut().remove(&port);
                        let mut handler = handler.unwrap_or_else(|| {
                            panic!("cross-shard message for unbound port {port:?}")
                        });
                        handler(sim, msg);
                        // Keep a handler the callee re-bound mid-call.
                        handlers.borrow_mut().entry(port).or_insert(handler);
                    });
                }
                for shard in &mut shards {
                    shard.sim.run_until(until);
                }
                let ack = collect_ack(&mut shards);
                if ack_tx.send(AckMsg::Ok(ack)).is_err() {
                    return;
                }
            }
            Cmd::Finish => {
                let mut done = Vec::with_capacity(shards.len());
                for mut shard in shards {
                    let finish = shard.finish.take().expect("finisher already taken");
                    let value = finish(&mut shard.sim);
                    let (counters, gauges, records) = match shard.sim.telemetry() {
                        Some(t) => (t.counters(), t.gauges(), t.with_records(|r| r.to_vec())),
                        None => (Vec::new(), Vec::new(), Vec::new()),
                    };
                    done.push((
                        ShardReport {
                            id: shard.id,
                            name: shard.name,
                            now: shard.sim.now(),
                            executed: shard.sim.executed(),
                            pending: shard.sim.pending(),
                            sent: shard.sent,
                            received: shard.received,
                            counters,
                            gauges,
                            records,
                        },
                        value,
                    ));
                }
                let _ = done_tx.send(DoneMsg::Ok(FinishAck { shards: done }));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of shards passing an incrementing token; every hop is traced
    /// via a counter and the trace log.
    fn ring(seed: u64, shards: u16, threads: usize, hops: u64) -> PartitionReport<u64> {
        let mut part: Partition<u64> =
            Partition::new(seed, SimConfig::new().threads(threads)).telemetry(true);
        let ids: Vec<ShardId> = (0..shards)
            .map(|i| {
                part.add_shard(&format!("ring-{i}"), move |sim, ctx| {
                    let next = ShardId::new((ctx.id().index() as u16 + 1) % ctx.shards() as u16);
                    let tx = ctx.sender(next, "token");
                    let tx0 = tx.clone();
                    let id = ctx.id();
                    ctx.bind("token", move |sim, msg| {
                        let mut v = [0u8; 8];
                        v.copy_from_slice(&msg.payload[..8]);
                        let n = u64::from_le_bytes(v);
                        sim.count("ring.hops", 1);
                        if n < hops {
                            tx.send(sim, (n + 1).to_le_bytes().to_vec());
                        }
                    });
                    if id.index() == 0 {
                        sim.schedule_in(Duration::from_nanos(100), move |sim| {
                            sim.count("ring.kickoff", 1);
                            tx0.send(sim, 1u64.to_le_bytes().to_vec());
                        });
                    }
                    Box::new(|sim: &mut Sim| sim.executed())
                })
            })
            .collect();
        for i in 0..shards as usize {
            part.link(
                ids[i],
                ids[(i + 1) % shards as usize],
                Duration::from_micros(1),
            );
        }
        part.run()
    }

    #[test]
    fn ring_token_makes_every_hop() {
        let r = ring(7, 4, 2, 16);
        assert_eq!(r.messages, 16, "one envelope per hop");
        let counters = r.counters();
        let hops = counters.iter().find(|(n, _)| n == "ring.hops").unwrap().1;
        assert_eq!(hops, 16);
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        let base = ring(7, 5, 1, 23);
        for threads in [2, 3, 5, 8] {
            let r = ring(7, 5, threads, 23);
            assert_eq!(r.to_jsonl(), base.to_jsonl(), "traces at {threads} threads");
            assert_eq!(
                r.counters_csv(),
                base.counters_csv(),
                "counters at {threads} threads"
            );
            assert_eq!(r.outputs, base.outputs, "outputs at {threads} threads");
            assert_eq!(r.windows, base.windows, "windows at {threads} threads");
            assert_eq!(r.messages, base.messages);
        }
    }

    #[test]
    fn delivery_happens_exactly_one_latency_later() {
        let mut part: Partition<()> = Partition::new(1, SimConfig::new().threads(2));
        let a = part.add_shard("a", |sim, ctx| {
            let tx = ctx.sender(ShardId::new(1), "token");
            sim.schedule_in(Duration::from_micros(3), move |sim| {
                tx.send(sim, b"x");
            });
            Box::new(|_: &mut Sim| ())
        });
        let b = part.add_shard("b", |_sim, ctx| {
            ctx.bind("token", |sim, msg| {
                assert_eq!(msg.sent_at, Time::from_micros(3));
                assert_eq!(sim.now(), Time::from_micros(3) + Duration::from_micros(7));
            });
            Box::new(|_: &mut Sim| ())
        });
        part.link(a, b, Duration::from_micros(7));
        let r = part.run();
        assert_eq!(r.messages, 1);
        assert_eq!(r.shards[1].received, 1);
        assert_eq!(r.shards[0].sent, 1);
    }

    #[test]
    fn idle_gaps_fast_forward_instead_of_spinning_windows() {
        // Ten events 1 ms apart over a 1 µs link: naive lockstep would run
        // ~10_000 windows; the fast-forward should keep it near one per
        // event (plus one per delivery hop).
        let mut part: Partition<()> = Partition::new(1, SimConfig::new().threads(1));
        let a = part.add_shard("a", |sim, ctx| {
            let tx = ctx.sender(ShardId::new(1), "token");
            for i in 1..=10u64 {
                let tx = tx.clone();
                sim.schedule_in(Duration::from_millis(i), move |sim| {
                    tx.send(sim, b"tick");
                });
            }
            Box::new(|_: &mut Sim| ())
        });
        let b = part.add_shard("b", |_sim, ctx| {
            ctx.bind("token", |_sim, _msg| {});
            Box::new(|_: &mut Sim| ())
        });
        part.link(a, b, Duration::from_micros(1));
        let r = part.run();
        assert_eq!(r.messages, 10);
        assert!(r.windows < 40, "windows = {}", r.windows);
    }

    #[test]
    fn unlinked_shards_run_to_deadline_in_one_window() {
        let mut part: Partition<Time> = Partition::new(3, SimConfig::new().threads(4));
        for i in 0..4 {
            part.add_shard(&format!("solo-{i}"), |sim, _ctx| {
                sim.schedule_in(Duration::from_micros(10), |_| {});
                Box::new(|sim: &mut Sim| sim.now())
            });
        }
        let r = part.run_until(Time::from_millis(2));
        assert_eq!(r.windows, 1);
        assert!(r.outputs.iter().all(|&t| t == Time::from_millis(2)));
        assert!(r.shards.iter().all(|s| s.now == Time::from_millis(2)));
    }

    #[test]
    fn deadline_advances_every_shard_clock() {
        let r = {
            let mut part: Partition<()> = Partition::new(9, SimConfig::new().threads(2));
            let a = part.add_shard("a", |sim, ctx| {
                let tx = ctx.sender(ShardId::new(1), "token");
                sim.schedule_in(Duration::from_micros(1), move |sim| tx.send(sim, b"x"));
                Box::new(|_: &mut Sim| ())
            });
            let b = part.add_shard("b", |_sim, ctx| {
                ctx.bind("token", |_, _| {});
                Box::new(|_: &mut Sim| ())
            });
            part.link(a, b, Duration::from_micros(5));
            part.run_until(Time::from_millis(1))
        };
        assert!(r.shards.iter().all(|s| s.now == Time::from_millis(1)));
    }

    #[test]
    fn outputs_come_back_in_shard_order_regardless_of_threads() {
        for threads in [1, 2, 3, 7] {
            let mut part: Partition<usize> = Partition::new(1, SimConfig::new().threads(threads));
            for i in 0..7 {
                part.add_shard(&format!("s{i}"), move |_sim, _ctx| {
                    Box::new(move |_: &mut Sim| i)
                });
            }
            let r = part.run();
            assert_eq!(r.outputs, (0..7).collect::<Vec<_>>());
            assert_eq!(r.threads, threads.min(7));
        }
    }

    #[test]
    fn per_shard_rng_streams_are_thread_invariant() {
        let draw = |threads: usize| -> Vec<u64> {
            let mut part: Partition<u64> = Partition::new(77, SimConfig::new().threads(threads));
            for i in 0..6 {
                part.add_shard(&format!("s{i}"), |sim, _ctx| {
                    use rand::Rng;
                    let v: u64 = sim.rng().gen();
                    Box::new(move |_: &mut Sim| v)
                });
            }
            part.run().outputs
        };
        let one = draw(1);
        assert_eq!(one, draw(4));
        // Distinct shards draw from distinct derived streams.
        assert_ne!(one[0], one[1]);
    }

    #[test]
    #[should_panic(expected = "no link declared")]
    fn sender_requires_a_declared_link() {
        let mut part: Partition<()> = Partition::new(1, SimConfig::default());
        part.add_shard("a", |_sim, ctx| {
            let _ = ctx.sender(ShardId::new(1), "nope");
            Box::new(|_: &mut Sim| ())
        });
        part.add_shard("b", |_sim, _ctx| Box::new(|_: &mut Sim| ()));
        let _ = part.run();
    }

    #[test]
    fn merged_counter_ids_are_thread_invariant() {
        // Shards touch counters in *different* per-shard orders; the merged
        // registry must still intern identically at any thread count.
        let run = |threads: usize| {
            let mut part: Partition<()> =
                Partition::new(5, SimConfig::new().threads(threads)).telemetry(true);
            for i in 0..4u64 {
                part.add_shard(&format!("s{i}"), move |sim, _ctx| {
                    if i % 2 == 0 {
                        sim.count("alpha", i + 1);
                        sim.count("beta", 1);
                    } else {
                        sim.count("beta", 1);
                        sim.count("alpha", i + 1);
                    }
                    Box::new(|_: &mut Sim| ())
                });
            }
            part.run()
        };
        let a = run(1).merged_telemetry();
        let b = run(4).merged_telemetry();
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.counter_id("alpha"), b.counter_id("alpha"));
        assert_eq!(a.counter_id("beta"), b.counter_id("beta"));
    }
}
