//! Deterministic structured tracing and per-component counters.
//!
//! Telemetry is **off by default** and costs one `Option` check per hook
//! when disabled: every instrumentation site in the simulator either goes
//! through [`Sim::trace`](crate::Sim::trace) (which takes a closure, so the
//! event — and any `String` inside it — is only built when a sink is
//! attached) or guards on [`Sim::telemetry`](crate::Sim::telemetry)
//! returning `Some`.
//!
//! When enabled via [`Sim::enable_telemetry`](crate::Sim::enable_telemetry),
//! a [`Telemetry`] handle collects:
//!
//! * a **structured event trace**: typed [`TraceEvent`]s stamped with the
//!   simulated time, exportable as JSONL ([`Telemetry::to_jsonl`]) or as
//!   Chrome `trace_event` JSON ([`Telemetry::to_chrome_trace`]) loadable in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev);
//! * a [`CounterRegistry`] of named monotonic counters and point-in-time
//!   gauges.
//!
//! Both are fully deterministic: events are recorded in event-execution
//! order (which the simulator already fixes by `(time, seq)`), counter
//! snapshots are sorted by name, and the exporters use no wall-clock,
//! randomness, or hash-order iteration — two runs with the same seed
//! produce byte-identical output. See `docs/OBSERVABILITY.md` for the
//! event taxonomy and counter naming scheme.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::rc::Rc;

use crate::Time;

/// One typed event on the Lynx request path.
///
/// The variants follow a request through the pipeline:
/// `PacketRx → Dispatch → Enqueue → AccelStart → AccelComplete → Forward →
/// PacketTx`. All identifying fields are plain strings/integers so the
/// trace is self-describing once serialized.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A message arrived at a protocol stack (NIC receive).
    PacketRx {
        /// Network identity of the receiving stack (e.g. `"host0"`).
        host: String,
        /// Transport: `"udp"` or `"tcp"`.
        proto: &'static str,
        /// Payload bytes.
        bytes: usize,
    },
    /// The Message Dispatcher picked (or failed to pick) an mqueue.
    Dispatch {
        /// Active dispatch policy (e.g. `"round_robin"`).
        policy: &'static str,
        /// Label of the chosen mqueue, or `None` when every queue was full
        /// and the request was dropped.
        queue: Option<String>,
    },
    /// A request slot landed in accelerator memory (RDMA write + doorbell).
    Enqueue {
        /// Label of the target mqueue.
        queue: String,
        /// Ring sequence number of the slot.
        seq: u64,
        /// Payload bytes written.
        bytes: usize,
    },
    /// A persistent accelerator worker popped a request and started on it.
    AccelStart {
        /// Label of the worker's mqueue.
        queue: String,
        /// Ring sequence number being served.
        seq: u64,
    },
    /// The accelerator pushed its response and rang the TX doorbell.
    AccelComplete {
        /// Label of the worker's mqueue.
        queue: String,
        /// Ring sequence number served.
        seq: u64,
        /// Response payload bytes.
        bytes: usize,
    },
    /// The forwarder pulled a response out of accelerator memory (RDMA
    /// read) on its way back to the client.
    Forward {
        /// Label of the source mqueue.
        queue: String,
        /// Ring sequence number forwarded.
        seq: u64,
        /// Response payload bytes read.
        bytes: usize,
    },
    /// A message left a protocol stack (NIC transmit).
    PacketTx {
        /// Network identity of the sending stack.
        host: String,
        /// Transport: `"udp"` or `"tcp"`.
        proto: &'static str,
        /// Payload bytes.
        bytes: usize,
    },
    /// The fault injector struck an operation (see `lynx_sim::faults`).
    FaultInject {
        /// Injection site the fault struck (e.g. `"rdma.write.gpu0"`).
        site: String,
        /// Action kind tag (`"drop"`, `"cqe_error"`, `"crash"`, ...).
        kind: &'static str,
    },
    /// The SNIC marked an mqueue unhealthy and stopped dispatching to it.
    Quarantine {
        /// Label of the quarantined mqueue.
        queue: String,
    },
    /// A previously quarantined mqueue made progress again and rejoined
    /// the dispatch set.
    Readmit {
        /// Label of the readmitted mqueue.
        queue: String,
    },
    /// The Remote MQ Manager's verb watchdog expired and the verb was
    /// reposted.
    RmqRetry {
        /// Label of the mqueue the verb targeted.
        queue: String,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// The Remote MQ Manager exhausted its retry budget and gave up on a
    /// verb.
    RmqGiveUp {
        /// Label of the mqueue the verb targeted.
        queue: String,
        /// Total attempts made before giving up.
        attempts: u32,
    },
    /// An event from a model component outside the fixed pipeline
    /// vocabulary (devices, fabrics, applications).
    Custom {
        /// Track (Chrome-trace thread) to file the event under.
        track: String,
        /// Event name.
        name: String,
        /// Free-form detail string.
        detail: String,
    },
}

impl TraceEvent {
    /// The event's kind tag as serialized into traces.
    pub fn kind(&self) -> &str {
        match self {
            TraceEvent::PacketRx { .. } => "PacketRx",
            TraceEvent::Dispatch { .. } => "Dispatch",
            TraceEvent::Enqueue { .. } => "Enqueue",
            TraceEvent::AccelStart { .. } => "AccelStart",
            TraceEvent::AccelComplete { .. } => "AccelComplete",
            TraceEvent::Forward { .. } => "Forward",
            TraceEvent::PacketTx { .. } => "PacketTx",
            TraceEvent::FaultInject { .. } => "FaultInject",
            TraceEvent::Quarantine { .. } => "Quarantine",
            TraceEvent::Readmit { .. } => "Readmit",
            TraceEvent::RmqRetry { .. } => "RmqRetry",
            TraceEvent::RmqGiveUp { .. } => "RmqGiveUp",
            TraceEvent::Custom { name, .. } => name,
        }
    }

    /// The track (rendered as a thread row in `chrome://tracing`) the
    /// event belongs to: `net/<host>`, `dispatcher`, `mqueue/<label>`,
    /// `accel/<label>`, or a custom track.
    pub fn track(&self) -> String {
        match self {
            TraceEvent::PacketRx { host, .. } | TraceEvent::PacketTx { host, .. } => {
                format!("net/{host}")
            }
            TraceEvent::Dispatch { .. }
            | TraceEvent::Quarantine { .. }
            | TraceEvent::Readmit { .. } => "dispatcher".to_string(),
            TraceEvent::FaultInject { .. } => "faults".to_string(),
            TraceEvent::Enqueue { queue, .. }
            | TraceEvent::Forward { queue, .. }
            | TraceEvent::RmqRetry { queue, .. }
            | TraceEvent::RmqGiveUp { queue, .. } => {
                format!("mqueue/{queue}")
            }
            TraceEvent::AccelStart { queue, .. } | TraceEvent::AccelComplete { queue, .. } => {
                format!("accel/{queue}")
            }
            TraceEvent::Custom { track, .. } => track.clone(),
        }
    }

    /// Appends the event's fields as a JSON object (`{"k":v,...}`) to `out`.
    fn write_args_json(&self, out: &mut String) {
        out.push('{');
        match self {
            TraceEvent::PacketRx { host, proto, bytes }
            | TraceEvent::PacketTx { host, proto, bytes } => {
                push_str_field(out, "host", host, false);
                push_str_field(out, "proto", proto, false);
                push_u64_field(out, "bytes", *bytes as u64, true);
            }
            TraceEvent::Dispatch { policy, queue } => {
                push_str_field(out, "policy", policy, false);
                match queue {
                    Some(q) => push_str_field(out, "queue", q, true),
                    None => {
                        out.push_str("\"queue\":null");
                    }
                }
            }
            TraceEvent::Enqueue { queue, seq, bytes }
            | TraceEvent::AccelComplete { queue, seq, bytes }
            | TraceEvent::Forward { queue, seq, bytes } => {
                push_str_field(out, "queue", queue, false);
                push_u64_field(out, "seq", *seq, false);
                push_u64_field(out, "bytes", *bytes as u64, true);
            }
            TraceEvent::AccelStart { queue, seq } => {
                push_str_field(out, "queue", queue, false);
                push_u64_field(out, "seq", *seq, true);
            }
            TraceEvent::FaultInject { site, kind } => {
                push_str_field(out, "site", site, false);
                push_str_field(out, "fault", kind, true);
            }
            TraceEvent::Quarantine { queue } | TraceEvent::Readmit { queue } => {
                push_str_field(out, "queue", queue, true);
            }
            TraceEvent::RmqRetry { queue, attempt } => {
                push_str_field(out, "queue", queue, false);
                push_u64_field(out, "attempt", u64::from(*attempt), true);
            }
            TraceEvent::RmqGiveUp { queue, attempts } => {
                push_str_field(out, "queue", queue, false);
                push_u64_field(out, "attempts", u64::from(*attempts), true);
            }
            TraceEvent::Custom { detail, .. } => {
                push_str_field(out, "detail", detail, true);
            }
        }
        out.push('}');
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str, last: bool) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    push_json_string(out, value);
    if !last {
        out.push(',');
    }
}

fn push_u64_field(out: &mut String, key: &str, value: u64, last: bool) {
    let _ = write!(out, "\"{key}\":{value}");
    if !last {
        out.push(',');
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A [`TraceEvent`] stamped with the simulated instant it happened at.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Time,
    /// The event itself.
    pub event: TraceEvent,
}

/// An interned handle to one counter in a [`CounterRegistry`].
///
/// Obtained once via [`CounterRegistry::intern`] (or
/// [`Telemetry::counter_id`]) — typically cached in a component field —
/// and then used with [`CounterRegistry::add_by_id`] /
/// [`Telemetry::add_by_id`], which index a flat `Vec<u64>` instead of
/// walking a string-keyed map. This is the hot-path form of the counter
/// API: per-packet instrumentation sites pay one integer index per
/// increment instead of a name lookup (and, for dynamic names, a
/// `format!`) per packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(u32);

/// An interned handle to one gauge in a [`CounterRegistry`]; the gauge
/// counterpart of [`CounterId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GaugeId(u32);

/// Registry of named monotonic counters and point-in-time gauges.
///
/// Counters are `u64` and only ever increase ([`CounterRegistry::add`]);
/// gauges are `f64` samples that overwrite ([`CounterRegistry::set_gauge`]).
/// Values live in flat vectors indexed by interned [`CounterId`] /
/// [`GaugeId`] handles; the name→id maps are `BTreeMap`s so snapshots
/// iterate in sorted name order — a determinism requirement, not a
/// cosmetic choice. The string API ([`CounterRegistry::add`]) stays for
/// cold paths; hot paths intern once and use
/// [`CounterRegistry::add_by_id`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterRegistry {
    counter_ids: BTreeMap<String, u32>,
    counter_values: Vec<u64>,
    gauge_ids: BTreeMap<String, u32>,
    gauge_values: Vec<f64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> CounterRegistry {
        CounterRegistry::default()
    }

    /// Interns `name`, creating the counter at zero if new, and returns
    /// its stable [`CounterId`] handle.
    pub fn intern(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_ids.get(name) {
            return CounterId(id);
        }
        let id = self.counter_values.len() as u32;
        self.counter_values.push(0);
        self.counter_ids.insert(name.to_string(), id);
        CounterId(id)
    }

    /// Interns gauge `name` (created unset, reading as absent until the
    /// first [`CounterRegistry::set_gauge_by_id`]) and returns its handle.
    pub fn intern_gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&id) = self.gauge_ids.get(name) {
            return GaugeId(id);
        }
        let id = self.gauge_values.len() as u32;
        self.gauge_values.push(f64::NAN);
        self.gauge_ids.insert(name.to_string(), id);
        GaugeId(id)
    }

    /// Adds `delta` to the counter behind an interned handle — a plain
    /// vector index, no name lookup.
    #[inline]
    pub fn add_by_id(&mut self, id: CounterId, delta: u64) {
        self.counter_values[id.0 as usize] += delta;
    }

    /// Current value of the counter behind an interned handle.
    #[inline]
    pub fn get_by_id(&self, id: CounterId) -> u64 {
        self.counter_values[id.0 as usize]
    }

    /// Sets the gauge behind an interned handle.
    #[inline]
    pub fn set_gauge_by_id(&mut self, id: GaugeId, value: f64) {
        self.gauge_values[id.0 as usize] = value;
    }

    /// Adds `delta` to the counter `name`, creating it at zero first if
    /// it has not been seen before.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.intern(name);
        self.add_by_id(id, delta);
    }

    /// Sets the gauge `name` to `value`, creating it if needed.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let id = self.intern_gauge(name);
        self.set_gauge_by_id(id, value);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map(|&id| self.counter_values[id as usize])
            .unwrap_or(0)
    }

    /// Current value of gauge `name`, if it has been set.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        let v = self
            .gauge_ids
            .get(name)
            .map(|&id| self.gauge_values[id as usize])?;
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.counter_ids.len()
    }

    /// Whether no counters have been registered yet.
    pub fn is_empty(&self) -> bool {
        self.counter_ids.is_empty()
    }

    /// All counters as `(name, value)` pairs in sorted name order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counter_ids
            .iter()
            .map(|(k, &id)| (k.clone(), self.counter_values[id as usize]))
            .collect()
    }

    /// All gauges as `(name, value)` pairs in sorted name order.
    ///
    /// Gauges interned but never set are omitted, matching the behaviour
    /// of the string API where a gauge only exists once written.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.gauge_ids
            .iter()
            .filter_map(|(k, &id)| {
                let v = self.gauge_values[id as usize];
                if v.is_nan() {
                    None
                } else {
                    Some((k.clone(), v))
                }
            })
            .collect()
    }

    /// The id `name` was interned under, without interning it.
    ///
    /// Unlike [`CounterRegistry::intern`] this never mutates the registry,
    /// so it is safe to call from read-only merge/inspection paths that
    /// must not perturb id assignment.
    pub fn id_of(&self, name: &str) -> Option<CounterId> {
        self.counter_ids.get(name).map(|&id| CounterId(id))
    }

    /// The id gauge `name` was interned under, without interning it.
    pub fn gauge_id_of(&self, name: &str) -> Option<GaugeId> {
        self.gauge_ids.get(name).map(|&id| GaugeId(id))
    }

    /// Folds another registry into this one **shard-safely**: counter
    /// values are summed, gauges overwritten (the caller controls "later
    /// wins" by merge order), and — critically — new names are interned in
    /// **sorted name order**, not in `other`'s first-touch order.
    ///
    /// First-touch order differs between a single-threaded run (one global
    /// interleaving) and a partitioned run (per-shard registries merged at
    /// the end), so interning in arrival order would hand out different
    /// [`CounterId`]s depending on the thread count. Sorting first makes
    /// the id assignment a pure function of the merged *name set*: merging
    /// the same shard registries in any grouping yields the same ids, which
    /// is what keeps `LYNX_SIM_THREADS=1,2,8` byte-identical.
    pub fn merge_from(&mut self, other: &CounterRegistry) {
        // BTreeMap iteration is already sorted by name.
        for (name, &id) in &other.counter_ids {
            let mine = self.intern(name);
            self.add_by_id(mine, other.counter_values[id as usize]);
        }
        for (name, &id) in &other.gauge_ids {
            let v = other.gauge_values[id as usize];
            if !v.is_nan() {
                let mine = self.intern_gauge(name);
                self.set_gauge_by_id(mine, v);
            }
        }
    }

    /// Iterates `(name, value)` counter pairs in sorted name order without
    /// allocating the snapshot vector.
    fn iter_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ids
            .iter()
            .map(|(k, &id)| (k.as_str(), self.counter_values[id as usize]))
    }
}

/// A lazily-interned counter handle cached at one instrumentation site.
///
/// Hot-path sites embed a `SiteCounter` next to their component state; the
/// first increment interns the (possibly `format!`-built) name into the
/// registry and caches the [`CounterId`], so every later increment is a
/// vector index — no name lookup, no allocation. Because interning happens
/// on the first *increment*, the registry's counter set stays identical to
/// what the string API would have produced.
///
/// A cached id belongs to the [`Telemetry`] instance that interned it;
/// call [`SiteCounter::reset`] if the component is ever re-bound to a
/// different sink.
#[derive(Debug, Default)]
pub struct SiteCounter {
    id: Cell<Option<CounterId>>,
}

impl SiteCounter {
    /// Creates an unbound site handle.
    pub fn new() -> SiteCounter {
        SiteCounter::default()
    }

    /// Adds `delta` to the counter, interning `name` on the first call.
    ///
    /// For dynamically-named sites prefer [`SiteCounter::add_with`], which
    /// defers building the name to the one call that needs it.
    #[inline]
    pub fn add(&self, t: &Telemetry, name: &str, delta: u64) {
        match self.id.get() {
            Some(id) => t.add_by_id(id, delta),
            None => {
                let id = t.counter_id(name);
                self.id.set(Some(id));
                t.add_by_id(id, delta);
            }
        }
    }

    /// Adds `delta`, building the name with `name()` only on the first
    /// call — the `format!` for a dynamic counter name runs once per site,
    /// not once per packet.
    #[inline]
    pub fn add_with(&self, t: &Telemetry, name: impl FnOnce() -> String, delta: u64) {
        match self.id.get() {
            Some(id) => t.add_by_id(id, delta),
            None => {
                let id = t.counter_id(&name());
                self.id.set(Some(id));
                t.add_by_id(id, delta);
            }
        }
    }

    /// Drops the cached id (for components re-bound to a new sink).
    pub fn reset(&self) {
        self.id.set(None);
    }
}

/// The gauge counterpart of [`SiteCounter`].
#[derive(Debug, Default)]
pub struct SiteGauge {
    id: Cell<Option<GaugeId>>,
}

impl SiteGauge {
    /// Creates an unbound site handle.
    pub fn new() -> SiteGauge {
        SiteGauge::default()
    }

    /// Sets the gauge, building the name with `name()` only on the first
    /// call.
    #[inline]
    pub fn set_with(&self, t: &Telemetry, name: impl FnOnce() -> String, value: f64) {
        match self.id.get() {
            Some(id) => t.set_gauge_by_id(id, value),
            None => {
                let id = t.gauge_id(&name());
                self.id.set(Some(id));
                t.set_gauge_by_id(id, value);
            }
        }
    }

    /// Drops the cached id (for components re-bound to a new sink).
    pub fn reset(&self) {
        self.id.set(None);
    }
}

struct Inner {
    records: Vec<TraceRecord>,
    registry: CounterRegistry,
}

/// Shared handle to a simulation's telemetry sink.
///
/// Cloning is cheap (an `Rc` bump); the handle returned by
/// [`Sim::enable_telemetry`](crate::Sim::enable_telemetry) stays valid for
/// the life of the simulation and can be queried mid-run or after.
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Telemetry")
            .field("events", &inner.records.len())
            .field("counters", &inner.registry.counter_ids.len())
            .field("gauges", &inner.registry.gauge_ids.len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Creates an empty sink (normally done through
    /// [`Sim::enable_telemetry`](crate::Sim::enable_telemetry)).
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Rc::new(RefCell::new(Inner {
                records: Vec::new(),
                registry: CounterRegistry::new(),
            })),
        }
    }

    /// Appends an event stamped at `at`.
    pub fn record(&self, at: Time, event: TraceEvent) {
        self.inner
            .borrow_mut()
            .records
            .push(TraceRecord { at, event });
    }

    /// Adds `delta` to counter `name` (auto-registering).
    pub fn count(&self, name: &str, delta: u64) {
        self.inner.borrow_mut().registry.add(name, delta);
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.inner.borrow_mut().registry.set_gauge(name, value);
    }

    /// Interns counter `name` (creating it at zero if new) and returns a
    /// stable [`CounterId`] for hot-path increments via
    /// [`Telemetry::add_by_id`].
    ///
    /// Per-packet instrumentation sites call this once — typically caching
    /// the id in a `Cell` next to the component state — so the steady
    /// state pays a vector index instead of a name lookup per packet.
    pub fn counter_id(&self, name: &str) -> CounterId {
        self.inner.borrow_mut().registry.intern(name)
    }

    /// Adds `delta` to an interned counter — the hot-path increment.
    #[inline]
    pub fn add_by_id(&self, id: CounterId, delta: u64) {
        self.inner.borrow_mut().registry.add_by_id(id, delta);
    }

    /// Current value of an interned counter.
    pub fn counter_by_id(&self, id: CounterId) -> u64 {
        self.inner.borrow().registry.get_by_id(id)
    }

    /// Interns gauge `name` and returns a stable [`GaugeId`] for hot-path
    /// samples via [`Telemetry::set_gauge_by_id`].
    pub fn gauge_id(&self, name: &str) -> GaugeId {
        self.inner.borrow_mut().registry.intern_gauge(name)
    }

    /// Sets an interned gauge — the hot-path sample.
    #[inline]
    pub fn set_gauge_by_id(&self, id: GaugeId, value: f64) {
        self.inner.borrow_mut().registry.set_gauge_by_id(id, value);
    }

    /// Current value of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().registry.get(name)
    }

    /// Sorted snapshot of every counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.borrow().registry.snapshot()
    }

    /// Current value of gauge `name`, or `None` if it was never set.
    ///
    /// This is the read side the control plane uses to observe published
    /// occupancy/utilization gauges without walking a full snapshot.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.borrow().registry.get_gauge(name)
    }

    /// Sorted snapshot of every gauge.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.inner.borrow().registry.gauges()
    }

    /// Number of trace events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// Runs `f` over the recorded events without copying them.
    pub fn with_records<R>(&self, f: impl FnOnce(&[TraceRecord]) -> R) -> R {
        f(&self.inner.borrow().records)
    }

    /// Serializes the trace as JSONL: one JSON object per event, in
    /// recording order, each with `ts_ns`, `kind`, `track`, and the
    /// event's own fields under `args`.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(inner.records.len() * 96);
        for r in &inner.records {
            let _ = write!(out, "{{\"ts_ns\":{},\"kind\":", r.at.as_nanos());
            push_json_string(&mut out, r.event.kind());
            out.push_str(",\"track\":");
            push_json_string(&mut out, &r.event.track());
            out.push_str(",\"args\":");
            r.event.write_args_json(&mut out);
            out.push_str("}\n");
        }
        out
    }

    /// Serializes the trace in Chrome `trace_event` JSON format.
    ///
    /// Load the result in `chrome://tracing` or Perfetto. Each track maps
    /// to a thread (named via `thread_name` metadata events, tids assigned
    /// in order of first appearance). [`TraceEvent::AccelStart`] /
    /// [`TraceEvent::AccelComplete`] pairs become duration (`B`/`E`)
    /// events so accelerator service time renders as spans; everything
    /// else is an instant (`i`) event. Timestamps are microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let inner = self.inner.borrow();
        let mut tids: BTreeMap<String, u64> = BTreeMap::new();
        let mut next_tid = 1u64;
        let mut meta = String::new();
        let mut body = String::new();
        for r in &inner.records {
            let track = r.event.track();
            let tid = match tids.get(&track) {
                Some(&t) => t,
                None => {
                    let t = next_tid;
                    next_tid += 1;
                    tids.insert(track.clone(), t);
                    let _ = write!(
                        meta,
                        ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":"
                    );
                    push_json_string(&mut meta, &track);
                    meta.push_str("}}");
                    t
                }
            };
            let ph = match r.event {
                TraceEvent::AccelStart { .. } => "B",
                TraceEvent::AccelComplete { .. } => "E",
                _ => "i",
            };
            body.push_str(",\n{\"name\":");
            push_json_string(&mut body, r.event.kind());
            let _ = write!(body, ",\"ph\":\"{ph}\"");
            if ph == "i" {
                body.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                body,
                ",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"args\":",
                r.at.as_micros_f64()
            );
            r.event.write_args_json(&mut body);
            body.push('}');
        }
        let mut out = String::with_capacity(meta.len() + body.len() + 128);
        out.push_str(
            "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"lynx-sim\"}}",
        );
        out.push_str(&meta);
        out.push_str(&body);
        out.push_str("\n]}\n");
        out
    }

    /// Serializes counters then gauges as CSV (`name,value`, sorted).
    pub fn counters_csv(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("name,value\n");
        for (k, v) in inner.registry.iter_counters() {
            let _ = writeln!(out, "{k},{v}");
        }
        for (k, v) in inner.registry.gauges() {
            let _ = writeln!(out, "{k},{v}");
        }
        out
    }

    /// Writes [`Telemetry::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Writes [`Telemetry::to_chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_value_reads_back_and_misses_cleanly() {
        let t = Telemetry::new();
        assert_eq!(t.gauge_value("mq.depth"), None);
        t.gauge("mq.depth", 12.5);
        assert_eq!(t.gauge_value("mq.depth"), Some(12.5));
        t.gauge("mq.depth", 3.0);
        assert_eq!(t.gauge_value("mq.depth"), Some(3.0));
    }

    #[test]
    fn add_auto_registers_and_accumulates() {
        let mut reg = CounterRegistry::new();
        reg.add("x", 2);
        reg.add("x", 5);
        assert_eq!(reg.get("x"), 7);
        assert_eq!(reg.get("never"), 0);
    }

    #[test]
    fn snapshots_are_name_sorted() {
        let mut reg = CounterRegistry::new();
        reg.add("zeta", 1);
        reg.add("alpha", 2);
        reg.add("mid", 3);
        reg.set_gauge("z.g", 0.5);
        reg.set_gauge("a.g", 1.5);
        let names: Vec<_> = reg.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        let gnames: Vec<_> = reg.gauges().into_iter().map(|(n, _)| n).collect();
        assert_eq!(gnames, vec!["a.g", "z.g"]);
    }

    #[test]
    fn interned_ids_alias_the_string_api() {
        let mut reg = CounterRegistry::new();
        let id = reg.intern("pkts");
        reg.add_by_id(id, 5);
        reg.add("pkts", 2); // string API hits the same slot
        assert_eq!(reg.get("pkts"), 7);
        assert_eq!(reg.get_by_id(id), 7);
        assert_eq!(reg.intern("pkts"), id, "interning is idempotent");

        let g = reg.intern_gauge("depth");
        assert_eq!(reg.get_gauge("depth"), None, "unset gauge reads absent");
        reg.set_gauge_by_id(g, 3.5);
        assert_eq!(reg.get_gauge("depth"), Some(3.5));
        reg.set_gauge("depth", 4.5);
        assert_eq!(reg.get_gauge("depth"), Some(4.5));
    }

    #[test]
    fn merge_from_assigns_thread_invariant_ids() {
        // Two shards touch overlapping counter sets in different
        // first-touch orders. Whatever grouping the merge arrives in, the
        // merged registry must hand out the same CounterId per name.
        let mut shard_a = CounterRegistry::new();
        shard_a.add("zeta.pkts", 10);
        shard_a.add("alpha.pkts", 1);
        let mut shard_b = CounterRegistry::new();
        shard_b.add("mid.pkts", 5);
        shard_b.add("alpha.pkts", 2);
        shard_b.set_gauge("mq.depth", 7.0);

        // "1 thread": merge a then b. "2 threads": merge b then a.
        let mut one = CounterRegistry::new();
        one.merge_from(&shard_a);
        one.merge_from(&shard_b);
        let mut two = CounterRegistry::new();
        two.merge_from(&shard_b);
        two.merge_from(&shard_a);

        assert_eq!(one.snapshot(), two.snapshot());
        assert_eq!(one.get("alpha.pkts"), 3, "overlapping counters sum");
        assert_eq!(one.get_gauge("mq.depth"), Some(7.0));
        // Within one merge call, ids are a function of the sorted name
        // set, not of first-touch order inside the source shard.
        assert!(one.id_of("alpha.pkts").unwrap() < one.id_of("zeta.pkts").unwrap());
        assert_eq!(one.id_of("missing"), None);
        assert!(one.gauge_id_of("mq.depth").is_some());
        assert_eq!(one.gauge_id_of("missing"), None);
    }

    #[test]
    fn interned_counters_keep_snapshots_sorted() {
        let mut reg = CounterRegistry::new();
        let z = reg.intern("zeta");
        let a = reg.intern("alpha");
        reg.add_by_id(z, 1);
        reg.add_by_id(a, 2);
        assert_eq!(
            reg.snapshot(),
            vec![("alpha".to_string(), 2), ("zeta".to_string(), 1)],
            "snapshot order is by name, not by interning order"
        );
        let g = reg.intern_gauge("never-set");
        let _ = g;
        assert!(reg.gauges().is_empty(), "unset gauges stay out of exports");
    }

    #[test]
    fn site_counter_interns_once() {
        let t = Telemetry::new();
        let site = SiteCounter::new();
        let mut formats = 0;
        for _ in 0..5 {
            site.add_with(
                &t,
                || {
                    formats += 1;
                    format!("net.{}.rx_msgs", "h0")
                },
                2,
            );
        }
        assert_eq!(formats, 1, "dynamic name is built exactly once");
        assert_eq!(t.counter("net.h0.rx_msgs"), 10);
        site.reset();
        site.add(&t, "net.h0.rx_msgs", 1);
        assert_eq!(t.counter("net.h0.rx_msgs"), 11);

        let g = SiteGauge::new();
        g.set_with(&t, || "q.depth".to_string(), 2.0);
        g.set_with(&t, || unreachable!("name must be cached"), 3.0);
        assert_eq!(t.gauges(), vec![("q.depth".to_string(), 3.0)]);
    }

    #[test]
    fn telemetry_handle_id_api() {
        let t = Telemetry::new();
        let id = t.counter_id("hot.path");
        t.add_by_id(id, 3);
        t.add_by_id(id, 4);
        assert_eq!(t.counter("hot.path"), 7);
        assert_eq!(t.counter_by_id(id), 7);
        let g = t.gauge_id("hot.depth");
        t.set_gauge_by_id(g, 0.5);
        assert_eq!(t.gauges(), vec![("hot.depth".to_string(), 0.5)]);
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = CounterRegistry::new();
        reg.set_gauge("util", 0.25);
        reg.set_gauge("util", 0.75);
        assert_eq!(reg.get_gauge("util"), Some(0.75));
        assert_eq!(reg.get_gauge("missing"), None);
    }

    #[test]
    fn jsonl_serializes_every_variant() {
        let t = Telemetry::new();
        t.record(
            Time::from_nanos(10),
            TraceEvent::PacketRx {
                host: "h0".into(),
                proto: "udp",
                bytes: 64,
            },
        );
        t.record(
            Time::from_nanos(20),
            TraceEvent::Dispatch {
                policy: "round_robin",
                queue: Some("gpu0+0x0".into()),
            },
        );
        t.record(
            Time::from_nanos(25),
            TraceEvent::Dispatch {
                policy: "round_robin",
                queue: None,
            },
        );
        t.record(
            Time::from_nanos(30),
            TraceEvent::Enqueue {
                queue: "gpu0+0x0".into(),
                seq: 0,
                bytes: 64,
            },
        );
        t.record(
            Time::from_nanos(40),
            TraceEvent::AccelStart {
                queue: "gpu0+0x0".into(),
                seq: 0,
            },
        );
        t.record(
            Time::from_nanos(50),
            TraceEvent::AccelComplete {
                queue: "gpu0+0x0".into(),
                seq: 0,
                bytes: 64,
            },
        );
        t.record(
            Time::from_nanos(60),
            TraceEvent::Forward {
                queue: "gpu0+0x0".into(),
                seq: 0,
                bytes: 64,
            },
        );
        t.record(
            Time::from_nanos(70),
            TraceEvent::PacketTx {
                host: "h1".into(),
                proto: "udp",
                bytes: 64,
            },
        );
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 8);
        assert!(jsonl.contains("\"ts_ns\":10,\"kind\":\"PacketRx\""));
        assert!(jsonl.contains("\"queue\":null"));
        assert!(jsonl.contains("\"track\":\"mqueue/gpu0+0x0\""));
        assert!(jsonl.contains("\"track\":\"accel/gpu0+0x0\""));
        // Every line must parse as a flat JSON object (sanity: balanced
        // braces, ends with }).
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn jsonl_serializes_fault_and_recovery_variants() {
        let t = Telemetry::new();
        t.record(
            Time::from_nanos(5),
            TraceEvent::FaultInject {
                site: "rdma.write.gpu0".into(),
                kind: "cqe_error",
            },
        );
        t.record(
            Time::from_nanos(10),
            TraceEvent::Quarantine {
                queue: "gpu0+0x0".into(),
            },
        );
        t.record(
            Time::from_nanos(15),
            TraceEvent::RmqRetry {
                queue: "gpu0+0x0".into(),
                attempt: 1,
            },
        );
        t.record(
            Time::from_nanos(20),
            TraceEvent::RmqGiveUp {
                queue: "gpu0+0x0".into(),
                attempts: 4,
            },
        );
        t.record(
            Time::from_nanos(25),
            TraceEvent::Readmit {
                queue: "gpu0+0x0".into(),
            },
        );
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("\"kind\":\"FaultInject\",\"track\":\"faults\""));
        assert!(jsonl.contains("\"site\":\"rdma.write.gpu0\",\"fault\":\"cqe_error\""));
        assert!(jsonl.contains("\"kind\":\"Quarantine\",\"track\":\"dispatcher\""));
        assert!(jsonl.contains("\"kind\":\"Readmit\",\"track\":\"dispatcher\""));
        assert!(jsonl.contains("\"kind\":\"RmqRetry\",\"track\":\"mqueue/gpu0+0x0\""));
        assert!(jsonl.contains("\"attempt\":1"));
        assert!(jsonl.contains("\"attempts\":4"));
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn chrome_trace_assigns_tids_by_first_appearance() {
        let t = Telemetry::new();
        t.record(
            Time::from_micros(1),
            TraceEvent::Custom {
                track: "beta".into(),
                name: "e1".into(),
                detail: String::new(),
            },
        );
        t.record(
            Time::from_micros(2),
            TraceEvent::Custom {
                track: "alpha".into(),
                name: "e2".into(),
                detail: String::new(),
            },
        );
        let trace = t.to_chrome_trace();
        // "beta" appeared first so it gets tid 1, "alpha" tid 2 — ordering
        // is by appearance, not by name.
        assert!(trace.contains("\"tid\":1,\"args\":{\"name\":\"beta\"}"));
        assert!(trace.contains("\"tid\":2,\"args\":{\"name\":\"alpha\"}"));
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.trim_end().ends_with("]}"));
    }

    #[test]
    fn accel_events_become_duration_pairs() {
        let t = Telemetry::new();
        t.record(
            Time::from_micros(5),
            TraceEvent::AccelStart {
                queue: "q".into(),
                seq: 1,
            },
        );
        t.record(
            Time::from_micros(9),
            TraceEvent::AccelComplete {
                queue: "q".into(),
                seq: 1,
                bytes: 8,
            },
        );
        let trace = t.to_chrome_trace();
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let t = Telemetry::new();
            t.count("b", 1);
            t.count("a", 2);
            t.gauge("g", 0.125);
            t.record(
                Time::from_nanos(7),
                TraceEvent::PacketRx {
                    host: "h9".into(),
                    proto: "tcp",
                    bytes: 1500,
                },
            );
            (t.to_jsonl(), t.to_chrome_trace(), t.counters_csv())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn counters_csv_lists_counters_then_gauges() {
        let t = Telemetry::new();
        t.count("req", 9);
        t.gauge("util", 0.5);
        assert_eq!(t.counters_csv(), "name,value\nreq,9\nutil,0.5\n");
    }
}
