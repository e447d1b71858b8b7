//! The discrete-event scheduler.
//!
//! Events execute in `(time, insertion-sequence)` order, kept by one global
//! `BinaryHeap`. Sequence numbers break ties, so two runs with the same
//! seed and the same schedule calls pop the exact same event sequence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::{FaultAction, FaultInjector, FaultPlan};
use crate::payload::BufferPool;
use crate::telemetry::{Telemetry, TraceEvent};
use crate::Time;

type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Entry {
    at: Time,
    seq: u64,
    f: EventFn,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    /// Reversed ordering so that `BinaryHeap` (a max-heap) pops the
    /// earliest `(time, seq)` pair first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulator.
///
/// Events are closures executed in `(time, insertion-sequence)` order, which
/// makes runs with the same seed and same schedule calls bit-for-bit
/// reproducible. Model components hold `Rc<RefCell<_>>` state and schedule
/// follow-up events from inside their handlers.
///
/// # Example
///
/// ```
/// use lynx_sim::Sim;
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use std::time::Duration;
///
/// let mut sim = Sim::new(7);
/// let hits = Rc::new(Cell::new(0));
/// for i in 0..3u64 {
///     let hits = Rc::clone(&hits);
///     sim.schedule_in(Duration::from_micros(i), move |_| {
///         hits.set(hits.get() + 1);
///     });
/// }
/// sim.run();
/// assert_eq!(hits.get(), 3);
/// ```
pub struct Sim {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Entry>,
    rng: StdRng,
    seed: u64,
    stopped: bool,
    executed: u64,
    telemetry: Option<Telemetry>,
    faults: Option<FaultInjector>,
    pool: BufferPool,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .field("seed", &self.seed)
            .field("stopped", &self.stopped)
            .field("telemetry", &self.telemetry.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl Sim {
    /// Creates a simulator whose random stream is derived from `seed`.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: Time::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            stopped: false,
            executed: 0,
            telemetry: None,
            faults: None,
            pool: BufferPool::new(),
        }
    }

    /// The simulator's scratch-buffer pool (a cheap clone of the handle).
    ///
    /// Hot-path encoders take recycled `Vec<u8>`s from here instead of
    /// allocating; see [`BufferPool`].
    #[inline]
    pub fn buffers(&self) -> BufferPool {
        self.pool.clone()
    }

    /// Attaches a [`Telemetry`] sink (idempotent) and returns a handle to
    /// it. Until this is called, every [`Sim::trace`] / [`Sim::count`] /
    /// [`Sim::gauge`] hook is a no-op costing one `Option` check.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        self.telemetry.get_or_insert_with(Telemetry::new).clone()
    }

    /// The attached telemetry sink, if [`Sim::enable_telemetry`] was
    /// called. Instrumentation sites that need to build dynamic counter
    /// names guard on this so the disabled path allocates nothing.
    #[inline]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Records a trace event stamped at the current simulated time.
    ///
    /// The closure only runs when telemetry is enabled, so event
    /// construction (and its `String` allocations) costs nothing when
    /// disabled.
    #[inline]
    pub fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.telemetry {
            t.record(self.now, event());
        }
    }

    /// Adds `delta` to counter `name` when telemetry is enabled.
    ///
    /// Takes a `&'static str` so the disabled path never formats a name;
    /// sites with dynamic names go through [`Sim::telemetry`] instead, and
    /// per-packet sites intern a
    /// [`CounterId`](crate::telemetry::CounterId) once and use
    /// [`Telemetry::add_by_id`] thereafter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(t) = &self.telemetry {
            t.count(name, delta);
        }
    }

    /// Sets gauge `name` to `value` when telemetry is enabled.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(t) = &self.telemetry {
            t.gauge(name, value);
        }
    }

    /// Arms a [`FaultPlan`]: from now on, instrumented components that call
    /// [`Sim::fault_at`] may be struck by the plan's rules. Until this is
    /// called every fault hook is a no-op costing one `Option` check, and
    /// model timing is bit-identical to a build without fault support.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Whether a fault plan is armed. Components use this to skip building
    /// dynamic site names — and to keep recovery watchdogs disarmed — on the
    /// fault-free fast path.
    #[inline]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Consults the armed fault plan for an operation at `site`.
    ///
    /// Returns the [`FaultAction`] striking this operation, if any. Counts
    /// `faults.injected.<kind>` and records a
    /// [`FaultInject`](TraceEvent::FaultInject) trace event when telemetry
    /// is enabled. Always `None` when no plan is armed.
    pub fn fault_at(&mut self, site: &str) -> Option<FaultAction> {
        let injector = self.faults.as_mut()?;
        let action = injector.decide(site, self.now)?;
        if let Some(t) = &self.telemetry {
            let kind = action.kind();
            t.count(&format!("faults.injected.{kind}"), 1);
            t.record(
                self.now,
                TraceEvent::FaultInject {
                    site: site.to_string(),
                    kind,
                },
            );
        }
        Some(action)
    }

    /// Total faults injected so far (0 when no plan is armed).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected())
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mutable access to the deterministic random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Derives a named random stream from this simulator's seed (see
    /// [`rng::derive_seed`](crate::rng::derive_seed)).
    ///
    /// Unlike [`Sim::rng`], draws from a named stream are insensitive to
    /// every other consumer's draw order, so components that must stay
    /// reproducible under refactoring — or that run on different shards
    /// of a partitioned run — should derive their own stream.
    pub fn rng_stream(&self, name: &str) -> crate::rng::RngStream {
        crate::rng::RngStream::derive(self.seed, name)
    }

    /// Timestamp of the earliest pending event, or `None` when the queue
    /// is empty. The partitioned engine uses this to fast-forward idle
    /// windows deterministically; it never changes execution order.
    pub fn next_event_at(&self) -> Option<Time> {
        self.queue.peek().map(|e| e.at)
    }

    /// Number of events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `f` to run after `delay` of simulated time.
    pub fn schedule_in(&mut self, delay: Duration, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules `f` to run at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event runs before any
    /// later event, preserving causality.
    pub fn schedule_at(&mut self, at: Time, f: impl FnOnce(&mut Sim) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Requests the current [`Sim::run`] loop to stop after the event in
    /// progress returns. Pending events are retained.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Runs until the event queue drains or [`Sim::stop`] is called.
    pub fn run(&mut self) {
        self.run_until(Time::MAX);
    }

    /// Runs every event scheduled at or before `deadline`, then advances the
    /// clock to `deadline` (unless the queue drained earlier or the run was
    /// stopped, in which case the clock stays at the last event).
    pub fn run_until(&mut self, deadline: Time) {
        self.stopped = false;
        while let Some(entry) = self.pop_due(deadline) {
            debug_assert!(entry.at >= self.now, "event queue went back in time");
            self.now = entry.at;
            self.executed += 1;
            (entry.f)(self);
            if self.stopped {
                return;
            }
        }
        if deadline != Time::MAX {
            self.now = self.now.max(deadline);
        }
    }

    /// Pops the earliest pending event if it is due at or before
    /// `deadline`.
    #[inline]
    fn pop_due(&mut self, deadline: Time) -> Option<Entry> {
        if self.queue.peek()?.at > deadline {
            return None;
        }
        self.queue.pop()
    }

    /// Runs for `window` of simulated time starting from the current instant.
    pub fn run_for(&mut self, window: Duration) {
        let deadline = self.now + window;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, us) in [5u64, 1, 3].into_iter().enumerate() {
            let order = Rc::clone(&order);
            sim.schedule_in(Duration::from_micros(us), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(sim.now(), Time::from_micros(5));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16 {
            let order = Rc::clone(&order);
            sim.schedule_at(Time::from_micros(7), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_works() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        let hits2 = Rc::clone(&hits);
        sim.schedule_in(Duration::from_micros(1), move |sim| {
            let hits3 = Rc::clone(&hits2);
            sim.schedule_in(Duration::from_micros(1), move |_| {
                *hits3.borrow_mut() += 1;
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(sim.now(), Time::from_micros(2));
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Sim::new(1);
        sim.schedule_in(Duration::from_micros(1), |_| {});
        sim.schedule_in(Duration::from_millis(10), |_| panic!("must not run"));
        sim.run_until(Time::from_micros(100));
        assert_eq!(sim.now(), Time::from_micros(100));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new(1);
        sim.schedule_in(Duration::from_micros(10), |sim| {
            // Absolute time in the past: must still execute, at `now`.
            sim.schedule_at(Time::from_micros(1), |sim| {
                assert_eq!(sim.now(), Time::from_micros(10));
            });
        });
        sim.run();
        assert_eq!(sim.executed(), 2);
    }

    #[test]
    fn stop_halts_processing() {
        let mut sim = Sim::new(1);
        sim.schedule_in(Duration::from_micros(1), |sim| sim.stop());
        sim.schedule_in(Duration::from_micros(2), |_| panic!("must not run"));
        sim.run();
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn deterministic_rng_across_runs() {
        use rand::Rng;
        let draw = |seed| {
            let mut sim = Sim::new(seed);
            let v: u64 = sim.rng().gen();
            v
        };
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
    }

    #[test]
    fn nested_far_future_chain_runs_in_order() {
        // A chain where each event schedules the next one 1.5 ms out.
        let mut sim = Sim::new(5);
        let order = Rc::new(RefCell::new(Vec::new()));
        fn chain(sim: &mut Sim, order: Rc<RefCell<Vec<u64>>>, depth: u64) {
            if depth == 6 {
                return;
            }
            let o2 = Rc::clone(&order);
            sim.schedule_in(Duration::from_micros(1_500), move |sim| {
                o2.borrow_mut().push(depth);
                chain(sim, order, depth + 1);
            });
        }
        chain(&mut sim, Rc::clone(&order), 0);
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), Time::from_micros(9_000));
    }

    #[test]
    fn pending_counts_near_and_far_events() {
        let mut sim = Sim::new(1);
        sim.schedule_at(Time::from_nanos(10), |_| {});
        sim.schedule_at(Time::from_micros(100), |_| {});
        sim.schedule_at(Time::from_millis(50), |_| {});
        assert_eq!(sim.pending(), 3);
        sim.run_until(Time::from_micros(200));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn schedule_after_partial_run_keeps_order() {
        // After run_until advanced the clock, a new near-now event must
        // still run before older far events.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        sim.schedule_at(Time::from_millis(1), move |_| o.borrow_mut().push("far"));
        sim.run_until(Time::from_micros(500));
        let o = Rc::clone(&order);
        sim.schedule_in(Duration::from_micros(1), move |_| {
            o.borrow_mut().push("near")
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["near", "far"]);
    }
}
