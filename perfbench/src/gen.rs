//! The benchmark's load generator and its outcome ledger.
//!
//! Requests arrive by an open-loop Poisson process, or from closed-loop
//! logical clients with exponential think times ([`Plan::clients`]). Both
//! are drawn from the run's seed, never from the simulator's RNG, so the
//! same seed offers the same inputs to any build of the model. Every
//! attempted request is opened in a [`Ledger`] and closed exactly once, as
//! served, expected shed, refused, wrong, or unanswered. In-flight state is
//! bounded: each request holds one client UDP port until its response
//! arrives (even past its timeout, so a late response is never matched to
//! a newer request), and a request that finds every port busy is refused
//! at the client instead of growing any table. Timeouts close requests
//! lazily (on each send and at the drain deadline), so a dropped request
//! costs no extra simulator events.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::{Rc, Weak};
use std::time::{Duration, Instant};

use lynx_net::{HostStack, SockAddr};
use lynx_sim::{Sim, Time};

use crate::stats::Digest;

/// First client port a generator uses on each of its stacks.
pub const PORT_LO: u16 = 10_000;
/// Ports per client stack (`PORT_LO..PORT_LO + PORTS_PER_STACK`).
pub const PORTS_PER_STACK: usize = 30_000;

/// Terminal state of one attempted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Still in flight.
    Pending,
    /// Answered with a response that passed its check.
    Served,
    /// Answered with the shed marker where shedding is the correct answer
    /// (the quota-zero tenant): correct, but not served work.
    Shed,
    /// Refused: the server's shed marker where a response was due, or no
    /// free client port.
    Refused,
    /// Answered with a response that failed its check.
    Wrong,
    /// No response before the request's timeout or the drain deadline.
    Unanswered,
}

/// A workload's judgement of one response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The response is correct.
    Served,
    /// The response is the shed marker, and shedding is correct here.
    Shed,
    /// The response is the shed marker where a response was due.
    Refused,
    /// The response is wrong; the reason is printed with the request id.
    Wrong(String),
}

/// The request stream of one workload: payloads and response checks.
pub trait Load {
    /// Payload of request `id` from logical client `client` (always 0 for
    /// open-loop arrivals); called once for every attempted request, in id
    /// order and at its due time, even for one then refused at the client.
    fn request(&mut self, id: u64, client: u32) -> Vec<u8>;
    /// Judges the response to request `id`.
    fn check(&mut self, id: u64, response: &[u8]) -> Verdict;
    /// Write requests issued so far (the KV SETs).
    fn writes(&self) -> u64 {
        0
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    due: u64,
    done: u64,
    outcome: Outcome,
}

/// Outcome counts of a ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests opened.
    pub attempted: u64,
    /// Closed as [`Outcome::Served`].
    pub served: u64,
    /// Closed as [`Outcome::Shed`].
    pub shed: u64,
    /// Closed as [`Outcome::Refused`].
    pub refused: u64,
    /// Closed as [`Outcome::Wrong`].
    pub wrong: u64,
    /// Closed as [`Outcome::Unanswered`].
    pub unanswered: u64,
    /// Not closed yet.
    pub pending: u64,
}

impl Tally {
    /// Requests that failed: refused, wrong or unanswered.
    pub fn failed(&self) -> u64 {
        self.refused + self.wrong + self.unanswered
    }

    /// Whether every attempted request ended in exactly one outcome.
    pub fn balanced(&self) -> bool {
        self.pending == 0
            && self.served + self.shed + self.refused + self.wrong + self.unanswered
                == self.attempted
    }

    /// Adds another tally (one replica of a sharded run) to this one.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.served += o.served;
        self.shed += o.shed;
        self.refused += o.refused;
        self.wrong += o.wrong;
        self.unanswered += o.unanswered;
        self.pending += o.pending;
    }
}

/// Every attempted request and the one outcome it ended in.
#[derive(Debug, Default)]
pub struct Ledger {
    entries: Vec<Entry>,
}

impl Ledger {
    /// Opens a request due at `due_ns`; returns its id.
    pub fn open(&mut self, due_ns: u64) -> u64 {
        self.entries.push(Entry {
            due: due_ns,
            done: 0,
            outcome: Outcome::Pending,
        });
        self.entries.len() as u64 - 1
    }

    /// Closes request `id` at `now_ns`. Returns `false`, changing
    /// nothing, when the request was already closed (a late response).
    pub fn close(&mut self, id: u64, outcome: Outcome, now_ns: u64) -> bool {
        assert_ne!(outcome, Outcome::Pending, "closing as pending");
        let e = &mut self.entries[id as usize];
        if e.outcome != Outcome::Pending {
            return false;
        }
        e.outcome = outcome;
        e.done = now_ns;
        true
    }

    /// Closes every still-pending request as unanswered.
    pub fn close_pending(&mut self, now_ns: u64) {
        for e in &mut self.entries {
            if e.outcome == Outcome::Pending {
                e.outcome = Outcome::Unanswered;
                e.done = now_ns;
            }
        }
    }

    /// Outcome counts.
    pub fn tally(&self) -> Tally {
        let mut t = Tally {
            attempted: self.entries.len() as u64,
            ..Tally::default()
        };
        for e in &self.entries {
            match e.outcome {
                Outcome::Pending => t.pending += 1,
                Outcome::Served => t.served += 1,
                Outcome::Shed => t.shed += 1,
                Outcome::Refused => t.refused += 1,
                Outcome::Wrong => t.wrong += 1,
                Outcome::Unanswered => t.unanswered += 1,
            }
        }
        t
    }

    fn entry(&self, id: u64) -> &Entry {
        &self.entries[id as usize]
    }
}

/// Offered load and windows of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Offered open-loop rate, requests per simulated second.
    pub rate: f64,
    /// The offered rate ramps linearly from 0 to `rate` over this time
    /// (lets caches and residency warm up without a cold-start overload).
    pub ramp: Duration,
    /// Steady-rate arrivals after the ramp and before the measured window (counted in the ledger, not in
    /// the latency statistics).
    pub warmup: Duration,
    /// The measured window.
    pub measure: Duration,
    /// A request unanswered this long after its due time is closed as
    /// unanswered and frees its port; arrivals stop at the end of the
    /// measured window and the run drains for one timeout.
    pub timeout: Duration,
    /// Seed of the arrival process.
    pub seed: u64,
    /// `Some(n)`: `n` closed-loop logical clients offer `rate` between
    /// them (see [`Thinkers`]), and `ramp` is unused. `None`: open-loop
    /// Poisson arrivals.
    pub clients: Option<usize>,
}

impl Plan {
    fn start_ns(&self) -> u64 {
        (self.ramp + self.warmup).as_nanos() as u64
    }

    fn end_ns(&self) -> u64 {
        (self.ramp + self.warmup + self.measure).as_nanos() as u64
    }

    /// The drain deadline: the end of arrivals plus one timeout.
    pub fn deadline(&self) -> Time {
        Time::from_nanos(self.end_ns() + self.timeout.as_nanos() as u64)
    }
}

/// SplitMix64: the generator's own deterministic stream.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser: a stateless hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Poisson arrivals: a unit-rate stream mapped through the inverse of the
/// cumulative offered load, so runs of one seed at different rates see the
/// same arrival pattern stretched in time (common random numbers for the
/// capacity search).
#[derive(Clone, Debug)]
struct Arrivals {
    rng: SplitMix,
    unit_t: f64,
    rate: f64,
    ramp_s: f64,
}

impl Arrivals {
    fn next_ns(&mut self) -> u64 {
        self.unit_t += -(1.0 - self.rng.next_f64()).ln();
        // Load offered by the end of the ramp, where the intensity
        // rate * t / ramp_s has integrated to rate * ramp_s / 2.
        let ramp_load = self.rate * self.ramp_s / 2.0;
        let t = if self.unit_t < ramp_load {
            (2.0 * self.unit_t * self.ramp_s / self.rate).sqrt()
        } else {
            self.ramp_s + (self.unit_t - ramp_load) / self.rate
        };
        (t * 1e9) as u64
    }
}

/// Closed-loop logical clients. Each has at most one request outstanding
/// and sends its next one an exponential think time after the last one
/// closed, whatever its outcome (a timeout included, so a dropped request
/// never stalls its client). Each client's first request also comes one
/// think time after the start: with memoryless think times the clients
/// start in their steady state, offering `clients / mean think` requests
/// per second with no ramp.
#[derive(Debug)]
struct Thinkers {
    /// `(due ns, client)` of every client that is thinking.
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    mean_ns: f64,
    seed: u64,
}

impl Thinkers {
    fn new(clients: usize, rate: f64, seed: u64) -> Thinkers {
        let mut t = Thinkers {
            queue: BinaryHeap::with_capacity(clients),
            mean_ns: clients as f64 / rate * 1e9,
            seed,
        };
        for c in 0..clients as u32 {
            let due = t.think_ns(c, u64::MAX);
            t.queue.push(Reverse((due, c)));
        }
        t
    }

    /// Think time of `client` after its request `after` closed
    /// (`u64::MAX`: before its first request). A function of the pair
    /// alone, so event order cannot change it.
    fn think_ns(&self, client: u32, after: u64) -> u64 {
        let bits = mix(self.seed ^ mix(after ^ (u64::from(client) << 40)));
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        (-(1.0 - u).ln() * self.mean_ns) as u64
    }
}

/// Where a generator's requests come from.
#[derive(Debug)]
enum Source {
    /// Open-loop Poisson arrivals and the due time of the next one.
    Open(Arrivals, u64),
    /// Closed-loop logical clients.
    Closed(Thinkers),
}

impl Source {
    /// Due time of the next arrival.
    fn peek(&self) -> Option<u64> {
        match self {
            Source::Open(_, next) => Some(*next),
            Source::Closed(t) => t.queue.peek().map(|Reverse((due, _))| *due),
        }
    }

    /// Takes the next arrival: its due time and client.
    fn pop(&mut self) -> (u64, u32) {
        match self {
            Source::Open(a, next) => (std::mem::replace(next, a.next_ns()), 0),
            Source::Closed(t) => t.queue.pop().expect("a thinking client").0,
        }
    }

    /// Client `client`'s request `id` closed at `closed_ns`: it thinks
    /// before its next request, due no earlier than `not_before`. Returns
    /// that request's due time.
    fn requeue(&mut self, client: u32, id: u64, closed_ns: u64, not_before: u64) -> Option<u64> {
        let Source::Closed(t) = self else {
            return None;
        };
        let due = (closed_ns + t.think_ns(client, id)).max(not_before);
        t.queue.push(Reverse((due, client)));
        Some(due)
    }
}

/// What one run of a generator produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Outcome counts over every attempted request.
    pub tally: Tally,
    /// Requests due inside the measured window.
    pub measured: u64,
    /// Of those, the ones that failed.
    pub window_failed: u64,
    /// Latencies (ns, from due time) of served requests due inside the
    /// measured window, ascending.
    pub lat_ns: Vec<u64>,
    /// Requests in flight (not yet timed out) when arrivals stopped.
    pub backlog_at_end: u64,
    /// Responses that arrived for an already-closed request.
    pub late: u64,
    /// Wrong responses: `(request id, reason)`.
    pub wrong_log: Vec<(u64, String)>,
    /// Fingerprint of the ledger: every outcome and served latency.
    pub ledger_digest: u64,
    /// Host ns spent in the workload's payload and check closures
    /// (traced runs only).
    pub load_ns: u64,
    /// Host ns spent in all generator callbacks, closures included
    /// (traced runs only).
    pub callback_ns: u64,
    /// Write requests issued (see [`Load::writes`]).
    pub writes: u64,
    /// Length of the measured window.
    pub measure: Duration,
}

impl RunResult {
    /// Folds another replica's result into this one.
    pub fn merge(&mut self, o: RunResult) {
        self.tally.add(&o.tally);
        self.measured += o.measured;
        self.window_failed += o.window_failed;
        self.lat_ns.extend(o.lat_ns);
        self.lat_ns.sort_unstable();
        self.backlog_at_end += o.backlog_at_end;
        self.late += o.late;
        self.wrong_log.extend(o.wrong_log);
        let mut d = Digest::default();
        d.u64(self.ledger_digest);
        d.u64(o.ledger_digest);
        self.ledger_digest = d.value();
        self.load_ns += o.load_ns;
        self.callback_ns += o.callback_ns;
        self.writes += o.writes;
        self.measure = o.measure;
    }

    /// Latency percentile `p` in µs over the measured window, counting
    /// every failed request of the window as infinitely late.
    pub fn strict_percentile_us(&self, p: f64) -> f64 {
        let n = self.lat_ns.len() + self.window_failed as usize;
        if n == 0 {
            return f64::INFINITY;
        }
        self.lat_ns
            .get(crate::stats::rank(p, n) - 1)
            .map_or(f64::INFINITY, |&ns| ns as f64 / 1e3)
    }
}

struct State {
    load: Box<dyn Load>,
    stacks: Vec<HostStack>,
    dst: SockAddr,
    plan: Plan,
    source: Source,
    /// Due time of the live arrival event (`u64::MAX` when none), and its
    /// epoch: an arrival event of an older epoch was superseded by an
    /// earlier one and does nothing.
    armed: u64,
    epoch: u64,
    /// Client of every request (closed-loop runs only).
    client_of: Vec<u32>,
    ledger: Ledger,
    /// `id + 1` of the request holding each client port, 0 when free. A
    /// timed-out request keeps its port until its late response arrives,
    /// so a late response is never taken for a newer request's.
    slots: Vec<u64>,
    cursor: usize,
    in_flight: usize,
    /// Ports still held by requests already closed as unanswered.
    expired_held: usize,
    /// Ids in send order, for lazy expiry.
    fifo: VecDeque<u64>,
    backlog_at_end: u64,
    late: u64,
    wrong_log: Vec<(u64, String)>,
    timing: bool,
    load_ns: u64,
    callback_ns: u64,
}

impl State {
    fn free(&mut self, slot: u32) {
        self.slots[slot as usize] = 0;
        self.in_flight -= 1;
    }

    /// Closes request `id` as `outcome` at `at_ns` (`now_ns` in simulated
    /// time). A closed-loop client starts thinking; returns the due time
    /// of its next request when an arrival event must come earlier than
    /// the armed one.
    fn close(&mut self, id: u64, outcome: Outcome, at_ns: u64, now_ns: u64) -> Option<u64> {
        if !self.ledger.close(id, outcome, at_ns) {
            return None;
        }
        let client = *self.client_of.get(id as usize)?;
        let due = self.source.requeue(client, id, at_ns, now_ns)?;
        (due < self.armed && due < self.plan.end_ns()).then_some(due)
    }

    /// Closes requests whose timeout has passed (the oldest first).
    fn expire(&mut self, now_ns: u64) {
        let timeout = self.plan.timeout.as_nanos() as u64;
        while let Some(&id) = self.fifo.front() {
            let e = *self.ledger.entry(id);
            if e.outcome == Outcome::Pending {
                if e.due + timeout > now_ns {
                    break;
                }
                // The caller re-arms from the source after expiring.
                self.close(id, Outcome::Unanswered, e.due + timeout, now_ns);
                self.expired_held += 1;
            }
            self.fifo.pop_front();
        }
    }

    /// Finds a free client port, scanning from the cursor.
    fn alloc_slot(&mut self) -> Option<u32> {
        let n = self.slots.len();
        if self.in_flight == n {
            return None;
        }
        loop {
            let s = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            if self.slots[s] == 0 {
                return Some(s as u32);
            }
        }
    }
}

/// A load generator bound to one or more client stacks.
#[derive(Clone)]
pub struct Generator {
    state: Rc<RefCell<State>>,
}

impl Generator {
    /// Creates a generator sending `load`'s requests to `dst` from
    /// `stacks` under `plan`. With `timing`, it also times its callbacks
    /// on the host clock.
    pub fn new(
        load: Box<dyn Load>,
        stacks: Vec<HostStack>,
        dst: SockAddr,
        plan: Plan,
        timing: bool,
    ) -> Generator {
        assert!(plan.rate.is_finite() && plan.rate > 0.0, "invalid rate");
        assert!(!stacks.is_empty(), "a generator needs a client stack");
        let arrival_seed = mix(plan.seed ^ 0xA11_1BA1);
        let source = match plan.clients {
            Some(n) => Source::Closed(Thinkers::new(n, plan.rate, arrival_seed)),
            None => {
                let mut a = Arrivals {
                    rng: SplitMix::new(arrival_seed),
                    unit_t: 0.0,
                    rate: plan.rate,
                    ramp_s: plan.ramp.as_secs_f64(),
                };
                let first = a.next_ns();
                Source::Open(a, first)
            }
        };
        let state = Rc::new(RefCell::new(State {
            load,
            slots: vec![0; stacks.len() * PORTS_PER_STACK],
            stacks: stacks.clone(),
            dst,
            plan,
            source,
            armed: u64::MAX,
            epoch: 0,
            client_of: Vec::new(),
            ledger: Ledger::default(),
            cursor: 0,
            in_flight: 0,
            expired_held: 0,
            fifo: VecDeque::new(),
            backlog_at_end: 0,
            late: 0,
            wrong_log: Vec::new(),
            timing,
            load_ns: 0,
            callback_ns: 0,
        }));
        for (si, stack) in stacks.iter().enumerate() {
            // A weak handle: the stack owns the handler, and the generator
            // state owns the stack.
            let weak: Weak<RefCell<State>> = Rc::downgrade(&state);
            stack.bind_udp_default(move |sim, dgram| {
                if let Some(state) = weak.upgrade() {
                    on_response(&state, sim, si, dgram.dst.port, dgram.payload.as_slice());
                }
            });
        }
        Generator { state }
    }

    /// Schedules the first arrival and the end-of-arrivals snapshot.
    pub fn start(&self, sim: &mut Sim) {
        let (first, end) = {
            let s = self.state.borrow();
            (s.source.peek(), s.plan.end_ns())
        };
        if let Some(first) = first.filter(|&t| t < end) {
            arm(&self.state, sim, first);
        }
        let st = Rc::clone(&self.state);
        sim.schedule_at(Time::from_nanos(end), move |_| {
            let mut s = st.borrow_mut();
            s.backlog_at_end = (s.in_flight - s.expired_held) as u64;
        });
    }

    /// The run's drain deadline.
    pub fn deadline(&self) -> Time {
        self.state.borrow().plan.deadline()
    }

    /// Closes what is still pending as unanswered and summarises the run.
    /// Call once the simulation has reached [`Generator::deadline`].
    pub fn finish(&self, now: Time) -> RunResult {
        let mut s = self.state.borrow_mut();
        s.ledger.close_pending(now.as_nanos());
        let warm = s.plan.start_ns();
        let end = s.plan.end_ns();
        let mut r = RunResult {
            tally: s.ledger.tally(),
            backlog_at_end: s.backlog_at_end,
            late: s.late,
            wrong_log: std::mem::take(&mut s.wrong_log),
            load_ns: s.load_ns,
            callback_ns: s.callback_ns,
            writes: s.load.writes(),
            measure: s.plan.measure,
            ..RunResult::default()
        };
        let mut d = Digest::default();
        for e in &s.ledger.entries {
            let lat = e.done.saturating_sub(e.due);
            d.u64(((e.outcome as u64) << 56) | (lat & ((1 << 56) - 1)));
            if e.due < warm || e.due >= end {
                continue;
            }
            r.measured += 1;
            match e.outcome {
                Outcome::Served => r.lat_ns.push(lat),
                Outcome::Shed => {}
                _ => r.window_failed += 1,
            }
        }
        r.ledger_digest = d.value();
        r.lat_ns.sort_unstable();
        r
    }
}

/// Schedules the next arrival event at `at_ns`, superseding any armed one.
fn arm(state: &Rc<RefCell<State>>, sim: &mut Sim, at_ns: u64) {
    let epoch = {
        let mut s = state.borrow_mut();
        s.epoch += 1;
        s.armed = at_ns;
        s.epoch
    };
    let st = Rc::clone(state);
    sim.schedule_at(Time::from_nanos(at_ns), move |sim| tick(st, sim, epoch));
}

fn tick(state: Rc<RefCell<State>>, sim: &mut Sim, epoch: u64) {
    if state.borrow().epoch != epoch {
        return;
    }
    let t0 = state.borrow().timing.then(Instant::now);
    let now = sim.now().as_nanos();
    let sent = {
        let mut s = state.borrow_mut();
        s.armed = u64::MAX;
        s.expire(now);
        let (due, client) = s.source.pop();
        let id = s.ledger.open(due);
        if matches!(s.source, Source::Closed(_)) {
            s.client_of.push(client);
        }
        let l0 = s.timing.then(Instant::now);
        let payload = s.load.request(id, client);
        if let Some(l0) = l0 {
            s.load_ns += l0.elapsed().as_nanos() as u64;
        }
        match s.alloc_slot() {
            Some(slot) => {
                s.slots[slot as usize] = id + 1;
                s.in_flight += 1;
                s.fifo.push_back(id);
                let stack = s.stacks[slot as usize / PORTS_PER_STACK].clone();
                let port = PORT_LO + (slot as usize % PORTS_PER_STACK) as u16;
                Some((stack, port, s.dst, payload))
            }
            None => {
                // Every port is busy: refuse at the client, bounded.
                s.close(id, Outcome::Refused, now, now);
                None
            }
        }
    };
    let next = {
        let s = state.borrow();
        s.source.peek().filter(|&t| t < s.plan.end_ns())
    };
    if let Some(t0) = t0 {
        state.borrow_mut().callback_ns += t0.elapsed().as_nanos() as u64;
    }
    if let Some((stack, port, dst, payload)) = sent {
        stack.send_udp(sim, port, dst, payload);
    }
    if let Some(next) = next {
        arm(&state, sim, next.max(now));
    }
}

fn on_response(state: &Rc<RefCell<State>>, sim: &mut Sim, stack: usize, port: u16, payload: &[u8]) {
    let mut s = state.borrow_mut();
    let t0 = s.timing.then(Instant::now);
    let now = sim.now().as_nanos();
    let slot = stack * PORTS_PER_STACK + usize::from(port.wrapping_sub(PORT_LO));
    let holder = s.slots.get(slot).copied().unwrap_or(0);
    if holder != 0 {
        s.free(slot as u32);
    }
    let id = holder.wrapping_sub(1);
    let mut rearm = None;
    if holder == 0 || s.ledger.entry(id).outcome != Outcome::Pending {
        if holder != 0 {
            s.expired_held -= 1;
        }
        s.late += 1;
    } else {
        let l0 = s.timing.then(Instant::now);
        let verdict = s.load.check(id, payload);
        if let Some(l0) = l0 {
            s.load_ns += l0.elapsed().as_nanos() as u64;
        }
        let outcome = match verdict {
            Verdict::Served => Outcome::Served,
            Verdict::Shed => Outcome::Shed,
            Verdict::Refused => Outcome::Refused,
            Verdict::Wrong(why) => {
                s.wrong_log.push((id, why));
                Outcome::Wrong
            }
        };
        rearm = s.close(id, outcome, now, now);
    }
    if let Some(t0) = t0 {
        s.callback_ns += t0.elapsed().as_nanos() as u64;
    }
    drop(s);
    if let Some(at) = rearm {
        arm(state, sim, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dropped_request_counts_once_as_failed() {
        let mut l = Ledger::default();
        let served = l.open(10);
        let dropped = l.open(20);
        let wrong = l.open(30);
        assert!(l.close(served, Outcome::Served, 15));
        assert!(l.close(wrong, Outcome::Wrong, 40));
        let t = l.tally();
        assert_eq!(t.pending, 1);
        assert!(!t.balanced(), "a pending request leaves the ledger open");
        // The drain deadline closes the dropped request exactly once...
        l.close_pending(1_000);
        // ...and a late response cannot re-close it or the others.
        assert!(!l.close(dropped, Outcome::Served, 2_000));
        assert!(!l.close(served, Outcome::Wrong, 2_000));
        let t = l.tally();
        assert!(t.balanced());
        assert_eq!(t.attempted, 3);
        assert_eq!((t.served, t.wrong, t.unanswered), (1, 1, 1));
        assert_eq!(t.failed(), 2);
    }

    #[test]
    fn expected_sheds_are_not_failures() {
        let mut l = Ledger::default();
        let a = l.open(0);
        let b = l.open(0);
        l.close(a, Outcome::Shed, 1);
        l.close(b, Outcome::Refused, 1);
        let t = l.tally();
        assert!(t.balanced());
        assert_eq!(t.failed(), 1);
    }

    #[test]
    fn closed_loop_clients_offer_clients_over_think_time() {
        // 1000 clients thinking 1 s on average, answered at once: about
        // 10k requests in 10 s, from the start (no ramp).
        let mut src = Source::Closed(Thinkers::new(1_000, 1_000.0, 5));
        let (mut n, mut first_second, mut last) = (0u64, 0u64, 0u64);
        let mut id = 0;
        while let Some(due) = src.peek().filter(|&t| t < 10_000_000_000) {
            let (at, client) = src.pop();
            assert_eq!(at, due);
            assert!(at >= last, "arrivals in time order");
            last = at;
            n += 1;
            first_second += u64::from(at < 1_000_000_000);
            let next = src.requeue(client, id, at, at).expect("closed loop");
            assert!(next >= at);
            id += 1;
        }
        assert!((9_600..10_400).contains(&n), "{n}");
        assert!((880..1_120).contains(&first_second), "{first_second}");
    }

    #[test]
    fn a_client_is_idle_only_while_no_request_is_outstanding() {
        let mut src = Source::Closed(Thinkers::new(3, 1_000.0, 9));
        let (_, c) = src.pop();
        // Until its request closes, the client is not among the thinking.
        let Source::Closed(t) = &src else {
            unreachable!()
        };
        assert!(t.queue.iter().all(|Reverse((_, other))| *other != c));
        assert_eq!(t.queue.len(), 2);
        src.requeue(c, 0, 5, 5);
        let Source::Closed(t) = &src else {
            unreachable!()
        };
        assert_eq!(t.queue.len(), 3);
        // Open-loop sources have no clients to requeue.
        let mut open = Source::Open(
            Arrivals {
                rng: SplitMix::new(1),
                unit_t: 0.0,
                rate: 1.0,
                ramp_s: 0.0,
            },
            0,
        );
        assert_eq!(open.requeue(0, 0, 0, 0), None);
    }

    #[test]
    fn arrivals_scale_with_rate() {
        let arrivals = |rate: f64, ramp_s: f64| Arrivals {
            rng: SplitMix::new(7),
            unit_t: 0.0,
            rate,
            ramp_s,
        };
        let (mut slow, mut fast) = (arrivals(1_000.0, 0.0), arrivals(2_000.0, 0.0));
        for _ in 0..100 {
            let (s, f) = (slow.next_ns(), fast.next_ns());
            assert!(s.abs_diff(2 * f) <= 2, "{s} vs 2 x {f}");
        }
    }

    #[test]
    fn ramp_offers_half_the_load_then_the_full_rate() {
        // 1000 req/s ramped over 1 s offers ~500 requests in the ramp and
        // ~1000 in the next second.
        let mut a = Arrivals {
            rng: SplitMix::new(11),
            unit_t: 0.0,
            rate: 1_000.0,
            ramp_s: 1.0,
        };
        let times: Vec<u64> = (0..1_600).map(|_| a.next_ns()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let in_ramp = times.iter().filter(|&&t| t < 1_000_000_000).count();
        let after = times
            .iter()
            .filter(|&&t| (1_000_000_000..2_000_000_000).contains(&t))
            .count();
        assert!((440..560).contains(&in_ramp), "{in_ramp}");
        assert!((900..1_100).contains(&after), "{after}");
        // The first half of the ramp carries a quarter of its load.
        let first_half = times.iter().filter(|&&t| t < 500_000_000).count();
        assert!((90..160).contains(&first_half), "{first_half}");
    }
}
