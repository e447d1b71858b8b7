//! Property-based tests of the simulation kernel's data structures.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use proptest::prelude::*;

use lynx_sim::{Fifo, Histogram, Server, Sim, Time};

proptest! {
    /// Percentile queries are monotone in `p` and bounded by the exact
    /// observed min/max.
    #[test]
    fn histogram_percentiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0u64..10_000_000_000, 1..400)
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(Duration::from_nanos(v));
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut last = Duration::ZERO;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p);
            prop_assert!(q >= last, "percentiles must be monotone");
            prop_assert!(q >= Duration::from_nanos(min));
            prop_assert!(q <= Duration::from_nanos(max));
            last = q;
        }
    }

    /// Quantization error of the median is within the 1/64 design bound.
    #[test]
    fn histogram_median_error_bound(values in proptest::collection::vec(1u64..1_000_000_000, 101..301)) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(Duration::from_nanos(v));
        }
        let exact = sorted[(sorted.len() - 1) / 2] as f64;
        let approx = h.percentile(50.0).as_nanos() as f64;
        // Allow one sorted-neighbor of slack plus the bucket error.
        let lo = sorted[sorted.len() * 45 / 100] as f64 * (1.0 - 1.0 / 32.0);
        let hi = sorted[(sorted.len() * 55 / 100).min(sorted.len() - 1)] as f64 * (1.0 + 1.0 / 32.0);
        prop_assert!(approx >= lo && approx <= hi, "median {approx} not in [{lo}, {hi}] (exact {exact})");
    }

    /// Histogram merge is equivalent to recording the union.
    #[test]
    fn histogram_merge_equivalence(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a { ha.record(Duration::from_nanos(v)); hu.record(Duration::from_nanos(v)); }
        for &v in &b { hb.record(Duration::from_nanos(v)); hu.record(Duration::from_nanos(v)); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        for p in [10.0, 50.0, 90.0, 99.0] {
            prop_assert_eq!(ha.percentile(p), hu.percentile(p));
        }
    }

    /// The bounded FIFO behaves exactly like a capacity-checked VecDeque.
    #[test]
    fn fifo_matches_reference_model(
        capacity in 1usize..32,
        ops in proptest::collection::vec(proptest::option::of(0u32..1000), 1..200),
    ) {
        let mut fifo = Fifo::new(capacity);
        let mut model: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut drops = 0u64;
        for op in ops {
            match op {
                Some(v) => {
                    if model.len() < capacity {
                        model.push_back(v);
                        prop_assert!(fifo.push(v).is_ok());
                    } else {
                        drops += 1;
                        prop_assert!(fifo.push(v).is_err());
                    }
                }
                None => {
                    prop_assert_eq!(fifo.pop(), model.pop_front());
                }
            }
            prop_assert_eq!(fifo.len(), model.len());
            prop_assert_eq!(fifo.drops(), drops);
        }
    }

    /// Jobs on one server always complete in submission order, and total
    /// busy time equals the sum of (speed-scaled) service times.
    #[test]
    fn server_fifo_completion_order(
        jobs in proptest::collection::vec(1u64..10_000, 1..50),
        speed in 1u32..40,
    ) {
        let speed = speed as f64 / 10.0;
        let mut sim = Sim::new(0);
        let server = Server::new(speed);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, &us) in jobs.iter().enumerate() {
            let order = Rc::clone(&order);
            server.submit(&mut sim, Duration::from_micros(us), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        prop_assert_eq!(&*order.borrow(), &(0..jobs.len()).collect::<Vec<_>>());
        let expect_ns: u64 = jobs
            .iter()
            .map(|&us| (Duration::from_micros(us).as_nanos() as f64 / speed).round() as u64)
            .sum();
        prop_assert_eq!(server.busy_time().as_nanos() as u64, expect_ns);
    }

    /// Events execute in exactly `(time, insertion)` order: the executed
    /// sequence equals a stable sort of the input by time. Schedule times
    /// mix three horizons: near-future times with many ties, times around
    /// 1 ms, and a deep future reached only after many earlier events.
    #[test]
    fn sim_event_ordering(
        raw in proptest::collection::vec((0u32..3, 0u64..1_000_000), 1..300)
    ) {
        let times: Vec<u64> = raw
            .iter()
            .map(|&(bucket, mag)| match bucket {
                0 => mag % 8_000,
                1 => 1_000_000 + mag % 120_000,
                _ => 4_000_000 + mag * 49,
            })
            .collect();
        let mut sim = Sim::new(0);
        let seen: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &t) in times.iter().enumerate() {
            let seen = Rc::clone(&seen);
            sim.schedule_at(Time::from_nanos(t), move |sim| {
                seen.borrow_mut().push((sim.now().as_nanos(), i));
            });
        }
        sim.run();
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(&*seen.borrow(), &expect);
    }
}
