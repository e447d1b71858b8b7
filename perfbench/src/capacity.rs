//! The capacity search: the highest offered open-loop rate whose p99
//! meets the workload's latency limit with no growing backlog.
//!
//! `find_max_load` in `lynx_workload` ignores drops, so this search judges
//! each probe itself: every failed or refused request of the measured
//! window counts as infinitely late.

use crate::gen::RunResult;

/// Growth factor of the bracketing phase.
const STEP: f64 = 1.25;
/// Bracketing probes in either direction before giving up.
const MAX_BRACKET: usize = 10;
/// Bisection probes once bracketed (the bracket shrinks to
/// `STEP^(1/2^BISECT)`, about 0.35%).
const BISECT: usize = 6;

/// One probe's verdict.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Offered rate.
    pub rate: f64,
    /// p99 in µs, failures counted as infinitely late.
    pub p99_us: f64,
    /// Requests in flight when arrivals stopped.
    pub backlog: u64,
    /// Whether the rate meets the limit.
    pub pass: bool,
}

/// Judges one probe: the strict p99 meets `limit_us`, and the backlog
/// left when arrivals stop is no more than a stable queue holds
/// (Little's law at the limit, doubled, plus a small constant).
pub fn judge(rate: f64, limit_us: f64, r: &RunResult) -> Probe {
    let p99_us = r.strict_percentile_us(99.0);
    let backlog_cap = 2.0 * rate * limit_us / 1e6 + 16.0;
    Probe {
        rate,
        p99_us,
        backlog: r.backlog_at_end,
        pass: p99_us <= limit_us && (r.backlog_at_end as f64) <= backlog_cap,
    }
}

/// Searches for the capacity from `guess`, probing with `probe`. Returns
/// the estimate and every probe made, in order.
///
/// The estimate interpolates the p99 between the highest passing and the
/// lowest failing rate when both are finite, so it moves smoothly with
/// the model instead of snapping to the bisection grid.
pub fn search(guess: f64, limit_us: f64, mut probe: impl FnMut(f64) -> Probe) -> (f64, Vec<Probe>) {
    let mut log = Vec::new();
    let mut run = |rate: f64, log: &mut Vec<Probe>| {
        let p = probe(rate);
        log.push(p);
        p
    };
    let first = run(guess, &mut log);
    let (lo, hi) = if first.pass {
        let mut lo = first;
        let mut hi = None;
        for _ in 0..MAX_BRACKET {
            let p = run(lo.rate * STEP, &mut log);
            if p.pass {
                lo = p;
            } else {
                hi = Some(p);
                break;
            }
        }
        (Some(lo), hi)
    } else {
        let mut hi = first;
        let mut lo = None;
        for _ in 0..MAX_BRACKET {
            let p = run(hi.rate / STEP, &mut log);
            if p.pass {
                lo = Some(p);
                break;
            }
            hi = p;
        }
        (lo, Some(hi))
    };
    let (Some(mut l), Some(mut h)) = (lo, hi) else {
        // Unbracketed: report the best passing rate seen (0 if none).
        return (lo.map_or(0.0, |l| l.rate), log);
    };
    for _ in 0..BISECT {
        let p = run((l.rate * h.rate).sqrt(), &mut log);
        if p.pass {
            l = p;
        } else {
            h = p;
        }
    }
    let estimate = if h.p99_us.is_finite() && h.p99_us > l.p99_us {
        let frac = ((limit_us - l.p99_us) / (h.p99_us - l.p99_us)).clamp(0.0, 1.0);
        l.rate + (h.rate - l.rate) * frac
    } else {
        l.rate
    };
    (estimate, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server: p99 grows like an M/M/1 tail up to `cap`.
    fn synthetic(cap: f64) -> impl FnMut(f64) -> Probe {
        move |rate| {
            let rho = rate / cap;
            let p99_us = if rho < 1.0 {
                10.0 / (1.0 - rho)
            } else {
                f64::INFINITY
            };
            Probe {
                rate,
                p99_us,
                backlog: 0,
                pass: p99_us <= 100.0,
            }
        }
    }

    #[test]
    fn search_converges_from_either_side() {
        // p99 = 100 µs exactly at rho = 0.9.
        for guess in [20_000.0, 50_000.0, 200_000.0] {
            let (cap, log) = search(guess, 100.0, synthetic(100_000.0));
            assert!(
                (cap - 90_000.0).abs() / 90_000.0 < 0.004,
                "guess {guess}: {cap}"
            );
            assert!(log.len() <= 2 * MAX_BRACKET + BISECT + 1);
        }
    }

    #[test]
    fn estimate_lies_between_the_last_pass_and_fail() {
        let (cap, log) = search(70_000.0, 100.0, synthetic(100_000.0));
        let best_pass = log
            .iter()
            .filter(|p| p.pass)
            .map(|p| p.rate)
            .fold(0.0, f64::max);
        let worst_fail = log
            .iter()
            .filter(|p| !p.pass)
            .map(|p| p.rate)
            .fold(f64::INFINITY, f64::min);
        assert!(best_pass <= cap && cap <= worst_fail);
    }

    #[test]
    fn nothing_passes_means_zero() {
        let (cap, _) = search(1_000.0, 100.0, |rate| Probe {
            rate,
            p99_us: f64::INFINITY,
            backlog: 0,
            pass: false,
        });
        assert_eq!(cap, 0.0);
    }

    #[test]
    fn judge_counts_failures_as_misses() {
        let ok = RunResult {
            lat_ns: vec![1_000; 100],
            ..RunResult::default()
        };
        assert!(judge(1_000.0, 10.0, &ok).pass);
        // Two failures in 100 push the p99 past any finite limit.
        let failing = RunResult {
            lat_ns: vec![1_000; 98],
            window_failed: 2,
            ..RunResult::default()
        };
        assert!(!judge(1_000.0, 10.0, &failing).pass);
        let backlogged = RunResult {
            lat_ns: vec![1_000; 100],
            backlog_at_end: 1_000,
            ..RunResult::default()
        };
        assert!(!judge(1_000.0, 10.0, &backlogged).pass);
    }
}
