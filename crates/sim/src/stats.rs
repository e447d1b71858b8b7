//! Streaming statistics: throughput meters.

use std::time::Duration;

use crate::Time;

/// Counts events inside a measurement window and reports throughput.
///
/// The meter ignores events before [`Meter::start`] is called (warmup) and
/// after [`Meter::stop`]. Used by every end-to-end experiment to exclude
/// warmup transients, like the paper's "20 seconds with 2 seconds warmup".
#[derive(Clone, Copy, Debug, Default)]
pub struct Meter {
    started: Option<Time>,
    stopped: Option<Time>,
    count: u64,
}

impl Meter {
    /// Creates an inactive meter.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Opens the measurement window at instant `now`.
    pub fn start(&mut self, now: Time) {
        self.started = Some(now);
        self.stopped = None;
        self.count = 0;
    }

    /// Closes the measurement window at instant `now`.
    pub fn stop(&mut self, now: Time) {
        if self.started.is_some() {
            self.stopped = Some(now);
        }
    }

    /// Records one event if the window is open.
    pub fn record(&mut self) {
        if self.started.is_some() && self.stopped.is_none() {
            self.count += 1;
        }
    }

    /// Events recorded inside the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Length of the measurement window (requires both start and stop).
    pub fn window(&self) -> Option<Duration> {
        Some(self.stopped?.saturating_since(self.started?))
    }

    /// Events per second over the closed window; `None` until stopped or if
    /// the window is empty.
    pub fn throughput(&self) -> Option<f64> {
        let w = self.window()?;
        if w.is_zero() {
            None
        } else {
            Some(self.count as f64 / w.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_excludes_warmup() {
        let mut m = Meter::new();
        m.record(); // before start: ignored
        m.start(Time::from_secs(2));
        for _ in 0..100 {
            m.record();
        }
        m.stop(Time::from_secs(4));
        m.record(); // after stop: ignored
        assert_eq!(m.count(), 100);
        assert_eq!(m.window(), Some(Duration::from_secs(2)));
        assert!((m.throughput().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn meter_without_start_reports_none() {
        let m = Meter::new();
        assert_eq!(m.throughput(), None);
        assert_eq!(m.window(), None);
    }
}
