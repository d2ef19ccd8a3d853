//! Small statistics helpers for the measurement harness.

use crate::SimTime;

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use cdna_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Counts discrete occurrences over a window of simulated time and reports
/// them as a rate, e.g. packets/s or interrupts/s.
///
/// # Example
///
/// ```
/// use cdna_sim::{RateMeter, SimTime};
///
/// let mut m = RateMeter::new();
/// m.start(SimTime::from_secs(1));
/// m.add(500);
/// m.stop(SimTime::from_secs(2));
/// assert_eq!(m.per_second(), 500.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RateMeter {
    events: u64,
    window_start: SimTime,
    window_end: Option<SimTime>,
    running: bool,
}

impl RateMeter {
    /// Creates an idle meter; events are ignored until [`RateMeter::start`].
    pub fn new() -> Self {
        RateMeter::default()
    }

    /// Begins (or restarts) the measurement window, clearing the count.
    pub fn start(&mut self, now: SimTime) {
        self.events = 0;
        self.window_start = now;
        self.window_end = None;
        self.running = true;
    }

    /// Ends the measurement window.
    pub fn stop(&mut self, now: SimTime) {
        if self.running {
            self.window_end = Some(now);
            self.running = false;
        }
    }

    /// Records `n` occurrences (ignored while the meter is not running).
    #[inline]
    pub fn add(&mut self, n: u64) {
        if self.running {
            self.events += n;
        }
    }

    /// Raw event count within the window.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events per second over the closed window; 0 for an empty window.
    ///
    /// # Panics
    ///
    /// Panics if called while the window is still open.
    pub fn per_second(&self) -> f64 {
        assert!(!self.running, "rate queried while window still open");
        let Some(end) = self.window_end else {
            return 0.0;
        };
        let span = (end - self.window_start).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.events as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_variance() {
        let mut s = RunningStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn rate_meter_ignores_events_outside_window() {
        let mut m = RateMeter::new();
        m.add(100); // before start: ignored
        m.start(SimTime::from_ms(500));
        m.add(250);
        m.stop(SimTime::from_ms(1000));
        m.add(999); // after stop: ignored
        assert_eq!(m.events(), 250);
        assert!((m.per_second() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn restart_clears_count() {
        let mut m = RateMeter::new();
        m.start(SimTime::ZERO);
        m.add(10);
        m.start(SimTime::from_secs(1));
        m.add(5);
        m.stop(SimTime::from_secs(2));
        assert_eq!(m.events(), 5);
    }

    #[test]
    #[should_panic(expected = "window still open")]
    fn querying_open_window_panics() {
        let mut m = RateMeter::new();
        m.start(SimTime::ZERO);
        let _ = m.per_second();
    }
}
