//! Time-sliced execution-profile sampling — the reproduction's Xenoprof.
//!
//! A [`ProfileLedger`] charges spans of CPU time (nanoseconds) to a
//! fixed set of numbered buckets, accumulating them per sampling slice.
//! Aggregate profiles (the paper's Tables 2/3) are the exact sum of the
//! slices; time series (the Figure 3/4 idle annotations) read the
//! slices individually. All arithmetic is integer nanoseconds, so
//! aggregate totals are bit-identical to an unsliced accumulator.

/// One sampling slice's charges.
#[derive(Debug, Clone)]
pub struct ProfileSample {
    /// Slice start, ns.
    pub start_ns: u64,
    /// Slice end, ns (start + slice width, clamped to the window end).
    pub end_ns: u64,
    /// Time charged to each bucket within the slice, ns.
    pub charged_ns: Vec<u64>,
}

impl ProfileSample {
    /// Total busy time in the slice.
    pub fn busy_ns(&self) -> u64 {
        self.charged_ns.iter().sum()
    }

    /// Fraction of the slice not charged anywhere (clamped at 0 when a
    /// work batch straddling the slice boundary overshoots).
    pub fn idle_frac(&self) -> f64 {
        let span = self.end_ns.saturating_sub(self.start_ns);
        if span == 0 {
            return 0.0;
        }
        span.saturating_sub(self.busy_ns()) as f64 / span as f64
    }
}

/// The sampler: a measurement window divided into fixed-width slices,
/// each accumulating per-bucket charges.
///
/// # Example
///
/// ```
/// use cdna_trace::ProfileLedger;
///
/// let mut led = ProfileLedger::new(2, 1_000_000); // 2 buckets, 1 ms slices
/// led.start_window(0);
/// led.advance_to(500_000);
/// led.charge(0, 200_000);
/// led.advance_to(1_500_000);
/// led.charge(1, 400_000);
/// led.close_window(2_000_000);
/// assert_eq!(led.total(0), 200_000);
/// assert_eq!(led.total(1), 400_000);
/// assert_eq!(led.samples().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileLedger {
    buckets: usize,
    slice_ns: u64,
    window_start: u64,
    window_end: Option<u64>,
    recording: bool,
    cursor: u64,
    /// Offset in `slices` of the cursor's slice row, valid while the
    /// cursor is before `row_end`; charges index it directly instead
    /// of dividing the cursor by the slice width.
    row: usize,
    /// End of the slice `row` belongs to, ns.
    row_end: u64,
    /// Flattened `slices × buckets` charge matrix.
    slices: Vec<u64>,
    totals: Vec<u64>,
}

impl ProfileLedger {
    /// Creates a sampler with `buckets` categories and `slice_ns`-wide
    /// sampling slices.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is 0 or `slice_ns` is 0.
    pub fn new(buckets: usize, slice_ns: u64) -> Self {
        assert!(buckets > 0, "profile needs at least one bucket");
        assert!(slice_ns > 0, "slice width must be positive");
        ProfileLedger {
            buckets,
            slice_ns,
            window_start: 0,
            window_end: None,
            recording: false,
            cursor: 0,
            row: 0,
            row_end: slice_ns,
            slices: Vec::new(),
            totals: vec![0; buckets],
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Sampling slice width, ns.
    pub fn slice_ns(&self) -> u64 {
        self.slice_ns
    }

    /// Opens the measurement window at `now_ns`, clearing prior charges.
    pub fn start_window(&mut self, now_ns: u64) {
        self.window_start = now_ns;
        self.window_end = None;
        self.recording = true;
        self.cursor = now_ns;
        self.row = 0;
        self.row_end = now_ns.saturating_add(self.slice_ns);
        self.slices.clear();
        self.totals.iter_mut().for_each(|t| *t = 0);
    }

    /// Closes the measurement window at `now_ns`.
    pub fn close_window(&mut self, now_ns: u64) {
        if self.recording {
            self.window_end = Some(now_ns);
            self.recording = false;
        }
    }

    /// Whether a window is currently open.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Moves the charge cursor to `now_ns`. Subsequent charges land in
    /// the slice containing this time. Callers advance the cursor once
    /// per event; time never moves backwards in a discrete-event run.
    #[inline]
    pub fn advance_to(&mut self, now_ns: u64) {
        if now_ns > self.cursor {
            self.cursor = now_ns;
        }
    }

    /// Charges `dt_ns` to `bucket` at the cursor time. Ignored while no
    /// window is open. Constant amortized time; allocates only when the
    /// cursor enters a slice for the first time.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn charge(&mut self, bucket: usize, dt_ns: u64) {
        assert!(bucket < self.buckets, "bucket {bucket} out of range");
        if !self.recording || dt_ns == 0 {
            return;
        }
        if self.cursor >= self.row_end {
            // The cursor left the cached slice: locate its row once.
            let slice = (self.cursor - self.window_start) / self.slice_ns;
            self.row = slice as usize * self.buckets;
            self.row_end = self.window_start + (slice + 1) * self.slice_ns;
        }
        let needed = self.row + self.buckets;
        if self.slices.len() < needed {
            self.slices.resize(needed, 0);
        }
        self.slices[self.row + bucket] += dt_ns;
        self.totals[bucket] += dt_ns;
    }

    /// Total charged to `bucket` over the window (exact sum of slices).
    pub fn total(&self, bucket: usize) -> u64 {
        self.totals[bucket]
    }

    /// Total charged to all buckets.
    pub fn total_busy(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Window span in ns, if the window has been opened and closed.
    pub fn window_ns(&self) -> Option<u64> {
        self.window_end.map(|e| e.saturating_sub(self.window_start))
    }

    /// The per-slice samples of the closed window.
    ///
    /// The last slice is clamped to the window end, so slice fractions
    /// stay meaningful when the window is not a multiple of the slice
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if the window is still open or was never opened.
    pub fn samples(&self) -> Vec<ProfileSample> {
        assert!(!self.recording, "samples requested while window open");
        #[expect(
            clippy::expect_used,
            reason = "documented precondition, asserted above"
        )]
        let end = self.window_end.expect("window was never opened");
        let n_slices = self.slices.len() / self.buckets;
        (0..n_slices)
            .map(|i| {
                let start_ns = self.window_start + i as u64 * self.slice_ns;
                ProfileSample {
                    start_ns,
                    end_ns: (start_ns + self.slice_ns).min(end.max(start_ns)),
                    charged_ns: self.slices[i * self.buckets..(i + 1) * self.buckets].to_vec(),
                }
            })
            .collect()
    }

    /// Per-slice idle fractions — the Figure 3/4 idle curve.
    pub fn idle_series(&self) -> Vec<f64> {
        self.samples()
            .iter()
            .map(ProfileSample::idle_frac)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_outside_window_are_ignored() {
        let mut led = ProfileLedger::new(2, 1000);
        led.charge(0, 500); // before any window
        led.start_window(0);
        led.advance_to(100);
        led.charge(0, 50);
        led.close_window(2000);
        led.charge(1, 999); // after close
        assert_eq!(led.total(0), 50);
        assert_eq!(led.total(1), 0);
    }

    #[test]
    fn totals_equal_sum_of_slices_exactly() {
        let mut led = ProfileLedger::new(3, 100);
        led.start_window(0);
        let mut expect = [0u64; 3];
        // Deterministic pseudo-random charge pattern.
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            led.advance_to(i * 7);
            let b = (x % 3) as usize;
            let dt = x % 50;
            led.charge(b, dt);
            expect[b] += dt;
        }
        led.close_window(7000);
        for (b, &want) in expect.iter().enumerate() {
            assert_eq!(led.total(b), want);
        }
        let samples = led.samples();
        for (b, &want) in expect.iter().enumerate() {
            let sliced: u64 = samples.iter().map(|s| s.charged_ns[b]).sum();
            assert_eq!(sliced, want, "bucket {b} slices disagree with total");
        }
    }

    #[test]
    fn charges_land_in_the_cursor_slice() {
        let mut led = ProfileLedger::new(1, 1000);
        led.start_window(0);
        led.advance_to(2500);
        led.charge(0, 10);
        led.close_window(4000);
        let samples = led.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].charged_ns[0], 0);
        assert_eq!(samples[1].charged_ns[0], 0);
        assert_eq!(samples[2].charged_ns[0], 10);
    }

    #[test]
    fn idle_series_reflects_load() {
        let mut led = ProfileLedger::new(1, 1000);
        led.start_window(0);
        led.advance_to(100);
        led.charge(0, 1000); // slice 0 fully busy
        led.advance_to(1100); // slice 1 left idle
        led.close_window(2000);
        let idle = led.idle_series();
        assert_eq!(idle.len(), 1); // only slice 0 was ever touched
        assert_eq!(idle[0], 0.0);
    }

    #[test]
    fn restarting_clears_state() {
        let mut led = ProfileLedger::new(1, 1000);
        led.start_window(0);
        led.charge(0, 5);
        led.start_window(10_000);
        led.close_window(11_000);
        assert_eq!(led.total(0), 0);
        assert_eq!(led.window_ns(), Some(1000));
    }

    #[test]
    fn cached_row_follows_slice_boundaries() {
        // Charges at both edges of each boundary, a skipped slice, and
        // repeated charges within one slice must land exactly where the
        // division `(cursor - start) / slice` puts them.
        let mut led = ProfileLedger::new(2, 1000);
        led.start_window(500);
        for (at, bucket, dt) in [
            (500, 0, 1),
            (1499, 1, 2),
            (1499, 0, 3),
            (1500, 0, 4),
            (2499, 1, 5),
            (4500, 1, 6),
            (4501, 0, 7),
        ] {
            led.advance_to(at);
            led.charge(bucket, dt);
        }
        led.close_window(5000);
        let rows: Vec<Vec<u64>> = led.samples().into_iter().map(|s| s.charged_ns).collect();
        assert_eq!(
            rows,
            vec![vec![4, 2], vec![4, 5], vec![0, 0], vec![0, 0], vec![7, 6]]
        );
    }

    #[test]
    fn cached_row_resets_on_window_restart() {
        // A restart must drop the cached row: the first charge of the new
        // window goes to its slice 0 even though the old window's row
        // was further along.
        let mut led = ProfileLedger::new(1, 1000);
        led.start_window(0);
        led.advance_to(3500);
        led.charge(0, 9);
        led.start_window(3600);
        led.charge(0, 1);
        led.advance_to(4700);
        led.charge(0, 2);
        led.close_window(5000);
        let rows: Vec<u64> = led.samples().iter().map(|s| s.charged_ns[0]).collect();
        assert_eq!(rows, vec![1, 2]);
        assert_eq!(led.total(0), 3);
    }

    #[test]
    fn last_slice_clamps_to_window_end() {
        let mut led = ProfileLedger::new(1, 1000);
        led.start_window(0);
        led.advance_to(1500);
        led.charge(0, 10);
        led.close_window(1500);
        let s = led.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].start_ns, 1000);
        assert_eq!(s[1].end_ns, 1500);
    }
}
