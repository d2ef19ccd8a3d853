//! CPU time accounting — the reproduction's Xenoprof.
//!
//! Every code path in the simulation charges its cost to an
//! [`ExecCategory`]; the ledger accumulates time inside a measurement
//! window and renders the paper's six-column execution profile
//! (hypervisor / driver-domain user / driver-domain kernel / guest user /
//! guest kernel / idle).
//!
//! The ledger is also the CPU's single charge owner: besides the
//! windowed totals it keeps an always-on sum of everything charged
//! since the current dispatch began ([`CpuLedger::begin_dispatch`],
//! [`CpuLedger::dispatch_charged`]), which is how long that dispatch
//! occupies the CPU. Charges outside the window still count there.
//!
//! Internally the ledger is built on [`cdna_trace::ProfileLedger`], a
//! time-sliced sampler: every charge lands both in a per-category map
//! (for [`CpuLedger::charged`]) and in the sampler's per-slice bucket
//! matrix. Because the sampler stores exact integer nanoseconds, the
//! aggregate [`CpuLedger::profile`] is bit-identical to the old
//! unsliced accumulation, while the per-slice samples additionally
//! provide the idle-over-time curves of Figures 3/4.

use cdna_mem::DomainId;
use cdna_sim::SimTime;
use cdna_trace::{ProfileLedger, ProfileSample};

/// Where a slice of CPU time was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExecCategory {
    /// Inside the hypervisor (interrupt dispatch, hypercalls, page flips,
    /// DMA validation, scheduling).
    Hypervisor,
    /// A domain's kernel: network stack, drivers, bridging.
    Kernel(DomainId),
    /// A domain's user space: the benchmark application.
    User(DomainId),
    /// Nothing runnable.
    Idle,
}

/// Sampler bucket indices for the paper's six profile columns.
mod bucket {
    pub(super) const HYPERVISOR: usize = 0;
    pub(super) const DRIVER_KERNEL: usize = 1;
    pub(super) const DRIVER_USER: usize = 2;
    pub(super) const GUEST_KERNEL: usize = 3;
    pub(super) const GUEST_USER: usize = 4;
    pub(super) const IDLE: usize = 5;
    pub(super) const COUNT: usize = 6;
}

fn bucket_of(cat: ExecCategory) -> usize {
    match cat {
        ExecCategory::Hypervisor => bucket::HYPERVISOR,
        ExecCategory::Kernel(d) if d == DomainId::DRIVER => bucket::DRIVER_KERNEL,
        ExecCategory::User(d) if d == DomainId::DRIVER => bucket::DRIVER_USER,
        ExecCategory::Kernel(_) => bucket::GUEST_KERNEL,
        ExecCategory::User(_) => bucket::GUEST_USER,
        ExecCategory::Idle => bucket::IDLE,
    }
}

/// Dense per-category index for the charge table: categories pack as
/// `[Idle, Hypervisor, Kernel(0), User(0), Kernel(1), User(1), ..]`, so
/// the table stays proportional to the largest domain id charged (a
/// couple dozen entries on the paper's 24-guest runs) and each charge
/// is a single indexed add instead of an ordered-map walk.
fn dense_index(cat: ExecCategory) -> usize {
    match cat {
        ExecCategory::Idle => 0,
        ExecCategory::Hypervisor => 1,
        ExecCategory::Kernel(d) => 2 + 2 * d.0 as usize,
        ExecCategory::User(d) => 3 + 2 * d.0 as usize,
    }
}

/// Default sampling slice: 10 simulated milliseconds, fine enough for
/// the ~1 s measurement windows the experiments use.
pub const DEFAULT_SLICE_NS: u64 = 10_000_000;

/// The per-category time ledger.
///
/// # Example
///
/// ```
/// use cdna_mem::DomainId;
/// use cdna_sim::SimTime;
/// use cdna_xen::{CpuLedger, ExecCategory};
///
/// let mut ledger = CpuLedger::new();
/// ledger.start_window(SimTime::ZERO);
/// ledger.charge(ExecCategory::Hypervisor, SimTime::from_ms(10));
/// ledger.charge(ExecCategory::Kernel(DomainId::guest(0)), SimTime::from_ms(40));
/// ledger.close_window(SimTime::from_ms(100));
/// let profile = ledger.profile();
/// assert!((profile.hypervisor_frac - 0.10).abs() < 1e-9);
/// assert!((profile.idle_frac - 0.50).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CpuLedger {
    /// Charge totals indexed by [`dense_index`]; zero-extended on the
    /// first charge past the current width.
    charges: Vec<SimTime>,
    sampler: ProfileLedger,
    window_start: SimTime,
    window_end: Option<SimTime>,
    recording: bool,
    /// Everything charged since [`CpuLedger::begin_dispatch`], window
    /// or not.
    dispatch: SimTime,
}

impl Default for CpuLedger {
    fn default() -> Self {
        CpuLedger::new()
    }
}

impl CpuLedger {
    /// A ledger that ignores charges until a window opens, sampling in
    /// [`DEFAULT_SLICE_NS`] slices.
    pub fn new() -> Self {
        CpuLedger::with_slice_ns(DEFAULT_SLICE_NS)
    }

    /// A ledger with an explicit sampling-slice width.
    pub fn with_slice_ns(slice_ns: u64) -> Self {
        CpuLedger {
            charges: Vec::new(),
            sampler: ProfileLedger::new(bucket::COUNT, slice_ns),
            window_start: SimTime::ZERO,
            window_end: None,
            recording: false,
            dispatch: SimTime::ZERO,
        }
    }

    /// Opens the measurement window (clears previous charges).
    pub fn start_window(&mut self, now: SimTime) {
        self.charges.fill(SimTime::ZERO);
        self.sampler.start_window(now.as_ns());
        self.window_start = now;
        self.window_end = None;
        self.recording = true;
    }

    /// Closes the measurement window.
    pub fn close_window(&mut self, now: SimTime) {
        if self.recording {
            self.sampler.close_window(now.as_ns());
            self.window_end = Some(now);
            self.recording = false;
        }
    }

    /// Moves the sampler's charge cursor to `now`, so subsequent
    /// charges land in the sampling slice containing this time. The
    /// world calls this once per simulation event; it does not affect
    /// aggregate totals, only how they distribute across slices.
    #[inline]
    pub fn advance_to(&mut self, now: SimTime) {
        self.sampler.advance_to(now.as_ns());
    }

    /// Charges `dt` of CPU time to `cat`. The current dispatch always
    /// lengthens by `dt`; the window totals and profile only count it
    /// while a window is open.
    #[inline]
    pub fn charge(&mut self, cat: ExecCategory, dt: SimTime) {
        self.dispatch += dt;
        if self.recording && dt > SimTime::ZERO {
            let idx = dense_index(cat);
            if idx >= self.charges.len() {
                self.charges.resize(idx + 1, SimTime::ZERO);
            }
            self.charges[idx] += dt;
            self.sampler.charge(bucket_of(cat), dt.as_ns());
        }
    }

    /// Starts a CPU dispatch: the dispatch accumulator restarts at zero.
    #[inline]
    pub fn begin_dispatch(&mut self) {
        self.dispatch = SimTime::ZERO;
    }

    /// Everything charged since the last [`CpuLedger::begin_dispatch`],
    /// whether or not a window was open: the length of the dispatch.
    #[inline]
    pub fn dispatch_charged(&self) -> SimTime {
        self.dispatch
    }

    /// Whether a window is currently open.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Total time charged to `cat` in the window.
    pub fn charged(&self, cat: ExecCategory) -> SimTime {
        self.charges
            .get(dense_index(cat))
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Busy time (all categories) in the window.
    pub fn total_busy(&self) -> SimTime {
        SimTime::from_ns(self.sampler.total_busy())
    }

    /// The underlying time-sliced sampler (per-slice profile samples
    /// for the idle-over-time figures).
    pub fn sampler(&self) -> &ProfileLedger {
        &self.sampler
    }

    /// Per-slice samples of the closed window (see
    /// [`cdna_trace::ProfileLedger::samples`]).
    pub fn samples(&self) -> Vec<ProfileSample> {
        self.sampler.samples()
    }

    /// Renders the execution profile over the closed window. Idle is the
    /// remainder of the window not charged anywhere.
    ///
    /// The fractions are computed from the sampler's exact integer
    /// totals, so they are identical whatever the slice width.
    ///
    /// A work batch that started before the window closed may charge its
    /// full cost inside it, so up to 1 % overshoot is tolerated (idle
    /// clamps at zero); more than that indicates an over-commitment bug
    /// in the CPU model.
    ///
    /// # Panics
    ///
    /// Panics if the window is still open, or on over-commitment beyond
    /// the boundary tolerance.
    pub fn profile(&self) -> ExecutionProfile {
        assert!(!self.recording, "profile requested while window open");
        #[expect(
            clippy::expect_used,
            reason = "documented precondition, asserted above"
        )]
        let end = self.window_end.expect("window was never opened");
        let span = end - self.window_start;
        let span_s = span.as_secs_f64();
        assert!(span_s > 0.0, "empty measurement window");
        let busy = self.total_busy();
        assert!(
            busy.as_secs_f64() <= span_s * 1.01,
            "CPU over-committed: {busy} charged in a {span} window"
        );

        let frac = |b: usize| SimTime::from_ns(self.sampler.total(b)).as_secs_f64() / span_s;
        ExecutionProfile {
            hypervisor_frac: frac(bucket::HYPERVISOR),
            driver_kernel_frac: frac(bucket::DRIVER_KERNEL),
            driver_user_frac: frac(bucket::DRIVER_USER),
            guest_kernel_frac: frac(bucket::GUEST_KERNEL),
            guest_user_frac: frac(bucket::GUEST_USER),
            idle_frac: span.saturating_sub(busy).as_secs_f64() / span_s,
        }
    }
}

/// The paper's "Domain Execution Profile" row: fractions of the
/// measurement window spent in each place (summing to 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionProfile {
    /// Hypervisor time.
    pub hypervisor_frac: f64,
    /// Driver-domain kernel ("Driver OS") time.
    pub driver_kernel_frac: f64,
    /// Driver-domain user time.
    pub driver_user_frac: f64,
    /// Guest kernel ("Guest OS") time, summed over guests.
    pub guest_kernel_frac: f64,
    /// Guest user time, summed over guests.
    pub guest_user_frac: f64,
    /// Idle time.
    pub idle_frac: f64,
}

impl ExecutionProfile {
    /// Sanity: the six fractions sum to ~1. A saturated run whose final
    /// work batch straddled the window close may overshoot by up to the
    /// ledger's 1 % boundary tolerance.
    pub fn sums_to_one(&self) -> bool {
        let s = self.hypervisor_frac
            + self.driver_kernel_frac
            + self.driver_user_frac
            + self.guest_kernel_frac
            + self.guest_user_frac
            + self.idle_frac;
        (s - 1.0).abs() < 1.5e-2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_outside_window_ignored() {
        let mut l = CpuLedger::new();
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(5));
        l.start_window(SimTime::from_ms(10));
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(5));
        l.close_window(SimTime::from_ms(110));
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(50));
        assert_eq!(l.charged(ExecCategory::Hypervisor), SimTime::from_ms(5));
    }

    #[test]
    fn profile_splits_driver_and_guest() {
        let mut l = CpuLedger::new();
        l.start_window(SimTime::ZERO);
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(10));
        l.charge(ExecCategory::Kernel(DomainId::DRIVER), SimTime::from_ms(20));
        l.charge(ExecCategory::User(DomainId::DRIVER), SimTime::from_ms(5));
        l.charge(
            ExecCategory::Kernel(DomainId::guest(0)),
            SimTime::from_ms(30),
        );
        l.charge(
            ExecCategory::Kernel(DomainId::guest(1)),
            SimTime::from_ms(10),
        );
        l.charge(ExecCategory::User(DomainId::guest(0)), SimTime::from_ms(5));
        l.close_window(SimTime::from_ms(100));
        let p = l.profile();
        assert!((p.hypervisor_frac - 0.10).abs() < 1e-9);
        assert!((p.driver_kernel_frac - 0.20).abs() < 1e-9);
        assert!((p.driver_user_frac - 0.05).abs() < 1e-9);
        assert!((p.guest_kernel_frac - 0.40).abs() < 1e-9);
        assert!((p.guest_user_frac - 0.05).abs() < 1e-9);
        assert!((p.idle_frac - 0.20).abs() < 1e-9);
        assert!(p.sums_to_one());
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn overcommit_detected() {
        let mut l = CpuLedger::new();
        l.start_window(SimTime::ZERO);
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(200));
        l.close_window(SimTime::from_ms(100));
        let _ = l.profile();
    }

    #[test]
    fn restarting_window_clears_charges() {
        let mut l = CpuLedger::new();
        l.start_window(SimTime::ZERO);
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(10));
        l.start_window(SimTime::from_ms(50));
        l.close_window(SimTime::from_ms(150));
        assert_eq!(l.charged(ExecCategory::Hypervisor), SimTime::ZERO);
        assert!((l.profile().idle_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_partition_the_window() {
        let mut l = CpuLedger::with_slice_ns(SimTime::from_ms(25).as_ns());
        l.start_window(SimTime::ZERO);
        l.advance_to(SimTime::from_ms(5));
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(10));
        l.advance_to(SimTime::from_ms(60));
        l.charge(
            ExecCategory::Kernel(DomainId::guest(0)),
            SimTime::from_ms(20),
        );
        l.close_window(SimTime::from_ms(100));
        let samples = l.samples();
        assert_eq!(samples.len(), 3); // slices 0, 1, 2 were touched
        assert_eq!(samples[0].charged_ns[0], SimTime::from_ms(10).as_ns());
        assert_eq!(samples[2].charged_ns[3], SimTime::from_ms(20).as_ns());
        // Aggregate profile is unaffected by the slicing.
        let p = l.profile();
        assert!((p.hypervisor_frac - 0.10).abs() < 1e-9);
        assert!((p.guest_kernel_frac - 0.20).abs() < 1e-9);
        assert!((p.idle_frac - 0.70).abs() < 1e-9);
    }

    #[test]
    fn charges_outside_window_still_lengthen_the_dispatch() {
        let mut l = CpuLedger::new();
        l.begin_dispatch();
        l.charge(ExecCategory::Hypervisor, SimTime::from_ms(5));
        assert_eq!(l.dispatch_charged(), SimTime::from_ms(5));
        l.start_window(SimTime::from_ms(10));
        l.close_window(SimTime::from_ms(110));
        l.charge(
            ExecCategory::Kernel(DomainId::guest(0)),
            SimTime::from_ms(7),
        );
        assert_eq!(l.dispatch_charged(), SimTime::from_ms(12));
        assert_eq!(l.charged(ExecCategory::Hypervisor), SimTime::ZERO);
        assert_eq!(
            l.charged(ExecCategory::Kernel(DomainId::guest(0))),
            SimTime::ZERO
        );
        assert_eq!(l.total_busy(), SimTime::ZERO);
        assert!((l.profile().idle_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dispatch_accumulator_sums_every_charge_and_resets() {
        let mut l = CpuLedger::new();
        l.start_window(SimTime::ZERO);
        l.begin_dispatch();
        for (cat, us) in [
            (ExecCategory::Hypervisor, 3),
            (ExecCategory::Kernel(DomainId::guest(1)), 11),
            (ExecCategory::User(DomainId::guest(1)), 2),
        ] {
            l.charge(cat, SimTime::from_us(us));
        }
        assert_eq!(l.dispatch_charged(), SimTime::from_us(16));
        l.begin_dispatch();
        assert_eq!(l.dispatch_charged(), SimTime::ZERO);
        l.charge(ExecCategory::Hypervisor, SimTime::from_us(4));
        assert_eq!(l.dispatch_charged(), SimTime::from_us(4));
        // The window saw both dispatches.
        assert_eq!(l.total_busy(), SimTime::from_us(20));
    }

    #[test]
    fn idle_category_counts_as_busy_but_not_in_fracs() {
        let mut l = CpuLedger::new();
        l.start_window(SimTime::ZERO);
        l.charge(ExecCategory::Idle, SimTime::from_ms(40));
        l.close_window(SimTime::from_ms(100));
        assert_eq!(l.total_busy(), SimTime::from_ms(40));
        let p = l.profile();
        assert!((p.hypervisor_frac).abs() < 1e-9);
        assert!((p.idle_frac - 0.60).abs() < 1e-9);
    }
}
