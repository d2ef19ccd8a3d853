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
//! The windowed totals live in one dense per-category table, so a
//! charge is one indexed add. [`CpuLedger::profile`] folds that table
//! into the six columns only when a report asks for them; the totals are exact
//! integer nanoseconds, so the folded fractions do not depend on the
//! order of the charges. The same totals give the Figure 3/4 idle
//! share ([`ExecutionProfile::idle_frac`]).

use cdna_mem::DomainId;
use cdna_sim::SimTime;

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

/// Dense per-category index for the charge table: categories pack as
/// `[Idle, Hypervisor, Kernel(0), User(0), Kernel(1), User(1), ..]`, so
/// the table stays proportional to the largest domain id charged (a
/// couple dozen entries on the paper's 24-guest runs) and each charge
/// is a single indexed add instead of an ordered-map walk.
///
/// Guests (ids 1..) fill the table from index 4 on, kernel on even
/// indices and user on odd ones, which is how the profile folds them.
fn dense_index(cat: ExecCategory) -> usize {
    match cat {
        ExecCategory::Idle => 0,
        ExecCategory::Hypervisor => 1,
        ExecCategory::Kernel(d) => 2 + 2 * d.0 as usize,
        ExecCategory::User(d) => 3 + 2 * d.0 as usize,
    }
}

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
    /// A ledger that ignores charges until a window opens.
    pub fn new() -> Self {
        CpuLedger {
            charges: Vec::new(),
            window_start: SimTime::ZERO,
            window_end: None,
            recording: false,
            dispatch: SimTime::ZERO,
        }
    }

    /// Opens the measurement window (clears previous charges).
    pub fn start_window(&mut self, now: SimTime) {
        self.charges.fill(SimTime::ZERO);
        self.window_start = now;
        self.window_end = None;
        self.recording = true;
    }

    /// Closes the measurement window.
    pub fn close_window(&mut self, now: SimTime) {
        if self.recording {
            self.window_end = Some(now);
            self.recording = false;
        }
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
        self.charges.iter().copied().sum()
    }

    /// Renders the execution profile over the closed window. Idle is the
    /// remainder of the window not charged anywhere.
    ///
    /// The fractions are computed from exact integer totals, so they do
    /// not depend on the order the charges arrived in.
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

        let guests = self
            .charges
            .get(dense_index(ExecCategory::Kernel(DomainId::guest(0)))..)
            .unwrap_or_default();
        let guest_kernel: SimTime = guests.iter().step_by(2).copied().sum();
        let guest_user: SimTime = guests.iter().skip(1).step_by(2).copied().sum();
        let frac = |t: SimTime| t.as_secs_f64() / span_s;
        ExecutionProfile {
            hypervisor_frac: frac(self.charged(ExecCategory::Hypervisor)),
            driver_kernel_frac: frac(self.charged(ExecCategory::Kernel(DomainId::DRIVER))),
            driver_user_frac: frac(self.charged(ExecCategory::User(DomainId::DRIVER))),
            guest_kernel_frac: frac(guest_kernel),
            guest_user_frac: frac(guest_user),
            idle_frac: frac(span.saturating_sub(busy)),
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
    fn profile_folds_a_seeded_mix_and_a_restart_clears_every_entry() {
        let mut cats = vec![
            ExecCategory::Idle,
            ExecCategory::Hypervisor,
            ExecCategory::Kernel(DomainId::DRIVER),
            ExecCategory::User(DomainId::DRIVER),
        ];
        for g in 0..24 {
            cats.push(ExecCategory::Kernel(DomainId::guest(g)));
            cats.push(ExecCategory::User(DomainId::guest(g)));
        }
        let mut rng = cdna_sim::SimRng::seed_from(19);
        let mut l = CpuLedger::new();
        l.start_window(SimTime::ZERO);
        // Every category once, then a random mix (zero-length charges
        // included, which count nowhere).
        let picks = (0..cats.len()).chain((0..4000).map(|_| rng.below(cats.len())));
        let mut per_cat = vec![SimTime::ZERO; cats.len()];
        for k in picks.collect::<Vec<_>>() {
            let dt = SimTime::from_ns(rng.range_u64(0..50_000));
            l.charge(cats[k], dt);
            per_cat[k] += dt;
        }
        let span = SimTime::from_secs(1);
        l.close_window(span);

        // The six columns, summed here from the categories themselves.
        let [mut hyp, mut dk, mut du, mut gk, mut gu, mut idle] = [SimTime::ZERO; 6];
        for (cat, &t) in cats.iter().zip(&per_cat) {
            assert_eq!(l.charged(*cat), t, "{cat:?}");
            let col: &mut SimTime = match *cat {
                ExecCategory::Hypervisor => &mut hyp,
                ExecCategory::Kernel(d) if d == DomainId::DRIVER => &mut dk,
                ExecCategory::User(d) if d == DomainId::DRIVER => &mut du,
                ExecCategory::Kernel(_) => &mut gk,
                ExecCategory::User(_) => &mut gu,
                ExecCategory::Idle => &mut idle,
            };
            *col += t;
        }
        let busy = hyp + dk + du + gk + gu + idle;
        assert_eq!(l.total_busy(), busy);
        let frac = |t: SimTime| t.as_secs_f64() / span.as_secs_f64();
        assert_eq!(
            l.profile(),
            ExecutionProfile {
                hypervisor_frac: frac(hyp),
                driver_kernel_frac: frac(dk),
                driver_user_frac: frac(du),
                guest_kernel_frac: frac(gk),
                guest_user_frac: frac(gu),
                idle_frac: frac(span - busy),
            }
        );

        // A restart after the table grew to guest 23 clears every entry.
        l.start_window(span);
        l.close_window(span + span);
        for cat in &cats {
            assert_eq!(l.charged(*cat), SimTime::ZERO, "{cat:?}");
        }
        assert_eq!(l.total_busy(), SimTime::ZERO);
        assert_eq!(l.profile().idle_frac, 1.0);
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
