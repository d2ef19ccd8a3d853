//! Interrupt moderation.

use cdna_sim::SimTime;

/// An interrupt coalescer enforcing a minimum gap between interrupts.
///
/// Commodity NICs (and the RiceNIC firmware) rate-limit interrupts so a
/// saturated link does not interrupt the host per packet. The model: when
/// work arrives, an interrupt is requested; it fires immediately if the
/// minimum gap since the previous interrupt has elapsed, otherwise it is
/// deferred to `last_fire + min_gap`. Requests made while one is already
/// pending coalesce into it.
///
/// # Example
///
/// ```
/// use cdna_nic::Coalescer;
/// use cdna_sim::SimTime;
///
/// let mut c = Coalescer::new(SimTime::from_us(100));
/// // First request fires immediately.
/// assert_eq!(c.request(SimTime::from_us(10)), Some(SimTime::from_us(10)));
/// c.fired(SimTime::from_us(10));
/// // A request 30us later is deferred to the 100us boundary...
/// assert_eq!(c.request(SimTime::from_us(40)), Some(SimTime::from_us(110)));
/// // ...and further requests coalesce into the pending one.
/// assert_eq!(c.request(SimTime::from_us(60)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Coalescer {
    min_gap: SimTime,
    last_fire: Option<SimTime>,
    pending: bool,
    raised: u64,
    coalesced: u64,
}

impl Coalescer {
    /// A coalescer with the given minimum inter-interrupt gap.
    pub fn new(min_gap: SimTime) -> Self {
        Coalescer {
            min_gap,
            last_fire: None,
            pending: false,
            raised: 0,
            coalesced: 0,
        }
    }

    /// Requests an interrupt at `now`.
    ///
    /// Returns `Some(fire_at)` if the caller should schedule an interrupt
    /// (possibly in the future), or `None` if one is already pending and
    /// this request coalesced into it. The caller must invoke
    /// [`Coalescer::fired`] when the scheduled interrupt is delivered.
    #[inline]
    pub fn request(&mut self, now: SimTime) -> Option<SimTime> {
        if self.pending {
            self.coalesced += 1;
            return None;
        }
        let earliest = match self.last_fire {
            Some(t) => (t + self.min_gap).max(now),
            None => now,
        };
        self.pending = true;
        Some(earliest)
    }

    /// Records that the pending interrupt was delivered at `now`.
    pub fn fired(&mut self, now: SimTime) {
        debug_assert!(self.pending, "fired() without a pending interrupt");
        self.pending = false;
        self.last_fire = Some(now);
        self.raised += 1;
    }

    /// Whether an interrupt is currently pending delivery.
    pub fn is_pending(&self) -> bool {
        self.pending
    }

    /// Total interrupts delivered.
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Requests absorbed into an already-pending interrupt.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// The configured minimum gap.
    pub fn min_gap(&self) -> SimTime {
        self.min_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_is_immediate() {
        let mut c = Coalescer::new(SimTime::from_us(50));
        assert_eq!(c.request(SimTime::from_us(7)), Some(SimTime::from_us(7)));
    }

    #[test]
    fn gap_enforced_between_interrupts() {
        let mut c = Coalescer::new(SimTime::from_us(50));
        let t1 = c.request(SimTime::from_us(0)).unwrap();
        c.fired(t1);
        let t2 = c.request(SimTime::from_us(1)).unwrap();
        assert_eq!(t2, SimTime::from_us(50));
        c.fired(t2);
        // After a long quiet period the next request is immediate again.
        let t3 = c.request(SimTime::from_us(500)).unwrap();
        assert_eq!(t3, SimTime::from_us(500));
    }

    #[test]
    fn requests_coalesce_while_pending() {
        let mut c = Coalescer::new(SimTime::from_us(50));
        let t1 = c.request(SimTime::ZERO).unwrap();
        assert_eq!(c.request(SimTime::from_us(1)), None);
        assert_eq!(c.request(SimTime::from_us(2)), None);
        assert_eq!(c.coalesced(), 2);
        c.fired(t1);
        assert_eq!(c.raised(), 1);
        assert!(!c.is_pending());
    }

    #[test]
    fn fire_resets_the_gap_origin() {
        // The deferral window is measured from the *last delivery*, not
        // the last request: fire at 60us, and a request at 70us defers
        // to 110us (60 + 50), not to 100us.
        let mut c = Coalescer::new(SimTime::from_us(50));
        let t1 = c.request(SimTime::from_us(10)).unwrap();
        assert_eq!(t1, SimTime::from_us(10));
        c.fired(SimTime::from_us(60)); // delivered late
        let t2 = c.request(SimTime::from_us(70)).unwrap();
        assert_eq!(t2, SimTime::from_us(110));
    }

    #[test]
    fn request_exactly_at_gap_boundary_is_immediate() {
        let mut c = Coalescer::new(SimTime::from_us(50));
        let t1 = c.request(SimTime::ZERO).unwrap();
        c.fired(t1);
        // Exactly min_gap later: no deferral.
        let t2 = c.request(SimTime::from_us(50)).unwrap();
        assert_eq!(t2, SimTime::from_us(50));
    }

    #[test]
    fn sustained_load_fires_at_configured_rate() {
        // Request an interrupt every microsecond for 10ms; with a 100us
        // gap the coalescer should deliver ~100 interrupts.
        let mut c = Coalescer::new(SimTime::from_us(100));
        let mut pending_at: Option<SimTime> = None;
        for us in 0..10_000u64 {
            let now = SimTime::from_us(us);
            if let Some(fire) = pending_at {
                if now >= fire {
                    c.fired(fire);
                    pending_at = None;
                }
            }
            if pending_at.is_none() {
                if let Some(f) = c.request(now) {
                    pending_at = Some(f);
                }
            } else {
                let _ = c.request(now);
            }
        }
        assert!(
            (99..=101).contains(&c.raised()),
            "raised {} interrupts",
            c.raised()
        );
    }
}
