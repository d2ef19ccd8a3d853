//! Sequence-numbered descriptors (paper §3.3).
//!
//! The hypervisor writes a strictly increasing sequence number into each
//! DMA descriptor it enqueues; the NIC verifies that consecutive
//! descriptors carry consecutive sequence numbers (modulo the maximum).
//! A driver that advances its producer index past the last descriptor the
//! hypervisor wrote makes the NIC read a *stale* slot, whose sequence
//! number is exactly `ring_size` behind — detectably wrong as long as the
//! sequence space is at least twice the ring size.

use crate::fault::FaultKind;

/// Hypervisor-side stamper producing the strictly increasing sequence.
///
/// # Example
///
/// ```
/// use cdna_core::{SeqChecker, SeqStamper};
///
/// let mut stamper = SeqStamper::new(1024);
/// let mut checker = SeqChecker::new(1024);
/// for _ in 0..5000 {
///     // Wraps modulo 1024 but stays continuous.
///     assert!(checker.check(stamper.next()).is_ok());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqStamper {
    next: u32,
    modulus: u32,
}

impl SeqStamper {
    /// A stamper over the sequence space `[0, modulus)`.
    ///
    /// # Panics
    ///
    /// Panics unless `modulus` is a power of two ≥ 4 (hardware compares
    /// with a mask).
    pub fn new(modulus: u32) -> Self {
        assert!(
            modulus.is_power_of_two() && modulus >= 4,
            "sequence modulus must be a power of two >= 4, got {modulus}"
        );
        SeqStamper { next: 0, modulus }
    }

    /// Returns the next sequence number and advances.
    // Deliberately named like the hardware operation; SeqStamper is not
    // an Iterator (the stream is infinite and infallible).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u32 {
        let v = self.next;
        // Compare-and-reset rather than `%`: one stamp per descriptor.
        self.next += 1;
        if self.next == self.modulus {
            self.next = 0;
        }
        v
    }

    /// The sequence space size.
    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// Checks the paper's aliasing rule: the sequence space must be at
    /// least twice the descriptor ring size, or a stale descriptor from
    /// exactly one lap ago would alias a valid sequence number.
    pub fn prevents_aliasing_for(&self, ring_size: u32) -> bool {
        self.modulus >= ring_size * 2
    }
}

/// NIC-side verifier of sequence continuity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqChecker {
    expected: u32,
    modulus: u32,
    checked: u64,
}

impl SeqChecker {
    /// A checker over the same sequence space as the stamper.
    ///
    /// # Panics
    ///
    /// Panics unless `modulus` is a power of two ≥ 4.
    pub fn new(modulus: u32) -> Self {
        assert!(
            modulus.is_power_of_two() && modulus >= 4,
            "sequence modulus must be a power of two >= 4, got {modulus}"
        );
        SeqChecker {
            expected: 0,
            modulus,
            checked: 0,
        }
    }

    /// Verifies the next descriptor's sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`FaultKind::StaleSequence`] (without advancing) when the
    /// number is not the expected successor — the NIC refuses the
    /// descriptor and reports a guest-specific protection fault.
    #[inline]
    pub fn check(&mut self, seq: u32) -> Result<(), FaultKind> {
        if seq != self.expected {
            return Err(FaultKind::StaleSequence {
                expected: self.expected,
                found: seq,
            });
        }
        // Compare-and-reset rather than `%`: one check per descriptor.
        self.expected += 1;
        if self.expected == self.modulus {
            self.expected = 0;
        }
        self.checked += 1;
        Ok(())
    }

    /// Descriptors successfully verified.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Resets the checker (context reset/revocation re-arms sequence 0).
    pub fn reset(&mut self) {
        self.expected = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamper_wraps_at_modulus() {
        let mut s = SeqStamper::new(4);
        assert_eq!(
            [s.next(), s.next(), s.next(), s.next(), s.next()],
            [0, 1, 2, 3, 0]
        );
    }

    #[test]
    fn checker_accepts_continuous_stream() {
        let mut s = SeqStamper::new(8);
        let mut c = SeqChecker::new(8);
        for _ in 0..100 {
            c.check(s.next()).unwrap();
        }
        assert_eq!(c.checked(), 100);
    }

    #[test]
    fn stale_descriptor_detected() {
        // A ring of 8 with sequence space 16: a stale slot is 8 behind.
        let ring_size = 8u32;
        let mut s = SeqStamper::new(16);
        let mut c = SeqChecker::new(16);
        let mut ring: Vec<u32> = (0..ring_size).map(|_| s.next()).collect();
        for &v in &ring {
            c.check(v).unwrap();
        }
        // The driver overruns: the NIC re-reads slot 0, which still holds
        // the lap-old sequence number 0 while 8 is expected.
        let stale = ring[0];
        let err = c.check(stale).unwrap_err();
        assert_eq!(
            err,
            FaultKind::StaleSequence {
                expected: 8,
                found: 0
            }
        );
        // The checker did not advance; the genuine next descriptor still
        // passes once the hypervisor writes it.
        ring[0] = s.next();
        c.check(ring[0]).unwrap();
    }

    #[test]
    fn aliasing_rule() {
        let s = SeqStamper::new(256);
        assert!(s.prevents_aliasing_for(128));
        assert!(s.prevents_aliasing_for(64));
        assert!(!s.prevents_aliasing_for(129));
        assert!(!s.prevents_aliasing_for(256));
    }

    #[test]
    fn aliasing_danger_demonstrated() {
        // With modulus == ring size, a one-lap-stale descriptor has the
        // *correct* sequence number and evades detection — this is why
        // the paper requires modulus >= 2 * ring size.
        let ring_size = 8;
        let mut s = SeqStamper::new(ring_size);
        let mut c = SeqChecker::new(ring_size);
        let ring: Vec<u32> = (0..ring_size).map(|_| s.next()).collect();
        for &v in &ring {
            c.check(v).unwrap();
        }
        let stale = ring[0];
        assert!(
            c.check(stale).is_ok(),
            "aliasing: stale descriptor accepted when modulus == ring size"
        );
    }

    #[test]
    fn forward_gap_detected() {
        // A skipped descriptor (gap) is just as much a discontinuity as
        // a replayed one: the checker faults without advancing.
        let mut s = SeqStamper::new(16);
        let mut c = SeqChecker::new(16);
        c.check(s.next()).unwrap();
        c.check(s.next()).unwrap();
        let skipped = s.next(); // seq 2 never reaches the checker
        let ahead = s.next(); // seq 3
        let err = c.check(ahead).unwrap_err();
        assert_eq!(
            err,
            FaultKind::StaleSequence {
                expected: 2,
                found: 3
            }
        );
        // The stream recovers once the missing descriptor shows up.
        c.check(skipped).unwrap();
        c.check(ahead).unwrap();
        assert_eq!(c.checked(), 4);
    }

    #[test]
    fn gap_detected_across_wrap() {
        // Continuity is checked modulo the sequence space: a gap that
        // straddles the wrap point is still caught.
        let mut c = SeqChecker::new(4);
        for seq in [0, 1, 2] {
            c.check(seq).unwrap();
        }
        let err = c.check(0).unwrap_err(); // 3 skipped, wrapped to 0
        assert_eq!(
            err,
            FaultKind::StaleSequence {
                expected: 3,
                found: 0
            }
        );
        c.check(3).unwrap();
        c.check(0).unwrap();
    }

    #[test]
    fn reset_rearms_from_zero() {
        let mut c = SeqChecker::new(8);
        c.check(0).unwrap();
        c.check(1).unwrap();
        c.reset();
        assert!(c.check(0).is_ok());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_modulus_rejected() {
        let _ = SeqStamper::new(10);
    }
}
