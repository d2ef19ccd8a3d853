//! Interrupt bit vectors and their delivery ring (paper §3.2).
//!
//! The NIC tracks which contexts have state updates since the last
//! physical interrupt in a 32-bit vector (one bit per context), DMAs the
//! vector into a circular buffer in **hypervisor** memory using a
//! producer/consumer protocol, and only then raises a physical
//! interrupt. The hypervisor's interrupt service routine drains all
//! pending vectors and posts virtual interrupts to each flagged guest.

use crate::{ContextId, CTX_COUNT};

/// A set of contexts with pending updates, one bit per context.
///
/// # Example
///
/// ```
/// use cdna_core::{ContextId, InterruptBitVector};
///
/// let mut v = InterruptBitVector::EMPTY;
/// v.set(ContextId(3));
/// v.set(ContextId(17));
/// assert_eq!(v.iter().collect::<Vec<_>>(), vec![ContextId(3), ContextId(17)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct InterruptBitVector(pub u32);

impl InterruptBitVector {
    /// No contexts pending.
    pub const EMPTY: InterruptBitVector = InterruptBitVector(0);

    /// Marks `ctx` pending.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of hardware range.
    #[inline]
    pub fn set(&mut self, ctx: ContextId) {
        assert!(ctx.is_valid(), "context {ctx} out of range");
        self.0 |= 1 << ctx.0;
    }

    /// Whether `ctx` is pending.
    pub fn contains(&self, ctx: ContextId) -> bool {
        ctx.is_valid() && self.0 & (1 << ctx.0) != 0
    }

    /// Whether no context is pending.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Union with another vector.
    pub fn merge(&mut self, other: InterruptBitVector) {
        self.0 |= other.0;
    }

    /// Iterates pending contexts in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ContextId> + '_ {
        let bits = self.0;
        (0..CTX_COUNT as u8)
            .filter(move |i| bits & (1 << i) != 0)
            .map(ContextId)
    }

    /// Number of pending contexts.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }
}

/// The circular buffer of interrupt bit vectors in hypervisor memory.
///
/// The NIC produces; the hypervisor ISR consumes. The
/// producer/consumer protocol guarantees vectors are processed before
/// being overwritten — when the ring is full the NIC holds the vector
/// and merges further updates into it (see [`VectorPort`]).
#[derive(Debug, Clone)]
pub struct BitVectorRing {
    slots: Vec<InterruptBitVector>,
    produced: u64,
    consumed: u64,
}

impl BitVectorRing {
    /// A ring with `size` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two ≥ 2.
    pub fn new(size: u32) -> Self {
        assert!(
            size.is_power_of_two() && size >= 2,
            "ring size must be a power of two >= 2, got {size}"
        );
        BitVectorRing {
            slots: vec![InterruptBitVector::EMPTY; size as usize],
            produced: 0,
            consumed: 0,
        }
    }

    /// Slots in the ring.
    pub fn size(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Whether the ring has no unconsumed vectors.
    pub fn is_empty(&self) -> bool {
        self.produced == self.consumed
    }

    /// Whether the ring has no room for another vector.
    pub fn is_full(&self) -> bool {
        self.produced - self.consumed == self.slots.len() as u64
    }

    /// NIC side: pushes a vector. Returns `false` (vector not stored)
    /// when the ring is full.
    #[inline]
    pub fn push(&mut self, v: InterruptBitVector) -> bool {
        if self.is_full() {
            return false;
        }
        let slot = (self.produced % self.slots.len() as u64) as usize;
        self.slots[slot] = v;
        self.produced += 1;
        true
    }

    /// Hypervisor side: pops the oldest unconsumed vector.
    pub fn pop(&mut self) -> Option<InterruptBitVector> {
        if self.is_empty() {
            return None;
        }
        let slot = (self.consumed % self.slots.len() as u64) as usize;
        self.consumed += 1;
        Some(self.slots[slot])
    }

    /// Hypervisor side: drains every pending vector into their union —
    /// what the ISR does before scheduling virtual interrupts.
    #[inline]
    pub fn drain(&mut self) -> InterruptBitVector {
        let mut all = InterruptBitVector::EMPTY;
        while let Some(v) = self.pop() {
            all.merge(v);
        }
        all
    }

    /// Vectors produced over the ring's lifetime.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

/// The NIC-side accumulator feeding the ring.
///
/// Between physical interrupts the firmware accumulates context updates
/// here; [`VectorPort::flush`] transfers the accumulated vector into the
/// ring (the DMA the paper describes) and reports whether a physical
/// interrupt should be raised. If the ring is full the vector stays
/// accumulated and is merged with future updates — no update is ever
/// lost, matching the protocol's intent.
#[derive(Debug, Clone, Default)]
pub struct VectorPort {
    pending: InterruptBitVector,
}

impl VectorPort {
    /// An empty accumulator.
    pub fn new() -> Self {
        VectorPort::default()
    }

    /// Records a state update for `ctx`.
    #[inline]
    pub fn note_update(&mut self, ctx: ContextId) {
        self.pending.set(ctx);
    }

    /// Whether any update is waiting to be flushed.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Attempts to move the accumulated vector into the ring. Returns
    /// `true` if a vector was written (the caller should DMA it and
    /// raise a physical interrupt), `false` if there was nothing to
    /// flush or the ring was full.
    #[inline]
    pub fn flush(&mut self, ring: &mut BitVectorRing) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        if ring.push(self.pending) {
            self.pending = InterruptBitVector::EMPTY;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_iterate() {
        let mut v = InterruptBitVector::EMPTY;
        v.set(ContextId(0));
        v.set(ContextId(31));
        assert!(v.contains(ContextId(0)));
        assert!(v.contains(ContextId(31)));
        assert!(!v.contains(ContextId(15)));
        assert_eq!(v.count(), 2);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![ContextId(0), ContextId(31)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_context_panics() {
        let mut v = InterruptBitVector::EMPTY;
        v.set(ContextId(32));
    }

    #[test]
    fn empty_vector_scans_to_nothing() {
        let v = InterruptBitVector::EMPTY;
        assert_eq!(v.count(), 0);
        assert_eq!(v.iter().next(), None);
        assert!(!v.contains(ContextId(0)));
        assert!(!v.contains(ContextId(31)));
    }

    #[test]
    fn bit_31_is_the_last_context() {
        // The top bit of the 32-wide vector: set, observe, and make sure
        // iteration terminates instead of scanning past the word.
        let mut v = InterruptBitVector::EMPTY;
        v.set(ContextId(31));
        assert_eq!(v.count(), 1);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![ContextId(31)]);
        assert_eq!(v.0, 1 << 31);
    }

    #[test]
    fn ring_push_pop_fifo() {
        let mut ring = BitVectorRing::new(4);
        for i in 0..3u32 {
            assert!(ring.push(InterruptBitVector(1 << i)));
        }
        assert_eq!(ring.pop(), Some(InterruptBitVector(1)));
        assert_eq!(ring.pop(), Some(InterruptBitVector(2)));
        assert_eq!(ring.pop(), Some(InterruptBitVector(4)));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn full_ring_rejects_push() {
        let mut ring = BitVectorRing::new(2);
        assert!(ring.push(InterruptBitVector(1)));
        assert!(ring.push(InterruptBitVector(2)));
        assert!(ring.is_full());
        assert!(!ring.push(InterruptBitVector(4)), "overwrite prevented");
        ring.pop();
        assert!(ring.push(InterruptBitVector(4)), "space reclaimed");
    }

    #[test]
    fn drain_unions_all_vectors() {
        let mut ring = BitVectorRing::new(8);
        ring.push(InterruptBitVector(0b0001));
        ring.push(InterruptBitVector(0b1000));
        ring.push(InterruptBitVector(0b0010));
        let all = ring.drain();
        assert_eq!(all, InterruptBitVector(0b1011));
        assert!(ring.is_empty());
    }

    #[test]
    fn port_accumulates_and_flushes() {
        let mut port = VectorPort::new();
        let mut ring = BitVectorRing::new(4);
        assert!(!port.flush(&mut ring), "nothing to flush");
        port.note_update(ContextId(2));
        port.note_update(ContextId(7));
        assert!(port.has_pending());
        assert!(port.flush(&mut ring));
        assert!(!port.has_pending());
        assert_eq!(ring.pop().unwrap(), InterruptBitVector((1 << 2) | (1 << 7)));
    }

    #[test]
    fn port_merges_when_ring_full_and_never_loses_updates() {
        let mut port = VectorPort::new();
        let mut ring = BitVectorRing::new(2);
        ring.push(InterruptBitVector(1));
        ring.push(InterruptBitVector(2));
        port.note_update(ContextId(4));
        assert!(!port.flush(&mut ring), "ring full, vector held");
        port.note_update(ContextId(5));
        ring.pop();
        assert!(port.flush(&mut ring));
        // Ring now holds the merged {4,5} vector after the old ones.
        ring.pop();
        assert_eq!(ring.pop().unwrap(), InterruptBitVector((1 << 4) | (1 << 5)));
    }
}
