//! Event queues: the hierarchical timer wheel every simulation runs on,
//! and the binary heap kept as its reference oracle.
//!
//! Both deliver events in identical order — ascending `(time, seq)`, so
//! equal-time events fire strictly FIFO — which the differential tests
//! in `tests/differential.rs` verify against hundreds of randomized
//! schedules, feeding the [`HeapQueue`] in through
//! [`crate::Simulation::with_event_queue`]. In the [`TimerWheel`],
//! inserts into the near-future wheel are O(1) and pops come off a small
//! active-epoch buffer instead of one global heap holding every pending
//! timer.
//!
//! # Timer wheel determinism argument
//!
//! Time is split into power-of-two *epochs* of [`EPOCH_NS`] nanoseconds.
//! The wheel keeps three structures:
//!
//! * `front`: a `Vec` sorted *descending* by `(time, seq)` holding only
//!   events of the *active* epoch `epoch0` — the minimum is at the end,
//!   so a pop is a plain `Vec::pop`;
//! * `slots`: [`WHEEL_SLOTS`] buckets covering epochs
//!   `(epoch0, epoch0 + WHEEL_SLOTS]`, each an unordered `Vec`;
//! * `overflow`: a `Vec` sorted descending by `(time, seq)` for epochs
//!   beyond the wheel span.
//!
//! Invariants (each preserved by `push` and `advance`):
//!
//! 1. Every event in `front` has epoch `epoch0`; every event in `slots`
//!    or `overflow` has a strictly later epoch. Hence the last element
//!    of `front` is the global minimum, and popping it yields exactly
//!    the `(time, seq)`-minimal pending event.
//! 2. A non-empty slot holds events of exactly one epoch. Two epochs
//!    mapping to the same slot differ by a multiple of [`WHEEL_SLOTS`];
//!    inserting the later one would require `epoch0` to have advanced
//!    *past* the earlier one — impossible, because `advance` always
//!    moves `epoch0` to the minimum pending epoch, which the occupied
//!    slot bounds from above.
//! 3. `advance` (called only when `front` is empty) finds the minimum
//!    pending epoch — the first occupied slot in cyclic order, or the
//!    overflow minimum, whichever is earlier — drains *both* sources
//!    for that epoch into `front`, and sorts it. Equal-time events
//!    therefore always meet in `front`, where the `(time, seq)` order
//!    makes ties FIFO.
//!
//! Because scheduling is always at-or-after the current time, pushes
//! never target an epoch before `epoch0`, and the cycle-aliasing case in
//! invariant 2 cannot arise. The wheel is thus observationally identical
//! to a single `(time, seq)` heap.
//!
//! The wheel deliberately avoids `std::collections::BinaryHeap`: slot
//! inserts are a single append, the per-epoch sort touches only a
//! handful of events, and `advance` *swaps* the drained slot's buffer
//! with the (empty) front buffer, so buffer capacity circulates between
//! the front and the slots and the steady state allocates nothing.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::SimTime;

/// log2 of the epoch width: 8192 ns epochs.
const EPOCH_SHIFT: u32 = 13;
/// Width of one wheel epoch in nanoseconds.
pub const EPOCH_NS: u64 = 1 << EPOCH_SHIFT;
/// Number of wheel slots; the wheel spans `WHEEL_SLOTS * EPOCH_NS` ≈ 1 ms
/// beyond the active epoch. Must stay a power of two (slot index is a
/// mask) and a multiple of 64 (occupancy bitmap words).
pub const WHEEL_SLOTS: usize = 256;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// A pending event: absolute time plus the tie-breaking sequence number
/// assigned at schedule time.
#[derive(Debug, Clone)]
struct Queued<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Queued<E> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Queued<E> {}
impl<E> PartialOrd for Queued<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Queued<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Compare `seq` only on a time tie: this sits on every heap
        // sift, and an eager `then(..)` changes the hot loop's codegen.
        match self.at.cmp(&other.at) {
            std::cmp::Ordering::Equal => self.seq.cmp(&other.seq),
            ord @ (std::cmp::Ordering::Less | std::cmp::Ordering::Greater) => ord,
        }
    }
}

/// Interface between the [`crate::Scheduler`] and its backing queue.
///
/// Implementations must deliver events in ascending `(time, seq)` order;
/// the sequence number is assigned by the scheduler and is unique, so
/// the order is total.
pub trait EventQueue<E> {
    /// Enqueues `event` at absolute time `at` with tie-breaker `seq`.
    fn push(&mut self, at: SimTime, seq: u64, event: E);
    /// Removes and returns the `(time, seq)`-minimal event.
    fn pop(&mut self) -> Option<(SimTime, u64, E)>;
    /// Like [`EventQueue::pop`], but only if the minimal event's time is
    /// at or before `deadline` — one call replaces the peek-then-pop
    /// pattern in `run_until`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One global binary heap ordered by `(time, seq)`: the queue the wheel
/// replaced, kept as the differential tests' reference oracle.
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Queued<E>>>,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> EventQueue<E> for HeapQueue<E> {
    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        self.heap.push(Reverse(Queued { at, seq, event }));
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|Reverse(q)| (q.at, q.seq, q.event))
    }

    #[inline]
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        match self.heap.peek_mut() {
            Some(pm) if pm.0.at <= deadline => {
                let Reverse(q) = PeekMut::pop(pm);
                Some((q.at, q.seq, q.event))
            }
            _ => None,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Hierarchical timer wheel (see the module docs for the determinism
/// argument).
#[derive(Debug, Clone)]
pub struct TimerWheel<E> {
    /// Events of the active epoch, sorted descending by `(time, seq)`
    /// so the minimum pops off the end.
    front: Vec<Queued<E>>,
    /// Near-future epochs `(epoch0, epoch0 + WHEEL_SLOTS]`, unordered.
    slots: Vec<Vec<Queued<E>>>,
    /// Occupancy bitmap over `slots` (bit i = slot i non-empty).
    occupied: [u64; OCC_WORDS],
    /// Far-future events, sorted descending by `(time, seq)`.
    overflow: Vec<Queued<E>>,
    /// The active epoch (`time >> EPOCH_SHIFT`).
    epoch0: u64,
    /// Events currently resident in `slots`.
    wheel_len: usize,
    /// Total pending events.
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel with the active epoch at time zero.
    pub fn new() -> Self {
        TimerWheel {
            front: Vec::new(),
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            overflow: Vec::new(),
            epoch0: 0,
            wheel_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn set_occupied(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear_occupied(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// First occupied slot at cyclic distance 1..=WHEEL_SLOTS from
    /// `epoch0`, or `None` if the wheel is empty.
    fn first_occupied_slot(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = ((self.epoch0 + 1) & SLOT_MASK) as usize;
        // Scan the bitmap from `start`, wrapping once. Word-at-a-time:
        // mask off bits below `start` in the first word.
        let start_word = start / 64;
        for step in 0..=OCC_WORDS {
            let w = (start_word + step) % OCC_WORDS;
            let mut word = self.occupied[w];
            if step == 0 {
                word &= !0u64 << (start % 64);
            } else if step == OCC_WORDS {
                // Wrapped all the way around: only bits below `start`
                // in the start word remain unexamined.
                word = self.occupied[w] & !(!0u64 << (start % 64));
            }
            if word != 0 {
                return Some((w % OCC_WORDS) * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Moves every event of the minimum pending epoch into `front`,
    /// sorts it descending, and makes that epoch active. Caller
    /// guarantees `front` is empty; a fully empty wheel is a no-op.
    fn advance(&mut self) {
        debug_assert!(self.front.is_empty());
        let wheel_epoch = self.first_occupied_slot().map(|slot| {
            let epoch = self.slots[slot][0].at.as_ns() >> EPOCH_SHIFT;
            (epoch, slot)
        });
        // `overflow` is sorted descending, so its minimum is last.
        let overflow_epoch = self.overflow.last().map(|q| q.at.as_ns() >> EPOCH_SHIFT);

        let next = match (wheel_epoch, overflow_epoch) {
            (Some((we, _)), Some(oe)) => we.min(oe),
            (Some((we, _)), None) => we,
            (None, Some(oe)) => oe,
            (None, None) => return,
        };

        if let Some((we, slot)) = wheel_epoch {
            if we == next {
                // Swap buffers instead of draining: the slot inherits the
                // front's old (empty) allocation, so capacity circulates
                // and the steady state never reallocates.
                std::mem::swap(&mut self.front, &mut self.slots[slot]);
                self.wheel_len -= self.front.len();
                self.clear_occupied(slot);
            }
        }
        while self
            .overflow
            .last()
            .is_some_and(|q| q.at.as_ns() >> EPOCH_SHIFT == next)
        {
            if let Some(q) = self.overflow.pop() {
                self.front.push(q);
            }
        }
        self.front.sort_unstable_by(|a, b| b.cmp(a)); // descending: minimum last
        self.epoch0 = next;
        debug_assert!(!self.front.is_empty());
    }
}

impl<E> EventQueue<E> for TimerWheel<E> {
    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        let epoch = at.as_ns() >> EPOCH_SHIFT;
        self.len += 1;
        let q = Queued { at, seq, event };
        if epoch <= self.epoch0 {
            // Active epoch (scheduling is never in the past, so "before
            // the active epoch" cannot happen; `<=` is defensive).
            // Sorted-descending insert; the front is small (one epoch).
            let pos = self.front.partition_point(|x| x.cmp(&q).is_gt());
            self.front.insert(pos, q);
        } else if epoch - self.epoch0 <= WHEEL_SLOTS as u64 {
            let slot = (epoch & SLOT_MASK) as usize;
            self.slots[slot].push(q);
            self.set_occupied(slot);
            self.wheel_len += 1;
        } else {
            let pos = self.overflow.partition_point(|x| x.cmp(&q).is_gt());
            self.overflow.insert(pos, q);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        let q = self.front.pop()?;
        self.len -= 1;
        Some((q.at, q.seq, q.event))
    }

    #[inline]
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        match self.front.last() {
            Some(q) if q.at <= deadline => {
                let q = self.front.pop()?;
                self.len -= 1;
                Some((q.at, q.seq, q.event))
            }
            _ => None,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// Which built-in queue a [`crate::Scheduler`] uses. The timer wheel is
/// the only one; the type stays so configs can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The hierarchical timer wheel.
    #[default]
    TimerWheel,
}

impl QueueKind {
    /// Stable lower-case name, as used in `BENCH.json`.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::TimerWheel => "wheel",
        }
    }
}

/// The built-in wheel or an externally supplied queue. The enum avoids
/// both genericizing `Scheduler` (which would ripple a type parameter
/// through `World` implementations) and a `dyn` indirection on the hot
/// path. `Custom` holds the `cdna-model` schedule explorer's permutation
/// queue, which deliberately reorders same-time ties and carries the
/// explorer's schedule controller, and the differential tests' heap
/// oracle; it pays the `dyn` cost, but never runs on the perf path.
///
/// The custom box is `Send` so that a `Simulation` over a `Send` world
/// is itself `Send` regardless of queue kind — `cdna-rack` hands each
/// worker's slice of per-host simulations to the barrier and back over
/// a [`crate::par`] channel every epoch. It is cloned through
/// [`CustomQueue::clone_box`], so a simulation on either variant can be
/// snapshotted mid-run; its `Debug` prints the whole queue, and
/// [`crate::Simulation::queue_mut`] downcasts it back to its type.
pub(crate) enum QueueImpl<E> {
    Wheel(TimerWheel<E>),
    Custom(Box<dyn CustomQueue<E>>),
}

/// A caller-supplied queue behind the `Custom` box: any `Clone + Send +
/// Sync + Debug` [`EventQueue`], cloned into a fresh box.
pub(crate) trait CustomQueue<E>: EventQueue<E> + Send + Sync + std::fmt::Debug {
    fn clone_box(&self) -> Box<dyn CustomQueue<E>>;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<E, Q: EventQueue<E> + Clone + Send + Sync + std::fmt::Debug + 'static> CustomQueue<E> for Q {
    fn clone_box(&self) -> Box<dyn CustomQueue<E>> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<E: Clone> Clone for QueueImpl<E> {
    fn clone(&self) -> Self {
        match self {
            QueueImpl::Wheel(q) => QueueImpl::Wheel(q.clone()),
            QueueImpl::Custom(q) => QueueImpl::Custom(q.clone_box()),
        }
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for QueueImpl<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueImpl::Wheel(q) => f.debug_tuple("Wheel").field(q).finish(),
            QueueImpl::Custom(q) => f.debug_tuple("Custom").field(q).finish(),
        }
    }
}

impl<E> QueueImpl<E> {
    pub(crate) fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::TimerWheel => QueueImpl::Wheel(TimerWheel::new()),
        }
    }
}

impl<E> EventQueue<E> for QueueImpl<E> {
    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        match self {
            QueueImpl::Wheel(q) => q.push(at, seq, event),
            QueueImpl::Custom(q) => q.push(at, seq, event),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        match self {
            QueueImpl::Wheel(q) => q.pop(),
            QueueImpl::Custom(q) => q.pop(),
        }
    }

    #[inline]
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        match self {
            QueueImpl::Wheel(q) => q.pop_due(deadline),
            QueueImpl::Custom(q) => q.pop_due(deadline),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            QueueImpl::Wheel(q) => q.len(),
            QueueImpl::Custom(q) => q.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(SimTime, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn wheel_orders_across_structures() {
        let mut w = TimerWheel::new();
        // Far future (overflow), near future (wheel), active epoch (front).
        w.push(SimTime::from_ms(50), 0, 1);
        w.push(SimTime::from_us(100), 1, 2);
        w.push(SimTime::from_ns(5), 2, 3);
        assert_eq!(w.len(), 3);
        let order: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![3, 2, 1]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_equal_times_pop_fifo_even_when_split() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_ms(10); // beyond the wheel span: overflow
        w.push(t, 0, 10);
        // Drain a nearer event so epoch0 advances and the same time now
        // lands in the wheel window.
        w.push(SimTime::from_ms(9), 1, 9);
        assert_eq!(w.pop().map(|(_, _, e)| e), Some(9));
        w.push(t, 2, 11);
        assert_eq!(w.pop(), Some((t, 0, 10)));
        assert_eq!(w.pop(), Some((t, 2, 11)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn wheel_pop_due_respects_deadline_mid_bucket() {
        let mut w = TimerWheel::new();
        let t1 = SimTime::from_ns(EPOCH_NS * 10 + 100);
        let t2 = SimTime::from_ns(EPOCH_NS * 10 + 200); // same epoch as t1
        w.push(t1, 0, 1);
        w.push(t2, 1, 2);
        let mid = SimTime::from_ns(EPOCH_NS * 10 + 150);
        assert_eq!(w.pop_due(mid), Some((t1, 0, 1)));
        assert_eq!(w.pop_due(mid), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(t2), Some((t2, 1, 2)));
    }

    #[test]
    fn wheel_slot_aliasing_resolves_by_epoch() {
        let mut w = TimerWheel::new();
        // Two times whose epochs map to the same slot (differ by exactly
        // WHEEL_SLOTS epochs) plus one in between.
        let near = SimTime::from_ns(EPOCH_NS * 3);
        let far = SimTime::from_ns(EPOCH_NS * (3 + WHEEL_SLOTS as u64 + 1));
        let mid = SimTime::from_ns(EPOCH_NS * 100);
        w.push(near, 0, 1);
        w.push(far, 1, 3);
        w.push(mid, 2, 2);
        let order: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn heap_and_wheel_agree_on_interleaved_pushes_and_pops() {
        let mut h = HeapQueue::new();
        let mut w = TimerWheel::new();
        let times: Vec<u64> = vec![
            0,
            1,
            1,
            EPOCH_NS - 1,
            EPOCH_NS,
            EPOCH_NS + 1,
            EPOCH_NS * WHEEL_SLOTS as u64,
            EPOCH_NS * WHEEL_SLOTS as u64 + 1,
            EPOCH_NS * (WHEEL_SLOTS as u64 + 2),
            1_000_000_000,
        ];
        for (seq, &t) in times.iter().enumerate() {
            h.push(SimTime::from_ns(t), seq as u64, seq as u32);
            w.push(SimTime::from_ns(t), seq as u64, seq as u32);
        }
        for _ in 0..times.len() {
            assert_eq!(h.pop(), w.pop());
        }
        assert_eq!(h.pop(), None);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn queue_kind_names_are_stable() {
        assert_eq!(QueueKind::TimerWheel.name(), "wheel");
        assert_eq!(QueueKind::default(), QueueKind::TimerWheel);
    }
}
