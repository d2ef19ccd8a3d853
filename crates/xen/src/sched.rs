//! The single-CPU round-robin vcpu scheduler.
//!
//! The paper's testbed was a single-core Opteron 250, so one physical
//! CPU is multiplexed among the driver domain and up to 24 guests. The
//! model is a credit-scheduler-shaped round robin: domains are runnable
//! while they have pending work, block when idle, and are woken by
//! virtual interrupts. Fairness comes from strict rotation; each
//! activation's length is bounded by the system's batch limit rather
//! than a timer slice (the domains here always yield when their work is
//! drained, which is how the paper's I/O-bound domains behave).

use std::collections::VecDeque;

use cdna_mem::DomainId;

/// The runnable queue.
///
/// # Example
///
/// ```
/// use cdna_mem::DomainId;
/// use cdna_xen::RunQueue;
///
/// let mut rq = RunQueue::new();
/// rq.wake(DomainId::guest(0));
/// rq.wake(DomainId::guest(1));
/// rq.wake(DomainId::guest(0)); // idempotent
/// assert_eq!(rq.pick(), Some(DomainId::guest(0)));
/// assert_eq!(rq.pick(), Some(DomainId::guest(1)));
/// assert_eq!(rq.pick(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunQueue {
    queue: VecDeque<DomainId>,
    /// `queued[d]` is whether domain id `d` is in `queue` (grown on
    /// demand), so wake-ups test membership without scanning.
    queued: Vec<bool>,
    last: Option<DomainId>,
    switches: u64,
    activations: u64,
}

impl RunQueue {
    /// An empty queue.
    pub fn new() -> Self {
        RunQueue::default()
    }

    /// Makes `dom` runnable (idempotent while queued).
    #[inline]
    pub fn wake(&mut self, dom: DomainId) {
        let i = dom.0 as usize;
        if i >= self.queued.len() {
            self.queued.resize(i + 1, false);
        }
        if !self.queued[i] {
            self.queued[i] = true;
            self.queue.push_back(dom);
        }
    }

    /// Dequeues the next domain to run, recording whether this is a
    /// domain switch (used to charge world-switch cost).
    #[inline]
    pub fn pick(&mut self) -> Option<DomainId> {
        let dom = self.queue.pop_front()?;
        self.queued[dom.0 as usize] = false;
        self.activations += 1;
        if self.last != Some(dom) {
            self.switches += 1;
        }
        self.last = Some(dom);
        Some(dom)
    }

    /// Re-queues `dom` at the back (it still has work after its batch).
    #[inline]
    pub fn requeue(&mut self, dom: DomainId) {
        self.wake(dom);
    }

    /// Whether any domain is runnable.
    #[inline]
    pub fn has_runnable(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Whether `dom` is queued.
    pub fn is_queued(&self, dom: DomainId) -> bool {
        self.queued.get(dom.0 as usize).copied().unwrap_or(false)
    }

    /// Number of runnable domains.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Domain switches (consecutive activations of different domains).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Total activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The most recently run domain.
    #[inline]
    pub fn last_run(&self) -> Option<DomainId> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_fair() {
        let mut rq = RunQueue::new();
        for i in 0..3 {
            rq.wake(DomainId::guest(i));
        }
        // Every picked domain still has work, so it requeues.
        let mut order = Vec::new();
        for _ in 0..6 {
            let d = rq.pick().unwrap();
            order.push(d.0);
            rq.requeue(d);
        }
        assert_eq!(order, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn wake_is_idempotent() {
        let mut rq = RunQueue::new();
        rq.wake(DomainId::DRIVER);
        rq.wake(DomainId::DRIVER);
        assert_eq!(rq.len(), 1);
    }

    #[test]
    fn switch_counting() {
        let mut rq = RunQueue::new();
        rq.wake(DomainId::guest(0));
        rq.pick();
        // Same domain again: no switch.
        rq.wake(DomainId::guest(0));
        rq.pick();
        assert_eq!(rq.switches(), 1);
        assert_eq!(rq.activations(), 2);
        rq.wake(DomainId::guest(1));
        rq.pick();
        assert_eq!(rq.switches(), 2);
    }

    #[test]
    fn membership_tracks_pick_requeue_and_wake() {
        let mut rq = RunQueue::new();
        let (a, b) = (DomainId::guest(0), DomainId::guest(5));
        assert!(!rq.is_queued(a), "never-seen domain is not queued");
        rq.wake(a);
        rq.wake(b);
        assert!(rq.is_queued(a) && rq.is_queued(b));
        assert_eq!(rq.pick(), Some(a));
        assert!(!rq.is_queued(a), "picked domain leaves the queue");
        assert!(rq.is_queued(b));
        // Requeue after a batch goes behind b; a second wake is a no-op.
        rq.requeue(a);
        rq.wake(a);
        assert_eq!(rq.len(), 2);
        assert_eq!(rq.pick(), Some(b));
        assert_eq!(rq.pick(), Some(a));
        assert!(!rq.is_queued(a) && !rq.is_queued(b));
        assert!(rq.is_empty());
        // A woken-again domain is queued exactly once more.
        rq.wake(b);
        rq.wake(b);
        assert_eq!(rq.len(), 1);
        assert!(rq.is_queued(b));
    }

    #[test]
    fn blocked_domains_are_not_queued() {
        let mut rq = RunQueue::new();
        rq.wake(DomainId::guest(0));
        assert_eq!(rq.pick(), Some(DomainId::guest(0)));
        // Domain finished its work and blocked: not requeued.
        assert!(!rq.has_runnable());
        assert!(!rq.is_queued(DomainId::guest(0)));
    }
}
