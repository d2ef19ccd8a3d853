//! The permutation event queue and its schedule controller.
//!
//! [`PermutationQueue`] is an [`EventQueue`] that delivers events in
//! ascending time order but lets its [`Controller`] pick *which* of the
//! events tied at the minimum timestamp goes first. Replaying a recorded
//! prefix of picks reproduces a schedule exactly (the simulation is
//! otherwise deterministic); diverging at the deepest unexplored branch
//! enumerates all schedules depth-first. A pausing controller
//! ([`Controller::pausing`]) also stops the queue before every fresh
//! decision, so the explorer can snapshot the simulation there and
//! later resume from it with another candidate forced
//! ([`Controller::resume`]). The queue owns its controller, so a
//! snapshot carries the decisions taken up to its pause.

use std::collections::VecDeque;

use cdna_sim::{EventQueue, SimTime};
use cdna_system::Event;

/// The NIC an event is scoped to, or `None` for global events
/// (CPU dispatch and the measurement-window markers).
fn nic_scope(e: &Event) -> Option<usize> {
    match e {
        Event::PhysIrq { nic, .. }
        | Event::EmissionDue { nic, .. }
        | Event::WireTxDone { nic, .. }
        | Event::WireRxArrive { nic, .. }
        | Event::PeerPump { nic } => Some(*nic),
        Event::CpuDispatch | Event::StartMeasure | Event::StopMeasure => None,
    }
}

/// Whether delivering `a` and `b` in either order can produce different
/// outcomes.
///
/// Events scoped to *different* NICs only touch per-NIC device, wire,
/// and ring state plus commutative global counters, so they are treated
/// as independent and their tie orders are not both explored. Global
/// events (CPU dispatch, measurement markers) conflict with everything.
/// This is a partial-order reduction in the sleep-set style; see the
/// crate docs for what that does and does not prove.
pub fn dependent(a: &Event, b: &Event) -> bool {
    match (nic_scope(a), nic_scope(b)) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// One recorded scheduling decision: which tie-set member was delivered
/// and which members were worth exploring at all.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Index (into the tie set) of the event that was delivered.
    pub chosen: usize,
    /// Explorable tie-set indices, ascending; `chosen` is one of them
    /// except beyond the depth bound.
    pub candidates: Vec<usize>,
}

/// Replays a prefix of scheduling choices, then defaults to the first
/// candidate, recording every decision for backtracking.
#[derive(Debug, Clone, Default)]
pub struct Controller {
    prefix: Vec<usize>,
    /// Decisions taken this run, in order.
    pub record: Vec<Decision>,
    max_depth: usize,
    /// Whether the depth bound suppressed at least one decision.
    pub depth_truncated: bool,
    /// Whether to pause before each fresh decision below `max_depth`.
    pauses: bool,
    /// Whether the queue is paused before the fresh decision at depth
    /// `record.len()`.
    paused: bool,
}

impl Controller {
    /// A controller that replays `prefix` and records at most
    /// `max_depth` decisions.
    pub fn new(prefix: Vec<usize>, max_depth: usize) -> Self {
        Controller {
            prefix,
            max_depth,
            ..Controller::default()
        }
    }

    /// A controller with an empty prefix that pauses the queue before
    /// every fresh decision below `max_depth`: the pop that would take
    /// it yields nothing, until [`Controller::unpause`] pins the
    /// default choice.
    pub fn pausing(max_depth: usize) -> Self {
        Controller {
            pauses: true,
            ..Controller::new(Vec::new(), max_depth)
        }
    }

    /// Picks a tie-set member from `candidates` (ascending, non-empty,
    /// first element 0): the replayed prefix choice while one remains,
    /// the first candidate otherwise. `None` pauses a pausing controller
    /// before a fresh decision; nothing is recorded then.
    pub fn choose(&mut self, candidates: Vec<usize>) -> Option<usize> {
        let depth = self.record.len();
        if depth >= self.max_depth {
            self.depth_truncated = true;
            return Some(candidates[0]);
        }
        let chosen = if let Some(&c) = self.prefix.get(depth) {
            c
        } else if self.pauses {
            self.paused = true;
            return None;
        } else {
            candidates[0]
        };
        self.record.push(Decision { chosen, candidates });
        Some(chosen)
    }

    /// Ends a pause: pins the default choice into the prefix, so the
    /// next pop takes it, and returns the depth of the decision the
    /// queue paused before. `None` when the queue is not paused.
    pub fn unpause(&mut self) -> Option<usize> {
        if !std::mem::take(&mut self.paused) {
            return None;
        }
        self.prefix.push(0);
        Some(self.record.len())
    }

    /// Sets up a snapshot's controller, whose record holds the first
    /// `record.len() <= depth` decisions of the schedule `finished` ran,
    /// to run the branch that forces `candidate` at decision `depth`:
    /// the prefix replays `finished`'s choices up to `depth`, then
    /// `candidate`. Nothing else needs resetting, so the snapshot then
    /// resumes as the schedule [`Controller::next_branch`] named.
    pub fn resume(&mut self, finished: &Controller, depth: usize, candidate: usize) {
        self.prefix.clear();
        self.prefix
            .extend(finished.record[..depth].iter().map(|d| d.chosen));
        self.prefix.push(candidate);
    }

    /// The next unexplored branch, as `(depth, candidate)`: the deepest
    /// decision with an untried candidate after `chosen`, and that
    /// candidate. `None` when the bounded tree is exhausted.
    pub fn next_branch(&self) -> Option<(usize, usize)> {
        self.record.iter().enumerate().rev().find_map(|(d, dec)| {
            let pos = dec.candidates.iter().position(|&c| c == dec.chosen)?;
            dec.candidates.get(pos + 1).map(|&c| (d, c))
        })
    }

    /// The prefix for the next unexplored schedule
    /// ([`Controller::next_branch`]) when it is replayed from time
    /// zero. `None` when the bounded tree is exhausted.
    pub fn next_prefix(&self) -> Option<Vec<usize>> {
        let (d, c) = self.next_branch()?;
        let mut p: Vec<usize> = self.record[..d].iter().map(|x| x.chosen).collect();
        p.push(c);
        Some(p)
    }
}

/// An [`EventQueue`] whose same-timestamp tie-breaks are made by the
/// [`Controller`] it owns.
///
/// The queue keeps events sorted ascending by `(time, seq)` in a ring
/// buffer, so the tie set at the minimum time is a contiguous run at
/// the front: the default pick is an O(1) front pop, and a push that
/// sorts last appends without a search.
///
/// With a nonzero `tie_window` the tie set widens to every pending
/// event within the window of the earliest one, modeling bounded timing
/// jitter in the cost model's point estimates (an interrupt can fire a
/// hair before a scheduler tick that nominally precedes it). Events
/// delivered out of raw-time order are lifted to the latest time
/// already delivered, so the engine's clock-monotonicity invariant
/// holds for every schedule.
///
/// A clone copies the pending events and the controller: a snapshot
/// holds the decisions its run took before it, and its own choices
/// after it touch no other copy. The explorer reaches a simulation's
/// queue through [`cdna_sim::Simulation::queue_mut`].
#[derive(Debug, Clone)]
pub struct PermutationQueue {
    pending: VecDeque<(SimTime, u64, Event)>,
    /// The controller every tie-break of this queue answers to.
    pub ctrl: Controller,
    tie_window: SimTime,
    last_delivered: SimTime,
}

impl PermutationQueue {
    /// An empty queue driven by `ctrl` that treats events within
    /// `tie_window` of the earliest pending event as tied
    /// (`SimTime::ZERO` forks exact ties only).
    pub fn new(ctrl: Controller, tie_window: SimTime) -> Self {
        PermutationQueue {
            pending: VecDeque::new(),
            ctrl,
            tie_window,
            last_delivered: SimTime::ZERO,
        }
    }

    /// Length of the tie set due by `deadline`: every pending event
    /// within the tie window of the earliest, never reaching past
    /// `deadline`; 0 when no event is due. The tie set is left at the
    /// start of the ring buffer's front slice: one that straddles the
    /// wrap point is made contiguous first, which happens at most once
    /// per lap of the buffer.
    fn tie_len(&mut self, deadline: SimTime) -> usize {
        let Some(&(t0, _, _)) = self.pending.front() else {
            return 0;
        };
        if t0 > deadline {
            return 0;
        }
        let horizon = t0.checked_add(self.tie_window).unwrap_or(t0).min(deadline);
        let (front, back) = self.pending.as_slices();
        let within = |q: &&(SimTime, u64, Event)| q.0 <= horizon;
        let mut tie = front.iter().take_while(within).count();
        if tie == front.len() {
            tie += back.iter().take_while(within).count();
        }
        if tie > front.len() {
            self.pending.make_contiguous();
        }
        tie
    }
}

/// Index (into `tie`) of the event to deliver next, consulting the
/// controller when the tie set has more than one explorable member;
/// `None` while the controller pauses.
fn pick(tie: &[(SimTime, u64, Event)], ctrl: &mut Controller) -> Option<usize> {
    if tie.len() <= 1 {
        return Some(0);
    }
    // Sleep-set pruning: candidate j is explorable iff it is the
    // default (j == 0) or it conflicts with some event before it in
    // the tie set — swapping independent events cannot change the
    // outcome, so those orders are never forked. A tie set with no
    // explorable member past the default is no decision, and allocates
    // nothing.
    let mut explorable = tie
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(j, (_, _, b))| tie[..j].iter().any(|(_, _, a)| dependent(a, b)))
        .map(|(j, _)| j);
    let Some(second) = explorable.next() else {
        return Some(0);
    };
    let mut candidates = vec![0, second];
    candidates.extend(explorable);
    ctrl.choose(candidates)
}

impl EventQueue<Event> for PermutationQueue {
    fn push(&mut self, at: SimTime, seq: u64, event: Event) {
        let key = (at, seq);
        if self.pending.back().is_none_or(|q| (q.0, q.1) <= key) {
            self.pending.push_back((at, seq, event));
            return;
        }
        // Scan back from the latest event: the engine schedules into
        // the near future, so the slot is a few events from the back.
        let pos = self
            .pending
            .iter()
            .rposition(|q| (q.0, q.1) <= key)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, (at, seq, event));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, Event)> {
        self.pop_due(SimTime::MAX)
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, Event)> {
        let tie = self.tie_len(deadline);
        if tie == 0 {
            return None;
        }
        let idx = pick(&self.pending.as_slices().0[..tie], &mut self.ctrl)?;
        let (at, seq, event) = if idx == 0 {
            self.pending.pop_front()
        } else {
            self.pending.remove(idx)
        }?;
        // Jitter lift: an event overtaken inside the tie window is
        // delivered at the overtaker's time so the clock never regresses.
        let at = at.max(self.last_delivered);
        self.last_delivered = at;
        Some((at, seq, event))
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(prefix: Vec<usize>) -> PermutationQueue {
        PermutationQueue::new(Controller::new(prefix, 64), SimTime::ZERO)
    }

    fn nic_event(nic: usize) -> Event {
        Event::PeerPump { nic }
    }

    #[test]
    fn singleton_pops_need_no_decision() {
        let mut q = queue(vec![]);
        q.push(SimTime::from_ns(10), 0, nic_event(0));
        q.push(SimTime::from_ns(20), 1, nic_event(0));
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert!(q.ctrl.record.is_empty());
    }

    #[test]
    fn dependent_tie_forks_and_prefix_replays_the_branch() {
        // Two same-NIC events tied at t=5: dependent, so both orders
        // are schedules.
        let mut q = queue(vec![]);
        q.push(SimTime::from_ns(5), 0, nic_event(0));
        q.push(SimTime::from_ns(5), 1, nic_event(0));
        let first = q.pop().map(|(_, seq, _)| seq);
        assert_eq!(first, Some(0), "default order is FIFO");
        let next = q.ctrl.next_prefix();
        assert_eq!(next, Some(vec![1]), "the swap is the next schedule");

        let mut q2 = queue(vec![1]);
        q2.push(SimTime::from_ns(5), 0, nic_event(0));
        q2.push(SimTime::from_ns(5), 1, nic_event(0));
        assert_eq!(q2.pop().map(|(_, s, _)| s), Some(1), "replayed swap");
        assert_eq!(q2.pop().map(|(_, s, _)| s), Some(0));
        assert_eq!(q2.ctrl.next_prefix(), None, "tree exhausted");
    }

    #[test]
    fn independent_ties_are_pruned() {
        // Different NICs: commutative, no fork.
        let mut q = queue(vec![]);
        q.push(SimTime::from_ns(5), 0, nic_event(0));
        q.push(SimTime::from_ns(5), 1, nic_event(1));
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(0));
        assert!(q.ctrl.record.is_empty(), "no decision recorded");
        assert_eq!(q.ctrl.next_prefix(), None);
    }

    #[test]
    fn pop_due_never_picks_a_tie_member_past_the_deadline() {
        // Two dependent events 5 ns apart, inside a 10 ns tie window.
        // Only the first is due by t=7, so a prefix that asks for the
        // second must not get it early.
        let mut q = PermutationQueue::new(Controller::new(vec![1], 64), SimTime::from_ns(10));
        q.push(SimTime::from_ns(5), 0, nic_event(0));
        q.push(SimTime::from_ns(10), 1, nic_event(0));
        let due = q.pop_due(SimTime::from_ns(7)).map(|(at, seq, _)| (at, seq));
        assert_eq!(due, Some((SimTime::from_ns(5), 0)));
        assert!(q.ctrl.record.is_empty(), "a lone due event is no decision");
        assert!(q.pop_due(SimTime::from_ns(7)).is_none());
        assert_eq!(q.pop().map(|(_, seq, _)| seq), Some(1));
    }

    #[test]
    fn without_choices_the_queue_delivers_in_heap_order() {
        // An empty prefix and a zero tie window always take the tie
        // set's first member, which is the heap queue's pop. Pushes land
        // at or after the last delivered time, as the engine's do, with
        // many exact ties; the queue drains to empty and refills so the
        // ring buffer wraps many times.
        use cdna_sim::queue::HeapQueue;
        for seed in 0..20 {
            let mut rng = cdna_sim::SimRng::seed_from(seed);
            let mut perm = queue(vec![]);
            let mut heap = HeapQueue::new();
            let (mut now, mut seq, mut popped) = (SimTime::ZERO, 0u64, 0);
            for _ in 0..4000 {
                let fill = seq < 40 || rng.chance(0.5);
                if fill && perm.len() < 200 {
                    for _ in 0..=rng.below(3) {
                        let at = now + SimTime::from_ns(rng.below(4) as u64 * 5);
                        let e = nic_event(rng.below(3));
                        perm.push(at, seq, e.clone());
                        heap.push(at, seq, e);
                        seq += 1;
                    }
                } else {
                    let deadline = now + SimTime::from_ns(rng.below(12) as u64);
                    let got = perm.pop_due(deadline).map(|(at, s, _)| (at, s));
                    assert_eq!(got, heap.pop_due(deadline).map(|(at, s, _)| (at, s)));
                    if let Some((at, _)) = got {
                        now = at;
                        popped += 1;
                    }
                }
                assert_eq!(perm.len(), heap.len());
            }
            assert!(popped > 1000, "seed {seed}: {popped} pops");
        }
    }

    #[test]
    fn a_pausing_controller_stops_before_fresh_decisions_and_resumes_a_branch() {
        let seqs = |q: &mut PermutationQueue| {
            std::iter::from_fn(|| q.pop().map(|(_, seq, _)| seq)).collect::<Vec<_>>()
        };
        let mut q = PermutationQueue::new(Controller::pausing(64), SimTime::ZERO);
        for seq in 0..3 {
            q.push(SimTime::from_ns(5), seq, nic_event(0));
        }
        assert_eq!(seqs(&mut q), Vec::<u64>::new(), "paused before decision 0");
        assert_eq!(q.len(), 3, "a pause delivers nothing");
        assert_eq!(q.ctrl.unpause(), Some(0));
        assert_eq!(q.ctrl.unpause(), None, "one pause, one unpause");
        let snapshot = q.clone();
        assert_eq!(seqs(&mut q), vec![0], "default pick, then paused");
        assert_eq!(q.ctrl.unpause(), Some(1));
        assert_eq!(seqs(&mut q), vec![1, 2]);
        assert_eq!(q.ctrl.next_branch(), Some((1, 1)));
        assert!(
            snapshot.ctrl.record.is_empty(),
            "a snapshot keeps its own record"
        );

        // Back to decision 0 with its last candidate forced.
        let finished = q.ctrl;
        let mut q = snapshot.clone();
        q.ctrl.resume(&finished, 0, 2);
        assert_eq!(seqs(&mut q), vec![2], "forced pick, then paused");
        assert_eq!(q.ctrl.unpause(), Some(1));
        assert_eq!(seqs(&mut q), vec![0, 1]);
        let chosen = |c: &Controller| -> Vec<usize> { c.record.iter().map(|d| d.chosen).collect() };
        assert_eq!(chosen(&q.ctrl), vec![2, 0]);
        assert_eq!(q.ctrl.next_branch(), Some((1, 1)));

        // Decision 1's last candidate, from the snapshot before
        // decision 0: the recorded pick there is replayed first.
        let finished = q.ctrl;
        let mut q = snapshot;
        q.ctrl.resume(&finished, 1, 1);
        assert_eq!(seqs(&mut q), vec![2, 1, 0], "replayed, forced, no pause");
        assert_eq!(chosen(&q.ctrl), vec![2, 1]);
        assert_eq!(q.ctrl.next_branch(), None, "tree exhausted");
    }

    #[test]
    fn global_events_conflict_with_everything() {
        assert!(dependent(&Event::CpuDispatch, &nic_event(3)));
        assert!(dependent(&nic_event(3), &Event::StopMeasure));
        assert!(dependent(&nic_event(2), &nic_event(2)));
        assert!(!dependent(&nic_event(2), &nic_event(3)));
    }

    #[test]
    fn depth_bound_truncates_recording() {
        let mut q = PermutationQueue::new(Controller::new(vec![], 1), SimTime::ZERO);
        for seq in 0..4 {
            q.push(SimTime::from_ns(5), seq, nic_event(0));
        }
        while q.pop().is_some() {}
        assert_eq!(q.ctrl.record.len(), 1, "only the first decision recorded");
        assert!(q.ctrl.depth_truncated);
    }

    #[test]
    fn three_way_dfs_enumerates_all_dependent_orders() {
        // Three same-NIC events tied at one time: 3! = 6 schedules.
        let mut seen = Vec::new();
        let mut prefix = Vec::new();
        loop {
            let mut q = queue(prefix.clone());
            for seq in 0..3 {
                q.push(SimTime::from_ns(7), seq, nic_event(0));
            }
            let mut order = Vec::new();
            while let Some((_, seq, _)) = q.pop() {
                order.push(seq);
            }
            seen.push(order);
            match q.ctrl.next_prefix() {
                Some(p) => prefix = p,
                None => break,
            }
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6, "all permutations explored exactly once");
    }
}
