//! The event queue and run loop.

use cdna_trace::Tracer;

use crate::queue::{EventQueue, QueueImpl, QueueKind};
use crate::SimTime;

/// A model that reacts to events.
///
/// The full-machine model in `cdna-system` implements this; each event is
/// dispatched with the current time and a [`Scheduler`] through which the
/// handler enqueues follow-up events.
pub trait World {
    /// The closed set of events this world reacts to.
    type Event;

    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The pending-event queue, exposed to handlers for scheduling follow-ups.
///
/// Events at equal times are delivered in the order they were scheduled
/// (FIFO), which keeps runs deterministic. The backing store is the
/// [`crate::queue::TimerWheel`] unless the simulation was built with
/// [`Simulation::with_event_queue`].
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: QueueImpl<E>,
    next_seq: u64,
    scheduled: u64,
    /// Optional event tracer, carried here so event handlers (which
    /// receive the scheduler anyway) can emit spans without threading
    /// another parameter through every call.
    tracer: Option<Tracer>,
}

impl<E> Scheduler<E> {
    fn new(kind: QueueKind) -> Self {
        Scheduler::from_impl(QueueImpl::new(kind))
    }

    fn from_impl(queue: QueueImpl<E>) -> Self {
        Scheduler {
            queue,
            next_seq: 0,
            scheduled: 0,
            tracer: None,
        }
    }

    /// The attached tracer, if tracing is enabled. Handlers emitting
    /// events should use `if let Some(t) = sched.tracer_mut()` so a
    /// disabled tracer costs one branch and nothing else.
    #[inline]
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than `now` (time travel would break the
    /// monotonicity invariant the whole simulation relies on).
    #[inline]
    pub fn at(&mut self, now: SimTime, at: SimTime, event: E) {
        assert!(at >= now, "scheduled event in the past: now={now}, at={at}",);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.queue.push(at, seq, event);
    }

    /// Schedules `event` at `now + delay`.
    #[inline]
    pub fn after(&mut self, now: SimTime, delay: SimTime, event: E) {
        self.at(now, now + delay, event);
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total number of events scheduled since construction.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.queue.pop()
    }

    #[inline]
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        self.queue.pop_due(deadline)
    }
}

/// A world plus its event queue and clock.
///
/// See the crate-level documentation for a runnable example.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    now: SimTime,
    processed: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with the default event queue.
    pub fn new(world: W) -> Self {
        Simulation::with_queue(world, QueueKind::default())
    }

    /// Creates a simulation at time zero on the built-in queue `kind`
    /// (the field [`QueueKind`] names in testbed configs).
    pub fn with_queue(world: W, kind: QueueKind) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(kind),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Creates a simulation at time zero backed by a caller-supplied
    /// event queue.
    ///
    /// The queue must never deliver an event before one already popped
    /// (time must stay monotone), but it *may* reorder same-time ties —
    /// the `cdna-model` schedule explorer exploits exactly that freedom
    /// to enumerate tie-break interleavings of one logical run.
    pub fn with_event_queue(world: W, queue: Box<dyn EventQueue<W::Event> + Send>) -> Self {
        Simulation {
            world,
            sched: Scheduler::from_impl(QueueImpl::Custom(queue)),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the model (used by harnesses to inject state
    /// between phases, e.g. to reset measurement counters after warm-up).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the model.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Attaches an event tracer; subsequent handler invocations can
    /// record into it via [`Scheduler::tracer_mut`].
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.sched.tracer = Some(tracer);
    }

    /// Detaches and returns the tracer, if one was attached.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.sched.tracer.take()
    }

    /// Read access to the attached tracer.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.sched.tracer.as_ref()
    }

    /// Schedules an event at absolute time `at` (≥ the current time).
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        self.sched.at(self.now, at, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: W::Event) {
        self.sched.after(self.now, delay, event);
    }

    /// Processes a single event, if any is pending. Returns `true` if one
    /// was processed.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((at, _seq, event)) => {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.processed += 1;
                self.world.handle(self.now, event, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty or the next event lies strictly after
    /// `deadline`; the clock is then advanced to `deadline`.
    ///
    /// Each iteration pops with the deadline check folded in
    /// ([`crate::queue::EventQueue::pop_due`]) instead of the old
    /// peek-then-pop double queue access.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.processed;
        while let Some((at, _seq, event)) = self.sched.pop_due(deadline) {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.processed += 1;
            self.world.handle(self.now, event, &mut self.sched);
        }
        self.now = self.now.max(deadline);
        self.processed - before
    }

    /// Runs until the event queue drains completely.
    ///
    /// Returns the number of events processed. Worlds that self-perpetuate
    /// (e.g. periodic timers) never drain; use [`Simulation::run_until`]
    /// for those.
    pub fn run_to_completion(&mut self) -> u64 {
        let before = self.processed;
        while self.step() {}
        self.processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule(SimTime::from_us(30), 3);
        sim.schedule(SimTime::from_us(10), 1);
        sim.schedule(SimTime::from_us(20), 2);
        sim.run_to_completion();
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Simulation::new(Recorder::default());
        for i in 0..100 {
            sim.schedule(SimTime::from_us(5), i);
        }
        sim.run_to_completion();
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule(SimTime::from_us(10), 1);
        sim.schedule(SimTime::from_us(90), 2);
        let n = sim.run_until(SimTime::from_us(50));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_us(50));
        assert_eq!(sim.world().seen.len(), 1);
        sim.run_until(SimTime::from_us(100));
        assert_eq!(sim.world().seen.len(), 2);
    }

    #[test]
    fn deadline_is_inclusive() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule(SimTime::from_us(50), 7);
        sim.run_until(SimTime::from_us(50));
        assert_eq!(sim.world().seen, vec![(SimTime::from_us(50), 7)]);
    }

    #[test]
    fn run_until_on_drained_queue_lands_exactly_on_deadline() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule(SimTime::from_us(10), 1);
        sim.schedule(SimTime::from_us(20), 2);
        // All events drain before the deadline; the clock must still end
        // exactly at the deadline, not at the last event.
        let n = sim.run_until(SimTime::from_us(75));
        assert_eq!(n, 2);
        assert_eq!(sim.now(), SimTime::from_us(75));
        // And an already-empty queue advances the clock the same way.
        assert_eq!(sim.run_until(SimTime::from_us(80)), 0);
        assert_eq!(sim.now(), SimTime::from_us(80));
    }

    #[test]
    fn both_queue_kinds_run_the_same_simulation() {
        let wheel = Simulation::with_queue(Recorder::default(), QueueKind::TimerWheel);
        let heap = Simulation::with_event_queue(
            Recorder::default(),
            Box::new(crate::queue::HeapQueue::new()),
        );
        for (name, mut sim) in [("wheel", wheel), ("heap", heap)] {
            sim.schedule(SimTime::from_us(30), 3);
            sim.schedule(SimTime::from_us(10), 1);
            sim.schedule(SimTime::from_us(10), 2);
            sim.run_to_completion();
            let order: Vec<u32> = sim.world().seen.iter().map(|&(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3], "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), s: &mut Scheduler<()>) {
                // Try to schedule before `now`.
                s.at(now, now - SimTime::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(SimTime::from_us(1), ());
        sim.run_to_completion();
    }

    struct Chain {
        hops: u32,
    }

    impl World for Chain {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, s: &mut Scheduler<u32>) {
            self.hops += 1;
            if ev > 0 {
                s.after(now, SimTime::from_ns(1), ev - 1);
            }
        }
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = Simulation::new(Chain { hops: 0 });
        sim.schedule(SimTime::ZERO, 9);
        let n = sim.run_to_completion();
        assert_eq!(n, 10);
        assert_eq!(sim.world().hops, 10);
        assert_eq!(sim.now(), SimTime::from_ns(9));
    }

    #[test]
    fn tracer_rides_the_scheduler() {
        struct Traced;
        impl World for Traced {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), s: &mut Scheduler<()>) {
                if let Some(t) = s.tracer_mut() {
                    t.instant("tick", "test", now.as_ns(), 0, 0, None);
                }
            }
        }
        let mut sim = Simulation::new(Traced);
        sim.attach_tracer(cdna_trace::Tracer::new(16));
        sim.schedule(SimTime::from_us(1), ());
        sim.schedule(SimTime::from_us(2), ());
        sim.run_to_completion();
        let tracer = sim.take_tracer().expect("tracer attached");
        assert_eq!(tracer.len(), 2);
        assert!(sim.tracer().is_none());
    }

    #[test]
    fn counters_track_activity() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule(SimTime::from_us(1), 1);
        sim.schedule(SimTime::from_us(2), 2);
        assert_eq!(sim.events_processed(), 0);
        sim.run_to_completion();
        assert_eq!(sim.events_processed(), 2);
    }
}
