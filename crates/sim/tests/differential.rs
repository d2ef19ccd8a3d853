//! Differential test: the timer wheel must be observationally identical
//! to the binary heap it replaced, kept here as the reference oracle.
//!
//! Several hundred `SimRng`-seeded random schedules are driven through
//! both queues — directly at the queue level and through full
//! `Simulation` runs, where the heap comes in through
//! `Simulation::with_event_queue` — and the delivery order, timestamps, and
//! final clock must match exactly. The schedules deliberately stress the
//! wheel's structural boundaries: equal-time bursts (FIFO ties),
//! zero-delay self-chains (re-push into the active epoch), far-future
//! times that cross the overflow boundary, and `run_until` deadlines
//! landing in the middle of a wheel bucket.

use cdna_sim::queue::{EventQueue, HeapQueue, TimerWheel, EPOCH_NS, WHEEL_SLOTS};
use cdna_sim::{Scheduler, SimRng, SimTime, Simulation, World};

/// Picks a schedule time at-or-after `now`, biased to cover every wheel
/// structure: the active epoch, near-future buckets, the exact wheel
/// span boundary, and the far-future overflow heap.
fn random_delay(rng: &mut SimRng) -> u64 {
    let span = EPOCH_NS * WHEEL_SLOTS as u64;
    match rng.below(10) {
        // Equal-time burst / same-instant follow-up.
        0 | 1 => 0,
        // Within the active epoch.
        2 | 3 => rng.range_u64(1..EPOCH_NS),
        // Somewhere in the wheel window.
        4..=6 => rng.range_u64(EPOCH_NS..span),
        // Hugging the wheel/overflow boundary from both sides.
        7 => span - 1 + rng.range_u64(0..3),
        // Far future: deep in the overflow heap.
        _ => rng.range_u64(span..span * 40),
    }
}

// ---------------------------------------------------------------------
// Queue-level differential: random push/pop interleavings.
// ---------------------------------------------------------------------

#[test]
fn queues_agree_on_random_interleavings() {
    for seed in 0..200u64 {
        let mut rng = SimRng::seed_from(0x9e37_79b9 ^ seed);
        let mut heap = HeapQueue::new();
        let mut wheel = TimerWheel::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..200 {
            if rng.chance(0.6) || heap.is_empty() {
                // Push a burst (sometimes several at the same instant).
                let burst = 1 + rng.below(4);
                let at = SimTime::from_ns(now + random_delay(&mut rng));
                for _ in 0..burst {
                    heap.push(at, seq, seq as u32);
                    wheel.push(at, seq, seq as u32);
                    seq += 1;
                }
            } else {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "seed {seed}: pop diverged");
                if let Some((at, _, _)) = a {
                    now = at.as_ns();
                }
            }
            assert_eq!(heap.len(), wheel.len(), "seed {seed}: len diverged");
        }
        // Drain both; tails must be identical too.
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b, "seed {seed}: drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

#[test]
fn queues_agree_on_pop_due_deadlines_inside_buckets() {
    for seed in 0..100u64 {
        let mut rng = SimRng::seed_from(0xdead_beef ^ seed);
        let mut heap = HeapQueue::new();
        let mut wheel = TimerWheel::new();
        for seq in 0..64u64 {
            let at = SimTime::from_ns(random_delay(&mut rng));
            heap.push(at, seq, seq as u32);
            wheel.push(at, seq, seq as u32);
        }
        // Sweep deadlines that land mid-bucket (not on epoch edges).
        let mut deadline = 0u64;
        while !heap.is_empty() || !wheel.is_empty() {
            deadline += rng.range_u64(1..EPOCH_NS * 3);
            let d = SimTime::from_ns(deadline);
            loop {
                let a = heap.pop_due(d);
                let b = wheel.pop_due(d);
                assert_eq!(a, b, "seed {seed}: pop_due diverged at {d}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulation-level differential: full runs with handler follow-ups.
// ---------------------------------------------------------------------

/// A world that records every delivery and schedules random follow-ups,
/// including zero-delay self-chains, from its own deterministic RNG.
#[derive(Clone)]
struct Chaos {
    rng: SimRng,
    seen: Vec<(SimTime, u32)>,
    budget: u32,
    next_id: u32,
}

impl World for Chaos {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        self.seen.push((now, ev));
        if self.budget == 0 {
            return;
        }
        // 0–2 follow-ups; zero-delay chains re-enter the active epoch.
        let n = self.rng.below(3) as u32;
        for _ in 0..n.min(self.budget) {
            self.budget -= 1;
            self.next_id += 1;
            let delay = SimTime::from_ns(random_delay(&mut self.rng));
            sched.after(now, delay, self.next_id);
        }
    }
}

/// What a finished chaos run is judged by: every delivery with its
/// time, the final clock, and the events processed.
type ChaosRun = (Vec<(SimTime, u32)>, SimTime, u64);

fn finish_chaos(mut sim: Simulation<Chaos>) -> ChaosRun {
    sim.run_to_completion();
    let processed = sim.events_processed();
    let now = sim.now();
    (sim.into_world().seen, now, processed)
}

/// Builds a chaos simulation on one queue.
type WithQueue = fn(Chaos) -> Simulation<Chaos>;

/// Runs seed `seed`'s chaos schedule on the simulation `with_queue`
/// builds. With `fork_at = Some(k)` the simulation is cloned before the
/// `k`-th of its 40 deadlines and both copies run on, step by step;
/// the runs of the original and the clone are returned in that order.
fn run_chaos(seed: u64, with_queue: WithQueue, fork_at: Option<usize>) -> Vec<ChaosRun> {
    let world = Chaos {
        rng: SimRng::seed_from(seed),
        seen: Vec::new(),
        budget: 300,
        next_id: 1_000_000,
    };
    let mut sims = vec![with_queue(world)];
    let mut rng = SimRng::seed_from(!seed);
    // Seed primordial events, with equal-time bursts.
    let mut t = 0u64;
    for i in 0..20u32 {
        t += random_delay(&mut rng) / 4;
        let at = SimTime::from_ns(t);
        sims[0].schedule(at, i);
        if rng.chance(0.3) {
            sims[0].schedule(at, i + 100);
        }
    }
    // Run through a staircase of deadlines landing inside buckets, then
    // drain whatever is left.
    let mut deadline = 0u64;
    for step in 0..40 {
        if fork_at == Some(step) {
            let clone = sims[0].clone();
            assert_eq!(
                (clone.now(), clone.events_processed()),
                (sims[0].now(), sims[0].events_processed()),
                "seed {seed}: a clone starts where its original is"
            );
            sims.push(clone);
        }
        deadline += rng.range_u64(1..EPOCH_NS * 5);
        for sim in &mut sims {
            sim.run_until(SimTime::from_ns(deadline));
        }
    }
    sims.into_iter().map(finish_chaos).collect()
}

fn heap_sim(w: Chaos) -> Simulation<Chaos> {
    Simulation::with_event_queue(w, HeapQueue::new())
}

#[test]
fn simulations_agree_between_heap_and_wheel() {
    for seed in 0..100u64 {
        let (seen_h, now_h, n_h) = run_chaos(seed, heap_sim, None).remove(0);
        let (seen_w, now_w, n_w) = run_chaos(seed, Simulation::new, None).remove(0);
        assert_eq!(n_h, n_w, "seed {seed}: events processed diverged");
        assert_eq!(now_h, now_w, "seed {seed}: final clock diverged");
        assert_eq!(seen_h, seen_w, "seed {seed}: delivery order diverged");
    }
}

/// A simulation cloned mid-run, on either queue, finishes exactly like
/// its original and like a run that was never cloned: the clone carries
/// the clock, the processed count, the pending events and the next
/// sequence number, so even its zero-delay follow-ups tie-break as the
/// original's do.
#[test]
fn a_clone_taken_mid_run_finishes_like_the_original() {
    let queues: [(&str, WithQueue); 2] = [("wheel", Simulation::new), ("heap", heap_sim)];
    for (name, with_queue) in queues {
        for seed in 0..100u64 {
            let want = run_chaos(seed, with_queue, None);
            let fork_at = (seed % 40) as usize;
            let got = run_chaos(seed, with_queue, Some(fork_at));
            assert_eq!(got.len(), 2);
            assert_eq!(got[0], want[0], "{name} seed {seed}: the original diverged");
            assert_eq!(got[1], want[0], "{name} seed {seed}: the clone diverged");
        }
    }
}
