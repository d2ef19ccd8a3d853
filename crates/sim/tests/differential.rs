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

fn run_chaos(
    seed: u64,
    with_queue: fn(Chaos) -> Simulation<Chaos>,
) -> (Vec<(SimTime, u32)>, SimTime, u64) {
    let world = Chaos {
        rng: SimRng::seed_from(seed),
        seen: Vec::new(),
        budget: 300,
        next_id: 1_000_000,
    };
    let mut sim = with_queue(world);
    let mut rng = SimRng::seed_from(!seed);
    // Seed primordial events, with equal-time bursts.
    let mut t = 0u64;
    for i in 0..20u32 {
        t += random_delay(&mut rng) / 4;
        let at = SimTime::from_ns(t);
        sim.schedule(at, i);
        if rng.chance(0.3) {
            sim.schedule(at, i + 100);
        }
    }
    // Run through a staircase of deadlines landing inside buckets, then
    // drain whatever is left.
    let mut deadline = 0u64;
    for _ in 0..40 {
        deadline += rng.range_u64(1..EPOCH_NS * 5);
        sim.run_until(SimTime::from_ns(deadline));
    }
    sim.run_to_completion();
    let processed = sim.events_processed();
    let now = sim.now();
    (sim.into_world().seen, now, processed)
}

#[test]
fn simulations_agree_between_heap_and_wheel() {
    for seed in 0..100u64 {
        let (seen_h, now_h, n_h) = run_chaos(seed, |w| {
            Simulation::with_event_queue(w, Box::new(HeapQueue::new()))
        });
        let (seen_w, now_w, n_w) = run_chaos(seed, Simulation::new);
        assert_eq!(n_h, n_w, "seed {seed}: events processed diverged");
        assert_eq!(now_h, now_w, "seed {seed}: final clock diverged");
        assert_eq!(seen_h, seen_w, "seed {seed}: delivery order diverged");
    }
}
