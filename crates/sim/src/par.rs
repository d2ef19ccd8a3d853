//! `cdna-par`: a zero-dependency, deterministic parallel fan-out runner.
//!
//! Every fan-out in this repository — the `cdna-perf` bench matrix, the
//! paper figure/table sweeps, the sensitivity and ablation grids, and
//! `cdna-model`'s configuration matrix — is *embarrassingly parallel*:
//! each task is a self-contained, seeded simulation whose outcome
//! depends only on its own inputs. Parallelism therefore affects
//! wall-clock time and nothing else, the same per-tenant independence
//! argument multi-tenant NIC designs (CDNA contexts, OSMOSIS tenants)
//! make for concurrently schedulable device contexts.
//!
//! The runner keeps that property observable:
//!
//! * **Shared chunked work queue.** Items go into a
//!   `Mutex<VecDeque<(index, T)>>`; each worker repeatedly grabs a small
//!   *batch* of items under the lock and processes them locally, so
//!   lock traffic is `O(items / batch)` rather than `O(items)` and an
//!   unlucky long task never strands work behind it (idle workers keep
//!   draining the shared queue — stealing from the common pool).
//! * **Deterministic, index-ordered results.** Each result lands in the
//!   slot of its input index; callers get `Vec<R>` in input order no
//!   matter which worker ran what when. Combined with per-task
//!   determinism this makes `jobs=1` and `jobs=N` outputs byte-identical
//!   — proven by the differential tests in `crates/bench/tests/` and
//!   `crates/model/tests/`, not asserted by hand. `cdna-check` both
//!   *polices* this contract (the CDNA014–017 determinism-soundness
//!   passes flag arrival-order merges, clock/jobs leaks, and unstable
//!   `f64` reductions at fan-out sites) and *self-hosts* on this pool:
//!   its `--jobs N` scan shards per-file work through [`run_indexed`]
//!   and merges in path order, byte-identical at any worker count.
//! * **Bounded workers over [`std::thread::scope`].** No detached
//!   threads, no channels, no external crates; a worker panic propagates
//!   to the caller when the scope joins.
//!
//! Worker threads are *not* simulation threads: nothing here touches
//! [`crate::SimTime`] or the event queue. The pool is plain wall-clock
//! plumbing around independently deterministic runs.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Worker threads the host offers, per `std::thread::available_parallelism`
/// (1 when the host cannot say).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the worker count for a fan-out of `tasks` items.
///
/// Priority: an explicit request (e.g. a `--jobs N` flag), then the
/// `CDNA_JOBS` environment variable, then [`available_jobs`]. The result
/// is clamped to `1..=tasks` — more workers than tasks is pure overhead,
/// and zero workers is nonsense.
pub fn resolve_jobs(requested: Option<usize>, tasks: usize) -> usize {
    requested
        .or_else(|| std::env::var("CDNA_JOBS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or_else(available_jobs)
        .clamp(1, tasks.max(1))
}

/// Items a worker takes from the shared queue per lock acquisition:
/// small enough that the tail of the run load-balances, large enough
/// that the lock is cold. With `items ≤ 4 × jobs` this degenerates to 1
/// and every task is stolen individually.
fn batch_size(items: usize, jobs: usize) -> usize {
    (items / (jobs * 4)).max(1)
}

/// Locks a mutex, treating poisoning as benign: a poisoned pool mutex
/// means a worker panicked, and that panic is re-raised by the scope
/// join anyway — the data under the lock is plain queue/slot state with
/// no broken invariants to protect.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f(index, item)` for every item on a pool of `jobs` workers and
/// returns the results in input (index) order.
///
/// `jobs` is clamped to `1..=items.len()`; with one worker (or one
/// item) everything runs inline on the caller's thread, bit-identically
/// to the multi-worker path. A panicking task propagates out of the
/// scope join and aborts the whole fan-out.
///
/// # Example
///
/// ```
/// let squares = cdna_sim::par::run_indexed(4, (0u64..100).collect(), |i, x| {
///     assert_eq!(i as u64, x);
///     x * x
/// });
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
pub fn run_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_indexed_init(jobs, items, || {}, f)
}

/// Like [`run_indexed`], but runs `init()` once on every worker thread
/// before it takes any work.
///
/// This is the seam for thread-local state that must follow the fan-out:
/// `cdna-model` uses it to mirror the active protocol mutation (a
/// `thread_local` switch in `cdna-mem`) onto each worker, so a mutated
/// exploration behaves identically at any worker count. On the
/// `jobs == 1` inline path `init` runs on the caller's thread, which by
/// construction already carries its own thread-local state — callers
/// must keep `init` idempotent there.
pub fn run_indexed_init<T, R, F, I>(jobs: usize, items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    I: Fn() + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        init();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let batch = batch_size(n, jobs);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    init();
                    let mut local: Vec<(usize, T)> = Vec::with_capacity(batch);
                    loop {
                        {
                            let mut q = lock(&queue);
                            for _ in 0..batch {
                                match q.pop_front() {
                                    Some(it) => local.push(it),
                                    None => break,
                                }
                            }
                        }
                        if local.is_empty() {
                            break;
                        }
                        for (i, item) in local.drain(..) {
                            let r = f(i, item);
                            *lock(&slots[i]) = Some(r);
                        }
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload (not the scope's
        // generic "a scoped thread panicked") reaches the caller.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut out = Vec::with_capacity(n);
    for s in slots {
        if let Some(r) = s.into_inner().unwrap_or_else(|e| e.into_inner()) {
            out.push(r);
        }
    }
    // Every slot is written exactly once before the scope joins; a hole
    // could only mean a worker died without panicking, which cannot
    // happen under std's threading model.
    assert_eq!(out.len(), n, "parallel fan-out lost results");
    out
}

/// Runs `states` through repeated *rounds* of parallel stepping with a
/// serial barrier between rounds — the conservative epoch-barrier
/// pattern `cdna-rack` uses to advance N independent host simulations
/// in lookahead windows.
///
/// Each iteration first calls `sync(round, &mut states)` on the
/// caller's thread with every state at the same logical round — the
/// place to exchange information *between* states (route frames, merge
/// counters) and to decide whether to continue (`false` stops the loop
/// and returns the states). It then runs `step(index, round, &mut
/// state)` for every state across `jobs` persistent workers.
///
/// Determinism: `sync` always runs single-threaded over index-ordered
/// states, and each `step` call sees only its own state, so the outcome
/// is independent of `jobs` — `jobs=1` (which runs everything inline on
/// the caller's thread) and `jobs=N` produce identical final states.
///
/// Unlike [`run_indexed`], the workers persist across rounds: a rack
/// run has tens of thousands of epochs, and spawning threads per epoch
/// would cost more than the epoch's work. A panic in `step` is caught,
/// carried across the barrier, and re-raised on the caller's thread
/// after the workers shut down cleanly.
pub fn run_rounds<T, S, F>(jobs: usize, states: Vec<T>, mut sync: S, step: F) -> Vec<T>
where
    T: Send,
    S: FnMut(u64, &mut Vec<T>) -> bool,
    F: Fn(usize, u64, &mut T) + Sync,
{
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    let n = states.len();
    let jobs = jobs.clamp(1, n.max(1));
    let mut states = states;
    if jobs == 1 {
        let mut round = 0u64;
        while sync(round, &mut states) {
            for (i, t) in states.iter_mut().enumerate() {
                step(i, round, t);
            }
            round += 1;
        }
        return states;
    }

    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::with_capacity(n));
    let round_no = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // Two barriers per round: `start` releases the workers into the
    // round's work queue, `finish` hands control back to the caller.
    let start = Barrier::new(jobs + 1);
    let finish = Barrier::new(jobs + 1);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let mut payload = None;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                start.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let r = round_no.load(Ordering::Acquire);
                loop {
                    let next = lock(&work).pop_front();
                    let Some(i) = next else { break };
                    let mut slot = lock(&slots[i]);
                    if let Some(t) = slot.as_mut() {
                        // Catch instead of unwinding through the barrier
                        // protocol: an unwinding worker would leave the
                        // caller waiting on `finish` forever.
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            // The slot mutex is per-index and `step` only
                            // touches its own slot's state; no other holder
                            // ever acquires a second lock, so the nesting
                            // cannot invert.
                            // cdna-check: allow(lock-order): per-index slot mutex
                            step(i, r, t)
                        }));
                        if let Err(p) = caught {
                            *lock(&panicked) = Some(p);
                        }
                    }
                }
                finish.wait();
            });
        }

        let mut round = 0u64;
        loop {
            if lock(&panicked).is_some() || !sync(round, &mut states) {
                stop.store(true, Ordering::Release);
                start.wait();
                break;
            }
            for (i, t) in states.drain(..).enumerate() {
                *lock(&slots[i]) = Some(t);
            }
            {
                let mut q = lock(&work);
                q.clear();
                q.extend(0..n);
            }
            round_no.store(round, Ordering::Release);
            start.wait();
            finish.wait();
            for slot in &slots {
                if let Some(t) = lock(slot).take() {
                    states.push(t);
                }
            }
            assert_eq!(states.len(), n, "round-barrier fan-out lost states");
            round += 1;
        }
        payload = lock(&panicked).take();
    });
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        // Make early items the slowest so completion order inverts
        // submission order; output order must not care.
        let items: Vec<u64> = (0..64).collect();
        let out = run_indexed(8, items, |i, x| {
            let mut acc = 0u64;
            for k in 0..((64 - i as u64) * 1000) {
                acc = acc.wrapping_add(k ^ x);
            }
            (x, acc, i)
        });
        for (i, (x, _, idx)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
            assert_eq!(*idx, i);
        }
    }

    #[test]
    fn single_job_and_many_jobs_agree() {
        let a = run_indexed(1, (0u32..33).collect(), |i, x| (i, x * 3));
        let b = run_indexed(7, (0u32..33).collect(), |i, x| (i, x * 3));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn init_runs_on_every_worker() {
        let inits = AtomicUsize::new(0);
        let out = run_indexed_init(
            3,
            (0..30).collect::<Vec<u32>>(),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
            },
            |_, x| x,
        );
        assert_eq!(out.len(), 30);
        // One init per spawned worker (workers = min(3, 30) = 3).
        assert_eq!(inits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn jobs_clamp_to_task_count() {
        assert_eq!(resolve_jobs(Some(64), 3), 3);
        assert_eq!(resolve_jobs(Some(0), 3), 1);
        assert_eq!(resolve_jobs(Some(2), 100), 2);
        // No request, no env override in this test's scope: whatever the
        // host offers, the clamp keeps it in range.
        let j = resolve_jobs(None, 5);
        assert!((1..=5).contains(&j));
    }

    #[test]
    fn batch_sizes_shrink_with_jobs() {
        assert_eq!(batch_size(100, 4), 6);
        assert_eq!(batch_size(12, 8), 1);
        assert_eq!(batch_size(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "task failed")]
    fn worker_panic_propagates() {
        let _ = run_indexed(4, (0..16).collect::<Vec<u32>>(), |_, x| {
            if x == 9 {
                panic!("task failed");
            }
            x
        });
    }

    /// Reference epoch loop: each round, every state absorbs its left
    /// neighbour's value from the previous round (cross-state exchange
    /// in `sync`), then advances independently in `step`.
    fn rounds_reference(jobs: usize) -> Vec<u64> {
        run_rounds(
            jobs,
            (0..9u64).collect(),
            |round, states| {
                if round >= 5 {
                    return false;
                }
                let prev: Vec<u64> = states.clone();
                for (i, s) in states.iter_mut().enumerate() {
                    *s = s.wrapping_add(prev[(i + 8) % 9]);
                }
                true
            },
            |i, round, s| {
                *s = s.wrapping_mul(31).wrapping_add(i as u64 ^ round);
            },
        )
    }

    #[test]
    fn rounds_jobs_one_and_many_agree() {
        let a = rounds_reference(1);
        let b = rounds_reference(4);
        let c = rounds_reference(9);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn rounds_stop_before_first_round_returns_states_untouched() {
        let out = run_rounds(
            4,
            vec![7u32, 8, 9],
            |_, _| false,
            |_, _, s| {
                *s = 0;
            },
        );
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn rounds_sync_sees_every_round_in_order() {
        let mut seen = Vec::new();
        let out = run_rounds(
            3,
            vec![0u64; 5],
            |round, _| {
                seen.push(round);
                round < 3
            },
            |_, _, s| {
                *s += 1;
            },
        );
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(out, vec![3; 5]);
    }

    #[test]
    #[should_panic(expected = "round step failed")]
    fn rounds_step_panic_propagates() {
        let _ = run_rounds(
            4,
            (0..8u32).collect(),
            |round, _| round < 10,
            |i, round, _| {
                if i == 5 && round == 2 {
                    panic!("round step failed");
                }
            },
        );
    }
}
