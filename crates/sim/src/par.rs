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
//! * **[`run_indexed`]: one claim cursor.** Workers claim one
//!   `(index, item)` at a time from a single locked iterator, run the
//!   task with the lock released, and keep `(index, result)` pairs
//!   locally. An unlucky long task never strands work behind it: idle
//!   workers keep claiming. The cursor is the only lock in this module.
//! * **[`run_rounds`]: static partitions.** The states split once into
//!   `jobs` contiguous partitions. The caller steps partition 0; every
//!   other partition stays with one worker for the whole run and
//!   crosses to the caller and back as one `Vec` over a channel pair
//!   per round. No state is ever behind a lock.
//! * **Deterministic, index-ordered results.** The caller places every
//!   result by its input index; callers get `Vec<R>` in input order no
//!   matter which worker ran what when. Combined with per-task
//!   determinism this makes `jobs=1` and `jobs=N` outputs byte-identical
//!   — proven by the differential tests in `crates/bench/tests/` and
//!   `crates/model/tests/`, not asserted by hand.
//! * **The only fan-out.** `clippy.toml` bans `std::thread::spawn`,
//!   `std::thread::scope`, `std::thread::Builder`'s `spawn` and
//!   `spawn_scoped`, and the `mpsc` channel constructors everywhere
//!   else, as it bans `Mutex` and `RwLock`. A worker closure is
//!   `Fn + Sync`, so without a lock or a `Sender` it cannot append to
//!   shared state in arrival order: the index-ordered `Vec<R>` is the
//!   only way results come back. It also bans `std::thread::current`
//!   and `std::thread::available_parallelism` outside this module, so
//!   no other code can read which worker it runs on or how many cores
//!   the host has; CI diffs every compared artifact at `--jobs 1` and
//!   `--jobs N` for the rest. `cdna-check` *self-hosts* on this pool:
//!   its `--jobs N` scan shards per-file work through [`run_indexed`]
//!   and merges in path order, byte-identical at any worker count.
//! * **Bounded workers over [`std::thread::scope`].** No detached
//!   threads and no external crates. A worker's panic reaches the
//!   caller with its own payload through `join`.
//!
//! Worker threads are *not* simulation threads: nothing here touches
//! [`crate::SimTime`] or the event queue. The pool is plain wall-clock
//! plumbing around independently deterministic runs.

#![expect(
    clippy::disallowed_types,
    reason = "run_indexed's claim cursor is the one Mutex here, held only to take the next item"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the workspace's only threads and channels: workers return results by index"
)]

use std::sync::{mpsc, Mutex, PoisonError};

/// Worker threads the host offers, per `std::thread::available_parallelism`
/// (1 when the host cannot say).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the worker count for a fan-out of `tasks` items.
///
/// An explicit request (a `--jobs N` flag) wins, else
/// [`available_jobs`]. The result is clamped to `1..=tasks` — more
/// workers than tasks is pure overhead, and zero workers is nonsense.
pub fn resolve_jobs(requested: Option<usize>, tasks: usize) -> usize {
    requested
        .unwrap_or_else(available_jobs)
        .clamp(1, tasks.max(1))
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
/// `cdna-model` uses it to copy the calling thread's profiling hook (a
/// `thread_local` in `cdna_system::phase`) onto each worker, so a
/// `--profile` run times every cell at any worker count. On the
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

    let cursor = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    init();
                    let mut done = Vec::new();
                    loop {
                        // The claim is its own statement so the guard
                        // drops before `f` runs; in a `while let`
                        // scrutinee it would live through the body and
                        // serialise every task.
                        let claim = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = claim else { break };
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload (not the scope's
        // generic "a scoped thread panicked") reaches the caller.
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let out: Vec<R> = slots.into_iter().flatten().collect();
    // Every index is claimed exactly once and its result comes back
    // through its worker's join; a hole could only mean a worker died
    // without panicking, which cannot happen under std's threading
    // model.
    assert_eq!(out.len(), n, "parallel fan-out lost results");
    out
}

/// Runs `states` through repeated *rounds* of parallel stepping with a
/// serial barrier between rounds — the conservative epoch-barrier
/// pattern `cdna-rack` uses to advance N independent host simulations
/// in lookahead windows.
///
/// Each iteration first calls `sync(round, states)` on the caller's
/// thread with every state at the same logical round, in index order —
/// the place to exchange information *between* states (route frames,
/// merge counters) and to decide whether to continue (`false` stops the
/// loop and returns the states). It then runs `step(index, round, &mut
/// state)` for every state.
///
/// The states split once into `jobs` contiguous partitions whose sizes
/// differ by at most one. The caller steps partition 0 itself; each
/// other partition stays with one worker for the whole run and moves
/// to the caller and back once per round as a `Vec` over a channel
/// pair. At `jobs = 1` no thread is spawned.
///
/// Determinism: `sync` always runs single-threaded over index-ordered
/// states, and each `step` call sees only its own state, so the outcome
/// is independent of `jobs`.
///
/// A panic in a worker's `step` closes its channel; the caller stops
/// at that round's hand-back and re-raises the worker's own payload. A
/// panic on the caller's thread closes every worker's inbox and
/// propagates once the workers have exited.
pub fn run_rounds<T, S, F>(jobs: usize, mut states: Vec<T>, mut sync: S, step: F) -> Vec<T>
where
    T: Send,
    S: FnMut(u64, &mut [&mut T]) -> bool,
    F: Fn(usize, u64, &mut T) + Sync,
{
    let n = states.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        // Everything on the caller: one view for the whole run, so a
        // round costs no allocation.
        let mut all: Vec<&mut T> = states.iter_mut().collect();
        let mut round = 0u64;
        while sync(round, &mut all) {
            for (i, t) in all.iter_mut().enumerate() {
                step(i, round, t);
            }
            round += 1;
        }
        return states;
    }
    // Partition `p` starts at `start(p)`; the first `n % jobs`
    // partitions hold one state more than the rest.
    let start = |p: usize| p * (n / jobs) + p.min(n % jobs);
    let mut rest = states.into_iter();
    let mut parts: Vec<Vec<T>> = (0..jobs)
        .map(|p| rest.by_ref().take(start(p + 1) - start(p)).collect())
        .collect();

    std::thread::scope(|scope| {
        let step = &step;
        let links: Vec<_> = (1..jobs)
            .map(|p| {
                let (to_worker, inbox) = mpsc::channel::<Vec<T>>();
                let (outbox, to_caller) = mpsc::channel::<Vec<T>>();
                let base = start(p);
                let worker = scope.spawn(move || {
                    for (round, mut part) in (0u64..).zip(inbox) {
                        for (k, t) in part.iter_mut().enumerate() {
                            step(base + k, round, t);
                        }
                        if outbox.send(part).is_err() {
                            break;
                        }
                    }
                });
                (to_worker, to_caller, worker)
            })
            .collect();

        let mut round = 0u64;
        'rounds: loop {
            let mut all: Vec<&mut T> = Vec::with_capacity(n);
            all.extend(parts.iter_mut().flatten());
            if !sync(round, &mut all) {
                break;
            }
            let (own, others) = parts.split_at_mut(1);
            for ((to_worker, _, _), part) in links.iter().zip(others.iter_mut()) {
                // A send fails only to a dead worker, and the hand-back
                // below notices that.
                let _ = to_worker.send(std::mem::take(part));
            }
            for (i, t) in own.iter_mut().flatten().enumerate() {
                step(i, round, t);
            }
            for ((_, to_caller, _), part) in links.iter().zip(others.iter_mut()) {
                match to_caller.recv() {
                    Ok(back) => *part = back,
                    // The worker panicked; its join below re-raises it.
                    Err(_) => break 'rounds,
                }
            }
            round += 1;
        }
        // Closing each inbox ends that worker's loop.
        for (to_worker, _, worker) in links {
            drop(to_worker);
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let states: Vec<T> = parts.into_iter().flatten().collect();
    assert_eq!(states.len(), n, "round fan-out lost states");
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
        // No request: whatever the host offers, the clamp keeps it in
        // range.
        let j = resolve_jobs(None, 5);
        assert!((1..=5).contains(&j));
    }

    #[test]
    fn claimed_tasks_run_concurrently() {
        // Each task waits, for up to about 2 s, until both are in
        // flight. A claim guard held across `f` keeps the first task
        // alone until it gives up.
        let arrived = AtomicUsize::new(0);
        let met = run_indexed(2, vec![(); 2], |_, ()| {
            arrived.fetch_add(1, Ordering::SeqCst);
            for _ in 0..2000 {
                if arrived.load(Ordering::SeqCst) == 2 {
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        });
        assert_eq!(met, vec![true, true], "a task ran alone");
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
                let prev: Vec<u64> = states.iter().map(|s| **s).collect();
                for (i, s) in states.iter_mut().enumerate() {
                    **s = s.wrapping_add(prev[(i + 8) % 9]);
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
    fn rounds_step_every_state_once_per_round_with_its_own_index() {
        // Uneven partitions (n not a multiple of jobs) are where a wrong
        // partition offset would hand a state someone else's index.
        const ROUNDS: u64 = 6;
        for n in [1usize, 4, 5, 7] {
            for jobs in 1..=n + 1 {
                let states: Vec<(usize, Vec<u64>)> = (0..n).map(|i| (i, Vec::new())).collect();
                let out = run_rounds(
                    jobs,
                    states,
                    |round, states| {
                        for (k, s) in states.iter().enumerate() {
                            assert_eq!(s.0, k, "n={n} jobs={jobs}: sync order");
                            assert_eq!(s.1.len() as u64, round, "n={n} jobs={jobs}");
                        }
                        round < ROUNDS
                    },
                    |i, round, s| {
                        assert_eq!(i, s.0, "n={n} jobs={jobs}: wrong index");
                        s.1.push(round);
                    },
                );
                assert_eq!(out.len(), n);
                for (k, (i, seen)) in out.iter().enumerate() {
                    assert_eq!(*i, k, "n={n} jobs={jobs}: output order");
                    assert_eq!(*seen, (0..ROUNDS).collect::<Vec<_>>(), "n={n} jobs={jobs}");
                }
            }
        }
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

    /// The message of the panic that escapes a two-worker `run_rounds`
    /// over four states whose `step` panics on state `fail`.
    fn rounds_panic_message(fail: usize) -> String {
        let caught = std::panic::catch_unwind(|| {
            run_rounds(
                2,
                (0..4u32).collect(),
                |round, _| round < 3,
                |i, round, _| {
                    if i == fail && round == 1 {
                        panic!("state {i} failed");
                    }
                },
            )
        });
        let payload = caught.expect_err("the step panic must propagate");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn rounds_panics_keep_their_own_message_on_either_side() {
        // States 0–1 are the caller's partition, 2–3 the worker's.
        assert_eq!(rounds_panic_message(0), "state 0 failed");
        assert_eq!(rounds_panic_message(3), "state 3 failed");
    }
}
