// cdna-expect: merge-order crates/model/src/merge.rs:12
// cdna-expect: merge-order crates/model/src/merge.rs:19
// cdna-fixture-file: crates/sim/src/par.rs
//! Worker-pool stubs for the merge-order fixture.
use std::sync::{Mutex, MutexGuard};
/// Poison-tolerant lock helper (its body is the acquisition itself).
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}
/// Index-ordered fan-out primitive (stub: runs the workers inline).
pub fn run_indexed<T, R>(jobs: usize, items: Vec<T>, f: impl Fn(usize, T) -> R) -> Vec<R> {
    let _ = jobs;
    items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect()
}
// cdna-fixture-file: crates/model/src/merge.rs
//! Merge-path fixtures: arrival-order merges.
use std::sync::Mutex;
use cdna_sim::par::{lock, run_indexed};
/// Appends one result to the shared accumulator (arrival order).
fn record(out: &Mutex<Vec<u64>>, x: u64) {
    lock(out).push(x);
}
/// Merges worker results in arrival order: the seeded direct case.
pub fn arrival_merge(jobs: usize, items: Vec<u64>) -> Vec<u64> {
    let out = Mutex::new(Vec::new());
    run_indexed(jobs, items, |_, x| {
        lock(&out).push(x * 2);
    });
    out.into_inner().unwrap_or_default()
}
/// Same merge through a helper: the seeded transitive case.
pub fn arrival_merge_via_helper(jobs: usize, items: Vec<u64>) -> Vec<u64> {
    let out = Mutex::new(Vec::new());
    run_indexed(jobs, items, |_, x| record(&out, x));
    out.into_inner().unwrap_or_default()
}
