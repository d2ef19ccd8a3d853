//! Differential proof that frontier-partitioned parallel exploration
//! visits exactly the schedules the sequential DFS visits.
//!
//! On an exhausted decision tree every field of the [`Exploration`] —
//! schedule count, event total, deepest decision, violation count, the
//! violation sample *in order* — must be identical between `jobs=1`
//! and `jobs=4`. The configs below exhaust within their budgets (the
//! sequential runs assert it), so the comparisons are exact, including
//! the seeded-mutation case where the violation stream is long.

use cdna_mem::mutation::{self, MutationKind};
use cdna_model::{default_matrix, explore, explore_parallel, ExploreConfig};

/// The standard matrix at a 300 µs window: small enough that the rx
/// cells exhaust in a few hundred schedules, big enough that the trees
/// branch at many depths (so sharding actually happens). One event per
/// frame leaves fewer same-instant ties than the old two-event frame
/// path did, so the window is longer than it once needed to be (see
/// DESIGN.md §11).
fn cell(index: usize) -> ExploreConfig {
    let matrix = default_matrix(300, 20_000, 64, 2_000);
    matrix
        .into_iter()
        .nth(index)
        .unwrap_or_else(|| unreachable!("matrix has 8 cells"))
}

/// CDNA, 2 guests, receive — 540 schedules, branching to depth 11.
const CDNA_RX: usize = 1;
/// Xen bridged, 2 guests, receive — 166 schedules, depth 9.
const XEN_RX: usize = 5;

#[test]
fn parallel_vs_sequential_model_identical() {
    for index in [CDNA_RX, XEN_RX] {
        let job = cell(index);
        let seq = explore(&job);
        assert!(
            seq.exhausted,
            "{}: test premise broken — tree must exhaust",
            seq.label
        );
        assert!(
            seq.schedules > 100,
            "{}: tree unexpectedly small",
            seq.label
        );
        let par = explore_parallel(&job, 4);
        assert_eq!(seq, par, "{}: parallel diverged from sequential", job.label);
    }
}

#[test]
fn parallel_matches_sequential_under_mutation() {
    // Seeded protocol bug: the violation stream (count and sampled
    // descriptions, in schedule order) must shard identically. Also
    // proves the mutation thread-local reaches the worker threads —
    // if it did not, the parallel run would explore a *clean* build
    // and find zero violations.
    let job = cell(CDNA_RX);
    mutation::set_active(Some(MutationKind::SeqSkip));
    let seq = explore(&job);
    let par = explore_parallel(&job, 4);
    mutation::set_active(None);
    assert!(seq.exhausted, "mutated tree must still exhaust");
    assert!(seq.violations > 1_000, "mutation must be caught broadly");
    assert_eq!(seq.sample.len(), 8, "sample cap reached");
    assert_eq!(seq, par, "mutated exploration diverged under sharding");
}

#[test]
fn truncated_trees_agree_on_schedule_counts() {
    // With a budget smaller than the tree, sequential and parallel may
    // run *different* schedules, but the count contract still holds:
    // exactly `max_schedules` run, and neither claims exhaustion.
    let mut job = cell(CDNA_RX);
    job.max_schedules = 50;
    let seq = explore(&job);
    let par = explore_parallel(&job, 4);
    assert_eq!(seq.schedules, 50);
    assert_eq!(par.schedules, 50);
    assert!(!seq.exhausted);
    assert!(!par.exhausted);
    assert_eq!(seq.violations, 0);
    assert_eq!(par.violations, 0);
}
