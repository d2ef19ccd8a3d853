//! Differential proof that [`explore_matrix`] gives the same report at
//! any worker count.
//!
//! The matrix below caps every tree at a small schedule budget, so the
//! CDNA cells stop long before they exhaust: the runs compared are cut
//! at `max_schedules`, not complete trees. Every field of every
//! [`Exploration`](cdna_model::Exploration) — schedule count, event
//! total, deepest decision, violation count, the violation sample *in
//! order* — must still match between `jobs = 1`, `2` and `4`, clean
//! and under a seeded mutation.

use cdna_mem::mutation::MutationKind;
use cdna_model::{default_matrix, explore_matrix, ExploreConfig, MatrixReport};

/// The standard matrix at a 1 ms window and 60 schedules per cell, each
/// cell built with `mutation`.
fn capped_matrix(mutation: Option<MutationKind>) -> Vec<ExploreConfig> {
    let mut matrix = default_matrix(1000, 60, 64, 2_000);
    for job in &mut matrix {
        job.cfg.mutation = mutation;
    }
    matrix
}

/// Explores the capped matrix at 1, 2 and 4 workers, asserts the three
/// reports are equal, and returns the 4-worker one.
fn same_at_every_worker_count(mutation: Option<MutationKind>) -> MatrixReport {
    let [one, two, four] = [1, 2, 4].map(|jobs| explore_matrix(capped_matrix(mutation), jobs));
    assert_eq!(one.runs, two.runs, "jobs = 2 diverged from jobs = 1");
    assert_eq!(one.runs, four.runs, "jobs = 4 diverged from jobs = 1");
    four
}

#[test]
fn parallel_vs_sequential_model_identical() {
    let report = same_at_every_worker_count(None);
    assert!(report.clean(), "clean build must explore clean");
    for run in report.runs.iter().filter(|r| r.label.starts_with("CDNA")) {
        assert!(
            !run.exhausted && run.schedules == 60,
            "{}: test premise broken — the budget must cut the tree",
            run.label
        );
    }
}

#[test]
fn parallel_matches_sequential_under_mutation() {
    // Seeded protocol bug: the violation stream (count and sampled
    // descriptions, in schedule order) must match at every worker
    // count.
    let report = same_at_every_worker_count(Some(MutationKind::SeqSkip));
    assert!(
        report.total_violations() > 0,
        "mutation must be caught at jobs = 4"
    );
}

#[test]
fn a_mutation_stays_in_its_own_cell() {
    // One cell of a 300 µs matrix carries `seq-skip`, the rest nothing.
    // Cells share workers at jobs 2, so a bug that leaked out of its
    // world would show in a later cell on the same worker.
    let matrix = || {
        let mut matrix = default_matrix(300, 40, 64, 2_000);
        matrix[0].cfg.mutation = Some(MutationKind::SeqSkip);
        matrix
    };
    let one = explore_matrix(matrix(), 1);
    let two = explore_matrix(matrix(), 2);
    assert_eq!(one, two, "jobs = 2 diverged from jobs = 1");
    let (mutated, rest) = one.runs.split_first().expect("a non-empty matrix");
    assert!(
        mutated.violations > 0,
        "{}: seq-skip escaped",
        mutated.label
    );
    for run in rest {
        assert_eq!(run.violations, 0, "{}: {:?}", run.label, run.sample);
    }
}
