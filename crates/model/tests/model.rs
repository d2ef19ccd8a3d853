//! Integration tests for the schedule explorer: clean exploration on
//! the unmutated protocol, and calibration — every seeded protocol
//! mutation must be caught by some explored schedule.

use cdna_mem::mutation::MutationKind;
use cdna_model::{default_matrix, explore, ExploreConfig};

/// A small matrix cell by label substring.
fn job(label_part: &str) -> ExploreConfig {
    let jobs = default_matrix(600, 25, 64, 2000);
    jobs.into_iter()
        .find(|j| j.label.contains(label_part))
        .expect("matrix contains the requested cell")
}

#[test]
fn clean_cdna_tx_exploration_forks_and_holds_invariants() {
    let run = explore(&job("CDNA/RiceNIC/2g/tx"));
    assert!(run.schedules > 1, "tie window must fork tx schedules");
    assert_eq!(
        run.violations, 0,
        "unmutated protocol must be clean: {:?}",
        run.sample
    );
}

#[test]
fn clean_cdna_rx_exploration_forks_and_holds_invariants() {
    let run = explore(&job("CDNA/RiceNIC/2g/rx"));
    assert!(run.schedules > 1);
    assert_eq!(run.violations, 0, "{:?}", run.sample);
}

#[test]
fn clean_xen_exploration_forks_and_holds_invariants() {
    let run = explore(&job("Xen/Intel/2g/rx"));
    assert!(run.schedules > 1);
    assert_eq!(run.violations, 0, "{:?}", run.sample);
}

/// Runs one CDNA tx exploration with `m` built into its world and
/// returns the violation count.
fn violations_under(m: MutationKind) -> u64 {
    let mut job = job("CDNA/RiceNIC/2g/tx");
    job.cfg.mutation = Some(m);
    explore(&job).violations
}

#[test]
fn mutation_seq_skip_is_caught() {
    assert!(violations_under(MutationKind::SeqSkip) > 0);
}

#[test]
fn mutation_unpin_wrong_page_is_caught() {
    assert!(violations_under(MutationKind::UnpinWrongPage) > 0);
}

#[test]
fn mutation_skip_ownership_check_is_caught() {
    assert!(violations_under(MutationKind::SkipOwnershipCheck) > 0);
}

#[test]
fn mutation_irq_double_post_is_caught() {
    assert!(violations_under(MutationKind::IrqDoublePost) > 0);
}
