//! Tier-1 enforcement for the seeded calibration corpus and the
//! parallel self-hosted scanner.
//!
//! The seeded calibration fixtures under `tests/corpus/` carry the
//! exact file:line expectations; running them here (not just in CI)
//! makes a silently-dead pass a test failure. The differential test
//! proves the scanner honors the workspace's determinism contract:
//! `--jobs 1 ≡ --jobs 4`, byte for byte.

use cdna_check::{calibrate::calibrate, check_repo_jobs, render_json, workspace_root};

#[test]
fn calibration_catches_every_seeded_violation() {
    let corpus = workspace_root().join("crates/check/tests/corpus");
    let failures = match calibrate(&corpus) {
        Ok(f) => f,
        Err(e) => panic!("calibration harness error: {e}"),
    };
    assert!(
        failures.is_empty(),
        "calibration failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn parallel_scan_is_byte_identical_to_serial() {
    let root = workspace_root();
    let serial = match check_repo_jobs(&root, Some(1)) {
        Ok(r) => r,
        Err(e) => panic!("serial scan failed: {e}"),
    };
    let parallel = match check_repo_jobs(&root, Some(4)) {
        Ok(r) => r,
        Err(e) => panic!("parallel scan failed: {e}"),
    };
    assert_eq!(
        render_json(&serial),
        render_json(&parallel),
        "--jobs must not change the report"
    );
}
