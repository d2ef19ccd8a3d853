//! Absolute goldens for the `cdna-model` binary: its JSON report at
//! small bounds (`--window-us 1000 --per-config 40`, one worker),
//! clean and under each seeded protocol mutation, compared byte for
//! byte with the checked-in files. Violation counts and samples are
//! part of the report, so a change to what the shadow checker or the
//! invariant suite reports, or in which order, shows up as a diff.
//! Regenerate with
//!
//! ```sh
//! CDNA_BLESS=1 cargo test -p cdna-model --test golden
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Runs the binary at the golden bounds plus `extra` and compares its
/// stdout with `tests/golden/<name>.json`.
fn check(name: &str, extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_cdna-model"))
        .args(["--jobs", "1", "--window-us", "1000", "--per-config", "40"])
        .args(extra)
        .output()
        .expect("spawn cdna-model");
    assert_eq!(
        out.status.code(),
        Some(0),
        "cdna-model {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 report");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"));
    if std::env::var_os("CDNA_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        want == got,
        "{name} model report out of date (rerun with CDNA_BLESS=1 if intended):\n  want {want}  got  {got}"
    );
}

/// One mutation run: exits 0 only when the mutation is caught.
fn check_mutation(name: &str) {
    check(name, &["--mutation", name, "--expect-caught"]);
}

#[test]
fn clean_report_matches_checked_in_golden() {
    check("clean", &[]);
}

#[test]
fn seq_skip_report_matches_checked_in_golden() {
    check_mutation("seq-skip");
}

#[test]
fn unpin_wrong_page_report_matches_checked_in_golden() {
    check_mutation("unpin-wrong-page");
}

#[test]
fn skip_ownership_check_report_matches_checked_in_golden() {
    check_mutation("skip-ownership-check");
}

#[test]
fn irq_double_post_report_matches_checked_in_golden() {
    check_mutation("irq-double-post");
}
