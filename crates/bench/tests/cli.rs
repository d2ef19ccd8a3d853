//! Bad command lines fail fast: a missing or unknown target, a
//! malformed `--jobs` value, a flag a target does not take, or a
//! configuration the testbed cannot build exits 2 with a usage line,
//! before any simulation runs.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let bin = env!("CARGO_BIN_EXE_cdna-bench");
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: cdna-bench"), "{args:?}: {stderr}");
}

#[test]
fn missing_or_unknown_target_exits_2() {
    // The old per-table binary names are not aliases.
    for args in [&[][..], &["table5"], &["ablation_batch"], &["--jobs", "2"]] {
        assert_usage_error(args);
    }
}

#[test]
fn table_binaries_reject_bad_arguments() {
    for args in [
        &["table1", "--jobs", "zero"][..],
        &["table1", "--bogus"],
        &["sensitivity", "--jobs=0x"],
        &["calibrate", "--bogus"],
        &["fig3", "--jobs"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn perf_rejects_a_malformed_jobs_value() {
    assert_usage_error(&["perf", "--jobs", "zero", "--quick"]);
}

#[test]
fn perf_rejects_a_removed_flag_and_zero_reps() {
    // The heap queue is gone, and with it the flag.
    assert_usage_error(&["perf", "--queue", "heap"]);
    assert_usage_error(&["perf", "--quick", "--reps", "0"]);
}

#[test]
fn run_rejects_configurations_the_testbed_cannot_build() {
    for args in [
        &["run", "cdna", "1", "tx", "--nics", "0"][..],
        &["run", "cdna", "1", "tx", "--conns", "0"],
        // 31 assignable hardware contexts: context 0 is the hypervisor's.
        &["run", "cdna", "32", "tx"],
        &["run", "cdna", "0", "tx"],
        &["run", "xen-intel", "0", "rx"],
        &["run", "cdna", "1", "up"],
        &["run", "cdna", "1", "tx", "--seed"],
    ] {
        assert_usage_error(args);
    }
}
