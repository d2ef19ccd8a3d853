//! Bad command lines fail fast: an unknown flag or mutation, a flag
//! missing its value, `--expect-caught` without a mutation, or a
//! malformed or zero worker count exits 2 with a usage line, before any
//! episode runs and without writing a report.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage() {
    let report = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-bad-args.json");
    let out = report.to_str().expect("utf-8 path");
    for args in [
        &["--bogus"][..],
        &["--mutation", "no-such-mutation"],
        &["--seed"],
        &["--expect-caught"],
        &["--jobs", "zero"],
        &["--jobs", "0"],
    ] {
        let _ = std::fs::remove_file(&report);
        let run = Command::new(env!("CARGO_BIN_EXE_cdna-fuzz"))
            .args(["--quick", "--stdout", "--out", out])
            .args(args)
            .output()
            .expect("spawn cdna-fuzz");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: cdna-fuzz"), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?}: a report on stdout");
        assert!(!report.exists(), "{args:?}: a report at {out}");
    }
}
