//! Bad command lines fail fast: a malformed `--jobs` value or an
//! argument a binary does not take exits 2 with a usage line, before
//! any simulation runs.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table_binaries_reject_bad_arguments() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_table1"), &["--jobs", "zero"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_sensitivity"), &["--jobs=0x"]),
        (env!("CARGO_BIN_EXE_calibrate"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig3"), &["--jobs"]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn perf_rejects_a_malformed_jobs_value() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_perf"), &["--jobs", "zero", "--quick"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage: perf"), "{stderr}");
}
