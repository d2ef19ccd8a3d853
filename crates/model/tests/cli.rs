//! Bad command lines fail fast: a malformed or zero bound or worker
//! count, an unknown flag or mutation, or a flag missing its value
//! exits 2 with a usage line, before any schedule runs.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cdna-model"))
        .args(args)
        .output()
        .expect("spawn cdna-model");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["--per-config", "0"][..],
        &["--window-us", "0"],
        &["--window-us", "ten"],
        &["--max-depth", "0"],
        &["--per-config"],
        &["--jobs", "zero"],
        &["--jobs", "0"],
        &["--mutation", "no-such-mutation"],
        &["--expect-caught"],
        &["--bogus"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: cdna-model"), "{args:?}: {stderr}");
    }
}
