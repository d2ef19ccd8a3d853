//! Bad input fails fast with exit 2 and a usage line, instead of a
//! silent fallback: a flag missing its value must not scan the default
//! tree, and `--jobs 0` must not be taken for a worker count.

use std::process::Command;

fn rejects(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_cdna-check"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn cdna-check: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: cdna-check"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: no scan on bad input");
}

#[test]
fn json_without_a_path_is_rejected() {
    rejects(&["--json"]);
}

#[test]
fn root_without_a_directory_is_rejected() {
    rejects(&["--root"]);
}

#[test]
fn zero_or_malformed_jobs_are_rejected() {
    rejects(&["--jobs", "0"]);
    rejects(&["--jobs", "zero"]);
    rejects(&["--jobs"]);
}

#[test]
fn unknown_flags_and_formats_are_rejected() {
    rejects(&["--baseline", "old.json"]);
    rejects(&["--format", "xml"]);
}
