//! Bad command lines fail fast: a malformed or zero bound or worker
//! count, an unknown flag or mutation, or a flag missing its value
//! exits 2 with a usage line, before any schedule runs. `--profile`
//! adds a phase table to stderr and changes nothing else.

use std::path::PathBuf;
use std::process::Command;

use cdna_system::phase;

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

#[test]
fn profile_names_every_phase_and_leaves_the_report_alone() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (plain, profiled) = (dir.join("cli-plain.json"), dir.join("cli-profiled.json"));
    let bounds = ["--jobs", "2", "--window-us", "300", "--per-config", "20"];
    let out = |path: &PathBuf| path.to_str().expect("utf-8 path").to_string();
    let (code, stderr) = run(&[&bounds[..], &["--out", &out(&plain)]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = run(&[&bounds[..], &["--profile", "--out", &out(&profiled)]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    for p in phase::ALL {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().next() == Some(p.name())),
            "no {} line: {stderr}",
            p.name()
        );
    }
    let read = |path: &PathBuf| std::fs::read(path).expect("read report");
    assert!(
        read(&plain) == read(&profiled),
        "--profile changed the report"
    );
}
