//! A malformed `--jobs` value fails fast with a usage line instead of
//! silently falling back to the default worker count.

use std::process::Command;

#[test]
fn rack_rejects_a_malformed_jobs_value() {
    let out = Command::new(env!("CARGO_BIN_EXE_rack"))
        .args(["--jobs", "zero", "--quick", "--stdout"])
        .output()
        .unwrap_or_else(|e| panic!("spawn rack: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: rack"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report on bad input");
}
