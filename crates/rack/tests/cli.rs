//! A malformed or zero `--jobs` value fails fast with a usage line
//! instead of silently falling back to a default worker count.

use std::process::Command;

#[test]
fn rack_rejects_a_malformed_jobs_value() {
    for jobs in ["zero", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_rack"))
            .args(["--jobs", jobs, "--quick", "--stdout"])
            .output()
            .unwrap_or_else(|e| panic!("spawn rack: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--jobs {jobs}: {stderr}");
        assert!(stderr.contains("usage: rack"), "--jobs {jobs}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "--jobs {jobs}: no report on bad input"
        );
    }
}
