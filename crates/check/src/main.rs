//! `cdna-check` binary: runs the static pass over the workspace and
//! exits non-zero on any violation.
//!
//! ```text
//! cargo run -p cdna-check                 # scan, print diagnostics
//! cargo run -p cdna-check -- --json out.json   # also write JSON report
//! cargo run -p cdna-check -- --jobs 4     # fan the scan out (same bytes)
//! cargo run -p cdna-check -- --format github  # ::error annotations
//! cargo run -p cdna-check -- --root /path/to/repo
//! cargo run -p cdna-check -- --calibrate  # seeded-fixture calibration
//! ```
//!
//! Exit codes: 0 clean, 1 on any violation (or calibration miss), 2 on
//! bad input — an unknown flag, a flag missing its value, `--jobs 0`,
//! or an unreadable tree or unwritable report.
//!
//! **Parallel scan** (`--jobs N`; default: the host's cores): per-file
//! lex/parse/pass work is sharded over the `cdna_sim::par` worker pool
//! and merged in path order, so the output — terminal, annotations, and
//! the JSON artifact — is byte-identical at any worker count. The
//! scanner merges like every other fan-out in the workspace: by input
//! index.
//!
//! **Calibration mode** (`--calibrate`): runs the seeded-violation
//! fixtures under `crates/check/tests/corpus/` and exits 1 unless every
//! seeded violation (CDNA011) is caught at its exact file:line (and
//! nothing else fires) — the proof that the analysis actually detects
//! what it claims to.
//!
//! **GitHub annotations** (`--format github`): diagnostics print as
//! workflow commands (`::error file=…,line=…::CDNA011 …`) that GitHub
//! renders inline on the PR diff. The summary line and JSON artifact
//! are unchanged.

use cdna_check::{calibrate, check_repo_jobs, render_json, report::render_github, workspace_root};
use std::path::PathBuf;

const USAGE: &str =
    "usage: cdna-check [--root DIR] [--jobs N] [--json REPORT.json] [--format text|github] \
     [--calibrate]";

/// Rejects bad input: the reason and the usage line on stderr, exit 2.
fn bad_input(reason: &str) -> ! {
    eprintln!("cdna-check: {reason}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = None;
    let mut run_calibration = false;
    let mut jobs: Option<usize> = None;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => bad_input("--json expects a report path"),
            },
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => bad_input("--root expects a directory"),
            },
            "--calibrate" => run_calibration = true,
            "--jobs" => match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => jobs = Some(n),
                None => bad_input("--jobs expects a positive integer"),
            },
            "--format" => match args.next().as_deref() {
                Some("github") => github = true,
                Some("text") => github = false,
                other => bad_input(&format!(
                    "unknown format `{}` (expected text|github)",
                    other.unwrap_or("")
                )),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => bad_input(&format!("unknown argument `{other}`")),
        }
    }

    if run_calibration {
        let corpus = root.join("crates/check/tests/corpus");
        match calibrate::calibrate(&corpus) {
            Ok(failures) if failures.is_empty() => {
                println!("cdna-check: calibration OK — every seeded violation caught");
                return;
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("cdna-check: calibration: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cdna-check: calibration failed: {e}");
                std::process::exit(2);
            }
        }
    }

    let report = match check_repo_jobs(&root, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cdna-check: scan failed: {e}");
            std::process::exit(2);
        }
    };

    if github {
        // Annotation lines for the PR overlay; stdout so the workflow
        // command processor sees them.
        print!("{}", render_github(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
    }
    println!(
        "cdna-check: {} file(s), {} manifest(s), {} allow annotation(s), {} violation(s)",
        report.files_scanned,
        report.manifests_scanned,
        report.allow_count,
        report.diagnostics.len(),
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&report)) {
            eprintln!("cdna-check: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("cdna-check: JSON report written to {}", path.display());
    }

    if !report.clean() {
        std::process::exit(1);
    }
}
