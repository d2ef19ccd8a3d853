//! `cdna-check` binary: runs the static pass over the workspace and
//! exits non-zero on any violation.
//!
//! ```text
//! cargo run -p cdna-check                 # scan, print diagnostics
//! cargo run -p cdna-check -- --json out.json   # also write JSON report
//! cargo run -p cdna-check -- --jobs 4     # fan the scan out (same bytes)
//! cargo run -p cdna-check -- --format github  # ::error annotations
//! cargo run -p cdna-check -- --root /path/to/repo
//! cargo run -p cdna-check -- --baseline old-report.json   # ratchet mode
//! cargo run -p cdna-check -- --calibrate  # seeded-fixture calibration
//! ```
//!
//! **Parallel scan** (`--jobs N`; default: the host's cores): per-file
//! lex/parse/pass work is sharded over the `cdna_sim::par` worker pool
//! and merged in path order, so the output — terminal, annotations, and
//! the JSON artifact — is byte-identical at any worker count. The
//! scanner merges like every other fan-out in the workspace: by input
//! index.
//!
//! **Ratchet mode** (`--baseline`): violations already present in the
//! given report (matched by rule + file + line) are printed as
//! `baselined` and do not fail the run; only *new* violations exit 1.
//! This lets a new rule land warn-first — commit the report it produces
//! as the baseline, then burn the baseline down to empty and drop the
//! flag.
//!
//! **Calibration mode** (`--calibrate`): runs the seeded-violation
//! fixtures under `crates/check/tests/corpus/` and exits 1 unless every
//! seeded violation (CDNA011, CDNA015, CDNA016) is caught at its exact
//! file:line (and nothing else fires) — the proof that the analyses
//! actually detect what they claim to.
//!
//! **GitHub annotations** (`--format github`): diagnostics print as
//! workflow commands (`::error file=…,line=…::CDNA016 …`) that GitHub
//! renders inline on the PR diff. The summary line and JSON artifact
//! are unchanged.

use cdna_check::{
    calibrate, check_repo_jobs, render_json, report::parse_baseline, report::render_github,
    workspace_root,
};
use std::path::PathBuf;

fn usage() -> ! {
    println!(
        "usage: cdna-check [--root DIR] [--jobs N] [--json REPORT.json] \
         [--format text|github] [--baseline REPORT.json] [--calibrate]"
    );
    std::process::exit(0);
}

fn main() {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut run_calibration = false;
    let mut jobs: Option<usize> = None;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next().map(PathBuf::from),
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--calibrate" => run_calibration = true,
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok());
                if jobs.is_none() {
                    eprintln!("cdna-check: --jobs expects a positive integer");
                    std::process::exit(2);
                }
            }
            "--format" => match args.next().as_deref() {
                Some("github") => github = true,
                Some("text") => github = false,
                other => {
                    eprintln!(
                        "cdna-check: unknown format `{}` (expected text|github)",
                        other.unwrap_or("")
                    );
                    std::process::exit(2);
                }
            },
            "--root" => {
                if let Some(r) = args.next() {
                    root = PathBuf::from(r);
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cdna-check: unknown argument `{other}`");
                std::process::exit(2);
            }
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

    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match parse_baseline(&text) {
                Ok(entries) => Some(entries),
                Err(e) => {
                    eprintln!("cdna-check: bad baseline {}: {e}", path.display());
                    std::process::exit(2);
                }
            },
            Err(e) => {
                eprintln!("cdna-check: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => None,
    };

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
    }

    let mut new_violations = 0usize;
    let mut baselined = 0usize;
    for d in &report.diagnostics {
        let known = baseline.as_ref().is_some_and(|b| {
            b.iter()
                .any(|(r, f, l)| r == d.rule && *f == d.file && *l == d.line)
        });
        if known {
            baselined += 1;
            if !github {
                println!("{} [baselined]", d.render());
            }
        } else {
            new_violations += 1;
            if !github {
                println!("{}", d.render());
            }
        }
    }
    println!(
        "cdna-check: {} file(s), {} manifest(s), {} allow annotation(s), {} violation(s){}",
        report.files_scanned,
        report.manifests_scanned,
        report.allow_count,
        report.diagnostics.len(),
        if baseline.is_some() {
            format!(" ({baselined} baselined, {new_violations} new)")
        } else {
            String::new()
        }
    );

    if let Some(path) = json_path {
        // The artifact always reflects the full scan; the baseline only
        // affects the exit code, so committed reports stay comparable.
        if let Err(e) = std::fs::write(&path, render_json(&report)) {
            eprintln!("cdna-check: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("cdna-check: JSON report written to {}", path.display());
    }

    if new_violations > 0 {
        std::process::exit(1);
    }
}
