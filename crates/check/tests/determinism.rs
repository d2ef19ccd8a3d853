//! Tier-1 enforcement for the determinism-soundness layer (CDNA015–016)
//! and the parallel self-hosted scanner.
//!
//! The seeded calibration fixtures under `tests/corpus/` carry the
//! exact file:line expectations; running them here (not just in CI)
//! makes a silently-dead pass a test failure. The differential test
//! proves the scanner honors the property these rules protect:
//! `--jobs 1 ≡ --jobs 4`, byte for byte.

use cdna_check::{
    analyze, calibrate::calibrate, check_repo_jobs, render_json, workspace_root, FileKind,
    SourceFile,
};

#[test]
fn calibration_catches_every_seeded_violation() {
    let corpus = workspace_root().join("crates/check/tests/corpus");
    let failures = match calibrate(&corpus) {
        Ok(f) => f,
        Err(e) => panic!("calibration harness error: {e}"),
    };
    assert!(
        failures.is_empty(),
        "calibration failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn parallel_scan_is_byte_identical_to_serial() {
    let root = workspace_root();
    let serial = match check_repo_jobs(&root, Some(1)) {
        Ok(r) => r,
        Err(e) => panic!("serial scan failed: {e}"),
    };
    let parallel = match check_repo_jobs(&root, Some(4)) {
        Ok(r) => r,
        Err(e) => panic!("parallel scan failed: {e}"),
    };
    assert_eq!(
        render_json(&serial),
        render_json(&parallel),
        "--jobs must not change the report"
    );
}

fn lib(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.into(),
        kind: FileKind::Library,
        text: text.into(),
    }
}

#[test]
fn clock_purity_fires_at_exact_line_and_honors_wall_ms() {
    let trace = "\
//! Writer stub.
/// Writer.
pub struct JsonWriter;
impl JsonWriter {
    /// Key.
    pub fn key(&mut self, k: &str) { let _ = k; }
    /// Float value.
    pub fn number_f64(&mut self, v: f64) { let _ = v; }
}
";
    let timing = "\
//! Timing.
use std::time::Instant;
use cdna_trace::json::JsonWriter;
/// Seeded violation plus the sanctioned carrier.
pub fn emit(w: &mut JsonWriter) {
    let ms = Instant::now().elapsed().as_secs_f64();
    w.key(\"latency_ms\");
    w.number_f64(ms);
    w.key(\"wall_ms\");
    w.number_f64(ms);
}
";
    let analysis = analyze(
        &[
            lib("crates/trace/src/json.rs", trace),
            lib("crates/bench/src/timing.rs", timing),
        ],
        &[],
    );
    let hits: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.rule == "clock-purity")
        .collect();
    assert_eq!(hits.len(), 1, "{:#?}", analysis.diagnostics);
    assert_eq!(hits[0].file, "crates/bench/src/timing.rs");
    assert_eq!(
        hits[0].line, 8,
        "the `latency_ms` sink; `wall_ms` is sanctioned"
    );
}
