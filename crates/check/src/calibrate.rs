//! Seeded-violation calibration: proves the dataflow rule actually
//! fires.
//!
//! A static analysis that never fires is indistinguishable from one
//! that is broken, so the dataflow rule — the taint pass (CDNA011) —
//! ships with a seeded-violation fixture under
//! `crates/check/tests/corpus/` (a directory the repository walker
//! exempts from the real scan). Each fixture is one
//! physical file describing a *virtual multi-file workspace* plus the
//! exact diagnostics it must produce:
//!
//! ```text
//! // cdna-expect: guest-taint crates/xen/src/driver.rs:4
//! // cdna-fixture-file: crates/mem/src/pool.rs
//! pub fn validate_run() {}
//! // cdna-fixture-file: crates/xen/src/driver.rs
//! pub fn flush() { … }
//! ```
//!
//! `cdna-expect` lines must precede the first `cdna-fixture-file`
//! marker (so virtual line numbers stay honest); each marker starts a
//! virtual file whose line 1 is the line after the marker. The
//! calibration harness runs [`analyze`] over the virtual workspace and
//! demands the diagnostic set matches the expectations *exactly* —
//! missing and unexpected findings both fail. It runs in `cargo test`
//! (tier-1) and as `cdna-check --calibrate` in CI, mirroring
//! cdna-model's mutation-calibration gate.

use crate::analyses::{analyze, SourceFile};
use crate::rules::FileKind;
use std::path::Path;

/// One parsed fixture: a virtual workspace plus expected diagnostics.
#[derive(Debug, Default)]
pub struct Fixture {
    /// Virtual files as `(repo-relative path, text)`.
    pub files: Vec<(String, String)>,
    /// Expected diagnostics as `(rule, file, line)`.
    pub expects: Vec<(String, String, u32)>,
}

/// Parses a fixture file. See the module docs for the format.
pub fn parse_fixture(text: &str) -> Result<Fixture, String> {
    let mut fx = Fixture::default();
    let mut current: Option<(String, String)> = None;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("// cdna-fixture-file:") {
            if let Some(done) = current.take() {
                fx.files.push(done);
            }
            current = Some((rest.trim().to_string(), String::new()));
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("// cdna-expect:") {
            if current.is_some() {
                return Err(format!(
                    "line {}: cdna-expect must precede the first fixture file",
                    i + 1
                ));
            }
            let rest = rest.trim();
            let (rule, loc) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {}: malformed cdna-expect", i + 1))?;
            let (file, ln) = loc
                .rsplit_once(':')
                .ok_or_else(|| format!("line {}: cdna-expect needs file:line", i + 1))?;
            let ln: u32 = ln
                .parse()
                .map_err(|e| format!("line {}: bad line number: {e}", i + 1))?;
            fx.expects.push((rule.to_string(), file.to_string(), ln));
            continue;
        }
        if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
            body.push('\n');
        } else if !trimmed.is_empty() {
            return Err(format!(
                "line {}: content before the first cdna-fixture-file marker",
                i + 1
            ));
        }
    }
    if let Some(done) = current.take() {
        fx.files.push(done);
    }
    if fx.files.is_empty() {
        return Err("fixture has no cdna-fixture-file sections".to_string());
    }
    Ok(fx)
}

/// Runs the analyzer over a fixture's virtual workspace and returns the
/// produced `(rule, file, line)` triples, sorted.
pub fn run_fixture(fx: &Fixture) -> Vec<(String, String, u32)> {
    let files: Vec<SourceFile> = fx
        .files
        .iter()
        .map(|(rel, text)| SourceFile {
            rel: rel.clone(),
            kind: FileKind::Library,
            text: text.clone(),
        })
        .collect();
    let mut got: Vec<(String, String, u32)> = analyze(&files, &[])
        .diagnostics
        .into_iter()
        .map(|d| (d.rule.to_string(), d.file, d.line))
        .collect();
    got.sort();
    got
}

/// Calibrates every `seeded_*.rs` fixture under the given corpus
/// directory. Returns human-readable mismatch descriptions; an empty
/// vector means every seeded violation was caught exactly.
pub fn calibrate(corpus_dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<_> = std::fs::read_dir(corpus_dir)
        .map_err(|e| format!("read {}: {e}", corpus_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seeded_") && n.ends_with(".rs"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no seeded_*.rs fixtures under {}",
            corpus_dir.display()
        ));
    }
    let mut failures = Vec::new();
    for name in names {
        let path = corpus_dir.join(&name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let fx = parse_fixture(&text).map_err(|e| format!("{name}: {e}"))?;
        let got = run_fixture(&fx);
        let mut want = fx.expects.clone();
        want.sort();
        for w in &want {
            if !got.contains(w) {
                failures.push(format!("{name}: seeded {} {}:{} NOT caught", w.0, w.1, w.2));
            }
        }
        for g in &got {
            if !want.contains(g) {
                failures.push(format!("{name}: unexpected {} {}:{}", g.0, g.1, g.2));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_parsing_splits_virtual_files() {
        let fx = parse_fixture(
            "// cdna-expect: guest-taint crates/xen/src/d.rs:2\n\
             // cdna-fixture-file: crates/mem/src/pool.rs\n\
             pub fn validate_run() {}\n\
             // cdna-fixture-file: crates/xen/src/d.rs\n\
             pub fn a() {}\n\
             pub fn b() {}\n",
        )
        .expect("parse");
        assert_eq!(fx.files.len(), 2);
        assert_eq!(fx.files[0].0, "crates/mem/src/pool.rs");
        assert_eq!(fx.files[1].1, "pub fn a() {}\npub fn b() {}\n");
        assert_eq!(
            fx.expects,
            vec![(
                "guest-taint".to_string(),
                "crates/xen/src/d.rs".to_string(),
                2
            )]
        );
    }

    #[test]
    fn fixture_parsing_rejects_misplaced_markers() {
        assert!(parse_fixture("pub fn a() {}\n").is_err());
        assert!(
            parse_fixture("// cdna-fixture-file: a.rs\n// cdna-expect: layering a.rs:1\n").is_err()
        );
        assert!(parse_fixture("").is_err());
    }
}
