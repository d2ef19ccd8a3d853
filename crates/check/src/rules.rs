//! The static rule registry and the repository walker.
//!
//! Each rule has a stable kebab-case name, used both in diagnostics and
//! in `// cdna-check: allow(<rule>)` suppression annotations:
//!
//! | rule | code | meaning |
//! |------|------|---------|
//! | `unused-allow` | CDNA007 | an `allow(...)` escape that suppresses nothing |
//! | `layering` | CDNA008 | crate dependency edge against the layer order |
//! | `must-pair` | CDNA009 | pin acquired but not released on a non-panic path |
//! | `guest-taint` | CDNA011 | guest-controlled data reaches a pin/DMA/ring sink unvalidated |
//!
//! CDNA001–006, CDNA010 (`exhaustive-fault`), CDNA012 (`lock-order`),
//! CDNA013 (`send-audit`), CDNA014 (`merge-order`), CDNA015
//! (`clock-purity`), CDNA016 (`jobs-leak`) and CDNA017 (`float-accum`)
//! re-derived what the compiler, clippy or CI's `--jobs` diffs already
//! prove and are retired; their codes are never reassigned.
//! The workspace lint tables (`unsafe_code`, `missing_docs`,
//! `clippy::wildcard_enum_match_arm`), the crate-root clippy lints
//! (`unwrap_used`, `expect_used`, `panic`), `clippy.toml`'s disallowed
//! types and methods, the `Cargo.lock` guard in
//! `tests/manifest_policy.rs`, and the `+ Send` bound of
//! `Simulation::with_event_queue` (pinned by its `compile_fail`
//! doctest) enforce what they did:
//!
//! * a wildcard arm on any enum, fault enums included, is a
//!   `wildcard_enum_match_arm` error (CDNA010);
//! * every lock is an explicit `#[expect(clippy::disallowed_types,
//!   reason = …)]`, in one of the two files `tests/manifest_policy.rs`
//!   lists (CDNA012's lock-order graph);
//! * `std::thread` spawns and `mpsc` channels exist only in
//!   `cdna_sim::par`. A fan-out closure is `Fn + Sync`, so it can only
//!   append to shared state (or feed an order-sensitive `f64`
//!   reduction) through a lock or a channel, and no `#[expect]`ed lock
//!   is cross-worker merge state (CDNA014 and CDNA017);
//! * the wall clock is banned outside three `#[expect]` sites, thread
//!   identity and the host's core count outside `cdna_sim::par`, and
//!   CI diffs every compared artifact across worker counts (CDNA015
//!   and CDNA016).
//!
//! CDNA007–009 are produced by the symbol-graph passes in
//! [`crate::analyses`], CDNA011 by the dataflow pass in
//! [`crate::taint`]; this module owns the rule registry (names, codes,
//! severities) and the repository walker.

use crate::analyses::SourceFile;
use std::path::{Path, PathBuf};

/// Names of every static rule, in report order.
pub const RULE_NAMES: [&str; 4] = ["unused-allow", "layering", "must-pair", "guest-taint"];

/// Stable machine-readable code for a rule (`CDNA007`…), used by the
/// JSON report so CI diffs survive rule renames.
pub fn rule_code(rule: &str) -> &'static str {
    match rule {
        "unused-allow" => "CDNA007",
        "layering" => "CDNA008",
        "must-pair" => "CDNA009",
        "guest-taint" => "CDNA011",
        _ => "CDNA000",
    }
}

/// Severity of a rule: `unused-allow` is hygiene (`warning`), all other
/// rules guard correctness (`error`). The binary exits non-zero on
/// either — warnings are cheap to fix and expensive to let rot.
pub fn rule_severity(rule: &str) -> &'static str {
    match rule {
        "unused-allow" => "warning",
        _ => "error",
    }
}

/// How a source file is classified, which decides the rules applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/`: every source pass applies.
    Library,
    /// `tests/`, `examples/` and binary entry points (`main.rs`,
    /// `src/bin/`): scanned for allow annotations only, for the
    /// `unused-allow` audit, and kept out of the symbol graph (test
    /// imports are `layering` edges through the manifests'
    /// `[dev-dependencies]`).
    AllowsOnly,
}

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Formats as `file:line: [rule] message` for terminal output.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Aggregate result of a repository scan.
#[derive(Debug, Default)]
pub struct StaticReport {
    /// All violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests_scanned: usize,
    /// Number of `cdna-check: allow` annotations honoured.
    pub allow_count: usize,
}

impl StaticReport {
    /// True when no rule fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Classifies a repo-relative path, or returns `None` if the file is
/// exempt from scanning (e.g. the seeded-violation corpus).
pub fn classify(rel: &str) -> Option<FileKind> {
    if rel.contains("tests/corpus/") {
        return None; // fixtures that violate rules on purpose
    }
    if rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
        || rel.ends_with("/main.rs")
        || rel.contains("/src/bin/")
    {
        return Some(FileKind::AllowsOnly);
    }
    Some(FileKind::Library)
}

/// Walks the repository at `root` and applies every static rule: the
/// symbol-graph passes (`layering`, `must-pair`), the `guest-taint`
/// dataflow pass, and the `unused-allow` audit.
///
/// Scans `src/`, `tests/`, `examples/` at the root and under each
/// `crates/*`, plus every `Cargo.toml`. Paths are sorted so output is
/// deterministic. Per-file work runs on one worker; see
/// [`check_repo_jobs`] for the fanned-out scan.
pub fn check_repo(root: &Path) -> std::io::Result<StaticReport> {
    check_repo_jobs(root, Some(1))
}

/// [`check_repo`], with per-file lex/parse work sharded over
/// `jobs` workers of the `cdna_sim::par` pool (`None` resolves the
/// worker count like every other fan-out: the host's available
/// parallelism). The scanner self-hosts the guarantee it checks: the
/// merge is path-ordered, so the report is byte-identical at any
/// worker count.
pub fn check_repo_jobs(root: &Path, jobs: Option<usize>) -> std::io::Result<StaticReport> {
    let mut rs_files: Vec<PathBuf> = Vec::new();
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];

    let mut roots: Vec<PathBuf> = ["src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            manifests.push(c.join("Cargo.toml"));
            for d in ["src", "tests", "examples"] {
                roots.push(c.join(d));
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut rs_files)?;
        }
    }
    rs_files.sort();

    let mut sources: Vec<SourceFile> = Vec::new();
    for path in &rs_files {
        let rel = rel_path(root, path);
        let Some(kind) = classify(&rel) else { continue };
        sources.push(SourceFile {
            rel,
            kind,
            text: std::fs::read_to_string(path)?,
        });
    }
    let mut manifest_srcs: Vec<(String, String)> = Vec::new();
    for path in &manifests {
        if !path.is_file() {
            continue;
        }
        manifest_srcs.push((rel_path(root, path), std::fs::read_to_string(path)?));
    }

    let resolved = cdna_sim::par::resolve_jobs(jobs, sources.len());
    let analysis = crate::analyses::analyze_jobs(&sources, &manifest_srcs, resolved);
    Ok(StaticReport {
        diagnostics: analysis.diagnostics,
        files_scanned: sources.len(),
        manifests_scanned: manifest_srcs.len(),
        allow_count: analysis.allow_count,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // `target/` never appears under src/tests/examples, but be safe.
            if p.file_name().map(|n| n == "target").unwrap_or(false) {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_annotation_suppresses() {
        let src = "pub fn pin_run(s: u32, l: u32) {}\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n    // cdna-check: allow(must-pair): fixture\n}\n";
        let analyze = |text: String| {
            let file = SourceFile {
                rel: "crates/core/src/x.rs".into(),
                kind: FileKind::Library,
                text,
            };
            crate::analyses::analyze(&[file], &[])
        };
        let a = analyze(src.to_string());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.allow_count, 1);
        // Without the annotation the leaking fall-through fires.
        let a = analyze(src.replace("// cdna-check: allow(must-pair): fixture", ""));
        assert_eq!(a.diagnostics.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(a.diagnostics[0].rule, "must-pair");
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/mem/src/pool.rs"), Some(FileKind::Library));
        assert_eq!(
            classify("crates/mem/tests/t.rs"),
            Some(FileKind::AllowsOnly)
        );
        assert_eq!(classify("src/main.rs"), Some(FileKind::AllowsOnly));
        assert_eq!(
            classify("crates/bench/src/bin/cdna-bench/perf.rs"),
            Some(FileKind::AllowsOnly)
        );
        assert_eq!(classify("crates/check/tests/corpus/bad.rs"), None);
    }
}
