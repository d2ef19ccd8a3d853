//! Machine-readable JSON report for CI, built on `cdna-trace`'s
//! [`JsonWriter`] so the checker stays dependency-free.
//!
//! Shape (`schema_version` 4 — since the determinism-soundness rules
//! CDNA014–017, all now retired, and the parallel self-hosted scan;
//! version 3 covered the dataflow rules CDNA011–013, version 2 the
//! symbol-graph rules). Retiring a rule drops its name from `counts`
//! and `diagnostics` but changes no field, so the version stays:
//!
//! ```json
//! {
//!   "tool": "cdna-check",
//!   "schema_version": 4,
//!   "clean": false,
//!   "files_scanned": 42,
//!   "manifests_scanned": 11,
//!   "allow_annotations": 9,
//!   "counts": { "layering": 1, "must-pair": 2 },
//!   "diagnostics": [
//!     { "rule": "must-pair", "code": "CDNA009", "severity": "error",
//!       "file": "crates/x/src/y.rs", "line": 17,
//!       "message": "`f` pins pages at line 12 but `?` exits ..." }
//!   ]
//! }
//! ```
//!
//! `counts` and `diagnostics` are sorted, so the report is byte-stable
//! across runs — diffable in CI artifacts — and, because the scan
//! itself merges per-file work in path order, byte-identical at any
//! `--jobs` count (the worker count is deliberately *not* a report
//! field). Rule codes (`CDNA007`…) are append-only: a rule rename
//! never reassigns a code, and the retired codes (now compiler, clippy
//! and CI checks) stay unassigned, so report diffs across PRs stay
//! meaningful.

use crate::rules::{rule_code, rule_severity, StaticReport};
use cdna_trace::json::JsonWriter;
use std::collections::BTreeMap;

/// The report schema version; bump when a field changes meaning or is
/// removed (adding fields is not a bump).
pub const SCHEMA_VERSION: u64 = 4;

/// Renders a [`StaticReport`] as GitHub workflow-command annotation
/// lines (`::error file=…,line=…::CDNA009 message`), one per
/// diagnostic, so CI surfaces violations inline on the PR diff. The
/// JSON artifact remains the machine-readable record; this is the
/// human-facing overlay. Newlines inside messages are escaped per the
/// workflow-command syntax (`%0A`).
pub fn render_github(report: &StaticReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let msg = format!("{} {}", rule_code(d.rule), d.message)
            .replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A");
        out.push_str(&format!(
            "::{} file={},line={}::{}\n",
            rule_severity(d.rule),
            d.file,
            d.line,
            msg
        ));
    }
    out
}

/// Renders a [`StaticReport`] as a JSON document.
pub fn render_json(report: &StaticReport) -> String {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for d in &report.diagnostics {
        *counts.entry(d.rule).or_insert(0) += 1;
    }

    let mut w = JsonWriter::with_capacity(4096 + report.diagnostics.len() * 128);
    w.begin_object();
    w.key("tool");
    w.string("cdna-check");
    w.key("schema_version");
    w.number_u64(SCHEMA_VERSION);
    w.key("clean");
    w.boolean(report.clean());
    w.key("files_scanned");
    w.number_u64(report.files_scanned as u64);
    w.key("manifests_scanned");
    w.number_u64(report.manifests_scanned as u64);
    w.key("allow_annotations");
    w.number_u64(report.allow_count as u64);
    w.key("counts");
    w.begin_object();
    for (rule, n) in &counts {
        w.key(rule);
        w.number_u64(*n);
    }
    w.end_object();
    w.key("diagnostics");
    w.begin_array();
    for d in &report.diagnostics {
        w.begin_object();
        w.key("rule");
        w.string(d.rule);
        w.key("code");
        w.string(rule_code(d.rule));
        w.key("severity");
        w.string(rule_severity(d.rule));
        w.key("file");
        w.string(&d.file);
        w.key("line");
        w.number_u64(u64::from(d.line));
        w.key("message");
        w.string(&d.message);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    #[test]
    fn clean_report_shape() {
        let r = StaticReport {
            files_scanned: 3,
            manifests_scanned: 2,
            allow_count: 1,
            ..StaticReport::default()
        };
        let json = render_json(&r);
        assert!(json.contains(r#""tool":"cdna-check""#));
        assert!(json.contains(r#""schema_version":4"#));
        assert!(json.contains(r#""clean":true"#));
        assert!(json.contains(r#""files_scanned":3"#));
        assert!(json.contains(r#""diagnostics":[]"#));
    }

    #[test]
    fn diagnostics_serialized_with_counts() {
        let r = StaticReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "must-pair",
                    file: "a.rs".into(),
                    line: 5,
                    message: "boom \"quoted\"".into(),
                },
                Diagnostic {
                    rule: "must-pair",
                    file: "b.rs".into(),
                    line: 1,
                    message: "again".into(),
                },
            ],
            files_scanned: 2,
            manifests_scanned: 0,
            allow_count: 0,
        };
        let json = render_json(&r);
        assert!(json.contains(r#""clean":false"#));
        assert!(json.contains(r#""must-pair":2"#));
        assert!(json.contains(r#""code":"CDNA009""#));
        assert!(json.contains(r#""severity":"error""#));
        assert!(json.contains(r#""line":5"#));
        assert!(json.contains(r#"\"quoted\""#), "message must be escaped");
    }

    #[test]
    fn github_format_annotates_per_diagnostic() {
        let r = StaticReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "guest-taint",
                    file: "crates/x/src/y.rs".into(),
                    line: 9,
                    message: "unvalidated".into(),
                },
                Diagnostic {
                    rule: "unused-allow",
                    file: "a.rs".into(),
                    line: 2,
                    message: "two\nlines".into(),
                },
            ],
            files_scanned: 1,
            manifests_scanned: 0,
            allow_count: 0,
        };
        let out = render_github(&r);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "::error file=crates/x/src/y.rs,line=9::CDNA011 unvalidated"
        );
        assert_eq!(lines[1], "::warning file=a.rs,line=2::CDNA007 two%0Alines");
        assert_eq!(lines.len(), 2);
        assert!(render_github(&StaticReport::default()).is_empty());
    }

    #[test]
    fn rule_codes_are_stable_and_unique() {
        use crate::rules::{rule_code, rule_severity, RULE_NAMES};
        let codes: Vec<&str> = RULE_NAMES.iter().map(|r| rule_code(r)).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), RULE_NAMES.len(), "duplicate code: {codes:?}");
        assert_eq!(RULE_NAMES.len(), 4);
        assert_eq!(codes, ["CDNA007", "CDNA008", "CDNA009", "CDNA011"]);
        // Retired codes are never reassigned.
        for retired in [
            "CDNA001", "CDNA002", "CDNA003", "CDNA004", "CDNA005", "CDNA006", "CDNA010", "CDNA012",
            "CDNA013", "CDNA014", "CDNA015", "CDNA016", "CDNA017",
        ] {
            assert!(!codes.contains(&retired), "{retired} reused: {codes:?}");
        }
        for retired in [
            "exhaustive-fault",
            "lock-order",
            "merge-order",
            "clock-purity",
            "jobs-leak",
            "float-accum",
        ] {
            assert_eq!(rule_code(retired), "CDNA000", "{retired} is retired");
        }
        assert_eq!(rule_severity("unused-allow"), "warning");
        assert_eq!(rule_severity("layering"), "error");
        assert_eq!(rule_severity("must-pair"), "error");
        assert_eq!(rule_severity("guest-taint"), "error");
    }
}
