//! Machine-readable JSON report for CI, built on `cdna-trace`'s
//! [`JsonWriter`] so the checker stays dependency-free.
//!
//! Shape (`schema_version` 4 — since the determinism-soundness rules
//! (CDNA014–017, of which CDNA015–016 remain) and the parallel
//! self-hosted scan; version 3 covered the dataflow rules CDNA011–013,
//! version 2 the symbol-graph rules). Retiring a rule drops its name
//! from `counts` and `diagnostics` but changes no field, so the
//! version stays:
//!
//! ```json
//! {
//!   "tool": "cdna-check",
//!   "schema_version": 4,
//!   "clean": false,
//!   "files_scanned": 42,
//!   "manifests_scanned": 11,
//!   "allow_annotations": 9,
//!   "counts": { "exhaustive-fault": 2, "layering": 1 },
//!   "diagnostics": [
//!     { "rule": "exhaustive-fault", "code": "CDNA010", "severity": "error",
//!       "file": "crates/x/src/y.rs", "line": 17,
//!       "message": "wildcard arm in a match on `FaultKind`; ..." }
//!   ]
//! }
//! ```
//!
//! `counts` and `diagnostics` are sorted, so the report is byte-stable
//! across runs — diffable in CI artifacts — and, because the scan
//! itself merges per-file work in path order, byte-identical at any
//! `--jobs` count (the worker count is deliberately *not* a report
//! field; CDNA016 would flag it). Rule codes (`CDNA007`…) are
//! append-only: a rule rename never reassigns a code, and the retired
//! CDNA001–006 and CDNA013 (now compiler and clippy checks) stay
//! unassigned, so report diffs across PRs stay meaningful.

use crate::rules::{rule_code, rule_severity, StaticReport};
use cdna_trace::json::JsonWriter;
use std::collections::BTreeMap;

/// The report schema version; bump when a field changes meaning or is
/// removed (adding fields is not a bump).
pub const SCHEMA_VERSION: u64 = 4;

/// Renders a [`StaticReport`] as GitHub workflow-command annotation
/// lines (`::error file=…,line=…::CDNA010 message`), one per
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

/// One baselined violation: `(rule, file, line)`. Messages are
/// deliberately not part of the identity — rewording a diagnostic must
/// not un-baseline it.
pub type BaselineEntry = (String, String, u32);

/// Parses the `diagnostics` array out of a previously emitted report
/// (the `--baseline` ratchet input). Hand-rolled scanner over our own
/// byte-stable format — tolerant of whitespace and reordered keys, so
/// hand-edited baselines keep working. Returns an error string on
/// malformed input rather than silently baselining nothing.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineEntry>, String> {
    let bytes = json.as_bytes();
    let key = "\"diagnostics\"";
    let Some(mut i) = json.find(key) else {
        return Err("no \"diagnostics\" key in baseline".to_string());
    };
    i += key.len();
    // To the opening `[`.
    while i < bytes.len() && bytes[i] != b'[' {
        i += 1;
    }
    if i == bytes.len() {
        return Err("\"diagnostics\" is not an array".to_string());
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        skip_ws(bytes, &mut i);
        match bytes.get(i) {
            Some(b']') => return Ok(out),
            Some(b',') => {
                i += 1;
                continue;
            }
            Some(b'{') => {
                i += 1;
                let mut rule = None;
                let mut file = None;
                let mut line = None;
                loop {
                    skip_ws(bytes, &mut i);
                    match bytes.get(i) {
                        Some(b'}') => {
                            i += 1;
                            break;
                        }
                        Some(b',') | Some(b':') => {
                            i += 1;
                            continue;
                        }
                        Some(b'"') => {
                            let k = parse_string(json, &mut i)?;
                            skip_ws(bytes, &mut i);
                            if bytes.get(i) != Some(&b':') {
                                return Err(format!("expected `:` after key {k:?}"));
                            }
                            i += 1;
                            skip_ws(bytes, &mut i);
                            match k.as_str() {
                                "rule" => rule = Some(parse_string(json, &mut i)?),
                                "file" => file = Some(parse_string(json, &mut i)?),
                                "line" => line = Some(parse_number(bytes, &mut i)?),
                                _ => skip_value(json, &mut i)?,
                            }
                        }
                        _ => return Err("malformed diagnostic object".to_string()),
                    }
                }
                match (rule, file, line) {
                    (Some(r), Some(f), Some(l)) => out.push((r, f, l)),
                    _ => return Err("diagnostic missing rule/file/line".to_string()),
                }
            }
            _ => return Err("malformed diagnostics array".to_string()),
        }
    }
}

fn skip_ws(bytes: &[u8], i: &mut usize) {
    while bytes
        .get(*i)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *i += 1;
    }
}

fn parse_string(json: &str, i: &mut usize) -> Result<String, String> {
    let bytes = json.as_bytes();
    if bytes.get(*i) != Some(&b'"') {
        return Err("expected string".to_string());
    }
    *i += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*i) {
        match b {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match bytes.get(*i) {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        // `\uXXXX`: decode the code unit (reports only
                        // ever emit BMP escapes).
                        let hex = json.get(*i + 1..*i + 5).ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    Some(&c) => out.push(c as char),
                    None => return Err("truncated escape".to_string()),
                }
                *i += 1;
            }
            _ => {
                // Copy the full UTF-8 scalar starting here.
                let s = &json[*i..];
                let ch = s.chars().next().ok_or("truncated string")?;
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], i: &mut usize) -> Result<u32, String> {
    let start = *i;
    let mut value: u64 = 0;
    while let Some(&b) = bytes.get(*i).filter(|b| b.is_ascii_digit()) {
        value = value.saturating_mul(10).saturating_add(u64::from(b - b'0'));
        *i += 1;
    }
    if start == *i {
        return Err("expected number".to_string());
    }
    u32::try_from(value).map_err(|e| e.to_string())
}

/// Skips one scalar value (string or number/keyword) — enough for the
/// flat diagnostic objects the report emits.
fn skip_value(json: &str, i: &mut usize) -> Result<(), String> {
    let bytes = json.as_bytes();
    if bytes.get(*i) == Some(&b'"') {
        parse_string(json, i).map(|_| ())
    } else {
        while bytes
            .get(*i)
            .is_some_and(|b| !matches!(b, b',' | b'}' | b']'))
        {
            *i += 1;
        }
        Ok(())
    }
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
                    rule: "exhaustive-fault",
                    file: "a.rs".into(),
                    line: 5,
                    message: "boom \"quoted\"".into(),
                },
                Diagnostic {
                    rule: "exhaustive-fault",
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
        assert!(json.contains(r#""exhaustive-fault":2"#));
        assert!(json.contains(r#""code":"CDNA010""#));
        assert!(json.contains(r#""severity":"error""#));
        assert!(json.contains(r#""line":5"#));
        assert!(json.contains(r#"\"quoted\""#), "message must be escaped");
    }

    #[test]
    fn github_format_annotates_per_diagnostic() {
        let r = StaticReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "jobs-leak",
                    file: "crates/x/src/y.rs".into(),
                    line: 9,
                    message: "worker count".into(),
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
            "::error file=crates/x/src/y.rs,line=9::CDNA016 worker count"
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
        assert_eq!(RULE_NAMES.len(), 7);
        // Retired codes are never reassigned.
        for retired in [
            "CDNA001", "CDNA002", "CDNA003", "CDNA004", "CDNA005", "CDNA006", "CDNA012", "CDNA013",
            "CDNA014", "CDNA017",
        ] {
            assert!(!codes.contains(&retired), "{retired} reused: {codes:?}");
        }
        assert_eq!(rule_code("unused-allow"), "CDNA007");
        assert_eq!(rule_code("layering"), "CDNA008");
        assert_eq!(rule_code("exhaustive-fault"), "CDNA010");
        assert_eq!(rule_code("guest-taint"), "CDNA011");
        assert_eq!(rule_code("lock-order"), "CDNA000", "retired");
        assert_eq!(rule_code("merge-order"), "CDNA000", "retired");
        assert_eq!(rule_code("clock-purity"), "CDNA015");
        assert_eq!(rule_code("jobs-leak"), "CDNA016");
        assert_eq!(rule_code("float-accum"), "CDNA000", "retired");
        assert_eq!(rule_severity("unused-allow"), "warning");
        assert_eq!(rule_severity("jobs-leak"), "error");
        assert_eq!(rule_severity("must-pair"), "error");
        assert_eq!(rule_severity("guest-taint"), "error");
    }

    #[test]
    fn baseline_round_trips_through_render() {
        let r = StaticReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "guest-taint",
                    file: "crates/xen/src/cdna_driver.rs".into(),
                    line: 42,
                    message: "path: pump_tx → dma, \"quoted\"".into(),
                },
                Diagnostic {
                    rule: "jobs-leak",
                    file: "crates/sim/src/par.rs".into(),
                    line: 7,
                    message: "worker index".into(),
                },
            ],
            files_scanned: 1,
            manifests_scanned: 1,
            allow_count: 0,
        };
        let entries = parse_baseline(&render_json(&r)).expect("parse");
        assert_eq!(
            entries,
            vec![
                (
                    "guest-taint".to_string(),
                    "crates/xen/src/cdna_driver.rs".to_string(),
                    42
                ),
                (
                    "jobs-leak".to_string(),
                    "crates/sim/src/par.rs".to_string(),
                    7
                ),
            ]
        );
    }

    #[test]
    fn baseline_tolerates_whitespace_and_rejects_garbage() {
        let ok = r#"{ "diagnostics": [
            { "file": "a.rs", "line": 3, "rule": "layering", "extra": "x" }
        ] }"#;
        assert_eq!(
            parse_baseline(ok).expect("parse"),
            vec![("layering".to_string(), "a.rs".to_string(), 3)]
        );
        assert!(parse_baseline("{}").is_err(), "missing key must error");
        assert!(
            parse_baseline(r#"{"diagnostics":[{"rule":"x"}]}"#).is_err(),
            "incomplete entries must error"
        );
    }
}
