//! A minimal hand-rolled Rust source scanner.
//!
//! The static passes do not need a real parser: the item-level parser
//! in [`crate::parse`] works on tokens once comments and string
//! literals are out of the way. This module provides the passes it and
//! the rules build on:
//!
//! 1. [`scrub`] — replaces comments and string/char-literal *contents*
//!    with spaces (newlines preserved, so line numbers survive), while
//!    harvesting `// cdna-check: allow(...)` annotations from the
//!    comment text it removes.
//! 2. [`tokenize`] — splits the scrubbed text into identifier and
//!    punctuation tokens with line numbers.
//! 3. [`test_lines`] — marks the line ranges occupied by `#[cfg(test)]`
//!    / `#[test]` items so rules can exempt test code.

/// One harvested suppression annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// 1-based line the annotation text sits on (for multi-line block
    /// comments, the line of the `cdna-check:` marker itself, not the
    /// line the comment opened on).
    pub line: u32,
    /// The rule name being allowed (or `all`).
    pub rule: String,
    /// Whether this is an `allow-file` (whole-file) suppression.
    pub file_wide: bool,
}

/// A per-line or per-file lint suppression harvested from comments.
///
/// Syntax, anywhere inside a `//` or `/* */` comment:
///
/// ```text
/// // cdna-check: allow(layering)
/// // cdna-check: allow(guest-taint, must-pair): justification
/// // cdna-check: allow-file(guest-taint): justification
/// ```
///
/// A line-scoped `allow` suppresses diagnostics on its own line and the
/// line immediately after it; `allow-file` suppresses the rule for the
/// whole file. Doc comments (`///`, `//!`, `/** */`, `/*! */`) are NOT
/// harvested: annotation syntax quoted in documentation (like the block
/// above) must never become a live suppression.
#[derive(Debug, Clone, Default)]
pub struct Allows {
    entries: Vec<AllowEntry>,
}

impl Allows {
    /// Index of the entry that suppresses `rule` at `line`, if any.
    /// Line-scoped entries win over file-wide ones, so "used allow"
    /// accounting credits the most specific annotation.
    pub fn match_entry(&self, rule: &str, line: u32) -> Option<usize> {
        let hits = |e: &AllowEntry| e.rule == rule || e.rule == "all";
        // A line annotation applies to its own line (trailing comment)
        // and to the following line (comment above the offending code).
        // Exact-line matches are credited before line-above matches so
        // adjacent annotations each claim their own diagnostic.
        self.entries
            .iter()
            .position(|e| !e.file_wide && hits(e) && e.line == line)
            .or_else(|| {
                self.entries
                    .iter()
                    .position(|e| !e.file_wide && hits(e) && e.line + 1 == line)
            })
            .or_else(|| self.entries.iter().position(|e| e.file_wide && hits(e)))
    }

    /// Every harvested annotation, in source order.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Total number of annotations present (for report statistics).
    pub fn count(&self) -> usize {
        self.entries.len()
    }

    fn record(&mut self, comment: &str, line: u32) {
        if is_doc_comment_text(comment) {
            return;
        }
        for (marker, file_wide) in [
            ("cdna-check: allow-file(", true),
            ("cdna-check: allow(", false),
        ] {
            let Some(start) = comment.find(marker) else {
                continue;
            };
            // Attribute the annotation to the line the marker text is
            // on, not the line the (possibly multi-line) comment opened
            // on — otherwise block-comment annotations suppress the
            // wrong span.
            let marker_line = line + comment[..start].matches('\n').count() as u32;
            let rest = &comment[start + marker.len()..];
            let Some(end) = rest.find(')') else { continue };
            for rule in rest[..end].split(',') {
                let rule = rule.trim().to_string();
                if rule.is_empty() {
                    continue;
                }
                self.entries.push(AllowEntry {
                    line: marker_line,
                    rule,
                    file_wide,
                });
            }
            return; // "allow-file(" contains "allow(": don't double-record
        }
    }
}

/// Whether comment text (starting at its `//` or `/*` delimiter) is a
/// doc comment. `////…` and `/**/` are plain comments per the Rust
/// reference, so they stay harvestable.
fn is_doc_comment_text(c: &str) -> bool {
    (c.starts_with("///") && !c.starts_with("////"))
        || c.starts_with("//!")
        || (c.starts_with("/**") && !c.starts_with("/**/"))
        || c.starts_with("/*!")
}

/// Result of [`scrub`]: comment/string-free source plus the harvested
/// annotations.
#[derive(Debug)]
pub struct Scrubbed {
    /// The source with comments and literal contents blanked to spaces.
    /// Newlines are preserved so positions map to original lines.
    pub masked: String,
    /// Lint suppressions found in the removed comments.
    pub allows: Allows,
}

/// Strips comments and string/char-literal contents from Rust source.
///
/// Handles line comments, nested block comments, string literals with
/// escapes, raw strings (`r"…"`, `r#"…"#`, any hash depth, with `b`
/// prefixes), and the `'x'` char-literal vs `'a` lifetime ambiguity.
/// The scanner is byte-wise: every delimiter it cares about is ASCII,
/// and non-ASCII bytes are simply copied (outside literals) or blanked
/// (inside), so multi-byte characters are never split across modes.
pub fn scrub(src: &str) -> Scrubbed {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut allows = Allows::default();
    let mut line: u32 = 1;
    let mut i = 0;

    // Blanks bytes i..end into `out`, preserving newlines and counting
    // lines; returns with i == end.
    let blank = |out: &mut Vec<u8>, line: &mut u32, bytes: &[u8], from: usize, to: usize| {
        for &b in &bytes[from..to] {
            if b == b'\n' {
                *line += 1;
                out.push(b'\n');
            } else {
                out.push(b' ');
            }
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        if b == b'/' && next == b'/' {
            // Line comment: blank to end of line, harvest annotation.
            let end = src[i..].find('\n').map(|o| i + o).unwrap_or(bytes.len());
            allows.record(&src[i..end], line);
            blank(&mut out, &mut line, bytes, i, end);
            i = end;
        } else if b == b'/' && next == b'*' {
            // Block comment, possibly nested.
            let start_line = line;
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            allows.record(&src[start..i], start_line);
            blank(&mut out, &mut line, bytes, start, i);
        } else if b == b'"' {
            // String literal: blank the contents, keep the quotes.
            out.push(b'"');
            i += 1;
            let body = i;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i = (i + 2).min(bytes.len());
                } else if bytes[i] == b'"' {
                    break;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &mut line, bytes, body, i);
            if i < bytes.len() {
                out.push(b'"');
                i += 1;
            }
        } else if (b == b'r' || b == b'b') && raw_string_open(bytes, i).is_some() {
            // Raw (byte) string: r"…", r#"…"#, br#"…"#, …
            let (hashes, body) = raw_string_open(bytes, i).unwrap_or((0, i + 2));
            out.extend(std::iter::repeat_n(b' ', body - 1 - i));
            out.push(b'"');
            let close = format!("\"{}", "#".repeat(hashes));
            let end = src[body..]
                .find(&close)
                .map(|o| body + o)
                .unwrap_or(bytes.len());
            blank(&mut out, &mut line, bytes, body, end);
            if end < bytes.len() {
                // Close found: keep a quote in its place (plus blanks
                // for the trailing hashes) so masked positions line up.
                out.push(b'"');
                let after = (end + close.len()).min(bytes.len());
                out.extend(std::iter::repeat_n(b' ', after.saturating_sub(end + 1)));
                i = after;
            } else {
                // Unterminated raw string: do NOT invent a phantom
                // closing quote past end-of-input.
                i = end;
            }
        } else if b == b'\'' {
            // Char literal or lifetime.
            if let Some(len) = char_literal_len(bytes, i) {
                out.push(b'\'');
                blank(&mut out, &mut line, bytes, i + 1, i + len - 1);
                out.push(b'\'');
                i += len;
            } else {
                out.push(b'\'');
                i += 1;
            }
        } else {
            if b == b'\n' {
                line += 1;
            }
            out.push(b);
            i += 1;
        }
    }

    Scrubbed {
        masked: String::from_utf8_lossy(&out).into_owned(),
        allows,
    }
}

/// If a raw string starts at byte `i` (an `r` or `b`), returns
/// (hash count, index of the first body byte).
fn raw_string_open(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    // Reject identifier context (e.g. the trailing r of `for`).
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return None;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((hashes, j + 1))
    } else {
        None
    }
}

/// If a char literal starts at byte `i` (a `'`), returns its byte
/// length including both quotes; `None` for lifetimes.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let first = *bytes.get(i + 1)?;
    if first == b'\\' {
        // Escaped char: find the closing quote within a short window.
        let window = &bytes[i + 3..(i + 14).min(bytes.len())];
        // Window starts 3 bytes past `i`; +1 includes the quote itself.
        window.iter().position(|&b| b == b'\'').map(|off| off + 4)
    } else if first != b'\'' {
        // Find the end of the (possibly multi-byte) char.
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] & 0xC0 == 0x80 {
            j += 1; // UTF-8 continuation bytes
        }
        if bytes.get(j) == Some(&b'\'') {
            Some(j + 1 - i)
        } else {
            None // lifetime like 'a
        }
    } else {
        None
    }
}

/// One token of scrubbed source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text (identifier, number, or single punctuation char).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Whether this is an identifier/keyword token.
    pub is_ident: bool,
}

/// Splits scrubbed source into identifier and punctuation tokens.
pub fn tokenize(masked: &str) -> Vec<Token> {
    let bytes = masked.as_bytes();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
        } else if b.is_ascii_whitespace() {
            i += 1;
        } else if b.is_ascii_alphanumeric() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            tokens.push(Token {
                text: masked[start..i].to_string(),
                line,
                is_ident: !b.is_ascii_digit(),
            });
        } else {
            // Single punctuation byte (non-ASCII bytes land here too and
            // are carried through opaquely).
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i] & 0xC0 == 0x80 {
                i += 1; // keep a multi-byte char as one token
            }
            tokens.push(Token {
                text: masked[start..i].to_string(),
                line,
                is_ident: false,
            });
        }
    }
    tokens
}

/// Returns the set of 1-based lines that belong to test-only items:
/// anything under a `#[cfg(test)]` attribute or a `#[test]` function.
///
/// Detection is token-based: on seeing the attribute, the scanner skips
/// any further attributes, then brace-matches the next `{ … }` block and
/// marks every line it spans.
pub fn test_lines(tokens: &[Token]) -> std::collections::BTreeSet<u32> {
    let mut lines = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(tokens, i) {
            // Skip any further attributes (e.g. #[allow(...)]).
            let mut j = attr_end;
            while j + 1 < tokens.len() && tokens[j].text == "#" && tokens[j + 1].text == "[" {
                j = skip_attr(tokens, j);
            }
            // Find the item's opening brace and match it. A `;` first
            // means an item with no body (e.g. `mod tests;`).
            while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                j += 1;
            }
            if j < tokens.len() && tokens[j].text == "{" {
                let mut depth = 0;
                let start_line = tokens[i].line;
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end_line = tokens[j.min(tokens.len() - 1)].line;
                for l in start_line..=end_line {
                    lines.insert(l);
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    lines
}

/// If `#[test]` or `#[cfg(test)]` (or `#[cfg(…, test, …)]`) starts at
/// token `i`, returns the index one past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#" || tokens.get(i + 1)?.text != "[" {
        return None;
    }
    let end = skip_attr(tokens, i);
    let inner: Vec<&str> = tokens[i + 2..end.saturating_sub(1)]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    let is_test = match inner.as_slice() {
        ["test"] => true,
        ["cfg", "(", rest @ ..] => rest.contains(&"test"),
        _ => false,
    };
    is_test.then_some(end)
}

/// Returns the index one past the `]` closing the attribute whose `#`
/// is at token `i`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    let mut depth = 0;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permits(allows: &Allows, rule: &str, line: u32) -> bool {
        allows.match_entry(rule, line).is_some()
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unwrap()\"; // unwrap()\nlet y = 1; /* panic! */";
        let s = scrub(src);
        assert!(!s.masked.contains("unwrap"));
        assert!(!s.masked.contains("layering"));
        assert_eq!(s.masked.lines().count(), src.lines().count());
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let src = r#"let x = "a\"unwrap()\"b"; let y = 1;"#;
        let s = scrub(src);
        assert!(!s.masked.contains("unwrap"));
        assert!(s.masked.contains("let y"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = r##"let x = r#"HashMap"#; let y = 2;"##;
        let s = scrub(src);
        assert!(!s.masked.contains("HashMap"));
        assert!(s.masked.contains("let y"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unsafe */ still comment */ fn f() {}";
        let s = scrub(src);
        assert!(!s.masked.contains("guest-taint"));
        assert!(s.masked.contains("fn f"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; }";
        let s = scrub(src);
        assert!(s.masked.contains("fn f<'a>"));
        // The quote inside the char literal must not open a string.
        assert!(s.masked.contains("let d"));
    }

    #[test]
    fn unicode_in_strings_survives() {
        let src = "let s = \"ünïcode\"; let t = 9;";
        let s = scrub(src);
        assert!(s.masked.contains("let t"));
    }

    #[test]
    fn line_allow_harvested() {
        let src = "foo(); // cdna-check: allow(layering): reason\nbar();";
        let s = scrub(src);
        assert!(permits(&s.allows, "layering", 1));
        assert!(
            permits(&s.allows, "layering", 2),
            "applies to next line too"
        );
        assert!(!permits(&s.allows, "layering", 3));
        assert!(!permits(&s.allows, "guest-taint", 1));
    }

    #[test]
    fn file_allow_harvested() {
        let src = "// cdna-check: allow-file(guest-taint): ablation file\nfn f() {}\n";
        let s = scrub(src);
        assert!(permits(&s.allows, "guest-taint", 40));
        assert!(!permits(&s.allows, "layering", 1));
    }

    #[test]
    fn block_comment_allow_attributed_to_marker_line() {
        // The annotation sits on line 3 of a comment opened on line 1;
        // it must suppress line 3/4, not line 1/2.
        let src =
            "/* rationale paragraph\n   spanning lines\n   cdna-check: allow(layering): ok\n*/\nx();";
        let s = scrub(src);
        assert!(permits(&s.allows, "layering", 3));
        assert!(permits(&s.allows, "layering", 4));
        assert!(
            !permits(&s.allows, "layering", 1),
            "comment-open line is not the marker line"
        );
        assert!(!permits(&s.allows, "layering", 5));
    }

    #[test]
    fn doc_comments_are_not_harvested() {
        // Annotation syntax quoted in docs must not become live
        // suppressions (this very file documents the syntax!).
        for src in [
            "/// `// cdna-check: allow(layering)`\nfn f() {}",
            "//! cdna-check: allow-file(layering)\nfn f() {}",
            "/** cdna-check: allow(layering) */\nfn f() {}",
            "/*! cdna-check: allow-file(guest-taint) */\nfn f() {}",
        ] {
            let s = scrub(src);
            assert_eq!(s.allows.count(), 0, "harvested from doc comment: {src}");
        }
        // Plain comments still work, including the //// pseudo-doc form.
        let s = scrub("//// cdna-check: allow(layering)\nx();");
        assert_eq!(s.allows.count(), 1);
    }

    #[test]
    fn allow_entries_exposed_with_lines() {
        let src = "// cdna-check: allow-file(guest-taint)\nx(); // cdna-check: allow(layering)\n";
        let s = scrub(src);
        let e = s.allows.entries();
        assert_eq!(e.len(), 2);
        assert!(e[0].file_wide && e[0].rule == "guest-taint" && e[0].line == 1);
        assert!(!e[1].file_wide && e[1].rule == "layering" && e[1].line == 2);
    }

    #[test]
    fn multiline_raw_string_with_hashes_preserves_spans() {
        // Lines inside the raw string must stay as newlines so rule
        // diagnostics after it land on the right line; fake comment
        // markers and fake closes inside the body must not confuse the
        // scanner.
        let src = "let s = r##\"line one \"# not closed\n// cdna-check: allow(layering)\n/* still string */\"##;\nx.unwrap();";
        let s = scrub(src);
        assert_eq!(s.allows.count(), 0, "allow inside raw string harvested");
        assert!(!s.masked.contains("not closed"));
        let toks = tokenize(&s.masked);
        let unwrap = toks
            .iter()
            .find(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert_eq!(unwrap.line, 4, "span drifted across the raw string");
    }

    #[test]
    fn unterminated_raw_string_adds_no_phantom_quote() {
        let src = "let s = r#\"never closed";
        let s = scrub(src);
        assert_eq!(s.masked.len(), src.len());
        assert_eq!(s.masked.matches('"').count(), 1);
    }

    #[test]
    fn multi_rule_allow() {
        let src = "x(); // cdna-check: allow(layering, must-pair)";
        let s = scrub(src);
        assert!(permits(&s.allows, "layering", 1));
        assert!(permits(&s.allows, "must-pair", 1));
    }

    #[test]
    fn tokenizer_line_numbers() {
        let toks = tokenize("a\nb c\n  d");
        let lines: Vec<(String, u32)> = toks.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(
            lines,
            vec![
                ("a".into(), 1),
                ("b".into(), 2),
                ("c".into(), 2),
                ("d".into(), 3)
            ]
        );
    }

    #[test]
    fn cfg_test_block_detected() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn more() {}";
        let s = scrub(src);
        let toks = tokenize(&s.masked);
        let tl = test_lines(&toks);
        assert!(!tl.contains(&1));
        assert!(tl.contains(&4));
        assert!(!tl.contains(&6));
    }

    #[test]
    fn test_fn_attr_detected() {
        let src = "#[test]\nfn t() {\n  boom();\n}\nfn lib() {}";
        let s = scrub(src);
        let tl = test_lines(&tokenize(&s.masked));
        assert!(tl.contains(&3));
        assert!(!tl.contains(&5));
    }

    #[test]
    fn should_panic_attr_between_test_and_body() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() {\n  boom();\n}";
        let s = scrub(src);
        let tl = test_lines(&tokenize(&s.masked));
        assert!(tl.contains(&4));
    }
}
