//! Item-level parsing on top of the token stream: extracts the per-file
//! symbol summary the interprocedural passes ([`crate::analyses`]) run
//! over.
//!
//! This is deliberately not a real Rust parser. The passes only need
//! two structural facts, both recoverable from the scrubbed token
//! stream by brace matching:
//!
//! * `fn` items — name, line, body token range, and the call sites
//!   inside the body (identifier immediately followed by `(`);
//! * `match` expressions — which enum paths the arm *patterns* mention
//!   and whether any arm is a wildcard (`_` or a bare lowercase
//!   binding).

use crate::lexer::Token;
use std::collections::BTreeSet;

/// One named call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The identifier directly before the `(` (method or function name;
    /// resolution is by name within the workspace, not by type).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Index of the callee token within the function's body tokens, so
    /// dataflow passes can order calls and inspect their surroundings.
    pub pos: usize,
}

/// One `fn` item with its body tokens.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace (fall-through exit point).
    pub end_line: u32,
    /// Tokens strictly inside the body braces (nested items included).
    pub body: Vec<Token>,
    /// Call sites found in the body.
    pub calls: Vec<CallSite>,
}

/// Summary of one `match` expression.
#[derive(Debug, Clone)]
pub struct MatchSym {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// Identifiers that appear immediately before `::` in arm patterns
    /// (e.g. `FaultKind` in `FaultKind::StaleSequence { .. }`).
    pub pattern_enums: BTreeSet<String>,
    /// Line of the first wildcard arm (`_` or a bare lowercase
    /// binding), if any.
    pub wildcard_line: Option<u32>,
}

/// Everything the passes need to know about one source file.
#[derive(Debug, Clone)]
pub struct FileSymbols {
    /// Repo-relative path.
    pub rel: String,
    /// Workspace crate key (`mem` for `crates/mem/…`, `repro` for the
    /// root package), or `None` for paths outside both.
    pub crate_key: Option<String>,
    /// `fn` items.
    pub fns: Vec<FnSym>,
    /// `match` expressions.
    pub matches: Vec<MatchSym>,
}

/// Maps a repo-relative path to its workspace crate key.
pub fn crate_key_of(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next().map(str::to_string);
    }
    if rel.starts_with("src/") || rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Some("repro".to_string());
    }
    None
}

/// Extracts the symbol summary of one file from its scrubbed tokens.
pub fn parse_file(rel: &str, tokens: &[Token]) -> FileSymbols {
    FileSymbols {
        rel: rel.to_string(),
        crate_key: crate_key_of(rel),
        fns: parse_fns(tokens),
        matches: parse_matches(tokens),
    }
}

fn parse_fns(tokens: &[Token]) -> Vec<FnSym> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_ident && tokens[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.is_ident) else {
            i += 1;
            continue;
        };
        // Walk the signature to the body `{` (paren depth 0) or a `;`
        // (trait method declaration — no body).
        let mut j = i + 2;
        let mut par = 0i32;
        let mut open = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" | "[" => par += 1,
                ")" | "]" => par -= 1,
                "{" if par == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if par == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        // Brace-match the body.
        let mut depth = 0i32;
        let mut k = open;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let close = k.min(tokens.len().saturating_sub(1));
        let body: Vec<Token> = tokens[open + 1..close.max(open + 1)].to_vec();
        out.push(FnSym {
            name: name_tok.text.clone(),
            line: tokens[i].line,
            end_line: tokens[close].line,
            calls: parse_calls(&body),
            body,
        });
        i = close + 1;
    }
    out
}

fn parse_calls(body: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if !t.is_ident || is_keyword(&t.text) {
            continue;
        }
        // `name(` is a call unless it is a definition (`fn name(`) or a
        // macro invocation (`name!(`). `name::<T>(` (turbofish) counts
        // too — `sum::<f64>()` is the repo's idiomatic reduction shape.
        if body.get(i + 1).map(|n| n.text.as_str()) != Some("(") && !turbofish_call(body, i) {
            continue;
        }
        if i > 0 && (body[i - 1].text == "fn" || body[i - 1].text == "!") {
            continue;
        }
        out.push(CallSite {
            callee: t.text.clone(),
            line: t.line,
            pos: i,
        });
    }
    out
}

/// Whether the identifier at `i` heads a turbofish call:
/// `name::<…>(`. Plain comparisons can never match because of the
/// required `::<` prefix.
fn turbofish_call(body: &[Token], i: usize) -> bool {
    if body.get(i + 1).map(|t| t.text.as_str()) != Some(":")
        || body.get(i + 2).map(|t| t.text.as_str()) != Some(":")
        || body.get(i + 3).map(|t| t.text.as_str()) != Some("<")
    {
        return false;
    }
    let mut depth = 1i32;
    let mut j = i + 4;
    // Generic argument lists are short; the bound only guards against
    // runaway scans on malformed input.
    while j < body.len() && j < i + 64 {
        let s = body[j].text.as_str();
        if matches!(s, ";" | "{" | ")") {
            return false;
        }
        depth += s.matches('<').count() as i32;
        depth -= s.matches('>').count() as i32;
        if depth <= 0 {
            return body.get(j + 1).map(|t| t.text.as_str()) == Some("(");
        }
        j += 1;
    }
    false
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "else"
            | "impl"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "dyn"
    )
}

fn parse_matches(tokens: &[Token]) -> Vec<MatchSym> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident && t.text == "match" {
            if let Some(sym) = parse_one_match(tokens, i) {
                out.push(sym);
            }
        }
    }
    out
}

/// Parses the `match` whose keyword is at token `i`. Arms are split
/// structurally (depth-aware `=>` / `,` scanning), so enum paths in arm
/// *bodies* never count as scrutinized patterns.
fn parse_one_match(tokens: &[Token], i: usize) -> Option<MatchSym> {
    // Scrutinee runs to the first `{` at bracket depth 0 (Rust forbids
    // bare struct literals there, so this brace is the match body).
    let mut j = i + 1;
    let (mut par, mut brk) = (0i32, 0i32);
    loop {
        let t = tokens.get(j)?;
        match t.text.as_str() {
            "(" => par += 1,
            ")" => par -= 1,
            "[" => brk += 1,
            "]" => brk -= 1,
            "{" if par == 0 && brk == 0 => break,
            ";" if par == 0 => return None, // not a match expression after all
            _ => {}
        }
        j += 1;
    }
    let mut sym = MatchSym {
        line: tokens[i].line,
        pattern_enums: BTreeSet::new(),
        wildcard_line: None,
    };
    // Arm scanning inside the body.
    let (mut par, mut brk, mut rel) = (0i32, 0i32, 0i32);
    let mut in_pattern = true;
    let mut pat: Vec<usize> = Vec::new();
    j += 1;
    while j < tokens.len() {
        let text = tokens[j].text.as_str();
        let top = par == 0 && brk == 0 && rel == 0;
        if top && text == "}" {
            break; // end of match body
        }
        if in_pattern
            && top
            && text == "="
            && tokens.get(j + 1).map(|t| t.text.as_str()) == Some(">")
        {
            analyze_pattern(tokens, &pat, &mut sym);
            pat.clear();
            in_pattern = false;
            j += 2;
            continue;
        }
        if !in_pattern && top && text == "," {
            in_pattern = true;
            j += 1;
            continue;
        }
        match text {
            "(" => par += 1,
            ")" => par -= 1,
            "[" => brk += 1,
            "]" => brk -= 1,
            "{" => rel += 1,
            "}" => {
                rel -= 1;
                // A `{ … }` arm body just closed: the next tokens start
                // a new pattern (the separating comma is optional).
                if !in_pattern && par == 0 && brk == 0 && rel == 0 {
                    in_pattern = true;
                    j += 1;
                    continue;
                }
            }
            _ => {}
        }
        if in_pattern {
            if top && text == "," {
                pat.clear(); // stray separator (e.g. after a block arm)
            } else {
                pat.push(j);
            }
        }
        j += 1;
    }
    Some(sym)
}

fn analyze_pattern(tokens: &[Token], pat: &[usize], sym: &mut MatchSym) {
    // Cut a trailing `if` guard; strip leading or-pattern pipes.
    let guard = pat
        .iter()
        .position(|&k| tokens[k].is_ident && tokens[k].text == "if");
    let mut p = &pat[..guard.unwrap_or(pat.len())];
    while p.first().map(|&k| tokens[k].text.as_str()) == Some("|") {
        p = &p[1..];
    }
    if p.len() == 1 {
        let t = &tokens[p[0]];
        let binding = t.is_ident
            && !is_keyword(&t.text)
            && t.text != "true"
            && t.text != "false"
            && t.text.starts_with(|c: char| c.is_ascii_lowercase());
        if (t.text == "_" || binding) && sym.wildcard_line.is_none() {
            sym.wildcard_line = Some(t.line);
        }
    }
    for (a, &k) in p.iter().enumerate() {
        let t = &tokens[k];
        if t.is_ident
            && p.get(a + 1).map(|&x| tokens[x].text.as_str()) == Some(":")
            && p.get(a + 2).map(|&x| tokens[x].text.as_str()) == Some(":")
        {
            sym.pattern_enums.insert(t.text.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scrub, tokenize};

    fn sym(src: &str) -> FileSymbols {
        parse_file("crates/mem/src/x.rs", &tokenize(&scrub(src).masked))
    }

    #[test]
    fn crate_keys() {
        assert_eq!(
            crate_key_of("crates/mem/src/pool.rs").as_deref(),
            Some("mem")
        );
        assert_eq!(crate_key_of("tests/check.rs").as_deref(), Some("repro"));
        assert_eq!(crate_key_of("README.md"), None);
    }

    #[test]
    fn fns_and_calls_extracted() {
        let s = sym("fn a() { b(); c.d(1); }\nimpl X { fn e(&self) -> u32 { f() } }\n");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "e"]);
        let calls: Vec<&str> = s.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(calls, ["b", "d"]);
        assert_eq!(s.fns[1].calls[0].callee, "f");
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let s = sym("fn a() { assert!(x); write!(w, \"y\"); real(); }");
        let calls: Vec<&str> = s.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(calls, ["real"]);
    }

    #[test]
    fn match_wildcard_and_enums() {
        let s = sym(
            "fn a(k: FaultKind) -> u32 {\n match k {\n  FaultKind::EmptySlot { index } => 1,\n  _ => 0,\n }\n}",
        );
        assert_eq!(s.matches.len(), 1);
        let m = &s.matches[0];
        assert!(m.pattern_enums.contains("FaultKind"));
        assert_eq!(m.wildcard_line, Some(4));
    }

    #[test]
    fn exhaustive_match_has_no_wildcard() {
        let s = sym(
            "fn a(e: MemError) {\n match e {\n  MemError::OutOfMemory => {}\n  MemError::Pinned | MemError::NotPinned => {}\n  MemError::NoSuchPage => {}\n  MemError::NotOwner { page, claimed, actual } => {}\n }\n}",
        );
        let m = &s.matches[0];
        assert!(m.pattern_enums.contains("MemError"));
        assert_eq!(m.wildcard_line, None);
    }

    #[test]
    fn enum_in_arm_body_is_not_a_pattern() {
        // `FaultKind::…` on the value side must not mark the match as
        // scrutinizing FaultKind.
        let s = sym("fn a(x: u32) -> FaultKind {\n match x {\n  0 => FaultKind::EmptySlot { index: 0 },\n  n => FaultKind::ShadowViolation { code: n },\n }\n}");
        let m = &s.matches[0];
        assert!(m.pattern_enums.is_empty(), "{:?}", m.pattern_enums);
        assert_eq!(m.wildcard_line, Some(4), "binding arm is a wildcard");
    }

    #[test]
    fn call_positions_are_body_token_indices() {
        let s = sym("fn a() { b(); c(); }");
        let calls = &s.fns[0].calls;
        assert!(calls[0].pos < calls[1].pos);
        assert_eq!(s.fns[0].body[calls[1].pos].text, "c");
    }

    #[test]
    fn guard_and_bool_matches() {
        let s = sym("fn a(b: bool) {\n match b {\n  true => {}\n  false => {}\n }\n}");
        assert_eq!(
            s.matches[0].wildcard_line, None,
            "bool literals are not bindings"
        );
        let s =
            sym("fn a(k: K) {\n match k {\n  K::A => {}\n  _ if noisy() => {}\n  _ => {}\n }\n}");
        assert_eq!(
            s.matches[0].wildcard_line,
            Some(4),
            "guarded wildcard counts"
        );
    }
}
