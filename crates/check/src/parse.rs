//! Item-level parsing on top of the token stream: extracts the per-file
//! symbol summary the interprocedural passes ([`crate::analyses`]) run
//! over.
//!
//! This is deliberately not a real Rust parser. The passes only need
//! `fn` items — name, line, body token range, and the call sites inside
//! the body (identifier immediately followed by `(`) — which the
//! scrubbed token stream yields by brace matching.

use crate::lexer::Token;

/// One named call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The identifier directly before the `(` (method or function name;
    /// resolution is by name within the workspace, not by type).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Index of the callee token within the function's body tokens, so
    /// the dataflow pass can order calls.
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
        // macro invocation (`name!(`).
        if body.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
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
    fn call_positions_are_body_token_indices() {
        let s = sym("fn a() { b(); c(); }");
        let calls = &s.fns[0].calls;
        assert!(calls[0].pos < calls[1].pos);
        assert_eq!(s.fns[0].body[calls[1].pos].text, "c");
    }
}
