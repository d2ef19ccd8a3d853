//! Def-use and call-summary layer over the symbol graph.
//!
//! The dataflow analyses ([`crate::taint`], [`crate::determinism`])
//! need more than per-file symbols: they reason about *paths* through
//! the workspace call graph. This module provides the shared substrate:
//!
//! * a filtered node set — library functions outside `#[cfg(test)]`
//!   items, which is the code the dataflow rules apply to;
//! * name-based call resolution restricted to that node set;
//! * a generic monotone fixpoint driver for interprocedural summaries
//!   (`vulnerable(f)` for taint, the clock summary for `clock-purity`);
//! * token-walk utilities (`let` bindings, call-argument regions) used
//!   to approximate def-use facts without a real CFG.
//!
//! Everything stays name-resolved and token-linear — the same
//! deliberate imprecision as the rest of cdna-check, which is exactly
//! right for this workspace where protection primitives have unique
//! names and bodies are written in a disciplined style.

use crate::graph::{GraphFile, SymbolGraph};
use crate::lexer::Token;
use crate::parse::FnSym;
use crate::rules::FileKind;
use std::collections::BTreeMap;

/// The dataflow view of the workspace: analyzed nodes plus resolution.
pub struct Dataflow<'g> {
    /// The underlying symbol graph.
    pub graph: &'g SymbolGraph,
    /// Analyzed nodes as `(file index, fn index)` into the graph:
    /// library files (plus binaries under
    /// [`Dataflow::build_with_binaries`]), `#[cfg(test)]` items
    /// excluded.
    pub nodes: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl<'g> Dataflow<'g> {
    /// Builds the node set and the name index (library files only).
    pub fn build(graph: &'g SymbolGraph) -> Self {
        Self::build_filtered(graph, false)
    }

    /// Like [`Dataflow::build`], but the node set also includes binary
    /// entry points (`main.rs`, `src/bin/*`). The determinism rules
    /// (CDNA015–016) police serialization sites that live in bench
    /// binaries, which the library-only rules deliberately skip.
    pub fn build_with_binaries(graph: &'g SymbolGraph) -> Self {
        Self::build_filtered(graph, true)
    }

    fn build_filtered(graph: &'g SymbolGraph, include_binaries: bool) -> Self {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, file) in graph.files.iter().enumerate() {
            let included = file.kind == FileKind::Library
                || (include_binaries && file.kind == FileKind::Binary);
            if !included {
                continue;
            }
            for (gi, f) in file.symbols.fns.iter().enumerate() {
                if file.test_lines.contains(&f.line) {
                    continue;
                }
                by_name.entry(f.name.clone()).or_default().push(nodes.len());
                nodes.push((fi, gi));
            }
        }
        Dataflow {
            graph,
            nodes,
            by_name,
        }
    }

    /// The file a node lives in.
    pub fn file(&self, n: usize) -> &GraphFile {
        &self.graph.files[self.nodes[n].0]
    }

    /// The function a node denotes.
    pub fn func(&self, n: usize) -> &FnSym {
        let (fi, gi) = self.nodes[n];
        &self.graph.files[fi].symbols.fns[gi]
    }

    /// The crate key a node lives in (`""` if outside the workspace).
    pub fn crate_key(&self, n: usize) -> &str {
        self.file(n).symbols.crate_key.as_deref().unwrap_or("")
    }

    /// Analyzed nodes a call with this name resolves to.
    pub fn targets(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether a designation `(name, home crates)` is armed: resolution
    /// stays honest by only counting names actually defined where the
    /// rule says the primitive lives.
    pub fn armed(&self, name: &str, crates: &[&str]) -> bool {
        self.graph.defines_fn_in(name, crates)
    }

    /// Monotone fixpoint over per-node summaries: starts from `init`,
    /// re-runs `step` (which may read every node's current summary)
    /// until nothing changes. `step` must be monotone for termination;
    /// a generous iteration cap backstops it either way.
    pub fn fixpoint<S, I, F>(&self, init: I, mut step: F) -> Vec<S>
    where
        S: PartialEq,
        I: Fn(usize) -> S,
        F: FnMut(&Dataflow<'g>, &[S], usize) -> S,
    {
        let mut state: Vec<S> = (0..self.nodes.len()).map(init).collect();
        for _ in 0..self.nodes.len() + 1 {
            let mut changed = false;
            for n in 0..self.nodes.len() {
                let next = step(self, &state, n);
                if next != state[n] {
                    state[n] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        state
    }
}

/// If the statement starting at `stmt` is a `let` binding, its bound
/// name (skipping `mut`).
pub fn let_binding(body: &[Token], stmt: usize) -> Option<String> {
    if body.get(stmt)?.text != "let" {
        return None;
    }
    let mut i = stmt + 1;
    if body.get(i)?.text == "mut" {
        i += 1;
    }
    body.get(i).filter(|t| t.is_ident).map(|t| t.text.clone())
}

/// The token range strictly inside the parentheses of the call whose
/// callee token is at `call_pos` (usually `call_pos + 1` is the `(`; a
/// turbofish like `sum::<f64>(…)` is tolerated by skipping to the
/// opening paren).
pub fn arg_region(body: &[Token], call_pos: usize) -> (usize, usize) {
    let mut open = call_pos + 1;
    while open < body.len() && body[open].text != "(" {
        if body[open].text == ";" {
            return (open, open); // statement ends with no call parens
        }
        open += 1;
    }
    let mut par = 0i32;
    let mut i = open;
    while i < body.len() {
        match body[i].text.as_str() {
            "(" => par += 1,
            ")" => {
                par -= 1;
                if par == 0 {
                    return (open + 1, i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    (open + 1, body.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scrub, tokenize};

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&scrub(src).masked)
    }

    #[test]
    fn let_bindings_and_temporaries() {
        let b = toks("let mut guard = lock(&m); use_it(); drop(guard);");
        assert_eq!(let_binding(&b, 0).as_deref(), Some("guard"));
        // A temporary is no binding.
        let b2 = toks("lock(&m).push(1); after();");
        assert_eq!(let_binding(&b2, 0), None);
    }

    #[test]
    fn arg_regions_span_the_call_parens() {
        let b = toks(
            "let q = PermutationQueue::with_window(a, 3); sim.with_event_queue(w, Box::new(q));",
        );
        let cp = b.iter().position(|t| t.text == "with_event_queue").unwrap();
        let (s, e) = arg_region(&b, cp);
        let idents: Vec<&str> = b[s..e]
            .iter()
            .filter(|t| t.is_ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["w", "Box", "new", "q"]);
    }
}
