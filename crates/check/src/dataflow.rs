//! Def-use and call-summary layer over the symbol graph.
//!
//! The `guest-taint` analysis ([`crate::taint`]) needs more than
//! per-file symbols: it reasons about *paths* through the workspace
//! call graph. This module provides the substrate:
//!
//! * a filtered node set — library functions outside `#[cfg(test)]`
//!   items, which is the code the dataflow rule applies to;
//! * name-based call resolution restricted to that node set;
//! * a generic monotone fixpoint driver for interprocedural summaries
//!   (`vulnerable(f)` for taint).
//!
//! Everything stays name-resolved and token-linear — the same
//! deliberate imprecision as the rest of cdna-check, which is exactly
//! right for this workspace where protection primitives have unique
//! names and bodies are written in a disciplined style.

use crate::graph::{GraphFile, SymbolGraph};
use crate::parse::FnSym;
use std::collections::BTreeMap;

/// The dataflow view of the workspace: analyzed nodes plus resolution.
pub struct Dataflow<'g> {
    /// The underlying symbol graph.
    pub graph: &'g SymbolGraph,
    /// Analyzed nodes as `(file index, fn index)` into the graph,
    /// `#[cfg(test)]` items excluded.
    pub nodes: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl<'g> Dataflow<'g> {
    /// Builds the node set and the name index.
    pub fn build(graph: &'g SymbolGraph) -> Self {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, file) in graph.files.iter().enumerate() {
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
