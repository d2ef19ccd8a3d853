//! The workspace symbol graph and the interprocedural pass framework.
//!
//! [`SymbolGraph`] aggregates every file's [`FileSymbols`] plus the
//! crate-level dependency edges read from manifests. Function calls are
//! resolved *by name within the workspace*: `mem.pin_run(…)` resolves
//! to every workspace `fn pin_run` — imprecise in general, exactly
//! right for this codebase where the protection primitives have unique
//! names. Passes ([`Pass`]) run over the whole graph and return
//! ordinary [`Diagnostic`]s, so their findings flow through one
//! allow/report machinery.

use crate::parse::{FileSymbols, FnSym};
use crate::rules::{Diagnostic, FileKind};
use std::collections::{BTreeMap, BTreeSet};

/// One scanned file: its symbols plus the classification and test-line
/// set the passes need for exemptions.
#[derive(Debug, Clone)]
pub struct GraphFile {
    /// Parsed symbol summary (path, fns, matches).
    pub symbols: FileSymbols,
    /// How the file is classified (library / test / binary).
    pub kind: FileKind,
    /// Lines occupied by `#[cfg(test)]` / `#[test]` items.
    pub test_lines: BTreeSet<u32>,
    /// String-literal contents by line (see [`crate::lexer::Scrubbed`]);
    /// lets passes resolve the JSON key a `w.key("…")` call names.
    pub strings: Vec<(u32, String)>,
}

impl GraphFile {
    /// First string literal opening on `line`, if any — the resolution
    /// rule for single-argument calls like `w.key("wall_ms")` in this
    /// one-statement-per-line codebase.
    pub fn string_on_line(&self, line: u32) -> Option<&str> {
        self.strings
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, s)| s.as_str())
    }
}

/// A crate-level dependency edge harvested from a `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct ManifestDep {
    /// Depending crate's key (e.g. `system`).
    pub from: String,
    /// Depended-on crate's key (e.g. `sim`).
    pub to: String,
    /// Repo-relative manifest path.
    pub file: String,
    /// 1-based line of the dependency entry.
    pub line: u32,
}

/// The whole-workspace symbol graph.
#[derive(Debug, Clone, Default)]
pub struct SymbolGraph {
    /// Every scanned source file.
    pub files: Vec<GraphFile>,
    /// Crate dependency edges from manifests.
    pub manifest_deps: Vec<ManifestDep>,
    /// fn name → (file index, fn index) for name resolution.
    fn_index: BTreeMap<String, Vec<(usize, usize)>>,
}

impl SymbolGraph {
    /// Builds the graph and the name-resolution index.
    pub fn build(files: Vec<GraphFile>, manifest_deps: Vec<ManifestDep>) -> Self {
        let mut fn_index: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, g) in f.symbols.fns.iter().enumerate() {
                fn_index.entry(g.name.clone()).or_default().push((fi, gi));
            }
        }
        SymbolGraph {
            files,
            manifest_deps,
            fn_index,
        }
    }

    /// Workspace functions with the given name (name resolution).
    pub fn fns_named(&self, name: &str) -> impl Iterator<Item = (&GraphFile, &FnSym)> {
        self.fn_index
            .get(name)
            .into_iter()
            .flatten()
            .map(|&(fi, gi)| (&self.files[fi], &self.files[fi].symbols.fns[gi]))
    }

    /// Whether a workspace `fn` with this name is defined in one of the
    /// given crates. Used to keep name resolution honest: a call token
    /// only counts as hitting a protection primitive if that primitive
    /// actually exists where the rule says it lives.
    pub fn defines_fn_in(&self, name: &str, crates: &[&str]) -> bool {
        self.fns_named(name).any(|(f, _)| {
            f.symbols
                .crate_key
                .as_deref()
                .map(|k| crates.contains(&k))
                .unwrap_or(false)
        })
    }
}

/// One interprocedural analysis over the symbol graph.
pub trait Pass {
    /// The stable rule name diagnostics are reported under.
    fn rule(&self) -> &'static str;
    /// Runs the pass and returns its findings (unsuppressed; the caller
    /// applies per-file allows).
    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic>;
}

/// Runs every registered pass over the graph.
pub fn run_passes(graph: &SymbolGraph, passes: &[&dyn Pass]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in passes {
        out.extend(p.run(graph));
    }
    out
}
