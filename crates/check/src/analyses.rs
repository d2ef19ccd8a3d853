//! The interprocedural analyses `layering` and `must-pair`, and the
//! whole-workspace pipeline that runs them together with the
//! `guest-taint` dataflow pass and the `unused-allow` audit.
//!
//! # Layering
//!
//! The workspace is a strict DAG. The enforced order is the *realized*
//! architecture (each crate may only depend on strictly lower layers):
//!
//! | layer | crates |
//! |-------|--------|
//! | 0 | `trace`, `mem` |
//! | 1 | `sim` |
//! | 2 | `net` |
//! | 3 | `nic` |
//! | 4 | `core` |
//! | 5 | `ricenic`, `xen`, `check` |
//! | 6 | `system` |
//! | 7 | `bench` |
//! | 8 | `model` |
//! | 9 | `repro` (the root package) |
//!
//! (`check` sits *below* `system`: the `DmaShadow` runtime mirror lives
//! in `check` and `system` attaches it to the world, so the checker's
//! shadow layer is a dependency of the testbed, not vice versa.)
//!
//! The edges are the `cdna-*` entries of every `*dependencies` table
//! in the workspace manifests, `[dev-dependencies]` and
//! `[target.'…'.dependencies]` included, and a dependency renamed
//! with `package = "cdna-…"` counts as the crate it names; a back-edge
//! (or same-layer edge) is a diagnostic at the offending manifest
//! line. Source imports need no scan of their own: rustc rejects a
//! `use cdna_*` of a crate the manifest does not declare, so every
//! import back-edge is already a manifest back-edge.
//!
//! # Must-pair
//!
//! Every library function that calls a pin primitive (`pin`,
//! `pin_run`, `pin_slice` — resolved by name to their definitions in
//! `crates/mem`) must reach a release (`unpin*`, `reap`) or transfer
//! custody to a pinned ledger (`push_back`) on every non-panic exit.
//! The check is a CFG-lite linear scan over the function's token
//! stream: the statement containing the pin call is atomic (its own
//! `?` is the no-pin failure path); after it, any `return` or `?`
//! before a release token leaks the pin, as does falling off the end
//! of the body. Panic exits (`expect`/`unwrap`/`panic!`) are exempt —
//! a panic tears down the whole simulated world.

use crate::graph::{GraphFile, ManifestDep, Pass, SymbolGraph};
use crate::lexer::{scrub, test_lines, tokenize, Allows};
use crate::parse::parse_file;
use crate::rules::{Diagnostic, FileKind};
use std::collections::BTreeMap;

/// Crate layer assignments (see module docs). Lower = more fundamental.
pub const LAYERS: &[(&str, u32)] = &[
    ("trace", 0),
    ("mem", 0),
    ("sim", 1),
    ("net", 2),
    ("nic", 3),
    ("core", 4),
    ("ricenic", 5),
    ("xen", 5),
    ("check", 5),
    ("system", 6),
    ("bench", 7),
    ("model", 8),
    ("rack", 8),
    ("fuzz", 9),
    ("repro", 9),
];

fn layer_of(key: &str) -> Option<u32> {
    LAYERS.iter().find(|(k, _)| *k == key).map(|&(_, l)| l)
}

/// Pin primitives and where they must be defined for a call to count.
const PIN_FNS: &[&str] = &["pin", "pin_run", "pin_slice"];
const PIN_HOME_CRATES: &[&str] = &["mem", "core"];
/// Tokens that discharge the obligation: direct release, batched reap,
/// or custody transfer into a pinned ledger that reap later drains.
const RELEASE_FNS: &[&str] = &["unpin", "unpin_run", "unpin_slice", "reap", "push_back"];

/// The `layering` pass: crate DAG direction.
#[derive(Debug, Default)]
pub struct LayeringPass;

impl Pass for LayeringPass {
    fn rule(&self) -> &'static str {
        "layering"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut push = |from: &str, to: &str, file: &str, line: u32| {
            let (Some(lf), Some(lt)) = (layer_of(from), layer_of(to)) else {
                return; // edge into/out of an unknown crate: not ours
            };
            if lf <= lt {
                out.push(Diagnostic {
                    rule: "layering",
                    file: file.to_string(),
                    line,
                    message: format!(
                        "`{from}` (layer {lf}) must not depend on `{to}` (layer {lt}); \
                         the crate DAG flows strictly downward"
                    ),
                });
            }
        };
        for dep in &graph.manifest_deps {
            push(&dep.from, &dep.to, &dep.file, dep.line);
        }
        out
    }
}

/// The `must-pair` pass: pins must be released on all non-panic paths.
#[derive(Debug, Default)]
pub struct MustPairPass;

impl Pass for MustPairPass {
    fn rule(&self) -> &'static str {
        "must-pair"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for f in &graph.files {
            for g in &f.symbols.fns {
                if PIN_FNS.contains(&g.name.as_str()) {
                    continue; // the primitives themselves
                }
                if let Some(d) = check_fn_pairing(graph, f, g) {
                    out.push(d);
                }
            }
        }
        out
    }
}

fn check_fn_pairing(
    graph: &SymbolGraph,
    file: &GraphFile,
    g: &crate::parse::FnSym,
) -> Option<Diagnostic> {
    let body = &g.body;
    // Locate the first pin-primitive call, tracking brace depth.
    let mut brace = 0i32;
    let mut pin_at = None;
    for (i, t) in body.iter().enumerate() {
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => brace -= 1,
            _ => {}
        }
        if t.is_ident
            && PIN_FNS.contains(&t.text.as_str())
            && body.get(i + 1).map(|n| n.text.as_str()) == Some("(")
            && (i == 0 || body[i - 1].text != "fn")
            && !file.test_lines.contains(&t.line)
            && graph.defines_fn_in(&t.text, PIN_HOME_CRATES)
        {
            pin_at = Some((i, t.line, brace));
            break;
        }
    }
    let (pin_idx, pin_line, pin_brace) = pin_at?;
    // The pin's own statement (to the `;` at paren depth 0, back at the
    // pin's brace depth) is atomic: a `?` inside it is the pin *failing*,
    // not a leak.
    let (mut par, mut brace) = (0i32, pin_brace);
    let mut i = pin_idx;
    while i < body.len() {
        match body[i].text.as_str() {
            "(" | "[" => par += 1,
            ")" | "]" => par -= 1,
            "{" => brace += 1,
            "}" => brace -= 1,
            ";" if par <= 0 && brace <= pin_brace => break,
            _ => {}
        }
        i += 1;
    }
    // After the statement: any exit before a release leaks the pin.
    for t in &body[(i + 1).min(body.len())..] {
        if t.is_ident && RELEASE_FNS.contains(&t.text.as_str()) {
            return None; // released / custody transferred
        }
        let exit = match t.text.as_str() {
            "return" => Some("`return`"),
            "?" => Some("`?`"),
            _ => None,
        };
        if let Some(exit) = exit {
            return Some(Diagnostic {
                rule: "must-pair",
                file: file.symbols.rel.clone(),
                line: t.line,
                message: format!(
                    "`{}` pins pages at line {pin_line} but {exit} exits before any \
                     unpin/reap/ledger hand-off",
                    g.name
                ),
            });
        }
    }
    Some(Diagnostic {
        rule: "must-pair",
        file: file.symbols.rel.clone(),
        line: g.end_line,
        message: format!(
            "`{}` pins pages at line {pin_line} but falls off the end of the function \
             without any unpin/reap/ledger hand-off",
            g.name
        ),
    })
}

/// One in-memory source file for [`analyze`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path (drives crate attribution and classification).
    pub rel: String,
    /// Rule-subset classification.
    pub kind: FileKind,
    /// Full source text.
    pub text: String,
}

/// Output of [`analyze`].
#[derive(Debug, Default)]
pub struct Analysis {
    /// Suppression-filtered diagnostics from every rule (graph and
    /// dataflow passes, manifests, and `unused-allow`), sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Total `cdna-check: allow` annotations found.
    pub allow_count: usize,
}

/// Parses `cdna-*` dependency entries out of a manifest for layering.
/// A dependency renamed with `package = "cdna-x"` — in an inline
/// table, a `[dependencies.<key>]` table or a dotted `<key>.package`
/// key — is an edge to `x`, whatever its key.
fn manifest_dep_edges(rel: &str, text: &str) -> Vec<ManifestDep> {
    let from = if rel == "Cargo.toml" {
        "repro".to_string()
    } else if let Some(k) = rel
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/Cargo.toml"))
    {
        k.to_string()
    } else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut edge = |name: &str, idx: usize| {
        if let Some(to) = name.strip_prefix("cdna-") {
            out.push(ManifestDep {
                from: from.clone(),
                to: to.replace('-', "_"),
                file: rel.to_string(),
                line: idx as u32 + 1,
            });
        }
    };
    let mut in_deps = false;
    // The open `[dependencies.<key>]` table: the crate it names and the
    // line naming it, both moved by a `package = …` line inside.
    let mut table: Option<(String, usize)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let l = raw.trim();
        if l.starts_with('[') {
            if let Some((name, at)) = table.take() {
                edge(&name, at);
            }
            let inner = l.trim_matches(|c| c == '[' || c == ']');
            let parts: Vec<&str> = inner.split('.').collect();
            let deps = |p: &str| p.ends_with("dependencies");
            // `[workspace.dependencies]` is the version table, not an
            // edge; real edges live in the package's own dep sections.
            let package = parts.first() != Some(&"workspace");
            in_deps = package && parts.last().is_some_and(|p| deps(p));
            // `[dependencies.cdna-x]` declares one dependency per table.
            if let [.., t, name] = parts[..] {
                if package && deps(t) {
                    table = Some((name.to_string(), idx));
                }
            }
            continue;
        }
        let (key, value) = l.split_once('=').unwrap_or((l, ""));
        let (key, value) = (key.trim(), value.trim());
        if let Some((name, at)) = &mut table {
            if key == "package" {
                *name = value.trim_matches('"').to_string();
                *at = idx;
            }
            continue;
        }
        if !in_deps {
            continue;
        }
        // `cdna-x = …`, a dotted key such as `cdna-x.workspace = true`,
        // or a rename: `k = { package = "cdna-x", … }`, `k.package = …`.
        let name = match key.split_once('.') {
            Some((_, "package")) => value.trim_matches('"'),
            Some((k, _)) => k,
            None => inline_package(value).unwrap_or(key),
        };
        edge(name, idx);
    }
    if let Some((name, at)) = table {
        edge(&name, at);
    }
    out
}

/// The `package = "…"` field of an inline dependency table, if any.
fn inline_package(value: &str) -> Option<&str> {
    let fields = value.strip_prefix('{')?.trim_end_matches('}');
    fields.split(',').find_map(|field| {
        let (k, v) = field.split_once('=')?;
        (k.trim() == "package").then(|| v.trim().trim_matches('"'))
    })
}

/// Everything one file contributes to the pipeline, produced by
/// [`scan_file`] on whichever worker picked the file up. Merging these
/// in path order (the caller's file order is sorted) makes the whole
/// analysis independent of the worker count — the index-ordered merge
/// every fan-out in the workspace makes through `cdna_sim::par`.
struct FileScan {
    rel: String,
    /// `None` for files no pass reads (tests, examples, binaries).
    graph_file: Option<GraphFile>,
    allows: Allows,
}

/// The per-file half of the pipeline: scrub and allow harvest, then —
/// for library files only — tokenize and symbol parse. Every other
/// file stays out of the symbol graph, so a test helper named like a
/// protection primitive cannot resolve a call to it.
/// Pure function of the file — safe to run on any worker.
fn scan_file(f: &SourceFile) -> FileScan {
    let scrubbed = scrub(&f.text);
    let graph_file = (f.kind == FileKind::Library).then(|| {
        let tokens = tokenize(&scrubbed.masked);
        GraphFile {
            symbols: parse_file(&f.rel, &tokens),
            test_lines: test_lines(&tokens),
        }
    });
    FileScan {
        rel: f.rel.clone(),
        graph_file,
        allows: scrubbed.allows,
    }
}

/// Runs the complete pipeline over in-memory sources: symbol-graph and
/// dataflow passes (manifests feed `layering`), allow suppression with
/// "used" accounting, and the `unused-allow` audit — on a single worker.
///
/// `manifests` are `(repo-relative path, text)` pairs.
pub fn analyze(files: &[SourceFile], manifests: &[(String, String)]) -> Analysis {
    analyze_jobs(files, manifests, 1)
}

/// [`analyze`], with the per-file work sharded over `jobs` workers of
/// the `cdna_sim::par` pool. Results are merged in `files` order
/// (index-ordered slots inside [`cdna_sim::par::run_indexed`]), so the
/// analysis — and the serialized report built from it — is
/// byte-identical at any worker count. The whole-workspace graph
/// passes stay on the caller's thread: they need every file at once
/// and are a small share of the wall time.
pub fn analyze_jobs(files: &[SourceFile], manifests: &[(String, String)], jobs: usize) -> Analysis {
    let mut graph_files: Vec<GraphFile> = Vec::new();
    let mut per_file_allows: BTreeMap<String, (Allows, Vec<bool>)> = BTreeMap::new();
    let mut allow_count = 0usize;

    let scans =
        cdna_sim::par::run_indexed(jobs, (0..files.len()).collect::<Vec<usize>>(), |_, i| {
            scan_file(&files[i])
        });
    for scan in scans {
        graph_files.extend(scan.graph_file);
        allow_count += scan.allows.count();
        let used = vec![false; scan.allows.count()];
        per_file_allows.insert(scan.rel, (scan.allows, used));
    }

    let manifest_deps = manifests
        .iter()
        .flat_map(|(rel, text)| manifest_dep_edges(rel, text))
        .collect();

    let graph = SymbolGraph::build(graph_files, manifest_deps);
    let passes: [&dyn Pass; 3] = [&LayeringPass, &MustPairPass, &crate::taint::GuestTaintPass];
    let raw = crate::graph::run_passes(&graph, &passes);

    // Apply allows, crediting the entry that fired.
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for d in raw {
        if let Some((allows, used)) = per_file_allows.get_mut(&d.file) {
            if let Some(idx) = allows.match_entry(d.rule, d.line) {
                used[idx] = true;
                continue;
            }
        }
        diagnostics.push(d);
    }

    // Unused allows are themselves diagnostics (warning severity).
    for (rel, (allows, used)) in &per_file_allows {
        for (entry, used) in allows.entries().iter().zip(used) {
            if !used {
                diagnostics.push(Diagnostic {
                    rule: "unused-allow",
                    file: rel.clone(),
                    line: entry.line,
                    message: format!(
                        "`allow{}({})` suppresses no diagnostic; remove the stale escape",
                        if entry.file_wide { "-file" } else { "" },
                        entry.rule
                    ),
                });
            }
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis {
        diagnostics,
        allow_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.into(),
            kind: FileKind::Library,
            text: text.into(),
        }
    }

    fn rules_of(a: &Analysis) -> Vec<(&'static str, u32)> {
        a.diagnostics.iter().map(|d| (d.rule, d.line)).collect()
    }

    fn manifest(rel: &str, text: &str) -> (String, String) {
        (rel.to_string(), text.to_string())
    }

    #[test]
    fn layering_reads_dev_target_and_table_dependencies() {
        // Test files import through `[dev-dependencies]`, so a back-edge
        // there must fire like a normal one; so must platform tables,
        // one-table-per-dependency entries and dotted keys.
        let text = "[package]\nname = \"cdna-sim\"\n\
                    [dev-dependencies]\ncdna-system.workspace = true\n\
                    [target.'cfg(unix)'.dependencies]\ncdna-bench = { path = \"../bench\" }\n\
                    [dependencies.cdna-rack]\nworkspace = true\n\
                    [build-dependencies]\ncdna-model.path = \"../model\"\n";
        let a = analyze(&[], &[manifest("crates/sim/Cargo.toml", text)]);
        assert_eq!(
            rules_of(&a),
            [
                ("layering", 4),
                ("layering", 6),
                ("layering", 7),
                ("layering", 10)
            ],
            "{:?}",
            a.diagnostics
        );
        // A source import on its own is not an edge: rustc rejects it
        // unless the manifest declares the crate, and that declaration
        // is what fires.
        let a = analyze(
            &[lib(
                "crates/sim/src/x.rs",
                "//! Doc.\nuse cdna_system::X;\n",
            )],
            &[],
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn layering_reads_renamed_dependencies() {
        // A dependency key need not be the crate's name: `package = …`
        // names it, in an inline table, a one-dependency table or a
        // dotted key, and rustc then resolves `use sys::…` to it.
        let text = "[package]\nname = \"cdna-mem\"\n[dependencies]\n\
                    sys = { path = \"../system\", package = \"cdna-system\" }\n\
                    [dependencies.net]\npath = \"../net\"\npackage = \"cdna-net\"\n\
                    [dev-dependencies]\nrack.package = \"cdna-rack\"\nrack.path = \"../rack\"\n";
        let a = analyze(&[], &[manifest("crates/mem/Cargo.toml", text)]);
        assert_eq!(
            rules_of(&a),
            [("layering", 4), ("layering", 7), ("layering", 9)],
            "{:?}",
            a.diagnostics
        );
        // Renamed forward edges are clean, and the key is not an edge.
        let text = "[dependencies]\ncdna-fuzz = { package = \"cdna-mem\" }\n\
                    [dependencies.cdna-model]\npackage = \"cdna-sim\"\n";
        let a = analyze(&[], &[manifest("crates/system/Cargo.toml", text)]);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn layering_manifest_edge_fires() {
        let a = analyze(
            &[],
            &[manifest(
                "crates/mem/Cargo.toml",
                "[package]\nname = \"cdna-mem\"\n[dependencies]\ncdna-system.workspace = true\n",
            )],
        );
        assert_eq!(rules_of(&a), [("layering", 4)], "{:?}", a.diagnostics);
    }

    #[test]
    fn forward_edges_are_clean() {
        let a = analyze(
            &[],
            &[
                manifest(
                    "crates/system/Cargo.toml",
                    "[dependencies]\ncdna-mem.workspace = true\ncdna-sim.workspace = true\n\
                     [dev-dependencies]\ncdna-trace.workspace = true\n",
                ),
                // The root's version table lists every crate, and is no edge.
                manifest(
                    "Cargo.toml",
                    "[workspace.dependencies]\ncdna-fuzz = { path = \"crates/fuzz\" }\n",
                ),
            ],
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    /// A tiny workspace where `pin_run` exists in `mem`, so calls to it
    /// resolve and the must-pair obligation attaches.
    fn pin_defs() -> SourceFile {
        lib(
            "crates/mem/src/pool.rs",
            "//! Doc.\n/// Doc.\npub fn pin_run(s: u32, l: u32) {}\n/// Doc.\npub fn unpin_run(s: u32, l: u32) {}\n",
        )
    }

    #[test]
    fn leaked_pin_on_early_return_fires() {
        let src = "//! Doc.\nfn leak(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    if bad {\n        return Err(E::Nope);\n    }\n    m.unpin_run(s, l);\n    Ok(())\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)], &[]);
        assert_eq!(rules_of(&a), [("must-pair", 5)], "{:?}", a.diagnostics);
    }

    #[test]
    fn paired_pin_is_clean_and_panic_exits_exempt() {
        let src = "//! Doc.\nfn ok(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    let r = table.get(k).expect(\"present\");\n    m.unpin_run(s, l);\n    Ok(())\n}\nfn ledger(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    pinned.push_back((s, l));\n    Ok(())\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)], &[]);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn fall_through_leak_fires_and_unresolved_pin_does_not() {
        // `pin_run` resolves (defined in mem) → leak at end of fn.
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)], &[]);
        assert_eq!(rules_of(&a), [("must-pair", 4)], "{:?}", a.diagnostics);
        // Without a workspace definition the name does not resolve and
        // no obligation attaches.
        let a = analyze(&[lib("crates/core/src/x.rs", src)], &[]);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn test_helpers_do_not_resolve_pin_calls() {
        // A `tests/` helper named like a pin primitive, in a pin home
        // crate, is no definition: the library call stays unresolved
        // and no must-pair obligation attaches. Its allows still count.
        let helper = SourceFile {
            rel: "crates/core/tests/helpers.rs".into(),
            kind: FileKind::AllowsOnly,
            text: "//! Doc.\nfn pin_run(s: u32, l: u32) {}\nfn f() {} // cdna-check: allow(must-pair): stale\n"
                .into(),
        };
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n}\n";
        let a = analyze(&[helper, lib("crates/core/src/x.rs", src)], &[]);
        assert_eq!(rules_of(&a), [("unused-allow", 3)], "{:?}", a.diagnostics);
        assert_eq!(a.allow_count, 1);
    }

    #[test]
    fn unused_allow_warns_and_used_allow_does_not() {
        // Lines 8–10 name retired rules: no pass fires for them any
        // more, so each escape is stale.
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n} // cdna-check: allow(must-pair): fine\nfn g() {\n    y(); // cdna-check: allow(must-pair): stale\n}\n// cdna-check: allow(exhaustive-fault): retired\n// cdna-check: allow(clock-purity): retired\n// cdna-check: allow(jobs-leak): retired\nfn h() {}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)], &[]);
        assert_eq!(
            rules_of(&a),
            [
                ("unused-allow", 6),
                ("unused-allow", 8),
                ("unused-allow", 9),
                ("unused-allow", 10)
            ],
            "{:?}",
            a.diagnostics
        );
        assert!(a.diagnostics[1].message.contains("exhaustive-fault"));
        assert!(a.diagnostics[2].message.contains("clock-purity"));
        assert!(a.diagnostics[3].message.contains("jobs-leak"));
        assert_eq!(a.allow_count, 5);
    }

    #[test]
    fn multi_rule_allow_credits_each_rule_separately() {
        // One annotation naming two rules is two entries: `must-pair`
        // suppresses the leaking fall-through below it, `guest-taint`
        // has nothing to suppress and is reported as unused.
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n// cdna-check: allow(must-pair, guest-taint): both\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)], &[]);
        assert_eq!(rules_of(&a), [("unused-allow", 4)], "{:?}", a.diagnostics);
        assert!(a.diagnostics[0].message.contains("guest-taint"));
        assert_eq!(a.allow_count, 2);
    }

    #[test]
    fn allow_suppresses_graph_rules_too() {
        // `must-pair` resolves `pin_run` across files through the
        // symbol graph; its finding is suppressed like a local one.
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n    // cdna-check: allow(must-pair): transitional\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)], &[]);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.allow_count, 1);
    }
}
