//! CDNA011 `guest-taint`: interprocedural guest-taint dataflow.
//!
//! CDNA's protection story is a *validate-before-use* discipline: every
//! guest-controlled value (descriptor fields, mailbox producer indices,
//! hypercall arguments) must pass a validation primitive before it
//! reaches a privileged sink — a page pin/unpin, a DMA issue, or a
//! descriptor-ring store. This pass proves the discipline statically
//! for all paths, complementing the runtime [`crate::shadow`] mirror
//! and the planned fuzzing campaign (ROADMAP item 5), which only cover
//! executed paths.
//!
//! The model is deliberately simple and token-linear, mirroring the
//! codebase's own style rules (validation is always sequenced before
//! the operation it guards, in the same function or a caller):
//!
//! * **Sources** — *roots* (functions whose parameters are
//!   guest-controlled: the xen hypercall surface, the ricenic mailbox
//!   and wire entry points, the core protection enqueue paths) and
//!   *imports* (calls that return guest-written data: descriptor-ring
//!   and mailbox loads).
//! * **Sinks** — pin/unpin primitives in `cdna-mem`, `PciBus::dma`
//!   issue in `cdna-net`, descriptor-ring stores in `cdna-nic`.
//! * **Sanitizers** — the validation primitives in `cdna-mem` /
//!   `cdna-core` plus ricenic's MAC-to-context demux.
//!
//! A function is **vulnerable** if some call in its body reaches a sink
//! (directly, or transitively through a vulnerable callee) with no
//! sanitizer call sequenced before it. The transitive part is a
//! monotone fixpoint over [`Dataflow`] summaries. A diagnostic fires at
//! every root that is vulnerable and at every unsanitized
//! import-to-sink flow; all designations are armed only when the named
//! primitive is really defined in its home crate, and the bodies of the
//! primitives themselves are exempt.

use crate::dataflow::Dataflow;
use crate::graph::{Pass, SymbolGraph};
use crate::rules::Diagnostic;

/// Root sources: `(fn name, home crates)` whose parameters are
/// guest-controlled.
const ROOTS: &[(&str, &[&str])] = &[
    ("mailbox_write", &["ricenic"]),
    ("mailbox_write_into", &["ricenic"]),
    ("frame_from_wire", &["ricenic"]),
    ("frame_from_wire_into", &["ricenic"]),
    ("enqueue_tx", &["core"]),
    ("enqueue_rx", &["core"]),
    ("queue_tx", &["xen"]),
    ("queue_tx_extern", &["xen"]),
    ("flush_tx_validated", &["xen"]),
    ("flush_tx_direct", &["xen"]),
    ("flush_tx_iommu", &["xen"]),
    ("post_rx_validated", &["xen"]),
    ("post_rx_direct", &["xen"]),
    ("post_rx_iommu", &["xen"]),
];

/// Import sources: calls that load guest-written memory.
const IMPORTS: &[(&str, &[&str])] = &[("read_at", &["nic"]), ("read", &["nic"])];

/// Privileged sinks.
const SINKS: &[(&str, &[&str])] = &[
    ("pin", &["mem"]),
    ("pin_slice", &["mem"]),
    ("pin_run", &["mem"]),
    ("unpin", &["mem"]),
    ("unpin_slice", &["mem"]),
    ("unpin_run", &["mem"]),
    ("dma", &["net"]),
    ("write_at", &["nic"]),
];

/// Sanitizers: a call to any of these before a sink discharges taint.
const SANITIZERS: &[(&str, &[&str])] = &[
    ("validate_slice", &["mem"]),
    ("validate_run", &["mem"]),
    ("validate", &["core"]),
    ("precheck", &["core"]),
    ("check", &["core"]),
    ("is_valid", &["core"]),
    ("map_slice", &["core"]),
    ("ctx_by_mac", &["ricenic"]),
];

fn armed(df: &Dataflow, table: &[(&str, &[&str])], name: &str) -> bool {
    table
        .iter()
        .any(|(n, homes)| *n == name && df.armed(n, homes))
}

/// Whether node `n` *is* one of the designated primitives (its body is
/// the implementation under audit, not a use site).
fn is_primitive(df: &Dataflow, n: usize) -> bool {
    let name = df.func(n).name.as_str();
    let key = df.crate_key(n);
    SINKS
        .iter()
        .chain(SANITIZERS)
        .chain(IMPORTS)
        .any(|(s, homes)| *s == name && homes.contains(&key))
}

fn is_root(df: &Dataflow, n: usize) -> bool {
    let name = df.func(n).name.as_str();
    let key = df.crate_key(n);
    ROOTS
        .iter()
        .any(|(r, homes)| *r == name && homes.contains(&key))
}

/// First offending call in node `n` at or after body token position
/// `from`: a call that reaches a sink (directly or via a vulnerable
/// callee) with no sanitizer sequenced before it. Returns the index
/// into the node's call list.
fn first_offense(df: &Dataflow, vuln: &[Option<usize>], n: usize, from: usize) -> Option<usize> {
    let f = df.func(n);
    for (ci, c) in f.calls.iter().enumerate() {
        if c.pos < from {
            continue;
        }
        let sinks_here = armed(df, SINKS, &c.callee)
            || df
                .targets(&c.callee)
                .iter()
                .any(|&t| t != n && vuln[t].is_some());
        if !sinks_here {
            continue;
        }
        let sanitized = f
            .calls
            .iter()
            .any(|s| s.pos < c.pos && armed(df, SANITIZERS, &s.callee));
        if !sanitized {
            return Some(ci);
        }
    }
    None
}

/// Renders the call chain from node `n`'s offending call down to the
/// sink, e.g. `pump_tx → dma`.
fn chain(df: &Dataflow, vuln: &[Option<usize>], n: usize, ci: usize) -> String {
    let mut parts = Vec::new();
    let (mut n, mut ci) = (n, ci);
    for _ in 0..6 {
        let c = &df.func(n).calls[ci];
        parts.push(c.callee.clone());
        if armed(df, SINKS, &c.callee) {
            break;
        }
        let step = df
            .targets(&c.callee)
            .iter()
            .find_map(|&t| (t != n).then_some(vuln[t].map(|v| (t, v))).flatten());
        let Some((next, off)) = step else {
            break;
        };
        (n, ci) = (next, off);
    }
    parts.join(" → ")
}

/// The CDNA011 pass. See the module docs for the model.
pub struct GuestTaintPass;

impl Pass for GuestTaintPass {
    fn rule(&self) -> &'static str {
        "guest-taint"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let df = Dataflow::build(graph);
        // Interprocedural summary: vuln[n] = Some(call index of the
        // first unsanitized sink-reaching call) — "calling n with
        // tainted arguments can reach a sink unvalidated".
        let vuln = df.fixpoint(
            |_| None,
            |df, state, n| {
                if is_primitive(df, n) {
                    return None;
                }
                first_offense(df, state, n, 0)
            },
        );
        let mut out = Vec::new();
        for n in 0..df.nodes.len() {
            if is_primitive(&df, n) {
                continue;
            }
            let f = df.func(n);
            // Roots: parameters are tainted from the first token.
            let offense = if is_root(&df, n) {
                vuln[n].map(|ci| (ci, "guest-controlled arguments"))
            } else {
                // Imports: taint starts at the first guest-memory load.
                f.calls
                    .iter()
                    .find(|c| armed(&df, IMPORTS, &c.callee))
                    .and_then(|imp| first_offense(&df, &vuln, n, imp.pos + 1))
                    .map(|ci| (ci, "guest-written ring/mailbox data"))
            };
            if let Some((ci, what)) = offense {
                let c = &f.calls[ci];
                out.push(Diagnostic {
                    rule: self.rule(),
                    file: df.file(n).symbols.rel.clone(),
                    line: c.line,
                    message: format!(
                        "`{}` lets {} reach a privileged sink (path: {}) with no \
                         sanitizer call before it; validate first (validate_run / \
                         precheck / check / …) or annotate the ablation",
                        f.name,
                        what,
                        chain(&df, &vuln, n, ci)
                    ),
                });
            }
        }
        out
    }
}
