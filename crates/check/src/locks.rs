//! CDNA012 `lock-order`: lock-ordering hazards that came with the
//! workspace's `Rc/RefCell → Arc<Mutex>` migration.
//!
//! **`lock-order`** builds a lock-acquisition graph over the workspace.
//! An acquisition site is either a `.lock()` method call or a call to
//! the workspace's poison-tolerant `lock(…)` helpers
//! (`cdna_sim::par::lock`, `cdna_model`'s queue helper); the lock's
//! identity is the receiver/argument's final field or variable name —
//! name-based, like all cdna-check resolution, and exactly right here
//! because every mutex in the workspace has a unique field name. Guard
//! lifetime is approximated from token structure: a `let`-bound guard
//! lives to the end of its enclosing block (or an explicit `drop`), a
//! temporary to the end of its statement. While a guard is held:
//!
//! * another acquisition adds an *order edge* `held → acquired`;
//! * a call into a function whose transitive acquisition set (a
//!   [`Dataflow`] fixpoint) is non-empty is flagged immediately — the
//!   callee locks behind the caller's back, the pattern that turns
//!   into a deadlock the moment lock identities collide;
//! * any cycle in the accumulated order graph is flagged at each
//!   participating edge.
//!
//! The other side of that migration, the `Send` seam where a custom
//! event queue is boxed into the engine, needs no pass here:
//! `Simulation::with_event_queue` takes `Box<dyn EventQueue<E> + Send>`
//! and the workspace forbids `unsafe`, so rustc rejects any queue that
//! holds an `Rc`, a raw pointer or another non-`Send` field (the
//! `compile_fail` doctest on `with_event_queue` pins this).

use crate::dataflow::Dataflow;
use crate::dataflow::{
    arg_region, enclosing_block_end, let_binding, statement_start, temporary_end,
};
use crate::graph::{Pass, SymbolGraph};
use crate::parse::FnSym;
use crate::rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// One lock-acquisition site inside a function body.
struct Acquisition {
    /// Lock identity (receiver / argument name).
    name: String,
    /// Call-list index of the acquiring call.
    call: usize,
    /// Body-token range the guard is held over.
    held: (usize, usize),
}

/// Extracts the lock identity of an acquisition call at `calls[ci]`.
fn lock_name(f: &FnSym, ci: usize) -> Option<String> {
    let pos = f.calls[ci].pos;
    let body = &f.body;
    if pos > 0 && body[pos - 1].text == "." {
        // Method form `expr.name.lock()`: the receiver's last ident.
        return body
            .get(pos.wrapping_sub(2))
            .filter(|t| t.is_ident)
            .map(|t| t.text.clone());
    }
    // Helper form `lock(&self.ctrl)` / `lock(&slots[i])`: last ident of
    // the first argument at bracket depth 0 (indices don't identify).
    let (s, e) = arg_region(body, pos);
    let mut depth = 0i32;
    let mut name = None;
    for t in &body[s..e] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth == 0 => break,
            _ => {
                if depth == 0 && t.is_ident && t.text != "self" && t.text != "mut" {
                    name = Some(t.text.clone());
                }
            }
        }
    }
    name
}

/// All acquisitions in a function, with held ranges.
fn acquisitions(df: &Dataflow, n: usize) -> Vec<Acquisition> {
    let f = df.func(n);
    let mut out = Vec::new();
    for (ci, c) in f.calls.iter().enumerate() {
        if !is_acquire(df, f, ci) {
            continue;
        }
        let Some(name) = lock_name(f, ci) else {
            continue;
        };
        let pos = c.pos;
        let stmt = statement_start(&f.body, pos);
        // A `let` statement binds the *guard* only when the lock call is
        // the whole right-hand side (`let g = lock(&m);`); in
        // `let v = lock(&m).pop_front();` the guard is a temporary and
        // only the popped value survives the statement.
        let (_, close) = arg_region(&f.body, pos);
        let whole_rhs = f.body.get(close + 1).map(|t| t.text.as_str()) == Some(";");
        let held_to = if let Some(g) = let_binding(&f.body, stmt).filter(|_| whole_rhs) {
            // `let guard = lock(..)`: to the block end or `drop(guard)`.
            let block = enclosing_block_end(&f.body, pos);
            f.calls
                .iter()
                .find(|d| {
                    d.callee == "drop"
                        && d.pos > pos
                        && d.pos < block
                        && f.body.get(d.pos + 2).map(|t| t.text.as_str()) == Some(g.as_str())
                })
                .map(|d| d.pos)
                .unwrap_or(block)
        } else {
            temporary_end(&f.body, pos)
        };
        out.push(Acquisition {
            name,
            call: ci,
            held: (pos, held_to),
        });
    }
    out
}

/// Whether `calls[ci]` acquires a lock: a `.lock()` method call, or a
/// call to a workspace `lock` helper (armed only if one exists).
fn is_acquire(df: &Dataflow, f: &FnSym, ci: usize) -> bool {
    let c = &f.calls[ci];
    if c.callee != "lock" {
        return false;
    }
    let method = c.pos > 0 && f.body[c.pos - 1].text == ".";
    method || !df.targets("lock").is_empty()
}

/// The CDNA012 pass. See the module docs for the model.
pub struct LockOrderPass;

impl Pass for LockOrderPass {
    fn rule(&self) -> &'static str {
        "lock-order"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let df = Dataflow::build(graph);
        // Transitive acquisition summaries. The `lock` helpers
        // themselves are excluded: a call *to* them is an acquisition
        // at the call site, never a call-that-locks.
        let acquires: Vec<BTreeSet<String>> = df.fixpoint(
            |_| BTreeSet::new(),
            |df, state, n| {
                if df.func(n).name == "lock" {
                    return BTreeSet::new();
                }
                let mut set = BTreeSet::new();
                for a in acquisitions(df, n) {
                    set.insert(a.name);
                }
                for c in &df.func(n).calls {
                    if c.callee == "lock" {
                        continue;
                    }
                    for &t in df.targets(&c.callee) {
                        if t != n {
                            set.extend(state[t].iter().cloned());
                        }
                    }
                }
                set
            },
        );
        let mut out = Vec::new();
        // Order edges: (held, acquired) → first site seen.
        let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for n in 0..df.nodes.len() {
            let f = df.func(n);
            if f.name == "lock" {
                continue;
            }
            let rel = &df.file(n).symbols.rel;
            let acqs = acquisitions(&df, n);
            for a in &acqs {
                for (ci, c) in f.calls.iter().enumerate() {
                    if c.pos <= a.held.0 || c.pos >= a.held.1 || c.callee == "drop" {
                        continue;
                    }
                    if let Some(inner) = acqs.iter().find(|b| b.call == ci) {
                        // Nested acquisition: an order edge.
                        edges
                            .entry((a.name.clone(), inner.name.clone()))
                            .or_insert_with(|| (rel.clone(), c.line));
                        continue;
                    }
                    // A call whose summary says it locks.
                    let hidden: BTreeSet<&String> = df
                        .targets(&c.callee)
                        .iter()
                        .filter(|&&t| t != n)
                        .flat_map(|&t| acquires[t].iter())
                        .collect();
                    if hidden.is_empty() {
                        continue;
                    }
                    for h in &hidden {
                        edges
                            .entry((a.name.clone(), (*h).clone()))
                            .or_insert_with(|| (rel.clone(), c.line));
                    }
                    let locked: Vec<String> = hidden.iter().map(|s| s.to_string()).collect();
                    out.push(Diagnostic {
                        rule: self.rule(),
                        file: rel.clone(),
                        line: c.line,
                        message: format!(
                            "`{}` holds lock `{}` across the call to `{}`, which \
                             acquires `{}` behind the caller's back; release the \
                             guard first or annotate why the nesting is ordered",
                            f.name,
                            a.name,
                            c.callee,
                            locked.join("`, `")
                        ),
                    });
                }
            }
        }
        // Cycle detection: flag every edge that lies on a cycle.
        let adj: BTreeMap<&String, BTreeSet<&String>> =
            edges.keys().fold(BTreeMap::new(), |mut m, (a, b)| {
                m.entry(a).or_default().insert(b);
                m
            });
        for ((a, b), (file, line)) in &edges {
            if reaches(&adj, b, a) {
                out.push(Diagnostic {
                    rule: self.rule(),
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "lock-order cycle: `{a}` is held while acquiring `{b}`, \
                         but `{b}` can also be held while (transitively) \
                         acquiring `{a}`; pick one global order"
                    ),
                });
            }
        }
        out
    }
}

/// Whether `to` is reachable from `from` in the order graph.
fn reaches(adj: &BTreeMap<&String, BTreeSet<&String>>, from: &String, to: &String) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(x) = stack.pop() {
        if x == to {
            return true;
        }
        if seen.insert(x.clone()) {
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
    }
    false
}
