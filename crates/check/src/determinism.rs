//! CDNA014–017: determinism-soundness proofs over the fan-out/merge
//! surface.
//!
//! Every artifact this repo compares across worker counts — BENCH.json,
//! RACK-BENCH.json, the model/fuzz digests — stakes its claim on
//! `--jobs 1 ≡ --jobs N` byte-identity. The differential tests probe a
//! handful of configurations; these passes prove the property over the
//! code instead, by policing the three ways it silently breaks:
//!
//! * **CDNA014 `merge-order`** — every fan-out call site
//!   ([`cdna_sim::par`]'s `run_indexed` / `run_indexed_init` /
//!   `run_rounds`, `cdna_bench`'s `run_parallel_jobs`, or a raw
//!   `std::thread::scope`) must merge worker results through an
//!   index-ordered slot (`lock(&slots[i])`) or follow the fan-out with
//!   a deterministically keyed sort. Arrival-order appends to locked
//!   shared state inside the worker region — directly or through a
//!   callee — and merge paths that iterate an unordered `Hash*`
//!   container are flagged.
//! * **CDNA015 `clock-purity`** — interprocedural taint from
//!   `Instant::now` / `SystemTime` / `.elapsed()` sources into any
//!   serialized sink (the `cdna_trace` `JsonWriter` emitters). The one
//!   sanctioned escape is the declared wall-clock carrier contract:
//!   JSON keys and struct fields named `wall_ms*`.
//! * **CDNA016 `jobs-leak`** — the worker count, worker index, and
//!   thread identity must not reach comparison-relevant serialization.
//!   Jobs values are tracked through the `jobs` naming discipline
//!   (`jobs`, `*_jobs`, `jobs_*`, `njobs` — the same declared-carrier
//!   contract as `wall_ms*`), through the designated jobs primitives
//!   (`resolve_jobs`, `take_jobs_flag`, …), and through fan-out worker
//!   closure parameters. The one sanctioned sink is the literal
//!   `"jobs"` key every suite artifact uses to *report* (not compare)
//!   its worker count.
//! * **CDNA017 `float-accum`** — `f64` addition does not reassociate,
//!   so an order-sensitive reduction (`sum` / `product` / `fold`) over
//!   arrival-order-merged or `Hash*`-ordered data is nondeterministic
//!   even when the multiset of inputs is identical. Reductions over
//!   index-ordered fan-out results are fine: their order is fixed.
//!
//! Like the rest of cdna-check, the analyses are name-resolved and
//! token-linear. Taint propagates through `let` bindings and
//! push-family mutations but deliberately *not* through field
//! projections or `for` bindings — the declared-carrier naming
//! contract (`wall_ms*`, `*jobs*`) covers exactly the cross-boundary
//! flows this codebase uses, and everything else would be false
//! positives on deterministic per-item data.

use crate::dataflow::{
    arg_region, enclosing_block_end, let_binding, local_types, statement_start, temporary_end,
    Dataflow,
};
use crate::graph::{GraphFile, Pass, SymbolGraph};
use crate::lexer::Token;
use crate::parse::{CallSite, FnSym};
use crate::rules::Diagnostic;
use std::collections::BTreeSet;

/// Fan-out primitives: `(callee, home crates)`. A call only counts as
/// a fan-out when the primitive is actually defined in its home crate
/// (same honesty rule as every other designation in cdna-check).
const FAN_OUT: &[(&str, &[&str])] = &[
    ("run_indexed", &["sim"]),
    ("run_indexed_init", &["sim"]),
    ("run_rounds", &["sim"]),
    ("run_parallel_jobs", &["bench"]),
];

/// Appends whose result order is the workers' arrival order when the
/// receiver is lock-shared state.
const PUSH_FNS: &[&str] = &["push", "insert", "extend", "append", "push_back"];

/// Sorts that re-key a merged collection deterministically.
const SORT_FNS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Serialization sinks: the `JsonWriter` value emitters, resolved to
/// their home crate. Everything the repo compares flows through these.
const SINK_FNS: &[&str] = &["string", "number_u64", "number_f64", "boolean"];
const SINK_HOME: &[&str] = &["trace"];

/// Iteration entry points whose order is the container's.
const ITER_FNS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];

/// Order-sensitive floating-point reductions.
const REDUCE_FNS: &[&str] = &["sum", "product", "fold"];

/// Whether this name *is* one of the fan-out primitives. The
/// primitives' own bodies are the merge machinery (queue, slots,
/// barrier) and are exempt, exactly like the `lock` helpers under
/// CDNA012.
fn is_fan_out_primitive(name: &str) -> bool {
    FAN_OUT.iter().any(|(n, _)| *n == name)
}

/// Whether call `c` in `f` is a fan-out site: an armed primitive or a
/// raw `thread::scope`.
fn is_fan_out_call(df: &Dataflow, f: &FnSym, c: &CallSite) -> bool {
    if FAN_OUT
        .iter()
        .any(|(n, homes)| *n == c.callee && df.armed(n, homes))
    {
        return true;
    }
    c.callee == "scope"
        && c.pos >= 3
        && f.body[c.pos - 1].text == ":"
        && f.body[c.pos - 2].text == ":"
        && f.body[c.pos - 3].text == "thread"
}

/// Whether call `ci` acquires a lock (same model as CDNA012): the
/// `.lock()` method, or a workspace `lock(&m)` helper if one exists.
fn is_acquire(df: &Dataflow, f: &FnSym, c: &CallSite) -> bool {
    if c.callee != "lock" {
        return false;
    }
    let method = c.pos > 0 && f.body[c.pos - 1].text == ".";
    method || !df.targets("lock").is_empty()
}

/// The locked target's display name and whether it is index-addressed
/// (`lock(&slots[i])` / `slots[i].lock()`) — the sanctioned
/// index-ordered merge shape.
fn lock_target(f: &FnSym, c: &CallSite) -> (String, bool) {
    let body = &f.body;
    let (lo, hi) = if c.pos > 0 && body[c.pos - 1].text == "." {
        // Method form: the receiver tokens back to the statement start.
        (statement_start(body, c.pos), c.pos - 1)
    } else {
        // Helper form: the argument tokens.
        arg_region(body, c.pos)
    };
    let toks = &body[lo..hi];
    let indexed = toks.iter().any(|t| t.text == "[");
    let name = toks
        .iter()
        .rev()
        .find(|t| t.is_ident && t.text != "self" && t.text != "mut" && t.text != "let")
        .map(|t| t.text.clone())
        .unwrap_or_else(|| "<shared>".to_string());
    (name, indexed)
}

/// How long the guard from acquisition `c` lives (same model as
/// CDNA012): a `let`-bound guard whose whole RHS is the acquisition
/// lives to its enclosing block end; anything else to statement end.
fn guard_extent(f: &FnSym, c: &CallSite) -> usize {
    let stmt = statement_start(&f.body, c.pos);
    let (_, close) = arg_region(&f.body, c.pos);
    let whole_rhs = f.body.get(close + 1).map(|t| t.text.as_str()) == Some(";");
    if whole_rhs && let_binding(&f.body, stmt).is_some() {
        enclosing_block_end(&f.body, c.pos)
    } else {
        temporary_end(&f.body, c.pos)
    }
}

/// One arrival-order append: a push-family call inside the guard extent
/// of a non-indexed lock acquisition.
struct SharedPush {
    /// Token position of the push-family callee.
    pos: usize,
    /// 1-based line of the push.
    line: u32,
    /// The locked target being appended to.
    target: String,
}

/// Every arrival-order append in `f`. Index-addressed slots are the
/// sanctioned merge shape and never count.
fn shared_pushes(df: &Dataflow, f: &FnSym) -> Vec<SharedPush> {
    let mut out = Vec::new();
    for c in &f.calls {
        if !is_acquire(df, f, c) {
            continue;
        }
        let (target, indexed) = lock_target(f, c);
        if indexed {
            continue;
        }
        let extent = guard_extent(f, c);
        for p in &f.calls {
            if p.pos > c.pos && p.pos < extent && PUSH_FNS.contains(&p.callee.as_str()) {
                out.push(SharedPush {
                    pos: p.pos,
                    line: p.line,
                    target: target.clone(),
                });
            }
        }
    }
    out
}

/// End of the statement starting at `from`: the `;` (or the `}` closing
/// the enclosing block for a tail expression) at bracket depth 0.
/// Unlike [`temporary_end`] this tracks brace depth too, so a `let`
/// whose RHS is a struct literal or block spans the whole statement.
fn stmt_end(body: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < body.len() {
        match body[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            ";" if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body.len()
}

/// Whether the token at `i` carries taint: an ident in the computed
/// set, an ident matching the declared-carrier `axiom`, or a position
/// the rule designates as a source (clock call, jobs primitive, …).
fn token_tainted(
    body: &[Token],
    i: usize,
    set: &BTreeSet<String>,
    axiom: &dyn Fn(&str) -> bool,
    source_at: &dyn Fn(&[Token], usize) -> bool,
) -> bool {
    let t = &body[i];
    if t.is_ident && (axiom(&t.text) || set.contains(&t.text)) {
        return true;
    }
    source_at(body, i)
}

/// Intra-function forward taint to a fixpoint: a `let` whose RHS
/// contains a tainted token taints its binding; pushing a tainted value
/// into a collection taints the collection. Deliberately does not
/// propagate through `for` bindings or field projections (see module
/// docs).
fn propagate_taint(
    f: &FnSym,
    axiom: &dyn Fn(&str) -> bool,
    source_at: &dyn Fn(&[Token], usize) -> bool,
) -> BTreeSet<String> {
    let body = &f.body;
    let mut set: BTreeSet<String> = BTreeSet::new();
    // Each round can only add bindings, and a binding chain is at most
    // as long as the body; a small cap covers every realistic function.
    for _ in 0..16 {
        let mut changed = false;
        for (i, t) in body.iter().enumerate() {
            if t.text != "let" {
                continue;
            }
            let Some(name) = let_binding(body, i) else {
                continue;
            };
            if set.contains(&name) {
                continue;
            }
            let end = stmt_end(body, i);
            if (i..end).any(|j| token_tainted(body, j, &set, axiom, source_at)) {
                set.insert(name);
                changed = true;
            }
        }
        for c in &f.calls {
            if !PUSH_FNS.contains(&c.callee.as_str()) {
                continue;
            }
            if c.pos == 0 || body[c.pos - 1].text != "." {
                continue;
            }
            let Some(recv) = body.get(c.pos.wrapping_sub(2)).filter(|t| t.is_ident) else {
                continue;
            };
            if set.contains(&recv.text) {
                continue;
            }
            let (s, e) = arg_region(body, c.pos);
            if (s..e).any(|j| token_tainted(body, j, &set, axiom, source_at)) {
                set.insert(recv.text.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    set
}

/// The JSON key governing sink call `c`: the string literal on the
/// nearest preceding `key(…)` call's line.
fn governing_key<'a>(file: &'a GraphFile, f: &FnSym, c: &CallSite) -> Option<&'a str> {
    f.calls
        .iter()
        .rfind(|k| k.callee == "key" && k.pos < c.pos)
        .and_then(|k| file.string_on_line(k.line))
}

/// Flags every armed serialization sink whose argument carries taint
/// and whose governing key is not sanctioned.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by two rules
fn sink_violations(
    df: &Dataflow,
    file: &GraphFile,
    f: &FnSym,
    rule: &'static str,
    set: &BTreeSet<String>,
    axiom: &dyn Fn(&str) -> bool,
    source_at: &dyn Fn(&[Token], usize) -> bool,
    sanctioned: &dyn Fn(&str) -> bool,
    what: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in &f.calls {
        if !SINK_FNS.contains(&c.callee.as_str()) || !df.armed(&c.callee, SINK_HOME) {
            continue;
        }
        let (s, e) = arg_region(&f.body, c.pos);
        let Some(bad) = (s..e)
            .find(|&j| token_tainted(&f.body, j, set, axiom, source_at))
            .map(|j| f.body[j].text.clone())
        else {
            continue;
        };
        let key = governing_key(file, f, c);
        if key.map(sanctioned).unwrap_or(false) {
            continue;
        }
        let under = key
            .map(|k| format!("under key `{k}`"))
            .unwrap_or_else(|| "under a computed key".to_string());
        out.push(Diagnostic {
            rule,
            file: file.symbols.rel.clone(),
            line: c.line,
            message: format!(
                "`{}` serializes {what} `{bad}` {under}; {}",
                f.name,
                match rule {
                    "clock-purity" => {
                        "wall-clock values may only reach fields named `wall_ms*`"
                    }
                    _ => "the worker count may only be reported under the literal `jobs` key",
                },
            ),
        });
    }
    out
}

/// The CDNA014 pass. See the module docs for the model.
pub struct MergeOrderPass;

impl Pass for MergeOrderPass {
    fn rule(&self) -> &'static str {
        "merge-order"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let df = Dataflow::build_with_binaries(graph);
        // Transitive summary: the locked target this function (or a
        // callee) appends to in arrival order, if any. The fan-out
        // primitives and the `lock` helpers are the machinery itself.
        let summary: Vec<Option<String>> = df.fixpoint(
            |_| None,
            |df, state, n| {
                if state[n].is_some() {
                    return state[n].clone();
                }
                let f = df.func(n);
                if is_fan_out_primitive(&f.name) || f.name == "lock" {
                    return None;
                }
                if let Some(p) = shared_pushes(df, f).into_iter().next() {
                    return Some(p.target);
                }
                for c in &f.calls {
                    if c.callee == "lock" {
                        continue;
                    }
                    for &t in df.targets(&c.callee) {
                        if let Some(tgt) = &state[t] {
                            return Some(tgt.clone());
                        }
                    }
                }
                None
            },
        );

        let mut out = Vec::new();
        for n in 0..df.nodes.len() {
            let f = df.func(n);
            if is_fan_out_primitive(&f.name) {
                continue;
            }
            let fan_outs: Vec<&CallSite> = f
                .calls
                .iter()
                .filter(|c| is_fan_out_call(&df, f, c))
                .collect();
            if fan_outs.is_empty() {
                continue;
            }
            let file = df.file(n);
            let pushes = shared_pushes(&df, f);
            let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
            let mut merge_start = usize::MAX;
            for c in &fan_outs {
                let (rs, re) = arg_region(&f.body, c.pos);
                merge_start = merge_start.min(re);
                // A deterministically keyed sort after the fan-out
                // discharges arrival-order merges for this site.
                let sorted_after = f
                    .calls
                    .iter()
                    .any(|s| s.pos >= re && SORT_FNS.contains(&s.callee.as_str()));
                if sorted_after {
                    continue;
                }
                for p in &pushes {
                    if p.pos > rs && p.pos < re && flagged_lines.insert(p.line) {
                        out.push(Diagnostic {
                            rule: self.rule(),
                            file: file.symbols.rel.clone(),
                            line: p.line,
                            message: format!(
                                "`{}` merges `{}` worker results into locked `{}` in \
                                 arrival order; merge through an index-ordered slot or \
                                 sort the merged results by a deterministic key",
                                f.name, c.callee, p.target,
                            ),
                        });
                    }
                }
                for c2 in &f.calls {
                    if c2.pos <= rs || c2.pos >= re {
                        continue;
                    }
                    if c2.callee == "lock"
                        || PUSH_FNS.contains(&c2.callee.as_str())
                        || is_fan_out_call(&df, f, c2)
                    {
                        continue;
                    }
                    let hit = df
                        .targets(&c2.callee)
                        .iter()
                        .find_map(|&t| summary[t].clone());
                    if let Some(tgt) = hit {
                        if flagged_lines.insert(c2.line) {
                            out.push(Diagnostic {
                                rule: self.rule(),
                                file: file.symbols.rel.clone(),
                                line: c2.line,
                                message: format!(
                                    "`{}` calls `{}` inside the `{}` fan-out, which \
                                     (transitively) appends to locked `{}` in arrival \
                                     order; workers must write index-ordered slots",
                                    f.name, c2.callee, c.callee, tgt,
                                ),
                            });
                        }
                    }
                }
            }
            // Unordered-container merges: iterating a Hash* local after
            // the fan-out feeds hash order into the merged result.
            let types = local_types(&f.body);
            let hash_local = |t: &Token| {
                t.is_ident
                    && types
                        .get(&t.text)
                        .map(|ty| ty.starts_with("Hash"))
                        .unwrap_or(false)
            };
            for (i, t) in f.body.iter().enumerate() {
                if i < merge_start {
                    continue;
                }
                let in_for = t.text == "for"
                    && f.body[i + 1..]
                        .iter()
                        .take_while(|x| x.text != "{")
                        .skip_while(|x| x.text != "in")
                        .any(hash_local);
                let in_iter = ITER_FNS.contains(&t.text.as_str())
                    && i >= 2
                    && f.body[i - 1].text == "."
                    && hash_local(&f.body[i - 2])
                    && f.body.get(i + 1).map(|x| x.text.as_str()) == Some("(");
                if (in_for || in_iter) && flagged_lines.insert(t.line) {
                    out.push(Diagnostic {
                        rule: self.rule(),
                        file: file.symbols.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`{}` iterates an unordered `Hash*` container in the merge \
                             path after its fan-out; use a BTree container or sort \
                             before merging",
                            f.name,
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Whether the token at `i` is a direct wall-clock source:
/// `Instant::now`, any `SystemTime` use, or an `.elapsed()` call. Bare
/// `Instant` deliberately does not match — the tracer has a
/// `Phase::Instant` enum variant that has nothing to do with clocks.
fn direct_clock_at(body: &[Token], i: usize) -> bool {
    let t = &body[i];
    if t.text == "SystemTime" {
        return true;
    }
    if t.text == "Instant"
        && body.get(i + 1).map(|x| x.text.as_str()) == Some(":")
        && body.get(i + 2).map(|x| x.text.as_str()) == Some(":")
        && body.get(i + 3).map(|x| x.text.as_str()) == Some("now")
    {
        return true;
    }
    t.text == "elapsed"
        && i > 0
        && body[i - 1].text == "."
        && body.get(i + 1).map(|x| x.text.as_str()) == Some("(")
}

/// The CDNA015 pass. See the module docs for the model.
pub struct ClockPurityPass;

impl Pass for ClockPurityPass {
    fn rule(&self) -> &'static str {
        "clock-purity"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let df = Dataflow::build_with_binaries(graph);
        // Interprocedural summary: does calling this function yield a
        // wall-clock-derived value (directly or transitively)?
        let clocky: Vec<bool> = df.fixpoint(
            |_| false,
            |df, state, n| {
                if state[n] {
                    return true;
                }
                let f = df.func(n);
                (0..f.body.len()).any(|i| direct_clock_at(&f.body, i))
                    || f.calls
                        .iter()
                        .any(|c| df.targets(&c.callee).iter().any(|&t| state[t]))
            },
        );

        let axiom = |name: &str| name.starts_with("wall_ms");
        let mut out = Vec::new();
        for n in 0..df.nodes.len() {
            let f = df.func(n);
            let file = df.file(n);
            let src_pos: BTreeSet<usize> = f
                .calls
                .iter()
                .filter(|c| df.targets(&c.callee).iter().any(|&t| clocky[t]))
                .map(|c| c.pos)
                .collect();
            let source_at =
                |body: &[Token], i: usize| direct_clock_at(body, i) || src_pos.contains(&i);
            let set = propagate_taint(f, &axiom, &source_at);
            out.extend(sink_violations(
                &df,
                file,
                f,
                self.rule(),
                &set,
                &axiom,
                &source_at,
                &|key| key.starts_with("wall_ms"),
                "wall-clock-derived",
            ));
            // Struct-literal stores: a clock-derived value assigned to
            // a field not named `wall_ms*` escapes the naming contract
            // the interprocedural axiom depends on.
            out.extend(field_stores(file, f, self.rule(), &set, &axiom, &source_at));
        }
        out
    }
}

/// Flags struct-literal fields (`name: value`) whose value carries
/// taint but whose name is outside the `wall_ms*` carrier contract.
fn field_stores(
    file: &GraphFile,
    f: &FnSym,
    rule: &'static str,
    set: &BTreeSet<String>,
    axiom: &dyn Fn(&str) -> bool,
    source_at: &dyn Fn(&[Token], usize) -> bool,
) -> Vec<Diagnostic> {
    let body = &f.body;
    let mut out = Vec::new();
    for i in 1..body.len() {
        let t = &body[i];
        if !t.is_ident || t.text.starts_with("wall_ms") {
            continue;
        }
        let prev = body[i - 1].text.as_str();
        if prev != "{" && prev != "," {
            continue;
        }
        if body.get(i + 1).map(|x| x.text.as_str()) != Some(":")
            || body.get(i + 2).map(|x| x.text.as_str()) == Some(":")
        {
            continue;
        }
        // Value region: to the `,` or closing `}` at bracket depth 0.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut end = body.len();
        while j < body.len() {
            match body[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    if depth == 0 {
                        end = j;
                        break;
                    }
                    depth -= 1;
                }
                "," if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if (i + 2..end).any(|k| token_tainted(body, k, set, axiom, source_at)) {
            out.push(Diagnostic {
                rule,
                file: file.symbols.rel.clone(),
                line: t.line,
                message: format!(
                    "`{}` stores a wall-clock-derived value in field `{}`; only \
                     `wall_ms*` fields may carry wall-clock (rename the field or \
                     derive the value from sim time)",
                    f.name, t.text,
                ),
            });
        }
    }
    out
}

/// Jobs primitives whose results are worker counts: `(callee, homes)`.
const JOBS_SOURCE_FNS: &[(&str, &[&str])] = &[
    ("resolve_jobs", &["sim"]),
    ("available_jobs", &["sim"]),
    ("jobs_flag_in", &["bench"]),
    ("take_jobs_flag", &["bench"]),
];

/// The declared-carrier naming contract for worker counts.
fn jobs_axiom(name: &str) -> bool {
    name == "jobs" || name == "njobs" || name.ends_with("_jobs") || name.starts_with("jobs_")
}

/// Direct jobs/thread-identity source tokens: `available_parallelism`,
/// `ThreadId`, `thread::current`.
fn direct_jobs_at(body: &[Token], i: usize) -> bool {
    let t = &body[i];
    if t.text == "available_parallelism" || t.text == "ThreadId" {
        return true;
    }
    t.text == "current"
        && i >= 3
        && body[i - 1].text == ":"
        && body[i - 2].text == ":"
        && body[i - 3].text == "thread"
}

/// The CDNA016 pass. See the module docs for the model.
pub struct JobsLeakPass;

impl Pass for JobsLeakPass {
    fn rule(&self) -> &'static str {
        "jobs-leak"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let df = Dataflow::build_with_binaries(graph);
        let mut out = Vec::new();
        for n in 0..df.nodes.len() {
            let f = df.func(n);
            if is_fan_out_primitive(&f.name)
                || JOBS_SOURCE_FNS.iter().any(|(name, _)| *name == f.name)
            {
                // The primitives hand jobs values around by design.
                continue;
            }
            let file = df.file(n);
            let src_pos: BTreeSet<usize> = f
                .calls
                .iter()
                .filter(|c| {
                    JOBS_SOURCE_FNS
                        .iter()
                        .any(|(name, homes)| *name == c.callee && df.armed(name, homes))
                })
                .map(|c| c.pos)
                .collect();
            // Worker closure parameters of fan-out sites carry the
            // worker/item index: `run_indexed(jobs, v, |i, x| …)`.
            let mut param_taint: BTreeSet<String> = BTreeSet::new();
            for c in &f.calls {
                if !is_fan_out_call(&df, f, c) {
                    continue;
                }
                let (rs, re) = arg_region(&f.body, c.pos);
                for i in rs..re {
                    if f.body[i].text != "|" {
                        continue;
                    }
                    let Some(p) = f.body.get(i + 1).filter(|t| t.is_ident) else {
                        continue;
                    };
                    if p.text == "_" || p.text == "mut" {
                        continue;
                    }
                    // Only a genuine first closure param: followed by a
                    // `,`, `|`, or a type ascription.
                    if matches!(
                        f.body.get(i + 2).map(|t| t.text.as_str()),
                        Some(",") | Some("|") | Some(":")
                    ) {
                        param_taint.insert(p.text.clone());
                    }
                }
            }
            let axiom = |name: &str| jobs_axiom(name) || param_taint.contains(name);
            let source_at =
                |body: &[Token], i: usize| direct_jobs_at(body, i) || src_pos.contains(&i);
            let set = propagate_taint(f, &axiom, &source_at);
            out.extend(sink_violations(
                &df,
                file,
                f,
                self.rule(),
                &set,
                &axiom,
                &source_at,
                &|key| key == "jobs",
                "the jobs-derived value",
            ));
        }
        out
    }
}

/// The CDNA017 pass. See the module docs for the model.
pub struct FloatAccumPass;

impl Pass for FloatAccumPass {
    fn rule(&self) -> &'static str {
        "float-accum"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let df = Dataflow::build_with_binaries(graph);
        // Summary: does this function perform an f64 reduction
        // (directly or transitively)?
        let reduces: Vec<bool> = df.fixpoint(
            |_| false,
            |df, state, n| {
                if state[n] {
                    return true;
                }
                let f = df.func(n);
                f.calls
                    .iter()
                    .any(|c| f64_reduce(f, c) || df.targets(&c.callee).iter().any(|&t| state[t]))
            },
        );

        let mut out = Vec::new();
        for n in 0..df.nodes.len() {
            let f = df.func(n);
            if is_fan_out_primitive(&f.name) || !f.calls.iter().any(|c| is_fan_out_call(&df, f, c))
            {
                continue;
            }
            let file = df.file(n);
            // Order-unstable data: arrival-order-merged lock targets
            // (unless later sorted) and Hash*-typed locals. Plain
            // fan-out results are index-ordered and perfectly fine to
            // reduce.
            let mut unstable: BTreeSet<String> = BTreeSet::new();
            for p in shared_pushes(&df, f) {
                let sorted_later = f
                    .calls
                    .iter()
                    .any(|s| s.pos > p.pos && SORT_FNS.contains(&s.callee.as_str()));
                if !sorted_later {
                    unstable.insert(p.target);
                }
            }
            for (name, ty) in local_types(&f.body) {
                if ty.starts_with("Hash") {
                    unstable.insert(name);
                }
            }
            if unstable.is_empty() {
                continue;
            }
            for c in &f.calls {
                let stmt = statement_start(&f.body, c.pos);
                let end = stmt_end(&f.body, stmt);
                let stmt_has = |pred: &dyn Fn(&Token) -> bool| f.body[stmt..end].iter().any(pred);
                let direct =
                    f64_reduce(f, c) && stmt_has(&|t| t.is_ident && unstable.contains(&t.text));
                let transitive = !REDUCE_FNS.contains(&c.callee.as_str())
                    && df.targets(&c.callee).iter().any(|&t| reduces[t])
                    && {
                        let (s, e) = arg_region(&f.body, c.pos);
                        f.body[s..e]
                            .iter()
                            .any(|t| t.is_ident && unstable.contains(&t.text))
                    };
                if direct || transitive {
                    out.push(Diagnostic {
                        rule: self.rule(),
                        file: file.symbols.rel.clone(),
                        line: c.line,
                        message: format!(
                            "`{}` feeds order-unstable data into an `f64` reduction \
                             {}; float addition does not reassociate — sort the \
                             inputs by a deterministic key first",
                            f.name,
                            if REDUCE_FNS.contains(&c.callee.as_str()) {
                                format!("(`{}`)", c.callee)
                            } else {
                                format!("via `{}`", c.callee)
                            },
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Whether call `c` is an `f64` reduction: a `sum`/`product`/`fold`
/// whose statement mentions `f64` (turbofish, ascription, or cast).
fn f64_reduce(f: &FnSym, c: &CallSite) -> bool {
    if !REDUCE_FNS.contains(&c.callee.as_str()) {
        return false;
    }
    let stmt = statement_start(&f.body, c.pos);
    let end = stmt_end(&f.body, stmt);
    f.body[stmt..end].iter().any(|t| t.text.contains("f64"))
}
