//! cdna-check: hermetic static analysis + dynamic DMA-invariant
//! checking for the CDNA workspace.
//!
//! CDNA's safety argument rests on invariants — strictly increasing
//! sequence numbers, page-ownership validation, pins that outlive
//! in-flight DMA — that historically lived only implicitly in
//! `cdna-core`'s protection engine and `cdna-mem`'s page pool. This
//! crate makes them mechanically checkable, twice over:
//!
//! * **Repository walker** ([`rules`], on top of [`lexer`]): a
//!   hand-rolled token scanner that walks the workspace and feeds the
//!   passes below. Violations can be suppressed in-source with
//!   `// cdna-check: allow(<rule>)` annotations; an annotation that
//!   suppresses nothing is itself a `unused-allow` warning. Rules the
//!   compiler already has — no `unsafe`, no undocumented public items,
//!   no panics in library code, no wildcard arms on an enum, no wall
//!   clock or hash-ordered maps, no threads, channels, thread identity
//!   or core count outside `cdna_sim::par`, no non-`Send` custom event
//!   queue — are rustc and clippy checks
//!   configured in the workspace manifest, `clippy.toml` and the
//!   engine's `+ Send` bound, not rules here.
//! * **Symbol-graph pass** ([`parse`], [`graph`], [`analyses`]): an
//!   item-level parser extracts per-crate `fn` symbols and call sites,
//!   and two rules run over the whole workspace at once — `layering`
//!   (the crate DAG read from the manifests must flow strictly
//!   downward) and `must-pair` (every pin reaches an unpin/reap on all
//!   non-panic paths, via a CFG-lite token walk).
//! * **Dataflow pass** ([`taint`], on the [`dataflow`] substrate):
//!   `guest-taint` proves every guest-controlled value passes a
//!   validation primitive before it reaches a pin, DMA or ring sink.
//!   The scanner shards per-file work over `cdna_sim::par`
//!   ([`analyses::analyze_jobs`]) and merges in path order, so its own
//!   report is byte-identical at any worker count.
//! * **Dynamic pass** ([`shadow`]): a [`DmaShadow`] that mirrors each
//!   DMA page's owner and pin count and every context's sequence
//!   stream, independently re-checking what the protection path claims
//!   at runtime.
//!
//! Both run under `cargo test` and as the `cdna-check` binary
//! (`cargo run -p cdna-check`), which exits non-zero on any violation
//! and can emit a machine-readable JSON report ([`report`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analyses;
pub mod calibrate;
pub mod dataflow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod shadow;
pub mod taint;

pub use analyses::{analyze, analyze_jobs, Analysis, SourceFile};
pub use report::render_json;
pub use rules::check_repo_jobs;
pub use rules::{
    check_repo, rule_code, rule_severity, Diagnostic, FileKind, StaticReport, RULE_NAMES,
};
pub use shadow::{DmaShadow, ShadowDir, ShadowViolation, ViolationKind};

use std::path::PathBuf;

/// The workspace root this crate was built from, for self-checking:
/// `crates/check` → two levels up.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}
