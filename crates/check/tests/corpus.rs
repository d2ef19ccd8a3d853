//! Lexer corpus and `DmaShadow` violation classes: proves comment and
//! raw-string scrubbing keep spans exact under a real rule, and that
//! every shadow violation class actually fires. (The dataflow rules'
//! seeded fixtures run through the calibration harness instead.)
//!
//! The fixtures live in `tests/corpus/` (a plain directory, so cargo
//! does not compile them and the repo-wide scan skips them).

use cdna_check::shadow::{DmaShadow, ShadowDir, ViolationKind};
use cdna_check::{analyze, Analysis, FileKind, SourceFile};
use cdna_core::ContextId;
use cdna_mem::{DomainId, PageId};

fn corpus(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("corpus fixture {name} unreadable: {e}"),
    }
}

fn analyze_one(name: &str, kind: FileKind) -> Analysis {
    let file = SourceFile {
        rel: format!("crates/core/src/{name}"),
        kind,
        text: corpus(name),
    };
    analyze(&[file], &[])
}

fn fired(a: &Analysis) -> Vec<(&'static str, u32)> {
    a.diagnostics.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn tests_and_examples_exempt_from_library_rules() {
    let a = analyze_one("raw_strings.rs", FileKind::TestOrExample);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn raw_strings_do_not_fire_and_spans_survive() {
    let a = analyze_one("raw_strings.rs", FileKind::Library);
    // Only the real wildcard arm after the raw string fires, at its
    // true line.
    assert_eq!(fired(&a), [("exhaustive-fault", 16)], "{:?}", a.diagnostics);
}

#[test]
fn nested_block_comments_scrubbed_with_correct_spans() {
    let a = analyze_one("nested_comments.rs", FileKind::Library);
    // The match mentioned inside the nested comment is scrubbed; the
    // allowed wildcard is suppressed; only the final wildcard fires.
    assert_eq!(fired(&a), [("exhaustive-fault", 19)], "{:?}", a.diagnostics);
    assert_eq!(a.allow_count, 1);
}

// --- DmaShadow violation classes -----------------------------------------

fn kinds(shadow: &DmaShadow) -> Vec<&'static str> {
    shadow.violations().iter().map(|v| v.kind.name()).collect()
}

#[test]
fn shadow_double_pin_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(1);
    s.on_alloc(DomainId::guest(0), p);
    s.on_pin(p);
    s.on_dma_start(ContextId(0), p);
    s.on_pin(p);
    assert_eq!(kinds(&s), ["double-pin"]);
}

#[test]
fn shadow_unpin_underflow_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(2);
    s.on_alloc(DomainId::guest(0), p);
    s.on_unpin(p);
    assert_eq!(kinds(&s), ["unpin-underflow"]);
}

#[test]
fn shadow_free_while_in_flight_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(3);
    s.on_alloc(DomainId::guest(1), p);
    s.on_pin(p);
    s.on_dma_start(ContextId(1), p);
    s.on_free(DomainId::guest(1), p);
    assert_eq!(kinds(&s), ["free-while-in-flight"]);
}

#[test]
fn shadow_ownership_change_under_pin_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(4);
    s.on_alloc(DomainId::guest(0), p);
    s.on_pin(p);
    s.on_transfer(p, DomainId::guest(0), DomainId::DRIVER);
    assert_eq!(kinds(&s), ["ownership-change-under-pin"]);
}

#[test]
fn shadow_dma_without_pin_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(5);
    s.on_alloc(DomainId::guest(0), p);
    s.on_dma_start(ContextId(2), p);
    assert_eq!(kinds(&s), ["dma-without-pin"]);
}

#[test]
fn shadow_pin_without_owner_fires() {
    let mut s = DmaShadow::new();
    s.on_pin(PageId(6));
    assert_eq!(kinds(&s), ["pin-without-owner"]);
}

#[test]
fn shadow_sequence_replay_fires() {
    let mut s = DmaShadow::new();
    let (ctx, m) = (ContextId(0), 32);
    s.observe_seq(ctx, ShadowDir::Tx, 5, m);
    s.observe_seq(ctx, ShadowDir::Tx, 6, m);
    s.observe_seq(ctx, ShadowDir::Tx, 5, m); // stale descriptor replayed
    assert_eq!(kinds(&s), ["sequence-replay"]);
    assert!(matches!(
        s.violations()[0].kind,
        ViolationKind::SequenceReplay {
            expected: 7,
            found: 5
        }
    ));
}

#[test]
fn shadow_sequence_gap_fires() {
    let mut s = DmaShadow::new();
    let (ctx, m) = (ContextId(3), 32);
    s.observe_seq(ctx, ShadowDir::Rx, 0, m);
    s.observe_seq(ctx, ShadowDir::Rx, 4, m); // 1..=3 skipped
    assert_eq!(kinds(&s), ["sequence-gap"]);
}

#[test]
fn shadow_mirror_divergence_fires() {
    let mut s = DmaShadow::new();
    // Engine claims a pinned page the mirror never saw.
    s.audit_pinned(ContextId(0), [(PageId(9), 1)]);
    assert_eq!(kinds(&s), ["mirror-divergence"]);
}
