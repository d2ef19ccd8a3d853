//! Seeded protocol bugs for the `cdna-model` schedule explorer.
//!
//! Mutation testing for the *checker*: each [`MutationKind`] re-creates a
//! realistic implementation bug in the DMA protection protocol, behind a
//! runtime switch that is `None` unless a test or the `cdna-model` CLI
//! flips it. The explorer must catch every mutation (some schedule
//! violates an invariant) and must explore the unmutated build clean —
//! otherwise the invariants are weaker than they claim.
//!
//! The whole module only exists under the `mutations` cargo feature, and
//! with the feature on but no mutation active every hook is a single
//! `thread_local` read that leaves behavior bit-identical, so the perf
//! path and the golden regression runs are unaffected.

use std::cell::Cell;

/// One seeded bug in the protection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// The hypervisor occasionally burns a sequence number while
    /// stamping descriptors, leaving a gap in the per-context stream
    /// (violates strict seqnum continuity; caught as `sequence-gap`).
    SeqSkip,
    /// `PhysMem::unpin_run` skips the first page of every run, leaking
    /// one pin per reap (violates pin balance between the pool and the
    /// protection engines; caught by the pin-balance invariant and the
    /// mirror audit).
    UnpinWrongPage,
    /// The enqueue hypercall skips buffer-ownership validation, letting
    /// an unvalidated guest address reach the pin path (caught as
    /// `pin-without-owner`).
    SkipOwnershipCheck,
    /// A coalesced virtual-interrupt send is double-counted as a fresh
    /// delivery (violates event-channel conservation:
    /// `sent == collected + pending`).
    IrqDoublePost,
}

/// Every mutation, in the order the `cdna-model` CLI reports them.
pub const ALL: [MutationKind; 4] = [
    MutationKind::SeqSkip,
    MutationKind::UnpinWrongPage,
    MutationKind::SkipOwnershipCheck,
    MutationKind::IrqDoublePost,
];

impl MutationKind {
    /// Stable kebab-case name, as used by `cdna-model --mutation`.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::SeqSkip => "seq-skip",
            MutationKind::UnpinWrongPage => "unpin-wrong-page",
            MutationKind::SkipOwnershipCheck => "skip-ownership-check",
            MutationKind::IrqDoublePost => "irq-double-post",
        }
    }

    /// Parses a [`MutationKind::name`] back to the kind.
    pub fn parse(s: &str) -> Option<MutationKind> {
        ALL.into_iter().find(|m| m.name() == s)
    }
}

thread_local! {
    static ACTIVE: Cell<Option<MutationKind>> = const { Cell::new(None) };
}

/// Activates `m` (or deactivates all mutations with `None`) for the
/// current thread.
pub fn set_active(m: Option<MutationKind>) {
    ACTIVE.with(|a| a.set(m));
}

/// The currently active mutation, if any.
#[inline]
pub fn active() -> Option<MutationKind> {
    ACTIVE.with(|a| a.get())
}

/// Whether `m` specifically is active.
#[inline]
pub fn is_active(m: MutationKind) -> bool {
    active() == Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in ALL {
            assert_eq!(MutationKind::parse(m.name()), Some(m));
        }
        assert_eq!(MutationKind::parse("nope"), None);
    }

    #[test]
    fn switch_is_thread_local_and_defaults_off() {
        assert_eq!(active(), None);
        set_active(Some(MutationKind::SeqSkip));
        assert!(is_active(MutationKind::SeqSkip));
        assert!(!is_active(MutationKind::IrqDoublePost));
        set_active(None);
        assert_eq!(active(), None);
    }
}
