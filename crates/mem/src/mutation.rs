//! Seeded protocol bugs for the `cdna-model` schedule explorer and the
//! `cdna-fuzz` campaign.
//!
//! Mutation testing for the *checker*: each [`MutationKind`] re-creates a
//! realistic implementation bug in the DMA protection protocol. The bug
//! is part of the simulated machine: a testbed configuration names at
//! most one, and the world's build hands it to the component whose hook
//! it arms — [`crate::PhysMem::set_mutation`] for `unpin-wrong-page`, the
//! protection engines for `seq-skip` and `skip-ownership-check`, the
//! event channels for `irq-double-post`. Each hook reads its own
//! component's field, so every clone and snapshot of a world carries its
//! bug and no other world sees it. The checkers must catch every
//! mutation (some schedule or episode violates an invariant) and must
//! find the unmutated world clean — otherwise the invariants are weaker
//! than they claim. A component with no mutation set behaves exactly as
//! one without the hook.

/// One seeded bug in the protection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
}
