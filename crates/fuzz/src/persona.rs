//! Malicious-guest personas: the canonical attack shapes of the
//! paper's §3.3 threat model, each one a deterministic generator of
//! adversarial interactions against the guest-visible interface.

use cdna_core::DmaPolicy;

/// One adversarial strategy. Every persona drives the *attacker* guest
/// (the trailing idle domain of the fuzz testbed) against exactly one
/// slice of the guest-visible interface: the enqueue hypercall
/// arguments, the claimed context, the mailbox words, or — under the
/// IOMMU policy — the guest-owned descriptor ring itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Persona {
    /// Malformed enqueue-TX hypercalls: buffers on a victim's page, on
    /// pages past the end of memory, and batches that overrun the ring.
    HypercallCorrupter,
    /// Malformed enqueue-RX hypercalls: foreign receive credits and
    /// replayed (stale) NIC consumer indices.
    RxCreditCorrupter,
    /// Hypercalls naming contexts the attacker does not own: a victim's
    /// context, an unassigned id, an out-of-range id, and mailbox
    /// writes to an unattached device context.
    ForgedContext,
    /// Producer-index overrun: doorbell a transmit producer past what
    /// was ever written, making the NIC read a never-written slot.
    ProducerOverrun,
    /// Stale-descriptor replay: legitimately transmit a full ring lap,
    /// then doorbell one past the lap so the NIC re-reads the stale
    /// slot-0 descriptor (the paper's sequence-number attack).
    StaleReplayer,
    /// Scribbles over the mapped mailbox partition: garbage writes to
    /// the action-free mailbox words and to out-of-range words.
    MailboxScribbler,
    /// Doorbell storm: a burst of redundant producer writes carrying no
    /// new work (producer regressions must be no-ops).
    DoorbellStorm,
    /// Direct descriptor-ring writes naming a victim's page under the
    /// IOMMU policy, where the guest owns its ring and the device-side
    /// IOMMU is the protection boundary.
    IommuEscape,
}

/// Every persona, in campaign scheduling order.
pub const ALL: [Persona; 8] = [
    Persona::HypercallCorrupter,
    Persona::RxCreditCorrupter,
    Persona::ForgedContext,
    Persona::ProducerOverrun,
    Persona::StaleReplayer,
    Persona::MailboxScribbler,
    Persona::DoorbellStorm,
    Persona::IommuEscape,
];

impl Persona {
    /// Stable kebab-case name — wire format for coverage keys, the
    /// report, and the command line. Append, never rename.
    pub fn name(self) -> &'static str {
        match self {
            Persona::HypercallCorrupter => "hypercall-corrupter",
            Persona::RxCreditCorrupter => "rx-credit-corrupter",
            Persona::ForgedContext => "forged-context",
            Persona::ProducerOverrun => "producer-overrun",
            Persona::StaleReplayer => "stale-replayer",
            Persona::MailboxScribbler => "mailbox-scribbler",
            Persona::DoorbellStorm => "doorbell-storm",
            Persona::IommuEscape => "iommu-escape",
        }
    }

    /// Parses a [`Persona::name`] back to the persona.
    pub fn parse(s: &str) -> Option<Persona> {
        ALL.into_iter().find(|p| p.name() == s)
    }

    /// The DMA protection policy this persona attacks. Everything runs
    /// against the paper's default `Validated` engine except the IOMMU
    /// escape, which needs guest-owned rings to scribble on.
    pub fn policy(self) -> DmaPolicy {
        match self {
            Persona::IommuEscape => DmaPolicy::Iommu,
            Persona::HypercallCorrupter
            | Persona::RxCreditCorrupter
            | Persona::ForgedContext
            | Persona::ProducerOverrun
            | Persona::StaleReplayer
            | Persona::MailboxScribbler
            | Persona::DoorbellStorm => DmaPolicy::Validated,
        }
    }

    /// Whether the persona's benign bootstrap transmits a full ring lap
    /// of real frames before the attack (the stale-replay setup).
    pub fn bootstraps(self) -> bool {
        matches!(self, Persona::StaleReplayer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for p in ALL {
            assert_eq!(Persona::parse(p.name()), Some(p));
            assert!(seen.insert(p.name()));
        }
        assert_eq!(Persona::parse("nope"), None);
    }

    #[test]
    fn only_the_iommu_escape_leaves_the_validated_flavor() {
        for p in ALL {
            assert_eq!(p.policy() == DmaPolicy::Iommu, p == Persona::IommuEscape);
        }
    }
}
