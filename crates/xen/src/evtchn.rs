//! Event channels — Xen's virtual interrupts.

use cdna_mem::mutation::MutationKind;
use cdna_mem::DomainId;

/// The virtual interrupt lines a domain can receive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VirtualIrq {
    /// Netfront: the driver domain produced receive packets or transmit
    /// completions for this guest.
    #[default]
    Netfront,
    /// Netback: some frontend queued transmit packets or returned
    /// receive buffers (delivered to the driver domain).
    Netback,
    /// The physical NIC's interrupt, routed to the driver domain.
    NicPhys,
    /// CDNA: this guest's context appeared in an interrupt bit vector.
    Cdna,
}

const IRQ_KINDS: usize = 4;

/// An insertion-ordered set of pending virtual interrupts.
///
/// There are only [`IRQ_KINDS`] interrupt lines and sends coalesce, so
/// the set is a fixed inline array plus a membership bitmask — `Copy`,
/// allocation-free, and on the hot interrupt-delivery path for every
/// domain activation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingIrqs {
    /// Pending lines in the order they first became pending.
    order: [VirtualIrq; IRQ_KINDS],
    /// Number of valid entries in `order`.
    len: u8,
    /// Membership bitmask (bit = `VirtualIrq as u8`).
    mask: u8,
}

impl PendingIrqs {
    /// An empty set.
    pub fn new() -> Self {
        PendingIrqs::default()
    }

    /// Adds `irq` unless already pending. Returns `true` if newly added.
    #[inline]
    fn insert(&mut self, irq: VirtualIrq) -> bool {
        let bit = 1u8 << irq as u8;
        if self.mask & bit != 0 {
            return false;
        }
        self.mask |= bit;
        self.order[self.len as usize] = irq;
        self.len += 1;
        true
    }

    /// Whether `irq` is pending.
    #[inline]
    pub fn contains(&self, irq: VirtualIrq) -> bool {
        self.mask & (1 << irq as u8) != 0
    }

    /// Number of pending lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Pending lines in the order they first became pending.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = VirtualIrq> + '_ {
        self.order[..self.len as usize].iter().copied()
    }
}

impl IntoIterator for PendingIrqs {
    type Item = VirtualIrq;
    type IntoIter = std::iter::Take<std::array::IntoIter<VirtualIrq, IRQ_KINDS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.into_iter().take(self.len as usize)
    }
}

/// Per-domain pending virtual-interrupt state.
///
/// Like Xen's evtchn pending bits: sending an already-pending port is
/// idempotent (interrupt coalescing at the virtual level), and a domain
/// picks up all pending ports when it next runs.
///
/// Pending sets are held in a dense vector indexed by domain id —
/// interrupt send/collect is per-event hot, so there is no map lookup
/// and no allocation on either path.
///
/// # Example
///
/// ```
/// use cdna_mem::DomainId;
/// use cdna_xen::{EventChannels, VirtualIrq};
///
/// let mut ev = EventChannels::new();
/// let dom = DomainId::guest(0);
/// assert!(ev.send(dom, VirtualIrq::Cdna), "newly pending: wake the domain");
/// assert!(!ev.send(dom, VirtualIrq::Cdna), "already pending: coalesced");
/// let got: Vec<_> = ev.collect(dom).into_iter().collect();
/// assert_eq!(got, vec![VirtualIrq::Cdna]);
/// assert!(ev.collect(dom).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventChannels {
    /// Pending sets indexed by `DomainId.0`, grown on demand.
    pending: Vec<PendingIrqs>,
    sent: u64,
    coalesced: u64,
    collected: u64,
    /// The seeded bug [`EventChannels::set_mutation`] armed, if any.
    mutation: Option<MutationKind>,
}

impl EventChannels {
    /// No channels pending.
    pub fn new() -> Self {
        EventChannels::default()
    }

    /// Arms the seeded bug `m` ([`cdna_mem::mutation`]), or none; the
    /// channels act on [`MutationKind::IrqDoublePost`] only.
    pub fn set_mutation(&mut self, m: Option<MutationKind>) {
        self.mutation = m;
    }

    /// Marks `irq` pending for `dom`. Returns `true` if it was newly
    /// pending (the caller should wake the domain), `false` if it
    /// coalesced into an already-pending interrupt.
    #[inline]
    pub fn send(&mut self, dom: DomainId, irq: VirtualIrq) -> bool {
        let idx = dom.0 as usize;
        if idx >= self.pending.len() {
            self.pending.resize(idx + 1, PendingIrqs::default());
        }
        if self.pending[idx].insert(irq) {
            self.sent += 1;
            true
        } else {
            if self.mutation == Some(MutationKind::IrqDoublePost) {
                // Seeded bug: count a coalesced send as a fresh delivery,
                // breaking `sent == collected + pending`.
                self.sent += 1;
                return true;
            }
            self.coalesced += 1;
            false
        }
    }

    /// Whether `dom` has anything pending.
    pub fn has_pending(&self, dom: DomainId) -> bool {
        self.pending
            .get(dom.0 as usize)
            .is_some_and(|p| !p.is_empty())
    }

    /// Takes all pending interrupts for `dom` (what the guest's upcall
    /// handler does when the domain is scheduled).
    #[inline]
    pub fn collect(&mut self, dom: DomainId) -> PendingIrqs {
        match self.pending.get_mut(dom.0 as usize) {
            Some(p) => {
                self.collected += p.len() as u64;
                std::mem::take(p)
            }
            None => PendingIrqs::default(),
        }
    }

    /// Virtual interrupts delivered (newly-pending sends).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Sends absorbed by an already-pending interrupt.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Virtual interrupts picked up by [`EventChannels::collect`].
    pub fn collected(&self) -> u64 {
        self.collected
    }

    /// Interrupt lines currently pending across all domains.
    ///
    /// Conservation invariant (checked per-schedule by `cdna-model`):
    /// `sent() == collected() + pending_total()` — every delivered
    /// interrupt is either already picked up or still pending.
    pub fn pending_total(&self) -> u64 {
        self.pending.iter().map(|p| p.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_ports_accumulate() {
        let mut ev = EventChannels::new();
        let dom = DomainId::guest(1);
        assert!(ev.send(dom, VirtualIrq::Netfront));
        assert!(ev.send(dom, VirtualIrq::Cdna));
        let mut got: Vec<_> = ev.collect(dom).into_iter().collect();
        got.sort();
        assert_eq!(got, vec![VirtualIrq::Netfront, VirtualIrq::Cdna]);
    }

    #[test]
    fn collect_preserves_insertion_order() {
        let mut ev = EventChannels::new();
        let dom = DomainId::guest(2);
        ev.send(dom, VirtualIrq::Cdna);
        ev.send(dom, VirtualIrq::Netfront);
        ev.send(dom, VirtualIrq::Cdna); // coalesced: order unchanged
        let got: Vec<_> = ev.collect(dom).into_iter().collect();
        assert_eq!(got, vec![VirtualIrq::Cdna, VirtualIrq::Netfront]);
    }

    #[test]
    fn domains_are_independent() {
        let mut ev = EventChannels::new();
        ev.send(DomainId::guest(0), VirtualIrq::Cdna);
        assert!(!ev.has_pending(DomainId::guest(1)));
        assert!(ev.has_pending(DomainId::guest(0)));
    }

    #[test]
    fn pending_set_saturates_without_overflow() {
        let mut p = PendingIrqs::new();
        for irq in [
            VirtualIrq::Netfront,
            VirtualIrq::Netback,
            VirtualIrq::NicPhys,
            VirtualIrq::Cdna,
        ] {
            assert!(p.insert(irq));
            assert!(!p.insert(irq));
            assert!(p.contains(irq));
        }
        assert_eq!(p.len(), 4);
        let all: Vec<_> = p.iter().collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn counters() {
        let mut ev = EventChannels::new();
        let dom = DomainId::DRIVER;
        ev.send(dom, VirtualIrq::NicPhys);
        ev.send(dom, VirtualIrq::NicPhys);
        ev.send(dom, VirtualIrq::NicPhys);
        assert_eq!(ev.sent(), 1);
        assert_eq!(ev.coalesced(), 2);
        ev.collect(dom);
        ev.send(dom, VirtualIrq::NicPhys);
        assert_eq!(ev.sent(), 2);
    }

    #[test]
    fn conservation_holds_across_send_and_collect() {
        let mut ev = EventChannels::new();
        let a = DomainId::guest(0);
        let b = DomainId::guest(1);
        ev.send(a, VirtualIrq::Netfront);
        ev.send(a, VirtualIrq::Cdna);
        ev.send(b, VirtualIrq::Netback);
        assert_eq!(ev.sent(), ev.collected() + ev.pending_total());
        ev.collect(a);
        assert_eq!(ev.collected(), 2);
        assert_eq!(ev.pending_total(), 1);
        assert_eq!(ev.sent(), ev.collected() + ev.pending_total());
    }
}
