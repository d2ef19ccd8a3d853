//! Ethernet MAC addresses.

use std::fmt;

/// A 48-bit Ethernet MAC address.
///
/// CDNA associates one unique MAC with each hardware context so the NIC
/// can demultiplex received traffic (paper §3.1). The
/// [`MacAddr::for_context`] constructor produces the locally-administered
/// addresses the simulation assigns to contexts.
///
/// # Example
///
/// ```
/// use cdna_net::MacAddr;
///
/// let mac = MacAddr::for_context(0, 3);
/// assert!(mac.is_locally_administered());
/// assert_eq!(mac.to_string(), "02:cd:aa:00:00:03");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered unicast address for hardware context `ctx`
    /// of NIC `nic`.
    pub const fn for_context(nic: u8, ctx: u8) -> MacAddr {
        // 0x02 sets the locally-administered bit and clears multicast.
        MacAddr([0x02, 0xcd, 0xaa, nic, 0x00, ctx])
    }

    /// A locally-administered unicast address for hardware context `ctx`
    /// of NIC `nic` on rack host `host`.
    ///
    /// Host 0 is bit-identical to [`MacAddr::for_context`] (the host
    /// octet was always zero before multi-host racks existed), so a
    /// single-host world keeps its historical addresses.
    pub const fn for_host_context(host: u8, nic: u8, ctx: u8) -> MacAddr {
        MacAddr([0x02, 0xcd, 0xaa, nic, host, ctx])
    }

    /// A locally-administered unicast address for the peer host's NIC
    /// `nic` (the traffic source/sink machine in the paper's testbed).
    pub const fn for_peer(nic: u8) -> MacAddr {
        MacAddr([0x02, 0xee, 0x00, nic, 0x00, 0x01])
    }

    /// A locally-administered unicast address for guest `guest`'s
    /// paravirtualized interface (its netfront vif in the Xen baseline).
    pub const fn for_vif(guest: u16) -> MacAddr {
        let hi = (guest >> 8) as u8;
        let lo = (guest & 0xff) as u8;
        MacAddr([0x02, 0x1f, 0x00, 0x00, hi, lo])
    }

    /// True if the multicast/broadcast bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True if this is the broadcast address.
    #[inline]
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }

    /// True if the locally-administered bit is set.
    pub fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// The raw octets.
    pub fn octets(&self) -> [u8; 6] {
        self.0
    }
}

/// Derives and claims unique MAC addresses across a whole rack.
///
/// Every constructor on [`MacAddr`] is deterministic, so two different
/// `(host, nic, ctx)` tuples can only collide through a bug in the
/// derivation scheme — which is exactly what this allocator exists to
/// catch. A rack builder claims every address it hands out; a `None`
/// return means the derived address was already taken and the topology
/// is misconfigured (e.g. two hosts sharing a host id).
///
/// # Example
///
/// ```
/// use cdna_net::MacAllocator;
///
/// let mut alloc = MacAllocator::new();
/// let a = alloc.host_context(0, 0, 1);
/// assert!(a.is_some());
/// // Claiming the same tuple again collides.
/// assert!(alloc.host_context(0, 0, 1).is_none());
/// ```
#[derive(Debug, Default)]
pub struct MacAllocator {
    assigned: std::collections::BTreeSet<MacAddr>,
}

impl MacAllocator {
    /// An allocator with no addresses claimed.
    pub fn new() -> Self {
        MacAllocator::default()
    }

    /// Claims `mac`, returning it if it was not already claimed.
    pub fn claim(&mut self, mac: MacAddr) -> Option<MacAddr> {
        if self.assigned.insert(mac) {
            Some(mac)
        } else {
            None
        }
    }

    /// Derives and claims the context address for `(host, nic, ctx)`.
    pub fn host_context(&mut self, host: u8, nic: u8, ctx: u8) -> Option<MacAddr> {
        self.claim(MacAddr::for_host_context(host, nic, ctx))
    }

    /// Derives and claims the peer-source address for NIC `nic`.
    pub fn peer(&mut self, nic: u8) -> Option<MacAddr> {
        self.claim(MacAddr::for_peer(nic))
    }

    /// Derives and claims guest `guest`'s vif address.
    pub fn vif(&mut self, guest: u16) -> Option<MacAddr> {
        self.claim(MacAddr::for_vif(guest))
    }

    /// How many addresses have been claimed so far.
    pub fn claimed(&self) -> usize {
        self.assigned.len()
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_addresses_are_unique_per_nic_and_ctx() {
        let mut seen = std::collections::BTreeSet::new();
        for nic in 0..2 {
            for ctx in 0..32 {
                assert!(seen.insert(MacAddr::for_context(nic, ctx)));
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn context_addresses_are_unicast_and_local() {
        let m = MacAddr::for_context(1, 31);
        assert!(!m.is_multicast());
        assert!(m.is_locally_administered());
        assert!(!m.is_broadcast());
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn display_format() {
        let m = MacAddr([0x02, 0x00, 0xff, 0x10, 0x00, 0x01]);
        assert_eq!(m.to_string(), "02:00:ff:10:00:01");
    }

    #[test]
    fn peer_and_context_spaces_disjoint() {
        for nic in 0..4 {
            for ctx in 0..32 {
                assert_ne!(MacAddr::for_context(nic, ctx), MacAddr::for_peer(nic));
            }
        }
    }

    #[test]
    fn host_zero_matches_single_host_context_addresses() {
        for nic in 0..4 {
            for ctx in 0..32 {
                assert_eq!(
                    MacAddr::for_host_context(0, nic, ctx),
                    MacAddr::for_context(nic, ctx)
                );
            }
        }
    }

    #[test]
    fn allocator_rack_addresses_never_collide() {
        // A full rack: 16 hosts x 2 NICs x 32 contexts, plus the peer
        // and vif namespaces — every claim must be fresh.
        let mut alloc = MacAllocator::new();
        for host in 0..16 {
            for nic in 0..2 {
                for ctx in 0..32 {
                    assert!(
                        alloc.host_context(host, nic, ctx).is_some(),
                        "collision at host {host} nic {nic} ctx {ctx}"
                    );
                }
            }
        }
        for nic in 0..2 {
            assert!(alloc.peer(nic).is_some());
        }
        for guest in 0..24 {
            assert!(alloc.vif(guest).is_some());
        }
        assert_eq!(alloc.claimed(), 16 * 2 * 32 + 2 + 24);
    }

    #[test]
    fn allocator_detects_collisions() {
        let mut alloc = MacAllocator::new();
        assert!(alloc.host_context(3, 1, 7).is_some());
        assert!(alloc.host_context(3, 1, 7).is_none());
        assert!(alloc.claim(MacAddr::for_peer(0)).is_some());
        assert!(alloc.peer(0).is_none());
        assert_eq!(alloc.claimed(), 2);
    }
}
