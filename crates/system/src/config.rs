//! Testbed configuration.

use cdna_core::DmaPolicy;
use cdna_ricenic::RiceNicConfig;
use cdna_sim::{QueueKind, SimTime};

use crate::CostModel;

/// Which physical NIC hardware the testbed uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicKind {
    /// Intel Pro/1000 MT-class conventional NIC (TSO, coalescing).
    Intel,
    /// The RiceNIC running base (non-CDNA) firmware — still a
    /// conventional single-context device from software's view.
    RiceNic,
}

/// The I/O virtualization architecture under test — the paper's three
/// configurations plus the unvirtualized baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// No VMM: the OS drives the NICs directly (Table 1 "Native Linux").
    Native {
        /// NIC hardware.
        nic: NicKind,
    },
    /// Xen software I/O virtualization: driver domain + bridge +
    /// netfront/netback with page flipping.
    XenBridged {
        /// NIC hardware terminated by the driver domain.
        nic: NicKind,
    },
    /// Concurrent direct network access on the CDNA RiceNIC.
    Cdna {
        /// DMA protection policy (Table 4 ablates this).
        policy: DmaPolicy,
    },
}

impl IoModel {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            IoModel::Native {
                nic: NicKind::Intel,
            } => "Native/Intel",
            IoModel::Native {
                nic: NicKind::RiceNic,
            } => "Native/RiceNIC",
            IoModel::XenBridged {
                nic: NicKind::Intel,
            } => "Xen/Intel",
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            } => "Xen/RiceNIC",
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            } => "CDNA/RiceNIC",
            IoModel::Cdna {
                policy: DmaPolicy::Iommu,
            } => "CDNA/RiceNIC (IOMMU)",
            IoModel::Cdna {
                policy: DmaPolicy::Unprotected,
            } => "CDNA/RiceNIC (no prot)",
        }
    }
}

/// Traffic direction, from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host transmits; the peer sinks at line rate.
    Transmit,
    /// The peer transmits at line rate; host receives.
    Receive,
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// I/O architecture under test.
    pub io_model: IoModel,
    /// Number of guest domains (ignored for [`IoModel::Native`], which
    /// runs one OS).
    pub guests: u16,
    /// Number of physical gigabit NICs.
    pub nics: u8,
    /// Traffic direction.
    pub direction: Direction,
    /// Connections per guest (balanced across NICs).
    pub conns_per_guest: u16,
    /// Simulated warm-up before measurement starts.
    pub warmup: SimTime,
    /// Measurement window length.
    pub measure: SimTime,
    /// RNG seed (runs are deterministic given the whole config).
    pub seed: u64,
    /// Descriptor-ring slots per NIC/context and direction.
    pub ring_size: u32,
    /// Max packets a domain processes per scheduler activation.
    pub batch_limit: u32,
    /// CDNA driver: descriptor requests accumulated per enqueue
    /// hypercall.
    pub hypercall_batch: u32,
    /// Netback notifies a frontend after this many packets of new work
    /// (Xen's event-coalescing behaviour).
    pub notify_batch: u32,
    /// Inter-VM traffic mode: every guest transmits to a sibling guest
    /// instead of the external peer. Under Xen the software bridge
    /// switches these packets in host memory; under CDNA they hairpin
    /// through the external Ethernet switch (an architectural trade-off
    /// the paper does not evaluate). Requires at least two guests and
    /// [`Direction::Transmit`].
    pub inter_guest: bool,
    /// How many of the trailing guest domains are built *without* a
    /// traffic workload: their vcpus, CDNA contexts, rings, and posted
    /// receive descriptors all exist, but they never generate traffic
    /// on their own. This is the adversarial-testing seam (`cdna-fuzz`):
    /// an attacking persona drives an idle guest's contexts through the
    /// guest-visible interface from outside the event loop, while the
    /// remaining `guests - idle_guests` victims run the normal workload.
    /// Zero (the default) reproduces the paper's configurations exactly.
    pub idle_guests: u16,
    /// Run the `cdna-check` DMA shadow checker alongside the
    /// simulation: mirror page ownership/pinning and per-context
    /// descriptor sequence streams, and cross-check the mirror against
    /// the live [`cdna_mem::PhysMem`] and protection engine at
    /// measurement boundaries. Divergence surfaces as
    /// [`cdna_core::FaultKind::ShadowViolation`] protection faults.
    /// It also turns on every protection engine's pin journal, which
    /// feeds the mirror; no simulated outcome changes.
    pub shadow_check: bool,
    /// The cost model (override for ablations).
    pub costs: CostModel,
    /// RiceNIC firmware configuration (override for ablations, e.g. the
    /// interrupt bit-vector coalescing interval).
    pub ricenic: RiceNicConfig,
    /// Event queue for the simulation engine (the timer wheel, the only
    /// built-in kind).
    pub queue: QueueKind,
}

impl TestbedConfig {
    /// A config with the paper's defaults for the given architecture,
    /// guest count, and direction: 2 NICs, 2 connections per guest, and
    /// measurement windows long enough for rates to settle.
    pub fn new(io_model: IoModel, guests: u16, direction: Direction) -> Self {
        TestbedConfig {
            io_model,
            guests,
            nics: 2,
            direction,
            conns_per_guest: 2,
            warmup: SimTime::from_ms(200),
            measure: SimTime::from_ms(800),
            seed: 42,
            ring_size: 256,
            batch_limit: 64,
            hypercall_batch: 10,
            notify_batch: 16,
            inter_guest: false,
            idle_guests: 0,
            shadow_check: false,
            costs: CostModel::default(),
            ricenic: RiceNicConfig::default(),
            queue: QueueKind::default(),
        }
    }

    /// Shortens warm-up and measurement for fast unit tests.
    pub fn quick(mut self) -> Self {
        self.warmup = SimTime::from_ms(30);
        self.measure = SimTime::from_ms(120);
        self
    }

    /// Sets the NIC count (Table 1 uses six).
    pub fn with_nics(mut self, nics: u8) -> Self {
        self.nics = nics;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Marks the trailing `n` guests as workload-less attacker slots
    /// (see [`TestbedConfig::idle_guests`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the guest count.
    pub fn with_idle_guests(mut self, n: u16) -> Self {
        assert!(n <= self.guests, "idle guests exceed guest count");
        self.idle_guests = n;
        self
    }

    /// Enables the DMA shadow checker (see
    /// [`TestbedConfig::shadow_check`]).
    pub fn with_shadow_check(mut self) -> Self {
        self.shadow_check = true;
        self
    }

    /// Switches the workload to inter-VM traffic (guest-to-sibling
    /// instead of guest-to-peer). See [`TestbedConfig::inter_guest`].
    ///
    /// # Panics
    ///
    /// Panics unless this is a transmit run with at least two guests.
    pub fn with_inter_guest(mut self) -> Self {
        assert!(self.guests >= 2, "inter-VM traffic needs two guests");
        assert_eq!(
            self.direction,
            Direction::Transmit,
            "inter-VM runs transmit"
        );
        self.inter_guest = true;
        self
    }

    /// Whether this run has a driver domain on the data path.
    pub fn uses_driver_domain(&self) -> bool {
        matches!(self.io_model, IoModel::XenBridged { .. })
    }

    /// Whether this run is virtualized at all.
    pub fn is_virtualized(&self) -> bool {
        !matches!(self.io_model, IoModel::Native { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            IoModel::Native {
                nic: NicKind::Intel,
            }
            .label(),
            IoModel::XenBridged {
                nic: NicKind::Intel,
            }
            .label(),
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            }
            .label(),
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            }
            .label(),
            IoModel::Cdna {
                policy: DmaPolicy::Unprotected,
            }
            .label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn defaults_match_paper_testbed() {
        let cfg = TestbedConfig::new(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            1,
            Direction::Transmit,
        );
        assert_eq!(cfg.nics, 2);
        assert!(cfg.measure > SimTime::from_ms(100));
        assert!(!cfg.uses_driver_domain());
        assert!(cfg.is_virtualized());
        let xen = TestbedConfig::new(
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            1,
            Direction::Transmit,
        );
        assert!(xen.uses_driver_domain());
        let native = TestbedConfig::new(
            IoModel::Native {
                nic: NicKind::Intel,
            },
            1,
            Direction::Transmit,
        );
        assert!(!native.is_virtualized());
    }
}
