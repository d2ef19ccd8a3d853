#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Full-testbed assembly for the CDNA reproduction.
//!
//! This crate wires the substrates — discrete-event engine, memory,
//! NICs, hypervisor — into the paper's experimental machine: a
//! single-core Opteron host with two (or six) gigabit NICs connected to
//! an infinitely fast peer, running one of four I/O architectures:
//!
//! * native (unvirtualized) Linux — Table 1's baseline;
//! * Xen software I/O virtualization on an Intel NIC;
//! * Xen software I/O virtualization on the RiceNIC (base firmware);
//! * CDNA, with DMA protection enabled, disabled, or delegated to an
//!   IOMMU.
//!
//! [`run_experiment`] executes one configuration and returns a
//! [`RunReport`] with the throughput, six-way execution profile, and
//! interrupt rates the paper's tables print.
//!
//! ```
//! use cdna_system::{run_experiment, Direction, IoModel, NicKind, TestbedConfig};
//!
//! let report = run_experiment(
//!     TestbedConfig::new(IoModel::XenBridged { nic: NicKind::Intel }, 1, Direction::Transmit)
//!         .quick(),
//! );
//! assert!(report.throughput_mbps > 500.0);
//! ```

mod config;
mod costs;
mod diff;
mod report;
mod testbed;
mod workload;
mod world;

pub use cdna_sim::QueueKind;
pub use config::{Direction, IoModel, NicKind, TestbedConfig};
pub use costs::CostModel;
pub use diff::victim_digest;
pub use report::{Comparison, RunReport};
pub use testbed::{
    report_from_world, run_experiment, run_instrumented, Instrumentation, RunArtifacts,
};
pub use workload::{GuestWorkload, PeerSource, TxUnit};
pub use world::{
    DomainState, EgressFrame, Event, HostRx, Meters, NicSlot, PhysDriver, Role, SystemWorld,
};
