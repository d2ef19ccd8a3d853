#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Umbrella crate for the CDNA reproduction workspace.
//!
//! Re-exports every member crate so the integration tests in `tests/`
//! and the runnable binaries in `examples/` can reach the whole system
//! through one dependency. Downstream users should depend on the
//! individual crates (`cdna-core`, `cdna-system`, …) directly.
//!
//! ```
//! use cdna_repro::system::{run_experiment, Direction, IoModel, NicKind, TestbedConfig};
//!
//! let report = run_experiment(
//!     TestbedConfig::new(IoModel::XenBridged { nic: NicKind::Intel }, 1, Direction::Transmit)
//!         .quick(),
//! );
//! assert!(report.throughput_mbps > 1000.0);
//! ```

/// The CDNA architecture (contexts, interrupt bit vectors, protection).
pub use cdna_core as core;
/// Physical-memory substrate.
pub use cdna_mem as mem;
/// Network primitives (MACs, frames, wire, PCI bus).
pub use cdna_net as net;
/// Generic NIC substrate and the conventional NIC model.
pub use cdna_nic as nic;
/// RiceNIC device model with CDNA firmware.
pub use cdna_ricenic as ricenic;
/// Discrete-event simulation engine.
pub use cdna_sim as sim;
/// Full-testbed assembly, cost model, and experiment runner.
pub use cdna_system as system;
/// Hypervisor substrate (scheduler, event channels, drivers, bridge).
pub use cdna_xen as xen;
