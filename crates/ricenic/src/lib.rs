#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! RiceNIC device model running the CDNA firmware (paper §4).
//!
//! The RiceNIC is a programmable FPGA-based gigabit NIC with two embedded
//! 300 MHz PowerPC processors, 2 MB of PIO-visible SRAM, and hardware
//! assists for DMA and MAC handling. CDNA's modifications, all modelled
//! here:
//!
//! * 32 protected **contexts**, each a 4 KB SRAM partition of mailboxes
//!   the hypervisor maps into exactly one guest;
//! * a hardware **mailbox event unit** ([`MailboxEventUnit`]) that snoops
//!   SRAM writes and maintains a two-level bit-vector hierarchy so the
//!   firmware finds updated mailboxes in O(1);
//! * fair round-robin **TX multiplexing** across contexts and RX
//!   **demultiplexing** by destination MAC;
//! * **sequence-number verification** of every descriptor before use,
//!   reporting guest-specific protection faults;
//! * **interrupt bit vectors** DMAed to the hypervisor before each
//!   physical interrupt.

mod config;
mod device;
mod events;

pub use config::RiceNicConfig;
pub use device::{Activity, ContextCounters, DeviceError, RiceNic, RiceNicStats, RxDelivery};
pub use events::MailboxEventUnit;
