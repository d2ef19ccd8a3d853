#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Paravirtualizing hypervisor substrate (Xen-like), as required by the
//! CDNA paper's baseline and by CDNA itself.
//!
//! The pieces:
//!
//! * [`CpuLedger`] — per-category CPU time accounting on the testbed's
//!   single Opteron core, reproducing the "Domain Execution Profile"
//!   columns of the paper's Tables 2–4 (Xenoprof's role);
//! * [`RunQueue`] — the round-robin vcpu scheduler (domains block when
//!   idle and wake on virtual interrupts);
//! * [`EventChannels`] — Xen's virtual-interrupt mechanism;
//! * [`FrontBackChannel`] — the paravirtualized network I/O channel
//!   between a guest's *netfront* and the driver domain's *netback*,
//!   with page-flipping (ownership exchange) on receive and grant
//!   pinning on transmit;
//! * [`EthernetBridge`] — the driver domain's software bridge that
//!   multiplexes guest traffic onto physical NICs (the component CDNA
//!   eliminates);
//! * [`NativeDriver`] — an unmodified-OS style NIC driver for the
//!   conventional NIC (used natively and inside the driver domain);
//! * [`CdnaGuestDriver`] — the guest device driver for a CDNA context,
//!   enqueueing descriptors through the hypervisor's protection engine
//!   and ringing its private mailboxes.

pub mod adversary;

mod accounting;
mod bridge;
mod cdna_driver;
mod chan;
mod evtchn;
mod native;
mod sched;

pub use accounting::{CpuLedger, ExecCategory, ExecutionProfile};
pub use bridge::{BridgePort, EthernetBridge};
pub use cdna_driver::{CdnaDriverStats, CdnaGuestDriver, CdnaTxOrigin};
pub use chan::{ChannelError, ChannelStats, FrontBackChannel, PvPacket};
pub use evtchn::{EventChannels, PendingIrqs, VirtualIrq};
pub use native::{DriverError, NativeDriver, NativeDriverStats, TxOrigin};
pub use sched::RunQueue;
