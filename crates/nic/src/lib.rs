#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Generic network-interface substrate for the CDNA reproduction.
//!
//! The pieces every NIC model in this workspace shares:
//!
//! * [`DmaDescriptor`] / [`DescFlags`] — the host↔NIC descriptor format
//!   (paper §2.2): a buffer address, a length, flags, and — for CDNA —
//!   a sequence number field;
//! * [`DescRing`] / [`RingTable`] — producer/consumer descriptor rings
//!   living in host memory. Ring slots retain stale contents after
//!   consumption, which is precisely what makes the stale-descriptor
//!   attack of paper §3.3 possible and detectable;
//! * [`MailboxPage`] — the PIO-visible mailbox words a driver writes to
//!   kick the NIC;
//! * [`Coalescer`] — interrupt moderation;
//! * [`ConventionalNic`] — a single-context NIC in the mould of the
//!   Intel Pro/1000 MT used by the paper's baseline rows, with TSO and
//!   interrupt coalescing, driven entirely through descriptor rings.
//!
//! The CDNA-capable RiceNIC model in `cdna-ricenic` builds on the same
//! rings, descriptors, and coalescers but runs the multi-context CDNA
//! firmware from `cdna-core`.

mod coalesce;
mod conventional;
mod descriptor;
mod mailbox;
mod ring;

pub use coalesce::Coalescer;
pub use conventional::{
    ConventionalNic, IrqReason, NicConfig, NicStats, RxDisposition, TxActivity, TxEmission,
};
pub use descriptor::{DescFlags, DmaDescriptor, FrameMeta};
pub use mailbox::{MailboxPage, MAILBOXES_PER_CONTEXT};
pub use ring::{DescRing, RingError, RingId, RingTable};
