#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! The CDNA architecture — the primary contribution of *Concurrent
//! Direct Network Access for Virtual Machine Monitors* (HPCA 2007).
//!
//! CDNA divides I/O-virtualization work between the NIC and the
//! hypervisor so that each guest OS drives its **own hardware context**
//! on the NIC directly, with no driver domain on the data path:
//!
//! * **Contexts** ([`ContextId`], [`ContextTable`]) — the NIC exposes 32
//!   independent contexts; the hypervisor maps one context's 4 KB mailbox
//!   partition into each guest and can revoke it at any time (§3.1).
//! * **Interrupt delivery** ([`InterruptBitVector`], [`BitVectorRing`],
//!   [`VectorPort`]) — the NIC records which contexts changed state in a
//!   bit vector, DMAs it into a circular buffer in hypervisor memory, and
//!   raises one physical interrupt; the hypervisor decodes the vectors
//!   and posts virtual interrupts to the flagged guests (§3.2).
//! * **DMA memory protection** ([`ProtectionEngine`], [`SeqChecker`]) —
//!   guests enqueue DMA descriptors through a hypercall that validates
//!   page ownership, pins pages for the life of the DMA, and stamps each
//!   descriptor with a strictly increasing sequence number the NIC
//!   verifies before use; stale descriptors raise a per-guest
//!   [`ProtectionFault`] (§3.3).
//!
//! The device side that consumes these protocols is `cdna-ricenic`; the
//! hypervisor that hosts the [`ProtectionEngine`] is `cdna-xen`.

mod bitvec;
mod context;
mod fault;
mod generic;
mod iommu;
pub mod layout;
mod protection;
mod seqnum;

pub use bitvec::{BitVectorRing, InterruptBitVector, VectorPort};
pub use context::{ContextError, ContextId, ContextState, ContextTable, CTX_COUNT};
pub use fault::{FaultKind, ProtectionFault};
pub use generic::{DescriptorFormat, FormatError};
pub use iommu::{IommuStats, IommuViolation, PerContextIommu};
pub use protection::{
    DmaPolicy, EnqueueOutcome, PinRun, ProtectionEngine, ProtectionError, RxRequest, TxRequest,
};
pub use seqnum::{SeqChecker, SeqStamper};
