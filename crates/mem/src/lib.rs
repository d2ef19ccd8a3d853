#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Physical memory model for the CDNA reproduction.
//!
//! CDNA's DMA memory protection (paper §3.3) is built on three host-memory
//! facts the hypervisor must be able to establish:
//!
//! 1. **ownership** — which domain owns each physical page, so descriptor
//!    buffer addresses can be validated against the requesting guest;
//! 2. **pinning** — per-page reference counts that delay reallocation of
//!    a page while a DMA that targets it is outstanding;
//! 3. **transfer** — pages change owner at runtime, both for Xen's
//!    page-flipping I/O path and when a guest frees memory back to the
//!    hypervisor.
//!
//! This crate implements those mechanisms functionally: every DMA
//! descriptor in the simulation names real pages from a [`PhysMem`] pool,
//! and the protection tests exercise this logic rather than flags.

mod addr;
mod buffer;
pub mod mutation;
mod pool;

pub use addr::{DomainId, PageId, PhysAddr, PAGE_SIZE};
pub use buffer::BufferSlice;
pub use pool::{MemError, PageInfo, PhysMem};
