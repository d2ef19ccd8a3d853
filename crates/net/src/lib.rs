#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Network primitives for the CDNA reproduction.
//!
//! This crate provides the pieces of the networking substrate that are
//! independent of any particular NIC:
//!
//! * [`MacAddr`] — Ethernet addresses, including the locally-administered
//!   per-context addresses CDNA assigns to guests;
//! * [`Frame`] — the unit of traffic crossing the simulated wire;
//! * [`framing`] — IEEE 802.3 / IP / TCP overhead arithmetic used both by
//!   the wire model and by the throughput reports (the paper reports TCP
//!   payload goodput);
//! * [`GigabitWire`] — a full-duplex gigabit link with serialization
//!   delay and store-and-forward latency;
//! * [`PciBus`] — a shared 64-bit/66 MHz PCI segment that DMA transfers
//!   contend on, matching the RiceNIC's host interface.

mod frame;
pub mod framing;
mod mac;
mod pci;
mod wire;

pub use frame::{FlowId, Frame};
pub use mac::{MacAddr, MacAllocator};
pub use pci::{PciBus, PciTransfer};
pub use wire::{GigabitWire, WireDirection};
