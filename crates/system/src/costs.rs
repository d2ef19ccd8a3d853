//! The calibrated CPU cost model.
//!
//! Every constant is the CPU time one mechanism consumes on the paper's
//! Opteron 250 testbed. The calibration strategy (DESIGN.md §2): the
//! per-mechanism costs are chosen so that the **single-guest** Xen/Intel
//! and CDNA rows of Tables 2/3 and the native row of Table 1 come out
//! right, and everything else — the RiceNIC software-virtualization
//! rows, the protection ablation of Table 4, and the entire 1–24 guest
//! scalability sweep of Figures 3/4 — *emerges* from the simulated
//! mechanisms (scheduling, batching, interrupt coalescing, ring
//! backpressure).
//!
//! Derivation sketch for the anchors (packet = one MSS segment):
//!
//! * Native TX 5126 Mb/s ⇒ 438.9 k pkt/s at 100 % CPU ⇒ 2.28 µs/pkt
//!   total (stack + driver + user).
//! * Xen/Intel TX 1602 Mb/s ⇒ 137.2 k pkt/s with profile 19.8 % hyp /
//!   36.5 % dom0 / 40.7 % guest ⇒ 1.44 / 2.66 / 2.97 µs per packet
//!   respectively; those are split below into page-flip, bridge,
//!   netback, netfront, event-channel and interrupt costs.
//! * CDNA TX 1867 Mb/s ⇒ 159.8 k pkt/s with 10.2 % hyp / 38.5 % guest ⇒
//!   0.64 / 2.41 µs per packet, split into hypercall, validation and
//!   interrupt-dispatch costs. Disabling protection must leave only
//!   ~1.9 % hypervisor time (Table 4), which pins the interrupt-dispatch
//!   share.

use cdna_core::EnqueueOutcome;
use cdna_sim::SimTime;

/// Nanosecond helper for the table below.
const fn ns(v: u64) -> SimTime {
    SimTime::from_ns(v)
}

/// CPU costs of every modelled mechanism.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ---- Guest / native OS network stack (per MSS packet) ----
    /// TCP/IP transmit path in the kernel (checksum offloaded).
    pub stack_tx_kernel: SimTime,
    /// User-space send work (the benchmark's buffer handling).
    pub stack_tx_user: SimTime,
    /// TCP/IP receive path in the kernel.
    pub stack_rx_kernel: SimTime,
    /// User-space receive work.
    pub stack_rx_user: SimTime,

    // ---- Drivers (per packet) ----
    /// Native (unmodified) driver, transmit side.
    pub native_drv_tx: SimTime,
    /// Native driver, receive side.
    pub native_drv_rx: SimTime,
    /// Netfront transmit extra over the native driver (grant refs,
    /// shared-ring bookkeeping).
    pub netfront_tx: SimTime,
    /// Netfront receive extra (ring consumption, credit reposting).
    pub netfront_rx: SimTime,
    /// CDNA guest driver transmit extra (request build, batch
    /// bookkeeping).
    pub cdna_drv_tx: SimTime,
    /// CDNA guest driver receive extra.
    pub cdna_drv_rx: SimTime,
    /// One programmed-I/O doorbell/mailbox write (uncached PCI write).
    pub pio_write: SimTime,

    // ---- Driver domain (per packet unless noted) ----
    /// Netback transmit processing (pull from shared ring, skb setup).
    pub netback_tx: SimTime,
    /// Netback receive processing (deliver to shared ring).
    pub netback_rx: SimTime,
    /// Software bridge lookup + forwarding.
    pub bridge_per_packet: SimTime,
    /// Scanning one (possibly empty) frontend channel during a netback
    /// pass — grows the driver domain's cost with the number of guests.
    pub netback_scan_per_channel: SimTime,
    /// Driver-domain interrupt service (per physical-NIC virq taken).
    pub drv_isr: SimTime,
    /// Driver-domain CDNA driver transmit cost per packet (mailbox
    /// interface, request batching) — replaces `native_drv_tx` when the
    /// driver domain fronts a RiceNIC.
    pub cdna_dom0_drv_tx: SimTime,
    /// Driver-domain CDNA driver receive cost per packet.
    pub cdna_dom0_drv_rx: SimTime,

    // ---- Hypervisor ----
    /// Physical interrupt capture + routing to the driver domain.
    pub hyp_isr_conventional: SimTime,
    /// Physical interrupt capture + bit-vector ring drain (CDNA).
    pub hyp_isr_cdna: SimTime,
    /// Scheduling a virtual interrupt to one flagged context's guest.
    pub hyp_cdna_vint: SimTime,
    /// Delivering an event-channel notification (newly pending).
    pub hyp_evtchn_send: SimTime,
    /// World switch between domains (register state, address space).
    pub hyp_domain_switch: SimTime,
    /// Cache/TLB refill penalty after a switch, charged to the incoming
    /// domain's kernel time. This is the dominant per-guest scaling cost:
    /// on the Opteron 250 (64 KB L1, 1 MB L2) two domains' working sets
    /// evict each other, and the paper's Figures 3/4 show ~25 % of the
    /// CPU disappearing per additional CDNA guest at low guest counts —
    /// consistent with ~15 µs of refill per world switch at the observed
    /// 13.7 k switches/s (calibrated to 13 µs).
    pub switch_cache_penalty: SimTime,
    /// Scheduler bookkeeping per dispatch decision.
    pub hyp_sched_pick: SimTime,
    /// Grant-map one TX page (Xen baseline).
    pub hyp_grant_map: SimTime,
    /// Grant-unmap one TX page.
    pub hyp_grant_unmap: SimTime,
    /// One receive page-flip exchange (two ownership transfers).
    pub hyp_page_flip: SimTime,
    /// Hypercall entry/exit (charged per batch).
    pub hyp_hypercall_fixed: SimTime,
    /// Validate + pin + stamp + copy one CDNA descriptor (paper §3.3).
    pub hyp_validate_desc: SimTime,
    /// Reap (unpin) one completed CDNA descriptor.
    pub hyp_reap_desc: SimTime,
    /// Map one page in the per-context IOMMU (the hypervisor's only
    /// data-path involvement under [`cdna_core::DmaPolicy::Iommu`],
    /// paper §5.3 — overhead the paper's Table 4 explicitly does not
    /// account for).
    pub hyp_iommu_map: SimTime,
    /// Unmap one page in the per-context IOMMU.
    pub hyp_iommu_unmap: SimTime,

    // ---- Fixed per-activation costs ----
    /// Kernel entry/softirq overhead when a domain starts running.
    pub activation_fixed: SimTime,
    /// Guest upcall handling for one delivered virtual interrupt.
    pub virq_upcall: SimTime,
    /// Native-OS interrupt service routine (no hypervisor).
    pub native_isr: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stack_tx_kernel: ns(1930),
            stack_tx_user: ns(50),
            stack_rx_kernel: ns(2850),
            stack_rx_user: ns(50),

            native_drv_tx: ns(300),
            native_drv_rx: ns(320),
            netfront_tx: ns(1000),
            netfront_rx: ns(460),
            cdna_drv_tx: ns(220),
            cdna_drv_rx: ns(110),
            pio_write: ns(850),

            netback_tx: ns(1750),
            netback_rx: ns(3100),
            bridge_per_packet: ns(450),
            netback_scan_per_channel: ns(300),
            drv_isr: ns(1800),
            cdna_dom0_drv_tx: ns(600),
            cdna_dom0_drv_rx: ns(700),

            hyp_isr_conventional: ns(2000),
            hyp_isr_cdna: ns(1100),
            hyp_cdna_vint: ns(450),
            hyp_evtchn_send: ns(250),
            hyp_domain_switch: ns(1500),
            switch_cache_penalty: ns(13000),
            hyp_sched_pick: ns(400),
            hyp_grant_map: ns(700),
            hyp_grant_unmap: ns(500),
            hyp_page_flip: ns(2200),
            hyp_hypercall_fixed: ns(500),
            hyp_validate_desc: ns(300),
            hyp_reap_desc: ns(100),
            hyp_iommu_map: ns(300),
            hyp_iommu_unmap: ns(150),

            activation_fixed: ns(800),
            virq_upcall: ns(1500),
            native_isr: ns(1200),
        }
    }
}

impl CostModel {
    /// One validated enqueue hypercall: entry/exit, plus validating
    /// each descriptor it enqueued and reaping each one it completed.
    pub fn enqueue_hypercall(&self, out: &EnqueueOutcome) -> SimTime {
        self.hyp_hypercall_fixed
            + self.hyp_validate_desc * u64::from(out.enqueued)
            + self.hyp_reap_desc * u64::from(out.reaped)
    }

    /// One IOMMU hypercall: entry/exit, plus mapping `mapped` pages.
    pub fn iommu_hypercall(&self, mapped: u32) -> SimTime {
        self.hyp_hypercall_fixed + self.hyp_iommu_map * u64::from(mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_tx_anchor_close_to_2_28us() {
        let c = CostModel::default();
        let per_pkt = c.stack_tx_kernel + c.stack_tx_user + c.native_drv_tx;
        let us = per_pkt.as_us_f64();
        assert!((us - 2.28).abs() < 0.15, "native TX per packet {us}us");
    }

    #[test]
    fn native_rx_anchor_close_to_3_22us() {
        let c = CostModel::default();
        let per_pkt = c.stack_rx_kernel + c.stack_rx_user + c.native_drv_rx;
        let us = per_pkt.as_us_f64();
        assert!((us - 3.22).abs() < 0.15, "native RX per packet {us}us");
    }

    #[test]
    fn cdna_hypervisor_tx_share_near_0_64us() {
        // validation + reap + amortized hypercall (batch ~10) + amortized
        // interrupt dispatch (13.7k int/s at 159.8k pkt/s).
        let c = CostModel::default();
        let per_pkt = c.hyp_validate_desc.as_us_f64()
            + c.hyp_reap_desc.as_us_f64()
            + c.hyp_hypercall_fixed.as_us_f64() / 10.0
            + (c.hyp_isr_cdna.as_us_f64() + c.hyp_cdna_vint.as_us_f64()) * 13.7 / 159.8
            + c.hyp_evtchn_send.as_us_f64() * 13.7 / 159.8;
        assert!(
            (per_pkt - 0.64).abs() < 0.2,
            "CDNA hypervisor TX per packet {per_pkt}us"
        );
    }
}
