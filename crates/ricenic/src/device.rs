//! The CDNA-firmware RiceNIC device state machine.

use std::collections::VecDeque;
use std::fmt;

use cdna_core::{
    layout::Mailbox, BitVectorRing, ContextId, FaultKind, PerContextIommu, ProtectionFault,
    SeqChecker, VectorPort, CTX_COUNT,
};
use cdna_mem::BufferSlice;
use cdna_net::{framing, Frame, MacAddr, PciBus};
use cdna_nic::{
    Coalescer, DmaDescriptor, IrqReason, MailboxPage, RingError, RingId, RingTable, TxEmission,
};
use cdna_sim::SimTime;

use crate::{MailboxEventUnit, RiceNicConfig};

/// Errors from device operations (driver/hypervisor programming bugs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The context is not attached on the device.
    Unattached(ContextId),
    /// The mailbox index is outside the context's mailbox region.
    BadMailbox(usize),
    /// A descriptor ring operation failed.
    Ring(RingError),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Unattached(c) => write!(f, "context {c} is not attached"),
            DeviceError::BadMailbox(i) => write!(f, "mailbox index {i} out of range"),
            DeviceError::Ring(e) => write!(f, "ring error: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<RingError> for DeviceError {
    fn from(e: RingError) -> Self {
        DeviceError::Ring(e)
    }
}

/// A received frame delivered into a guest buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RxDelivery {
    /// The context (and hence guest) the frame was demultiplexed to.
    pub ctx: ContextId,
    /// The frame.
    pub frame: Frame,
    /// The guest buffer it landed in.
    pub buf: BufferSlice,
    /// When the DMA and firmware processing completed.
    pub at: SimTime,
}

/// Everything that resulted from one device input.
///
/// The device operations append to an activity the caller owns; the
/// caller interprets it and clears it before the next operation, so its
/// vectors' capacity is reused and nothing moves the whole struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Activity {
    /// Frames ready for the wire.
    pub emissions: Vec<TxEmission>,
    /// A physical interrupt to schedule, if one is not already pending.
    pub irq_at: Option<(SimTime, IrqReason)>,
    /// A received frame delivered to a guest buffer.
    pub delivered: Option<RxDelivery>,
    /// Protection faults raised (the context is halted).
    pub faults: Vec<ProtectionFault>,
    /// Whether an incoming frame was dropped.
    pub rx_dropped: bool,
}

impl Activity {
    fn merge_irq(&mut self, irq: Option<(SimTime, IrqReason)>) {
        if self.irq_at.is_none() {
            self.irq_at = irq;
        }
    }
}

/// Lifetime per-context counters exported into the metric registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextCounters {
    /// Transmit descriptors completed (DMA written back).
    pub tx_descriptors: u64,
    /// Receive descriptors consumed by deliveries.
    pub rx_descriptors: u64,
    /// Sequence numbers verified on this context (TX + RX), when
    /// sequence checking is enabled.
    pub seq_checks: u64,
}

/// Running counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiceNicStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// TCP payload bytes transmitted.
    pub tx_payload_bytes: u64,
    /// Frames delivered to guests.
    pub rx_frames: u64,
    /// TCP payload bytes delivered.
    pub rx_payload_bytes: u64,
    /// Frames dropped (no buffer / no context / faulted context).
    pub rx_dropped: u64,
    /// Physical interrupts raised.
    pub interrupts: u64,
    /// Interrupt bit vectors DMAed to the hypervisor.
    pub vectors_flushed: u64,
    /// Protection faults detected.
    pub faults: u64,
}

#[derive(Debug, Clone)]
struct CtxDev {
    mac: MacAddr,
    tx_ring: RingId,
    rx_ring: RingId,
    check_seq: bool,
    seq_tx: SeqChecker,
    seq_rx: SeqChecker,
    tx_seen_producer: u64,
    tx_fetch_cursor: u64,
    /// Fetched+validated descriptors awaiting payload DMA/emission.
    staged: VecDeque<(u64, DmaDescriptor)>,
    /// Emitted descriptor indices awaiting wire completion.
    inflight: VecDeque<u64>,
    tx_completed: u64,
    rx_posted: u64,
    rx_used: u64,
    faulted: bool,
}

/// The RiceNIC with CDNA firmware.
///
/// The hypervisor attaches contexts through the privileged management
/// interface ([`RiceNic::attach_context`]); guests then drive their
/// context purely through mailbox PIO writes
/// ([`RiceNic::mailbox_write_into`]). The system harness feeds wire and
/// bus events in and interprets the [`Activity`] each one appends to.
#[derive(Debug, Clone)]
pub struct RiceNic {
    index: u8,
    cfg: RiceNicConfig,
    mailboxes: Vec<MailboxPage>,
    events: MailboxEventUnit,
    ctxs: Vec<Option<CtxDev>>,
    vectors: VectorPort,
    coal_tx: Coalescer,
    coal_rx: Coalescer,
    tx_inflight_bytes: u32,
    /// Round-robin cursor for fair TX service across contexts.
    rr_cursor: usize,
    /// Bit `i` set when context `i` may have TX work: a doorbell moved
    /// its producer past its fetch cursor, or it has staged descriptors.
    /// The pump walks only these slots and clears the bit of any it
    /// finds idle, detached or faulted.
    tx_pending: u32,
    /// Origin context of each frame handed to the MAC, in wire order —
    /// how the firmware attributes completions (real hardware knows the
    /// originating context of every buffer; frame contents are opaque).
    wire_fifo: VecDeque<ContextId>,
    /// Context that receives frames whose destination MAC matches no
    /// context — the base-firmware behaviour when the NIC fronts a
    /// software bridge (Xen driver-domain mode).
    promiscuous_ctx: Option<ContextId>,
    /// Per-context IOMMU on the device's upstream port, when the
    /// platform provides one (paper §5.3 / `DmaPolicy::Iommu`).
    iommu: Option<PerContextIommu>,
    pending_faults: Vec<ProtectionFault>,
    stats: RiceNicStats,
}

impl RiceNic {
    /// Creates NIC number `index` (used to derive context MACs).
    pub fn new(index: u8, cfg: RiceNicConfig) -> Self {
        let coal_tx = Coalescer::new(cfg.coalesce_tx);
        let coal_rx = Coalescer::new(cfg.coalesce_rx);
        RiceNic {
            index,
            cfg,
            mailboxes: (0..CTX_COUNT).map(|_| MailboxPage::new()).collect(),
            events: MailboxEventUnit::new(),
            ctxs: (0..CTX_COUNT).map(|_| None).collect(),
            vectors: VectorPort::new(),
            coal_tx,
            coal_rx,
            tx_inflight_bytes: 0,
            rr_cursor: 0,
            tx_pending: 0,
            wire_fifo: VecDeque::new(),
            promiscuous_ctx: None,
            iommu: None,
            pending_faults: Vec::new(),
            stats: RiceNicStats::default(),
        }
    }

    /// Drops `act`. The in-place operations write into an activity the
    /// caller owns and clears, so there is nothing to hand back; this
    /// stays for callers of the by-value [`RiceNic::mailbox_write`] and
    /// [`RiceNic::frame_from_wire`] (`simbench`'s RX microbenchmark).
    pub fn recycle(&mut self, act: Activity) {
        drop(act);
    }

    /// Routes frames whose destination matches no context MAC to `ctx`
    /// (driver-domain / bridge mode). `None` restores strict demux.
    pub fn set_promiscuous_ctx(&mut self, ctx: Option<ContextId>) {
        self.promiscuous_ctx = ctx;
    }

    /// Installs a per-context IOMMU on the device's upstream port
    /// (paper §5.3). Every DMA of an IOMMU-enabled context is checked
    /// against its mapping table; violations fault the context.
    pub fn install_iommu(&mut self) {
        self.iommu = Some(PerContextIommu::new());
    }

    /// The installed IOMMU, if any (the hypervisor programs mappings
    /// through this).
    pub fn iommu_mut(&mut self) -> Option<&mut PerContextIommu> {
        self.iommu.as_mut()
    }

    /// Shared view of the installed IOMMU.
    pub fn iommu(&self) -> Option<&PerContextIommu> {
        self.iommu.as_ref()
    }

    /// The NIC's index on the machine.
    pub fn index(&self) -> u8 {
        self.index
    }

    /// The configuration in force.
    #[inline]
    pub fn config(&self) -> &RiceNicConfig {
        &self.cfg
    }

    /// Counters for reports.
    pub fn stats(&self) -> RiceNicStats {
        self.stats
    }

    /// The MAC address the device uses for `ctx`, namespaced by the
    /// configured rack host (host 0 reproduces the single-host layout).
    #[inline]
    pub fn mac_for(&self, ctx: ContextId) -> MacAddr {
        MacAddr::for_host_context(self.cfg.mac_host, self.index, ctx.0)
    }

    /// Privileged management: attaches `ctx` with the given rings.
    /// `check_seq` disables sequence verification for unprotected/IOMMU
    /// contexts (Table 4's ablation).
    ///
    /// # Errors
    ///
    /// Fails if a ring id is invalid.
    pub fn attach_context(
        &mut self,
        ctx: ContextId,
        tx_ring: RingId,
        rx_ring: RingId,
        check_seq: bool,
        rings: &RingTable,
    ) -> Result<(), DeviceError> {
        assert!(ctx.is_valid(), "context {ctx} out of range");
        #[expect(clippy::expect_used, reason = "format is a validated constant")]
        self.cfg
            .desc_format
            .validate()
            .expect("device advertises a well-formed descriptor format");
        let tx_size = rings.get(tx_ring)?.size();
        let rx_size = rings.get(rx_ring)?.size();
        let mac = self.mac_for(ctx);
        self.ctxs[ctx.0 as usize] = Some(CtxDev {
            mac,
            tx_ring,
            rx_ring,
            check_seq,
            seq_tx: SeqChecker::new((tx_size * 2).max(4)),
            seq_rx: SeqChecker::new((rx_size * 2).max(4)),
            tx_seen_producer: 0,
            tx_fetch_cursor: 0,
            staged: VecDeque::new(),
            inflight: VecDeque::new(),
            tx_completed: 0,
            rx_posted: 0,
            rx_used: 0,
            faulted: false,
        });
        self.mailboxes[ctx.0 as usize] = MailboxPage::new();
        self.events.clear_context(ctx);
        Ok(())
    }

    /// Privileged management: detaches `ctx`, shutting down all pending
    /// operations for exactly that context (paper §3.1 revocation).
    /// Returns the number of staged/in-flight operations dropped.
    pub fn detach_context(&mut self, ctx: ContextId) -> usize {
        self.events.clear_context(ctx);
        match self.ctxs[ctx.0 as usize].take() {
            Some(dev) => dev.staged.len() + dev.inflight.len(),
            None => 0,
        }
    }

    /// Whether `ctx` is attached.
    pub fn is_attached(&self, ctx: ContextId) -> bool {
        self.ctxs[ctx.0 as usize].is_some()
    }

    /// Whether `ctx` has been halted by a protection fault.
    pub fn is_faulted(&self, ctx: ContextId) -> bool {
        self.ctxs[ctx.0 as usize]
            .as_ref()
            .map(|c| c.faulted)
            .unwrap_or(false)
    }

    /// The DMA-written-back transmit consumer index of `ctx`.
    #[inline]
    pub fn tx_consumer(&self, ctx: ContextId) -> u64 {
        self.ctxs[ctx.0 as usize]
            .as_ref()
            .map(|c| c.tx_completed)
            .unwrap_or(0)
    }

    /// The DMA-written-back receive consumer index of `ctx`.
    #[inline]
    pub fn rx_consumer(&self, ctx: ContextId) -> u64 {
        self.ctxs[ctx.0 as usize]
            .as_ref()
            .map(|c| c.rx_used)
            .unwrap_or(0)
    }

    /// Lifetime per-context counters for metric export, or `None` if
    /// `ctx` is not attached.
    pub fn context_counters(&self, ctx: ContextId) -> Option<ContextCounters> {
        self.ctxs[ctx.0 as usize].as_ref().map(|c| ContextCounters {
            tx_descriptors: c.tx_completed,
            rx_descriptors: c.rx_used,
            seq_checks: c.seq_tx.checked() + c.seq_rx.checked(),
        })
    }

    /// Receive buffers still posted for `ctx`.
    pub fn rx_available(&self, ctx: ContextId) -> u64 {
        self.ctxs[ctx.0 as usize]
            .as_ref()
            .map(|c| c.rx_posted - c.rx_used)
            .unwrap_or(0)
    }

    /// Protection faults raised since the last call (the hypervisor
    /// collects these through the privileged context).
    pub fn take_faults(&mut self) -> Vec<ProtectionFault> {
        std::mem::take(&mut self.pending_faults)
    }

    /// [`RiceNic::mailbox_write_into`] into a fresh [`Activity`]: the
    /// by-value form `simbench`'s RX microbenchmark builds against.
    ///
    /// # Errors
    ///
    /// As [`RiceNic::mailbox_write_into`].
    pub fn mailbox_write(
        &mut self,
        now: SimTime,
        ctx: ContextId,
        mailbox: usize,
        value: u64,
        rings: &RingTable,
        bus: &mut PciBus,
    ) -> Result<Activity, DeviceError> {
        let mut act = Activity::default();
        self.mailbox_write_into(now, ctx, mailbox, value, rings, bus, &mut act)?;
        Ok(act)
    }

    /// A guest PIO write to mailbox `mailbox` of `ctx`; what the device
    /// does in response is appended to `act`.
    ///
    /// The hardware event unit records the write; the firmware decodes
    /// it and acts (producer updates pump the TX path or extend the RX
    /// pool).
    ///
    /// # Errors
    ///
    /// Fails on an unattached context or out-of-range mailbox. (A guest
    /// can never reach another guest's partition — the hypervisor only
    /// maps its own — so those failures indicate harness bugs, not
    /// attacks.)
    #[allow(clippy::too_many_arguments)] // the write's inputs plus the caller's activity
    pub fn mailbox_write_into(
        &mut self,
        now: SimTime,
        ctx: ContextId,
        mailbox: usize,
        value: u64,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut Activity,
    ) -> Result<(), DeviceError> {
        if !ctx.is_valid() || self.ctxs[ctx.0 as usize].is_none() {
            return Err(DeviceError::Unattached(ctx));
        }
        self.mailboxes[ctx.0 as usize]
            .write(mailbox, value)
            .map_err(DeviceError::BadMailbox)?;
        self.events.note_write(ctx, mailbox);

        // Firmware decodes the event hierarchy and handles the event.
        let fw_ready = now + self.cfg.mailbox_event_cost;
        while let Some((ectx, embox)) = self.events.pop_event() {
            let value = self.mailboxes[ectx.0 as usize].read(embox).unwrap_or(0);
            let dev = match self.ctxs[ectx.0 as usize].as_mut() {
                Some(d) if !d.faulted => d,
                _ => continue,
            };
            if embox == Mailbox::TxProducer.index() {
                dev.tx_seen_producer = dev.tx_seen_producer.max(value);
                if dev.tx_fetch_cursor < dev.tx_seen_producer {
                    self.tx_pending |= 1 << ectx.0;
                }
            } else if embox == Mailbox::RxProducer.index() {
                dev.rx_posted = dev.rx_posted.max(value);
            }
            // Enable/Reset mailboxes need no data-path action in the model.
        }
        self.pump_tx(fw_ready, rings, bus, act);
        Ok(())
    }

    /// Raw adversarial mailbox write: identical to
    /// [`RiceNic::mailbox_write_into`], but reachable for *any* context and
    /// value — the seam `cdna-fuzz` personas use to model a guest that
    /// scribbles on its mapped mailbox partition (replayed producer
    /// indices, doorbell storms, garbage words). The device-side
    /// semantics are exactly the production path: unknown contexts fail
    /// `Unattached`, out-of-range words fail `BadMailbox`, producer
    /// regressions are ignored by the monotonic `max`, and overruns
    /// fault the writing context only.
    ///
    /// # Panics
    ///
    /// Panics unless the firmware was built with
    /// [`RiceNicConfig::adversarial`] — the seam is test-only and must
    /// be armed explicitly.
    ///
    /// # Errors
    ///
    /// As [`RiceNic::mailbox_write_into`].
    #[allow(clippy::too_many_arguments)] // the write's inputs plus the caller's activity
    pub fn adversarial_mailbox_write(
        &mut self,
        now: SimTime,
        ctx: ContextId,
        mailbox: usize,
        value: u64,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut Activity,
    ) -> Result<(), DeviceError> {
        // Arming is a harness configuration error, not a runtime
        // condition, so a hard assert is the right failure mode.
        assert!(
            self.cfg.adversarial,
            "adversarial mailbox seam used without RiceNicConfig::adversarial"
        );
        self.mailbox_write_into(now, ctx, mailbox, value, rings, bus, act)
    }

    /// A previously emitted frame finished serializing onto the wire;
    /// what the device does in response is appended to `act`.
    pub fn tx_frame_sent(
        &mut self,
        now: SimTime,
        frame: &Frame,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut Activity,
    ) {
        self.tx_inflight_bytes = self.tx_inflight_bytes.saturating_sub(frame.buffer_bytes());
        self.stats.tx_frames += 1;
        self.stats.tx_payload_bytes += frame.tcp_payload as u64;

        let origin = self.wire_fifo.pop_front();
        debug_assert!(origin.is_some(), "completion without in-flight frame");
        if let Some(ctx) = origin {
            if let Some(dev) = self.ctxs[ctx.0 as usize].as_mut() {
                if let Some(idx) = dev.inflight.pop_front() {
                    dev.tx_completed = idx + 1;
                    // Consumer-pointer writeback to host memory (paper §3.2).
                    bus.dma(now, 8);
                    self.vectors.note_update(ctx);
                    act.merge_irq(self.coal_tx.request(now).map(|t| (t, IrqReason::Tx)));
                }
            }
        }
        self.pump_tx(now, rings, bus, act);
    }

    /// [`RiceNic::frame_from_wire_into`] into a fresh [`Activity`]: the
    /// by-value form `simbench`'s RX microbenchmark builds against.
    pub fn frame_from_wire(
        &mut self,
        now: SimTime,
        frame: Frame,
        rings: &RingTable,
        bus: &mut PciBus,
    ) -> Activity {
        let mut act = Activity::default();
        self.frame_from_wire_into(now, frame, rings, bus, &mut act);
        act
    }

    /// A frame arrived from the wire: demultiplex by destination MAC and
    /// deliver into the owning guest's posted buffer. The delivery, drop
    /// or fault is recorded in `act`.
    pub fn frame_from_wire_into(
        &mut self,
        now: SimTime,
        frame: Frame,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut Activity,
    ) {
        let Some(ctx) = self.ctx_by_mac(frame.dst).or(self.promiscuous_ctx) else {
            self.stats.rx_dropped += 1;
            act.rx_dropped = true;
            return;
        };
        #[expect(clippy::expect_used, reason = "slot filled while attached")]
        let dev = self.ctxs[ctx.0 as usize].as_mut().expect("attached");
        if dev.faulted || dev.rx_used >= dev.rx_posted {
            self.stats.rx_dropped += 1;
            act.rx_dropped = true;
            return;
        }
        // Fetch the next receive descriptor and verify it.
        let fetch = bus.dma(now, self.cfg.desc_format.size);
        let idx = dev.rx_used;
        #[expect(clippy::expect_used, reason = "ring created at attach")]
        let desc = match rings.get(dev.rx_ring).expect("ring exists").read_at(idx) {
            Some(d) => d,
            None => {
                let fault = ProtectionFault {
                    ctx,
                    kind: FaultKind::EmptySlot { index: idx },
                };
                dev.faulted = true;
                self.stats.faults += 1;
                self.pending_faults.push(fault);
                act.faults.push(fault);
                self.stats.rx_dropped += 1;
                act.rx_dropped = true;
                return;
            }
        };
        if dev.check_seq {
            if let Err(kind) = dev.seq_rx.check(desc.seq) {
                let fault = ProtectionFault { ctx, kind };
                dev.faulted = true;
                self.stats.faults += 1;
                self.pending_faults.push(fault);
                act.faults.push(fault);
                self.stats.rx_dropped += 1;
                act.rx_dropped = true;
                return;
            }
        }
        if let Some(iommu) = self.iommu.as_mut() {
            if let Err(v) = iommu.check(ctx, &desc.buf) {
                let fault = ProtectionFault {
                    ctx,
                    kind: FaultKind::IommuViolation { page: v.page },
                };
                dev.faulted = true;
                self.stats.faults += 1;
                self.pending_faults.push(fault);
                act.faults.push(fault);
                self.stats.rx_dropped += 1;
                act.rx_dropped = true;
                return;
            }
        }
        if desc.buf.len < frame.buffer_bytes() {
            dev.rx_used += 1;
            self.stats.rx_dropped += 1;
            act.rx_dropped = true;
            return;
        }
        dev.rx_used += 1;
        let xfer = bus.dma(fetch.done, frame.buffer_bytes());
        bus.dma(xfer.done, 8); // consumer writeback
        let at = xfer.done + self.cfg.fw_rx_per_frame;
        self.stats.rx_frames += 1;
        self.stats.rx_payload_bytes += frame.tcp_payload as u64;
        self.vectors.note_update(ctx);
        act.merge_irq(self.coal_rx.request(at).map(|t| (t, IrqReason::Rx)));
        act.delivered = Some(RxDelivery {
            ctx,
            frame,
            buf: desc.buf,
            at,
        });
    }

    /// The scheduled physical interrupt fires: flush the accumulated
    /// interrupt bit vector into the hypervisor's ring (the DMA the
    /// paper describes happening *before* the interrupt) and deliver.
    ///
    /// Returns `true` if a vector was flushed.
    pub fn irq_fired(
        &mut self,
        now: SimTime,
        reason: IrqReason,
        vec_ring: &mut BitVectorRing,
        bus: &mut PciBus,
    ) -> bool {
        match reason {
            IrqReason::Tx => self.coal_tx.fired(now),
            IrqReason::Rx => self.coal_rx.fired(now),
        }
        self.stats.interrupts += 1;
        if self.vectors.flush(vec_ring) {
            bus.dma(now, 4); // the 32-bit vector transfer
            self.stats.vectors_flushed += 1;
            true
        } else {
            false
        }
    }

    /// The attached context whose MAC is `mac`. The last octet of a
    /// context MAC is its slot (see [`RiceNic::mac_for`]), so the lookup
    /// decodes the slot and checks the full address against it; MACs of
    /// other hosts, other NICs and detached contexts miss.
    fn ctx_by_mac(&self, mac: MacAddr) -> Option<ContextId> {
        let slot = mac.0[5];
        self.ctxs
            .get(slot as usize)?
            .as_ref()
            .filter(|d| d.mac == mac)
            .map(|_| ContextId(slot))
    }

    /// Fairly services every context with pending TX descriptors:
    /// fetch+validate in batches, then emit one frame per context per
    /// round while the global packet buffer has room.
    ///
    /// Each round visits the [`RiceNic::tx_pending`] slots in
    /// round-robin order from `rr_cursor`. When the packet buffer fills,
    /// the cursor moves to the slot after the last emitter, so the next
    /// pump resumes there; otherwise it stays put.
    fn pump_tx(&mut self, now: SimTime, rings: &RingTable, bus: &mut PciBus, act: &mut Activity) {
        const _: () = assert!(
            CTX_COUNT == u32::BITS as usize,
            "tx_pending is one bit per slot"
        );
        if self.tx_inflight_bytes >= self.cfg.tx_buffer_bytes {
            return;
        }
        loop {
            let mut progressed = false;
            // Offsets from the cursor of the slots to visit this round;
            // visiting slot i only changes bit i, so a snapshot is exact.
            let mut round = self.tx_pending.rotate_right(self.rr_cursor as u32);
            while round != 0 {
                let off = round.trailing_zeros() as usize;
                round &= round - 1;
                let i = (self.rr_cursor + off) % CTX_COUNT;
                let Some(dev) = self.ctxs[i].as_mut().filter(|d| !d.faulted) else {
                    self.tx_pending &= !(1 << i);
                    continue;
                };
                let ctx = ContextId(i as u8);
                // Refill the staging queue with a batch of descriptors.
                if dev.staged.is_empty() && dev.tx_fetch_cursor < dev.tx_seen_producer {
                    let batch = (dev.tx_seen_producer - dev.tx_fetch_cursor)
                        .min(self.cfg.desc_fetch_batch as u64)
                        as u32;
                    let fetch = bus.dma(now, batch * self.cfg.desc_format.size);
                    for _ in 0..batch {
                        let idx = dev.tx_fetch_cursor;
                        #[expect(clippy::expect_used, reason = "ring created at attach")]
                        let desc = match rings.get(dev.tx_ring).expect("ring exists").read_at(idx) {
                            Some(d) => d,
                            None => {
                                let fault = ProtectionFault {
                                    ctx,
                                    kind: FaultKind::EmptySlot { index: idx },
                                };
                                dev.faulted = true;
                                dev.staged.clear();
                                self.stats.faults += 1;
                                self.pending_faults.push(fault);
                                act.faults.push(fault);
                                break;
                            }
                        };
                        if dev.check_seq {
                            if let Err(kind) = dev.seq_tx.check(desc.seq) {
                                let fault = ProtectionFault { ctx, kind };
                                dev.faulted = true;
                                dev.staged.clear();
                                self.stats.faults += 1;
                                self.pending_faults.push(fault);
                                act.faults.push(fault);
                                break;
                            }
                        }
                        if let Some(iommu) = self.iommu.as_mut() {
                            if let Err(v) = iommu.check(ctx, &desc.buf) {
                                let fault = ProtectionFault {
                                    ctx,
                                    kind: FaultKind::IommuViolation { page: v.page },
                                };
                                dev.faulted = true;
                                dev.staged.clear();
                                self.stats.faults += 1;
                                self.pending_faults.push(fault);
                                act.faults.push(fault);
                                break;
                            }
                        }
                        dev.tx_fetch_cursor += 1;
                        dev.staged.push_back((idx, desc));
                    }
                    let _ = fetch;
                }
                // Emit one frame from this context, then move on (fair
                // interleaving across contexts, paper §3.1).
                if let Some((idx, desc)) = dev.staged.pop_front() {
                    #[expect(clippy::expect_used, reason = "tx descriptors always carry meta")]
                    let meta = desc.meta.expect("tx descriptor carries metadata");
                    assert!(
                        meta.tcp_payload <= framing::MSS,
                        "RiceNIC has no TSO; driver must segment"
                    );
                    let frame =
                        Frame::tcp_data(meta.src, meta.dst, meta.tcp_payload, meta.flow, meta.seq);
                    self.tx_inflight_bytes += frame.buffer_bytes();
                    let xfer = bus.dma(now, frame.buffer_bytes());
                    let ready_at = xfer.done + self.cfg.fw_tx_per_frame;
                    dev.inflight.push_back(idx);
                    self.wire_fifo.push_back(ctx);
                    act.emissions.push(TxEmission {
                        frame,
                        ready_at,
                        desc_idx: idx,
                    });
                    progressed = true;
                }
                if dev.staged.is_empty() && dev.tx_fetch_cursor >= dev.tx_seen_producer {
                    self.tx_pending &= !(1 << i);
                }
                if self.tx_inflight_bytes >= self.cfg.tx_buffer_bytes {
                    self.rr_cursor = (i + 1) % CTX_COUNT;
                    return;
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_core::InterruptBitVector;
    use cdna_mem::PhysAddr;
    use cdna_net::FlowId;
    use cdna_nic::{DescFlags, FrameMeta};

    struct Fix {
        rings: RingTable,
        bus: PciBus,
        nic: RiceNic,
        ctx: ContextId,
        tx_ring: RingId,
        rx_ring: RingId,
        seq: u32,
    }

    impl Fix {
        /// Writes `value` into `mailbox` of `ctx`; the device's activity.
        fn write(&mut self, now: SimTime, ctx: ContextId, mailbox: usize, value: u64) -> Activity {
            let mut act = Activity::default();
            self.nic
                .mailbox_write_into(
                    now,
                    ctx,
                    mailbox,
                    value,
                    &self.rings,
                    &mut self.bus,
                    &mut act,
                )
                .unwrap();
            act
        }

        /// Completes `frame` on the wire; the device's activity.
        fn sent(&mut self, now: SimTime, frame: &Frame) -> Activity {
            let mut act = Activity::default();
            self.nic
                .tx_frame_sent(now, frame, &self.rings, &mut self.bus, &mut act);
            act
        }

        /// Delivers `frame` from the wire; the device's activity.
        fn arrive(&mut self, now: SimTime, frame: Frame) -> Activity {
            let mut act = Activity::default();
            self.nic
                .frame_from_wire_into(now, frame, &self.rings, &mut self.bus, &mut act);
            act
        }
    }

    fn fix() -> Fix {
        fix_with(RiceNicConfig::default())
    }

    fn fix_with(cfg: RiceNicConfig) -> Fix {
        let mut rings = RingTable::new();
        let tx_ring = rings.create(PhysAddr(0x100_000), 16);
        let rx_ring = rings.create(PhysAddr(0x200_000), 16);
        let mut nic = RiceNic::new(0, cfg);
        let ctx = ContextId(1);
        nic.attach_context(ctx, tx_ring, rx_ring, true, &rings)
            .unwrap();
        Fix {
            rings,
            bus: PciBus::new_64bit_66mhz(),
            nic,
            ctx,
            tx_ring,
            rx_ring,
            seq: 0,
        }
    }

    fn write_tx(f: &mut Fix, idx: u64, payload: u32) {
        let meta = FrameMeta {
            dst: MacAddr::for_peer(0),
            src: f.nic.mac_for(f.ctx),
            tcp_payload: payload,
            flow: FlowId::new(0, 0),
            seq: idx * 1460,
        };
        let mut d = DmaDescriptor::tx(
            BufferSlice::new(PhysAddr(0x400_000 + idx * 4096), 1514),
            DescFlags::END_OF_PACKET,
            meta,
        );
        d.seq = f.seq;
        f.seq = (f.seq + 1) % 32;
        f.rings.get_mut(f.tx_ring).unwrap().write_at(idx, d);
    }

    fn write_rx(f: &mut Fix, idx: u64) {
        let mut d = DmaDescriptor::rx(BufferSlice::new(PhysAddr(0x600_000 + idx * 4096), 1514));
        d.seq = (idx % 32) as u32;
        f.rings.get_mut(f.rx_ring).unwrap().write_at(idx, d);
    }

    #[test]
    fn doorbell_emits_frames_with_valid_seqnums() {
        let mut f = fix();
        write_tx(&mut f, 0, 1460);
        write_tx(&mut f, 1, 1000);
        let act = f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 2);
        assert_eq!(act.emissions.len(), 2);
        assert!(act.faults.is_empty());
        assert!(act.emissions[0].ready_at > SimTime::ZERO);
    }

    #[test]
    fn producer_overrun_detected_as_stale_or_empty() {
        let mut f = fix();
        write_tx(&mut f, 0, 1460);
        // Claim two descriptors while only one was (hypervisor-)written.
        let act = f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 2);
        assert_eq!(act.faults.len(), 1);
        assert!(matches!(act.faults[0].kind, FaultKind::EmptySlot { .. }));
        assert!(f.nic.is_faulted(f.ctx));
        // Only the valid frame (at most) made it out; the context halts.
        assert!(act.emissions.len() <= 1);
    }

    #[test]
    fn stale_replayed_descriptor_faults() {
        let mut f = fix();
        // Fill a full lap of 16 valid descriptors and transmit them.
        for i in 0..16 {
            write_tx(&mut f, i, 1460);
        }
        let act = f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 16);
        assert_eq!(act.emissions.len(), 16);
        for e in &act.emissions {
            f.sent(e.ready_at, &e.frame);
        }
        // The driver now overruns by one lap: slot 0 holds the stale
        // descriptor with seq 0 while 16 is expected.
        let act = f.write(SimTime::from_ms(1), f.ctx, Mailbox::TxProducer.index(), 17);
        assert_eq!(act.faults.len(), 1);
        assert!(matches!(
            act.faults[0].kind,
            FaultKind::StaleSequence {
                expected: 16,
                found: 0
            }
        ));
    }

    #[test]
    fn fault_isolates_a_single_context() {
        let mut f = fix();
        // Attach a second context.
        let tx2 = f.rings.create(PhysAddr(0x300_000), 16);
        let rx2 = f.rings.create(PhysAddr(0x310_000), 16);
        let ctx2 = ContextId(2);
        f.nic
            .attach_context(ctx2, tx2, rx2, true, &f.rings)
            .unwrap();
        // Fault context 1 by overrunning.
        let _ = f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 1);
        assert!(f.nic.is_faulted(f.ctx));
        assert!(!f.nic.is_faulted(ctx2));
        // Context 2 still transmits.
        let meta = FrameMeta {
            dst: MacAddr::for_peer(0),
            src: f.nic.mac_for(ctx2),
            tcp_payload: 100,
            flow: FlowId::new(1, 0),
            seq: 0,
        };
        let mut d = DmaDescriptor::tx(
            BufferSlice::new(PhysAddr(0x700_000), 200),
            DescFlags::END_OF_PACKET,
            meta,
        );
        d.seq = 0;
        f.rings.get_mut(tx2).unwrap().write_at(0, d);
        let act = f.write(SimTime::from_us(1), ctx2, Mailbox::TxProducer.index(), 1);
        assert_eq!(act.emissions.len(), 1);
    }

    #[test]
    fn rx_demux_by_mac_and_delivery() {
        let mut f = fix();
        write_rx(&mut f, 0);
        f.write(SimTime::ZERO, f.ctx, Mailbox::RxProducer.index(), 1);
        let frame = Frame::tcp_data(
            MacAddr::for_peer(0),
            f.nic.mac_for(f.ctx),
            1460,
            FlowId::new(0, 0),
            0,
        );
        let act = f.arrive(SimTime::from_us(5), frame);
        let d = act.delivered.expect("delivered");
        assert_eq!(d.ctx, f.ctx);
        assert!(d.at > SimTime::from_us(5));
        assert!(act.irq_at.is_some());
        assert_eq!(f.nic.rx_consumer(f.ctx), 1);
    }

    #[test]
    fn rx_to_unknown_mac_is_dropped() {
        let mut f = fix();
        let frame = Frame::tcp_data(
            MacAddr::for_peer(0),
            MacAddr::for_context(0, 9), // unattached context MAC
            1460,
            FlowId::new(0, 0),
            0,
        );
        let act = f.arrive(SimTime::ZERO, frame);
        assert!(act.rx_dropped);
        assert_eq!(f.nic.stats().rx_dropped, 1);
    }

    #[test]
    fn mac_demux_checks_the_whole_address() {
        let mut f = fix();
        let own = f.nic.mac_for(f.ctx);
        assert_eq!(f.nic.ctx_by_mac(own), Some(f.ctx));
        // Same slot octet, but another rack host or another NIC.
        assert_eq!(
            f.nic.ctx_by_mac(MacAddr::for_host_context(1, 0, f.ctx.0)),
            None
        );
        assert_eq!(f.nic.ctx_by_mac(MacAddr::for_context(1, f.ctx.0)), None);
        // Last octets that name no slot, or an empty one.
        assert_eq!(f.nic.ctx_by_mac(MacAddr::for_vif(200)), None);
        assert_eq!(f.nic.ctx_by_mac(MacAddr::for_context(0, 9)), None);
        assert_eq!(f.nic.ctx_by_mac(MacAddr::BROADCAST), None);
        // A detached context's address stops matching.
        f.nic.detach_context(f.ctx);
        assert_eq!(f.nic.ctx_by_mac(own), None);
    }

    #[test]
    fn unmatched_macs_fall_back_to_the_promiscuous_context() {
        let mut f = fix();
        write_rx(&mut f, 0);
        f.write(SimTime::ZERO, f.ctx, Mailbox::RxProducer.index(), 1);
        f.nic.set_promiscuous_ctx(Some(f.ctx));
        // A vif address (bridge mode) whose last octet is out of slot
        // range still reaches the promiscuous context.
        let frame = Frame::tcp_data(
            MacAddr::for_peer(0),
            MacAddr::for_vif(200),
            1460,
            FlowId::new(0, 0),
            0,
        );
        let act = f.arrive(SimTime::ZERO, frame);
        assert_eq!(act.delivered.expect("delivered").ctx, f.ctx);
    }

    #[test]
    fn rx_without_posted_buffer_drops() {
        let mut f = fix();
        let frame = Frame::tcp_data(
            MacAddr::for_peer(0),
            f.nic.mac_for(f.ctx),
            1460,
            FlowId::new(0, 0),
            0,
        );
        let act = f.arrive(SimTime::ZERO, frame);
        assert!(act.rx_dropped);
    }

    #[test]
    fn interrupt_flushes_bit_vector_before_delivery() {
        let mut f = fix();
        write_tx(&mut f, 0, 1460);
        let act = f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 1);
        let e = &act.emissions[0];
        let done = f.sent(e.ready_at, &e.frame);
        let (irq_at, reason) = done.irq_at.expect("completion requests irq");
        let mut ring = BitVectorRing::new(8);
        assert!(f.nic.irq_fired(irq_at, reason, &mut ring, &mut f.bus));
        let v = ring.drain();
        assert_eq!(v, {
            let mut x = InterruptBitVector::EMPTY;
            x.set(f.ctx);
            x
        });
        assert_eq!(f.nic.stats().vectors_flushed, 1);
    }

    #[test]
    fn fair_round_robin_across_contexts() {
        let mut f = fix();
        let tx2 = f.rings.create(PhysAddr(0x300_000), 16);
        let rx2 = f.rings.create(PhysAddr(0x310_000), 16);
        let ctx2 = ContextId(2);
        f.nic
            .attach_context(ctx2, tx2, rx2, true, &f.rings)
            .unwrap();
        // Queue 4 descriptors on each context, then doorbell both.
        for i in 0..4 {
            write_tx(&mut f, i, 1460);
        }
        for i in 0..4u64 {
            let meta = FrameMeta {
                dst: MacAddr::for_peer(0),
                src: f.nic.mac_for(ctx2),
                tcp_payload: 1460,
                flow: FlowId::new(1, 0),
                seq: i * 1460,
            };
            let mut d = DmaDescriptor::tx(
                BufferSlice::new(PhysAddr(0x800_000 + i * 4096), 1514),
                DescFlags::END_OF_PACKET,
                meta,
            );
            d.seq = i as u32;
            f.rings.get_mut(tx2).unwrap().write_at(i, d);
        }
        f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 4);
        let act2 = f.write(SimTime::ZERO, ctx2, Mailbox::TxProducer.index(), 4);
        // After the second doorbell both contexts have pending frames;
        // the emission order must interleave them rather than draining
        // one context first. (The first doorbell already emitted ctx1's
        // 4 frames since it was alone; check the pattern within act2.)
        let srcs: Vec<MacAddr> = act2.emissions.iter().map(|e| e.frame.src).collect();
        assert!(!srcs.is_empty());
        assert!(
            srcs.contains(&f.nic.mac_for(ctx2)),
            "second context starved"
        );

        // A packet buffer that fills mid-round. Three 1514-byte frames
        // fit; ctx1 fills it with one descriptor left staged, so the
        // cursor moves to slot 2. ctx2 and ctx3 ring while it is full.
        let mut f = fix_with(RiceNicConfig {
            tx_buffer_bytes: 3 * 1514,
            ..RiceNicConfig::default()
        });
        let mut rings_for = vec![(f.ctx, f.tx_ring)];
        for (slot, base) in [(2u8, 0x300_000u64), (3, 0x320_000)] {
            let tx = f.rings.create(PhysAddr(base), 16);
            let rx = f.rings.create(PhysAddr(base + 0x10_000), 16);
            f.nic
                .attach_context(ContextId(slot), tx, rx, true, &f.rings)
                .unwrap();
            rings_for.push((ContextId(slot), tx));
        }
        let queue = |f: &mut Fix, (ctx, ring): (ContextId, RingId), n: u64, payload: u32| {
            for i in 0..n {
                let meta = FrameMeta {
                    dst: MacAddr::for_peer(0),
                    src: f.nic.mac_for(ctx),
                    tcp_payload: payload,
                    flow: FlowId::new(ctx.0 as u16, 0),
                    seq: i * 1460,
                };
                let mut d = DmaDescriptor::tx(
                    BufferSlice::new(PhysAddr(0x900_000 + i * 4096), 1514),
                    DescFlags::END_OF_PACKET,
                    meta,
                );
                d.seq = i as u32;
                f.rings.get_mut(ring).unwrap().write_at(i, d);
            }
        };
        let ring = |f: &mut Fix, ctx: ContextId, n: u64| {
            f.write(SimTime::ZERO, ctx, Mailbox::TxProducer.index(), n)
                .emissions
        };
        let slots =
            |em: &[TxEmission]| -> Vec<u8> { em.iter().map(|e| e.frame.src.0[5]).collect() };
        queue(&mut f, rings_for[0], 4, 1460);
        let first = ring(&mut f, ContextId(1), 4);
        assert_eq!(slots(&first), [1, 1, 1]);
        assert_eq!(f.nic.rr_cursor, 2);
        queue(&mut f, rings_for[1], 1, 500);
        queue(&mut f, rings_for[2], 1, 1460);
        assert!(ring(&mut f, ContextId(2), 1).is_empty());
        assert!(ring(&mut f, ContextId(3), 1).is_empty());
        assert_eq!(f.nic.rr_cursor, 2, "a full buffer leaves the cursor alone");
        // One completion frees 1514 bytes: ctx2 (554 B) and ctx3 (1514 B)
        // go out from the cursor, the buffer fills at ctx3, and ctx1's
        // staged frame waits with the cursor just past ctx3.
        let sent = f.sent(SimTime::from_us(20), &first[0].frame);
        assert_eq!(slots(&sent.emissions), [2, 3]);
        assert_eq!(f.nic.rr_cursor, 4);
        // The next completion resumes there and wraps to ctx1.
        let sent = f.sent(SimTime::from_us(40), &first[1].frame);
        assert_eq!(slots(&sent.emissions), [1]);
        assert_eq!(f.nic.rr_cursor, 2);
        assert_eq!(f.nic.tx_pending, 0, "every ring drained");
    }

    #[test]
    fn detach_shuts_down_pending_work() {
        let mut f = fix();
        for i in 0..4 {
            write_tx(&mut f, i, 1460);
        }
        let act = f.write(SimTime::ZERO, f.ctx, Mailbox::TxProducer.index(), 4);
        assert!(!act.emissions.is_empty());
        let dropped = f.nic.detach_context(f.ctx);
        assert!(dropped > 0);
        assert!(!f.nic.is_attached(f.ctx));
        // Mailbox writes now fail.
        let err = f.nic.mailbox_write_into(
            SimTime::ZERO,
            f.ctx,
            Mailbox::TxProducer.index(),
            5,
            &f.rings,
            &mut f.bus,
            &mut Activity::default(),
        );
        assert_eq!(err, Err(DeviceError::Unattached(f.ctx)));
    }

    #[test]
    fn unchecked_context_skips_seq_validation() {
        let mut f = fix();
        let tx2 = f.rings.create(PhysAddr(0x300_000), 16);
        let rx2 = f.rings.create(PhysAddr(0x310_000), 16);
        let ctx2 = ContextId(2);
        f.nic
            .attach_context(ctx2, tx2, rx2, false, &f.rings)
            .unwrap();
        // Write a descriptor with a wild sequence number.
        let meta = FrameMeta {
            dst: MacAddr::for_peer(0),
            src: f.nic.mac_for(ctx2),
            tcp_payload: 100,
            flow: FlowId::new(1, 0),
            seq: 0,
        };
        let mut d = DmaDescriptor::tx(
            BufferSlice::new(PhysAddr(0x900_000), 200),
            DescFlags::END_OF_PACKET,
            meta,
        );
        d.seq = 777;
        f.rings.get_mut(tx2).unwrap().write_at(0, d);
        let act = f.write(SimTime::ZERO, ctx2, Mailbox::TxProducer.index(), 1);
        assert!(act.faults.is_empty());
        assert_eq!(act.emissions.len(), 1);
    }
}
