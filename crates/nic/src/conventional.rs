//! A conventional single-context NIC (Intel Pro/1000-class).
//!
//! This is the device the paper's Xen baseline uses: one pair of
//! descriptor rings, TSO, checksum offload, and interrupt coalescing.
//! It is driven exactly like real hardware: the driver writes
//! descriptors into host-memory rings, rings a doorbell with the new
//! producer index, and the NIC fetches descriptors and payloads by DMA
//! over the shared PCI bus.

use std::collections::VecDeque;

use cdna_mem::BufferSlice;
use cdna_net::{framing, Frame, MacAddr, PciBus};
use cdna_sim::SimTime;

use crate::{Coalescer, DescFlags, DmaDescriptor, RingError, RingId, RingTable};

/// Static configuration of a conventional NIC.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Whether the device segments TSO super-buffers itself.
    pub tso: bool,
    /// Minimum gap between transmit-completion interrupts.
    pub itr_tx: SimTime,
    /// Minimum gap between receive interrupts.
    pub itr_rx: SimTime,
    /// Firmware/MAC processing per transmitted frame (descriptor parse,
    /// buffer management) before it can hit the wire.
    pub fw_tx_per_frame: SimTime,
    /// Firmware/MAC processing per received frame.
    pub fw_rx_per_frame: SimTime,
    /// On-NIC transmit packet buffer; bounds DMA prefetch ahead of the
    /// wire (backpressure).
    pub tx_buffer_bytes: u32,
    /// How many descriptors one descriptor-fetch DMA covers.
    pub desc_fetch_batch: u32,
}

impl NicConfig {
    /// An Intel Pro/1000 MT-like device: TSO on, hardware-tuned
    /// coalescing. The ITR values are calibrated so a 2-NIC testbed shows
    /// interrupt rates near Table 2/3's Xen/Intel rows (7.4k/s TX,
    /// 11.1k/s RX across two NICs).
    pub fn intel_e1000() -> Self {
        NicConfig {
            tso: true,
            itr_tx: SimTime::from_us(268),
            itr_rx: SimTime::from_us(179),
            fw_tx_per_frame: SimTime::from_ns(150),
            fw_rx_per_frame: SimTime::from_ns(150),
            tx_buffer_bytes: 48 * 1024,
            desc_fetch_batch: 8,
        }
    }

    /// The RiceNIC running its *base* (non-CDNA) firmware, as used for
    /// the "Xen/RiceNIC" software-virtualization rows: no TSO, firmware
    /// on a 300 MHz PowerPC so higher per-frame cost, coalescing tuned
    /// like the paper's driver-domain configuration (8.8k/s TX, 10.9k/s
    /// RX across two NICs).
    pub fn ricenic_base() -> Self {
        NicConfig {
            tso: false,
            itr_tx: SimTime::from_us(226),
            itr_rx: SimTime::from_us(182),
            fw_tx_per_frame: SimTime::from_ns(900),
            fw_rx_per_frame: SimTime::from_ns(900),
            tx_buffer_bytes: 128 * 1024,
            desc_fetch_batch: 8,
        }
    }
}

/// Why a physical interrupt was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrqReason {
    /// Transmit completions are pending.
    Tx,
    /// Received packets are pending.
    Rx,
}

/// A frame the NIC is ready to serialize onto the wire at `ready_at`
/// (payload DMA complete + firmware processing done).
#[derive(Debug, Clone, PartialEq)]
pub struct TxEmission {
    /// The frame to transmit.
    pub frame: Frame,
    /// Earliest time the MAC may start serializing it.
    pub ready_at: SimTime,
    /// Monotonic index of the descriptor it came from.
    pub desc_idx: u64,
}

/// Outcome of a frame arriving from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum RxDisposition {
    /// Destination MAC did not match and the NIC is not promiscuous.
    Filtered,
    /// No receive descriptor was available; the frame is lost.
    DroppedNoBuffer,
    /// The posted buffer was too small for the frame; the frame is lost.
    DroppedTooSmall,
    /// The frame was DMAed into the host buffer `buf`; the host may see
    /// it from time `at`. `irq_at` asks the caller to schedule a
    /// physical interrupt (None if one is already pending).
    Delivered {
        /// The frame as delivered.
        frame: Frame,
        /// The host buffer it landed in.
        buf: BufferSlice,
        /// When the DMA (plus firmware processing) finished.
        at: SimTime,
        /// When to raise the receive interrupt, if one isn't pending.
        irq_at: Option<SimTime>,
    },
}

/// Result of pumping the transmit path, appended to an activity the
/// caller owns and clears between operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxActivity {
    /// Frames ready for the wire.
    pub emissions: Vec<TxEmission>,
    /// When to raise a transmit-completion interrupt, if requested.
    pub irq_at: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct InflightDesc {
    idx: u64,
    frames_left: u32,
}

/// Running counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames transmitted onto the wire.
    pub tx_frames: u64,
    /// TCP payload bytes transmitted.
    pub tx_payload_bytes: u64,
    /// Frames delivered to host buffers.
    pub rx_frames: u64,
    /// TCP payload bytes delivered.
    pub rx_payload_bytes: u64,
    /// Frames dropped for lack of a receive descriptor.
    pub rx_dropped: u64,
    /// Physical interrupts raised.
    pub interrupts: u64,
}

/// A conventional single-context NIC.
///
/// # Example
///
/// ```
/// use cdna_mem::PhysAddr;
/// use cdna_net::MacAddr;
/// use cdna_nic::{ConventionalNic, NicConfig, RingTable};
///
/// let mut rings = RingTable::new();
/// let tx = rings.create(PhysAddr(0x10000), 256);
/// let rx = rings.create(PhysAddr(0x20000), 256);
/// let nic = ConventionalNic::new(MacAddr::for_context(0, 0), NicConfig::intel_e1000(), tx, rx);
/// assert_eq!(nic.tx_consumer(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ConventionalNic {
    mac: MacAddr,
    promiscuous: bool,
    cfg: NicConfig,
    tx_ring: RingId,
    rx_ring: RingId,
    // TX state: monotonic counters.
    tx_seen_producer: u64,
    tx_fetched: u64,
    tx_completed: u64,
    tx_inflight_bytes: u32,
    inflight: VecDeque<InflightDesc>,
    // RX state.
    rx_posted: u64,
    rx_used: u64,
    coal_tx: Coalescer,
    coal_rx: Coalescer,
    stats: NicStats,
}

impl ConventionalNic {
    /// Creates a NIC with the given MAC, config, and rings.
    pub fn new(mac: MacAddr, cfg: NicConfig, tx_ring: RingId, rx_ring: RingId) -> Self {
        let coal_tx = Coalescer::new(cfg.itr_tx);
        let coal_rx = Coalescer::new(cfg.itr_rx);
        ConventionalNic {
            mac,
            promiscuous: false,
            cfg,
            tx_ring,
            rx_ring,
            tx_seen_producer: 0,
            tx_fetched: 0,
            tx_completed: 0,
            tx_inflight_bytes: 0,
            inflight: VecDeque::new(),
            rx_posted: 0,
            rx_used: 0,
            coal_tx,
            coal_rx,
            stats: NicStats::default(),
        }
    }

    /// The device MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Puts the device in promiscuous mode (required when it backs a
    /// software bridge, as in the Xen driver domain).
    pub fn set_promiscuous(&mut self, on: bool) {
        self.promiscuous = on;
    }

    /// The transmit descriptor ring.
    pub fn tx_ring(&self) -> RingId {
        self.tx_ring
    }

    /// The receive descriptor ring.
    pub fn rx_ring(&self) -> RingId {
        self.rx_ring
    }

    /// Monotonic count of fully transmitted descriptors; the driver
    /// reads this (via the DMA'd writeback) to reclaim buffers.
    #[inline]
    pub fn tx_consumer(&self) -> u64 {
        self.tx_completed
    }

    /// Monotonic count of consumed receive descriptors.
    pub fn rx_consumer(&self) -> u64 {
        self.rx_used
    }

    /// Receive descriptors still available.
    pub fn rx_available(&self) -> u64 {
        self.rx_posted - self.rx_used
    }

    /// Counters for reports.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Driver doorbell: new transmit descriptors up to `producer`. The
    /// frames this readies are appended to `act`.
    ///
    /// # Errors
    ///
    /// Fails if the ring id is stale or a fetched slot was never written
    /// (a driver bug this model surfaces loudly; a real conventional NIC
    /// would silently transmit garbage).
    #[inline]
    pub fn tx_doorbell(
        &mut self,
        now: SimTime,
        producer: u64,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut TxActivity,
    ) -> Result<(), RingError> {
        debug_assert!(producer >= self.tx_seen_producer, "producer went backwards");
        self.tx_seen_producer = self.tx_seen_producer.max(producer);
        self.pump_tx(now, rings, bus, act)
    }

    /// A frame previously emitted has finished serializing onto the wire.
    /// Completes descriptors and may fetch more (buffer space freed);
    /// the new frames and any interrupt request are appended to `act`.
    ///
    /// # Errors
    ///
    /// As [`ConventionalNic::tx_doorbell`].
    pub fn tx_frame_sent(
        &mut self,
        now: SimTime,
        frame: &Frame,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut TxActivity,
    ) -> Result<(), RingError> {
        self.tx_inflight_bytes = self.tx_inflight_bytes.saturating_sub(frame.buffer_bytes());
        self.stats.tx_frames += 1;
        self.stats.tx_payload_bytes += frame.tcp_payload as u64;

        let mut completed_any = false;
        if let Some(head) = self.inflight.front_mut() {
            debug_assert!(head.frames_left > 0);
            head.frames_left -= 1;
            if head.frames_left == 0 {
                #[expect(clippy::expect_used, reason = "guarded by frames_left")]
                let done = self.inflight.pop_front().expect("nonempty");
                self.tx_completed = done.idx + 1;
                completed_any = true;
                // Consumer-index writeback to host memory.
                bus.dma(now, 8);
            }
        }

        self.pump_tx(now, rings, bus, act)?;
        if completed_any {
            if let Some(at) = self.coal_tx.request(now) {
                act.irq_at = Some(at);
            }
        }
        Ok(())
    }

    /// Driver doorbell: receive descriptors posted up to `producer`.
    #[inline]
    pub fn rx_doorbell(&mut self, producer: u64) {
        debug_assert!(producer >= self.rx_posted, "rx producer went backwards");
        self.rx_posted = self.rx_posted.max(producer);
    }

    /// A frame arrived from the wire at `now`.
    pub fn frame_from_wire(
        &mut self,
        now: SimTime,
        frame: Frame,
        rings: &RingTable,
        bus: &mut PciBus,
    ) -> Result<RxDisposition, RingError> {
        if !self.promiscuous && frame.dst != self.mac && !frame.dst.is_broadcast() {
            return Ok(RxDisposition::Filtered);
        }
        if self.rx_used >= self.rx_posted {
            self.stats.rx_dropped += 1;
            return Ok(RxDisposition::DroppedNoBuffer);
        }
        let desc = rings.read(self.rx_ring, self.rx_used)?;
        if desc.buf.len < frame.buffer_bytes() {
            self.rx_used += 1;
            self.stats.rx_dropped += 1;
            return Ok(RxDisposition::DroppedTooSmall);
        }
        self.rx_used += 1;
        // The conventional NIC is the paper's unprotected baseline — it
        // trusts its rings by design; protection is the software bridge in
        // the driver domain, not the device.
        // cdna-check: allow(guest-taint): unprotected-baseline NIC by design
        let xfer = bus.dma(now, frame.buffer_bytes());
        // Consumer writeback rides along.
        bus.dma(xfer.done, 8);
        let at = xfer.done + self.cfg.fw_rx_per_frame;
        self.stats.rx_frames += 1;
        self.stats.rx_payload_bytes += frame.tcp_payload as u64;
        let irq_at = self.coal_rx.request(at);
        Ok(RxDisposition::Delivered {
            buf: desc.buf,
            frame,
            at,
            irq_at,
        })
    }

    /// The scheduled physical interrupt for `reason` was delivered.
    pub fn irq_fired(&mut self, now: SimTime, reason: IrqReason) {
        match reason {
            IrqReason::Tx => self.coal_tx.fired(now),
            IrqReason::Rx => self.coal_rx.fired(now),
        }
        self.stats.interrupts += 1;
    }

    /// Fetches and processes descriptors while buffer space allows.
    fn pump_tx(
        &mut self,
        now: SimTime,
        rings: &RingTable,
        bus: &mut PciBus,
        act: &mut TxActivity,
    ) -> Result<(), RingError> {
        while self.tx_fetched < self.tx_seen_producer
            && self.tx_inflight_bytes < self.cfg.tx_buffer_bytes
        {
            // Descriptor fetch: one bus transaction per batch.
            let batch_pos = (self.tx_fetched % self.cfg.desc_fetch_batch as u64) as u32;
            let mut ready_floor = now;
            if batch_pos == 0 {
                let remaining = (self.tx_seen_producer - self.tx_fetched)
                    .min(self.cfg.desc_fetch_batch as u64) as u32;
                let fetch = bus.dma(now, remaining * DmaDescriptor::WIRE_SIZE);
                ready_floor = fetch.done;
            }
            let idx = self.tx_fetched;
            let desc = rings.read(self.tx_ring, idx)?;
            self.tx_fetched += 1;

            #[expect(clippy::expect_used, reason = "tx descriptors always carry meta")]
            let meta = desc
                .meta
                .expect("transmit descriptor without frame metadata");
            // Segment in place rather than materializing a per-descriptor
            // segment list: a TSO super-buffer becomes MSS-sized chunks
            // plus a remainder, a plain descriptor exactly one frame
            // (even a zero-payload pure ACK).
            let is_tso = desc.flags.contains(DescFlags::TSO);
            let frames = if is_tso {
                assert!(self.cfg.tso, "TSO descriptor on non-TSO device");
                (meta.tcp_payload as u64).div_ceil(framing::MSS as u64) as u32
            } else {
                assert!(
                    meta.tcp_payload <= framing::MSS,
                    "oversized non-TSO descriptor"
                );
                1
            };

            self.inflight.push_back(InflightDesc {
                idx,
                frames_left: frames,
            });

            let mut flow_seq = meta.seq;
            let mut remaining = meta.tcp_payload as u64;
            for _ in 0..frames {
                let payload = if is_tso {
                    remaining.min(framing::MSS as u64) as u32
                } else {
                    meta.tcp_payload
                };
                remaining -= payload as u64;
                let frame = Frame::tcp_data(meta.src, meta.dst, payload, meta.flow, flow_seq);
                flow_seq += payload as u64;
                self.tx_inflight_bytes += frame.buffer_bytes();
                // Descriptors are trusted by design (see frame_from_wire).
                // cdna-check: allow(guest-taint): unprotected-baseline NIC
                let xfer = bus.dma(ready_floor, frame.buffer_bytes());
                let ready_at = xfer.done + self.cfg.fw_tx_per_frame;
                act.emissions.push(TxEmission {
                    frame,
                    ready_at,
                    desc_idx: idx,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameMeta;
    use cdna_mem::PhysAddr;
    use cdna_net::FlowId;

    fn setup() -> (RingTable, PciBus, ConventionalNic) {
        let mut rings = RingTable::new();
        let tx = rings.create(PhysAddr(0x10_0000), 256);
        let rx = rings.create(PhysAddr(0x20_0000), 256);
        let nic =
            ConventionalNic::new(MacAddr::for_context(0, 0), NicConfig::intel_e1000(), tx, rx);
        (rings, PciBus::new_64bit_66mhz(), nic)
    }

    fn tx_desc(rings: &mut RingTable, ring: RingId, idx: u64, payload: u32, flags: DescFlags) {
        let meta = FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, 0),
            tcp_payload: payload,
            flow: FlowId::new(0, 0),
            seq: idx * 10_000,
        };
        let buf = BufferSlice::new(PhysAddr(0x40_0000 + idx * 4096), payload.max(64));
        rings
            .get_mut(ring)
            .unwrap()
            .write_at(idx, DmaDescriptor::tx(buf, flags, meta));
    }

    #[test]
    fn doorbell_emits_frames() {
        let (mut rings, mut bus, mut nic) = setup();
        tx_desc(&mut rings, nic.tx_ring(), 0, 1460, DescFlags::END_OF_PACKET);
        tx_desc(&mut rings, nic.tx_ring(), 1, 1000, DescFlags::END_OF_PACKET);
        let mut act = TxActivity::default();
        nic.tx_doorbell(SimTime::ZERO, 2, &rings, &mut bus, &mut act)
            .unwrap();
        assert_eq!(act.emissions.len(), 2);
        assert_eq!(act.emissions[0].frame.tcp_payload, 1460);
        assert!(act.emissions[0].ready_at > SimTime::ZERO, "DMA takes time");
        assert_eq!(act.emissions[1].frame.tcp_payload, 1000);
    }

    #[test]
    fn tso_descriptor_is_segmented() {
        let (mut rings, mut bus, mut nic) = setup();
        tx_desc(
            &mut rings,
            nic.tx_ring(),
            0,
            framing::MSS * 3 + 10,
            DescFlags::END_OF_PACKET | DescFlags::TSO,
        );
        let mut act = TxActivity::default();
        nic.tx_doorbell(SimTime::ZERO, 1, &rings, &mut bus, &mut act)
            .unwrap();
        assert_eq!(act.emissions.len(), 4);
        let total: u32 = act.emissions.iter().map(|e| e.frame.tcp_payload).sum();
        assert_eq!(total, framing::MSS * 3 + 10);
        // All frames stem from descriptor 0, which completes only after
        // the last frame is sent.
        for e in &act.emissions {
            assert_eq!(e.desc_idx, 0);
        }
        for e in &act.emissions[..3] {
            nic.tx_frame_sent(
                e.ready_at,
                &e.frame,
                &rings,
                &mut bus,
                &mut TxActivity::default(),
            )
            .unwrap();
            assert_eq!(nic.tx_consumer(), 0);
        }
        let last = &act.emissions[3];
        nic.tx_frame_sent(
            last.ready_at,
            &last.frame,
            &rings,
            &mut bus,
            &mut TxActivity::default(),
        )
        .unwrap();
        assert_eq!(nic.tx_consumer(), 1);
    }

    #[test]
    fn completion_requests_interrupt() {
        let (mut rings, mut bus, mut nic) = setup();
        tx_desc(&mut rings, nic.tx_ring(), 0, 500, DescFlags::END_OF_PACKET);
        let mut act = TxActivity::default();
        nic.tx_doorbell(SimTime::ZERO, 1, &rings, &mut bus, &mut act)
            .unwrap();
        let e = &act.emissions[0];
        let mut done = TxActivity::default();
        nic.tx_frame_sent(e.ready_at, &e.frame, &rings, &mut bus, &mut done)
            .unwrap();
        assert!(done.irq_at.is_some());
        nic.irq_fired(done.irq_at.unwrap(), IrqReason::Tx);
        assert_eq!(nic.stats().interrupts, 1);
    }

    #[test]
    fn rx_requires_posted_descriptor() {
        let (rings, mut bus, mut nic) = setup();
        let frame = Frame::tcp_data(MacAddr::for_peer(0), nic.mac(), 1460, FlowId::new(0, 0), 0);
        let d = nic
            .frame_from_wire(SimTime::ZERO, frame, &rings, &mut bus)
            .unwrap();
        assert_eq!(d, RxDisposition::DroppedNoBuffer);
        assert_eq!(nic.stats().rx_dropped, 1);
    }

    #[test]
    fn rx_delivers_into_posted_buffer() {
        let (mut rings, mut bus, mut nic) = setup();
        let buf = BufferSlice::new(PhysAddr(0x50_0000), 1514);
        rings
            .get_mut(nic.rx_ring())
            .unwrap()
            .write_at(0, DmaDescriptor::rx(buf));
        nic.rx_doorbell(1);
        let frame = Frame::tcp_data(MacAddr::for_peer(0), nic.mac(), 1460, FlowId::new(0, 0), 0);
        match nic
            .frame_from_wire(SimTime::ZERO, frame, &rings, &mut bus)
            .unwrap()
        {
            RxDisposition::Delivered {
                buf: got,
                at,
                irq_at,
                ..
            } => {
                assert_eq!(got, buf);
                assert!(at > SimTime::ZERO);
                assert!(irq_at.is_some());
            }
            other @ (RxDisposition::Filtered
            | RxDisposition::DroppedNoBuffer
            | RxDisposition::DroppedTooSmall) => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(nic.rx_consumer(), 1);
        assert_eq!(nic.rx_available(), 0);
    }

    #[test]
    fn wrong_mac_filtered_unless_promiscuous() {
        let (mut rings, mut bus, mut nic) = setup();
        let buf = BufferSlice::new(PhysAddr(0x50_0000), 1514);
        rings
            .get_mut(nic.rx_ring())
            .unwrap()
            .write_at(0, DmaDescriptor::rx(buf));
        nic.rx_doorbell(1);
        let other_mac = MacAddr::for_context(0, 9);
        let frame = Frame::tcp_data(MacAddr::for_peer(0), other_mac, 100, FlowId::new(0, 0), 0);
        let d = nic
            .frame_from_wire(SimTime::ZERO, frame, &rings, &mut bus)
            .unwrap();
        assert_eq!(d, RxDisposition::Filtered);
        nic.set_promiscuous(true);
        let d = nic
            .frame_from_wire(SimTime::ZERO, frame, &rings, &mut bus)
            .unwrap();
        assert!(matches!(d, RxDisposition::Delivered { .. }));
    }

    #[test]
    fn too_small_buffer_drops_frame() {
        let (mut rings, mut bus, mut nic) = setup();
        let tiny = BufferSlice::new(PhysAddr(0x50_0000), 100);
        rings
            .get_mut(nic.rx_ring())
            .unwrap()
            .write_at(0, DmaDescriptor::rx(tiny));
        nic.rx_doorbell(1);
        let frame = Frame::tcp_data(MacAddr::for_peer(0), nic.mac(), 1460, FlowId::new(0, 0), 0);
        let d = nic
            .frame_from_wire(SimTime::ZERO, frame, &rings, &mut bus)
            .unwrap();
        assert_eq!(d, RxDisposition::DroppedTooSmall);
        // Descriptor is consumed even though the frame was dropped.
        assert_eq!(nic.rx_consumer(), 1);
    }

    #[test]
    fn tx_buffer_backpressure_limits_prefetch() {
        let (mut rings, mut bus, mut nic) = setup();
        // Queue far more than 48KB of frames; the NIC must not prefetch
        // them all at once.
        for i in 0..200 {
            tx_desc(&mut rings, nic.tx_ring(), i, 1460, DescFlags::END_OF_PACKET);
        }
        let mut act = TxActivity::default();
        nic.tx_doorbell(SimTime::ZERO, 200, &rings, &mut bus, &mut act)
            .unwrap();
        let queued: u32 = act.emissions.iter().map(|e| e.frame.buffer_bytes()).sum();
        assert!(
            queued <= 48 * 1024 + 1514,
            "prefetched {queued} bytes past the buffer"
        );
        assert!(act.emissions.len() < 200);
        // Draining one frame lets the NIC fetch more.
        let e = act.emissions[0].clone();
        let mut more = TxActivity::default();
        nic.tx_frame_sent(e.ready_at, &e.frame, &rings, &mut bus, &mut more)
            .unwrap();
        assert!(!more.emissions.is_empty());
    }

    #[test]
    fn stale_empty_slot_is_an_error() {
        let (rings, mut bus, mut nic) = setup();
        // Doorbell claims a descriptor exists but nothing was written.
        let err = nic.tx_doorbell(
            SimTime::ZERO,
            1,
            &rings,
            &mut bus,
            &mut TxActivity::default(),
        );
        assert!(matches!(err, Err(RingError::EmptySlot { .. })));
    }
}
