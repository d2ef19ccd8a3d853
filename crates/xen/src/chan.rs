//! The paravirtualized network channel between netfront and netback.
//!
//! This is Xen's split-driver I/O path (paper §2.1): the guest's
//! *netfront* exchanges packets with the driver domain's *netback*
//! through shared rings. Transmit buffers are grant-*mapped* (the page
//! stays guest-owned but is pinned while the driver domain and NIC use
//! it); receive packets are page-*flipped* (the driver domain's page
//! holding the packet is exchanged for an empty page the guest posted).
//! Both mechanisms go through real `cdna-mem` ownership operations, so
//! the baseline path exercises the same memory substrate CDNA does.

use std::collections::VecDeque;
use std::fmt;

use cdna_mem::{DomainId, MemError, PageId, PhysMem};
use cdna_net::Frame;

/// A packet crossing the front/back channel: frame metadata plus the
/// real page holding it.
#[derive(Debug, Clone, PartialEq)]
pub struct PvPacket {
    /// The frame (sizes/flow metadata).
    pub frame: Frame,
    /// The page holding the packet payload.
    pub page: PageId,
}

/// Errors from channel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The transmit ring is full; the frontend must wait for completions.
    TxRingFull,
    /// No receive credit (the guest posted no empty pages to flip).
    NoRxCredit,
    /// A memory-ownership operation failed.
    Mem(MemError),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::TxRingFull => write!(f, "frontend transmit ring full"),
            ChannelError::NoRxCredit => write!(f, "no receive credit posted"),
            ChannelError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<MemError> for ChannelError {
    fn from(e: MemError) -> Self {
        ChannelError::Mem(e)
    }
}

/// Lifetime counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Packets pushed front→back.
    pub tx_packets: u64,
    /// Packets pushed back→front.
    pub rx_packets: u64,
    /// Page-flip exchanges performed (one per received packet).
    pub page_flips: u64,
    /// Grant map/unmap pairs performed (one per transmitted packet).
    pub grant_maps: u64,
}

/// One guest's paravirtualized network channel.
///
/// # Example
///
/// ```
/// use cdna_mem::{DomainId, PhysMem};
/// use cdna_net::{FlowId, Frame, MacAddr};
/// use cdna_xen::{FrontBackChannel, PvPacket};
///
/// let mut mem = PhysMem::new(64);
/// let guest = DomainId::guest(0);
/// let mut chan = FrontBackChannel::new(guest, 8);
/// let page = mem.alloc(guest).unwrap();
/// let frame = Frame::tcp_data(MacAddr::for_context(0, 1), MacAddr::for_peer(0), 1460, FlowId::new(0, 0), 0);
/// chan.front_tx_push(PvPacket { frame, page }).unwrap();
/// let taken = chan.back_tx_take(16, &mut mem).unwrap();
/// assert_eq!(taken.len(), 1);
/// assert_eq!(mem.info(page).unwrap().pins, 1, "grant-mapped while in flight");
/// ```
#[derive(Debug, Clone)]
pub struct FrontBackChannel {
    guest: DomainId,
    tx_capacity: usize,
    /// Front→back packets awaiting netback pickup.
    tx_queue: VecDeque<PvPacket>,
    /// Pages grant-mapped by netback, in flight at the NIC.
    tx_inflight: VecDeque<PageId>,
    /// Completed transmit pages awaiting frontend pickup.
    tx_done: Vec<PageId>,
    /// Back→front delivered packets awaiting netfront pickup.
    rx_queue: VecDeque<PvPacket>,
    /// Empty guest pages posted for page-flipping.
    rx_credit: VecDeque<PageId>,
    stats: ChannelStats,
}

impl FrontBackChannel {
    /// A channel for `guest` with a transmit ring of `tx_capacity`
    /// slots.
    pub fn new(guest: DomainId, tx_capacity: usize) -> Self {
        assert!(tx_capacity > 0, "transmit ring must have capacity");
        FrontBackChannel {
            guest,
            tx_capacity,
            tx_queue: VecDeque::new(),
            tx_inflight: VecDeque::new(),
            tx_done: Vec::new(),
            rx_queue: VecDeque::new(),
            rx_credit: VecDeque::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The guest this channel belongs to.
    pub fn guest(&self) -> DomainId {
        self.guest
    }

    /// Counters for reports.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Free transmit-ring slots from the frontend's point of view.
    #[inline]
    pub fn tx_free(&self) -> usize {
        self.tx_capacity
            .saturating_sub(self.tx_queue.len() + self.tx_inflight.len() + self.tx_done.len())
    }

    /// Frontend: queues a packet for the driver domain.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TxRingFull`] when the ring has no free slot.
    pub fn front_tx_push(&mut self, pkt: PvPacket) -> Result<(), ChannelError> {
        if self.tx_free() == 0 {
            return Err(ChannelError::TxRingFull);
        }
        self.tx_queue.push_back(pkt);
        self.stats.tx_packets += 1;
        Ok(())
    }

    /// Packets waiting for netback pickup.
    #[inline]
    pub fn tx_pending(&self) -> usize {
        self.tx_queue.len()
    }

    /// Netback: takes up to `max` queued packets, grant-mapping
    /// (pinning) each page for the duration of the physical transmit.
    ///
    /// # Errors
    ///
    /// Propagates pin failures (a frontend passing a page it does not
    /// own — Xen would kill such a guest).
    pub fn back_tx_take(
        &mut self,
        max: usize,
        mem: &mut PhysMem,
    ) -> Result<Vec<PvPacket>, ChannelError> {
        let mut out = Vec::new();
        for _ in 0..max {
            let Some(pkt) = self.tx_queue.pop_front() else {
                break;
            };
            mem.validate_slice(
                self.guest,
                &cdna_mem::BufferSlice::new(pkt.page.base_addr(), pkt.frame.buffer_bytes()),
            )?;
            mem.pin(pkt.page)?;
            self.stats.grant_maps += 1;
            self.tx_inflight.push_back(pkt.page);
            out.push(pkt);
        }
        Ok(out)
    }

    /// Netback: the NIC finished transmitting `n` packets; unpin their
    /// pages and queue completions for the frontend.
    ///
    /// # Panics
    ///
    /// Panics if more completions are signalled than packets in flight.
    pub fn back_tx_complete(&mut self, n: usize, mem: &mut PhysMem) {
        for _ in 0..n {
            #[expect(clippy::expect_used, reason = "documented # Panics contract")]
            let page = self
                .tx_inflight
                .pop_front()
                .expect("completion without in-flight packet");
            #[expect(clippy::expect_used, reason = "documented # Panics contract")]
            mem.unpin(page).expect("grant-mapped page must unpin");
            self.tx_done.push(page);
        }
    }

    /// Netback: completes one *specific* in-flight transmit page —
    /// used when a packet was switched locally (guest-to-guest through
    /// the bridge) and finished out of order with respect to packets
    /// still at the physical NIC.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not in flight.
    pub fn back_tx_complete_page(&mut self, page: PageId, mem: &mut PhysMem) {
        #[expect(clippy::expect_used, reason = "documented # Panics contract")]
        let pos = self
            .tx_inflight
            .iter()
            .position(|&p| p == page)
            .expect("completion for a page not in flight");
        self.tx_inflight.remove(pos);
        #[expect(clippy::expect_used, reason = "documented # Panics contract")]
        mem.unpin(page).expect("grant-mapped page must unpin");
        self.tx_done.push(page);
    }

    /// Frontend: collects completed transmit pages (buffer reuse).
    pub fn front_take_tx_done(&mut self) -> Vec<PageId> {
        std::mem::take(&mut self.tx_done)
    }

    /// Frontend: posts an empty page as receive credit for flipping.
    pub fn front_post_rx_credit(&mut self, page: PageId) {
        self.rx_credit.push_back(page);
    }

    /// Receive credits currently posted.
    pub fn rx_credit(&self) -> usize {
        self.rx_credit.len()
    }

    /// Netback: delivers a received packet to the guest by page flip —
    /// the driver-domain page holding the packet is transferred to the
    /// guest, and one of the guest's credit pages is transferred back.
    /// Returns the page the driver domain received in exchange.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRxCredit`] when the guest posted no credit;
    /// ownership errors if either side offers a page it does not own.
    pub fn back_rx_push(
        &mut self,
        frame: Frame,
        packet_page: PageId,
        mem: &mut PhysMem,
    ) -> Result<PageId, ChannelError> {
        let credit = self.rx_credit.pop_front().ok_or(ChannelError::NoRxCredit)?;
        mem.transfer(packet_page, DomainId::DRIVER, self.guest)?;
        if let Err(e) = mem.transfer(credit, self.guest, DomainId::DRIVER) {
            // Roll the first transfer back to keep the exchange atomic.
            #[expect(clippy::expect_used, reason = "documented # Panics contract")]
            mem.transfer(packet_page, self.guest, DomainId::DRIVER)
                .expect("rollback of fresh transfer");
            self.rx_credit.push_front(credit);
            return Err(e.into());
        }
        self.stats.page_flips += 1;
        self.stats.rx_packets += 1;
        self.rx_queue.push_back(PvPacket {
            frame,
            page: packet_page,
        });
        Ok(credit)
    }

    /// Packets waiting for netfront pickup.
    #[inline]
    pub fn rx_pending(&self) -> usize {
        self.rx_queue.len()
    }

    /// Frontend: takes up to `max` delivered packets.
    #[inline]
    pub fn front_rx_take(&mut self, max: usize) -> Vec<PvPacket> {
        let n = max.min(self.rx_queue.len());
        self.rx_queue.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_net::{FlowId, MacAddr};

    fn frame(payload: u32) -> Frame {
        Frame::tcp_data(
            MacAddr::for_context(0, 1),
            MacAddr::for_peer(0),
            payload,
            FlowId::new(0, 0),
            0,
        )
    }

    fn setup() -> (PhysMem, FrontBackChannel, DomainId) {
        let mem = PhysMem::new(128);
        let guest = DomainId::guest(0);
        (mem, FrontBackChannel::new(guest, 4), guest)
    }

    #[test]
    fn tx_window_enforced() {
        let (mut mem, mut chan, guest) = setup();
        for _ in 0..4 {
            let page = mem.alloc(guest).unwrap();
            chan.front_tx_push(PvPacket {
                frame: frame(1460),
                page,
            })
            .unwrap();
        }
        let page = mem.alloc(guest).unwrap();
        assert_eq!(
            chan.front_tx_push(PvPacket {
                frame: frame(1460),
                page
            }),
            Err(ChannelError::TxRingFull)
        );
    }

    #[test]
    fn tx_lifecycle_pins_and_releases() {
        let (mut mem, mut chan, guest) = setup();
        let page = mem.alloc(guest).unwrap();
        chan.front_tx_push(PvPacket {
            frame: frame(1460),
            page,
        })
        .unwrap();
        let taken = chan.back_tx_take(8, &mut mem).unwrap();
        assert_eq!(taken.len(), 1);
        assert_eq!(mem.info(page).unwrap().pins, 1);
        assert_eq!(chan.tx_free(), 3, "slot still held until completion");
        chan.back_tx_complete(1, &mut mem);
        assert_eq!(mem.info(page).unwrap().pins, 0);
        assert_eq!(chan.tx_free(), 3, "slot held until frontend pickup");
        let done = chan.front_take_tx_done();
        assert_eq!(done, vec![page]);
        assert_eq!(chan.tx_free(), 4);
    }

    #[test]
    fn tx_with_foreign_page_rejected() {
        let (mut mem, mut chan, _guest) = setup();
        let foreign = mem.alloc(DomainId::guest(9)).unwrap();
        chan.front_tx_push(PvPacket {
            frame: frame(100),
            page: foreign,
        })
        .unwrap();
        let err = chan.back_tx_take(1, &mut mem).unwrap_err();
        assert!(matches!(err, ChannelError::Mem(MemError::NotOwner { .. })));
    }

    #[test]
    fn rx_flip_exchanges_ownership() {
        let (mut mem, mut chan, guest) = setup();
        let credit = mem.alloc(guest).unwrap();
        chan.front_post_rx_credit(credit);
        let pkt_page = mem.alloc(DomainId::DRIVER).unwrap();
        let got = chan.back_rx_push(frame(1460), pkt_page, &mut mem).unwrap();
        assert_eq!(got, credit);
        assert_eq!(mem.info(pkt_page).unwrap().owner, Some(guest));
        assert_eq!(mem.info(credit).unwrap().owner, Some(DomainId::DRIVER));
        let pkts = chan.front_rx_take(8);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].page, pkt_page);
        assert_eq!(chan.stats().page_flips, 1);
    }

    #[test]
    fn rx_without_credit_fails() {
        let (mut mem, mut chan, _) = setup();
        let pkt_page = mem.alloc(DomainId::DRIVER).unwrap();
        assert_eq!(
            chan.back_rx_push(frame(1460), pkt_page, &mut mem),
            Err(ChannelError::NoRxCredit)
        );
        // Ownership unchanged.
        assert_eq!(mem.info(pkt_page).unwrap().owner, Some(DomainId::DRIVER));
    }

    #[test]
    fn rx_flip_rolls_back_on_bad_credit() {
        let (mut mem, mut chan, guest) = setup();
        // Credit page the guest does not actually own.
        let bogus = mem.alloc(DomainId::guest(7)).unwrap();
        chan.front_post_rx_credit(bogus);
        let pkt_page = mem.alloc(DomainId::DRIVER).unwrap();
        let err = chan
            .back_rx_push(frame(100), pkt_page, &mut mem)
            .unwrap_err();
        assert!(matches!(err, ChannelError::Mem(MemError::NotOwner { .. })));
        assert_eq!(
            mem.info(pkt_page).unwrap().owner,
            Some(DomainId::DRIVER),
            "exchange must be atomic"
        );
        let _ = guest;
    }
}
