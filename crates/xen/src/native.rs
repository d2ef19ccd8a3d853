//! An unmodified-OS style driver for the conventional NIC.
//!
//! Used in two places, exactly as in the paper: natively (Table 1's
//! baseline row) and inside the driver domain, where it terminates the
//! physical NIC under the Ethernet bridge. It manages a buffer pool,
//! builds DMA descriptors, rings doorbells, reclaims completions, and
//! keeps the receive ring replenished.

use std::collections::VecDeque;
use std::fmt;

use cdna_mem::{BufferSlice, DomainId, MemError, PageId, PhysMem, PAGE_SIZE};
use cdna_net::framing;
use cdna_nic::{DescFlags, DmaDescriptor, FrameMeta, RingError, RingId, RingTable};

/// Where a transmit buffer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOrigin {
    /// The driver's own pool; reclaimed buffers return to it.
    Pool(BufferSlice),
    /// A foreign (guest) page queued by netback; the completion must be
    /// routed back to that guest's channel.
    Extern {
        /// The guest whose packet this was.
        guest: DomainId,
    },
}

/// Errors from driver operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverError {
    /// The transmit buffer pool is empty.
    NoTxBuffer,
    /// The transmit descriptor ring is full.
    TxRingFull,
    /// The payload does not fit the driver's buffer size.
    PayloadTooLarge(u32),
    /// Ring access failed.
    Ring(RingError),
    /// Memory allocation failed.
    Mem(MemError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NoTxBuffer => write!(f, "transmit buffer pool exhausted"),
            DriverError::TxRingFull => write!(f, "transmit descriptor ring full"),
            DriverError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds buffer"),
            DriverError::Ring(e) => write!(f, "ring error: {e}"),
            DriverError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<RingError> for DriverError {
    fn from(e: RingError) -> Self {
        DriverError::Ring(e)
    }
}

impl From<MemError> for DriverError {
    fn from(e: MemError) -> Self {
        DriverError::Mem(e)
    }
}

/// Lifetime counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeDriverStats {
    /// Transmit descriptors queued.
    pub tx_queued: u64,
    /// Receive buffers posted.
    pub rx_posted: u64,
    /// Doorbell PIO writes.
    pub doorbells: u64,
}

/// The driver state for one conventional NIC.
///
/// # Example
///
/// ```
/// use cdna_mem::{DomainId, PhysMem};
/// use cdna_nic::RingTable;
/// use cdna_xen::NativeDriver;
///
/// let mut mem = PhysMem::new(512);
/// let mut rings = RingTable::new();
/// let tx = rings.create(cdna_mem::PhysAddr(0), 256);
/// let rx = rings.create(cdna_mem::PhysAddr(0x1000), 256);
/// let drv = NativeDriver::allocate(DomainId::DRIVER, true, 8, 64, tx, rx, &mut mem)?;
/// assert!(drv.tx_buffers_free() == 8);
/// # Ok::<(), cdna_xen::DriverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NativeDriver {
    owner: DomainId,
    tso: bool,
    tx_ring: RingId,
    rx_ring: RingId,
    tx_pool: Vec<BufferSlice>,
    rx_pool: Vec<PageId>,
    tx_prod: u64,
    rx_prod: u64,
    tx_inflight: VecDeque<(u64, TxOrigin)>,
    rx_posted: VecDeque<PageId>,
    stats: NativeDriverStats,
}

/// Pages per TSO super-buffer (64 KB).
const TSO_CHUNK_PAGES: u32 = 16;

impl NativeDriver {
    /// Allocates buffer pools from `mem` and builds the driver.
    ///
    /// With `tso` each of the `tx_buffers` is a contiguous 64 KB chunk;
    /// otherwise a single page. `rx_buffers` single pages are allocated
    /// but **not** yet posted — call [`NativeDriver::post_rx`].
    ///
    /// # Errors
    ///
    /// Fails if memory is exhausted.
    pub fn allocate(
        owner: DomainId,
        tso: bool,
        tx_buffers: u32,
        rx_buffers: u32,
        tx_ring: RingId,
        rx_ring: RingId,
        mem: &mut PhysMem,
    ) -> Result<Self, DriverError> {
        let mut tx_pool = Vec::with_capacity(tx_buffers as usize);
        for _ in 0..tx_buffers {
            let buf = if tso {
                let first = mem.alloc_contiguous(owner, TSO_CHUNK_PAGES)?;
                BufferSlice::new(first.base_addr(), TSO_CHUNK_PAGES * PAGE_SIZE as u32)
            } else {
                let page = mem.alloc(owner)?;
                BufferSlice::new(page.base_addr(), PAGE_SIZE as u32)
            };
            tx_pool.push(buf);
        }
        let rx_pool = mem.alloc_many(owner, rx_buffers)?;
        Ok(NativeDriver {
            owner,
            tso,
            tx_ring,
            rx_ring,
            tx_pool,
            rx_pool,
            tx_prod: 0,
            rx_prod: 0,
            tx_inflight: VecDeque::new(),
            rx_posted: VecDeque::new(),
            stats: NativeDriverStats::default(),
        })
    }

    /// The domain that owns the driver's buffers.
    pub fn owner(&self) -> DomainId {
        self.owner
    }

    /// Whether this driver hands the NIC TSO super-segments.
    pub fn tso(&self) -> bool {
        self.tso
    }

    /// Counters for reports.
    pub fn stats(&self) -> NativeDriverStats {
        self.stats
    }

    /// Free transmit buffers in the pool.
    pub fn tx_buffers_free(&self) -> usize {
        self.tx_pool.len()
    }

    /// Free (unposted) receive buffers in the pool.
    pub fn rx_buffers_free(&self) -> usize {
        self.rx_pool.len()
    }

    /// The transmit producer index to pass to the NIC doorbell.
    pub fn tx_producer(&self) -> u64 {
        self.tx_prod
    }

    /// The receive producer index to pass to the NIC doorbell.
    pub fn rx_producer(&self) -> u64 {
        self.rx_prod
    }

    /// Maximum TCP payload one transmit descriptor can carry.
    pub fn max_tx_payload(&self) -> u32 {
        if self.tso {
            TSO_CHUNK_PAGES * PAGE_SIZE as u32 - framing::ETH_HEADER_BYTES - 40
        } else {
            framing::MSS
        }
    }

    /// Whether a transmit descriptor can currently be queued.
    #[inline]
    pub fn can_queue_tx(&self, rings: &RingTable) -> bool {
        if self.tx_pool.is_empty() {
            return false;
        }
        let size = rings.get(self.tx_ring).map(|r| r.size()).unwrap_or(0) as u64;
        (self.tx_prod - self.reclaimed_floor()) < size
    }

    /// Queues a transmit from the driver's own pool.
    ///
    /// # Errors
    ///
    /// Fails when the pool is empty, the ring is full, or the payload
    /// exceeds the buffer.
    pub fn queue_tx(&mut self, meta: FrameMeta, rings: &mut RingTable) -> Result<(), DriverError> {
        if !self.can_queue_tx(rings) {
            return Err(if self.tx_pool.is_empty() {
                DriverError::NoTxBuffer
            } else {
                DriverError::TxRingFull
            });
        }
        #[expect(clippy::expect_used, reason = "checked nonempty above")]
        let buf = self.tx_pool.pop().expect("checked nonempty");
        let needed = meta.tcp_payload + framing::ETH_HEADER_BYTES + 40;
        if needed > buf.len {
            self.tx_pool.push(buf);
            return Err(DriverError::PayloadTooLarge(meta.tcp_payload));
        }
        let flags = if self.tso && meta.tcp_payload > framing::MSS {
            DescFlags::END_OF_PACKET | DescFlags::TSO | DescFlags::INSERT_CHECKSUM
        } else {
            DescFlags::END_OF_PACKET | DescFlags::INSERT_CHECKSUM
        };
        let desc = DmaDescriptor::tx(BufferSlice::new(buf.addr, needed), flags, meta);
        // The native driver is the *guest* side writing its own ring — the
        // trust boundary is the bridge, which validates before anything
        // reaches hardware.
        // cdna-check: allow(guest-taint): guest-side ring write
        rings.get_mut(self.tx_ring)?.write_at(self.tx_prod, desc);
        self.tx_inflight
            .push_back((self.tx_prod, TxOrigin::Pool(buf)));
        self.tx_prod += 1;
        self.stats.tx_queued += 1;
        Ok(())
    }

    /// Queues a transmit of a foreign (guest) buffer on behalf of
    /// netback. The buffer's pages must already be grant-mapped (pinned)
    /// by the channel.
    ///
    /// # Errors
    ///
    /// Fails when the ring is full.
    pub fn queue_tx_extern(
        &mut self,
        buf: BufferSlice,
        meta: FrameMeta,
        guest: DomainId,
        rings: &mut RingTable,
    ) -> Result<(), DriverError> {
        let size = rings.get(self.tx_ring)?.size() as u64;
        if self.tx_prod - self.reclaimed_floor() >= size {
            return Err(DriverError::TxRingFull);
        }
        let flags = if self.tso && meta.tcp_payload > framing::MSS {
            DescFlags::END_OF_PACKET | DescFlags::TSO | DescFlags::INSERT_CHECKSUM
        } else {
            DescFlags::END_OF_PACKET | DescFlags::INSERT_CHECKSUM
        };
        let desc = DmaDescriptor::tx(buf, flags, meta);
        // Pages are grant-mapped and the bridge validates before hardware
        // sees them.
        // cdna-check: allow(guest-taint): guest-side ring write
        rings.get_mut(self.tx_ring)?.write_at(self.tx_prod, desc);
        self.tx_inflight
            .push_back((self.tx_prod, TxOrigin::Extern { guest }));
        self.tx_prod += 1;
        self.stats.tx_queued += 1;
        Ok(())
    }

    /// Reclaims completed transmits given the NIC's consumer index.
    /// Pool buffers return to the pool; foreign completions are handed
    /// back for the caller to route to the owning guest's channel.
    pub fn reclaim_tx(&mut self, nic_consumer: u64) -> Vec<DomainId> {
        let mut extern_done = Vec::new();
        while let Some(&(idx, origin)) = self.tx_inflight.front() {
            if idx >= nic_consumer {
                break;
            }
            self.tx_inflight.pop_front();
            match origin {
                TxOrigin::Pool(buf) => self.tx_pool.push(buf),
                TxOrigin::Extern { guest } => extern_done.push(guest),
            }
        }
        extern_done
    }

    /// Posts up to `max` receive buffers from the pool into the receive
    /// ring; returns how many were posted (the caller then doorbells the
    /// NIC with [`NativeDriver::rx_producer`]).
    pub fn post_rx(&mut self, max: u32, rings: &mut RingTable) -> Result<u32, DriverError> {
        let ring_size = rings.get(self.rx_ring)?.size() as u64;
        let mut posted = 0;
        while posted < max && !self.rx_pool.is_empty() && (self.rx_posted.len() as u64) < ring_size
        {
            #[expect(clippy::expect_used, reason = "checked nonempty above")]
            let page = self.rx_pool.pop().expect("checked nonempty");
            let desc = DmaDescriptor::rx(BufferSlice::new(page.base_addr(), PAGE_SIZE as u32));
            rings.get_mut(self.rx_ring)?.write_at(self.rx_prod, desc);
            self.rx_posted.push_back(page);
            self.rx_prod += 1;
            posted += 1;
        }
        self.stats.rx_posted += posted as u64;
        Ok(posted)
    }

    /// A receive landed in `buf`: consumes the oldest posted page (which
    /// must be the one under `buf`) and returns it. The caller gives the
    /// page back via [`NativeDriver::release_rx_page`] once the stack has
    /// processed the packet — or keeps it, if the page was flipped to a
    /// guest, replacing it with [`NativeDriver::donate_rx_page`].
    ///
    /// # Panics
    ///
    /// Panics if deliveries do not match posting order (the NIC consumes
    /// receive descriptors strictly in order).
    #[inline]
    pub fn rx_delivered(&mut self, buf: BufferSlice) -> PageId {
        #[expect(
            clippy::expect_used,
            reason = "protocol invariant: delivery follows post"
        )]
        let page = self
            .rx_posted
            .pop_front()
            .expect("delivery without posted buffer");
        assert_eq!(page, buf.addr.page(), "out-of-order receive delivery");
        page
    }

    /// Returns a receive page to the pool for re-posting.
    #[inline]
    pub fn release_rx_page(&mut self, page: PageId) {
        self.rx_pool.push(page);
    }

    /// Adds a page to the receive pool (e.g. the page obtained from a
    /// page-flip exchange with a guest).
    #[inline]
    pub fn donate_rx_page(&mut self, page: PageId) {
        self.rx_pool.push(page);
    }

    /// Records a doorbell PIO write (for reports).
    pub fn note_doorbell(&mut self) {
        self.stats.doorbells += 1;
    }

    fn reclaimed_floor(&self) -> u64 {
        self.tx_inflight
            .front()
            .map(|&(idx, _)| idx)
            .unwrap_or(self.tx_prod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_net::{FlowId, MacAddr};

    fn meta(payload: u32) -> FrameMeta {
        FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, 0),
            tcp_payload: payload,
            flow: FlowId::new(0, 0),
            seq: 0,
        }
    }

    fn setup(tso: bool) -> (PhysMem, RingTable, NativeDriver) {
        let mut mem = PhysMem::new(1024);
        let mut rings = RingTable::new();
        let tx = rings.create(cdna_mem::PhysAddr(0x40_0000), 8);
        let rx = rings.create(cdna_mem::PhysAddr(0x41_0000), 8);
        let drv = NativeDriver::allocate(DomainId::DRIVER, tso, 4, 16, tx, rx, &mut mem).unwrap();
        (mem, rings, drv)
    }

    #[test]
    fn tso_pool_is_contiguous_chunks() {
        let (mem, _rings, drv) = setup(true);
        assert_eq!(drv.tx_buffers_free(), 4);
        assert!(drv.max_tx_payload() > 60_000);
        assert_eq!(mem.owned_by(DomainId::DRIVER), 4 * 16 + 16);
    }

    #[test]
    fn queue_and_reclaim_pool_tx() {
        let (_mem, mut rings, mut drv) = setup(false);
        drv.queue_tx(meta(1460), &mut rings).unwrap();
        drv.queue_tx(meta(1460), &mut rings).unwrap();
        assert_eq!(drv.tx_producer(), 2);
        assert_eq!(drv.tx_buffers_free(), 2);
        let extern_done = drv.reclaim_tx(2);
        assert!(extern_done.is_empty());
        assert_eq!(drv.tx_buffers_free(), 4);
    }

    #[test]
    fn non_tso_rejects_oversized_payload() {
        let (_mem, mut rings, mut drv) = setup(false);
        let err = drv.queue_tx(meta(5000), &mut rings).unwrap_err();
        assert_eq!(err, DriverError::PayloadTooLarge(5000));
        assert_eq!(drv.tx_buffers_free(), 4, "buffer returned to pool");
    }

    #[test]
    fn ring_full_detected() {
        let (_mem, mut rings, mut drv) = setup(false);
        // Pool has 4 buffers but grow it so the ring (8) is the limit.
        for _ in 0..4 {
            drv.queue_tx(meta(100), &mut rings).unwrap();
        }
        assert_eq!(drv.tx_buffers_free(), 0);
        assert_eq!(
            drv.queue_tx(meta(100), &mut rings),
            Err(DriverError::NoTxBuffer)
        );
    }

    #[test]
    fn extern_tx_completions_route_to_guest() {
        let (mut mem, mut rings, mut drv) = setup(false);
        let guest = DomainId::guest(2);
        let page = mem.alloc(guest).unwrap();
        drv.queue_tx_extern(
            BufferSlice::new(page.base_addr(), 1514),
            meta(1460),
            guest,
            &mut rings,
        )
        .unwrap();
        drv.queue_tx(meta(100), &mut rings).unwrap();
        let done = drv.reclaim_tx(2);
        assert_eq!(done, vec![guest]);
        assert_eq!(drv.tx_buffers_free(), 4);
    }

    #[test]
    fn rx_post_deliver_release_cycle() {
        let (_mem, mut rings, mut drv) = setup(false);
        let posted = drv.post_rx(8, &mut rings).unwrap();
        assert_eq!(posted, 8);
        assert_eq!(drv.rx_producer(), 8);
        assert_eq!(drv.rx_buffers_free(), 8);
        // Deliver into the first posted buffer.
        let first = rings.read(drv.rx_ring, 0).unwrap().buf;
        let page = drv.rx_delivered(first);
        assert_eq!(page, first.addr.page());
        drv.release_rx_page(page);
        assert_eq!(drv.rx_buffers_free(), 9);
    }

    #[test]
    fn rx_posting_respects_ring_size() {
        let (_mem, mut rings, mut drv) = setup(false);
        let posted = drv.post_rx(100, &mut rings).unwrap();
        assert_eq!(posted, 8, "ring of 8 limits outstanding buffers");
    }
}
