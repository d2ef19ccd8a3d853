//! The guest-side CDNA device driver.
//!
//! Under CDNA a guest drives its private NIC context directly. The
//! driver keeps a buffer pool, batches descriptor requests, and — under
//! [`DmaPolicy::Validated`] — calls into the hypervisor's
//! [`ProtectionEngine`] to validate and enqueue them, then writes the
//! returned producer index into its context's mailbox by PIO. With the
//! protection ablation ([`DmaPolicy::Unprotected`], Table 4) the driver
//! writes its own (guest-owned) rings directly and skips the hypervisor
//! entirely.

use std::collections::VecDeque;

use cdna_core::{
    ContextId, DmaPolicy, EnqueueOutcome, PerContextIommu, ProtectionEngine, ProtectionError,
    RxRequest, TxRequest,
};
use cdna_mem::{BufferSlice, DomainId, PageId, PhysMem, PAGE_SIZE};
use cdna_nic::{DescFlags, DmaDescriptor, FrameMeta, RingId, RingTable};

/// Where a CDNA transmit buffer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdnaTxOrigin {
    /// The driver's own pool; reclaimed buffers return to it.
    Pool(PageId),
    /// A grant-mapped guest buffer queued by netback in the driver
    /// domain (Xen-on-RiceNIC software virtualization); its completion
    /// is routed back to the owning guest's channel.
    Extern {
        /// The guest whose packet this was.
        guest: DomainId,
    },
}

/// Lifetime counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdnaDriverStats {
    /// Enqueue hypercalls issued.
    pub hypercalls: u64,
    /// Descriptors enqueued (either path).
    pub descriptors: u64,
    /// Mailbox PIO writes.
    pub pio_writes: u64,
}

/// A guest's CDNA driver instance for one context on one NIC.
#[derive(Debug, Clone)]
pub struct CdnaGuestDriver {
    dom: DomainId,
    ctx: ContextId,
    policy: DmaPolicy,
    ring_size: u32,
    tx_ring: RingId,
    rx_ring: RingId,
    tx_pool: Vec<PageId>,
    rx_pool: Vec<PageId>,
    pending_tx: Vec<TxRequest>,
    pending_tx_pages: Vec<CdnaTxOrigin>,
    tx_inflight: VecDeque<(u64, CdnaTxOrigin)>,
    rx_posted: VecDeque<PageId>,
    tx_prod: u64,
    rx_prod: u64,
    stats: CdnaDriverStats,
    /// Recycled capacity for [`CdnaGuestDriver::take_rx_batch`] so
    /// steady-state receive posting allocates nothing.
    rx_batch_reqs: Vec<RxRequest>,
    rx_batch_pages: Vec<PageId>,
}

impl CdnaGuestDriver {
    /// Builds the driver for `ctx` (already assigned to `dom` with the
    /// given rings/policy — normally via
    /// [`ProtectionEngine::assign_context`]) and allocates `tx_buffers` +
    /// `rx_buffers` single-page buffers from `mem`.
    ///
    /// # Errors
    ///
    /// Fails if memory is exhausted.
    #[allow(clippy::too_many_arguments)] // mirrors the context-assignment parameters
    pub fn new(
        dom: DomainId,
        ctx: ContextId,
        policy: DmaPolicy,
        tx_ring: RingId,
        rx_ring: RingId,
        ring_size: u32,
        tx_buffers: u32,
        rx_buffers: u32,
        mem: &mut PhysMem,
    ) -> Result<Self, cdna_mem::MemError> {
        let tx_pool = mem.alloc_many(dom, tx_buffers)?;
        let rx_pool = mem.alloc_many(dom, rx_buffers)?;
        Ok(CdnaGuestDriver {
            dom,
            ctx,
            policy,
            ring_size,
            tx_ring,
            rx_ring,
            tx_pool,
            rx_pool,
            pending_tx: Vec::new(),
            pending_tx_pages: Vec::new(),
            tx_inflight: VecDeque::new(),
            rx_posted: VecDeque::new(),
            tx_prod: 0,
            rx_prod: 0,
            stats: CdnaDriverStats::default(),
            rx_batch_reqs: Vec::new(),
            rx_batch_pages: Vec::new(),
        })
    }

    /// The context this driver owns.
    #[inline]
    pub fn ctx(&self) -> ContextId {
        self.ctx
    }

    /// The guest domain.
    pub fn domain(&self) -> DomainId {
        self.dom
    }

    /// The protection policy in force.
    #[inline]
    pub fn policy(&self) -> DmaPolicy {
        self.policy
    }

    /// Counters for reports.
    pub fn stats(&self) -> CdnaDriverStats {
        self.stats
    }

    /// Free transmit buffers.
    pub fn tx_buffers_free(&self) -> usize {
        self.tx_pool.len()
    }

    /// Whether another transmit can be queued (buffer + ring headroom,
    /// counting not-yet-flushed requests).
    #[inline]
    pub fn can_queue_tx(&self) -> bool {
        !self.tx_pool.is_empty()
            && (self.tx_prod + self.pending_tx.len() as u64 - self.reclaim_floor())
                < self.ring_size as u64
    }

    /// Queues one transmit into the pending batch. Returns `false`
    /// (without queueing) when out of buffers or ring headroom.
    pub fn queue_tx(&mut self, meta: FrameMeta) -> bool {
        if !self.can_queue_tx() {
            return false;
        }
        #[expect(clippy::expect_used, reason = "checked nonempty above")]
        let page = self.tx_pool.pop().expect("checked nonempty");
        let needed = meta.tcp_payload + cdna_net::framing::ETH_HEADER_BYTES + 40;
        debug_assert!(needed as u64 <= PAGE_SIZE, "CDNA buffers are single pages");
        self.pending_tx.push(TxRequest {
            buf: BufferSlice::new(page.base_addr(), needed),
            flags: DescFlags::END_OF_PACKET | DescFlags::INSERT_CHECKSUM,
            meta,
        });
        self.pending_tx_pages.push(CdnaTxOrigin::Pool(page));
        true
    }

    /// Queues a transmit of a foreign (grant-mapped guest) buffer on
    /// behalf of the driver domain's netback. Returns `false` when the
    /// ring has no headroom.
    pub fn queue_tx_extern(&mut self, buf: BufferSlice, meta: FrameMeta, guest: DomainId) -> bool {
        let headroom = (self.tx_prod + self.pending_tx.len() as u64 - self.reclaim_floor())
            < self.ring_size as u64;
        if !headroom {
            return false;
        }
        self.pending_tx.push(TxRequest {
            buf,
            flags: DescFlags::END_OF_PACKET | DescFlags::INSERT_CHECKSUM,
            meta,
        });
        self.pending_tx_pages.push(CdnaTxOrigin::Extern { guest });
        true
    }

    /// Transmit requests waiting in the batch.
    #[inline]
    pub fn pending_tx(&self) -> usize {
        self.pending_tx.len()
    }

    /// Flushes the pending batch through the hypervisor's protection
    /// engine (the enqueue hypercall). Returns the new producer index to
    /// write into the TX-producer mailbox, or `None` if the batch was
    /// empty.
    ///
    /// # Errors
    ///
    /// Propagates protection rejections; the batch is returned to the
    /// pool so a buggy caller cannot leak buffers.
    ///
    /// # Panics
    ///
    /// Panics if the driver was built with a non-validated policy — use
    /// [`CdnaGuestDriver::flush_tx_direct`] there.
    pub fn flush_tx_validated(
        &mut self,
        engine: &mut ProtectionEngine,
        nic_tx_consumer: u64,
        rings: &mut RingTable,
        mem: &mut PhysMem,
    ) -> Result<Option<EnqueueOutcome>, ProtectionError> {
        assert_eq!(self.policy, DmaPolicy::Validated, "wrong flush path");
        if self.pending_tx.is_empty() {
            return Ok(None);
        }
        match engine.enqueue_tx(
            self.ctx,
            self.dom,
            &self.pending_tx,
            nic_tx_consumer,
            rings,
            mem,
        ) {
            Ok(outcome) => {
                for origin in self.pending_tx_pages.drain(..) {
                    self.tx_inflight.push_back((self.tx_prod, origin));
                    self.tx_prod += 1;
                }
                debug_assert_eq!(self.tx_prod, outcome.producer);
                self.pending_tx.clear();
                self.stats.hypercalls += 1;
                self.stats.descriptors += outcome.enqueued as u64;
                Ok(Some(outcome))
            }
            Err(e) => {
                // Return buffers so the driver can retry or degrade.
                for origin in self.pending_tx_pages.drain(..) {
                    if let CdnaTxOrigin::Pool(page) = origin {
                        self.tx_pool.push(page);
                    }
                }
                self.pending_tx.clear();
                Err(e)
            }
        }
    }

    /// Flushes the pending batch by writing descriptors directly into
    /// the guest-owned ring (protection disabled / IOMMU ablation).
    /// Returns the new producer index, or `None` if the batch was empty.
    ///
    /// # Panics
    ///
    /// Panics if the driver's policy is [`DmaPolicy::Validated`].
    pub fn flush_tx_direct(&mut self, rings: &mut RingTable) -> Option<u64> {
        assert_ne!(self.policy, DmaPolicy::Validated, "wrong flush path");
        if self.pending_tx.is_empty() {
            return None;
        }
        #[expect(clippy::expect_used, reason = "ring created at attach")]
        let ring = rings.get_mut(self.tx_ring).expect("ring exists");
        for (req, origin) in self
            .pending_tx
            .drain(..)
            .zip(self.pending_tx_pages.drain(..))
        {
            let desc = DmaDescriptor::tx(req.buf, req.flags, req.meta);
            // DmaPolicy::Direct is the paper's unprotected ablation —
            // descriptors bypass validation on purpose so benches can price
            // the protection machinery.
            // cdna-check: allow(guest-taint): DmaPolicy::Direct ablation
            ring.write_at(self.tx_prod, desc);
            self.tx_inflight.push_back((self.tx_prod, origin));
            self.tx_prod += 1;
            self.stats.descriptors += 1;
        }
        Some(self.tx_prod)
    }

    /// Flushes the pending batch under [`DmaPolicy::Iommu`]: maps each
    /// buffer's pages in the per-context IOMMU (the hypervisor's only
    /// involvement, paper §5.3) and writes descriptors directly into the
    /// guest-owned ring. Returns `(producer, pages_mapped)`.
    ///
    /// # Panics
    ///
    /// Panics unless the driver's policy is [`DmaPolicy::Iommu`].
    pub fn flush_tx_iommu(
        &mut self,
        iommu: &mut PerContextIommu,
        rings: &mut RingTable,
    ) -> Option<(u64, u32)> {
        assert_eq!(self.policy, DmaPolicy::Iommu, "wrong flush path");
        if self.pending_tx.is_empty() {
            return None;
        }
        let mut mapped = 0;
        for req in &self.pending_tx {
            mapped += iommu.map_slice(self.ctx, &req.buf);
        }
        #[expect(clippy::expect_used, reason = "ring created at attach")]
        let ring = rings.get_mut(self.tx_ring).expect("ring exists");
        for (req, origin) in self
            .pending_tx
            .drain(..)
            .zip(self.pending_tx_pages.drain(..))
        {
            let desc = DmaDescriptor::tx(req.buf, req.flags, req.meta);
            ring.write_at(self.tx_prod, desc);
            self.tx_inflight.push_back((self.tx_prod, origin));
            self.tx_prod += 1;
            self.stats.descriptors += 1;
        }
        self.stats.hypercalls += 1; // the IOMMU-map hypercall
        Some((self.tx_prod, mapped))
    }

    /// Reclaims completed transmits under [`DmaPolicy::Iommu`], unmapping
    /// each completed buffer's pages. Returns
    /// `(pool_buffers_freed, pages_unmapped)`.
    pub fn reclaim_tx_iommu(
        &mut self,
        nic_tx_consumer: u64,
        iommu: &mut PerContextIommu,
    ) -> (u32, u32) {
        let mut freed = 0;
        let mut unmapped = 0;
        while let Some(&(idx, origin)) = self.tx_inflight.front() {
            if idx >= nic_tx_consumer {
                break;
            }
            self.tx_inflight.pop_front();
            if let CdnaTxOrigin::Pool(page) = origin {
                if iommu.unmap(self.ctx, page) {
                    unmapped += 1;
                }
                self.tx_pool.push(page);
                freed += 1;
            }
        }
        (freed, unmapped)
    }

    /// Posts receive buffers under [`DmaPolicy::Iommu`]: maps the pages,
    /// writes descriptors directly. Returns `(producer, pages_mapped)`.
    pub fn post_rx_iommu(
        &mut self,
        max: u32,
        iommu: &mut PerContextIommu,
        rings: &mut RingTable,
    ) -> Option<(u64, u32)> {
        assert_eq!(self.policy, DmaPolicy::Iommu, "wrong post path");
        let (reqs, pages) = self.take_rx_batch(max);
        if reqs.is_empty() {
            self.recycle_rx_batch(reqs, pages);
            return None;
        }
        let mut mapped = 0;
        #[expect(clippy::expect_used, reason = "ring created at attach")]
        let ring = rings.get_mut(self.rx_ring).expect("ring exists");
        for (req, &page) in reqs.iter().zip(&pages) {
            mapped += iommu.map_slice(self.ctx, &req.buf);
            ring.write_at(self.rx_prod, DmaDescriptor::rx(req.buf));
            self.rx_posted.push_back(page);
            self.rx_prod += 1;
            self.stats.descriptors += 1;
        }
        self.stats.hypercalls += 1;
        self.recycle_rx_batch(reqs, pages);
        Some((self.rx_prod, mapped))
    }

    /// Reclaims completed transmits per the NIC's consumer writeback:
    /// pool buffers return to the pool; foreign completions are handed
    /// back for netback to route to the owning guests' channels.
    /// Returns `(pool_buffers_freed, extern_completions)`.
    pub fn reclaim_tx(&mut self, nic_tx_consumer: u64) -> (u32, Vec<DomainId>) {
        let mut n = 0;
        let mut extern_done = Vec::new();
        while let Some(&(idx, origin)) = self.tx_inflight.front() {
            if idx >= nic_tx_consumer {
                break;
            }
            self.tx_inflight.pop_front();
            match origin {
                CdnaTxOrigin::Pool(page) => {
                    self.tx_pool.push(page);
                    n += 1;
                }
                CdnaTxOrigin::Extern { guest } => extern_done.push(guest),
            }
        }
        (n, extern_done)
    }

    /// Posts up to `max` receive buffers through the protection engine.
    /// Returns the enqueue outcome (with the producer index for the
    /// RX-producer mailbox), or `None` when nothing could be posted.
    ///
    /// # Errors
    ///
    /// Propagates protection rejections.
    pub fn post_rx_validated(
        &mut self,
        max: u32,
        engine: &mut ProtectionEngine,
        nic_rx_consumer: u64,
        rings: &mut RingTable,
        mem: &mut PhysMem,
    ) -> Result<Option<EnqueueOutcome>, ProtectionError> {
        assert_eq!(self.policy, DmaPolicy::Validated, "wrong post path");
        let (reqs, mut pages) = self.take_rx_batch(max);
        if reqs.is_empty() {
            self.recycle_rx_batch(reqs, pages);
            return Ok(None);
        }
        let res = engine.enqueue_rx(self.ctx, self.dom, &reqs, nic_rx_consumer, rings, mem);
        let out = match res {
            Ok(outcome) => {
                for &page in &pages {
                    self.rx_posted.push_back(page);
                    self.rx_prod += 1;
                }
                self.stats.hypercalls += 1;
                self.stats.descriptors += outcome.enqueued as u64;
                Ok(Some(outcome))
            }
            Err(e) => {
                self.rx_pool.append(&mut pages);
                Err(e)
            }
        };
        self.recycle_rx_batch(reqs, pages);
        out
    }

    /// Posts up to `max` receive buffers directly into the guest-owned
    /// ring (protection ablation). Returns the new producer index.
    pub fn post_rx_direct(&mut self, max: u32, rings: &mut RingTable) -> Option<u64> {
        assert_ne!(self.policy, DmaPolicy::Validated, "wrong post path");
        let (reqs, pages) = self.take_rx_batch(max);
        if reqs.is_empty() {
            self.recycle_rx_batch(reqs, pages);
            return None;
        }
        #[expect(clippy::expect_used, reason = "ring created at attach")]
        let ring = rings.get_mut(self.rx_ring).expect("ring exists");
        for (req, &page) in reqs.iter().zip(&pages) {
            // Deliberately unvalidated (see flush_tx_direct).
            // cdna-check: allow(guest-taint): DmaPolicy::Direct ablation
            ring.write_at(self.rx_prod, DmaDescriptor::rx(req.buf));
            self.rx_posted.push_back(page);
            self.rx_prod += 1;
            self.stats.descriptors += 1;
        }
        self.recycle_rx_batch(reqs, pages);
        Some(self.rx_prod)
    }

    /// A receive landed in `buf`; consumes the oldest posted page.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order delivery (the NIC consumes receive
    /// descriptors in order).
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

    /// Returns a consumed receive page to the pool.
    #[inline]
    pub fn release_rx_page(&mut self, page: PageId) {
        self.rx_pool.push(page);
    }

    /// Unposted receive buffers available.
    pub fn rx_buffers_free(&self) -> usize {
        self.rx_pool.len()
    }

    /// Receive buffers currently posted to the NIC.
    pub fn rx_posted(&self) -> usize {
        self.rx_posted.len()
    }

    /// Records a mailbox PIO write (for reports).
    pub fn note_pio(&mut self) {
        self.stats.pio_writes += 1;
    }

    /// Pops up to `max` pool pages into the recycled batch vectors. The
    /// caller must hand both back via [`CdnaGuestDriver::recycle_rx_batch`]
    /// to keep the capacity; dropping them is merely slower.
    fn take_rx_batch(&mut self, max: u32) -> (Vec<RxRequest>, Vec<PageId>) {
        let mut reqs = std::mem::take(&mut self.rx_batch_reqs);
        let mut pages = std::mem::take(&mut self.rx_batch_pages);
        reqs.clear();
        pages.clear();
        let headroom = (self.ring_size as u64)
            .saturating_sub(self.rx_posted.len() as u64)
            .min(max as u64) as usize;
        let n = headroom.min(self.rx_pool.len());
        reqs.reserve(n);
        pages.reserve(n);
        for _ in 0..n {
            #[expect(clippy::expect_used, reason = "checked nonempty above")]
            let page = self.rx_pool.pop().expect("checked");
            reqs.push(RxRequest {
                buf: BufferSlice::new(page.base_addr(), PAGE_SIZE as u32),
            });
            pages.push(page);
        }
        (reqs, pages)
    }

    fn recycle_rx_batch(&mut self, reqs: Vec<RxRequest>, pages: Vec<PageId>) {
        self.rx_batch_reqs = reqs;
        self.rx_batch_pages = pages;
    }

    fn reclaim_floor(&self) -> u64 {
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

    fn meta() -> FrameMeta {
        FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, 1),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        }
    }

    struct Fix {
        mem: PhysMem,
        rings: RingTable,
        engine: ProtectionEngine,
        drv: CdnaGuestDriver,
    }

    fn fix(policy: DmaPolicy) -> Fix {
        let mut mem = PhysMem::new(512);
        let mut rings = RingTable::new();
        let mut engine = ProtectionEngine::new();
        let dom = DomainId::guest(0);
        let ctx = engine
            .assign_context(dom, policy, 16, &mut rings, &mut mem)
            .unwrap();
        let st = engine.contexts().state(ctx).unwrap();
        let drv = CdnaGuestDriver::new(
            dom, ctx, policy, st.tx_ring, st.rx_ring, 16, 32, 32, &mut mem,
        )
        .unwrap();
        Fix {
            mem,
            rings,
            engine,
            drv,
        }
    }

    #[test]
    fn validated_tx_flow() {
        let mut f = fix(DmaPolicy::Validated);
        assert!(f.drv.queue_tx(meta()));
        assert!(f.drv.queue_tx(meta()));
        assert_eq!(f.drv.pending_tx(), 2);
        let out = f
            .drv
            .flush_tx_validated(&mut f.engine, 0, &mut f.rings, &mut f.mem)
            .unwrap()
            .unwrap();
        assert_eq!(out.producer, 2);
        assert_eq!(f.drv.pending_tx(), 0);
        assert_eq!(f.mem.outstanding_pins(), 2);
        // NIC consumes both; reclaim frees driver buffers, engine unpins
        // at the next hypercall.
        assert_eq!(f.drv.reclaim_tx(2).0, 2);
        assert_eq!(f.drv.tx_buffers_free(), 32);
        assert!(f.drv.queue_tx(meta()));
        f.drv
            .flush_tx_validated(&mut f.engine, 2, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(f.mem.outstanding_pins(), 1);
    }

    #[test]
    fn ring_headroom_limits_queueing() {
        let mut f = fix(DmaPolicy::Validated);
        let mut queued = 0;
        while f.drv.queue_tx(meta()) {
            queued += 1;
        }
        assert_eq!(queued, 16, "ring of 16 bounds outstanding tx");
    }

    #[test]
    fn direct_tx_flow_skips_engine() {
        let mut f = fix(DmaPolicy::Unprotected);
        assert!(f.drv.queue_tx(meta()));
        let prod = f.drv.flush_tx_direct(&mut f.rings).unwrap();
        assert_eq!(prod, 1);
        assert_eq!(f.mem.outstanding_pins(), 0, "no pinning without hypervisor");
        assert_eq!(f.engine.stats().hypercalls, 0);
    }

    #[test]
    #[should_panic(expected = "wrong flush path")]
    fn direct_flush_on_validated_policy_panics() {
        let mut f = fix(DmaPolicy::Validated);
        f.drv.queue_tx(meta());
        let _ = f.drv.flush_tx_direct(&mut f.rings);
    }

    #[test]
    fn rx_post_and_delivery() {
        let mut f = fix(DmaPolicy::Validated);
        let out = f
            .drv
            .post_rx_validated(8, &mut f.engine, 0, &mut f.rings, &mut f.mem)
            .unwrap()
            .unwrap();
        assert_eq!(out.producer, 8);
        assert_eq!(f.drv.rx_posted(), 8);
        let st = f.engine.contexts().state(f.drv.ctx()).unwrap();
        let first = f.rings.read(st.rx_ring, 0).unwrap().buf;
        let page = f.drv.rx_delivered(first);
        f.drv.release_rx_page(page);
        assert_eq!(f.drv.rx_buffers_free(), 25);
        assert_eq!(f.drv.rx_posted(), 7);
    }

    #[test]
    fn rx_posting_respects_ring_size() {
        let mut f = fix(DmaPolicy::Validated);
        let out = f
            .drv
            .post_rx_validated(100, &mut f.engine, 0, &mut f.rings, &mut f.mem)
            .unwrap()
            .unwrap();
        assert_eq!(out.enqueued, 16, "ring of 16 bounds posted buffers");
        let again = f
            .drv
            .post_rx_validated(1, &mut f.engine, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert!(again.is_none());
    }

    #[test]
    fn failed_flush_returns_buffers() {
        let mut f = fix(DmaPolicy::Validated);
        // Sabotage: free one queued buffer's page to another domain via
        // direct pool manipulation — simplest is to queue with a page the
        // guest no longer owns. Build the situation by freeing the page
        // after queueing.
        assert!(f.drv.queue_tx(meta()));
        assert!(f.drv.tx_inflight.is_empty());
        let CdnaTxOrigin::Pool(page) = f.drv.pending_tx_pages[0] else {
            panic!("pool origin expected");
        };
        f.mem.free(f.drv.domain(), page).unwrap();
        let err = f
            .drv
            .flush_tx_validated(&mut f.engine, 0, &mut f.rings, &mut f.mem)
            .unwrap_err();
        assert!(matches!(err, ProtectionError::Mem(_)));
        assert_eq!(f.drv.pending_tx(), 0, "batch cleared");
        assert_eq!(f.drv.tx_buffers_free(), 32, "buffers returned");
        assert_eq!(f.mem.outstanding_pins(), 0);
    }
}
