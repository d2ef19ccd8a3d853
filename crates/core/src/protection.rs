//! The hypervisor-side DMA protection engine (paper §3.3).
//!
//! Guests never write CDNA descriptor rings directly: the rings live in
//! hypervisor-owned memory, and the guest driver's enqueue hypercall
//! lands here. The engine
//!
//! 1. checks the caller owns the context it is enqueueing on;
//! 2. validates that **every page** under each requested buffer is owned
//!    by the caller;
//! 3. pins those pages (reference counts) so they cannot be reallocated
//!    while the DMA is outstanding;
//! 4. stamps each descriptor with the next sequence number and writes it
//!    into the ring;
//! 5. reaps completed descriptors (unpinning their pages) lazily, at the
//!    next enqueue — exactly the paper's "for efficiency, the reference
//!    counts are only decremented when additional DMA descriptors are
//!    enqueued".

use std::collections::VecDeque;
use std::fmt;

use cdna_mem::mutation::MutationKind;
use cdna_mem::{BufferSlice, DomainId, MemError, PageId, PhysMem};
use cdna_nic::{DescFlags, DmaDescriptor, FrameMeta, RingTable};

use crate::{ContextError, ContextId, ContextState, ContextTable, SeqStamper};

/// How DMA addresses from a guest are kept honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DmaPolicy {
    /// CDNA software protection: hypervisor validates, pins, stamps, and
    /// enqueues every descriptor (the paper's main design).
    Validated,
    /// A per-context IOMMU restricts the device instead; guests enqueue
    /// descriptors directly and the hypervisor is only involved in
    /// mapping setup (the hardware the paper's §5.3 anticipates).
    Iommu,
    /// No protection at all — guests enqueue directly and nothing checks
    /// the addresses. This is Table 4's "DMA protection disabled" row,
    /// an upper bound on IOMMU performance.
    Unprotected,
}

/// A guest's request to transmit the packet described by `meta` from
/// `buf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRequest {
    /// The buffer holding the (already formatted) frame.
    pub buf: BufferSlice,
    /// Descriptor flags, copied through uninterpreted (paper §3.4).
    pub flags: DescFlags,
    /// Frame metadata (the simulation's stand-in for the buffer bytes).
    pub meta: FrameMeta,
}

/// A guest's request to post `buf` for packet reception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxRequest {
    /// The empty buffer to fill.
    pub buf: BufferSlice,
}

/// Result of a successful enqueue hypercall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnqueueOutcome {
    /// The ring's new producer index — the value the guest driver now
    /// writes into its context's producer mailbox.
    pub producer: u64,
    /// Descriptors enqueued by this call.
    pub enqueued: u32,
    /// Pages newly pinned by this call.
    pub pages_pinned: u32,
    /// Completed descriptors reaped (pages unpinned) by this call.
    pub reaped: u32,
}

/// Errors from protection operations. No descriptors are enqueued when
/// an error is returned (validation happens before any side effects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionError {
    /// Context lookup/ownership failure.
    Context(ContextError),
    /// A buffer page failed ownership validation.
    Mem(MemError),
    /// The descriptor ring has no room for the whole batch.
    RingFull {
        /// The saturated context.
        ctx: ContextId,
    },
    /// The context's policy does not route enqueues through the
    /// hypervisor (IOMMU/unprotected contexts write their own rings).
    PolicyViolation {
        /// The context.
        ctx: ContextId,
        /// Its configured policy.
        policy: DmaPolicy,
    },
}

impl fmt::Display for ProtectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionError::Context(e) => write!(f, "context error: {e}"),
            ProtectionError::Mem(e) => write!(f, "memory validation failed: {e}"),
            ProtectionError::RingFull { ctx } => write!(f, "descriptor ring full on {ctx}"),
            ProtectionError::PolicyViolation { ctx, policy } => {
                write!(f, "enqueue hypercall on {ctx} with policy {policy:?}")
            }
        }
    }
}

impl std::error::Error for ProtectionError {}

impl From<ContextError> for ProtectionError {
    fn from(e: ContextError) -> Self {
        ProtectionError::Context(e)
    }
}

impl From<MemError> for ProtectionError {
    fn from(e: MemError) -> Self {
        ProtectionError::Mem(e)
    }
}

/// Lifetime counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtectionStats {
    /// Descriptors validated and enqueued.
    pub descriptors_enqueued: u64,
    /// Pages pinned across all enqueues.
    pub pages_pinned: u64,
    /// Enqueue calls rejected.
    pub rejections: u64,
    /// Enqueue hypercall batches processed.
    pub hypercalls: u64,
}

/// One entry of a protection engine's pin journal: each of the `len`
/// pages from `first` changed its pin count in the engine's
/// pinned-buffer lists by `delta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinRun {
    /// First page of the run.
    pub first: PageId,
    /// Pages in the run.
    pub len: u32,
    /// +1 for a pin, −1 for an unpin; a compacted journal holds each
    /// page's net change instead.
    pub delta: i32,
}

/// Journal length from which a full journal is compacted instead of
/// grown: model schedules never reach it, while a shadow-checked run of
/// a simulated second records ~200,000 runs before its one sync.
const JOURNAL_COMPACT_FROM: usize = 4096;

/// Appends a `delta` change of the page run `(first, len)` to
/// `journal`. A full journal of [`JOURNAL_COMPACT_FROM`] runs or more
/// is first compacted to one run per page span of equal net change, so
/// it stays about as long as the pinned set, not the run.
fn journal_run(journal: &mut Vec<PinRun>, run: (PageId, u32), delta: i32) {
    if journal.len() == journal.capacity() && journal.len() >= JOURNAL_COMPACT_FROM {
        let lo = journal.iter().map(|r| r.first.0).min().unwrap_or(0);
        let hi = journal.iter().map(|r| r.first.0 + r.len).max().unwrap_or(0);
        let mut net = vec![0i32; (hi - lo) as usize];
        for r in journal.drain(..) {
            let start = (r.first.0 - lo) as usize;
            for d in &mut net[start..start + r.len as usize] {
                *d += r.delta;
            }
        }
        for (page, &d) in (lo..).zip(&net).filter(|&(_, &d)| d != 0) {
            merge_run(journal, (PageId(page), 1), d);
        }
    }
    merge_run(journal, run, delta);
}

/// Appends the run, extending the last entry instead when the run
/// adjoins it with the same delta: reaps merge ascending runs, and
/// drivers post buffers popped off their pools in descending page
/// order. Only the net change per page is ever read, so merging and
/// compacting lose nothing.
fn merge_run(journal: &mut Vec<PinRun>, (first, len): (PageId, u32), delta: i32) {
    match journal.last_mut() {
        Some(last) if last.delta == delta && last.first.0 + last.len == first.0 => last.len += len,
        Some(last) if last.delta == delta && first.0 + len == last.first.0 => {
            last.first = first;
            last.len += len;
        }
        _ => journal.push(PinRun { first, len, delta }),
    }
}

#[derive(Debug, Clone)]
struct Direction {
    stamper: SeqStamper,
    producer: u64,
    /// Buffers pinned per outstanding descriptor, in ring order.
    pinned: VecDeque<(u64, BufferSlice)>,
    reaped: u64,
}

impl Direction {
    fn new(seq_modulus: u32) -> Self {
        Direction {
            stamper: SeqStamper::new(seq_modulus),
            producer: 0,
            pinned: VecDeque::new(),
            reaped: 0,
        }
    }

    /// Pops the buffers the NIC has consumed and unpins their pages,
    /// recording each unpinned run in `journal` when one is kept.
    fn reap(
        &mut self,
        nic_consumer: u64,
        mem: &mut PhysMem,
        mut journal: Option<&mut Vec<PinRun>>,
    ) -> Result<u32, MemError> {
        let mut reaped = 0;
        // Completed buffers are usually physically adjacent (RX pools
        // hand out consecutive pages), so merge them into page runs and
        // unpin once per run instead of once per buffer. Every buffer of
        // a run has left `pinned` when the run is unpinned, so the run is
        // journaled first: the journal matches the list even if the
        // unpin fails.
        let mut unpin = |s: u32, l: u32| {
            if let Some(j) = journal.as_deref_mut() {
                journal_run(j, (PageId(s), l), -1);
            }
            mem.unpin_run(PageId(s), l)
        };
        let mut run: Option<(u32, u32)> = None;
        while let Some(&(idx, buf)) = self.pinned.front() {
            if idx >= nic_consumer {
                break;
            }
            let (start, len) = buf.page_run();
            match &mut run {
                Some((s, l)) if start.0 == *s + *l => *l += len,
                Some((s, l)) => {
                    unpin(*s, *l)?;
                    *s = start.0;
                    *l = len;
                }
                None => run = Some((start.0, len)),
            }
            self.pinned.pop_front();
            self.reaped = idx + 1;
            reaped += 1;
        }
        if let Some((s, l)) = run {
            unpin(s, l)?;
        }
        Ok(reaped)
    }
}

/// Merges a batch's page runs into maximal contiguous runs and feeds
/// each merged run to `f` — so a multi-descriptor batch touches the
/// page pool once per run instead of once per descriptor. A run merges
/// with the one before it when the two adjoin in either direction:
/// drivers post buffers popped off their pools, which come in
/// descending page order.
///
/// When `f` fails on a merged run, that run's descriptors are fed to
/// `f` again one at a time, in batch order, and the first error is
/// returned: the one a per-descriptor loop would have met first. `f`
/// must be all-or-nothing on a failing run (as `PhysMem`'s run
/// operations are), so that walk redoes nothing a merged call did.
fn for_each_merged_run<E>(
    runs: impl Iterator<Item = (PageId, u32)> + Clone,
    mut f: impl FnMut(PageId, u32) -> Result<(), E>,
) -> Result<(), E> {
    // The merged run `(first page, pages)` and its descriptors' range.
    let mut run: Option<(u32, u32, usize)> = None;
    let mut flush = |s: u32, l: u32, from: usize, to: usize| {
        f(PageId(s), l).or_else(|e| {
            for (first, len) in runs.clone().skip(from).take(to - from) {
                f(first, len)?;
            }
            Err(e)
        })
    };
    let mut count = 0;
    for (i, (start, len)) in runs.clone().enumerate() {
        count = i + 1;
        match &mut run {
            Some((s, l, _)) if s.checked_add(*l) == Some(start.0) => *l += len,
            Some((s, l, _)) if start.0.checked_add(len) == Some(*s) => {
                *s = start.0;
                *l += len;
            }
            Some((s, l, from)) => {
                flush(*s, *l, *from, i)?;
                (*s, *l, *from) = (start.0, len, i);
            }
            None => run = Some((start.0, len, i)),
        }
    }
    if let Some((s, l, from)) = run {
        flush(s, l, from, count)?;
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct CtxProtection {
    tx: Direction,
    rx: Direction,
}

/// The per-NIC DMA protection engine, owning the context table.
///
/// # Example
///
/// See the crate-level documentation and the `protection` integration
/// tests; a minimal flow is:
///
/// ```
/// use cdna_core::{DmaPolicy, ProtectionEngine, TxRequest};
/// use cdna_mem::{BufferSlice, DomainId, PhysMem};
/// use cdna_nic::{DescFlags, FrameMeta, RingTable};
/// use cdna_net::{FlowId, MacAddr};
///
/// let mut mem = PhysMem::new(64);
/// let mut rings = RingTable::new();
/// let mut engine = ProtectionEngine::new();
/// let guest = DomainId::guest(0);
/// let ctx = engine
///     .assign_context(guest, DmaPolicy::Validated, 16, &mut rings, &mut mem)
///     .unwrap();
///
/// let page = mem.alloc(guest).unwrap();
/// let req = TxRequest {
///     buf: BufferSlice::new(page.base_addr(), 1514),
///     flags: DescFlags::END_OF_PACKET,
///     meta: FrameMeta {
///         dst: MacAddr::for_peer(0),
///         src: MacAddr::for_context(0, ctx.0),
///         tcp_payload: 1460,
///         flow: FlowId::new(0, 0),
///         seq: 0,
///     },
/// };
/// let out = engine
///     .enqueue_tx(ctx, guest, &[req], 0, &mut rings, &mut mem)
///     .unwrap();
/// assert_eq!(out.producer, 1);
/// assert_eq!(mem.info(page).unwrap().pins, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProtectionEngine {
    table: ContextTable,
    ctxs: Vec<Option<CtxProtection>>,
    stats: ProtectionStats,
    /// Every change to the pinned-buffer lists since the journal was
    /// last cleared, kept only once
    /// [`ProtectionEngine::enable_pin_journal`] is called.
    journal: Option<Vec<PinRun>>,
    /// The seeded bug [`ProtectionEngine::set_mutation`] armed, if any.
    mutation: Option<MutationKind>,
}

impl ProtectionEngine {
    /// An engine with an empty context table.
    pub fn new() -> Self {
        ProtectionEngine {
            table: ContextTable::new(),
            ctxs: (0..crate::CTX_COUNT).map(|_| None).collect(),
            stats: ProtectionStats::default(),
            journal: None,
            mutation: None,
        }
    }

    /// Arms the seeded bug `m` ([`cdna_mem::mutation`]), or none; the
    /// engine acts on `SeqSkip` and `SkipOwnershipCheck` only.
    pub fn set_mutation(&mut self, m: Option<MutationKind>) {
        self.mutation = m;
    }

    /// Starts the pin journal: from now on every page run the engine
    /// pins or unpins on behalf of a descriptor (enqueue, reap,
    /// revocation) is recorded as a [`PinRun`]. The journal opens with
    /// one +1 run per buffer already pinned, so the runs recorded since
    /// enabling always net to the engine's pinned pages. Without this
    /// call the engine keeps no journal and records nothing.
    pub fn enable_pin_journal(&mut self) {
        let mut journal = Vec::new();
        for prot in self.ctxs.iter().flatten() {
            for (_, buf) in prot.tx.pinned.iter().chain(&prot.rx.pinned) {
                journal_run(&mut journal, buf.page_run(), 1);
            }
        }
        self.journal = Some(journal);
    }

    /// The pin journal recorded since it was last cleared, in
    /// recording order, or `None` when the journal is not enabled.
    pub fn pin_journal(&self) -> Option<&[PinRun]> {
        self.journal.as_deref()
    }

    /// Empties the pin journal; it stays enabled.
    pub fn clear_pin_journal(&mut self) {
        if let Some(j) = &mut self.journal {
            j.clear();
        }
    }

    /// The context table (assignments are made through
    /// [`ProtectionEngine::assign_context`], so this is read-only).
    pub fn contexts(&self) -> &ContextTable {
        &self.table
    }

    /// Counters for reports.
    pub fn stats(&self) -> ProtectionStats {
        self.stats
    }

    /// Allocates a context to `owner`, creating its descriptor rings.
    ///
    /// Under [`DmaPolicy::Validated`] the ring memory is allocated to the
    /// **hypervisor** — establishing "the hypervisor's exclusive write
    /// access to the host memory region containing the CDNA descriptor
    /// rings" — otherwise to the guest, which will write it directly.
    ///
    /// # Errors
    ///
    /// Fails when contexts or memory are exhausted.
    pub fn assign_context(
        &mut self,
        owner: DomainId,
        policy: DmaPolicy,
        ring_size: u32,
        rings: &mut RingTable,
        mem: &mut PhysMem,
    ) -> Result<ContextId, ProtectionError> {
        let ring_owner = match policy {
            DmaPolicy::Validated => DomainId::HYPERVISOR,
            DmaPolicy::Iommu | DmaPolicy::Unprotected => owner,
        };
        let ring_bytes = ring_size * DmaDescriptor::WIRE_SIZE;
        let pages_per_ring = (ring_bytes as u64).div_ceil(cdna_mem::PAGE_SIZE) as u32;
        let tx_pages = mem.alloc_many(ring_owner, pages_per_ring)?;
        let rx_pages = mem.alloc_many(ring_owner, pages_per_ring)?;
        let tx_ring = rings.create(tx_pages[0].base_addr(), ring_size);
        let rx_ring = rings.create(rx_pages[0].base_addr(), ring_size);
        let ctx = self.table.assign(owner, tx_ring, rx_ring, policy)?;
        let seq_modulus = (ring_size * 2).max(4);
        self.ctxs[ctx.0 as usize] = Some(CtxProtection {
            tx: Direction::new(seq_modulus),
            rx: Direction::new(seq_modulus),
        });
        Ok(ctx)
    }

    /// Revokes `ctx`, unpinning every outstanding buffer (the NIC is
    /// told to shut down the context's pending operations first, so the
    /// DMAs are no longer in flight).
    pub fn revoke_context(
        &mut self,
        ctx: ContextId,
        mem: &mut PhysMem,
    ) -> Result<ContextState, ProtectionError> {
        let state = self.table.revoke(ctx)?;
        if let Some(prot) = self.ctxs[ctx.0 as usize].take() {
            let bufs = prot.tx.pinned.iter().chain(prot.rx.pinned.iter());
            // The lists are gone whatever the unpins below return.
            if let Some(j) = &mut self.journal {
                for (_, buf) in bufs.clone() {
                    journal_run(j, buf.page_run(), -1);
                }
            }
            for (_, buf) in bufs {
                mem.unpin_slice(buf)?;
            }
        }
        Ok(state)
    }

    /// The enqueue-TX hypercall: validates, pins, stamps, and enqueues
    /// `reqs`, reaping descriptors the NIC has completed (per
    /// `nic_consumer`) first.
    ///
    /// # Errors
    ///
    /// On any error **nothing** is enqueued or pinned.
    pub fn enqueue_tx(
        &mut self,
        ctx: ContextId,
        caller: DomainId,
        reqs: &[TxRequest],
        nic_consumer: u64,
        rings: &mut RingTable,
        mem: &mut PhysMem,
    ) -> Result<EnqueueOutcome, ProtectionError> {
        let state = self.precheck(ctx, caller)?;
        // Rings are created at assign_context and never destroyed, and a
        // precheck-passing ctx always has its CtxProtection slot filled.
        #[expect(clippy::expect_used, reason = "internal invariant, see comment above")]
        let ring_size = rings.get(state.tx_ring).expect("ring exists").size();
        self.stats.hypercalls += 1;

        #[expect(clippy::expect_used, reason = "internal invariant, see comment above")]
        let prot = self.ctxs[ctx.0 as usize].as_mut().expect("assigned");
        let reaped = prot.tx.reap(nic_consumer, mem, self.journal.as_mut())?;

        // Capacity: outstanding (unconsumed by NIC) + new must fit.
        let outstanding = prot.tx.producer - nic_consumer.min(prot.tx.producer);
        if outstanding + reqs.len() as u64 > ring_size as u64 {
            self.stats.rejections += 1;
            return Err(ProtectionError::RingFull { ctx });
        }

        // Validate the whole batch before touching anything, merging
        // physically adjacent buffers into page runs. The driver domain
        // is trusted (paper §2.2: Xen's existing trust model), so its
        // buffers — grant-mapped guest pages — skip the ownership check
        // but are still pinned for the DMA's lifetime.
        let trusted = caller == DomainId::DRIVER;
        let skip_owner_check = self.mutation == Some(MutationKind::SkipOwnershipCheck);
        let wild;
        let reqs = if skip_owner_check && !trusted {
            // Seeded bug: with validation gone, a guest-supplied wild
            // address reaches the pin path; model the wild address as the
            // pool's last page, which no domain owns.
            let base = PageId(mem.total_pages() - 1).base_addr();
            wild = reqs
                .iter()
                .map(|r| TxRequest {
                    buf: BufferSlice::new(base, r.buf.len.min(64)),
                    ..*r
                })
                .collect::<Vec<_>>();
            &wild[..]
        } else {
            reqs
        };
        if !trusted && !skip_owner_check {
            if let Err(e) = for_each_merged_run(reqs.iter().map(|r| r.buf.page_run()), |s, l| {
                mem.validate_run(caller, s, l)
            }) {
                self.stats.rejections += 1;
                return Err(e.into());
            }
        }

        // Second phase of the batch: pin once per merged run (ownership
        // was established above; the trusted path never validated).
        for_each_merged_run(reqs.iter().map(|r| r.buf.page_run()), |s, l| {
            mem.pin_run(s, l)
        })
        .map_err(ProtectionError::Mem)?;
        if let Some(j) = &mut self.journal {
            for req in reqs {
                journal_run(j, req.buf.page_run(), 1);
            }
        }

        #[expect(clippy::expect_used, reason = "ring created at assign_context")]
        let ring = rings.get_mut(state.tx_ring).expect("ring exists");
        let seq_skip = self.mutation == Some(MutationKind::SeqSkip);
        let mut pages = 0;
        for req in reqs {
            pages += req.buf.page_count();
            let mut desc = DmaDescriptor::tx(req.buf, req.flags, req.meta);
            if seq_skip && prot.tx.producer % 8 == 3 {
                // Seeded bug: burn a stamp, leaving a gap in the stream.
                let _ = prot.tx.stamper.next();
            }
            desc.seq = prot.tx.stamper.next();
            let idx = prot.tx.producer;
            ring.write_at(idx, desc);
            prot.tx.pinned.push_back((idx, req.buf));
            prot.tx.producer += 1;
        }
        self.stats.descriptors_enqueued += reqs.len() as u64;
        self.stats.pages_pinned += pages as u64;
        Ok(EnqueueOutcome {
            producer: prot.tx.producer,
            enqueued: reqs.len() as u32,
            pages_pinned: pages,
            reaped,
        })
    }

    /// The enqueue-RX hypercall: like [`ProtectionEngine::enqueue_tx`]
    /// but posting empty receive buffers.
    ///
    /// # Errors
    ///
    /// On any error nothing is enqueued or pinned.
    pub fn enqueue_rx(
        &mut self,
        ctx: ContextId,
        caller: DomainId,
        reqs: &[RxRequest],
        nic_consumer: u64,
        rings: &mut RingTable,
        mem: &mut PhysMem,
    ) -> Result<EnqueueOutcome, ProtectionError> {
        let state = self.precheck(ctx, caller)?;
        // Same internal invariants as enqueue_tx (rings and slots are
        // created at assign_context and outlive the context).
        #[expect(clippy::expect_used, reason = "internal invariant, see comment above")]
        let ring_size = rings.get(state.rx_ring).expect("ring exists").size();
        self.stats.hypercalls += 1;

        #[expect(clippy::expect_used, reason = "internal invariant, see comment above")]
        let prot = self.ctxs[ctx.0 as usize].as_mut().expect("assigned");
        let reaped = prot.rx.reap(nic_consumer, mem, self.journal.as_mut())?;

        let outstanding = prot.rx.producer - nic_consumer.min(prot.rx.producer);
        if outstanding + reqs.len() as u64 > ring_size as u64 {
            self.stats.rejections += 1;
            return Err(ProtectionError::RingFull { ctx });
        }

        // Validate-then-pin in merged page runs, exactly as enqueue_tx
        // (RX posts come from per-guest buffer pools, popped in
        // descending page order, so a whole hypercall batch is
        // typically a single run).
        if let Err(e) = for_each_merged_run(reqs.iter().map(|r| r.buf.page_run()), |s, l| {
            mem.validate_run(caller, s, l)
        }) {
            self.stats.rejections += 1;
            return Err(e.into());
        }
        for_each_merged_run(reqs.iter().map(|r| r.buf.page_run()), |s, l| {
            mem.pin_run(s, l)
        })
        .map_err(ProtectionError::Mem)?;
        if let Some(j) = &mut self.journal {
            for req in reqs {
                journal_run(j, req.buf.page_run(), 1);
            }
        }

        #[expect(clippy::expect_used, reason = "ring created at assign_context")]
        let ring = rings.get_mut(state.rx_ring).expect("ring exists");
        let seq_skip = self.mutation == Some(MutationKind::SeqSkip);
        let mut pages = 0;
        for req in reqs {
            pages += req.buf.page_count();
            let mut desc = DmaDescriptor::rx(req.buf);
            if seq_skip && prot.rx.producer % 8 == 3 {
                // Seeded bug: burn a stamp, leaving a gap in the stream.
                let _ = prot.rx.stamper.next();
            }
            desc.seq = prot.rx.stamper.next();
            let idx = prot.rx.producer;
            ring.write_at(idx, desc);
            prot.rx.pinned.push_back((idx, req.buf));
            prot.rx.producer += 1;
        }
        self.stats.descriptors_enqueued += reqs.len() as u64;
        self.stats.pages_pinned += pages as u64;
        Ok(EnqueueOutcome {
            producer: prot.rx.producer,
            enqueued: reqs.len() as u32,
            pages_pinned: pages,
            reaped,
        })
    }

    /// Explicitly reaps completed descriptors (both directions) up to
    /// the NIC's consumer indices — used at quiesce/teardown; during
    /// normal operation reaping happens lazily inside enqueues.
    pub fn reap(
        &mut self,
        ctx: ContextId,
        nic_tx_consumer: u64,
        nic_rx_consumer: u64,
        mem: &mut PhysMem,
    ) -> Result<u32, ProtectionError> {
        self.table.state(ctx)?;
        #[expect(clippy::expect_used, reason = "slot filled while the ctx is assigned")]
        let prot = self.ctxs[ctx.0 as usize].as_mut().expect("assigned");
        Ok(prot.tx.reap(nic_tx_consumer, mem, self.journal.as_mut())?
            + prot.rx.reap(nic_rx_consumer, mem, self.journal.as_mut())?)
    }

    /// Buffers currently pinned on behalf of `ctx` (both directions).
    pub fn outstanding(&self, ctx: ContextId) -> usize {
        self.ctxs[ctx.0 as usize]
            .as_ref()
            .map(|p| p.tx.pinned.len() + p.rx.pinned.len())
            .unwrap_or(0)
    }

    /// Audit view for external invariant checkers (cdna-check's
    /// `DmaShadow`): the page run (first page, page count) of every
    /// buffer the engine currently holds pinned for `ctx`, TX then RX,
    /// each in ring order. Empty for an unassigned context.
    pub fn pinned_runs(&self, ctx: ContextId) -> impl Iterator<Item = (PageId, u32)> + '_ {
        static NONE: VecDeque<(u64, BufferSlice)> = VecDeque::new();
        let (tx, rx) = match self.ctxs.get(ctx.0 as usize).and_then(Option::as_ref) {
            Some(p) => (&p.tx.pinned, &p.rx.pinned),
            None => (&NONE, &NONE),
        };
        tx.iter().chain(rx).map(|(_, buf)| buf.page_run())
    }

    /// Audit view: the (tx, rx) producer indices for `ctx`, or `None`
    /// if the context is not assigned.
    pub fn producers(&self, ctx: ContextId) -> Option<(u64, u64)> {
        self.ctxs
            .get(ctx.0 as usize)
            .and_then(|slot| slot.as_ref())
            .map(|p| (p.tx.producer, p.rx.producer))
    }

    fn precheck(
        &mut self,
        ctx: ContextId,
        caller: DomainId,
    ) -> Result<ContextState, ProtectionError> {
        let state = match self.table.check_owner(ctx, caller) {
            Ok(s) => s,
            Err(e) => {
                self.stats.rejections += 1;
                return Err(e.into());
            }
        };
        if state.policy != DmaPolicy::Validated {
            self.stats.rejections += 1;
            return Err(ProtectionError::PolicyViolation {
                ctx,
                policy: state.policy,
            });
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_net::{FlowId, MacAddr};

    struct Fixture {
        mem: PhysMem,
        rings: RingTable,
        engine: ProtectionEngine,
        guest: DomainId,
        ctx: ContextId,
    }

    fn fixture() -> Fixture {
        let mut mem = PhysMem::new(256);
        let mut rings = RingTable::new();
        let mut engine = ProtectionEngine::new();
        let guest = DomainId::guest(0);
        let ctx = engine
            .assign_context(guest, DmaPolicy::Validated, 16, &mut rings, &mut mem)
            .unwrap();
        Fixture {
            mem,
            rings,
            engine,
            guest,
            ctx,
        }
    }

    fn tx_req(f: &mut Fixture, owner: DomainId) -> TxRequest {
        let page = f.mem.alloc(owner).unwrap();
        TxRequest {
            buf: BufferSlice::new(page.base_addr(), 1514),
            flags: DescFlags::END_OF_PACKET,
            meta: FrameMeta {
                dst: MacAddr::for_peer(0),
                src: MacAddr::for_context(0, f.ctx.0),
                tcp_payload: 1460,
                flow: FlowId::new(0, 0),
                seq: 0,
            },
        }
    }

    #[test]
    fn rings_are_hypervisor_owned_under_validated_policy() {
        let f = fixture();
        let state = f.engine.contexts().state(f.ctx).unwrap();
        let tx_base = f.rings.get(state.tx_ring).unwrap().base();
        assert_eq!(
            f.mem.info(tx_base.page()).unwrap().owner,
            Some(DomainId::HYPERVISOR)
        );
    }

    #[test]
    fn rings_are_guest_owned_under_unprotected_policy() {
        let mut mem = PhysMem::new(64);
        let mut rings = RingTable::new();
        let mut engine = ProtectionEngine::new();
        let guest = DomainId::guest(3);
        let ctx = engine
            .assign_context(guest, DmaPolicy::Unprotected, 16, &mut rings, &mut mem)
            .unwrap();
        let state = engine.contexts().state(ctx).unwrap();
        let base = rings.get(state.tx_ring).unwrap().base();
        assert_eq!(mem.info(base.page()).unwrap().owner, Some(guest));
    }

    #[test]
    fn enqueue_stamps_sequential_numbers() {
        let mut f = fixture();
        let g = f.guest;
        let reqs: Vec<TxRequest> = (0..3).map(|_| tx_req(&mut f, g)).collect();
        let out = f
            .engine
            .enqueue_tx(f.ctx, f.guest, &reqs, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(out.producer, 3);
        assert_eq!(out.pages_pinned, 3);
        let state = f.engine.contexts().state(f.ctx).unwrap();
        for i in 0..3u64 {
            let d = f.rings.read(state.tx_ring, i).unwrap();
            assert_eq!(d.seq, i as u32);
        }
    }

    #[test]
    fn foreign_page_rejected_and_nothing_pinned() {
        let mut f = fixture();
        let g = f.guest;
        let mine = tx_req(&mut f, g);
        let theirs = tx_req(&mut f, DomainId::guest(7));
        let err = f
            .engine
            .enqueue_tx(f.ctx, f.guest, &[mine, theirs], 0, &mut f.rings, &mut f.mem)
            .unwrap_err();
        assert!(matches!(
            err,
            ProtectionError::Mem(MemError::NotOwner { .. })
        ));
        assert_eq!(f.mem.outstanding_pins(), 0, "batch failure pins nothing");
        assert_eq!(f.engine.stats().rejections, 1);
    }

    #[test]
    fn descending_posts_validate_and_pin_as_one_run() {
        let mut calls = Vec::new();
        let runs = [
            (PageId(9), 1),
            (PageId(8), 1),
            (PageId(6), 2),
            (PageId(3), 1),
        ];
        let ok: Result<(), ()> = for_each_merged_run(runs.into_iter(), |s, l| {
            calls.push((s.0, l));
            Ok(())
        });
        assert_eq!(ok, Ok(()));
        assert_eq!(calls, [(6, 4), (3, 1)]);
    }

    #[test]
    fn a_failing_merged_run_reports_the_per_descriptor_error() {
        // An all-or-nothing run operation that pins a run unless it
        // holds a bad page, and names the run's lowest bad page.
        let bad = [4u32, 6];
        let mut pinned = Vec::new();
        let mut pin = |s: PageId, l: u32| match (s.0..s.0 + l).find(|p| bad.contains(p)) {
            Some(p) => Err(p),
            None => {
                pinned.extend(s.0..s.0 + l);
                Ok(())
            }
        };
        // Descending, so the merged run [3, 12) holds both bad pages; a
        // per-descriptor loop meets page 6 first, after pinning 10–11,
        // 8 and 7.
        let runs = [10, 8, 7, 6, 5, 4, 3].map(|p| (PageId(p), 1 + u32::from(p == 10)));
        assert_eq!(for_each_merged_run(runs.into_iter(), &mut pin), Err(6));
        assert_eq!(pinned, [10, 11, 8, 7]);

        // Two foreign pages posted descending: the batch names the
        // higher, which its first failing descriptor holds.
        let mut f = fixture();
        let g = f.guest;
        let low = f.mem.alloc(DomainId::guest(7)).unwrap();
        let mine = f.mem.alloc(g).unwrap();
        let high = f.mem.alloc(DomainId::guest(8)).unwrap();
        let post = [high, mine, low].map(|p| RxRequest {
            buf: BufferSlice::new(p.base_addr(), 1514),
        });
        let err = f
            .engine
            .enqueue_rx(f.ctx, g, &post, 0, &mut f.rings, &mut f.mem)
            .unwrap_err();
        let ProtectionError::Mem(MemError::NotOwner { page, .. }) = err else {
            unreachable!("{err:?}")
        };
        assert_eq!(page, high);
        assert_eq!(f.mem.outstanding_pins(), 0, "batch failure pins nothing");
    }

    #[test]
    fn wrong_context_owner_rejected() {
        let mut f = fixture();
        let g = f.guest;
        let req = tx_req(&mut f, g);
        let err = f
            .engine
            .enqueue_tx(
                f.ctx,
                DomainId::guest(9),
                &[req],
                0,
                &mut f.rings,
                &mut f.mem,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ProtectionError::Context(ContextError::WrongOwner { .. })
        ));
    }

    #[test]
    fn ring_full_rejected() {
        let mut f = fixture();
        let g = f.guest;
        let reqs: Vec<TxRequest> = (0..16).map(|_| tx_req(&mut f, g)).collect();
        f.engine
            .enqueue_tx(f.ctx, f.guest, &reqs, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        let one = tx_req(&mut f, g);
        let err = f
            .engine
            .enqueue_tx(f.ctx, f.guest, &[one], 0, &mut f.rings, &mut f.mem)
            .unwrap_err();
        assert_eq!(err, ProtectionError::RingFull { ctx: f.ctx });
        // Once the NIC consumes 4 descriptors, space opens up.
        let out = f
            .engine
            .enqueue_tx(f.ctx, f.guest, &[one], 4, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(out.reaped, 4, "lazy reaping at next enqueue");
        assert_eq!(f.engine.outstanding(f.ctx), 13);
    }

    #[test]
    fn reap_unpins_pages() {
        let mut f = fixture();
        let g = f.guest;
        let reqs: Vec<TxRequest> = (0..4).map(|_| tx_req(&mut f, g)).collect();
        f.engine
            .enqueue_tx(f.ctx, f.guest, &reqs, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(f.mem.outstanding_pins(), 4);
        let reaped = f.engine.reap(f.ctx, 2, 0, &mut f.mem).unwrap();
        assert_eq!(reaped, 2);
        assert_eq!(f.mem.outstanding_pins(), 2);
    }

    #[test]
    fn freed_page_with_inflight_dma_is_not_reallocated() {
        let mut f = fixture();
        let g = f.guest;
        let req = tx_req(&mut f, g);
        let page = req.buf.addr.page();
        f.engine
            .enqueue_tx(f.ctx, f.guest, &[req], 0, &mut f.rings, &mut f.mem)
            .unwrap();
        // The (malicious) guest frees the page right after enqueueing.
        assert_eq!(f.mem.free(f.guest, page), Err(MemError::Pinned(page)));
        // Drain the free list; the pinned page must never be handed out.
        while f.mem.alloc(DomainId::guest(9)).is_ok() {}
        assert_eq!(f.mem.info(page).unwrap().owner, Some(f.guest));
        // DMA completes; reap unpins; deferred free makes it reusable.
        f.engine.reap(f.ctx, 1, 0, &mut f.mem).unwrap();
        assert_eq!(f.mem.info(page).unwrap().owner, None);
    }

    #[test]
    fn rx_enqueue_and_reap() {
        let mut f = fixture();
        let pages = f.mem.alloc_many(f.guest, 3).unwrap();
        let reqs: Vec<RxRequest> = pages
            .iter()
            .map(|p| RxRequest {
                buf: BufferSlice::new(p.base_addr(), 1514),
            })
            .collect();
        let out = f
            .engine
            .enqueue_rx(f.ctx, f.guest, &reqs, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(out.producer, 3);
        assert_eq!(f.mem.outstanding_pins(), 3);
        // NIC fills two buffers; reaping at the next post unpins them.
        let more = f.mem.alloc(f.guest).unwrap();
        let out = f
            .engine
            .enqueue_rx(
                f.ctx,
                f.guest,
                &[RxRequest {
                    buf: BufferSlice::new(more.base_addr(), 1514),
                }],
                2,
                &mut f.rings,
                &mut f.mem,
            )
            .unwrap();
        assert_eq!(out.reaped, 2);
        assert_eq!(f.mem.outstanding_pins(), 2);
    }

    #[test]
    fn unprotected_context_rejects_hypercall() {
        let mut mem = PhysMem::new(64);
        let mut rings = RingTable::new();
        let mut engine = ProtectionEngine::new();
        let guest = DomainId::guest(0);
        let ctx = engine
            .assign_context(guest, DmaPolicy::Unprotected, 16, &mut rings, &mut mem)
            .unwrap();
        let page = mem.alloc(guest).unwrap();
        let err = engine
            .enqueue_rx(
                ctx,
                guest,
                &[RxRequest {
                    buf: BufferSlice::new(page.base_addr(), 1514),
                }],
                0,
                &mut rings,
                &mut mem,
            )
            .unwrap_err();
        assert!(matches!(err, ProtectionError::PolicyViolation { .. }));
    }

    #[test]
    fn revocation_unpins_everything() {
        let mut f = fixture();
        let g = f.guest;
        let reqs: Vec<TxRequest> = (0..5).map(|_| tx_req(&mut f, g)).collect();
        f.engine
            .enqueue_tx(f.ctx, f.guest, &reqs, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(f.mem.outstanding_pins(), 5);
        f.engine.revoke_context(f.ctx, &mut f.mem).unwrap();
        assert_eq!(f.mem.outstanding_pins(), 0);
        assert_eq!(f.engine.outstanding(f.ctx), 0);
    }

    /// Nets `journal` into `(page, pins)` pairs, ascending, dropping
    /// pages that net to zero.
    fn net(journal: &[PinRun]) -> Vec<(u32, i32)> {
        let mut pins = std::collections::BTreeMap::new();
        for run in journal {
            for p in run.first.0..run.first.0 + run.len {
                *pins.entry(p).or_insert(0) += run.delta;
            }
        }
        pins.into_iter().filter(|&(_, n)| n != 0).collect()
    }

    /// The engine's pinned pages as `(page, pins)` pairs, ascending.
    fn pinned(f: &Fixture) -> Vec<(u32, i32)> {
        let mut pins = std::collections::BTreeMap::new();
        for (first, len) in f.engine.pinned_runs(f.ctx) {
            for p in first.0..first.0 + len {
                *pins.entry(p).or_insert(0) += 1;
            }
        }
        pins.into_iter().collect()
    }

    #[test]
    fn pin_journal_records_every_pinned_list_change() {
        let mut f = fixture();
        let g = f.guest;
        let early: Vec<TxRequest> = (0..2).map(|_| tx_req(&mut f, g)).collect();
        f.engine
            .enqueue_tx(f.ctx, g, &early, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(f.engine.pin_journal(), None, "off until enabled");
        // Enabling seeds the journal with what is already pinned.
        f.engine.enable_pin_journal();
        assert_eq!(net(f.engine.pin_journal().unwrap()), pinned(&f));
        // A rejected batch changes no list and records nothing.
        let theirs = tx_req(&mut f, DomainId::guest(7));
        let before = f.engine.pin_journal().unwrap().len();
        assert!(f
            .engine
            .enqueue_tx(f.ctx, g, &[theirs], 0, &mut f.rings, &mut f.mem)
            .is_err());
        assert_eq!(f.engine.pin_journal().unwrap().len(), before);
        // Enqueues, lazy reaps, explicit reaps: the journal always nets
        // to the pinned lists.
        let more: Vec<TxRequest> = (0..5).map(|_| tx_req(&mut f, g)).collect();
        f.engine
            .enqueue_tx(f.ctx, g, &more, 1, &mut f.rings, &mut f.mem)
            .unwrap();
        let rx = f.mem.alloc_many(g, 3).unwrap();
        let posts: Vec<RxRequest> = rx
            .iter()
            .map(|p| RxRequest {
                buf: BufferSlice::new(p.base_addr(), 1514),
            })
            .collect();
        f.engine
            .enqueue_rx(f.ctx, g, &posts, 0, &mut f.rings, &mut f.mem)
            .unwrap();
        assert_eq!(net(f.engine.pin_journal().unwrap()), pinned(&f));
        f.engine.reap(f.ctx, 4, 2, &mut f.mem).unwrap();
        assert_eq!(net(f.engine.pin_journal().unwrap()), pinned(&f));
        // Clearing keeps it on; revocation journals every release.
        f.engine.clear_pin_journal();
        assert_eq!(f.engine.pin_journal(), Some(&[][..]));
        let held = pinned(&f);
        f.engine.revoke_context(f.ctx, &mut f.mem).unwrap();
        let released: Vec<(u32, i32)> = held.into_iter().map(|(p, n)| (p, -n)).collect();
        assert_eq!(net(f.engine.pin_journal().unwrap()), released);
    }

    #[test]
    fn pin_journal_merges_adjacent_runs() {
        let mut f = fixture();
        f.engine.enable_pin_journal();
        let pages = f.mem.alloc_many(f.guest, 8).unwrap();
        let post = |pages: &[PageId]| -> Vec<RxRequest> {
            pages
                .iter()
                .map(|p| RxRequest {
                    buf: BufferSlice::new(p.base_addr(), 1514),
                })
                .collect()
        };
        // Ascending, then descending the way drivers pop their pools.
        let descending: Vec<PageId> = pages[4..].iter().rev().copied().collect();
        for batch in [post(&pages[..4]), post(&descending)] {
            f.engine
                .enqueue_rx(f.ctx, f.guest, &batch, 0, &mut f.rings, &mut f.mem)
                .unwrap();
        }
        f.engine.reap(f.ctx, 0, 4, &mut f.mem).unwrap();
        f.engine.reap(f.ctx, 0, 8, &mut f.mem).unwrap();
        let run = |first: usize, delta| PinRun {
            first: pages[first],
            len: 4,
            delta,
        };
        assert_eq!(
            f.engine.pin_journal().unwrap(),
            [run(0, 1), run(4, 1), run(0, -1), run(4, -1)]
        );
    }

    #[test]
    fn a_full_journal_compacts_to_its_net_change() {
        let mut f = fixture();
        let g = f.guest;
        f.engine.enable_pin_journal();
        // One page at a time through the ring, never reaped past the
        // last 8: tens of thousands of runs recorded, a few pinned.
        let pages = f.mem.alloc_many(g, 16).unwrap();
        let template = tx_req(&mut f, g);
        for i in 0..20_000u64 {
            let req = TxRequest {
                buf: BufferSlice::new(pages[(i % 16) as usize].base_addr(), 1514),
                ..template
            };
            f.engine
                .enqueue_tx(
                    f.ctx,
                    g,
                    &[req],
                    i.saturating_sub(8),
                    &mut f.rings,
                    &mut f.mem,
                )
                .unwrap();
            // Uncompacted, the journal would pass 39,000 runs.
            assert!(f.engine.pin_journal().unwrap().len() <= 8192, "step {i}");
        }
        assert_eq!(net(f.engine.pin_journal().unwrap()), pinned(&f));
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fixture();
        let g = f.guest;
        let req = tx_req(&mut f, g);
        f.engine
            .enqueue_tx(f.ctx, f.guest, &[req], 0, &mut f.rings, &mut f.mem)
            .unwrap();
        let s = f.engine.stats();
        assert_eq!(s.descriptors_enqueued, 1);
        assert_eq!(s.pages_pinned, 1);
        assert_eq!(s.hypercalls, 1);
        assert_eq!(s.rejections, 0);
    }
}
