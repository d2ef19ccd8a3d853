//! `DmaShadow` — the dynamic half of cdna-check.
//!
//! The CDNA protection path (`cdna-core`'s `ProtectionEngine` over
//! `cdna-mem`'s `PhysMem`) *claims* a set of invariants: every DMA
//! buffer is ownership-validated and pinned before the NIC sees it,
//! pins outlive the DMA, frees are deferred while pins remain, and
//! per-context sequence numbers advance without replay or gaps. The
//! shadow checker mirrors every page through an explicit
//!
//! ```text
//! Free → Owned → Pinned → InFlight → Completed (→ Owned → Free)
//! ```
//!
//! state machine and every context's sequence stream, fed by the same
//! events the real path processes — so any divergence between what the
//! engine did and what the invariants allow surfaces as a
//! [`ShadowViolation`] instead of silent corruption.
//!
//! The shadow is deliberately independent: it keeps its own page
//! mirror rather than querying `PhysMem`, and the periodic
//! [`DmaShadow::audit_mem`] / [`DmaShadow::audit_pinned`] passes
//! cross-check mirror against reality. The mirror is flat storage
//! indexed by page number, grown on demand to the highest page it has
//! seen, so a per-page event is an index and an audit is one ascending
//! scan.

use cdna_core::ContextId;
use cdna_mem::{DomainId, PageId, PhysMem};
use std::collections::BTreeMap;

/// Which half of a context's DMA stream a sequence number belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShadowDir {
    /// Guest→wire transmit stream.
    Tx,
    /// Wire→guest receive stream.
    Rx,
}

impl ShadowDir {
    /// Short stream name for trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            ShadowDir::Tx => "tx",
            ShadowDir::Rx => "rx",
        }
    }
}

/// The lifecycle position of a mirrored page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowState {
    /// No owner: on the free list.
    Free,
    /// Owned by a domain, no pins.
    Owned,
    /// Pinned for DMA but not yet handed to the device.
    Pinned,
    /// At least one DMA referencing the page is outstanding.
    InFlight,
    /// DMA completed; pins not yet dropped (awaiting lazy reap).
    Completed,
}

/// A DMA-invariant violation detected by the shadow checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A pin was requested for a page already handed to the device.
    DoublePin,
    /// An unpin arrived with zero shadow pins outstanding.
    UnpinUnderflow,
    /// A free took effect while DMA was still outstanding.
    FreeWhileInFlight,
    /// Ownership transferred while the page was pinned or in flight.
    OwnershipChangeUnderPin,
    /// DMA started on a page with no shadow pin.
    DmaWithoutPin,
    /// A pin was requested for an unowned (free) page.
    PinWithoutOwner,
    /// A sequence number was re-observed (stale descriptor replay).
    SequenceReplay {
        /// The next sequence number the shadow expected.
        expected: u32,
        /// The stale number actually observed.
        found: u32,
    },
    /// One or more sequence numbers were skipped.
    SequenceGap {
        /// The next sequence number the shadow expected.
        expected: u32,
        /// The number actually observed (ahead of expected).
        found: u32,
    },
    /// An audit found the mirror and the real state disagreeing.
    MirrorDivergence {
        /// What diverged, rendered for the report.
        detail: String,
    },
}

impl ViolationKind {
    /// Stable numeric code for embedding in a `FaultKind`.
    pub fn code(&self) -> u32 {
        match self {
            ViolationKind::DoublePin => 1,
            ViolationKind::UnpinUnderflow => 2,
            ViolationKind::FreeWhileInFlight => 3,
            ViolationKind::OwnershipChangeUnderPin => 4,
            ViolationKind::DmaWithoutPin => 5,
            ViolationKind::PinWithoutOwner => 6,
            ViolationKind::SequenceReplay { .. } => 7,
            ViolationKind::SequenceGap { .. } => 8,
            ViolationKind::MirrorDivergence { .. } => 9,
        }
    }

    /// Stable kebab-case name for reports and trace events.
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::DoublePin => "double-pin",
            ViolationKind::UnpinUnderflow => "unpin-underflow",
            ViolationKind::FreeWhileInFlight => "free-while-in-flight",
            ViolationKind::OwnershipChangeUnderPin => "ownership-change-under-pin",
            ViolationKind::DmaWithoutPin => "dma-without-pin",
            ViolationKind::PinWithoutOwner => "pin-without-owner",
            ViolationKind::SequenceReplay { .. } => "sequence-replay",
            ViolationKind::SequenceGap { .. } => "sequence-gap",
            ViolationKind::MirrorDivergence { .. } => "mirror-divergence",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::SequenceReplay { expected, found } => {
                write!(f, "sequence-replay (expected {expected}, found {found})")
            }
            ViolationKind::SequenceGap { expected, found } => {
                write!(f, "sequence-gap (expected {expected}, found {found})")
            }
            ViolationKind::MirrorDivergence { detail } => {
                write!(f, "mirror-divergence: {detail}")
            }
            // Deliberately exhaustive (no `_`): a new violation class
            // must decide its own rendering (see the exhaustive-fault
            // rule).
            ViolationKind::DoublePin
            | ViolationKind::UnpinUnderflow
            | ViolationKind::FreeWhileInFlight
            | ViolationKind::OwnershipChangeUnderPin
            | ViolationKind::DmaWithoutPin
            | ViolationKind::PinWithoutOwner => f.write_str(self.name()),
        }
    }
}

/// One recorded violation with its attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowViolation {
    /// The context involved, when the event carried one.
    pub ctx: Option<ContextId>,
    /// The page involved, when the event carried one.
    pub page: Option<PageId>,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl std::fmt::Display for ShadowViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shadow violation: {}", self.kind)?;
        if let Some(ctx) = self.ctx {
            write!(f, " ctx={}", ctx.0)?;
        }
        if let Some(page) = self.page {
            write!(f, " page={}", page.0)?;
        }
        Ok(())
    }
}

/// Mirror of one page's protection-relevant state. `Copy`, so a whole
/// mirror clones as one memory copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageMirror {
    owner: Option<DomainId>,
    pins: u32,
    inflight: u32,
    /// Whether at least one DMA has completed since the last unpin —
    /// distinguishes `Completed` from plain `Pinned` for state reports.
    completed: bool,
    /// Owner freed the page while pinned: the free takes effect when the
    /// last pin drops (mirrors `PhysMem`'s deferred free).
    pending_free: bool,
}

/// The page mirror: slot `i` mirrors `PageId(i)`, `None` marks an
/// untracked page. Grows to the highest page seen, never to the whole
/// pool up front; iteration is in ascending page order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PageMirrors {
    slots: Vec<Option<PageMirror>>,
    /// Number of `Some` slots.
    tracked: usize,
}

impl PageMirrors {
    /// The entry for `page`, if tracked.
    fn get(&self, page: PageId) -> Option<&PageMirror> {
        self.slots.get(page.0 as usize).and_then(Option::as_ref)
    }

    /// The entry for `page`, if tracked, mutably.
    fn get_mut(&mut self, page: PageId) -> Option<&mut PageMirror> {
        self.slots.get_mut(page.0 as usize).and_then(Option::as_mut)
    }

    /// The entry for `page`, tracking it (owner-less, unpinned) first
    /// if it is not.
    fn track(&mut self, page: PageId) -> &mut PageMirror {
        let i = page.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.tracked += 1;
        }
        slot.get_or_insert_with(PageMirror::default)
    }

    /// Tracks `page` as `m`, returning the entry it replaces.
    fn replace(&mut self, page: PageId, m: PageMirror) -> Option<PageMirror> {
        let i = page.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let prev = self.slots[i].replace(m);
        if prev.is_none() {
            self.tracked += 1;
        }
        prev
    }

    /// Stops tracking `page` (it is back on the free list).
    fn untrack(&mut self, page: PageId) {
        if let Some(slot) = self.slots.get_mut(page.0 as usize) {
            if slot.take().is_some() {
                self.tracked -= 1;
            }
        }
    }

    /// Every tracked page, ascending.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (PageId, &PageMirror)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| Some((PageId(i as u32), m.as_ref()?)))
    }
}

/// Per-(context, direction) expected-sequence tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeqShadow {
    expected: u32,
    modulus: u32,
    observed: u64,
    /// Set by [`DmaShadow::reset_seq_on`]: the next observation reseeds
    /// the expectation instead of being checked against it.
    reseed: bool,
}

impl SeqShadow {
    /// Checks `seq` against the expectation and advances it, returning
    /// the violation it makes, if any.
    fn observe(&mut self, seq: u32) -> Option<ViolationKind> {
        self.observed += 1;
        let m = self.modulus;
        if self.reseed {
            self.reseed = false;
            self.expected = seq % m;
        }
        let (expected, found) = (self.expected, seq % m);
        if found == expected {
            self.expected = (expected + 1) % m;
            return None;
        }
        if (found + m - expected) % m > m / 2 {
            // Keep the expectation: a replay does not advance the stream.
            Some(ViolationKind::SequenceReplay { expected, found })
        } else {
            self.expected = (found + 1) % m; // resync past the gap
            Some(ViolationKind::SequenceGap { expected, found })
        }
    }
}

/// Appends a violation; free function so event handlers can record
/// while holding a mutable borrow of the page mirror map.
fn record(
    violations: &mut Vec<ShadowViolation>,
    ctx: Option<ContextId>,
    page: Option<PageId>,
    kind: ViolationKind,
) {
    violations.push(ShadowViolation { ctx, page, kind });
}

/// The shadow checker. See the module docs for the model.
///
/// Every scan walks its storage in ascending key order (page number,
/// then stream), so violation reports are deterministic regardless of
/// event arrival interleaving. Two shadows are equal when their page
/// mirrors, sequence streams, violations and event counts all are.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DmaShadow {
    pages: PageMirrors,
    seqs: BTreeMap<(u16, u8, ShadowDir), SeqShadow>,
    violations: Vec<ShadowViolation>,
    events: u64,
}

impl DmaShadow {
    /// Creates an empty shadow; pages are tracked lazily on first event.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lifecycle state the mirror currently assigns to `page`.
    pub fn state(&self, page: PageId) -> ShadowState {
        match self.pages.get(page) {
            None => ShadowState::Free,
            Some(m) if m.owner.is_none() => ShadowState::Free,
            Some(m) if m.inflight > 0 => ShadowState::InFlight,
            Some(m) if m.pins > 0 && m.completed => ShadowState::Completed,
            Some(m) if m.pins > 0 => ShadowState::Pinned,
            Some(_) => ShadowState::Owned,
        }
    }

    /// All violations recorded so far, in event order.
    pub fn violations(&self) -> &[ShadowViolation] {
        &self.violations
    }

    /// Drains and returns the recorded violations.
    pub fn take_violations(&mut self) -> Vec<ShadowViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Number of events the shadow has processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of pages the mirror currently tracks.
    pub fn pages_tracked(&self) -> usize {
        self.pages.tracked
    }

    /// The owner the mirror currently records for `page`, if tracked.
    pub fn owner(&self, page: PageId) -> Option<DomainId> {
        self.pages.get(page).and_then(|m| m.owner)
    }

    /// The pins the mirror currently records for `page` (0 if
    /// untracked).
    pub fn pins(&self, page: PageId) -> u32 {
        self.pages.get(page).map_or(0, |m| m.pins)
    }

    /// A page left the free list with `owner`.
    pub fn on_alloc(&mut self, owner: DomainId, page: PageId) {
        self.events += 1;
        // Written whole, not built in place: on the per-page path of
        // every first sync.
        let fresh = PageMirror {
            owner: Some(owner),
            ..PageMirror::default()
        };
        let prev = self.pages.replace(page, fresh).and_then(|m| m.owner);
        if prev.is_some() {
            let detail = format!("alloc of page {} already owned by {prev:?}", page.0);
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
        }
    }

    /// The owner asked to free `page`. Mirrors `PhysMem::free`'s
    /// semantics: a free under pins is legal but *deferred*; the shadow
    /// flags it only if DMA is outstanding (the dangerous case) and
    /// otherwise arms `pending_free`.
    pub fn on_free(&mut self, owner: DomainId, page: PageId) {
        self.events += 1;
        let Some(m) = self.pages.get_mut(page) else {
            let detail = format!("free of untracked page {}", page.0);
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
            return;
        };
        if m.owner != Some(owner) {
            let detail = format!(
                "free of page {} by {owner} but mirror owner is {:?}",
                page.0, m.owner
            );
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
        }
        if m.inflight > 0 {
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::FreeWhileInFlight,
            );
            return;
        }
        if m.pins > 0 {
            m.pending_free = true; // deferred free: completes at last unpin
        } else {
            self.pages.untrack(page);
        }
    }

    /// Ownership of `page` moved from `from` to `to` (page flip / grant
    /// transfer). Illegal while pinned or in flight.
    pub fn on_transfer(&mut self, page: PageId, from: DomainId, to: DomainId) {
        self.events += 1;
        let m = self.pages.track(page);
        if m.pins > 0 || m.inflight > 0 {
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::OwnershipChangeUnderPin,
            );
        }
        if m.owner.is_some() && m.owner != Some(from) {
            let detail = format!(
                "transfer of page {} from {from} but mirror owner is {:?}",
                page.0, m.owner
            );
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
        }
        m.owner = Some(to);
    }

    /// The protection path pinned `page` for an upcoming DMA.
    pub fn on_pin(&mut self, page: PageId) {
        self.events += 1;
        let m = self.pages.track(page);
        if m.owner.is_none() {
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::PinWithoutOwner,
            );
        }
        if m.inflight > 0 {
            // Pinning a page already handed to the device means the same
            // buffer was validated twice without an intervening reap.
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::DoublePin,
            );
        }
        m.pins += 1;
        m.completed = false;
    }

    /// The protection path dropped one pin of `page`.
    pub fn on_unpin(&mut self, page: PageId) {
        self.events += 1;
        let Some(m) = self.pages.get_mut(page) else {
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::UnpinUnderflow,
            );
            return;
        };
        if m.pins == 0 {
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::UnpinUnderflow,
            );
            return;
        }
        m.pins -= 1;
        if m.pins == 0 {
            m.completed = false;
            if m.pending_free {
                self.pages.untrack(page); // deferred free completes
            }
        }
    }

    /// A DMA referencing `page` was handed to the device on behalf of
    /// `ctx`.
    pub fn on_dma_start(&mut self, ctx: ContextId, page: PageId) {
        self.events += 1;
        let m = self.pages.track(page);
        if m.pins == 0 {
            record(
                &mut self.violations,
                Some(ctx),
                Some(page),
                ViolationKind::DmaWithoutPin,
            );
        }
        m.inflight += 1;
    }

    /// The DMA referencing `page` completed (device is done; pins remain
    /// until the lazy reap unpins).
    pub fn on_dma_complete(&mut self, ctx: ContextId, page: PageId) {
        self.events += 1;
        let m = self.pages.track(page);
        if m.inflight == 0 {
            let detail = format!("completion for page {} with no in-flight DMA", page.0);
            record(
                &mut self.violations,
                Some(ctx),
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
            return;
        }
        m.inflight -= 1;
        if m.inflight == 0 {
            m.completed = true;
        }
    }

    /// Observes the next sequence number stamped (or checked) on a
    /// context's stream. The first observation per (ctx, dir) seeds the
    /// expectation; after that each number must be exactly `expected`.
    ///
    /// Replay vs gap is discriminated by the modular distance: a number
    /// more than half the modulus *behind* the expectation is a replayed
    /// stale descriptor; anything else ahead is a gap. After a gap the
    /// shadow resynchronises to avoid cascading reports.
    pub fn observe_seq(&mut self, ctx: ContextId, dir: ShadowDir, seq: u32, modulus: u32) {
        self.observe_seqs_on(0, ctx, dir, [seq], modulus);
    }

    /// [`DmaShadow::observe_seq`] for each number of `seqs` in turn, on
    /// a specific device: context ids are per NIC, so when the same id
    /// exists on several NICs their streams must not share an
    /// expectation. The stream is looked up once for the whole run.
    pub fn observe_seqs_on(
        &mut self,
        nic: u16,
        ctx: ContextId,
        dir: ShadowDir,
        seqs: impl IntoIterator<Item = u32>,
        modulus: u32,
    ) {
        let mut seqs = seqs.into_iter().peekable();
        let Some(&first) = seqs.peek() else {
            return;
        };
        let modulus = modulus.max(2);
        let stream = self.seqs.entry((nic, ctx.0, dir)).or_insert(SeqShadow {
            expected: first % modulus,
            modulus,
            observed: 0,
            reseed: false,
        });
        for seq in seqs {
            self.events += 1;
            if let Some(kind) = stream.observe(seq) {
                record(&mut self.violations, Some(ctx), None, kind);
            }
        }
    }

    /// Forgets one stream's expectation; the next observation reseeds
    /// it without being checked. For auditors that *sample* a stream
    /// and know they missed a window (e.g. a descriptor ring that
    /// wrapped between audit passes) — continuity across the hole
    /// cannot be judged, and reporting it as a gap would be a false
    /// positive.
    pub fn reset_seq_on(&mut self, nic: u16, ctx: ContextId, dir: ShadowDir) {
        if let Some(entry) = self.seqs.get_mut(&(nic, ctx.0, dir)) {
            entry.reseed = true;
        }
    }

    /// Sequence numbers observed on a context's stream so far, summed
    /// across devices.
    pub fn seq_observed(&self, ctx: ContextId, dir: ShadowDir) -> u64 {
        self.seqs
            .iter()
            .filter(|((_, c, d), _)| *c == ctx.0 && *d == dir)
            .map(|(_, s)| s.observed)
            .sum()
    }

    /// Cross-checks the mirror against the real `PhysMem`: every tracked
    /// page's owner and pin count must match, and `PhysMem`'s aggregate
    /// outstanding-pin count must equal the mirror's. Divergences are
    /// recorded in ascending page order, the aggregate last, and the
    /// number found is returned.
    ///
    /// The mirror and the pool's page table are walked in lockstep;
    /// only a page that disagrees is looked up again to render it.
    pub fn audit_mem(&mut self, mem: &PhysMem) -> usize {
        let before = self.violations.len();
        let mut mirror_pins: u64 = 0;
        let mut divergences: Vec<(PageId, String)> = Vec::new();
        let table = mem.page_table();
        let (head, tail) = self
            .pages
            .slots
            .split_at(table.len().min(self.pages.slots.len()));
        for (i, (slot, real)) in head.iter().zip(table).enumerate() {
            if let Some(m) = slot {
                mirror_pins += u64::from(m.pins);
                if m.owner != real.owner || m.pins != real.pins {
                    mem_divergences(PageId(i as u32), m, mem, &mut divergences);
                }
            }
        }
        // Past the table every pool page is free and unpinned, and past
        // the pool there is no page at all.
        for (i, slot) in (head.len()..).zip(tail) {
            if let Some(m) = slot {
                mirror_pins += u64::from(m.pins);
                if m.owner.is_some() || m.pins != 0 || i >= mem.total_pages() as usize {
                    mem_divergences(PageId(i as u32), m, mem, &mut divergences);
                }
            }
        }
        if mem.outstanding_pins() != mirror_pins {
            divergences.push((
                PageId(0),
                format!(
                    "aggregate pins: mirror {mirror_pins}, pool {}",
                    mem.outstanding_pins()
                ),
            ));
        }
        for (page, detail) in divergences {
            record(
                &mut self.violations,
                None,
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
        }
        self.violations.len() - before
    }

    /// Cross-checks one context's engine-side pinned list — the page
    /// run `(first page, page count)` of each pinned buffer, in ring
    /// order — against the mirror: every engine-pinned page must be
    /// pinned in the mirror too. Divergences are recorded run by run,
    /// each run's pages ascending; returns the number recorded.
    ///
    /// A run the mirror holds pinned throughout costs one slice scan;
    /// only a run with a divergence is walked page by page.
    pub fn audit_pinned(
        &mut self,
        ctx: ContextId,
        pinned_runs: impl IntoIterator<Item = (PageId, u32)>,
    ) -> usize {
        let before = self.violations.len();
        let pinned = |m: &Option<PageMirror>| m.is_some_and(|m| m.pins > 0);
        // `for_each`, not `for`: the engine's runs come from two chained
        // ring buffers, which internal iteration walks slice by slice.
        pinned_runs.into_iter().for_each(|(first, len)| {
            let run = first.0 as usize..first.0 as usize + len as usize;
            if self
                .pages
                .slots
                .get(run)
                .is_some_and(|ms| ms.iter().all(pinned))
            {
                return;
            }
            for page in (first.0..first.0 + len).map(PageId) {
                if self.pages.get(page).is_some_and(|m| m.pins > 0) {
                    continue;
                }
                let detail = format!(
                    "engine holds page {} pinned for ctx {} but mirror shows no pin",
                    page.0, ctx.0
                );
                record(
                    &mut self.violations,
                    Some(ctx),
                    Some(page),
                    ViolationKind::MirrorDivergence { detail },
                );
            }
        });
        self.violations.len() - before
    }
}

/// Renders the divergences of mirrored page `page` (entry `m`) from
/// the pool into `out`: owner, then pins, or the lookup error of a page
/// the pool does not have.
fn mem_divergences(page: PageId, m: &PageMirror, mem: &PhysMem, out: &mut Vec<(PageId, String)>) {
    match mem.info(page) {
        Ok(real) => {
            // A pending-free page keeps its owner in both PhysMem and
            // the mirror until the free completes.
            if real.owner != m.owner {
                out.push((
                    page,
                    format!(
                        "page {} owner: mirror {:?}, pool {:?}",
                        page.0, m.owner, real.owner
                    ),
                ));
            }
            if real.pins != m.pins {
                out.push((
                    page,
                    format!(
                        "page {} pins: mirror {}, pool {}",
                        page.0, m.pins, real.pins
                    ),
                ));
            }
        }
        Err(e) => out.push((page, format!("page {}: {e}", page.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: u8) -> ContextId {
        ContextId(n)
    }

    fn guest() -> DomainId {
        DomainId::guest(0)
    }

    #[test]
    fn clean_lifecycle_no_violations() {
        let mut s = DmaShadow::new();
        let p = PageId(7);
        s.on_alloc(guest(), p);
        assert_eq!(s.state(p), ShadowState::Owned);
        s.on_pin(p);
        assert_eq!(s.state(p), ShadowState::Pinned);
        s.on_dma_start(ctx(1), p);
        assert_eq!(s.state(p), ShadowState::InFlight);
        s.on_dma_complete(ctx(1), p);
        assert_eq!(s.state(p), ShadowState::Completed);
        s.on_unpin(p);
        assert_eq!(s.state(p), ShadowState::Owned);
        s.on_free(guest(), p);
        assert_eq!(s.state(p), ShadowState::Free);
        assert!(s.violations().is_empty());
        assert_eq!(s.events(), 6);
    }

    #[test]
    fn double_pin_detected() {
        let mut s = DmaShadow::new();
        let p = PageId(1);
        s.on_alloc(guest(), p);
        s.on_pin(p);
        s.on_dma_start(ctx(0), p);
        s.on_pin(p); // re-validated while in flight
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].kind, ViolationKind::DoublePin);
    }

    #[test]
    fn unpin_underflow_detected() {
        let mut s = DmaShadow::new();
        let p = PageId(2);
        s.on_alloc(guest(), p);
        s.on_unpin(p);
        assert_eq!(s.violations()[0].kind, ViolationKind::UnpinUnderflow);
    }

    #[test]
    fn free_while_in_flight_detected() {
        let mut s = DmaShadow::new();
        let p = PageId(3);
        s.on_alloc(guest(), p);
        s.on_pin(p);
        s.on_dma_start(ctx(0), p);
        s.on_free(guest(), p);
        assert!(s
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::FreeWhileInFlight));
    }

    #[test]
    fn deferred_free_is_legal() {
        let mut s = DmaShadow::new();
        let p = PageId(4);
        s.on_alloc(guest(), p);
        s.on_pin(p);
        s.on_free(guest(), p); // deferred, not a violation
        assert!(s.violations().is_empty());
        s.on_unpin(p); // completes the free
        assert_eq!(s.state(p), ShadowState::Free);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn ownership_change_under_pin_detected() {
        let mut s = DmaShadow::new();
        let p = PageId(5);
        s.on_alloc(guest(), p);
        s.on_pin(p);
        s.on_transfer(p, guest(), DomainId::guest(1));
        assert_eq!(
            s.violations()[0].kind,
            ViolationKind::OwnershipChangeUnderPin
        );
    }

    #[test]
    fn dma_without_pin_and_pin_without_owner() {
        let mut s = DmaShadow::new();
        let p = PageId(6);
        s.on_pin(p); // never allocated
        assert_eq!(s.violations()[0].kind, ViolationKind::PinWithoutOwner);
        let mut s = DmaShadow::new();
        s.on_alloc(guest(), p);
        s.on_dma_start(ctx(2), p); // no pin
        assert_eq!(s.violations()[0].kind, ViolationKind::DmaWithoutPin);
    }

    #[test]
    fn sequence_replay_and_gap() {
        let mut s = DmaShadow::new();
        let m = 64;
        s.observe_seq(ctx(0), ShadowDir::Tx, 10, m); // seeds expected = 11
        s.observe_seq(ctx(0), ShadowDir::Tx, 11, m);
        s.observe_seq(ctx(0), ShadowDir::Tx, 10, m); // replay
        assert!(matches!(
            s.violations()[0].kind,
            ViolationKind::SequenceReplay {
                expected: 12,
                found: 10
            }
        ));
        s.observe_seq(ctx(0), ShadowDir::Tx, 15, m); // gap (12..=14 skipped)
        assert!(matches!(
            s.violations()[1].kind,
            ViolationKind::SequenceGap {
                expected: 12,
                found: 15
            }
        ));
        s.observe_seq(ctx(0), ShadowDir::Tx, 16, m); // resynced
        assert_eq!(s.violations().len(), 2);
        assert_eq!(s.seq_observed(ctx(0), ShadowDir::Tx), 5);
        // The same numbers as one run, on another NIC's stream.
        let mut run = DmaShadow::new();
        run.observe_seqs_on(1, ctx(0), ShadowDir::Tx, [10, 11, 10, 15, 16], m);
        assert_eq!(run.violations(), s.violations());
        assert_eq!(run.events(), s.events());
        assert_eq!(run.seq_observed(ctx(0), ShadowDir::Tx), 5);
    }

    #[test]
    fn sequence_wraps_cleanly() {
        let mut s = DmaShadow::new();
        let m = 8;
        s.observe_seq(ctx(1), ShadowDir::Rx, 6, m);
        s.observe_seq(ctx(1), ShadowDir::Rx, 7, m);
        s.observe_seq(ctx(1), ShadowDir::Rx, 0, m); // wrap
        s.observe_seq(ctx(1), ShadowDir::Rx, 1, m);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn streams_are_independent() {
        let mut s = DmaShadow::new();
        s.observe_seq(ctx(0), ShadowDir::Tx, 0, 16);
        s.observe_seq(ctx(1), ShadowDir::Tx, 9, 16);
        s.observe_seq(ctx(0), ShadowDir::Rx, 3, 16);
        s.observe_seq(ctx(0), ShadowDir::Tx, 1, 16);
        s.observe_seq(ctx(1), ShadowDir::Tx, 10, 16);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn audit_mem_agrees_with_pool() {
        let mut mem = PhysMem::new(16);
        let mut s = DmaShadow::new();
        let Ok(p) = mem.alloc(guest()) else {
            unreachable!("fresh pool")
        };
        s.on_alloc(guest(), p);
        assert!(mem.pin(p).is_ok());
        s.on_pin(p);
        assert_eq!(s.audit_mem(&mem), 0);
        // Now diverge: unpin for real but not in the mirror.
        assert!(mem.unpin(p).is_ok());
        assert!(s.audit_mem(&mem) > 0);
        assert!(matches!(
            s.violations()[0].kind,
            ViolationKind::MirrorDivergence { .. }
        ));
    }

    #[test]
    fn pages_beyond_the_tracked_range_start_untracked() {
        let mut s = DmaShadow::new();
        s.on_alloc(guest(), PageId(3));
        // Far past anything tracked: reads see an untracked page.
        assert_eq!(s.state(PageId(40_000)), ShadowState::Free);
        assert_eq!(s.owner(PageId(u32::MAX)), None);
        s.on_unpin(PageId(50_000));
        assert_eq!(s.violations()[0].kind, ViolationKind::UnpinUnderflow);
        assert_eq!(s.pages_tracked(), 1, "a failed unpin tracks nothing");
        s.on_alloc(guest(), PageId(40_000));
        s.on_pin(PageId(40_000));
        assert_eq!(s.state(PageId(40_000)), ShadowState::Pinned);
        assert_eq!(s.state(PageId(3)), ShadowState::Owned);
        assert_eq!(s.pages_tracked(), 2);
        assert_eq!(s.violations().len(), 1);
    }

    #[test]
    fn free_then_realloc_is_clean_and_takes_the_new_owner() {
        let mut s = DmaShadow::new();
        let p = PageId(11);
        let other = DomainId::guest(1);
        s.on_alloc(guest(), p);
        s.on_free(guest(), p);
        assert_eq!(s.owner(p), None);
        s.on_alloc(other, p);
        assert_eq!(s.owner(p), Some(other));
        s.on_pin(p);
        s.on_unpin(p);
        s.on_free(other, p);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        // Allocating a page the mirror still holds is a divergence.
        s.on_alloc(guest(), p);
        s.on_alloc(other, p);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.owner(p), Some(other));
    }

    #[test]
    fn pages_tracked_counts_live_mirror_entries() {
        let mut s = DmaShadow::new();
        assert_eq!(s.pages_tracked(), 0);
        for p in [5, 1, 9] {
            s.on_alloc(guest(), PageId(p));
        }
        s.on_alloc(guest(), PageId(5)); // re-alloc: same entry
        assert_eq!(s.pages_tracked(), 3);
        s.on_free(guest(), PageId(1));
        assert_eq!(s.pages_tracked(), 2);
        // A deferred free leaves the entry until the last unpin.
        s.on_pin(PageId(9));
        s.on_free(guest(), PageId(9));
        assert_eq!(s.pages_tracked(), 2);
        s.on_unpin(PageId(9));
        assert_eq!(s.pages_tracked(), 1);
        // A pin of an unowned page tracks it (and is flagged).
        s.on_pin(PageId(2));
        assert_eq!(s.pages_tracked(), 2);
        assert_eq!(s.violations().len(), 2, "re-alloc and pin-without-owner");
    }

    #[test]
    fn audit_mem_reports_divergences_in_ascending_page_order() {
        let mut mem = PhysMem::new(16);
        let mut s = DmaShadow::new();
        let pages: Vec<PageId> = (0..8)
            .map(|_| mem.alloc(guest()).unwrap_or_else(|e| unreachable!("{e}")))
            .collect();
        // Mirror the pages in descending order, pinning every other one
        // for real only: the mirror's arrival order must not leak.
        for &p in pages.iter().rev() {
            s.on_alloc(guest(), p);
        }
        for &p in pages.iter().rev().step_by(2) {
            assert!(mem.pin(p).is_ok());
        }
        let found = s.audit_mem(&mem);
        let diverged: Vec<Option<PageId>> = s.violations().iter().map(|v| v.page).collect();
        let mut want: Vec<Option<PageId>> =
            pages.iter().rev().step_by(2).map(|&p| Some(p)).collect();
        want.sort();
        want.push(Some(PageId(0))); // the aggregate pin count comes last
        assert_eq!(found, want.len());
        assert_eq!(diverged, want);
    }

    #[test]
    fn audit_pinned_catches_ghost_pin() {
        let mut s = DmaShadow::new();
        let p = PageId(9);
        // Engine claims p pinned for ctx 0; mirror never saw a pin.
        assert_eq!(s.audit_pinned(ctx(0), [(p, 1)]), 1);
        s.on_alloc(guest(), p);
        s.on_pin(p);
        assert_eq!(s.audit_pinned(ctx(0), [(p, 1)]), 0);
    }

    /// The per-page [`DmaShadow::audit_mem`]: one pool lookup per
    /// tracked page. The reference the lockstep walk must match.
    fn audit_mem_per_page(s: &mut DmaShadow, mem: &PhysMem) -> usize {
        let before = s.violations.len();
        let mut mirror_pins: u64 = 0;
        let mut divergences: Vec<(PageId, String)> = Vec::new();
        for (page, m) in s.pages.iter() {
            mirror_pins += u64::from(m.pins);
            match mem.info(page) {
                Ok(real) => {
                    if real.owner != m.owner {
                        divergences.push((
                            page,
                            format!(
                                "page {} owner: mirror {:?}, pool {:?}",
                                page.0, m.owner, real.owner
                            ),
                        ));
                    }
                    if real.pins != m.pins {
                        divergences.push((
                            page,
                            format!(
                                "page {} pins: mirror {}, pool {}",
                                page.0, m.pins, real.pins
                            ),
                        ));
                    }
                }
                Err(e) => divergences.push((page, format!("page {}: {e}", page.0))),
            }
        }
        if mem.outstanding_pins() != mirror_pins {
            divergences.push((
                PageId(0),
                format!(
                    "aggregate pins: mirror {mirror_pins}, pool {}",
                    mem.outstanding_pins()
                ),
            ));
        }
        for (page, detail) in divergences {
            record(
                &mut s.violations,
                None,
                Some(page),
                ViolationKind::MirrorDivergence { detail },
            );
        }
        s.violations.len() - before
    }

    /// The per-page [`DmaShadow::audit_pinned`]: one mirror lookup per
    /// engine-pinned page.
    fn audit_pinned_per_page(s: &mut DmaShadow, ctx: ContextId, runs: &[(PageId, u32)]) -> usize {
        let before = s.violations.len();
        for &(first, len) in runs {
            for page in (first.0..first.0 + len).map(PageId) {
                if s.pages.get(page).is_some_and(|m| m.pins > 0) {
                    continue;
                }
                let detail = format!(
                    "engine holds page {} pinned for ctx {} but mirror shows no pin",
                    page.0, ctx.0
                );
                record(
                    &mut s.violations,
                    Some(ctx),
                    Some(page),
                    ViolationKind::MirrorDivergence { detail },
                );
            }
        }
        s.violations.len() - before
    }

    /// Pages in the seeded pools below.
    const POOL: u32 = 48;

    /// A seeded pool and a mirror of it that diverges at random pages.
    /// The pool's table stops short of its end at random; some pinned
    /// pages have no owner. The mirror stops short of, or runs past,
    /// the pool's end at random, and most of its pages copy the pool.
    /// The others are holes (untracked), take the other owner, or gain
    /// or lose a pin.
    fn divergent_mirror(seed: u64) -> (PhysMem, DmaShadow) {
        let mut rng = cdna_sim::SimRng::seed_from(seed);
        let owners = [guest(), DomainId::guest(1)];
        let mut mem = PhysMem::new(POOL);
        for _ in 0..rng.below(POOL as usize - 8) {
            let page = mem
                .alloc(owners[rng.below(2)])
                .unwrap_or_else(|e| unreachable!("{e}"));
            for _ in 0..rng.below(3) {
                assert!(mem.pin(page).is_ok());
            }
        }
        if rng.chance(0.5) {
            assert!(mem.pin(PageId(rng.below(POOL as usize) as u32)).is_ok());
        }
        let mut s = DmaShadow::new();
        for page in (0..rng.below(POOL as usize + 8) as u32).map(PageId) {
            let real = mem.info(page).unwrap_or(cdna_mem::PageInfo {
                owner: None,
                pins: 0,
            });
            let mut m = PageMirror {
                owner: real.owner,
                pins: real.pins,
                ..PageMirror::default()
            };
            match rng.below(12) {
                0 => continue,
                1 => m.owner = Some(owners[usize::from(m.owner == Some(owners[0]))]),
                2 => m.pins += 1,
                3 => m.pins = m.pins.saturating_sub(1),
                _ => {}
            }
            s.pages.replace(page, m);
        }
        (mem, s)
    }

    #[test]
    fn audit_mem_matches_the_per_page_audit_on_divergent_mirrors() {
        let (mut clean, mut diverged) = (0, 0);
        for seed in 0..400 {
            let (mem, mut fast) = divergent_mirror(seed);
            let mut slow = fast.clone();
            let found = fast.audit_mem(&mem);
            assert_eq!(found, audit_mem_per_page(&mut slow, &mem), "seed {seed}");
            assert_eq!(fast.violations(), slow.violations(), "seed {seed}");
            if found == 0 {
                clean += 1;
            } else {
                diverged += 1;
            }
        }
        assert!(
            clean > 0 && diverged > 0,
            "{clean} clean, {diverged} diverged"
        );
    }

    #[test]
    fn audit_pinned_matches_the_per_page_audit_on_divergent_mirrors() {
        let (mut clean, mut diverged) = (0, 0);
        for seed in 0..400 {
            let (_, mut fast) = divergent_mirror(seed);
            let mut slow = fast.clone();
            let mut rng = cdna_sim::SimRng::seed_from(!seed);
            let runs: Vec<(PageId, u32)> = (0..rng.below(6))
                .map(|_| {
                    let first = rng.below(POOL as usize + 12) as u32;
                    (PageId(first), rng.below(6) as u32)
                })
                .collect();
            let found = fast.audit_pinned(ctx(2), runs.iter().copied());
            assert_eq!(
                found,
                audit_pinned_per_page(&mut slow, ctx(2), &runs),
                "seed {seed}"
            );
            assert_eq!(fast.violations(), slow.violations(), "seed {seed}");
            if found == 0 {
                clean += 1;
            } else {
                diverged += 1;
            }
        }
        assert!(
            clean > 0 && diverged > 0,
            "{clean} clean, {diverged} diverged"
        );
    }

    #[test]
    fn display_renders_ctx_and_page() {
        let v = ShadowViolation {
            ctx: Some(ctx(3)),
            page: Some(PageId(12)),
            kind: ViolationKind::DoublePin,
        };
        let text = v.to_string();
        assert!(text.contains("double-pin"));
        assert!(text.contains("ctx=3"));
        assert!(text.contains("page=12"));
    }
}
