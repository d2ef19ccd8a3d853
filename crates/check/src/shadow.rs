//! `DmaShadow` — the dynamic half of cdna-check.
//!
//! CDNA's DMA protection (paper §3.3) rests on two facts per page, its
//! owner and a pin count held for the life of the DMA, and on each
//! context's sequence stream. The protection path (`cdna-core`'s
//! `ProtectionEngine` over `cdna-mem`'s `PhysMem`) *claims*: a page is
//! pinned only while a domain owns it, every pin is dropped exactly
//! once, and per-context sequence numbers advance without replay or
//! gaps. The shadow checker mirrors each page's owner and pins as a
//! [`PageInfo`] and each context's sequence stream, fed by what the
//! protection path did: a page's alloc at its first pin, each pin and
//! unpin, its free after the last unpin, and every stamped sequence
//! number. Any divergence between what the engine did and what the
//! invariants allow surfaces as a [`ShadowViolation`] instead of silent
//! corruption.
//!
//! The shadow is deliberately independent: it keeps its own page
//! mirror rather than querying `PhysMem` (it shares the pool's page
//! type, not its data), and the periodic [`DmaShadow::audit_mem`] /
//! [`DmaShadow::audit_pinned`] passes cross-check mirror against
//! reality. The mirror is flat storage indexed by page number, grown on
//! demand to the highest page it has seen, so a per-page event is an
//! index and an audit is one ascending scan.
//! [`DmaShadow::audit_mem_runs`] scans only the pages written since the
//! previous audit, plus those it left divergent.

use cdna_core::ContextId;
use cdna_mem::{DomainId, PageId, PageInfo, PhysMem};
use std::collections::BTreeMap;

/// Which half of a context's DMA stream a sequence number belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShadowDir {
    /// Guest→wire transmit stream.
    Tx,
    /// Wire→guest receive stream.
    Rx,
}

/// A DMA-invariant violation detected by the shadow checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// An unpin arrived with zero shadow pins outstanding.
    UnpinUnderflow,
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
    /// Stable numeric code for embedding in a `FaultKind`. Codes 1, 3,
    /// 4 and 5 belonged to retired kinds and stay unassigned.
    pub fn code(&self) -> u32 {
        match self {
            ViolationKind::UnpinUnderflow => 2,
            ViolationKind::PinWithoutOwner => 6,
            ViolationKind::SequenceReplay { .. } => 7,
            ViolationKind::SequenceGap { .. } => 8,
            ViolationKind::MirrorDivergence { .. } => 9,
        }
    }

    /// Stable kebab-case name for reports and trace events.
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::UnpinUnderflow => "unpin-underflow",
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
            ViolationKind::UnpinUnderflow | ViolationKind::PinWithoutOwner => {
                f.write_str(self.name())
            }
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

/// The page mirror: slot `i` mirrors `PageId(i)`, `None` marks an
/// untracked page. Grows to the highest page seen, never to the whole
/// pool up front; iteration is in ascending page order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PageMirrors {
    slots: Vec<Option<PageInfo>>,
    /// Number of `Some` slots.
    tracked: usize,
    /// Sum of every tracked page's pins.
    pins: u64,
}

// Every snapshot of a shadow-checked world copies the whole mirror, so
// a slot must stay this small.
const _: () = assert!(std::mem::size_of::<Option<PageInfo>>() == 8);

impl PageMirrors {
    /// The entry for `page`, if tracked.
    fn get(&self, page: PageId) -> Option<&PageInfo> {
        self.slots.get(page.0 as usize).and_then(Option::as_ref)
    }

    /// The entry for `page`, if tracked, mutably.
    fn get_mut(&mut self, page: PageId) -> Option<&mut PageInfo> {
        self.slots.get_mut(page.0 as usize).and_then(Option::as_mut)
    }

    /// The entry for `page`, tracking it (owner-less, unpinned) first
    /// if it is not.
    fn track(&mut self, page: PageId) -> &mut PageInfo {
        let i = page.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.tracked += 1;
        }
        slot.get_or_insert_with(PageInfo::default)
    }

    /// Tracks `page` as `m`, returning the entry it replaces.
    fn replace(&mut self, page: PageId, m: PageInfo) -> Option<PageInfo> {
        let i = page.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let prev = self.slots[i].replace(m);
        self.pins += u64::from(m.pins);
        match prev {
            Some(old) => self.pins -= u64::from(old.pins),
            None => self.tracked += 1,
        }
        prev
    }

    /// Stops tracking `page`, returning the entry it had.
    fn untrack(&mut self, page: PageId) -> Option<PageInfo> {
        let m = self.slots.get_mut(page.0 as usize).and_then(Option::take)?;
        self.tracked -= 1;
        self.pins -= u64::from(m.pins);
        Some(m)
    }

    /// Every tracked page, ascending.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (PageId, &PageInfo)> {
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
    /// The pages the last pool audit found divergent, ascending; the
    /// next [`DmaShadow::audit_mem_runs`] checks them again.
    diverged: Vec<PageId>,
}

impl DmaShadow {
    /// Creates an empty shadow; pages are tracked lazily on first event.
    pub fn new() -> Self {
        Self::default()
    }

    /// All violations recorded so far, in event order.
    pub fn violations(&self) -> &[ShadowViolation] {
        &self.violations
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

    /// Appends a violation.
    fn record(&mut self, ctx: Option<ContextId>, page: Option<PageId>, kind: ViolationKind) {
        self.violations.push(ShadowViolation { ctx, page, kind });
    }

    /// A page left the free list with `owner`.
    pub fn on_alloc(&mut self, owner: DomainId, page: PageId) {
        self.events += 1;
        // Written whole, not built in place: on the per-page path of
        // every first sync.
        let fresh = PageInfo {
            owner: Some(owner),
            pins: 0,
        };
        let prev = self.pages.replace(page, fresh).and_then(|m| m.owner);
        if prev.is_some() {
            let detail = format!("alloc of page {} already owned by {prev:?}", page.0);
            self.record(None, Some(page), ViolationKind::MirrorDivergence { detail });
        }
    }

    /// `owner` freed `page`: the mirror stops tracking it. Every caller
    /// frees a page only after its last unpin; a free that took pins
    /// with it would leave the mirror's pin total short of the pool's,
    /// which the next [`DmaShadow::audit_mem`] reports.
    pub fn on_free(&mut self, owner: DomainId, page: PageId) {
        self.events += 1;
        let detail = match self.pages.untrack(page) {
            None => format!("free of untracked page {}", page.0),
            Some(m) if m.owner != Some(owner) => format!(
                "free of page {} by {owner} but mirror owner is {:?}",
                page.0, m.owner
            ),
            Some(_) => return,
        };
        self.record(None, Some(page), ViolationKind::MirrorDivergence { detail });
    }

    /// The protection path pinned `page` for an upcoming DMA.
    pub fn on_pin(&mut self, page: PageId) {
        self.events += 1;
        let m = self.pages.track(page);
        m.pins += 1;
        let unowned = m.owner.is_none();
        self.pages.pins += 1;
        if unowned {
            self.record(None, Some(page), ViolationKind::PinWithoutOwner);
        }
    }

    /// The protection path dropped one pin of `page`.
    pub fn on_unpin(&mut self, page: PageId) {
        self.events += 1;
        let Some(m) = self.pages.get_mut(page).filter(|m| m.pins > 0) else {
            self.record(None, Some(page), ViolationKind::UnpinUnderflow);
            return;
        };
        m.pins -= 1;
        self.pages.pins -= 1;
    }

    /// Observes each sequence number of `seqs` in turn, as stamped (or
    /// checked) on a context's stream on device `nic`: context ids are
    /// per NIC, so when the same id exists on several NICs their
    /// streams must not share an expectation. The first observation
    /// per (nic, ctx, dir) seeds the expectation; after that each
    /// number must be exactly `expected`. The stream is looked up once
    /// for the whole run.
    ///
    /// Replay vs gap is discriminated by the modular distance: a number
    /// more than half the modulus *behind* the expectation is a replayed
    /// stale descriptor; anything else ahead is a gap. After a gap the
    /// shadow resynchronises to avoid cascading reports.
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
                self.violations.push(ShadowViolation {
                    ctx: Some(ctx),
                    page: None,
                    kind,
                });
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
    /// Each page range is walked beside the pool's page table; only a
    /// page that disagrees is looked up again to render it. The
    /// aggregate reads the pin total the mirror keeps up to date.
    pub fn audit_mem(&mut self, mem: &PhysMem) -> usize {
        self.audit_ranges(mem, [(0, self.pages.slots.len())])
    }

    /// [`DmaShadow::audit_mem`] over only the pages of `touched` (page
    /// runs `(first page, len)` in any order, possibly overlapping) and
    /// the pages the previous audit found divergent.
    ///
    /// It records exactly what `audit_mem` would, provided every page
    /// whose mirror entry or pool state changed since the previous
    /// audit lies in `touched`: any other page either agreed then and
    /// is unchanged, so it agrees now, or diverged then and is checked
    /// again here.
    pub fn audit_mem_runs(
        &mut self,
        mem: &PhysMem,
        touched: impl IntoIterator<Item = (PageId, u32)>,
    ) -> usize {
        let range = |first: PageId, len: u32| (first.0 as usize, first.0 as usize + len as usize);
        let mut ranges: Vec<(usize, usize)> = touched
            .into_iter()
            .map(|(first, len)| range(first, len))
            .chain(self.diverged.iter().map(|&page| range(page, 1)))
            .collect();
        ranges.sort_unstable();
        ranges.dedup_by(|next, kept| {
            let overlaps = next.0 <= kept.1;
            if overlaps {
                kept.1 = kept.1.max(next.1);
            }
            overlaps
        });
        self.audit_ranges(mem, ranges)
    }

    /// The pool audit over `ranges` of page numbers, ascending and
    /// disjoint: see [`DmaShadow::audit_mem`].
    fn audit_ranges(
        &mut self,
        mem: &PhysMem,
        ranges: impl IntoIterator<Item = (usize, usize)>,
    ) -> usize {
        let before = self.violations.len();
        let mut divergences: Vec<(PageId, String)> = Vec::new();
        let (slots, table) = (&self.pages.slots, mem.page_table());
        for (start, end) in ranges {
            let end = end.min(slots.len());
            if start >= end {
                continue;
            }
            let mid = table.len().clamp(start, end);
            // Empty when the range starts past the table.
            let reals = table.get(start..mid).unwrap_or_default();
            for (i, (slot, real)) in (start..).zip(slots[start..mid].iter().zip(reals)) {
                if let Some(m) = slot.filter(|m| m != real) {
                    mem_divergences(PageId(i as u32), &m, mem, &mut divergences);
                }
            }
            // Past the table every pool page is free and unpinned, and
            // past the pool there is no page at all.
            for (i, slot) in (mid..).zip(&slots[mid..end]) {
                if let Some(m) = slot {
                    if *m != PageInfo::default() || i >= mem.total_pages() as usize {
                        mem_divergences(PageId(i as u32), m, mem, &mut divergences);
                    }
                }
            }
        }
        self.diverged.clear();
        self.diverged
            .extend(divergences.iter().map(|&(page, _)| page));
        self.diverged.dedup();
        let mirror_pins = self.pages.pins;
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
            self.record(None, Some(page), ViolationKind::MirrorDivergence { detail });
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
        let pinned = |m: &Option<PageInfo>| m.is_some_and(|m| m.pins > 0);
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
                self.record(
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
fn mem_divergences(page: PageId, m: &PageInfo, mem: &PhysMem, out: &mut Vec<(PageId, String)>) {
    match mem.info(page) {
        Ok(real) => {
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
        // The sequence a sync's fold drives: first pin seeds the owner,
        // the last unpin retires the entry.
        let mut s = DmaShadow::new();
        let p = PageId(7);
        s.on_alloc(guest(), p);
        assert_eq!((s.owner(p), s.pins(p)), (Some(guest()), 0));
        s.on_pin(p);
        s.on_pin(p);
        assert_eq!(s.pins(p), 2);
        s.on_unpin(p);
        s.on_unpin(p);
        assert_eq!((s.owner(p), s.pins(p)), (Some(guest()), 0));
        s.on_free(guest(), p);
        assert_eq!((s.owner(p), s.pages_tracked()), (None, 0));
        assert!(s.violations().is_empty());
        assert_eq!(s.events(), 6);
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
    fn a_free_under_pins_untracks_the_page_and_the_pool_audit_reports_the_pins() {
        let mut mem = PhysMem::new(16);
        let mut s = DmaShadow::new();
        let Ok(p) = mem.alloc(guest()) else {
            unreachable!("fresh pool")
        };
        s.on_alloc(guest(), p);
        assert!(mem.pin(p).is_ok());
        s.on_pin(p);
        s.on_free(guest(), p);
        assert!(s.violations().is_empty());
        assert_eq!((s.owner(p), s.pins(p), s.pages_tracked()), (None, 0, 0));
        assert_eq!(s.audit_mem(&mem), 1);
        let ViolationKind::MirrorDivergence { detail } = &s.violations()[0].kind else {
            unreachable!("{:?}", s.violations())
        };
        assert_eq!(detail, "aggregate pins: mirror 0, pool 1");
    }

    #[test]
    fn pin_without_owner_detected() {
        let mut s = DmaShadow::new();
        let p = PageId(6);
        s.on_pin(p); // never allocated
        assert_eq!(s.violations()[0].kind, ViolationKind::PinWithoutOwner);
    }

    #[test]
    fn sequence_replay_and_gap() {
        let mut s = DmaShadow::new();
        let m = 64;
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [10], m); // seeds expected = 11
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [11], m);
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [10], m); // replay
        assert!(matches!(
            s.violations()[0].kind,
            ViolationKind::SequenceReplay {
                expected: 12,
                found: 10
            }
        ));
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [15], m); // gap (12..=14 skipped)
        assert!(matches!(
            s.violations()[1].kind,
            ViolationKind::SequenceGap {
                expected: 12,
                found: 15
            }
        ));
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [16], m); // resynced
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
        s.observe_seqs_on(0, ctx(1), ShadowDir::Rx, [6, 7], m);
        s.observe_seqs_on(0, ctx(1), ShadowDir::Rx, [0, 1], m); // wrap
        assert!(s.violations().is_empty());
    }

    #[test]
    fn streams_are_independent() {
        let mut s = DmaShadow::new();
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [0], 16);
        s.observe_seqs_on(0, ctx(1), ShadowDir::Tx, [9], 16);
        s.observe_seqs_on(0, ctx(0), ShadowDir::Rx, [3], 16);
        s.observe_seqs_on(0, ctx(0), ShadowDir::Tx, [1], 16);
        s.observe_seqs_on(0, ctx(1), ShadowDir::Tx, [10], 16);
        // The same context id on another NIC is a stream of its own.
        s.observe_seqs_on(1, ctx(0), ShadowDir::Tx, [7], 16);
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
        assert_eq!(s.owner(PageId(40_000)), None);
        assert_eq!(s.owner(PageId(u32::MAX)), None);
        s.on_unpin(PageId(50_000));
        assert_eq!(s.violations()[0].kind, ViolationKind::UnpinUnderflow);
        assert_eq!(s.pages_tracked(), 1, "a failed unpin tracks nothing");
        s.on_alloc(guest(), PageId(40_000));
        s.on_pin(PageId(40_000));
        assert_eq!(s.pins(PageId(40_000)), 1);
        assert_eq!((s.owner(PageId(3)), s.pins(PageId(3))), (Some(guest()), 0));
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
        // Pins leave the entry tracked; the free after the last unpin
        // retires it.
        s.on_pin(PageId(9));
        s.on_unpin(PageId(9));
        assert_eq!(s.pages_tracked(), 2);
        s.on_free(guest(), PageId(9));
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
            s.record(None, Some(page), ViolationKind::MirrorDivergence { detail });
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
                s.record(
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
            let mut m = mem.info(page).unwrap_or_default();
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

    /// A few seeded writes to the pool and to the mirror, as between two
    /// syncs; returns the mirror's written pages as runs. The pool's
    /// writes are marked dirty by the pool itself.
    fn scatter_writes(seed: u64, mem: &mut PhysMem, s: &mut DmaShadow) -> Vec<(PageId, u32)> {
        let mut rng = cdna_sim::SimRng::seed_from(seed);
        let owners = [guest(), DomainId::guest(1)];
        for _ in 0..rng.below(6) {
            let page = PageId(rng.below(POOL as usize + 4) as u32);
            let owner = mem.info(page).ok().and_then(|i| i.owner);
            let other = owners[usize::from(owner == Some(owners[0]))];
            let _ = match rng.below(5) {
                0 => mem.alloc(owners[rng.below(2)]).map(|_| ()),
                1 => mem.pin_run(page, rng.below(3) as u32),
                2 => mem.unpin(page),
                3 => mem.free(owner.unwrap_or(other), page),
                _ => mem.transfer(page, owner.unwrap_or(other), other),
            };
        }
        let mut written = Vec::new();
        for _ in 0..rng.below(4) {
            let page = PageId(rng.below(POOL as usize + 8) as u32);
            match rng.below(3) {
                0 => s.on_pin(page),
                1 => s.on_unpin(page),
                _ => {
                    s.pages.untrack(page);
                }
            }
            written.push((page, 1));
        }
        written
    }

    /// The whole-mirror audit matches one pool lookup per page; then,
    /// over rounds of seeded writes, the audit of only the written runs
    /// records the same divergences in the same order as the whole one,
    /// and leaves the same divergent list behind.
    #[test]
    fn audit_mem_matches_the_per_page_audit_on_divergent_mirrors() {
        let (mut clean, mut diverged, mut carried) = (0, 0, 0);
        for seed in 0..400 {
            let (mut mem, mut fast) = divergent_mirror(seed);
            let mut slow = fast.clone();
            let found = fast.audit_mem(&mem);
            assert_eq!(found, audit_mem_per_page(&mut slow, &mem), "seed {seed}");
            assert_eq!(fast.violations(), slow.violations(), "seed {seed}");
            if found == 0 {
                clean += 1;
            } else {
                diverged += 1;
            }
            mem.track_dirty();
            for round in 0..3 {
                let at = format!("seed {seed} round {round}");
                let written = scatter_writes(seed * 3 + round, &mut mem, &mut fast);
                let mut whole = fast.clone();
                let dirty = mem.dirty_runs().into_iter().flatten();
                let found = fast.audit_mem_runs(&mem, written.into_iter().chain(dirty));
                assert_eq!(found, whole.audit_mem(&mem), "{at}");
                assert_eq!(fast.violations(), whole.violations(), "{at}");
                assert_eq!(fast, whole, "{at}: divergent lists differ");
                let pins: u64 = fast.pages.iter().map(|(_, m)| u64::from(m.pins)).sum();
                assert_eq!(fast.pages.pins, pins, "{at}: pin total");
                carried += usize::from(!fast.diverged.is_empty());
                mem.track_dirty();
            }
        }
        assert!(
            clean > 0 && diverged > 0 && carried > 0,
            "{clean} clean, {diverged} diverged, {carried} rounds left divergent pages"
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
            kind: ViolationKind::UnpinUnderflow,
        };
        let text = v.to_string();
        assert!(text.contains("unpin-underflow"));
        assert!(text.contains("ctx=3"));
        assert!(text.contains("page=12"));
    }
}
