//! The machine's physical page pool.
//!
//! [`PhysMem`] does work in proportion to the pages a run touches, not
//! to the pool's size, so a pool of tens of thousands of pages is cheap
//! to create, clone and audit:
//!
//! * a fresh-page cursor marks the never-allocated suffix
//!   `[fresh, total)`; those pages are free without being listed, and
//!   are handed out in ascending order before any released page, which
//!   waits in a FIFO;
//! * the page table holds only the prefix that has been allocated or
//!   pinned. Every page past it is free and unpinned. Pinning a page no
//!   one has allocated grows the table to it on a cold path, so the
//!   steady-state run operations stay one slice access each;
//! * the pool-wide pin count is a running total, updated wherever a
//!   page's pin count changes;
//! * once [`PhysMem::track_dirty`] is called, every write to the page
//!   table also marks its pages in a dirty bitmap, so an auditor can
//!   check only the pages written since it last looked. Until then the
//!   bitmap does not exist and each write pays one untaken branch.

use std::collections::VecDeque;
use std::fmt;

use crate::mutation::MutationKind;
use crate::{BufferSlice, DomainId, PageId};

/// Errors from page-pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No free pages remain.
    OutOfMemory,
    /// The page id does not exist in this pool.
    NoSuchPage(PageId),
    /// The page is not owned by the domain the operation named.
    NotOwner {
        /// The page in question.
        page: PageId,
        /// Who the caller claimed owns it.
        claimed: DomainId,
        /// Who actually owns it (`None` if free).
        actual: Option<DomainId>,
    },
    /// The page still has outstanding DMA pins.
    Pinned(PageId),
    /// Pin count underflow — an unpin without a matching pin.
    NotPinned(PageId),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of physical memory"),
            MemError::NoSuchPage(p) => write!(f, "no such page {p:?}"),
            MemError::NotOwner {
                page,
                claimed,
                actual,
            } => write!(
                f,
                "page {page:?} not owned by {claimed}: actual owner {actual:?}"
            ),
            MemError::Pinned(p) => write!(f, "page {p:?} has outstanding DMA pins"),
            MemError::NotPinned(p) => write!(f, "page {p:?} is not pinned"),
        }
    }
}

impl std::error::Error for MemError {}

/// Per-page state visible to callers. The default is a free page:
/// no owner, no pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageInfo {
    /// Current owner, or `None` if the page is free.
    pub owner: Option<DomainId>,
    /// Outstanding DMA pin count (paper §3.3's reference counts).
    pub pins: u32,
}

/// The pool of physical pages with ownership, pinning, and transfer.
///
/// This is the mechanism underneath both Xen's page-flipping I/O path and
/// CDNA's DMA protection: the hypervisor validates descriptor buffers
/// against it and pins pages for the lifetime of a DMA, which blocks
/// reallocation (`free` of a pinned page is deferred until the last unpin).
///
/// Free pages are handed out in a fixed order: never-allocated pages in
/// ascending order, then released pages in the order they were freed.
/// A fresh-page cursor stands for the never-allocated pages and the
/// page table covers only the prefix that has been allocated or pinned
/// (see the module docs), so nothing is sized by the pool up front.
///
/// # Example
///
/// ```
/// use cdna_mem::{DomainId, PhysMem};
///
/// let mut mem = PhysMem::new(1024);
/// let page = mem.alloc(DomainId::guest(0))?;
/// mem.pin(page)?; // DMA in flight
/// assert!(mem.free(DomainId::guest(0), page).is_err()); // deferred
/// mem.unpin(page)?; // last pin drops: the deferred free completes
/// assert_eq!(mem.free_pages(), 1024);
/// # Ok::<(), cdna_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysMem {
    /// Page table of the materialised prefix `[0, pages.len())`.
    pages: Vec<PageInfo>,
    /// Pool size in pages.
    total: u32,
    /// First page of the never-allocated suffix `[fresh, total)`.
    fresh: u32,
    /// Never-allocated pages below `fresh` that a contiguous allocation
    /// stepped over, ascending; they are handed out first.
    skipped: VecDeque<PageId>,
    /// Released pages, in the order they were freed; handed out after
    /// every never-allocated page.
    released: VecDeque<PageId>,
    /// Pages whose owner freed them while pinned; they complete the free
    /// when the last pin drops (CDNA's deferred reallocation).
    deferred_frees: Vec<PageId>,
    /// Sum of every page's pin count.
    outstanding: u64,
    total_pins: u64,
    total_transfers: u64,
    /// Bit `i % 64` of word `i / 64` is set when page `i`'s entry was
    /// written since the last [`PhysMem::track_dirty`]; `None` before
    /// the first. Covers at most the table.
    dirty: Option<Vec<u64>>,
    /// The seeded bug [`PhysMem::set_mutation`] armed, if any.
    mutation: Option<MutationKind>,
}

/// A free, unpinned page: every page past the materialised prefix.
const FREE: PageInfo = PageInfo {
    owner: None,
    pins: 0,
};

impl PhysMem {
    /// Creates a pool of `pages` free pages.
    pub fn new(pages: u32) -> Self {
        PhysMem {
            pages: Vec::new(),
            total: pages,
            fresh: 0,
            skipped: VecDeque::new(),
            released: VecDeque::new(),
            deferred_frees: Vec::new(),
            outstanding: 0,
            total_pins: 0,
            total_transfers: 0,
            dirty: None,
            mutation: None,
        }
    }

    /// Arms the seeded bug `m` ([`crate::mutation`]), or none; the pool
    /// acts on [`MutationKind::UnpinWrongPage`] only.
    pub fn set_mutation(&mut self, m: Option<MutationKind>) {
        self.mutation = m;
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> u32 {
        self.total
    }

    /// Pages currently free (excludes pinned pending-free pages).
    pub fn free_pages(&self) -> u32 {
        (self.skipped.len() + self.released.len()) as u32 + (self.total - self.fresh)
    }

    /// Looks up a page's state.
    #[inline]
    pub fn info(&self, page: PageId) -> Result<PageInfo, MemError> {
        if page.0 >= self.total {
            return Err(MemError::NoSuchPage(page));
        }
        Ok(self.pages.get(page.0 as usize).copied().unwrap_or(FREE))
    }

    /// The materialised page table: entry `i` is `PageId(i)`'s state.
    /// Every page from its end up to [`PhysMem::total_pages`] is free
    /// and unpinned. For auditors that compare a whole mirror against
    /// the pool in one pass instead of an [`PhysMem::info`] per page.
    pub fn page_table(&self) -> &[PageInfo] {
        &self.pages
    }

    /// Starts dirty tracking afresh: clears every dirty mark, and from
    /// now on every write that changes a page's state (alloc, free,
    /// transfer, pin, unpin, a deferred free completing) marks its
    /// pages.
    pub fn track_dirty(&mut self) {
        match &mut self.dirty {
            Some(dirty) => dirty.fill(0),
            None => self.dirty = Some(Vec::new()),
        }
    }

    /// The pages written since the last [`PhysMem::track_dirty`], as
    /// maximal runs `(first page, len)` in ascending page order, or
    /// `None` before the first. Every page whose [`PhysMem::info`]
    /// changed lies in one of them.
    pub fn dirty_runs(&self) -> Option<impl Iterator<Item = (PageId, u32)> + '_> {
        let words = self.dirty.as_deref()?;
        // The bits of `page`'s word from `page`'s own up; `None` past the
        // bitmap.
        let from = move |page: usize| words.get(page / 64).map(|w| w >> (page % 64));
        let mut page = 0;
        Some(std::iter::from_fn(move || {
            // Skip a clear rest of a word at once.
            loop {
                let bits = from(page)?;
                if bits != 0 {
                    page += bits.trailing_zeros() as usize;
                    break;
                }
                page = (page / 64 + 1) * 64;
            }
            let first = page;
            while from(page).is_some_and(|bits| bits & 1 == 1) {
                page += 1;
            }
            Some((PageId(first as u32), (page - first) as u32))
        }))
    }

    /// Allocates one free page to `owner`.
    pub fn alloc(&mut self, owner: DomainId) -> Result<PageId, MemError> {
        let page = if let Some(page) = self.skipped.pop_front() {
            page
        } else if self.fresh < self.total {
            self.fresh += 1;
            PageId(self.fresh - 1)
        } else {
            self.released.pop_front().ok_or(MemError::OutOfMemory)?
        };
        let i = page.0 as usize;
        self.materialise(i + 1);
        // A page pinned while free loses those pins to its new owner.
        let old = std::mem::replace(
            &mut self.pages[i],
            PageInfo {
                owner: Some(owner),
                pins: 0,
            },
        );
        self.outstanding -= u64::from(old.pins);
        self.touch(page, 1);
        Ok(page)
    }

    /// Allocates `n` pages to `owner`, all-or-nothing.
    pub fn alloc_many(&mut self, owner: DomainId, n: u32) -> Result<Vec<PageId>, MemError> {
        if self.free_pages() < n {
            return Err(MemError::OutOfMemory);
        }
        (0..n).map(|_| self.alloc(owner)).collect()
    }

    /// Allocates `n` physically contiguous pages to `owner` (for
    /// multi-page DMA buffers such as TSO super-segments), returning the
    /// first page of the run.
    ///
    /// The run is the lowest one of `n` free, unpinned pages; a page is
    /// free exactly when it has no owner.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when no free run of `n` consecutive
    /// pages exists.
    pub fn alloc_contiguous(&mut self, owner: DomainId, n: u32) -> Result<PageId, MemError> {
        assert!(n > 0, "empty contiguous allocation");
        // First fit over the page table; a run still open at its end
        // continues into the free pages past it.
        let mut start = 0u32;
        for (id, info) in (0u32..).zip(&self.pages) {
            if info.owner.is_some() || info.pins > 0 {
                start = id + 1;
            } else if id + 1 - start == n {
                break;
            }
        }
        if u64::from(start) + u64::from(n) > u64::from(self.total) {
            return Err(MemError::OutOfMemory);
        }
        let end = start + n;
        self.materialise(end as usize);
        if start < self.fresh {
            let run = PageId(start)..PageId(end);
            self.skipped.retain(|p| !run.contains(p));
            self.released.retain(|p| !run.contains(p));
        }
        if end > self.fresh {
            // Never-allocated pages below the run keep their turn.
            self.skipped.extend((self.fresh..start).map(PageId));
            self.fresh = end;
        }
        for info in &mut self.pages[start as usize..end as usize] {
            info.owner = Some(owner);
        }
        self.touch(PageId(start), n);
        Ok(PageId(start))
    }

    /// Frees a page owned by `owner`.
    ///
    /// # Errors
    ///
    /// * [`MemError::NotOwner`] if `owner` does not own the page.
    /// * [`MemError::Pinned`] if DMA pins are outstanding; the free is
    ///   **deferred** — the page keeps its owner until the last unpin, at
    ///   which point it returns to the free list. This is exactly the
    ///   paper's defence against reallocation during DMA.
    pub fn free(&mut self, owner: DomainId, page: PageId) -> Result<(), MemError> {
        if self.owned_slot(page, owner)?.pins > 0 {
            if !self.deferred_frees.contains(&page) {
                self.deferred_frees.push(page);
            }
            return Err(MemError::Pinned(page));
        }
        self.release(page);
        Ok(())
    }

    /// Transfers ownership of `page` from `from` to `to` (Xen grant
    /// transfer / page flip).
    ///
    /// # Errors
    ///
    /// Fails if `from` is not the owner or the page is pinned (a page
    /// with in-flight DMA cannot change hands).
    #[inline]
    pub fn transfer(&mut self, page: PageId, from: DomainId, to: DomainId) -> Result<(), MemError> {
        let info = self.owned_slot(page, from)?;
        if info.pins > 0 {
            return Err(MemError::Pinned(page));
        }
        info.owner = Some(to);
        self.total_transfers += 1;
        self.touch(page, 1);
        Ok(())
    }

    /// Verifies that `owner` owns every page under `slice`.
    #[inline]
    pub fn validate_slice(&self, owner: DomainId, slice: &BufferSlice) -> Result<(), MemError> {
        let (start, len) = slice.page_run();
        self.validate_run(owner, start, len)
    }

    /// Verifies that `owner` owns every page in the run
    /// `[start, start + len)` — one bounds check and one contiguous pass
    /// for the whole run, instead of a lookup per page.
    ///
    /// # Errors
    ///
    /// [`MemError::NoSuchPage`] (naming the first page beyond the pool)
    /// if the run exceeds the pool; [`MemError::NotOwner`] naming the
    /// first page not owned by `owner`.
    #[inline]
    pub fn validate_run(&self, owner: DomainId, start: PageId, len: u32) -> Result<(), MemError> {
        let Some(slab) = self
            .pages
            .get(start.0 as usize..start.0 as usize + len as usize)
        else {
            return self.validate_past_table(owner, start, len);
        };
        for (i, info) in slab.iter().enumerate() {
            if info.owner != Some(owner) {
                return Err(MemError::NotOwner {
                    page: PageId(start.0 + i as u32),
                    claimed: owner,
                    actual: info.owner,
                });
            }
        }
        Ok(())
    }

    /// [`PhysMem::validate_run`] for a run that leaves the page table.
    #[cold]
    #[inline(never)]
    fn validate_past_table(
        &self,
        owner: DomainId,
        start: PageId,
        len: u32,
    ) -> Result<(), MemError> {
        self.check_run(start, len)?;
        for page in (start.0..start.0 + len).map(PageId) {
            let actual = self.info(page)?.owner;
            if actual != Some(owner) {
                return Err(MemError::NotOwner {
                    page,
                    claimed: owner,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Increments the DMA pin count of `page`.
    #[inline]
    pub fn pin(&mut self, page: PageId) -> Result<(), MemError> {
        self.pin_run(page, 1)
    }

    /// Pins every page under `slice` after validating ownership;
    /// all-or-nothing.
    pub fn pin_slice(&mut self, owner: DomainId, slice: &BufferSlice) -> Result<(), MemError> {
        self.validate_slice(owner, slice)?;
        let (start, len) = slice.page_run();
        self.pin_run(start, len)
    }

    /// Pins every page in the run `[start, start + len)` without an
    /// ownership check (callers validate first — this is the second
    /// phase of a validate-then-pin batch); one bounds check and one
    /// pass for the whole run.
    #[inline]
    pub fn pin_run(&mut self, start: PageId, len: u32) -> Result<(), MemError> {
        let run = start.0 as usize..start.0 as usize + len as usize;
        let slab = match self.pages.get_mut(run) {
            Some(slab) => slab,
            None => self.table_for_pins(start, len)?,
        };
        for info in slab {
            info.pins += 1;
        }
        self.outstanding += u64::from(len);
        self.total_pins += u64::from(len);
        self.touch(start, len);
        Ok(())
    }

    /// [`PhysMem::pin_run`]'s slab for a run that leaves the page table:
    /// pinning pages no one has allocated grows the table to them.
    #[cold]
    #[inline(never)]
    fn table_for_pins(&mut self, start: PageId, len: u32) -> Result<&mut [PageInfo], MemError> {
        self.check_run(start, len)?;
        let run = start.0 as usize..start.0 as usize + len as usize;
        self.materialise(run.end);
        Ok(&mut self.pages[run])
    }

    /// Decrements the DMA pin count of `page`; completes a deferred free
    /// if one is pending and this was the last pin.
    #[inline]
    pub fn unpin(&mut self, page: PageId) -> Result<(), MemError> {
        self.unpin_page(page)?;
        self.touch(page, 1);
        Ok(())
    }

    /// [`PhysMem::unpin`] without recording the page as dirty.
    #[inline]
    fn unpin_page(&mut self, page: PageId) -> Result<(), MemError> {
        let Some(info) = self
            .pages
            .get_mut(page.0 as usize)
            .filter(|info| info.pins > 0)
        else {
            // Pages past the table are unpinned.
            self.check_run(page, 1)?;
            return Err(MemError::NotPinned(page));
        };
        info.pins -= 1;
        let last = info.pins == 0;
        self.outstanding -= 1;
        if last {
            if let Some(idx) = self.deferred_frees.iter().position(|&p| p == page) {
                self.deferred_frees.swap_remove(idx);
                self.release(page);
            }
        }
        Ok(())
    }

    /// Unpins every page under `slice`.
    pub fn unpin_slice(&mut self, slice: &BufferSlice) -> Result<(), MemError> {
        let (start, len) = slice.page_run();
        self.unpin_run(start, len)
    }

    /// Unpins every page in the run `[start, start + len)`, completing
    /// deferred frees as pin counts reach zero. Like a sequence of
    /// [`PhysMem::unpin`] calls, an underflow mid-run stops there:
    /// earlier pages stay unpinned and the error names the underflowing
    /// page.
    pub fn unpin_run(&mut self, start: PageId, len: u32) -> Result<(), MemError> {
        let (start, len) = if self.mutation == Some(MutationKind::UnpinWrongPage) && len > 0 {
            // Seeded bug: the first page of every run keeps its pin.
            (PageId(start.0 + 1), len - 1)
        } else {
            (start, len)
        };
        self.check_run(start, len)?;
        // The whole run, not the pages up to an underflow: a superset of
        // the written pages is still a correct set of dirty marks.
        self.touch(start, len);
        (start.0..start.0 + len).try_for_each(|page| self.unpin_page(PageId(page)))
    }

    /// Number of pages owned by `owner`.
    pub fn owned_by(&self, owner: DomainId) -> u32 {
        self.pages.iter().filter(|p| p.owner == Some(owner)).count() as u32
    }

    /// Sum of all outstanding pin counts.
    pub fn outstanding_pins(&self) -> u64 {
        self.outstanding
    }

    /// Lifetime count of pin operations (for reports).
    pub fn total_pins(&self) -> u64 {
        self.total_pins
    }

    /// Lifetime count of ownership transfers (page flips, for reports).
    pub fn total_transfers(&self) -> u64 {
        self.total_transfers
    }

    /// The page-table entry of `page`, if `owner` owns it.
    #[inline]
    fn owned_slot(&mut self, page: PageId, owner: DomainId) -> Result<&mut PageInfo, MemError> {
        let total = self.total;
        match self.pages.get_mut(page.0 as usize) {
            Some(info) if info.owner == Some(owner) => Ok(info),
            Some(&mut PageInfo { owner: actual, .. }) => Err(MemError::NotOwner {
                page,
                claimed: owner,
                actual,
            }),
            // Past the table every page is free.
            None if page.0 < total => Err(MemError::NotOwner {
                page,
                claimed: owner,
                actual: None,
            }),
            None => Err(MemError::NoSuchPage(page)),
        }
    }

    /// Fails with the first page past the pool if the run
    /// `[start, start + len)` leaves it.
    fn check_run(&self, start: PageId, len: u32) -> Result<(), MemError> {
        if u64::from(start.0) + u64::from(len) > u64::from(self.total) {
            return Err(MemError::NoSuchPage(PageId(self.total.max(start.0))));
        }
        Ok(())
    }

    /// Grows the page table to cover `[0, end)`. Not a dirty write: the
    /// new entries are free and unpinned, as the pages past the table
    /// already read.
    fn materialise(&mut self, end: usize) {
        if self.pages.len() < end {
            self.pages.resize(end, FREE);
        }
    }

    fn release(&mut self, page: PageId) {
        let old = std::mem::replace(&mut self.pages[page.0 as usize], FREE);
        self.outstanding -= u64::from(old.pins);
        self.released.push_back(page);
        self.touch(page, 1);
    }

    /// Marks the page run `[first, first + len)` dirty, if the pool
    /// tracks writes.
    #[inline]
    fn touch(&mut self, first: PageId, len: u32) {
        if let Some(dirty) = &mut self.dirty {
            mark_dirty(dirty, first, len);
        }
    }
}

/// [`PhysMem::touch`]'s marking, out of line: pools that do not track
/// writes (every run without the shadow checker) keep only the branch.
#[cold]
#[inline(never)]
fn mark_dirty(words: &mut Vec<u64>, first: PageId, len: u32) {
    let run = first.0 as usize..first.0 as usize + len as usize;
    if words.len() * 64 < run.end {
        words.resize(run.end.div_ceil(64), 0);
    }
    for page in run {
        words[page / 64] |= 1 << (page % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guest(i: u16) -> DomainId {
        DomainId::guest(i)
    }

    #[test]
    fn alloc_assigns_ownership() {
        let mut mem = PhysMem::new(4);
        let p = mem.alloc(guest(0)).unwrap();
        assert_eq!(mem.info(p).unwrap().owner, Some(guest(0)));
        assert_eq!(mem.free_pages(), 3);
        assert_eq!(mem.owned_by(guest(0)), 1);
    }

    #[test]
    fn exhaustion_reported() {
        let mut mem = PhysMem::new(1);
        mem.alloc(guest(0)).unwrap();
        assert_eq!(mem.alloc(guest(1)), Err(MemError::OutOfMemory));
    }

    #[test]
    fn alloc_many_is_all_or_nothing() {
        let mut mem = PhysMem::new(3);
        assert_eq!(mem.alloc_many(guest(0), 4), Err(MemError::OutOfMemory));
        assert_eq!(mem.free_pages(), 3, "failed alloc must not leak pages");
        let pages = mem.alloc_many(guest(0), 3).unwrap();
        assert_eq!(pages.len(), 3);
    }

    #[test]
    fn free_requires_ownership() {
        let mut mem = PhysMem::new(2);
        let p = mem.alloc(guest(0)).unwrap();
        let err = mem.free(guest(1), p).unwrap_err();
        assert!(matches!(err, MemError::NotOwner { .. }));
        mem.free(guest(0), p).unwrap();
        assert_eq!(mem.free_pages(), 2);
    }

    #[test]
    fn double_free_rejected() {
        let mut mem = PhysMem::new(2);
        let p = mem.alloc(guest(0)).unwrap();
        mem.free(guest(0), p).unwrap();
        assert!(matches!(
            mem.free(guest(0), p),
            Err(MemError::NotOwner { .. })
        ));
    }

    #[test]
    fn pinned_page_defers_free_until_last_unpin() {
        let mut mem = PhysMem::new(2);
        let p = mem.alloc(guest(0)).unwrap();
        mem.pin(p).unwrap();
        mem.pin(p).unwrap();
        assert_eq!(mem.free(guest(0), p), Err(MemError::Pinned(p)));
        // Page keeps its owner while the DMA is outstanding.
        assert_eq!(mem.info(p).unwrap().owner, Some(guest(0)));
        mem.unpin(p).unwrap();
        assert_eq!(mem.free_pages(), 1, "still pinned once");
        mem.unpin(p).unwrap();
        assert_eq!(mem.free_pages(), 2, "deferred free completed");
        assert_eq!(mem.info(p).unwrap().owner, None);
    }

    #[test]
    fn pinned_page_cannot_change_owner() {
        let mut mem = PhysMem::new(2);
        let p = mem.alloc(guest(0)).unwrap();
        mem.pin(p).unwrap();
        assert_eq!(
            mem.transfer(p, guest(0), guest(1)),
            Err(MemError::Pinned(p))
        );
        mem.unpin(p).unwrap();
        mem.transfer(p, guest(0), guest(1)).unwrap();
        assert_eq!(mem.info(p).unwrap().owner, Some(guest(1)));
        assert_eq!(mem.total_transfers(), 1);
    }

    #[test]
    fn unpin_underflow_detected() {
        let mut mem = PhysMem::new(1);
        let p = mem.alloc(guest(0)).unwrap();
        assert_eq!(mem.unpin(p), Err(MemError::NotPinned(p)));
    }

    #[test]
    fn validate_slice_checks_every_page() {
        let mut mem = PhysMem::new(4);
        let a = mem.alloc(guest(0)).unwrap();
        let _b = mem.alloc(guest(1)).unwrap();
        // Slice spanning page a and the next page (owned by guest 1).
        let slice = BufferSlice::new(a.base_addr(), (crate::PAGE_SIZE + 10) as u32);
        let err = mem.validate_slice(guest(0), &slice).unwrap_err();
        assert!(matches!(err, MemError::NotOwner { .. }));
    }

    #[test]
    fn pin_slice_rolls_nothing_back_on_validation() {
        // pin_slice validates first, so a failed call pins nothing.
        let mut mem = PhysMem::new(4);
        let a = mem.alloc(guest(0)).unwrap();
        let slice = BufferSlice::new(a.base_addr(), (crate::PAGE_SIZE * 2) as u32);
        assert!(mem.pin_slice(guest(0), &slice).is_err());
        assert_eq!(mem.outstanding_pins(), 0);
    }

    #[test]
    fn pin_unpin_slice_round_trip() {
        let mut mem = PhysMem::new(4);
        let pages = mem.alloc_many(guest(0), 2).unwrap();
        let slice = BufferSlice::new(pages[0].base_addr(), (crate::PAGE_SIZE * 2) as u32);
        mem.pin_slice(guest(0), &slice).unwrap();
        assert_eq!(mem.outstanding_pins(), 2);
        mem.unpin_slice(&slice).unwrap();
        assert_eq!(mem.outstanding_pins(), 0);
    }

    #[test]
    fn no_such_page() {
        let mem = PhysMem::new(1);
        assert_eq!(mem.info(PageId(9)), Err(MemError::NoSuchPage(PageId(9))));
    }

    #[test]
    fn no_such_page_on_pin_and_unpin() {
        let mut mem = PhysMem::new(1);
        let ghost = PageId(5);
        assert_eq!(mem.pin(ghost), Err(MemError::NoSuchPage(ghost)));
        assert_eq!(mem.unpin(ghost), Err(MemError::NoSuchPage(ghost)));
        assert_eq!(mem.total_pins(), 0, "failed pin must not count");
    }

    #[test]
    fn not_owner_reports_claimed_and_actual() {
        let mut mem = PhysMem::new(2);
        let p = mem.alloc(guest(3)).unwrap();
        // Wrong claimant against a live owner.
        assert_eq!(
            mem.free(guest(7), p),
            Err(MemError::NotOwner {
                page: p,
                claimed: guest(7),
                actual: Some(guest(3)),
            })
        );
        // Against a free page the actual owner is reported as None.
        mem.free(guest(3), p).unwrap();
        assert_eq!(
            mem.transfer(p, guest(3), guest(4)),
            Err(MemError::NotOwner {
                page: p,
                claimed: guest(3),
                actual: None,
            })
        );
    }

    #[test]
    fn every_mem_error_variant_displays_distinctly() {
        let p = PageId(1);
        let errors = [
            MemError::OutOfMemory,
            MemError::NoSuchPage(p),
            MemError::NotOwner {
                page: p,
                claimed: guest(0),
                actual: Some(guest(1)),
            },
            MemError::Pinned(p),
            MemError::NotPinned(p),
        ];
        let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in rendered.iter().skip(i + 1) {
                assert_ne!(a, b, "error messages must be distinguishable");
            }
        }
    }

    #[test]
    fn unpin_slice_stops_at_first_underflow() {
        let mut mem = PhysMem::new(4);
        let pages = mem.alloc_many(guest(0), 2).unwrap();
        let slice = BufferSlice::new(pages[0].base_addr(), (crate::PAGE_SIZE * 2) as u32);
        // Only the first page is pinned; the slice unpin trips on the
        // second and reports exactly which page underflowed.
        mem.pin(pages[0]).unwrap();
        assert_eq!(mem.unpin_slice(&slice), Err(MemError::NotPinned(pages[1])));
        assert_eq!(mem.outstanding_pins(), 0, "first page was unpinned");
    }

    #[test]
    fn contiguous_allocation_finds_runs() {
        let mut mem = PhysMem::new(8);
        // Fragment the pool: take pages 0, 2, 4.
        let holes: Vec<PageId> = (0..5).map(|_| mem.alloc(guest(9)).unwrap()).collect();
        mem.free(guest(9), holes[1]).unwrap();
        mem.free(guest(9), holes[3]).unwrap();
        // Only pages 1, 3, 5, 6, 7 are free; the only 3-run is 5..=7.
        let run = mem.alloc_contiguous(guest(0), 3).unwrap();
        assert_eq!(run, PageId(5));
        for p in 5..8 {
            assert_eq!(mem.info(PageId(p)).unwrap().owner, Some(guest(0)));
        }
        assert!(mem.alloc_contiguous(guest(0), 2).is_err());
        assert!(mem.alloc_contiguous(guest(0), 1).is_ok());
    }

    #[test]
    fn run_ops_match_per_page_ops() {
        let mut mem = PhysMem::new(8);
        let pages = mem.alloc_many(guest(0), 4).unwrap();
        mem.validate_run(guest(0), pages[0], 4).unwrap();
        assert!(matches!(
            mem.validate_run(guest(1), pages[0], 4),
            Err(MemError::NotOwner { page, .. }) if page == pages[0]
        ));
        mem.pin_run(pages[0], 4).unwrap();
        assert_eq!(mem.outstanding_pins(), 4);
        assert_eq!(mem.total_pins(), 4);
        mem.unpin_run(pages[0], 4).unwrap();
        assert_eq!(mem.outstanding_pins(), 0);
    }

    #[test]
    fn run_ops_bounds_error_names_first_missing_page() {
        let mut mem = PhysMem::new(4);
        assert_eq!(
            mem.validate_run(guest(0), PageId(2), 4),
            Err(MemError::NoSuchPage(PageId(4)))
        );
        assert_eq!(
            mem.pin_run(PageId(9), 1),
            Err(MemError::NoSuchPage(PageId(9)))
        );
        assert_eq!(
            mem.unpin_run(PageId(2), 4),
            Err(MemError::NoSuchPage(PageId(4)))
        );
    }

    #[test]
    fn unpin_run_completes_deferred_frees() {
        let mut mem = PhysMem::new(4);
        let pages = mem.alloc_many(guest(0), 2).unwrap();
        mem.pin_run(pages[0], 2).unwrap();
        assert_eq!(
            mem.free(guest(0), pages[1]),
            Err(MemError::Pinned(pages[1]))
        );
        mem.unpin_run(pages[0], 2).unwrap();
        assert_eq!(mem.info(pages[1]).unwrap().owner, None, "deferred free ran");
        assert_eq!(mem.info(pages[0]).unwrap().owner, Some(guest(0)));
    }

    #[test]
    fn unpin_run_stops_at_first_underflow() {
        let mut mem = PhysMem::new(4);
        let pages = mem.alloc_many(guest(0), 3).unwrap();
        mem.pin(pages[0]).unwrap();
        assert_eq!(
            mem.unpin_run(pages[0], 3),
            Err(MemError::NotPinned(pages[1]))
        );
        assert_eq!(mem.outstanding_pins(), 0, "first page was unpinned");
    }

    /// The pool as it was before the fresh-page cursor: an eager page
    /// table and a FIFO free list of every free page, with the pin total
    /// read by a scan. [`PhysMem`] must match it operation for
    /// operation.
    struct EagerPool {
        pages: Vec<PageInfo>,
        free_list: VecDeque<PageId>,
        deferred_frees: Vec<PageId>,
        total_pins: u64,
        total_transfers: u64,
    }

    impl EagerPool {
        fn new(pages: u32) -> Self {
            EagerPool {
                pages: vec![FREE; pages as usize],
                free_list: (0..pages).map(PageId).collect(),
                deferred_frees: Vec::new(),
                total_pins: 0,
                total_transfers: 0,
            }
        }

        fn info(&self, page: PageId) -> Result<PageInfo, MemError> {
            let info = self.pages.get(page.0 as usize).copied();
            info.ok_or(MemError::NoSuchPage(page))
        }

        fn outstanding_pins(&self) -> u64 {
            self.pages.iter().map(|p| u64::from(p.pins)).sum()
        }

        fn alloc(&mut self, owner: DomainId) -> Result<PageId, MemError> {
            let page = self.free_list.pop_front().ok_or(MemError::OutOfMemory)?;
            self.pages[page.0 as usize] = PageInfo {
                owner: Some(owner),
                pins: 0,
            };
            Ok(page)
        }

        fn alloc_many(&mut self, owner: DomainId, n: u32) -> Result<Vec<PageId>, MemError> {
            if (self.free_list.len() as u32) < n {
                return Err(MemError::OutOfMemory);
            }
            (0..n).map(|_| self.alloc(owner)).collect()
        }

        fn alloc_contiguous(&mut self, owner: DomainId, n: u32) -> Result<PageId, MemError> {
            let (mut run_start, mut run_len) = (0u32, 0u32);
            for id in 0..self.pages.len() as u32 {
                let info = self.pages[id as usize];
                if info.owner.is_none() && info.pins == 0 && self.free_list.contains(&PageId(id)) {
                    if run_len == 0 {
                        run_start = id;
                    }
                    run_len += 1;
                    if run_len == n {
                        let run = PageId(run_start)..=PageId(id);
                        self.free_list.retain(|q| !run.contains(q));
                        for p in run_start..=id {
                            self.pages[p as usize].owner = Some(owner);
                        }
                        return Ok(PageId(run_start));
                    }
                } else {
                    run_len = 0;
                }
            }
            Err(MemError::OutOfMemory)
        }

        fn check_owner(&self, page: PageId, owner: DomainId) -> Result<(), MemError> {
            let actual = self.info(page)?.owner;
            if actual != Some(owner) {
                return Err(MemError::NotOwner {
                    page,
                    claimed: owner,
                    actual,
                });
            }
            Ok(())
        }

        fn free(&mut self, owner: DomainId, page: PageId) -> Result<(), MemError> {
            self.check_owner(page, owner)?;
            if self.pages[page.0 as usize].pins > 0 {
                if !self.deferred_frees.contains(&page) {
                    self.deferred_frees.push(page);
                }
                return Err(MemError::Pinned(page));
            }
            self.release(page);
            Ok(())
        }

        fn transfer(&mut self, page: PageId, from: DomainId, to: DomainId) -> Result<(), MemError> {
            self.check_owner(page, from)?;
            if self.pages[page.0 as usize].pins > 0 {
                return Err(MemError::Pinned(page));
            }
            self.pages[page.0 as usize].owner = Some(to);
            self.total_transfers += 1;
            Ok(())
        }

        fn run(&self, start: PageId, len: u32) -> Result<std::ops::Range<usize>, MemError> {
            let run = start.0 as usize..start.0 as usize + len as usize;
            if run.end > self.pages.len() {
                let total = self.pages.len() as u32;
                return Err(MemError::NoSuchPage(PageId(total.max(start.0))));
            }
            Ok(run)
        }

        fn validate_run(&self, owner: DomainId, start: PageId, len: u32) -> Result<(), MemError> {
            for id in self.run(start, len)? {
                self.check_owner(PageId(id as u32), owner)?;
            }
            Ok(())
        }

        fn pin_run(&mut self, start: PageId, len: u32) -> Result<(), MemError> {
            for id in self.run(start, len)? {
                self.pages[id].pins += 1;
            }
            self.total_pins += u64::from(len);
            Ok(())
        }

        fn unpin_run(&mut self, start: PageId, len: u32) -> Result<(), MemError> {
            for id in self.run(start, len)? {
                let page = PageId(id as u32);
                if self.pages[id].pins == 0 {
                    return Err(MemError::NotPinned(page));
                }
                self.pages[id].pins -= 1;
                if self.pages[id].pins == 0 {
                    if let Some(idx) = self.deferred_frees.iter().position(|&p| p == page) {
                        self.deferred_frees.swap_remove(idx);
                        self.release(page);
                    }
                }
            }
            Ok(())
        }

        fn release(&mut self, page: PageId) {
            self.pages[page.0 as usize] = FREE;
            self.free_list.push_back(page);
        }
    }

    /// splitmix64: a seeded operation stream without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_eager_pool_on_a_seeded_operation_mix() {
        const TOTAL: u32 = 40;
        let mut skipped_seen = false;
        for seed in 0..12u64 {
            let (mut mem, mut eager) = (PhysMem::new(TOTAL), EagerPool::new(TOTAL));
            let mut rng = seed;
            for step in 0..2_500 {
                let r = next(&mut rng);
                let pick = |k: u32| ((r >> 8) % u64::from(k)) as u32;
                // Pages up to two past the pool, so `NoSuchPage` shows up.
                let page = PageId(pick(TOTAL + 2));
                let len = ((r >> 40) % 4) as u32;
                let who = guest(((r >> 48) % 3) as u16);
                // Mostly act as the real owner, so frees and transfers land.
                let owner = match eager.info(page) {
                    Ok(PageInfo { owner: Some(o), .. }) if !(r >> 56).is_multiple_of(5) => o,
                    _ => who,
                };
                let op = r % 100;
                let (got, want) = match op {
                    0..=14 => (
                        mem.alloc(who).map(|p| vec![p]),
                        eager.alloc(who).map(|p| vec![p]),
                    ),
                    15..=19 => (mem.alloc_many(who, len), eager.alloc_many(who, len)),
                    20..=29 => (
                        mem.alloc_contiguous(who, len + 1).map(|p| vec![p]),
                        eager.alloc_contiguous(who, len + 1).map(|p| vec![p]),
                    ),
                    30..=49 => (
                        mem.free(owner, page).map(|()| vec![]),
                        eager.free(owner, page).map(|()| vec![]),
                    ),
                    50..=59 => (
                        mem.pin(page).map(|()| vec![]),
                        eager.pin_run(page, 1).map(|()| vec![]),
                    ),
                    60..=66 => (
                        mem.pin_run(page, len).map(|()| vec![]),
                        eager.pin_run(page, len).map(|()| vec![]),
                    ),
                    67..=76 => (
                        mem.unpin(page).map(|()| vec![]),
                        eager.unpin_run(page, 1).map(|()| vec![]),
                    ),
                    77..=84 => (
                        mem.unpin_run(page, len).map(|()| vec![]),
                        eager.unpin_run(page, len).map(|()| vec![]),
                    ),
                    85..=94 => (
                        mem.transfer(page, owner, who).map(|()| vec![]),
                        eager.transfer(page, owner, who).map(|()| vec![]),
                    ),
                    _ => (
                        mem.validate_run(owner, page, len).map(|()| vec![]),
                        eager.validate_run(owner, page, len).map(|()| vec![]),
                    ),
                };
                let at = format!("seed {seed} step {step} op {op} page {page:?} len {len}");
                assert_eq!(got, want, "{at}");
                for p in (0..TOTAL + 2).map(PageId) {
                    assert_eq!(mem.info(p), eager.info(p), "{at}: {p:?}");
                }
                assert_eq!(mem.free_pages(), eager.free_list.len() as u32, "{at}");
                assert_eq!(mem.outstanding_pins(), eager.outstanding_pins(), "{at}");
                let scanned: u64 = mem.pages.iter().map(|p| u64::from(p.pins)).sum();
                assert_eq!(mem.outstanding_pins(), scanned, "{at}: running total");
                assert_eq!(mem.total_pins(), eager.total_pins, "{at}");
                assert_eq!(mem.total_transfers(), eager.total_transfers, "{at}");
                skipped_seen |= !mem.skipped.is_empty();
            }
        }
        assert!(
            skipped_seen,
            "the mix never stepped over a pinned free page"
        );
    }

    /// Every page whose state an operation changes lies in a dirty run,
    /// with the seeded `unpin-wrong-page` bug off and on.
    #[test]
    fn every_changed_page_lies_in_a_dirty_run() {
        const TOTAL: u32 = 40;
        for mutated in [false, true] {
            let mut changed = 0;
            for seed in 0..8u64 {
                let mut mem = PhysMem::new(TOTAL);
                mem.set_mutation(mutated.then_some(MutationKind::UnpinWrongPage));
                assert!(mem.dirty_runs().is_none(), "a new pool tracks nothing");
                mem.alloc_many(guest(0), 4).unwrap();
                mem.track_dirty();
                let mut rng = seed;
                for step in 0..1_500 {
                    let r = next(&mut rng);
                    let page = PageId(((r >> 8) % u64::from(TOTAL + 2)) as u32);
                    let len = ((r >> 40) % 4) as u32;
                    let who = guest(((r >> 48) % 3) as u16);
                    let owner = mem.info(page).ok().and_then(|i| i.owner).unwrap_or(who);
                    let before: Vec<Result<PageInfo, MemError>> =
                        (0..TOTAL).map(|p| mem.info(PageId(p))).collect();
                    let _ = match r % 100 {
                        0..=14 => mem.alloc(who).map(|_| ()),
                        15..=24 => mem.alloc_contiguous(who, len + 1).map(|_| ()),
                        25..=44 => mem.free(owner, page),
                        45..=54 => mem.transfer(page, owner, who),
                        55..=74 => mem.pin_run(page, len),
                        75..=84 => mem.unpin(page),
                        _ => mem.unpin_run(page, len),
                    };
                    let dirty: Vec<(PageId, u32)> = mem.dirty_runs().unwrap().collect();
                    for pair in dirty.windows(2) {
                        let ((a, n), (b, _)) = (pair[0], pair[1]);
                        assert!(a.0 + n < b.0, "runs not ascending and maximal: {dirty:?}");
                    }
                    for p in 0..TOTAL {
                        if mem.info(PageId(p)) == before[p as usize] {
                            continue;
                        }
                        changed += 1;
                        assert!(
                            dirty.iter().any(|&(f, n)| (f.0..f.0 + n).contains(&p)),
                            "mutated {mutated} seed {seed} step {step}: page {p} changed off the list"
                        );
                    }
                    if r.is_multiple_of(7) {
                        mem.track_dirty();
                        assert_eq!(mem.dirty_runs().unwrap().count(), 0);
                    }
                }
            }
            assert!(changed > 1_000, "mutated {mutated}: {changed} page changes");
        }
    }

    #[test]
    fn a_new_pool_holds_no_page_table() {
        let mut mem = PhysMem::new(69_600);
        assert_eq!(mem.pages.len(), 0);
        assert_eq!(mem.free_pages(), 69_600);
        mem.alloc_many(guest(0), 3).unwrap();
        mem.pin(PageId(10)).unwrap();
        assert_eq!(mem.pages.len(), 11, "the table covers what was touched");
        assert_eq!(mem.info(PageId(69_599)).unwrap(), FREE);
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut mem = PhysMem::new(1);
        let p = mem.alloc(guest(0)).unwrap();
        mem.free(guest(0), p).unwrap();
        let q = mem.alloc(guest(1)).unwrap();
        assert_eq!(p, q);
        assert_eq!(mem.info(q).unwrap().owner, Some(guest(1)));
    }
}
