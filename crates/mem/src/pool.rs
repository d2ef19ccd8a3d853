//! The machine's physical page pool.

use std::collections::VecDeque;
use std::fmt;

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

/// Per-page state visible to callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    pages: Vec<PageInfo>,
    free_list: VecDeque<PageId>,
    /// Pages whose owner freed them while pinned; they complete the free
    /// when the last pin drops (CDNA's deferred reallocation).
    pending_free: Vec<PageId>,
    total_pins: u64,
    total_transfers: u64,
}

impl PhysMem {
    /// Creates a pool of `pages` free pages.
    pub fn new(pages: u32) -> Self {
        PhysMem {
            pages: vec![
                PageInfo {
                    owner: None,
                    pins: 0
                };
                pages as usize
            ],
            free_list: (0..pages).map(PageId).collect(),
            pending_free: Vec::new(),
            total_pins: 0,
            total_transfers: 0,
        }
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Pages currently free (excludes pinned pending-free pages).
    pub fn free_pages(&self) -> u32 {
        self.free_list.len() as u32
    }

    /// Looks up a page's state.
    pub fn info(&self, page: PageId) -> Result<PageInfo, MemError> {
        self.pages
            .get(page.0 as usize)
            .copied()
            .ok_or(MemError::NoSuchPage(page))
    }

    /// Allocates one free page to `owner`.
    pub fn alloc(&mut self, owner: DomainId) -> Result<PageId, MemError> {
        let page = self.free_list.pop_front().ok_or(MemError::OutOfMemory)?;
        self.pages[page.0 as usize] = PageInfo {
            owner: Some(owner),
            pins: 0,
        };
        Ok(page)
    }

    /// Allocates `n` pages to `owner`, all-or-nothing.
    pub fn alloc_many(&mut self, owner: DomainId, n: u32) -> Result<Vec<PageId>, MemError> {
        if (self.free_list.len() as u32) < n {
            return Err(MemError::OutOfMemory);
        }
        (0..n).map(|_| self.alloc(owner)).collect()
    }

    /// Allocates `n` physically contiguous pages to `owner` (for
    /// multi-page DMA buffers such as TSO super-segments), returning the
    /// first page of the run.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when no free run of `n` consecutive
    /// pages exists.
    pub fn alloc_contiguous(&mut self, owner: DomainId, n: u32) -> Result<PageId, MemError> {
        assert!(n > 0, "empty contiguous allocation");
        let total = self.pages.len() as u32;
        let mut run_start = 0u32;
        let mut run_len = 0u32;
        for id in 0..total {
            let free = self.pages[id as usize].owner.is_none()
                && self.pages[id as usize].pins == 0
                && self.free_list.contains(&PageId(id));
            if free {
                if run_len == 0 {
                    run_start = id;
                }
                run_len += 1;
                if run_len == n {
                    let run = PageId(run_start)..=PageId(id);
                    self.free_list.retain(|q| !run.contains(q));
                    for p in run_start..=id {
                        self.pages[p as usize] = PageInfo {
                            owner: Some(owner),
                            pins: 0,
                        };
                    }
                    return Ok(PageId(run_start));
                }
            } else {
                run_len = 0;
            }
        }
        Err(MemError::OutOfMemory)
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
        self.check_owner(page, owner)?;
        let info = self.pages[page.0 as usize];
        if info.pins > 0 {
            if !self.pending_free.contains(&page) {
                self.pending_free.push(page);
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
        self.check_owner(page, from)?;
        if self.pages[page.0 as usize].pins > 0 {
            return Err(MemError::Pinned(page));
        }
        self.pages[page.0 as usize].owner = Some(to);
        self.total_transfers += 1;
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
        let slab = self
            .pages
            .get(start.0 as usize..start.0 as usize + len as usize)
            .ok_or_else(|| MemError::NoSuchPage(PageId((self.pages.len() as u32).max(start.0))))?;
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

    /// Increments the DMA pin count of `page`.
    pub fn pin(&mut self, page: PageId) -> Result<(), MemError> {
        let info = self
            .pages
            .get_mut(page.0 as usize)
            .ok_or(MemError::NoSuchPage(page))?;
        info.pins += 1;
        self.total_pins += 1;
        Ok(())
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
        let total = self.pages.len() as u32;
        let slab = self
            .pages
            .get_mut(start.0 as usize..start.0 as usize + len as usize)
            .ok_or(MemError::NoSuchPage(PageId(total.max(start.0))))?;
        for info in slab {
            info.pins += 1;
        }
        self.total_pins += len as u64;
        Ok(())
    }

    /// Decrements the DMA pin count of `page`; completes a deferred free
    /// if one is pending and this was the last pin.
    pub fn unpin(&mut self, page: PageId) -> Result<(), MemError> {
        let info = self
            .pages
            .get_mut(page.0 as usize)
            .ok_or(MemError::NoSuchPage(page))?;
        if info.pins == 0 {
            return Err(MemError::NotPinned(page));
        }
        info.pins -= 1;
        if info.pins == 0 {
            if let Some(idx) = self.pending_free.iter().position(|&p| p == page) {
                self.pending_free.swap_remove(idx);
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
        #[cfg(feature = "mutations")]
        let (start, len) =
            if crate::mutation::is_active(crate::mutation::MutationKind::UnpinWrongPage) && len > 0
            {
                // Seeded bug: the first page of every run keeps its pin.
                (PageId(start.0 + 1), len - 1)
            } else {
                (start, len)
            };
        let total = self.pages.len() as u32;
        if start.0 as u64 + len as u64 > total as u64 {
            return Err(MemError::NoSuchPage(PageId(total.max(start.0))));
        }
        for i in 0..len {
            let page = PageId(start.0 + i);
            let info = &mut self.pages[page.0 as usize];
            if info.pins == 0 {
                return Err(MemError::NotPinned(page));
            }
            info.pins -= 1;
            if info.pins == 0 {
                if let Some(idx) = self.pending_free.iter().position(|&p| p == page) {
                    self.pending_free.swap_remove(idx);
                    self.release(page);
                }
            }
        }
        Ok(())
    }

    /// Number of pages owned by `owner`.
    pub fn owned_by(&self, owner: DomainId) -> u32 {
        self.pages.iter().filter(|p| p.owner == Some(owner)).count() as u32
    }

    /// Sum of all outstanding pin counts.
    pub fn outstanding_pins(&self) -> u64 {
        self.pages.iter().map(|p| p.pins as u64).sum()
    }

    /// Lifetime count of pin operations (for reports).
    pub fn total_pins(&self) -> u64 {
        self.total_pins
    }

    /// Lifetime count of ownership transfers (page flips, for reports).
    pub fn total_transfers(&self) -> u64 {
        self.total_transfers
    }

    fn check_owner(&self, page: PageId, owner: DomainId) -> Result<(), MemError> {
        let info = self.info(page)?;
        if info.owner != Some(owner) {
            return Err(MemError::NotOwner {
                page,
                claimed: owner,
                actual: info.owner,
            });
        }
        Ok(())
    }

    fn release(&mut self, page: PageId) {
        self.pages[page.0 as usize] = PageInfo {
            owner: None,
            pins: 0,
        };
        self.free_list.push_back(page);
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
