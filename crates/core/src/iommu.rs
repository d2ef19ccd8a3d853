//! A per-context IOMMU (paper §5.3).
//!
//! The paper observes that AMD's proposed IOMMU restricts DMA per
//! *device*, and that CDNA would need it extended to work per *context*
//! — "since CDNA only distinguishes between guest operating systems and
//! not traffic flows, there are a limited number of contexts, which may
//! make a generic system-level context-aware IOMMU practical."
//!
//! This module implements that hypothetical hardware: a table of pages
//! each context's DMA engine may touch. Under [`crate::DmaPolicy::Iommu`]
//! guests enqueue descriptors directly (no validation hypercall) and the
//! hypervisor is only invoked to maintain these mappings; the device
//! checks every DMA against the table and faults the offending context
//! on a violation — giving the same isolation as software protection
//! with different (and measurable) overheads.

use std::collections::BTreeSet;

use cdna_mem::{BufferSlice, PageId};

use crate::{ContextId, CTX_COUNT};

/// A DMA attempted outside the context's mapped pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IommuViolation {
    /// The offending context.
    pub ctx: ContextId,
    /// The first unmapped page the DMA touched.
    pub page: PageId,
}

impl std::fmt::Display for IommuViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IOMMU violation: {} touched unmapped {:?}",
            self.ctx, self.page
        )
    }
}

impl std::error::Error for IommuViolation {}

/// Lifetime counters for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// Pages mapped.
    pub maps: u64,
    /// Pages unmapped.
    pub unmaps: u64,
    /// DMA checks performed.
    pub checks: u64,
    /// Violations caught.
    pub violations: u64,
}

/// The per-context DMA page-permission table.
///
/// # Example
///
/// ```
/// use cdna_core::{ContextId, PerContextIommu};
/// use cdna_mem::{BufferSlice, PageId};
///
/// let mut iommu = PerContextIommu::new();
/// let ctx = ContextId(3);
/// iommu.enable(ctx);
/// iommu.map(ctx, PageId(7));
/// let ok = BufferSlice::new(PageId(7).base_addr(), 1514);
/// assert!(iommu.check(ctx, &ok).is_ok());
/// let bad = BufferSlice::new(PageId(8).base_addr(), 1514);
/// assert!(iommu.check(ctx, &bad).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerContextIommu {
    tables: Vec<Option<BTreeSet<PageId>>>,
    stats: IommuStats,
}

impl PerContextIommu {
    /// An IOMMU with every context disabled (disabled contexts pass all
    /// DMA unchecked, like a device the IOMMU does not cover).
    pub fn new() -> Self {
        PerContextIommu {
            tables: (0..CTX_COUNT).map(|_| None).collect(),
            stats: IommuStats::default(),
        }
    }

    /// Counters for reports.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Turns enforcement on for `ctx` with an empty mapping table.
    pub fn enable(&mut self, ctx: ContextId) {
        assert!(ctx.is_valid(), "context {ctx} out of range");
        self.tables[ctx.0 as usize] = Some(BTreeSet::new());
    }

    /// Turns enforcement off for `ctx`, dropping its mappings.
    pub fn disable(&mut self, ctx: ContextId) {
        if ctx.is_valid() {
            self.tables[ctx.0 as usize] = None;
        }
    }

    /// Whether enforcement is on for `ctx`.
    pub fn is_enabled(&self, ctx: ContextId) -> bool {
        ctx.is_valid() && self.tables[ctx.0 as usize].is_some()
    }

    /// Permits `ctx` to DMA to/from `page`. Returns `true` if the page
    /// was newly mapped.
    ///
    /// # Panics
    ///
    /// Panics if enforcement is not enabled for `ctx` (mapping into a
    /// disabled table is a hypervisor bug).
    pub fn map(&mut self, ctx: ContextId, page: PageId) -> bool {
        #[expect(clippy::expect_used, reason = "caller enables the context first")]
        let table = self.tables[ctx.0 as usize]
            .as_mut()
            .expect("mapping into disabled IOMMU context");
        let new = table.insert(page);
        if new {
            self.stats.maps += 1;
        }
        new
    }

    /// Maps every page under `buf` for `ctx`; returns how many were new.
    pub fn map_slice(&mut self, ctx: ContextId, buf: &BufferSlice) -> u32 {
        buf.pages().filter(|&p| self.map(ctx, p)).count() as u32
    }

    /// Revokes `ctx`'s permission for `page`. Returns `true` if it was
    /// mapped.
    pub fn unmap(&mut self, ctx: ContextId, page: PageId) -> bool {
        let Some(table) = self.tables.get_mut(ctx.0 as usize).and_then(Option::as_mut) else {
            return false;
        };
        let removed = table.remove(&page);
        if removed {
            self.stats.unmaps += 1;
        }
        removed
    }

    /// Unmaps every page under `buf`; returns how many were mapped.
    pub fn unmap_slice(&mut self, ctx: ContextId, buf: &BufferSlice) -> u32 {
        buf.pages().filter(|&p| self.unmap(ctx, p)).count() as u32
    }

    /// Hardware check: may `ctx` DMA the whole of `buf`?
    ///
    /// Disabled contexts pass (the IOMMU does not cover them).
    ///
    /// # Errors
    ///
    /// Returns the first unmapped page on a violation.
    pub fn check(&mut self, ctx: ContextId, buf: &BufferSlice) -> Result<(), IommuViolation> {
        self.stats.checks += 1;
        let Some(table) = self.tables.get(ctx.0 as usize).and_then(Option::as_ref) else {
            return Ok(());
        };
        for page in buf.pages() {
            if !table.contains(&page) {
                self.stats.violations += 1;
                return Err(IommuViolation { ctx, page });
            }
        }
        Ok(())
    }

    /// Pages currently mapped for `ctx`.
    pub fn mapped_count(&self, ctx: ContextId) -> usize {
        self.tables
            .get(ctx.0 as usize)
            .and_then(Option::as_ref)
            .map(BTreeSet::len)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_mem::PAGE_SIZE;

    #[test]
    fn disabled_context_passes_everything() {
        let mut iommu = PerContextIommu::new();
        let buf = BufferSlice::new(PageId(99).base_addr(), 1514);
        assert!(iommu.check(ContextId(1), &buf).is_ok());
        assert_eq!(iommu.stats().violations, 0);
    }

    #[test]
    fn enabled_context_default_denies() {
        let mut iommu = PerContextIommu::new();
        iommu.enable(ContextId(1));
        let buf = BufferSlice::new(PageId(5).base_addr(), 1514);
        let err = iommu.check(ContextId(1), &buf).unwrap_err();
        assert_eq!(err.page, PageId(5));
        assert_eq!(iommu.stats().violations, 1);
    }

    #[test]
    fn map_check_unmap_cycle() {
        let mut iommu = PerContextIommu::new();
        let ctx = ContextId(2);
        iommu.enable(ctx);
        assert!(iommu.map(ctx, PageId(5)));
        assert!(!iommu.map(ctx, PageId(5)), "double map is idempotent");
        let buf = BufferSlice::new(PageId(5).base_addr(), 1514);
        assert!(iommu.check(ctx, &buf).is_ok());
        assert!(iommu.unmap(ctx, PageId(5)));
        assert!(iommu.check(ctx, &buf).is_err());
        assert_eq!(iommu.stats().maps, 1);
        assert_eq!(iommu.stats().unmaps, 1);
    }

    #[test]
    fn multi_page_slice_requires_every_page() {
        let mut iommu = PerContextIommu::new();
        let ctx = ContextId(0);
        iommu.enable(ctx);
        // Slice spanning pages 5 and 6; only 5 is mapped.
        let buf = BufferSlice::new(PageId(5).base_addr(), (PAGE_SIZE + 100) as u32);
        iommu.map(ctx, PageId(5));
        let err = iommu.check(ctx, &buf).unwrap_err();
        assert_eq!(err.page, PageId(6));
        assert_eq!(iommu.map_slice(ctx, &buf), 1, "page 6 newly mapped");
        assert!(iommu.check(ctx, &buf).is_ok());
        assert_eq!(iommu.unmap_slice(ctx, &buf), 2);
    }

    #[test]
    fn contexts_are_isolated_from_each_other() {
        let mut iommu = PerContextIommu::new();
        let a = ContextId(1);
        let b = ContextId(2);
        iommu.enable(a);
        iommu.enable(b);
        iommu.map(a, PageId(7));
        let buf = BufferSlice::new(PageId(7).base_addr(), 100);
        assert!(iommu.check(a, &buf).is_ok());
        assert!(
            iommu.check(b, &buf).is_err(),
            "per-context isolation (paper §5.3: per-device is insufficient)"
        );
    }

    #[test]
    fn disable_drops_mappings() {
        let mut iommu = PerContextIommu::new();
        let ctx = ContextId(3);
        iommu.enable(ctx);
        iommu.map(ctx, PageId(1));
        assert_eq!(iommu.mapped_count(ctx), 1);
        iommu.disable(ctx);
        assert_eq!(iommu.mapped_count(ctx), 0);
        // Disabled again: unchecked.
        let buf = BufferSlice::new(PageId(1).base_addr(), 100);
        assert!(iommu.check(ctx, &buf).is_ok());
    }

    #[test]
    #[should_panic(expected = "disabled IOMMU context")]
    fn mapping_into_disabled_context_panics() {
        let mut iommu = PerContextIommu::new();
        iommu.map(ContextId(0), PageId(0));
    }
}
