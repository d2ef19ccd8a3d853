//! Contiguous physical buffer slices.

use crate::{PageId, PhysAddr};

/// A physically contiguous byte range, the unit a DMA descriptor points
/// at.
///
/// Network buffers in the paper's drivers fit in a single page (MTU 1500
/// < 4096), but TSO buffers span several, so the slice exposes an
/// iterator over the pages it touches — the hypervisor must validate
/// ownership of *every* page under the slice.
///
/// # Example
///
/// ```
/// use cdna_mem::{BufferSlice, PageId, PhysAddr, PAGE_SIZE};
///
/// let s = BufferSlice::new(PhysAddr(PAGE_SIZE - 10), 20);
/// let pages: Vec<PageId> = s.pages().collect();
/// assert_eq!(pages, vec![PageId(0), PageId(1)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferSlice {
    /// First byte of the buffer.
    pub addr: PhysAddr,
    /// Length in bytes.
    pub len: u32,
}

impl BufferSlice {
    /// Creates a slice.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero — zero-length DMA buffers are always a
    /// driver bug and the real NIC would reject them.
    #[inline]
    pub fn new(addr: PhysAddr, len: u32) -> Self {
        assert!(len > 0, "zero-length buffer slice");
        BufferSlice { addr, len }
    }

    /// One past the last byte.
    pub fn end(&self) -> PhysAddr {
        self.addr.offset(self.len as u64)
    }

    /// Iterator over the distinct pages this slice touches, in order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> {
        let first = self.addr.page().0;
        let last = self.addr.offset(self.len as u64 - 1).page().0;
        (first..=last).map(PageId)
    }

    /// Number of distinct pages the slice touches.
    #[inline]
    pub fn page_count(&self) -> u32 {
        let first = self.addr.page().0;
        let last = self.addr.offset(self.len as u64 - 1).page().0;
        last - first + 1
    }

    /// The slice's pages as a contiguous run: first page plus count.
    /// The batched validation/pinning paths work in runs so a
    /// multi-descriptor hypercall touches pool state once per run
    /// instead of once per page.
    #[inline]
    pub fn page_run(&self) -> (PageId, u32) {
        (self.addr.page(), self.page_count())
    }

    /// Whether the slice lies entirely within one page.
    pub fn within_one_page(&self) -> bool {
        self.page_count() == 1
    }

    /// Whether `other` overlaps this slice.
    pub fn overlaps(&self, other: &BufferSlice) -> bool {
        self.addr < other.end() && other.addr < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn single_page_slice() {
        let s = BufferSlice::new(PhysAddr(100), 1514);
        assert!(s.within_one_page());
        assert_eq!(s.pages().collect::<Vec<_>>(), vec![PageId(0)]);
    }

    #[test]
    fn page_straddling_slice() {
        let s = BufferSlice::new(PhysAddr(PAGE_SIZE - 1), 2);
        assert_eq!(s.page_count(), 2);
        assert!(!s.within_one_page());
    }

    #[test]
    fn exact_page_boundary_does_not_spill() {
        let s = BufferSlice::new(PhysAddr(0), PAGE_SIZE as u32);
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.end(), PhysAddr(PAGE_SIZE));
    }

    #[test]
    fn tso_buffer_spans_many_pages() {
        let s = BufferSlice::new(PhysAddr(PAGE_SIZE * 10), 65536);
        assert_eq!(s.page_count(), 16);
        let pages: Vec<u32> = s.pages().map(|p| p.0).collect();
        assert_eq!(pages, (10..26).collect::<Vec<_>>());
    }

    #[test]
    fn overlap_detection() {
        let a = BufferSlice::new(PhysAddr(100), 100); // [100, 200)
        let b = BufferSlice::new(PhysAddr(199), 10); // [199, 209)
        let c = BufferSlice::new(PhysAddr(200), 10); // [200, 210)
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_rejected() {
        let _ = BufferSlice::new(PhysAddr(0), 0);
    }
}
