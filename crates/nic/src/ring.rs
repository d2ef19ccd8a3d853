//! Descriptor rings in host memory.

use std::fmt;

use cdna_mem::{PhysAddr, PAGE_SIZE};

use crate::DmaDescriptor;

/// Handle to a ring in the machine's [`RingTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingId(pub u32);

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The ring id does not exist.
    NoSuchRing(RingId),
    /// A slot was read before anything was ever written to it.
    EmptySlot {
        /// The ring.
        ring: RingId,
        /// The monotonic index whose slot was empty.
        index: u64,
    },
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::NoSuchRing(r) => write!(f, "no such ring {r:?}"),
            RingError::EmptySlot { ring, index } => {
                write!(f, "read of never-written slot {index} in ring {ring:?}")
            }
        }
    }
}

impl std::error::Error for RingError {}

/// A descriptor ring in host memory (paper §2.2).
///
/// Both driver and NIC address the ring with **monotonic** 64-bit
/// producer/consumer counters; the slot index is the counter modulo the
/// ring size. Crucially for the stale-descriptor attack of §3.3, slots
/// **retain their previous contents** after the NIC consumes them: a
/// buggy or malicious driver that advances the producer index past what
/// it actually wrote makes the NIC read an old descriptor. Under CDNA
/// the sequence-number check catches this; on a conventional NIC it
/// silently reuses freed memory.
///
/// # Example
///
/// ```
/// use cdna_mem::{BufferSlice, PhysAddr};
/// use cdna_nic::{DescRing, DmaDescriptor};
///
/// let mut ring = DescRing::new(PhysAddr(0x10000), 4);
/// ring.write_at(0, DmaDescriptor::rx(BufferSlice::new(PhysAddr(0x4000), 1514)));
/// // Index 4 aliases slot 0 in a 4-entry ring:
/// assert_eq!(ring.read_at(4).unwrap(), ring.read_at(0).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct DescRing {
    base: PhysAddr,
    size: u32,
    slots: Vec<Option<DmaDescriptor>>,
    writes: u64,
    reads: u64,
}

impl DescRing {
    /// Creates a ring of `size` slots whose backing memory starts at
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two (hardware rings are), and
    /// at least 2.
    ///
    /// The power-of-two requirement is load-bearing beyond hardware
    /// fidelity: producer/consumer counters are monotonic `u64`s that
    /// the slot math reduces with `idx % size`, and because 2^64 is an
    /// exact multiple of every power-of-two size, the slot sequence
    /// stays continuous even if a counter wraps `u64::MAX` (…size-1, 0,
    /// 1…). With a non-power-of-two size the wrap would silently skip
    /// slots; see `producer_wrap_at_u64_boundary_is_continuous`.
    pub fn new(base: PhysAddr, size: u32) -> Self {
        assert!(
            size.is_power_of_two() && size >= 2,
            "ring size must be a power of two >= 2, got {size}"
        );
        DescRing {
            base,
            size,
            slots: vec![None; size as usize],
            writes: 0,
            reads: 0,
        }
    }

    /// The slot of monotonic index `idx`: `idx % size`, taken as a mask
    /// because the size is a power of two (no division per descriptor).
    #[inline]
    fn slot(&self, idx: u64) -> usize {
        (idx & (u64::from(self.size) - 1)) as usize
    }

    /// Number of slots.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Base address of the ring's backing memory.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Bytes of host memory the ring occupies.
    pub fn mem_bytes(&self) -> u32 {
        self.size * DmaDescriptor::WIRE_SIZE
    }

    /// Number of whole pages the ring's backing memory spans.
    pub fn mem_pages(&self) -> u32 {
        (self.mem_bytes() as u64).div_ceil(PAGE_SIZE) as u32
    }

    /// Writes the descriptor at monotonic index `idx` (slot `idx % size`).
    #[inline]
    pub fn write_at(&mut self, idx: u64, desc: DmaDescriptor) {
        let slot = self.slot(idx);
        self.slots[slot] = Some(desc);
        self.writes += 1;
    }

    /// Reads the descriptor at monotonic index `idx`.
    ///
    /// Returns whatever the slot currently holds — including a stale
    /// descriptor left by an earlier write, exactly like real memory.
    #[inline]
    pub fn read_at(&self, idx: u64) -> Option<DmaDescriptor> {
        let slot = self.slot(idx);
        self.slots[slot]
    }

    /// Lifetime write count (for reports).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Lifetime count of descriptor reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// All descriptor rings in the machine, owned centrally so drivers and
/// NIC models can both reach them through ids without shared ownership.
#[derive(Debug, Clone, Default)]
pub struct RingTable {
    rings: Vec<DescRing>,
}

impl RingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RingTable::default()
    }

    /// Creates a ring and returns its id.
    pub fn create(&mut self, base: PhysAddr, size: u32) -> RingId {
        let id = RingId(self.rings.len() as u32);
        self.rings.push(DescRing::new(base, size));
        id
    }

    /// Shared access to a ring.
    pub fn get(&self, id: RingId) -> Result<&DescRing, RingError> {
        self.rings
            .get(id.0 as usize)
            .ok_or(RingError::NoSuchRing(id))
    }

    /// Exclusive access to a ring.
    pub fn get_mut(&mut self, id: RingId) -> Result<&mut DescRing, RingError> {
        self.rings
            .get_mut(id.0 as usize)
            .ok_or(RingError::NoSuchRing(id))
    }

    /// Reads monotonic index `idx` of ring `id`, failing on never-written
    /// slots.
    pub fn read(&self, id: RingId, idx: u64) -> Result<DmaDescriptor, RingError> {
        self.get(id)?.read_at(idx).ok_or(RingError::EmptySlot {
            ring: id,
            index: idx,
        })
    }

    /// Number of rings.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_mem::BufferSlice;

    fn rx_desc(addr: u64) -> DmaDescriptor {
        DmaDescriptor::rx(BufferSlice::new(PhysAddr(addr), 1514))
    }

    #[test]
    fn write_read_round_trip() {
        let mut ring = DescRing::new(PhysAddr(0), 8);
        let d = rx_desc(4096);
        ring.write_at(3, d);
        assert_eq!(ring.read_at(3), Some(d));
    }

    #[test]
    fn monotonic_indices_wrap_to_slots() {
        let mut ring = DescRing::new(PhysAddr(0), 4);
        ring.write_at(1, rx_desc(0x1000));
        ring.write_at(5, rx_desc(0x2000)); // same slot as 1
        assert_eq!(ring.read_at(1).unwrap().buf.addr.0, 0x2000);
    }

    #[test]
    fn stale_contents_survive_consumption() {
        // The NIC "consuming" a descriptor does not erase the slot; a
        // later out-of-bounds producer index re-reads the stale value.
        let mut ring = DescRing::new(PhysAddr(0), 4);
        ring.write_at(0, rx_desc(0xAAAA000));
        let stale = ring.read_at(4); // one full lap later, never rewritten
        assert_eq!(stale.unwrap().buf.addr.0, 0xAAAA000);
    }

    #[test]
    fn never_written_slot_is_none() {
        let ring = DescRing::new(PhysAddr(0), 4);
        assert_eq!(ring.read_at(2), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = DescRing::new(PhysAddr(0), 6);
    }

    #[test]
    fn producer_wrap_at_u64_boundary_is_continuous() {
        // Monotonic indices are u64; nothing in the ring compares them
        // for ordering, so the only wrap hazard would be the slot map
        // jumping discontinuously at u64::MAX -> 0. Power-of-two sizes
        // divide 2^64 exactly, so the lap stays aligned: the slot after
        // u64::MAX's is slot 0.
        let size = 8u64;
        let mut ring = DescRing::new(PhysAddr(0), size as u32);
        assert_eq!(u64::MAX % size, size - 1, "u64::MAX lands on last slot");
        assert_eq!(u64::MAX.wrapping_add(1) % size, 0, "wrap continues at 0");
        ring.write_at(u64::MAX, rx_desc(0xDEAD000));
        // u64::MAX aliases the same slot as (size - 1).
        assert_eq!(ring.read_at(size - 1).unwrap().buf.addr.0, 0xDEAD000);
        // A full lap before u64::MAX aliases it too.
        assert_eq!(ring.read_at(u64::MAX - size).unwrap().buf.addr.0, 0xDEAD000);
    }

    #[test]
    fn table_read_near_u64_boundary() {
        let mut table = RingTable::new();
        let r = table.create(PhysAddr(0), 4);
        table
            .get_mut(r)
            .unwrap()
            .write_at(u64::MAX - 1, rx_desc(0x7000));
        // Monotonic reads at the extreme index resolve the same slot.
        assert_eq!(table.read(r, u64::MAX - 1).unwrap().buf.addr.0, 0x7000);
        assert_eq!(table.read(r, 2).unwrap().buf.addr.0, 0x7000); // (MAX-1)%4 == 2
        assert!(matches!(
            table.read(r, u64::MAX),
            Err(RingError::EmptySlot { .. })
        ));
    }

    #[test]
    fn ring_memory_footprint() {
        let ring = DescRing::new(PhysAddr(0), 256);
        assert_eq!(ring.mem_bytes(), 4096);
        assert_eq!(ring.mem_pages(), 1);
        let big = DescRing::new(PhysAddr(0), 512);
        assert_eq!(big.mem_pages(), 2);
    }

    #[test]
    fn table_create_and_access() {
        let mut table = RingTable::new();
        let a = table.create(PhysAddr(0), 8);
        let b = table.create(PhysAddr(0x1000), 8);
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        table.get_mut(a).unwrap().write_at(0, rx_desc(0x3000));
        assert_eq!(table.read(a, 0).unwrap().buf.addr.0, 0x3000);
    }

    #[test]
    fn table_errors() {
        let table = RingTable::new();
        assert!(matches!(
            table.get(RingId(5)),
            Err(RingError::NoSuchRing(_))
        ));
        let mut table = RingTable::new();
        let r = table.create(PhysAddr(0), 4);
        assert!(matches!(table.read(r, 0), Err(RingError::EmptySlot { .. })));
    }
}
