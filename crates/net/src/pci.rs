//! Shared PCI bus model for DMA transfers.

use cdna_sim::SimTime;

/// A completed PCI transfer: when it started moving data and when it
/// finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PciTransfer {
    /// When the transfer gained the bus.
    pub start: SimTime,
    /// When the last byte landed.
    pub done: SimTime,
}

/// A 64-bit / 66 MHz PCI segment shared by every device on it.
///
/// The RiceNIC sits on such a bus (paper §4); its theoretical peak is
/// 528 MB/s, and both NICs' DMA engines contend for it. The model is a
/// single serializing resource with a fixed per-transaction setup cost —
/// enough to capture that descriptor fetches and payload DMAs are not
/// free and that heavy bidirectional traffic shares one bus.
///
/// # Example
///
/// ```
/// use cdna_net::PciBus;
/// use cdna_sim::SimTime;
///
/// let mut bus = PciBus::new_64bit_66mhz();
/// let t = bus.dma(SimTime::ZERO, 1514);
/// assert!(t.done > t.start);
/// ```
#[derive(Debug, Clone)]
pub struct PciBus {
    /// Sustained bandwidth in bytes per second.
    bytes_per_sec: u64,
    /// Fixed arbitration + addressing cost per transaction.
    setup: SimTime,
    busy_until: SimTime,
    transfers: u64,
    bytes_moved: u64,
}

impl PciBus {
    /// A 64-bit/66 MHz PCI bus: 528 MB/s peak, derated to ~80 % sustained
    /// (typical for burst DMA with arbitration), 120 ns setup per
    /// transaction.
    pub fn new_64bit_66mhz() -> Self {
        PciBus::with_rate(422_000_000, SimTime::from_ns(120))
    }

    /// A bus with explicit sustained bandwidth and per-transfer setup.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn with_rate(bytes_per_sec: u64, setup: SimTime) -> Self {
        assert!(bytes_per_sec > 0, "bus bandwidth must be positive");
        PciBus {
            bytes_per_sec,
            setup,
            busy_until: SimTime::ZERO,
            transfers: 0,
            bytes_moved: 0,
        }
    }

    /// Performs a DMA of `bytes` starting no earlier than `now`, queueing
    /// behind any transfer already on the bus.
    #[inline]
    pub fn dma(&mut self, now: SimTime, bytes: u32) -> PciTransfer {
        let start = self.busy_until.max(now);
        let move_ns = (bytes as u64 * 1_000_000_000).div_ceil(self.bytes_per_sec);
        let done = start + self.setup + SimTime::from_ns(move_ns);
        self.busy_until = done;
        self.transfers += 1;
        self.bytes_moved += bytes as u64;
        PciTransfer { start, done }
    }

    /// When the bus next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Number of transactions performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Fraction of the interval `[from, to)` the bus spent busy, assuming
    /// `to` is not before the last recorded activity... computed from
    /// total bytes moved and the configured rate.
    pub fn utilization(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let busy = self.bytes_moved as f64 / self.bytes_per_sec as f64
            + self.transfers as f64 * self.setup.as_secs_f64();
        (busy / span).min(1.0)
    }
}

impl Default for PciBus {
    fn default() -> Self {
        PciBus::new_64bit_66mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size() {
        let mut bus = PciBus::with_rate(1_000_000_000, SimTime::ZERO); // 1 GB/s
        let small = bus.dma(SimTime::ZERO, 100);
        assert_eq!((small.done - small.start).as_ns(), 100);
        let big = bus.dma(small.done, 10_000);
        assert_eq!((big.done - big.start).as_ns(), 10_000);
    }

    #[test]
    fn transfers_serialize_on_the_bus() {
        let mut bus = PciBus::with_rate(1_000_000_000, SimTime::from_ns(50));
        let a = bus.dma(SimTime::ZERO, 1000);
        let b = bus.dma(SimTime::ZERO, 1000);
        assert_eq!(a.done.as_ns(), 1050);
        assert_eq!(b.start, a.done);
        assert_eq!(b.done.as_ns(), 2100);
    }

    #[test]
    fn default_bus_moves_a_frame_in_a_few_microseconds() {
        let mut bus = PciBus::new_64bit_66mhz();
        let t = bus.dma(SimTime::ZERO, 1514);
        let dur = (t.done - t.start).as_us_f64();
        assert!(dur > 3.0 && dur < 4.5, "1514B took {dur}us");
    }

    #[test]
    fn bus_is_fast_enough_for_two_gigabit_nics() {
        // Two saturated gigabit links need ~2 * 125 MB/s = 250 MB/s of
        // payload DMA; the 422 MB/s sustained bus must keep up.
        let mut bus = PciBus::new_64bit_66mhz();
        let mut now = SimTime::ZERO;
        // 1 ms of traffic: 2 links * 81.3 kframes/s ≈ 163 frames.
        for _ in 0..163 {
            now = bus.dma(now, 1514).done;
        }
        assert!(
            now < SimTime::from_ms(1),
            "bus saturated moving 2-NIC load: {now}"
        );
    }

    #[test]
    fn counters_and_utilization() {
        let mut bus = PciBus::with_rate(1_000_000_000, SimTime::ZERO);
        bus.dma(SimTime::ZERO, 500_000);
        assert_eq!(bus.transfers(), 1);
        assert_eq!(bus.bytes_moved(), 500_000);
        let u = bus.utilization(SimTime::ZERO, SimTime::from_ms(1));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = PciBus::with_rate(0, SimTime::ZERO);
    }
}
