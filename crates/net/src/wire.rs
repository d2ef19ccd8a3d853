//! Full-duplex gigabit link model.

use cdna_sim::SimTime;

/// Direction of travel on a [`GigabitWire`], from the host NIC's point of
/// view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireDirection {
    /// Host NIC → peer.
    Transmit,
    /// Peer → host NIC.
    Receive,
}

/// A full-duplex point-to-point gigabit Ethernet link.
///
/// Each direction is an independent serializer: a frame occupies the link
/// for `wire_bytes * 8ns` (1 Gb/s = 1 bit/ns) and frames queue behind one
/// another. The model answers "when does this frame finish arriving?",
/// which is when the receiving side may begin processing it
/// (store-and-forward).
///
/// # Example
///
/// ```
/// use cdna_net::{GigabitWire, WireDirection};
/// use cdna_sim::SimTime;
///
/// let mut wire = GigabitWire::new();
/// let t0 = SimTime::ZERO;
/// let first = wire.transfer(t0, WireDirection::Transmit, 1538);
/// let second = wire.transfer(t0, WireDirection::Transmit, 1538);
/// // Frames serialize back to back: 12.304us then 24.608us.
/// assert_eq!(first.as_ns(), 12_304);
/// assert_eq!(second.as_ns(), 24_608);
/// // The reverse direction is independent (full duplex).
/// let rx = wire.transfer(t0, WireDirection::Receive, 1538);
/// assert_eq!(rx.as_ns(), 12_304);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GigabitWire {
    tx_busy_until: SimTime,
    rx_busy_until: SimTime,
    tx_frames: u64,
    rx_frames: u64,
    tx_wire_bytes: u64,
    rx_wire_bytes: u64,
}

/// Serialization time of one byte at 1 Gb/s.
const NS_PER_BYTE: u64 = 8;

impl GigabitWire {
    /// Creates an idle link.
    pub fn new() -> Self {
        GigabitWire::default()
    }

    /// Enqueues a frame of `wire_bytes` byte times in `dir` at time `now`
    /// and returns the time its last bit arrives at the far end.
    #[inline]
    pub fn transfer(&mut self, now: SimTime, dir: WireDirection, wire_bytes: u32) -> SimTime {
        let ser = SimTime::from_ns(wire_bytes as u64 * NS_PER_BYTE);
        let busy = match dir {
            WireDirection::Transmit => &mut self.tx_busy_until,
            WireDirection::Receive => &mut self.rx_busy_until,
        };
        let start = (*busy).max(now);
        let done = start + ser;
        *busy = done;
        match dir {
            WireDirection::Transmit => {
                self.tx_frames += 1;
                self.tx_wire_bytes += wire_bytes as u64;
            }
            WireDirection::Receive => {
                self.rx_frames += 1;
                self.rx_wire_bytes += wire_bytes as u64;
            }
        }
        done
    }

    /// When the given direction next becomes idle.
    pub fn busy_until(&self, dir: WireDirection) -> SimTime {
        match dir {
            WireDirection::Transmit => self.tx_busy_until,
            WireDirection::Receive => self.rx_busy_until,
        }
    }

    /// Whether the given direction is idle at `now`.
    pub fn is_idle(&self, now: SimTime, dir: WireDirection) -> bool {
        self.busy_until(dir) <= now
    }

    /// Frames ever sent in `dir`.
    pub fn frames(&self, dir: WireDirection) -> u64 {
        match dir {
            WireDirection::Transmit => self.tx_frames,
            WireDirection::Receive => self.rx_frames,
        }
    }

    /// Total wire byte-times consumed in `dir`.
    pub fn wire_bytes(&self, dir: WireDirection) -> u64 {
        match dir {
            WireDirection::Transmit => self.tx_wire_bytes,
            WireDirection::Receive => self.rx_wire_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_is_8ns_per_byte() {
        let mut w = GigabitWire::new();
        let done = w.transfer(SimTime::ZERO, WireDirection::Transmit, 100);
        assert_eq!(done.as_ns(), 800);
    }

    #[test]
    fn frames_queue_behind_each_other() {
        let mut w = GigabitWire::new();
        let a = w.transfer(SimTime::ZERO, WireDirection::Receive, 1000);
        let b = w.transfer(SimTime::from_ns(100), WireDirection::Receive, 1000);
        assert_eq!(a.as_ns(), 8_000);
        assert_eq!(b.as_ns(), 16_000); // started when `a` finished
    }

    #[test]
    fn idle_gap_is_not_reclaimed() {
        let mut w = GigabitWire::new();
        let a = w.transfer(SimTime::ZERO, WireDirection::Transmit, 125);
        assert_eq!(a.as_ns(), 1_000);
        // Link idle from 1000ns to 5000ns, then a new frame starts fresh.
        let b = w.transfer(SimTime::from_ns(5_000), WireDirection::Transmit, 125);
        assert_eq!(b.as_ns(), 6_000);
    }

    #[test]
    fn directions_are_independent() {
        let mut w = GigabitWire::new();
        w.transfer(SimTime::ZERO, WireDirection::Transmit, 10_000);
        assert!(w.is_idle(SimTime::ZERO, WireDirection::Receive));
        assert!(!w.is_idle(SimTime::ZERO, WireDirection::Transmit));
    }

    #[test]
    fn counters_accumulate() {
        let mut w = GigabitWire::new();
        w.transfer(SimTime::ZERO, WireDirection::Transmit, 1538);
        w.transfer(SimTime::ZERO, WireDirection::Transmit, 84);
        assert_eq!(w.frames(WireDirection::Transmit), 2);
        assert_eq!(w.wire_bytes(WireDirection::Transmit), 1622);
        assert_eq!(w.frames(WireDirection::Receive), 0);
    }

    #[test]
    fn sustained_line_rate_matches_goodput_helper() {
        // Pump full-MTU frames back to back for 1ms of simulated time and
        // check the achieved payload rate equals the analytic line rate.
        let mut w = GigabitWire::new();
        let mut now = SimTime::ZERO;
        let mut payload_bits: u64 = 0;
        while now < SimTime::from_ms(1) {
            now = w.transfer(now, WireDirection::Transmit, 1538);
            payload_bits += 1460 * 8;
        }
        let mbps = payload_bits as f64 / now.as_secs_f64() / 1e6;
        let expect = crate::framing::line_rate_goodput_mbps(1);
        assert!((mbps - expect).abs() < 1.0, "got {mbps}, want {expect}");
    }
}
