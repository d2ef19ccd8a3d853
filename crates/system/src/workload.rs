//! The benchmark workload (paper §5.1).
//!
//! "A multithreaded, event-driven, lightweight network benchmark program
//! was developed to distribute traffic across a configurable number of
//! connections. The benchmark program balances the bandwidth across all
//! connections to ensure fairness..." — each guest runs greedy streams
//! spread round-robin over its connections, which are in turn balanced
//! across the physical NICs.

use cdna_net::FlowId;

/// One guest's set of greedy connections.
///
/// # Example
///
/// ```
/// use cdna_system::GuestWorkload;
///
/// let mut w = GuestWorkload::new(0, 4, 2);
/// // Connections rotate, alternating NICs.
/// let a = w.next_tx();
/// let b = w.next_tx();
/// assert_ne!(a.nic, b.nic);
/// assert_ne!(a.flow.conn, b.flow.conn);
/// ```
#[derive(Debug, Clone)]
pub struct GuestWorkload {
    guest: u16,
    conns: u16,
    nics: u8,
    next_conn: u16,
    /// `next_conn % nics`, kept alongside the cursor.
    next_nic: u8,
    /// Per-connection transmitted byte counts (sequence offsets).
    tx_seq: Vec<u64>,
    /// Per-connection received byte counts (integrity checking).
    rx_seen: Vec<u64>,
}

/// One transmit unit: which flow, which NIC, and the flow's byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxUnit {
    /// The flow identifier.
    pub flow: FlowId,
    /// Which physical NIC carries this connection.
    pub nic: usize,
    /// Byte offset within the flow (the frame's sequence field).
    pub seq: u64,
}

impl GuestWorkload {
    /// Workload for `guest` with `conns` connections over `nics` NICs.
    ///
    /// # Panics
    ///
    /// Panics if `conns` or `nics` is zero.
    pub fn new(guest: u16, conns: u16, nics: u8) -> Self {
        assert!(conns > 0, "need at least one connection");
        assert!(nics > 0, "need at least one NIC");
        GuestWorkload {
            guest,
            conns,
            nics,
            next_conn: 0,
            next_nic: 0,
            tx_seq: vec![0; conns as usize],
            rx_seen: vec![0; conns as usize],
        }
    }

    /// The guest index.
    pub fn guest(&self) -> u16 {
        self.guest
    }

    /// Produces the next transmit unit of `payload` bytes, rotating
    /// fairly across connections.
    pub fn next_tx(&mut self) -> TxUnit {
        let (conn, nic) = (self.next_conn, self.next_nic);
        // Compare-and-reset rather than `%`: this runs once per frame.
        self.next_conn += 1;
        self.next_nic += 1;
        if self.next_conn == self.conns {
            self.next_conn = 0;
            self.next_nic = 0;
        } else if self.next_nic == self.nics {
            self.next_nic = 0;
        }
        TxUnit {
            flow: FlowId::new(self.guest, conn),
            nic: nic as usize,
            seq: self.tx_seq[conn as usize],
        }
    }

    /// Commits `bytes` transmitted on the unit's connection (advances
    /// the sequence).
    pub fn commit_tx(&mut self, unit: TxUnit, bytes: u32) {
        self.tx_seq[unit.flow.conn as usize] += bytes as u64;
    }

    /// Records `bytes` received on `conn`.
    pub fn record_rx(&mut self, conn: u16, bytes: u32) {
        if let Some(s) = self.rx_seen.get_mut(conn as usize) {
            *s += bytes as u64;
        }
    }

    /// Total bytes transmitted across connections.
    pub fn total_tx_bytes(&self) -> u64 {
        self.tx_seq.iter().sum()
    }

    /// Total bytes received across connections.
    pub fn total_rx_bytes(&self) -> u64 {
        self.rx_seen.iter().sum()
    }

    /// Max spread between the most- and least-served connections, in
    /// bytes — the fairness the paper's benchmark enforces.
    pub fn tx_imbalance(&self) -> u64 {
        let max = self.tx_seq.iter().copied().max().unwrap_or(0);
        let min = self.tx_seq.iter().copied().min().unwrap_or(0);
        max - min
    }
}

/// The peer machine's receive-side generator state for one NIC: rotates
/// destination flows fairly across every (guest, connection) pair
/// assigned to that NIC.
#[derive(Debug, Clone)]
pub struct PeerSource {
    targets: Vec<FlowId>,
    next: usize,
    seqs: Vec<u64>,
}

impl PeerSource {
    /// A source cycling over `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(targets: Vec<FlowId>) -> Self {
        assert!(!targets.is_empty(), "peer source needs targets");
        let n = targets.len();
        PeerSource {
            targets,
            next: 0,
            seqs: vec![0; n],
        }
    }

    /// The next (flow, sequence) to send; advances the rotation.
    pub fn next_frame(&mut self, bytes: u32) -> (FlowId, u64) {
        let i = self.next;
        self.next += 1;
        if self.next == self.targets.len() {
            self.next = 0;
        }
        let seq = self.seqs[i];
        self.seqs[i] += bytes as u64;
        (self.targets[i], seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_rotate_fairly() {
        let mut w = GuestWorkload::new(3, 4, 2);
        let mut conns = Vec::new();
        for _ in 0..8 {
            let u = w.next_tx();
            assert_eq!(u.flow.guest, 3);
            conns.push(u.flow.conn);
            w.commit_tx(u, 1460);
        }
        assert_eq!(conns, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(w.tx_imbalance(), 0);
        assert_eq!(w.total_tx_bytes(), 8 * 1460);
    }

    #[test]
    fn sequences_advance_per_connection() {
        let mut w = GuestWorkload::new(0, 2, 2);
        let a = w.next_tx();
        w.commit_tx(a, 1000);
        let _b = w.next_tx(); // conn 1, untouched
        let c = w.next_tx(); // conn 0 again
        assert_eq!(c.seq, 1000);
    }

    #[test]
    fn cursor_wraps_like_the_modulus() {
        for (conns, nics) in [(1, 1), (1, 2), (3, 2), (4, 2), (5, 3), (24, 2)] {
            let mut w = GuestWorkload::new(0, conns, nics);
            for i in 0..3 * conns {
                let u = w.next_tx();
                assert_eq!(u.flow.conn, i % conns, "{conns} conns");
                assert_eq!(u.nic, usize::from(u.flow.conn % u16::from(nics)));
            }
        }
    }

    #[test]
    fn nic_assignment_balances() {
        let mut w = GuestWorkload::new(0, 4, 2);
        let nics: Vec<usize> = (0..4).map(|_| w.next_tx().nic).collect();
        assert_eq!(nics.iter().filter(|&&n| n == 0).count(), 2);
        assert_eq!(nics.iter().filter(|&&n| n == 1).count(), 2);
    }

    #[test]
    fn peer_source_rotates_and_sequences() {
        let mut p = PeerSource::new(vec![FlowId::new(0, 0), FlowId::new(1, 0)]);
        let (f1, s1) = p.next_frame(1460);
        let (f2, _) = p.next_frame(1460);
        let (f3, s3) = p.next_frame(1460);
        assert_eq!(f1, FlowId::new(0, 0));
        assert_eq!(f2, FlowId::new(1, 0));
        assert_eq!(f3, f1);
        assert_eq!(s1, 0);
        assert_eq!(s3, 1460);
    }

    #[test]
    fn rx_accounting() {
        let mut w = GuestWorkload::new(0, 2, 1);
        w.record_rx(0, 100);
        w.record_rx(1, 200);
        w.record_rx(9, 999); // out of range: ignored
        assert_eq!(w.total_rx_bytes(), 300);
    }
}
