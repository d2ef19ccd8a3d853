//! The unit of traffic crossing the simulated wire.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::framing;
use crate::MacAddr;

/// Interned fill-pattern bodies, one allocation per distinct length.
///
/// Integrity tests attach literal payloads to every frame; building a
/// fresh `Vec` per frame turns the frame factory into an allocator
/// benchmark (hundreds of thousands of frames per simulated second,
/// all with identical contents). Interning hands every request for a
/// given length the *same* `Arc<[u8]>`, so after the first frame the
/// per-frame cost is one atomic refcount bump.
static BODY_INTERN: OnceLock<Mutex<BTreeMap<usize, Arc<[u8]>>>> = OnceLock::new();

/// The deterministic fill pattern: byte `i` of a body is
/// `(i & 0xFF) ^ 0xA5`, so truncation and offset bugs change observed
/// bytes.
fn fill_byte(i: usize) -> u8 {
    (i as u8) ^ 0xA5
}

/// Identifies a logical connection (guest, connection index) so the
/// workload generator can attribute delivered bytes to streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId {
    /// The guest domain index the flow belongs to (0-based).
    pub guest: u16,
    /// Connection index within the guest's benchmark process.
    pub conn: u16,
}

impl FlowId {
    /// Creates a flow id.
    pub const fn new(guest: u16, conn: u16) -> Self {
        FlowId { guest, conn }
    }
}

/// An Ethernet frame in flight.
///
/// Frames carry sizes and flow metadata rather than full byte images —
/// the simulation moves hundreds of thousands of frames per simulated
/// second, and the experiments only need counts — but an optional
/// shared `Arc<[u8]>` payload is supported for the data-integrity
/// tests.
///
/// # Example
///
/// ```
/// use cdna_net::{FlowId, Frame, MacAddr};
///
/// let f = Frame::tcp_data(
///     MacAddr::for_peer(0),
///     MacAddr::for_context(0, 1),
///     1460,
///     FlowId::new(0, 0),
///     7,
/// );
/// assert_eq!(f.l2_payload, 1500);
/// assert_eq!(f.wire_bytes(), 1538);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Ethernet payload length in bytes (IP + TCP headers + data).
    pub l2_payload: u32,
    /// TCP payload bytes carried (0 for pure ACKs / control traffic).
    pub tcp_payload: u32,
    /// The flow this frame belongs to.
    pub flow: FlowId,
    /// Per-flow sequence counter, for ordering/integrity checks.
    pub seq: u64,
    /// Optional literal payload used by integrity tests. `Arc` keeps
    /// clones cheap as the frame is copied across rings and queues.
    pub body: Option<Arc<[u8]>>,
}

impl Frame {
    /// A data segment carrying `tcp_payload` bytes from `src` to `dst`.
    #[inline]
    pub fn tcp_data(src: MacAddr, dst: MacAddr, tcp_payload: u32, flow: FlowId, seq: u64) -> Self {
        Frame {
            dst,
            src,
            l2_payload: framing::l2_payload_for_tcp(tcp_payload),
            tcp_payload,
            flow,
            seq,
            body: None,
        }
    }

    /// Attaches a literal payload (integrity tests).
    ///
    /// # Panics
    ///
    /// Panics if `body.len()` disagrees with the frame's `tcp_payload`.
    pub fn with_body(mut self, body: impl Into<Arc<[u8]>>) -> Self {
        let body = body.into();
        assert_eq!(
            body.len() as u32,
            self.tcp_payload,
            "body length must match tcp_payload"
        );
        self.body = Some(body);
        self
    }

    /// A shared fill-pattern body of `len` bytes for integrity tests.
    ///
    /// Bodies are interned per length: every call with the same `len`
    /// returns a clone of the same `Arc<[u8]>` (checkable with
    /// [`Arc::ptr_eq`]), so attaching bodies to every frame of a run
    /// costs one allocation per distinct length, not per frame. The
    /// pattern is deterministic (see the intern table docs), making
    /// corrupted, truncated, or mis-offset payloads visible.
    pub fn test_body(len: usize) -> Arc<[u8]> {
        let table = BODY_INTERN.get_or_init(|| Mutex::new(BTreeMap::new()));
        let mut map = table.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(len)
                .or_insert_with(|| (0..len).map(fill_byte).collect()),
        )
    }

    /// Byte times this frame occupies on a link (incl. preamble/IFG).
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        framing::wire_bytes(self.l2_payload)
    }

    /// Bytes of host memory the frame occupies in a NIC buffer or DMA
    /// transfer (Ethernet header + payload; no preamble/FCS/IFG).
    #[inline]
    pub fn buffer_bytes(&self) -> u32 {
        framing::ETH_HEADER_BYTES + self.l2_payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: u32) -> Frame {
        Frame::tcp_data(
            MacAddr::for_context(0, 0),
            MacAddr::for_peer(0),
            payload,
            FlowId::new(1, 2),
            42,
        )
    }

    #[test]
    fn data_frame_sizes() {
        let f = frame(1460);
        assert_eq!(f.l2_payload, 1500);
        assert_eq!(f.wire_bytes(), 1538);
        assert_eq!(f.buffer_bytes(), 1514);
        assert_eq!(f.tcp_payload, 1460);
    }

    #[test]
    fn ack_frame_is_padded_on_wire() {
        let f = frame(0);
        assert_eq!(f.l2_payload, 40);
        // 40 < 46 minimum payload, so padded: 46 + 38 overhead.
        assert_eq!(f.wire_bytes(), 84);
    }

    #[test]
    fn body_round_trip() {
        let body = Frame::test_body(100);
        let f = frame(100).with_body(body.clone());
        assert_eq!(f.body.as_ref().unwrap(), &body);
    }

    #[test]
    fn test_bodies_are_interned_per_length() {
        // Same length → the same allocation, every time: attaching
        // bodies to N frames costs one allocation, not N.
        let a = Frame::test_body(1460);
        let b = Frame::test_body(1460);
        assert!(Arc::ptr_eq(&a, &b), "same-length bodies must share");
        let c = Frame::test_body(64);
        assert!(!Arc::ptr_eq(&a, &c), "different lengths are distinct");
        // Cloning through frames keeps sharing: refcount, no copies.
        let before = Arc::strong_count(&a);
        let f1 = frame(1460).with_body(Frame::test_body(1460));
        let f2 = f1.clone();
        assert_eq!(Arc::strong_count(&a), before + 2);
        drop((f1, f2));
        assert_eq!(Arc::strong_count(&a), before);
    }

    #[test]
    fn test_body_pattern_is_deterministic() {
        let b = Frame::test_body(300);
        assert_eq!(b.len(), 300);
        assert_eq!(b[0], 0xA5);
        assert_eq!(b[1], 0xA4);
        assert_eq!(b[0x5A], 0xFF);
        // Pattern repeats every 256 bytes.
        assert_eq!(b[256], b[0]);
    }

    #[test]
    #[should_panic(expected = "body length must match")]
    fn mismatched_body_panics() {
        let _ = frame(100).with_body(&b"short"[..]);
    }
}
