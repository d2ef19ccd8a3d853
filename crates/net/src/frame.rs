//! The unit of traffic crossing the simulated wire.

use crate::framing;
use crate::MacAddr;

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
/// Frames carry sizes and flow metadata, never byte images: the
/// simulation moves hundreds of thousands of frames per simulated
/// second, and the experiments only need counts. A frame is a plain
/// 32-byte `Copy` record with no drop glue.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

// Every packet copies its frame through the device activity, the
// in-flight slot ring and the receiving domain's queue; a field that
// grew the record (or gave it drop glue) would tax every one of those
// moves.
const _: () = assert!(std::mem::size_of::<Frame>() == 32);

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
        }
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
}
