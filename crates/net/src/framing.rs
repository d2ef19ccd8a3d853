//! Protocol framing arithmetic.
//!
//! The paper reports TCP payload throughput ("Mb/s") while the wire
//! carries Ethernet frames with preamble, headers, FCS, and inter-frame
//! gap. These helpers convert between payload bytes, frame bytes, and
//! on-the-wire time so the simulation and the reports agree on what a
//! "Mb/s" is.
//!
//! All configurations in the paper used standard 1500-byte MTU Ethernet
//! with TCP timestamps disabled in our model (MSS 1460).

/// Bytes of Ethernet preamble + start-of-frame delimiter.
pub const PREAMBLE_BYTES: u32 = 8;
/// Bytes of Ethernet header (dst + src + ethertype).
pub const ETH_HEADER_BYTES: u32 = 14;
/// Bytes of frame check sequence.
pub const FCS_BYTES: u32 = 4;
/// Minimum inter-frame gap, expressed in byte times.
pub const IFG_BYTES: u32 = 12;
/// IPv4 header bytes (no options).
pub const IP_HEADER_BYTES: u32 = 20;
/// TCP header bytes (no options on data segments).
pub const TCP_HEADER_BYTES: u32 = 20;
/// Standard Ethernet MTU.
pub const MTU: u32 = 1500;
/// Maximum TCP segment size with the headers above.
pub const MSS: u32 = MTU - IP_HEADER_BYTES - TCP_HEADER_BYTES;
/// Minimum Ethernet payload (frames are padded up to this).
pub const MIN_ETH_PAYLOAD: u32 = 46;

/// Per-frame wire overhead that is not L2 payload: preamble, Ethernet
/// header, FCS and inter-frame gap.
pub const PER_FRAME_WIRE_OVERHEAD: u32 = PREAMBLE_BYTES + ETH_HEADER_BYTES + FCS_BYTES + IFG_BYTES;

/// Total byte times a frame with `l2_payload` bytes of Ethernet payload
/// occupies on the wire (including padding to the Ethernet minimum).
///
/// # Example
///
/// ```
/// use cdna_net::framing::{wire_bytes, PER_FRAME_WIRE_OVERHEAD};
///
/// // A full-MTU frame occupies 1538 byte times on a gigabit link.
/// assert_eq!(wire_bytes(1500), 1500 + PER_FRAME_WIRE_OVERHEAD);
/// // Tiny frames are padded to the 46-byte Ethernet minimum.
/// assert_eq!(wire_bytes(1), 46 + PER_FRAME_WIRE_OVERHEAD);
/// ```
#[inline]
pub fn wire_bytes(l2_payload: u32) -> u32 {
    l2_payload.max(MIN_ETH_PAYLOAD) + PER_FRAME_WIRE_OVERHEAD
}

/// Ethernet (L2) payload bytes for a TCP segment carrying `tcp_payload`
/// bytes of application data.
#[inline]
pub fn l2_payload_for_tcp(tcp_payload: u32) -> u32 {
    tcp_payload + IP_HEADER_BYTES + TCP_HEADER_BYTES
}

/// TCP payload bytes carried by a frame whose Ethernet payload is
/// `l2_payload` bytes, or 0 if the frame is too small to hold the headers.
pub fn tcp_payload_of_l2(l2_payload: u32) -> u32 {
    l2_payload.saturating_sub(IP_HEADER_BYTES + TCP_HEADER_BYTES)
}

/// Splits `bytes` of application data into MSS-sized TCP payload chunks,
/// as TCP segmentation offload (TSO) hardware does.
///
/// # Example
///
/// ```
/// use cdna_net::framing::{segment_tcp_payload, MSS};
///
/// assert_eq!(segment_tcp_payload(0), Vec::<u32>::new());
/// assert_eq!(segment_tcp_payload(u64::from(MSS) * 2 + 100), vec![MSS, MSS, 100]);
/// ```
pub fn segment_tcp_payload(bytes: u64) -> Vec<u32> {
    let mut out = Vec::with_capacity((bytes / MSS as u64 + 1) as usize);
    let mut remaining = bytes;
    while remaining > 0 {
        let chunk = remaining.min(MSS as u64) as u32;
        out.push(chunk);
        remaining -= chunk as u64;
    }
    out
}

/// Peak TCP goodput, in Mb/s, of `links` gigabit links carrying
/// back-to-back full-MSS segments.
///
/// This is the "line rate" ceiling the paper's CDNA numbers approach:
/// ~949.3 Mb/s per gigabit link, ~1898.6 Mb/s for the two-NIC testbed.
pub fn line_rate_goodput_mbps(links: u32) -> f64 {
    let payload_bits = (MSS * 8) as f64;
    let wire_bits = (wire_bytes(MTU) * 8) as f64;
    links as f64 * 1000.0 * payload_bits / wire_bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mtu_frame_is_1538_byte_times() {
        assert_eq!(wire_bytes(MTU), 1538);
    }

    #[test]
    fn mss_value() {
        assert_eq!(MSS, 1460);
    }

    #[test]
    fn tcp_l2_round_trip() {
        for payload in [1u32, 100, MSS] {
            assert_eq!(tcp_payload_of_l2(l2_payload_for_tcp(payload)), payload);
        }
    }

    #[test]
    fn l2_too_small_for_headers_yields_zero_payload() {
        assert_eq!(tcp_payload_of_l2(10), 0);
        assert_eq!(tcp_payload_of_l2(40), 0);
        assert_eq!(tcp_payload_of_l2(41), 1);
    }

    #[test]
    fn segmentation_covers_all_bytes() {
        for total in [0u64, 1, 1460, 1461, 65536, 1_000_000] {
            let segs = segment_tcp_payload(total);
            assert_eq!(segs.iter().map(|&s| s as u64).sum::<u64>(), total);
            // All but the last segment are full MSS.
            for &s in segs.iter().rev().skip(1) {
                assert_eq!(s, MSS);
            }
        }
    }

    #[test]
    fn gigabit_line_rate_matches_hand_math() {
        // 1460 * 8 / (1538 * 8) * 1000 = 949.28...
        let one = line_rate_goodput_mbps(1);
        assert!((one - 949.28).abs() < 0.01, "got {one}");
        let two = line_rate_goodput_mbps(2);
        assert!((two - 1898.57).abs() < 0.02, "got {two}");
    }

    #[test]
    fn runt_frames_padded() {
        assert_eq!(wire_bytes(0), MIN_ETH_PAYLOAD + PER_FRAME_WIRE_OVERHEAD);
    }
}
