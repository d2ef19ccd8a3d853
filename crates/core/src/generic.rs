//! Device-independent descriptor handling (paper §3.4).
//!
//! The hypervisor must write DMA descriptors in whatever layout the NIC
//! consumes. The paper argues this is generalizable: "there are only
//! three fields of interest in any DMA descriptor: an address, a length,
//! and additional flags … The NIC would only need to specify the size of
//! the descriptor and the location of the address, length, and flags
//! [and] the size and location of the sequence number field."
//!
//! [`DescriptorFormat`] is exactly that self-description: a NIC
//! advertises one at context-assignment time, and the hypervisor's
//! generic encoder produces the device's byte layout without
//! interpreting the flags (they are copied through opaquely, as §3.4
//! requires).

use std::fmt;

use cdna_mem::{BufferSlice, PhysAddr};
use cdna_nic::{DescFlags, DmaDescriptor};

/// Errors validating or using a descriptor format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// A field extends past the descriptor's declared size.
    FieldOutOfBounds {
        /// Name of the offending field.
        field: &'static str,
    },
    /// Two fields overlap.
    Overlap {
        /// First field.
        a: &'static str,
        /// Second field.
        b: &'static str,
    },
    /// A field offset violates its natural alignment.
    Misaligned {
        /// The misaligned field.
        field: &'static str,
    },
    /// A byte buffer of the wrong length was supplied for decoding.
    WrongLength {
        /// Expected descriptor size.
        expected: u32,
        /// Bytes provided.
        got: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::FieldOutOfBounds { field } => {
                write!(f, "field `{field}` extends past the descriptor")
            }
            FormatError::Overlap { a, b } => write!(f, "fields `{a}` and `{b}` overlap"),
            FormatError::Misaligned { field } => write!(f, "field `{field}` is misaligned"),
            FormatError::WrongLength { expected, got } => {
                write!(f, "descriptor is {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A NIC's self-described DMA descriptor layout.
///
/// Field widths are fixed by the protocol (64-bit address, 32-bit
/// length, 16-bit flags, 32-bit sequence number); the device chooses the
/// descriptor size and where each field lives.
///
/// # Example
///
/// ```
/// use cdna_core::DescriptorFormat;
///
/// let fmt = DescriptorFormat::ricenic();
/// fmt.validate().unwrap();
/// assert_eq!(fmt.size, 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescriptorFormat {
    /// Total descriptor size in bytes.
    pub size: u32,
    /// Byte offset of the 64-bit buffer address.
    pub addr_offset: u32,
    /// Byte offset of the 32-bit buffer length.
    pub len_offset: u32,
    /// Byte offset of the 16-bit flags word (copied uninterpreted).
    pub flags_offset: u32,
    /// Byte offset of the 32-bit CDNA sequence number.
    pub seq_offset: u32,
}

/// (name, offset accessor, byte width) of one descriptor field.
type FieldSpec = (&'static str, fn(&DescriptorFormat) -> u32, u32);

const FIELDS: [FieldSpec; 4] = [
    ("addr", |f| f.addr_offset, 8),
    ("len", |f| f.len_offset, 4),
    ("flags", |f| f.flags_offset, 2),
    ("seq", |f| f.seq_offset, 4),
];

impl DescriptorFormat {
    /// The CDNA RiceNIC's advertised layout: a 24-byte descriptor with
    /// the address at 0, length at 8, flags at 12, and the sequence
    /// number at 16 (the last 4 bytes are reserved). The four fields
    /// total 18 bytes, so the classic 16-byte descriptor cannot carry a
    /// CDNA sequence number — which is why CDNA-capable firmware must
    /// advertise its own format (paper §3.4).
    pub fn ricenic() -> Self {
        DescriptorFormat {
            size: 24,
            addr_offset: 0,
            len_offset: 8,
            flags_offset: 12,
            seq_offset: 16,
        }
    }

    /// An e1000-style legacy layout without a sequence field slot of its
    /// own (seq shares the reserved tail).
    pub fn e1000_legacy() -> Self {
        DescriptorFormat {
            size: 16,
            addr_offset: 0,
            len_offset: 8,
            flags_offset: 14,
            seq_offset: 0, // no CDNA support: overlaps addr — invalid on purpose
        }
    }

    /// Checks bounds, alignment, and overlap of all fields.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), FormatError> {
        let mut spans: Vec<(&'static str, u32, u32)> = Vec::new();
        for (name, get, width) in FIELDS {
            let off = get(self);
            if off % width != 0 {
                return Err(FormatError::Misaligned { field: name });
            }
            if off + width > self.size {
                return Err(FormatError::FieldOutOfBounds { field: name });
            }
            spans.push((name, off, off + width));
        }
        for i in 0..spans.len() {
            for j in i + 1..spans.len() {
                let (a, a0, a1) = spans[i];
                let (b, b0, b1) = spans[j];
                if a0 < b1 && b0 < a1 {
                    return Err(FormatError::Overlap { a, b });
                }
            }
        }
        Ok(())
    }

    /// Hypervisor-side generic encode: lays the descriptor out in the
    /// device's format. Flags are copied through uninterpreted.
    ///
    /// # Panics
    ///
    /// Panics if the format is invalid — callers must
    /// [`DescriptorFormat::validate`] at negotiation time.
    pub fn encode(&self, desc: &DmaDescriptor) -> Vec<u8> {
        debug_assert!(self.validate().is_ok(), "unvalidated format");
        let mut out = vec![0u8; self.size as usize];
        out[self.addr_offset as usize..self.addr_offset as usize + 8]
            .copy_from_slice(&desc.buf.addr.0.to_le_bytes());
        out[self.len_offset as usize..self.len_offset as usize + 4]
            .copy_from_slice(&desc.buf.len.to_le_bytes());
        out[self.flags_offset as usize..self.flags_offset as usize + 2]
            .copy_from_slice(&desc.flags.0.to_le_bytes());
        out[self.seq_offset as usize..self.seq_offset as usize + 4]
            .copy_from_slice(&desc.seq.to_le_bytes());
        out
    }

    /// Device-side decode of the wire fields (metadata is carried out of
    /// band by the simulation, so the result has `meta: None`).
    ///
    /// # Errors
    ///
    /// Fails if `bytes` is not exactly one descriptor long.
    pub fn decode(&self, bytes: &[u8]) -> Result<DmaDescriptor, FormatError> {
        if bytes.len() != self.size as usize {
            return Err(FormatError::WrongLength {
                expected: self.size,
                got: bytes.len(),
            });
        }
        let get = |off: u32, n: usize| &bytes[off as usize..off as usize + n];
        #[expect(clippy::expect_used, reason = "length fixed by format geometry")]
        let addr = u64::from_le_bytes(get(self.addr_offset, 8).try_into().expect("8 bytes"));
        #[expect(clippy::expect_used, reason = "length fixed by format geometry")]
        let len = u32::from_le_bytes(get(self.len_offset, 4).try_into().expect("4 bytes"));
        #[expect(clippy::expect_used, reason = "length fixed by format geometry")]
        let flags = u16::from_le_bytes(get(self.flags_offset, 2).try_into().expect("2 bytes"));
        #[expect(clippy::expect_used, reason = "length fixed by format geometry")]
        let seq = u32::from_le_bytes(get(self.seq_offset, 4).try_into().expect("4 bytes"));
        let mut desc = DmaDescriptor::rx(BufferSlice::new(PhysAddr(addr), len.max(1)));
        desc.flags = DescFlags(flags);
        desc.seq = seq;
        Ok(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DmaDescriptor {
        let mut d = DmaDescriptor::rx(BufferSlice::new(PhysAddr(0xABCD_E000), 1514));
        d.flags = DescFlags(0b101);
        d.seq = 0xDEAD;
        d
    }

    #[test]
    fn ricenic_format_is_valid() {
        DescriptorFormat::ricenic().validate().unwrap();
    }

    #[test]
    fn legacy_format_without_seq_slot_is_rejected() {
        let err = DescriptorFormat::e1000_legacy().validate().unwrap_err();
        assert!(matches!(err, FormatError::Overlap { .. }));
    }

    #[test]
    fn encode_decode_round_trip() {
        let fmt = DescriptorFormat::ricenic();
        let d = sample();
        let bytes = fmt.encode(&d);
        assert_eq!(bytes.len(), 24);
        let back = fmt.decode(&bytes).unwrap();
        assert_eq!(back.buf, d.buf);
        assert_eq!(back.flags, d.flags);
        assert_eq!(back.seq, d.seq);
    }

    #[test]
    fn flags_are_copied_uninterpreted() {
        // Paper §3.4: the hypervisor "would not need to interpret the
        // flags, so they could just be copied" — any bit pattern must
        // survive.
        let fmt = DescriptorFormat::ricenic();
        for raw in [0u16, 1, 0xFFFF, 0xA5A5] {
            let mut d = sample();
            d.flags = DescFlags(raw);
            let back = fmt.decode(&fmt.encode(&d)).unwrap();
            assert_eq!(back.flags.0, raw);
        }
    }

    #[test]
    fn alternative_layout_works_identically() {
        // A hypothetical NIC with a rearranged 32-byte descriptor.
        let fmt = DescriptorFormat {
            size: 32,
            addr_offset: 16,
            len_offset: 4,
            flags_offset: 2,
            seq_offset: 8,
        };
        fmt.validate().unwrap();
        let d = sample();
        let back = fmt.decode(&fmt.encode(&d)).unwrap();
        assert_eq!(back.buf, d.buf);
        assert_eq!(back.seq, d.seq);
    }

    #[test]
    fn bounds_and_alignment_violations_detected() {
        let oob = DescriptorFormat {
            size: 16,
            addr_offset: 16, // 16+8 > 16
            len_offset: 0,
            flags_offset: 4,
            seq_offset: 8,
        };
        assert!(matches!(
            oob.validate(),
            Err(FormatError::FieldOutOfBounds { field: "addr" })
        ));
        let misaligned = DescriptorFormat {
            size: 32,
            addr_offset: 4, // 64-bit field at offset 4
            len_offset: 16,
            flags_offset: 20,
            seq_offset: 24,
        };
        assert!(matches!(
            misaligned.validate(),
            Err(FormatError::Misaligned { field: "addr" })
        ));
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let fmt = DescriptorFormat::ricenic();
        assert!(matches!(
            fmt.decode(&[0u8; 10]),
            Err(FormatError::WrongLength {
                expected: 24,
                got: 10
            })
        ));
    }
}
