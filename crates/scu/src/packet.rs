//! Packet and frame formats of the mesh link protocol.
//!
//! Every transmission on a link is a *frame*: an 8-bit header followed by a
//! payload. The header is a 6-bit type code — codes chosen with pairwise
//! Hamming distance ≥ 3 so "a single bit error will not cause a packet to
//! be misinterpreted" (§2.2) — plus two parity bits covering the payload
//! (even-position and odd-position bit parities). A parity mismatch at the
//! receiver triggers an automatic hardware resend.

/// 6-bit frame type codes. Pairwise Hamming distance ≥ 3 (see tests).
mod code {
    pub const IDLE: u8 = 0b000000;
    pub const NORMAL: u8 = 0b000111;
    pub const SUPERVISOR: u8 = 0b011001;
    pub const PART_IRQ: u8 = 0b101010;
    pub const ACK: u8 = 0b110100;
    pub const TRAIN: u8 = 0b111111;
}

/// A logical packet, before framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// A normal 64-bit data word moved by the DMA engines.
    Normal(u64),
    /// A supervisor word: lands in the neighbour SCU's register and raises a
    /// CPU interrupt. Takes priority over normal data.
    Supervisor(u64),
    /// An 8-bit partition-interrupt packet, flood-forwarded.
    PartitionIrq(u8),
    /// Acknowledgement of one received data packet.
    Ack,
    /// Idle byte exchanged when no data flows (post-training).
    Idle,
    /// Training sequence byte (HSSL link bring-up).
    Train(u8),
}

impl Packet {
    fn type_code(self) -> u8 {
        match self {
            Packet::Normal(_) => code::NORMAL,
            Packet::Supervisor(_) => code::SUPERVISOR,
            Packet::PartitionIrq(_) => code::PART_IRQ,
            Packet::Ack => code::ACK,
            Packet::Idle => code::IDLE,
            Packet::Train(_) => code::TRAIN,
        }
    }

    /// Payload length in bytes.
    fn payload_bytes(self) -> usize {
        match self {
            Packet::Normal(_) | Packet::Supervisor(_) => 8,
            Packet::PartitionIrq(_) | Packet::Train(_) => 1,
            Packet::Ack | Packet::Idle => 0,
        }
    }
}

/// Parity of the even- and odd-position bits of a payload: bit 0 is the
/// even class (mask `0x55`), bit 1 the odd class (mask `0xAA`). Each
/// class's parity is that of the XOR of all payload bytes, and folding
/// that byte by four and then two bits leaves the even class's parity in
/// bit 0 and the odd class's in bit 1.
fn payload_parity(payload: &[u8]) -> u8 {
    let mut x = payload.iter().fold(0u8, |acc, &b| acc ^ b);
    x ^= x >> 4;
    x ^= x >> 2;
    x & 0b11
}

/// Longest frame: the header byte plus a 64-bit payload.
const MAX_FRAME_BYTES: usize = 9;

/// A framed packet as it travels on the wire. The bytes live inline — one
/// frame per data word makes this the hottest value in the machine, and it
/// must cost no allocation to build, resend or drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Header, then the payload big-endian; the first `len` bytes are the
    /// frame and the rest stay zero, so derived equality compares frames.
    bytes: [u8; MAX_FRAME_BYTES],
    len: u8,
}

/// Frame decode failures — all of them trigger the hardware resend path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The 6-bit type code is not one of the defined codes (a corrupted
    /// header, caught by the distance-3 code set).
    BadTypeCode(u8),
    /// Payload parity mismatch.
    Parity,
    /// The frame is shorter than its type requires.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadTypeCode(c) => write!(f, "invalid type code {c:#08b}"),
            FrameError::Parity => write!(f, "payload parity mismatch"),
            FrameError::Truncated => write!(f, "truncated frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Frame a packet for transmission.
    pub fn encode(pkt: Packet) -> Frame {
        let mut bytes = [0u8; MAX_FRAME_BYTES];
        let len = 1 + pkt.payload_bytes();
        match pkt {
            Packet::Normal(w) | Packet::Supervisor(w) => {
                bytes[1..].copy_from_slice(&w.to_be_bytes())
            }
            Packet::PartitionIrq(b) | Packet::Train(b) => bytes[1] = b,
            Packet::Ack | Packet::Idle => {}
        }
        bytes[0] = (pkt.type_code() << 2) | payload_parity(&bytes[1..len]);
        Frame {
            bytes,
            len: len as u8,
        }
    }

    /// Decode and validate a received frame.
    pub fn decode(&self) -> Result<Packet, FrameError> {
        let (&header, payload) = self.as_bytes().split_first().ok_or(FrameError::Truncated)?;
        let type_code = header >> 2;
        let parity = header & 0b11;
        let pkt = match type_code {
            code::NORMAL => Packet::Normal(read_u64(payload)?),
            code::SUPERVISOR => Packet::Supervisor(read_u64(payload)?),
            code::PART_IRQ => Packet::PartitionIrq(read_u8(payload)?),
            code::ACK => Packet::Ack,
            code::IDLE => Packet::Idle,
            code::TRAIN => Packet::Train(read_u8(payload)?),
            other => return Err(FrameError::BadTypeCode(other)),
        };
        if payload_parity(payload) != parity {
            return Err(FrameError::Parity);
        }
        Ok(pkt)
    }

    /// Size on the wire in bits: 8-bit header plus payload. A framed
    /// normal word is 72 bits — the origin of the paper's 1.3 GB/s
    /// aggregate bandwidth and 3.3 µs 23-word tail.
    pub fn wire_bits(&self) -> u64 {
        8 * u64::from(self.len)
    }

    /// Raw frame bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Flip bit `bit` of the frame — the fault-injection hook used by the
    /// E7/E10 experiments to exercise the hardware resend path.
    pub fn corrupt_bit(&mut self, bit: usize) {
        let byte = bit / 8;
        assert!(byte < usize::from(self.len), "bit {bit} outside frame");
        self.bytes[byte] ^= 1 << (bit % 8);
    }
}

/// The payload's leading big-endian word.
fn read_u64(payload: &[u8]) -> Result<u64, FrameError> {
    let word = payload.first_chunk::<8>().ok_or(FrameError::Truncated)?;
    Ok(u64::from_be_bytes(*word))
}

/// The payload's leading byte.
fn read_u8(payload: &[u8]) -> Result<u8, FrameError> {
    payload.first().copied().ok_or(FrameError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_codes() -> [u8; 6] {
        [
            code::IDLE,
            code::NORMAL,
            code::SUPERVISOR,
            code::PART_IRQ,
            code::ACK,
            code::TRAIN,
        ]
    }

    #[test]
    fn type_codes_have_hamming_distance_at_least_3() {
        let codes = all_codes();
        for (i, &a) in codes.iter().enumerate() {
            for &b in &codes[i + 1..] {
                let d = (a ^ b).count_ones();
                assert!(d >= 3, "codes {a:#08b} and {b:#08b} have distance {d}");
            }
        }
    }

    #[test]
    fn roundtrip_all_packet_kinds() {
        for pkt in [
            Packet::Normal(0x0123_4567_89AB_CDEF),
            Packet::Supervisor(u64::MAX),
            Packet::PartitionIrq(0x5A),
            Packet::Ack,
            Packet::Idle,
            Packet::Train(0xA5),
        ] {
            let f = Frame::encode(pkt);
            assert_eq!(f.decode().unwrap(), pkt, "{pkt:?}");
        }
    }

    #[test]
    fn frame_bytes_are_pinned_for_every_packet_kind() {
        // Header = type code << 2 | odd-bit parity << 1 | even-bit parity,
        // then the payload big-endian. The cases set each parity bit.
        let golden: [(Packet, &[u8]); 6] = [
            (
                Packet::Normal(0x0123_4567_89AB_CDEF),
                &[0x1C, 0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF],
            ),
            (Packet::Supervisor(2), &[0x66, 0, 0, 0, 0, 0, 0, 0, 2]),
            (Packet::PartitionIrq(0x01), &[0xA9, 0x01]),
            (Packet::Ack, &[0xD0]),
            (Packet::Idle, &[0x00]),
            (Packet::Train(0xA4), &[0xFD, 0xA4]),
        ];
        for (pkt, bytes) in golden {
            let f0 = Frame::encode(pkt);
            assert_eq!(f0.as_bytes(), bytes, "{pkt:?}");
            assert_eq!(f0.wire_bits(), 8 * bytes.len() as u64, "{pkt:?}");
            assert_eq!(f0.decode(), Ok(pkt));
            for bit in 0..bytes.len() * 8 {
                let mut f = f0;
                f.corrupt_bit(bit);
                assert!(f.decode().is_err(), "{pkt:?}: bit {bit} flip decoded");
            }
        }
    }

    #[test]
    fn normal_frame_is_72_bits() {
        // 8-bit header + 64-bit word: the unit behind 1.3 GB/s and 3.3 us.
        assert_eq!(Frame::encode(Packet::Normal(7)).wire_bits(), 72);
    }

    #[test]
    fn wire_bits_by_packet_kind() {
        assert_eq!(Frame::encode(Packet::PartitionIrq(0)).wire_bits(), 16);
        assert_eq!(Frame::encode(Packet::Ack).wire_bits(), 8);
    }

    #[test]
    fn single_payload_bit_error_is_detected() {
        // Any single-bit corruption of the payload flips exactly one of the
        // two parity classes.
        let f0 = Frame::encode(Packet::Normal(0xDEAD_BEEF_0BAD_F00D));
        for bit in 8..72 {
            let mut f = f0;
            f.corrupt_bit(bit);
            assert!(
                f.decode().is_err(),
                "payload bit {bit} corruption undetected"
            );
        }
    }

    #[test]
    fn single_header_type_bit_error_is_detected() {
        // Corrupting any of the 6 type-code bits yields an invalid code
        // (distance >= 3), so the packet cannot be re-typed.
        let f0 = Frame::encode(Packet::Supervisor(42));
        for bit in 2..8 {
            let mut f = f0;
            f.corrupt_bit(bit);
            match f.decode() {
                Err(_) => {}
                Ok(pkt) => panic!("header bit {bit} corruption decoded as {pkt:?}"),
            }
        }
    }

    #[test]
    fn header_parity_bit_error_is_detected() {
        let f0 = Frame::encode(Packet::Normal(123));
        for bit in 0..2 {
            let mut f = f0;
            f.corrupt_bit(bit);
            assert_eq!(f.decode(), Err(FrameError::Parity));
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let f = Frame {
            bytes: [code::NORMAL << 2, 1, 2, 3, 0, 0, 0, 0, 0],
            len: 4,
        };
        assert_eq!(f.decode(), Err(FrameError::Truncated));
        let empty = Frame {
            bytes: [0; MAX_FRAME_BYTES],
            len: 0,
        };
        assert_eq!(empty.decode(), Err(FrameError::Truncated));
    }

    /// The per-byte popcount parity the fold replaced.
    fn payload_parity_reference(payload: &[u8]) -> u8 {
        let mut even = 0u8;
        let mut odd = 0u8;
        for &b in payload {
            even ^= (b & 0x55).count_ones() as u8 & 1;
            odd ^= (b & 0xAA).count_ones() as u8 & 1;
        }
        (odd << 1) | even
    }

    #[test]
    fn folded_parity_matches_the_popcount_one() {
        for b in 0..=255u8 {
            assert_eq!(
                payload_parity(&[b]),
                payload_parity_reference(&[b]),
                "{b:#04x}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn folded_parity_matches_on_eight_byte_payloads(word in any::<u64>()) {
            let payload = word.to_be_bytes();
            prop_assert_eq!(payload_parity(&payload), payload_parity_reference(&payload));
        }
    }

    #[test]
    fn parity_covers_both_bit_classes() {
        assert_eq!(payload_parity(&[0b0000_0001]), 0b01);
        assert_eq!(payload_parity(&[0b0000_0010]), 0b10);
        assert_eq!(payload_parity(&[0b0000_0011]), 0b11);
        assert_eq!(payload_parity(&[0b0000_0101]), 0b00);
    }
}
