//! SEC-DED (72,64) Hamming code over node-memory words.
//!
//! The paper's node stores its lattice data in "4 Mbytes of embedded DRAM
//! (EDRAM) … 1024-bit rows + ECC" (§2.1), and the external DDR SDRAM
//! carries the industry-standard 72/64 check-bit sidecar. This module is
//! that code: an *extended* Hamming code with seven positional parity bits
//! plus one overall-parity bit, giving single-error correction and
//! double-error detection (SEC-DED) over each 64-bit word.
//!
//! Layout: the 72-bit codeword places parity bit `p` at position `2^p`
//! (positions 1, 2, 4, 8, 16, 32, 64), the overall parity at position 0,
//! and the 64 data bits at the remaining positions in ascending order.
//! The syndrome of a single flipped bit is its codeword position; a double
//! flip leaves the overall parity even with a nonzero syndrome, which is
//! exactly the uncorrectable (machine-check) signature.
//!
//! Every word the node reads or writes passes through this code, so it is
//! priced per word. The code is linear over GF(2), which makes the check
//! byte of a word the XOR of its eight bytes' check bytes: [`encode`] is
//! eight lookups in a compile-time table, and [`decode`] compares the
//! stored check byte with a fresh one — equal is the clean fast path, and
//! only a mismatch goes on to the syndrome. The bitwise encoder (seven
//! masked popcounts) survives only to fill the table at compile time and
//! as the tests' reference.
//!
//! The all-zero word encodes to all-zero check bits, so zero-initialised
//! (or lazily unallocated) storage is a valid codeword without any
//! initialisation pass — the property that lets the scrubber skip rows no
//! one has touched.

/// Codeword position of each data bit: the 64 non-power-of-two positions
/// of 1..72 in ascending order.
const DATA_POS: [u8; 64] = {
    let mut t = [0u8; 64];
    let mut pos = 1usize;
    let mut i = 0;
    while i < 64 {
        if pos & (pos - 1) != 0 {
            t[i] = pos as u8;
            i += 1;
        }
        pos += 1;
    }
    t
};

/// Data-bit masks feeding each of the seven positional parities: bit `i`
/// of `PARITY_MASKS[p]` is set when data bit `i` sits at a codeword
/// position with bit `p` set.
const PARITY_MASKS: [u64; 7] = {
    let mut m = [0u64; 7];
    let mut i = 0;
    while i < 64 {
        let pos = DATA_POS[i] as usize;
        let mut p = 0;
        while p < 7 {
            if pos & (1 << p) != 0 {
                m[p] |= 1 << i;
            }
            p += 1;
        }
        i += 1;
    }
    m
};

/// Inverse of [`DATA_POS`]: data-bit index at each codeword position, or
/// -1 for the parity positions (0 and the powers of two).
const POS_DATA: [i8; 72] = {
    let mut t = [-1i8; 72];
    let mut i = 0;
    while i < 64 {
        t[DATA_POS[i] as usize] = i as i8;
        i += 1;
    }
    t
};

/// The bitwise encoder: seven masked-popcount parities plus the overall
/// bit. It builds [`ENCODE_TABLE`] at compile time and is the tests'
/// reference; nothing calls it at run time.
const fn encode_bitwise(data: u64) -> u8 {
    let mut check = 0u8;
    let mut p = 0;
    while p < 7 {
        check |= (((data & PARITY_MASKS[p]).count_ones() & 1) as u8) << p;
        p += 1;
    }
    let overall = ((data.count_ones() + check.count_ones()) & 1) as u8;
    check | (overall << 7)
}

/// Check bits of each byte value at each byte lane of a word:
/// `ENCODE_TABLE[b][v]` encodes `v << 8b`. The code is linear over GF(2)
/// — every check bit, the overall one included, is an XOR of data bits —
/// so a word's check byte is the XOR of its eight lanes' entries.
static ENCODE_TABLE: [[u8; 256]; 8] = {
    let mut t = [[0u8; 256]; 8];
    let mut lane = 0;
    while lane < 8 {
        let mut v = 0;
        while v < 256 {
            t[lane][v] = encode_bitwise((v as u64) << (8 * lane));
            v += 1;
        }
        lane += 1;
    }
    t
};

/// Compute the eight check bits for a data word: bits 0..7 are the
/// positional parities, bit 7 makes the parity of the whole 72-bit
/// codeword even. Eight table lookups XORed together.
pub fn encode(data: u64) -> u8 {
    // Written out: an iterator fold over the lanes priced ~15 % slower in
    // the `link_protocol` bench's `ecc_codec_ns`.
    let b = data.to_le_bytes();
    ENCODE_TABLE[0][usize::from(b[0])]
        ^ ENCODE_TABLE[1][usize::from(b[1])]
        ^ ENCODE_TABLE[2][usize::from(b[2])]
        ^ ENCODE_TABLE[3][usize::from(b[3])]
        ^ ENCODE_TABLE[4][usize::from(b[4])]
        ^ ENCODE_TABLE[5][usize::from(b[5])]
        ^ ENCODE_TABLE[6][usize::from(b[6])]
        ^ ENCODE_TABLE[7][usize::from(b[7])]
}

/// What the decoder concluded about a stored `(data, check)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccVerdict {
    /// The codeword is intact.
    Clean,
    /// One data bit had flipped; the payload is the corrected word.
    CorrectedData(u64),
    /// One check bit had flipped (the data is intact); the payload is the
    /// corrected check byte.
    CorrectedCheck(u8),
    /// Two or more bits flipped: detected, uncorrectable — a machine
    /// check.
    DoubleError,
}

/// Decode a stored `(data, check)` pair. `encode(data) ^ check` is the
/// difference between the recomputed and the stored check bits: its low
/// seven bits are the syndrome, and its parity is the parity of the whole
/// stored codeword, because a fresh check byte has the parity of its data.
pub fn decode(data: u64, check: u8) -> EccVerdict {
    let x = encode(data) ^ check;
    if x == 0 {
        return EccVerdict::Clean;
    }
    verdict(data, check, usize::from(x & 0x7F), x.count_ones() & 1)
}

/// The decoder's verdict from a syndrome and the overall parity of the
/// stored codeword.
fn verdict(data: u64, check: u8, syndrome: usize, overall: u32) -> EccVerdict {
    match (syndrome, overall) {
        (0, 0) => EccVerdict::Clean,
        // Overall parity disagrees alone: the overall bit itself flipped.
        (0, 1) => EccVerdict::CorrectedCheck(check ^ 0x80),
        (s, 1) if s < 72 => {
            if s & (s - 1) == 0 {
                // Power-of-two position: a positional parity bit flipped.
                EccVerdict::CorrectedCheck(check ^ (1 << s.trailing_zeros()))
            } else {
                EccVerdict::CorrectedData(data ^ (1u64 << POS_DATA[s]))
            }
        }
        // Syndrome outside the codeword (≥ 3 flips) or a nonzero syndrome
        // with even overall parity (2 flips): detected, uncorrectable.
        _ => EccVerdict::DoubleError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 72-bit codeword as (data, check) with codeword bit `pos`
    /// flipped.
    fn flip(data: u64, check: u8, pos: usize) -> (u64, u8) {
        if pos == 0 {
            (data, check ^ 0x80)
        } else if pos & (pos - 1) == 0 {
            (data, check ^ (1 << pos.trailing_zeros()))
        } else {
            (data ^ (1u64 << POS_DATA[pos]), check)
        }
    }

    /// The bitwise decoder the table-driven one replaced: seven
    /// recomputed positional parities against the stored ones, and the
    /// overall parity of the stored codeword.
    fn decode_reference(data: u64, check: u8) -> EccVerdict {
        let mut syndrome = 0usize;
        for (p, m) in PARITY_MASKS.iter().enumerate() {
            let recomputed = ((data & m).count_ones() & 1) as u8;
            let stored = (check >> p) & 1;
            syndrome |= usize::from(recomputed ^ stored) << p;
        }
        let overall = (data.count_ones() + u32::from(check).count_ones()) & 1;
        verdict(data, check, syndrome, overall)
    }

    fn words() -> Vec<u64> {
        vec![
            0,
            u64::MAX,
            0xDEAD_BEEF_CAFE_F00D,
            1,
            1 << 63,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
        ]
    }

    #[test]
    fn check_bytes_are_pinned() {
        // Golden check bytes: a table and a decoder that were wrong the
        // same way would still agree with each other, so pin the code.
        let golden = [
            (0, 0x00),
            (1, 0x83),
            (1 << 63, 0xC7),
            (u64::MAX, 0xFF),
            (0xDEAD_BEEF_CAFE_F00D, 0xB8),
            (0x5555_5555_5555_5555, 0x55),
            (0xAAAA_AAAA_AAAA_AAAA, 0xAA),
            (0x0123_4567_89AB_CDEF, 0x9C),
        ];
        for (w, check) in golden {
            assert_eq!(encode(w), check, "word {w:#x}");
            assert_eq!(encode_bitwise(w), check, "bitwise, word {w:#x}");
        }
    }

    #[test]
    fn zero_word_is_a_zero_codeword() {
        assert_eq!(encode(0), 0);
        assert_eq!(decode(0, 0), EccVerdict::Clean);
    }

    #[test]
    fn clean_words_decode_clean() {
        for w in words() {
            assert_eq!(decode(w, encode(w)), EccVerdict::Clean, "word {w:#x}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_corrected() {
        // Exhaustive over all 72 codeword positions for each sample word.
        for w in words() {
            let check = encode(w);
            for pos in 0..72 {
                let (d, c) = flip(w, check, pos);
                match decode(d, c) {
                    EccVerdict::Clean => panic!("flip at {pos} of {w:#x} went unseen"),
                    EccVerdict::CorrectedData(fixed) => {
                        assert_eq!(fixed, w, "mis-correction at {pos} of {w:#x}")
                    }
                    EccVerdict::CorrectedCheck(fixed) => {
                        assert_eq!(fixed, check, "check mis-correction at {pos}");
                        assert_eq!(d, w, "data must be intact at parity position {pos}");
                    }
                    EccVerdict::DoubleError => {
                        panic!("single flip at {pos} of {w:#x} declared uncorrectable")
                    }
                }
            }
        }
    }

    #[test]
    fn every_double_bit_flip_is_detected() {
        // Exhaustive over all C(72,2) position pairs for each sample word:
        // never Clean, never a correction that fabricates wrong data.
        for w in words() {
            let check = encode(w);
            for a in 0..72 {
                for b in (a + 1)..72 {
                    let (d1, c1) = flip(w, check, a);
                    let (d, c) = flip(d1, c1, b);
                    assert_eq!(
                        decode(d, c),
                        EccVerdict::DoubleError,
                        "double flip ({a},{b}) of {w:#x} not flagged"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn table_encoder_matches_the_bitwise_one(w in any::<u64>()) {
            prop_assert_eq!(encode(w), encode_bitwise(w));
        }

        #[test]
        fn every_single_flip_decodes_as_the_reference_does(w in any::<u64>()) {
            let check = encode_bitwise(w);
            for pos in 0..72 {
                let (d, c) = flip(w, check, pos);
                prop_assert_eq!(decode(d, c), decode_reference(d, c), "flip at {}", pos);
            }
        }

        #[test]
        fn double_flips_decode_as_the_reference_does(
            w in any::<u64>(),
            a in 0usize..72,
            b in 0usize..72,
        ) {
            let check = encode_bitwise(w);
            let (d1, c1) = flip(w, check, a);
            let (d, c) = flip(d1, c1, b);
            prop_assert_eq!(decode(d, c), decode_reference(d, c));
        }

        #[test]
        fn random_words_roundtrip_and_correct(w in any::<u64>(), pos in 0usize..72) {
            let check = encode(w);
            prop_assert_eq!(decode(w, check), EccVerdict::Clean);
            let (d, c) = flip(w, check, pos);
            match decode(d, c) {
                EccVerdict::CorrectedData(fixed) => prop_assert_eq!(fixed, w),
                EccVerdict::CorrectedCheck(fixed) => prop_assert_eq!(fixed, check),
                other => prop_assert!(false, "unexpected verdict {:?}", other),
            }
        }

        #[test]
        fn random_double_flips_raise_machine_checks(
            w in any::<u64>(),
            a in 0usize..72,
            b in 0usize..72,
        ) {
            prop_assume!(a != b);
            let check = encode(w);
            let (d1, c1) = flip(w, check, a);
            let (d, c) = flip(d1, c1, b);
            prop_assert_eq!(decode(d, c), EccVerdict::DoubleError);
        }
    }
}
