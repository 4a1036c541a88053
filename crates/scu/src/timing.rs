//! Link timing constants and closed-form transfer times.
//!
//! The physical link is bit-serial at the processor clock (§2.2). A framed
//! normal word is 72 bits (8-bit header + 64-bit payload), so at the 500 MHz
//! design clock:
//!
//! * one direction moves `64/72 × 500 Mbit/s ≈ 55.6 MB/s` of payload;
//! * all 24 channels together move `24 × 55.6 ≈ 1.33 GB/s` — the paper's
//!   "total bandwidth is 1.3 GBytes/second at 500 MHz";
//! * the 23 words after the first of a 24-word transfer take
//!   `23 × 72 × 2 ns = 3.3 µs` — the paper's figure exactly;
//! * the fixed memory-to-memory path (send DMA fetch, SCU pipeline,
//!   serialization of the first word, receiver synchronization, receive DMA
//!   store) totals 300 cycles = **600 ns** at 500 MHz.

use qcdoc_asic::clock::{Clock, Cycles};

/// Wire bits of a framed normal data word: 8-bit header + 64-bit payload
/// (§2.2).
pub const WORD_WIRE_BITS: u64 = 72;

/// Fixed per-transfer pipeline cycles, excluding first-word serialization:
/// send DMA fetch + SCU injection (75), receiver bit synchronization and
/// SCU pipeline (78), receive DMA store (75). The split is a model choice;
/// the sum plus the first word's 72 bits is the 300 cycles of §2.2's
/// 600 ns at 500 MHz.
const FIXED_PATH_CYCLES: u64 = 75 + 78 + 75;

/// Memory-to-memory time for a transfer of `words` 64-bit words: the first
/// word pays the full fixed path; later words stream behind it at the
/// serialization rate.
pub fn transfer_cycles(words: u64) -> Cycles {
    if words == 0 {
        return Cycles::ZERO;
    }
    Cycles(FIXED_PATH_CYCLES + words * WORD_WIRE_BITS)
}

/// Transfer time in nanoseconds at a given clock.
pub fn transfer_ns(words: u64, clock: Clock) -> f64 {
    clock.cycles_to_ns(transfer_cycles(words))
}

/// Payload bandwidth of one uni-directional channel, bytes/second.
pub fn channel_bandwidth(clock: Clock) -> f64 {
    8.0 * clock.hz() as f64 / WORD_WIRE_BITS as f64
}

/// Aggregate payload bandwidth of all 24 channels, bytes/second.
pub fn node_bandwidth(clock: Clock) -> f64 {
    24.0 * channel_bandwidth(clock)
}

/// Start-up (software + NIC) latency of the commodity-cluster baseline,
/// the paper's explicit comparison: "times of 5-10 µs just to begin a
/// transfer when using standard networks like Ethernet" (§2.2). Mid-band.
pub const ETHERNET_STARTUP_NS: f64 = 7_500.0;

/// Payload bandwidth of the baseline network, bytes/second: the wire rate
/// of gigabit Ethernet, the era's "standard network" of §2.2.
pub const ETHERNET_BYTES_PER_SEC: f64 = 125.0e6;

/// Baseline-network transfer time in nanoseconds for `bytes` of payload.
pub fn ethernet_transfer_ns(bytes: u64) -> f64 {
    ETHERNET_STARTUP_NS + bytes as f64 / ETHERNET_BYTES_PER_SEC * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_word_is_600ns_at_design_clock() {
        let ns = transfer_ns(1, Clock::DESIGN);
        assert!((ns - 600.0).abs() < 1e-9, "first word latency {ns} ns");
    }

    #[test]
    fn twenty_four_word_transfer_matches_paper() {
        // §2.2: "for transfers as small as 24, 64 bit words … the latency of
        // 600 ns for the first word is still small compared to the 3.3 µs
        // time for the remaining 23 words."
        let tail = transfer_ns(24, Clock::DESIGN) - transfer_ns(1, Clock::DESIGN);
        assert!((tail - 3_312.0).abs() < 1.0, "23-word tail {tail} ns");
    }

    #[test]
    fn aggregate_bandwidth_is_1_3_gbytes() {
        let bw = node_bandwidth(Clock::DESIGN);
        assert!((bw - 1.333e9).abs() < 0.01e9, "aggregate {bw} B/s");
    }

    #[test]
    fn qcdoc_beats_ethernet_on_small_transfers() {
        // The crossover the mesh was designed for: a 24-word (192-byte)
        // message takes ~3.9 us on QCDOC but the Ethernet baseline pays
        // 7.5 us before the first byte moves.
        let qcdoc = transfer_ns(24, Clock::DESIGN);
        assert!(qcdoc < ethernet_transfer_ns(192));
        assert!(qcdoc < ETHERNET_STARTUP_NS);
    }

    #[test]
    fn ethernet_wins_on_huge_transfers() {
        // Per-channel QCDOC bandwidth is ~55 MB/s; gigabit Ethernet is
        // 125 MB/s, so single-link bulk transfers eventually favour the
        // commodity network — latency, not bandwidth, is QCDOC's edge.
        let words = 1_000_000u64;
        assert!(transfer_ns(words, Clock::DESIGN) > ethernet_transfer_ns(words * 8));
    }

    #[test]
    fn zero_word_transfer_is_free() {
        assert_eq!(transfer_cycles(0), Cycles::ZERO);
    }

    #[test]
    fn slower_clock_stretches_latency() {
        let at_360 = transfer_ns(1, Clock::SAFE_360);
        let at_500 = transfer_ns(1, Clock::DESIGN);
        assert!((at_360 / at_500 - 500.0 / 360.0).abs() < 1e-9);
    }
}
