//! The prefetching EDRAM controller's timing model.
//!
//! §2.1: the 4 MB on-chip EDRAM supports 1024-bit (128-byte) reads and
//! writes; the controller assembles these wide words and feeds the PPC 440
//! data-cache port with 128-bit words *at the full processor speed* —
//! 16 bytes/cycle, i.e. 8 GB/s at 500 MHz. To hide EDRAM page misses, the
//! controller maintains **two prefetching streams**, each following a group
//! of contiguous addresses, so `a(x) × b(x)` style kernels stream both
//! operands at full bandwidth. Accesses that fall outside the two active
//! streams pay the page-miss latency and reassign the least-recently-used
//! stream.

use crate::clock::Cycles;

/// Width of the core-side EDRAM port in bytes per cycle (128 bits).
pub const PORT_BYTES_PER_CYCLE: u64 = 16;

/// Concurrent prefetch streams (the ASIC has 2).
const STREAMS: usize = 2;

/// Cycles lost on an access that misses all active streams.
const PAGE_MISS_CYCLES: u64 = 11;

/// Timing state of the prefetching EDRAM controller.
#[derive(Debug, Clone)]
pub struct EdramController {
    /// Next expected address of each stream, with an LRU stamp.
    streams: [(u64, u64); STREAMS],
    lru_clock: u64,
    /// Accumulated statistics.
    page_misses: u64,
}

impl EdramController {
    /// A controller with every stream idle.
    pub fn new() -> EdramController {
        EdramController {
            streams: [(u64::MAX, 0); STREAMS],
            lru_clock: 0,
            page_misses: 0,
        }
    }

    /// Accesses that paid the page-miss penalty.
    pub fn page_misses(&self) -> u64 {
        self.page_misses
    }

    /// Cost of transferring `bytes` starting at `addr`, updating stream
    /// state. Sequential continuation of an active stream runs at the full
    /// 16 bytes/cycle port rate; anything else pays a page miss first.
    pub fn access(&mut self, addr: u64, bytes: u64) -> Cycles {
        let transfer = Cycles(bytes.div_ceil(PORT_BYTES_PER_CYCLE));
        self.lru_clock += 1;
        if let Some(slot) = self.streams.iter_mut().find(|(next, _)| *next == addr) {
            slot.0 = addr + bytes;
            slot.1 = self.lru_clock;
            return transfer;
        }
        // Miss: reassign the LRU stream to this new address run.
        self.page_misses += 1;
        let lru = self
            .streams
            .iter_mut()
            .min_by_key(|(_, stamp)| *stamp)
            .expect("at least one stream");
        lru.0 = addr + bytes;
        lru.1 = self.lru_clock;
        // A miss also re-opens the row: charge one extra row's worth of
        // occupancy on top of the fixed penalty for short transfers.
        Cycles(PAGE_MISS_CYCLES) + transfer
    }
}

impl Default for EdramController {
    fn default() -> Self {
        EdramController::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_streams_run_at_full_rate() {
        // Interleave two sequential streams (a(x) * b(x) from §2.1): after
        // the first touch of each, every access is a stream hit.
        let mut c = EdramController::new();
        let mut a = 0u64;
        let mut b = 0x10_0000u64;
        let mut total = Cycles::ZERO;
        for _ in 0..100 {
            total += c.access(a, 128);
            total += c.access(b, 128);
            a += 128;
            b += 128;
        }
        assert_eq!(c.page_misses(), 2, "only the initial touches miss");
        // 200 x 128 bytes at 16 B/cycle = 1600 cycles, plus 2 misses.
        assert_eq!(total, Cycles(1600 + 2 * 11));
    }

    #[test]
    fn three_streams_thrash() {
        let mut c = EdramController::new();
        let mut addrs = [0u64, 0x10_0000, 0x20_0000];
        for _ in 0..50 {
            for a in &mut addrs {
                c.access(*a, 128);
                *a += 128;
            }
        }
        // With 2 stream slots and 3 round-robin streams, LRU always evicts
        // the stream needed next: every access misses.
        assert_eq!(c.page_misses(), 150);
    }

    #[test]
    fn port_rate_matches_paper_8gbs() {
        // 16 bytes/cycle x 500 MHz = 8 GB/s (§2.1).
        let bytes_per_sec = PORT_BYTES_PER_CYCLE as f64 * crate::Clock::DESIGN.hz() as f64;
        assert_eq!(bytes_per_sec, 8.0e9);
    }
}
