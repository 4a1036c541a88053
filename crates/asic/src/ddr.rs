//! The external DDR SDRAM controller: its bandwidth and DIMM flavours.
//!
//! §2.1: "Also attached to the PLB bus is a controller for external DDR
//! SDRAM, with a bandwidth of 2.6 GBytes/second. Up to 2 GBytes of memory
//! per node can be used." At the 500 MHz design clock that is 5.2
//! bytes/cycle — three times slower than the EDRAM port, which is why
//! efficiency falls to ~30% of peak once the working set spills out of
//! EDRAM (§4).
//!
//! §4 also records that moving from buffered to cheaper *unbuffered* DIMMs
//! initially limited reliable operation to 360 MHz until the memory
//! controller was retuned for 420 MHz; we model the DIMM flavour as a
//! constraint on the node clock.

use crate::clock::Clock;

/// Peak DDR bandwidth in bytes per second (§2.1).
pub const DDR_BYTES_PER_SEC: f64 = 2.6e9;

/// The DIMM flavour installed on a daughterboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimmKind {
    /// Registered/buffered DIMMs — used for the 128-node benchmarks at
    /// 450 MHz.
    Buffered,
    /// Unbuffered DIMMs — substantially cheaper; reliable at 360 MHz, and at
    /// 420 MHz after memory-controller tuning (§4).
    Unbuffered {
        /// Whether the ASIC memory controller has been retuned for the
        /// unbuffered parts.
        tuned: bool,
    },
}

impl DimmKind {
    /// Maximum reliable processor clock with this DIMM flavour.
    pub fn max_clock(self) -> Clock {
        match self {
            DimmKind::Buffered => Clock::BENCH_450,
            DimmKind::Unbuffered { tuned: false } => Clock::SAFE_360,
            DimmKind::Unbuffered { tuned: true } => Clock::TUNED_420,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimm_flavours_limit_clock() {
        assert_eq!(DimmKind::Buffered.max_clock(), Clock::BENCH_450);
        assert_eq!(
            DimmKind::Unbuffered { tuned: false }.max_clock(),
            Clock::SAFE_360
        );
        assert_eq!(
            DimmKind::Unbuffered { tuned: true }.max_clock(),
            Clock::TUNED_420
        );
    }
}
