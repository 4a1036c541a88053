//! The external DDR SDRAM controller timing model.
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

use crate::clock::{Clock, Cycles};

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

/// Configuration of the DDR controller timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrConfig {
    /// Peak bandwidth, bytes/second.
    pub bytes_per_sec: f64,
    /// First-word access latency in nanoseconds (CAS + controller + PLB).
    pub access_latency_ns: f64,
    /// Installed DIMM flavour.
    pub dimm: DimmKind,
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig {
            bytes_per_sec: DDR_BYTES_PER_SEC,
            access_latency_ns: 60.0,
            dimm: DimmKind::Buffered,
        }
    }
}

/// The DDR controller timing model.
#[derive(Debug, Clone)]
pub struct DdrController {
    config: DdrConfig,
    clock: Clock,
    bursts: u64,
}

impl DdrController {
    /// A controller at the given node clock.
    pub fn new(config: DdrConfig, clock: Clock) -> DdrController {
        assert!(
            clock.mhz() <= config.dimm.max_clock().mhz(),
            "clock {clock} exceeds the reliable limit {} for this DIMM flavour",
            config.dimm.max_clock()
        );
        DdrController {
            config,
            clock,
            bursts: 0,
        }
    }

    /// Peak bytes transferred per processor cycle.
    fn bytes_per_cycle(&self) -> f64 {
        self.config.bytes_per_sec / self.clock.hz() as f64
    }

    /// Number of burst accesses issued so far.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    /// Cycles to move a burst of `bytes` (first-word latency + streaming).
    pub fn access(&mut self, bytes: u64) -> Cycles {
        self.bursts += 1;
        let latency = self.clock.ns_to_cycles(self.config.access_latency_ns);
        let stream = Cycles((bytes as f64 / self.bytes_per_cycle()).ceil() as u64);
        latency + stream
    }

    /// Cycles for a long streaming transfer where the first-word latency is
    /// fully amortised — the closed-form rate used by the analytic kernel
    /// model.
    pub fn streaming_cycles(&self, bytes: u64) -> Cycles {
        Cycles((bytes as f64 / self.bytes_per_cycle()).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_matches_paper() {
        let c = DdrController::new(DdrConfig::default(), Clock::BENCH_450);
        // 2.6 GB/s at 450 MHz.
        assert!((c.bytes_per_cycle() - 2.6e9 / 450.0e6).abs() < 1e-9);
    }

    #[test]
    fn ddr_is_three_times_slower_than_edram_at_design_clock() {
        let cfg = DdrConfig {
            dimm: DimmKind::Buffered,
            ..Default::default()
        };
        // Evaluate the ratio at 450 (buffered limit); the paper's 3x figure
        // is quoted at the 500 MHz design point, same ratio of rates.
        let ddr = DdrController::new(cfg, Clock::BENCH_450);
        let edram_rate = crate::edram::PORT_BYTES_PER_CYCLE as f64;
        let ratio = edram_rate / ddr.bytes_per_cycle();
        assert!(
            ratio > 2.5 && ratio < 3.5,
            "EDRAM/DDR ratio {ratio} out of band"
        );
    }

    #[test]
    fn burst_includes_latency_streaming_amortises() {
        let mut c = DdrController::new(DdrConfig::default(), Clock::BENCH_450);
        let small = c.access(8);
        let big = c.access(64 * 1024);
        // Per-byte cost of the big burst must be far lower.
        let small_per_byte = small.count() as f64 / 8.0;
        let big_per_byte = big.count() as f64 / 65536.0;
        assert!(small_per_byte > 5.0 * big_per_byte);
        assert_eq!(c.bursts(), 2);
    }

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

    #[test]
    #[should_panic(expected = "exceeds the reliable limit")]
    fn untuned_unbuffered_rejects_420() {
        let cfg = DdrConfig {
            dimm: DimmKind::Unbuffered { tuned: false },
            ..Default::default()
        };
        let _ = DdrController::new(cfg, Clock::TUNED_420);
    }

    #[test]
    fn tuned_unbuffered_accepts_420() {
        let cfg = DdrConfig {
            dimm: DimmKind::Unbuffered { tuned: true },
            ..Default::default()
        };
        let c = DdrController::new(cfg, Clock::TUNED_420);
        assert!(c.bytes_per_cycle() > 0.0);
    }
}
