//! Clock domains and cycle accounting.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A processor clock frequency.
///
/// The ASIC's design target is 500 MHz; the paper reports reliable operation
/// at 450 MHz (128-node benchmarks, buffered DIMMs), 360 MHz and 420 MHz
/// (512-node machine with cheaper unbuffered memory, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    mhz: u32,
}

impl Clock {
    /// The 500 MHz design target.
    pub const DESIGN: Clock = Clock { mhz: 500 };
    /// 450 MHz — the 128-node benchmark clock.
    pub const BENCH_450: Clock = Clock { mhz: 450 };
    /// 420 MHz — tuned unbuffered-memory operation.
    pub const TUNED_420: Clock = Clock { mhz: 420 };
    /// 360 MHz — first reliable unbuffered-memory operation.
    pub const SAFE_360: Clock = Clock { mhz: 360 };

    /// Frequency in MHz.
    #[inline]
    pub const fn mhz(self) -> u32 {
        self.mhz
    }

    /// Frequency in Hz.
    #[inline]
    pub const fn hz(self) -> u64 {
        self.mhz as u64 * 1_000_000
    }

    /// Cycle period in nanoseconds.
    #[inline]
    pub fn period_ns(self) -> f64 {
        1_000.0 / self.mhz as f64
    }

    /// Convert a cycle count to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(self, c: Cycles) -> f64 {
        c.0 as f64 * self.period_ns()
    }

    /// Peak floating-point rate: one multiply and one add per cycle.
    #[inline]
    pub fn peak_flops(self) -> f64 {
        2.0 * self.hz() as f64
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.mhz)
    }
}

/// A count of processor cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw count.
    #[inline]
    pub fn count(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_clock_peak_is_one_gflops() {
        assert_eq!(Clock::DESIGN.peak_flops(), 1.0e9);
    }

    #[test]
    fn period_of_500mhz_is_2ns() {
        assert!((Clock::DESIGN.period_ns() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycles(5) + Cycles(3), Cycles(8));
        assert_eq!(Cycles(5) - Cycles(3), Cycles(2));
        assert_eq!(Cycles(5) * 3, Cycles(15));
    }

    #[test]
    fn operating_points_match_paper() {
        for (clk, mhz) in [
            (Clock::DESIGN, 500),
            (Clock::BENCH_450, 450),
            (Clock::TUNED_420, 420),
            (Clock::SAFE_360, 360),
        ] {
            assert_eq!(clk.mhz(), mhz);
        }
    }
}
