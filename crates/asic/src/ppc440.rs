//! The PPC 440 core cost model.
//!
//! §2.1: "The processor in the QCDOC ASIC is an IBM PPC 440, a 32 bit
//! integer unit compliant with IBM's Book-E specifications, and it has a 64
//! bit, IEEE floating point unit attached. The floating point unit is
//! capable of one multiply and one add per cycle, giving a peak speed of 1
//! Gflops for a 500 MHz clock speed."
//!
//! We model the core at the issue level: the FPU retires one floating-point
//! instruction per cycle (an FMA counts as one instruction but two flops),
//! and non-FPU work in a hand-tuned kernel (address generation, loop
//! control, pipeline bubbles at loop boundaries) is folded into a
//! calibratable *issue overhead* per FPU instruction. The paper's hand-tuned
//! assembly kernels reach 40–46.5% of peak *including* memory and network
//! time, which bounds the pure-issue overhead to a modest factor.

use crate::clock::{Clock, Cycles};
use crate::ledger::KernelLedger;

/// Cost-model parameters for the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Extra issue cycles per FPU instruction for integer/branch overhead in
    /// tuned assembly kernels (0.0 = perfect dual issue).
    pub issue_overhead: f64,
    /// Pipeline refill cost charged per loop of a kernel (branch mispredict
    /// + FPU pipeline drain at iteration boundaries).
    pub loop_overhead_cycles: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        // Calibrated so that the paper's tuned Dirac kernels are
        // memory-bound rather than issue-bound at 4^4 local volume: a small
        // per-instruction overhead representing unpaired loads and loop code
        // that cannot dual-issue with the FPU.
        CoreConfig {
            issue_overhead: 0.18,
            loop_overhead_cycles: 20,
        }
    }
}

/// The PPC 440 core model.
#[derive(Debug, Clone, Copy)]
pub struct Ppc440 {
    config: CoreConfig,
    clock: Clock,
}

impl Ppc440 {
    /// A core at the given clock.
    pub fn new(config: CoreConfig, clock: Clock) -> Ppc440 {
        Ppc440 { config, clock }
    }

    /// The core clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Peak floating-point rate at this clock (1 Gflops at 500 MHz).
    pub fn peak_flops(&self) -> f64 {
        self.clock.peak_flops()
    }

    /// Issue cycles for the floating-point work in a ledger.
    pub fn fpu_cycles(&self, ledger: &KernelLedger) -> Cycles {
        let ops = ledger.fpu_ops() as f64;
        Cycles((ops * (1.0 + self.config.issue_overhead)).ceil() as u64)
    }

    /// Issue cycles for a kernel executed as `loops` hardware loops.
    pub fn kernel_cycles(&self, ledger: &KernelLedger, loops: u64) -> Cycles {
        self.fpu_cycles(ledger) + Cycles(self.config.loop_overhead_cycles * loops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Ppc440 {
        Ppc440::new(CoreConfig::default(), Clock::DESIGN)
    }

    #[test]
    fn peak_is_one_gflops_at_design_clock() {
        assert_eq!(core().peak_flops(), 1.0e9);
    }

    #[test]
    fn pure_fma_stream_beats_mixed_ops() {
        // The same flop count as FMAs issues in half the cycles of
        // adds+muls.
        let fmas = KernelLedger {
            fmadds: 1000,
            ..Default::default()
        };
        let mixed = KernelLedger {
            fadds: 1000,
            fmuls: 1000,
            ..Default::default()
        };
        assert_eq!(fmas.flops(), mixed.flops());
        let c = core();
        assert!(c.fpu_cycles(&fmas) < c.fpu_cycles(&mixed));
    }

    #[test]
    fn zero_overhead_core_reaches_peak_on_fmas() {
        let ideal = Ppc440::new(
            CoreConfig {
                issue_overhead: 0.0,
                loop_overhead_cycles: 0,
            },
            Clock::DESIGN,
        );
        let l = KernelLedger {
            fmadds: 1_000,
            ..Default::default()
        };
        assert_eq!(ideal.fpu_cycles(&l), Cycles(1_000));
    }

    #[test]
    fn loop_overhead_charged_per_loop() {
        let c = core();
        let l = KernelLedger {
            fmadds: 100,
            ..Default::default()
        };
        let one = c.kernel_cycles(&l, 1);
        let ten = c.kernel_cycles(&l, 10);
        assert_eq!(
            ten - one,
            Cycles(9 * CoreConfig::default().loop_overhead_cycles)
        );
    }
}
