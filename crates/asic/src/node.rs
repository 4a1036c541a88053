//! The assembled node: configuration and per-kernel local timing.
//!
//! A node is the PPC 440 core model plus the EDRAM and DDR controllers. The
//! timing of one kernel invocation is the overlap-aware combination of FPU
//! issue time and memory streaming time; network time is added at the
//! machine level (`qcdoc-core`) because it depends on the neighbours too.

use crate::clock::{Clock, Cycles};
use crate::ddr::{DdrConfig, DdrController};
use crate::edram::{EdramConfig, EdramController};
use crate::ledger::KernelLedger;
use crate::ppc440::{CoreConfig, Ppc440};

/// Full configuration of one processing node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Processor (and link) clock.
    pub clock: Clock,
    /// Core cost-model parameters.
    pub core: CoreConfig,
    /// EDRAM controller parameters.
    pub edram: EdramConfig,
    /// DDR controller parameters.
    pub ddr: DdrConfig,
    /// Installed DDR bytes.
    pub ddr_bytes: u64,
    /// Fraction of memory time the prefetching controller hides under FPU
    /// time (0 = fully serial, 1 = perfect overlap). The EDRAM prefetcher
    /// was designed precisely to overlap the stream fetches with compute.
    pub mem_overlap: f64,
}

impl NodeConfig {
    /// The paper's 128-node benchmark configuration: 450 MHz, buffered
    /// DIMMs, default calibration.
    pub fn bench_450() -> NodeConfig {
        NodeConfig {
            clock: Clock::BENCH_450,
            core: CoreConfig::default(),
            edram: EdramConfig::default(),
            ddr: DdrConfig::default(),
            ddr_bytes: 128 * 1024 * 1024,
            mem_overlap: 0.75,
        }
    }

    /// Whether a working set of `bytes` fits in the 4 MB EDRAM.
    pub fn fits_edram(&self, bytes: u64) -> bool {
        bytes <= crate::memory::EDRAM_SIZE
    }
}

/// The local-time breakdown of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTiming {
    /// FPU issue cycles.
    pub fpu: Cycles,
    /// EDRAM streaming cycles.
    pub edram: Cycles,
    /// DDR streaming cycles.
    pub ddr: Cycles,
    /// Combined local cycles after overlap.
    pub local: Cycles,
}

/// The assembled node timing model.
#[derive(Debug, Clone)]
pub struct Node {
    config: NodeConfig,
    core: Ppc440,
    ddr: DdrController,
}

impl Node {
    /// Build a node from its configuration.
    pub fn new(config: NodeConfig) -> Node {
        Node {
            core: Ppc440::new(config.core, config.clock),
            ddr: DdrController::new(config.ddr, config.clock),
            config,
        }
    }

    /// The node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The core model.
    pub fn core(&self) -> &Ppc440 {
        &self.core
    }

    /// Peak flops at this node's clock.
    pub fn peak_flops(&self) -> f64 {
        self.core.peak_flops()
    }

    /// Local timing of one kernel invocation described by `ledger`,
    /// executed as `loops` inner loops.
    ///
    /// FPU issue and memory streaming overlap by `mem_overlap`: the
    /// prefetching EDRAM controller fetches ahead while the FPU consumes
    /// the previous beat, so the combined time approaches
    /// `max(fpu, mem)` for perfectly software-pipelined kernels and
    /// `fpu + mem` with no overlap.
    pub fn kernel_timing(&self, ledger: &KernelLedger, loops: u64) -> NodeTiming {
        let fpu = self.core.kernel_cycles(ledger, loops);
        let edram = EdramController::streaming_cycles(ledger.edram_bytes());
        let ddr = self.ddr.streaming_cycles(ledger.ddr_bytes());
        let mem = edram + ddr;
        let serial = fpu + mem;
        let overlapped = fpu.max(mem);
        let w = self.config.mem_overlap.clamp(0.0, 1.0);
        let local = Cycles(
            (serial.count() as f64 * (1.0 - w) + overlapped.count() as f64 * w).round() as u64,
        );
        NodeTiming {
            fpu,
            edram,
            ddr,
            local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeConfig::bench_450())
    }

    /// A kernel shaped like the Wilson dslash inner loop: high FMA density,
    /// streaming both operands from EDRAM.
    fn dslash_like(edram_kb: u64) -> KernelLedger {
        KernelLedger {
            fmadds: 10_000,
            fadds: 1_000,
            edram_read_bytes: edram_kb * 1024,
            edram_write_bytes: edram_kb * 256,
            ..Default::default()
        }
    }

    #[test]
    fn compute_bound_kernel_tracks_fpu() {
        let l = KernelLedger {
            fmadds: 100_000,
            edram_read_bytes: 1_000,
            ..Default::default()
        };
        let t = node().kernel_timing(&l, 1);
        assert!(t.local >= t.fpu);
        assert!(t.local.count() < t.fpu.count() + t.edram.count() + t.ddr.count());
    }

    #[test]
    fn ddr_spill_slows_kernel_down() {
        // Same work, operands in EDRAM vs in DDR.
        let in_edram = dslash_like(64);
        let mut in_ddr = in_edram;
        in_ddr.ddr_read_bytes = in_ddr.edram_read_bytes;
        in_ddr.ddr_write_bytes = in_ddr.edram_write_bytes;
        in_ddr.edram_read_bytes = 0;
        in_ddr.edram_write_bytes = 0;
        let n = node();
        let t_edram = n.kernel_timing(&in_edram, 1).local;
        let t_ddr = n.kernel_timing(&in_ddr, 1).local;
        assert!(
            t_ddr > t_edram,
            "DDR-resident kernel must be slower: {t_ddr:?} vs {t_edram:?}"
        );
    }

    #[test]
    fn full_overlap_is_max_no_overlap_is_sum() {
        let l = dslash_like(64);
        let mut cfg = NodeConfig::bench_450();
        cfg.mem_overlap = 1.0;
        let t_max = Node::new(cfg).kernel_timing(&l, 1);
        cfg.mem_overlap = 0.0;
        let t_sum = Node::new(cfg).kernel_timing(&l, 1);
        assert_eq!(t_max.local, t_max.fpu.max(t_max.edram + t_max.ddr));
        assert_eq!(t_sum.local, t_sum.fpu + t_sum.edram + t_sum.ddr);
    }

    #[test]
    fn clock_scaling_preserves_cycle_counts() {
        // Cycles are clock-independent for EDRAM-resident kernels (the
        // EDRAM port scales with the core clock); only DDR cycles change.
        let l = dslash_like(64);
        let fast = Node::new(NodeConfig::bench_450());
        let slow = Node::new(NodeConfig {
            clock: Clock::SAFE_360,
            ..NodeConfig::bench_450()
        });
        let tf = fast.kernel_timing(&l, 1);
        let ts = slow.kernel_timing(&l, 1);
        assert_eq!(tf.fpu, ts.fpu);
        assert_eq!(tf.edram, ts.edram);
    }

    #[test]
    fn fits_edram_threshold() {
        let cfg = NodeConfig::bench_450();
        assert!(cfg.fits_edram(4 * 1024 * 1024));
        assert!(!cfg.fits_edram(4 * 1024 * 1024 + 1));
    }
}
