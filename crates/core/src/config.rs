//! Machine configuration.

use qcdoc_asic::clock::Clock;
use qcdoc_asic::node::NodeConfig;
use qcdoc_geometry::TorusShape;
use qcdoc_scu::global::GlobalTimingConfig;
use qcdoc_scu::timing::LinkTimingConfig;

/// Everything needed to instantiate a QCDOC machine (physical shape plus
/// per-node and per-link parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// The physical 6-D torus shape (extent-1 axes allowed).
    pub shape: TorusShape,
    /// Node configuration (clock, memory, calibration).
    pub node: NodeConfig,
    /// Mesh link timing.
    pub link: LinkTimingConfig,
    /// Global-operation timing.
    pub global: GlobalTimingConfig,
}

impl MachineConfig {
    /// A machine with the given 6-D dims at the paper's 128-node benchmark
    /// node configuration (450 MHz).
    pub fn new(dims: &[usize]) -> MachineConfig {
        MachineConfig {
            shape: TorusShape::new(dims),
            node: NodeConfig::bench_450(),
            link: LinkTimingConfig::default(),
            global: GlobalTimingConfig::default(),
        }
    }

    /// The paper's 128-node benchmark machine.
    pub fn bench_128() -> MachineConfig {
        MachineConfig::new(&[4, 4, 2, 2, 2, 1])
    }

    /// Override the clock (360/420/450/500 MHz operating points).
    pub fn with_clock_mhz(mut self, mhz: u32) -> MachineConfig {
        self.node.clock = Clock::from_mhz(mhz);
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shape.node_count()
    }

    /// Peak speed of the whole machine in flops.
    pub fn peak_flops(&self) -> f64 {
        self.node_count() as f64 * self.node.clock.peak_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_machine_matches_paper() {
        let m = MachineConfig::bench_128();
        assert_eq!(m.node_count(), 128);
        assert_eq!(m.node.clock.mhz(), 450);
    }

    #[test]
    fn twelve_k_machine_is_ten_teraflops_plus() {
        let m = MachineConfig::new(&[8, 8, 6, 4, 4, 2]).with_clock_mhz(500);
        assert_eq!(m.node_count(), 12_288);
        assert!(m.peak_flops() >= 10.0e12, "{}", m.peak_flops());
    }

    #[test]
    fn clock_override() {
        let m = MachineConfig::bench_128().with_clock_mhz(360);
        assert_eq!(m.node.clock.mhz(), 360);
    }
}
