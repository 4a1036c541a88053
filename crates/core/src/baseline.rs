//! The commodity-cluster baseline — the comparison the paper's whole
//! architecture argument rests on.
//!
//! §1: "commercial cluster solutions have limitations for QCD, since one
//! cannot achieve the required low-latency communications with commodity
//! hardware"; §2.2 quantifies it: "times of 5-10 µs just to begin a
//! transfer when using standard networks like Ethernet." This model gives
//! a cluster node the *same* floating-point and memory system as a QCDOC
//! node (isolating the network), but routes all eight face exchanges and
//! the global reductions through a single Ethernet NIC with the quoted
//! start-up latency — no concurrent links, no hardware global tree, no
//! overlap (early-2000s blocking MPI).

use crate::perf::{issue_density, Calibration, DiracPerf, Precision};
use qcdoc_asic::edram::PORT_BYTES_PER_CYCLE;
use qcdoc_asic::memory::EDRAM_SIZE;
use qcdoc_lattice::counts::{cg_linear_algebra_counts, operator_counts, Action};
use qcdoc_scu::timing::EthernetBaseline;

/// The cluster performance model.
#[derive(Debug, Clone)]
pub struct ClusterPerf {
    /// Same workload/geometry description as the QCDOC model.
    pub perf: DiracPerf,
    /// The commodity network.
    pub network: EthernetBaseline,
}

/// A cluster efficiency result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterReport {
    /// Sustained fraction of node peak.
    pub efficiency: f64,
    /// Time per CG iteration in microseconds.
    pub iteration_us: f64,
    /// Fraction of iteration time spent in the network.
    pub network_fraction: f64,
}

impl ClusterPerf {
    /// A cluster matching the given QCDOC workload description.
    pub fn matching(perf: &DiracPerf) -> ClusterPerf {
        ClusterPerf {
            perf: perf.clone(),
            network: EthernetBaseline::default(),
        }
    }

    /// Evaluate the cluster model for one action.
    pub fn evaluate(&self, action: Action) -> ClusterReport {
        let p = &self.perf;
        let cal: Calibration = p.calibration;
        let sites = p.local_sites() as f64;
        let op = operator_counts(action);
        let la = cg_linear_algebra_counts(action);
        let bscale = match p.precision {
            Precision::Double => 1.0,
            Precision::Single => 0.5,
        };
        let clock = p.machine.node.clock;

        // Identical local model to QCDOC (same CPU + memory).
        let op_instr = 2.0 * op.flops as f64 / issue_density(action);
        let la_instr = la.flops as f64 / 2.0;
        let fpu = sites * (op_instr + la_instr) * (1.0 + cal.issue_overhead);
        let bytes = sites
            * (2.0 * (op.read_bytes + op.write_bytes) as f64
                + (la.read_bytes + la.write_bytes) as f64)
            * bscale;
        let resident = sites * op.resident_bytes as f64 * bscale;
        let (mem, mo) = if resident as u64 <= EDRAM_SIZE {
            (bytes / PORT_BYTES_PER_CYCLE as f64, cal.mem_overlap_edram)
        } else {
            let ddr_bpc =
                qcdoc_asic::ddr::DDR_BYTES_PER_SEC / clock.hz() as f64 * cal.ddr_stream_efficiency;
            (bytes / ddr_bpc, cal.mem_overlap_ddr)
        };
        let local = fpu.max(mem) + (1.0 - mo) * fpu.min(mem);

        // Network: all directions serialized through one NIC, blocking.
        let mut messages = 0u64;
        let mut net_bytes = 0.0f64;
        for (axis, &ext) in p.logical_dims.iter().enumerate() {
            if ext <= 1 {
                continue;
            }
            let face_sites = p.local_sites() / p.local_dims[axis] as u64;
            // Two directions per axis, two operator applications.
            messages += 4;
            net_bytes +=
                4.0 * face_sites as f64 * op.face_bytes as f64 * op.halo_depth as f64 * bscale;
        }
        let net_ns = messages as f64 * self.network.startup_ns
            + net_bytes / self.network.bytes_per_sec * 1e9;
        let net_cycles = net_ns / clock.period_ns();

        // Software global sums: a binary reduction tree of messages, two
        // per iteration.
        let nodes: usize = p.logical_dims.iter().product();
        let tree_depth = (nodes as f64).log2().ceil();
        let gsum_cycles = 2.0 * 2.0 * tree_depth * self.network.startup_ns / clock.period_ns();

        let total = local + net_cycles + gsum_cycles;
        let flops_iter = sites * (2.0 * op.flops as f64 + la.flops as f64);
        ClusterReport {
            efficiency: flops_iter / (2.0 * total),
            iteration_us: total * clock.period_ns() / 1000.0,
            network_fraction: (net_cycles + gsum_cycles) / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qcdoc_beats_cluster_at_paper_volume() {
        let perf = DiracPerf::paper_bench();
        let qcdoc = perf.evaluate(Action::Wilson).efficiency;
        let cluster = ClusterPerf::matching(&perf)
            .evaluate(Action::Wilson)
            .efficiency;
        assert!(
            qcdoc > 1.35 * cluster,
            "qcdoc {qcdoc:.3} should dominate the cluster {cluster:.3} at 4^4"
        );
    }

    #[test]
    fn cluster_collapses_under_hard_scaling() {
        // Shrinking local volume hurts the cluster much more than QCDOC —
        // the message start-up cost stops amortizing.
        let mut perf = DiracPerf::paper_bench();
        let at = |perf: &DiracPerf| {
            let c = ClusterPerf::matching(perf).evaluate(Action::Wilson);
            let q = perf.evaluate(Action::Wilson);
            (q.efficiency, c.efficiency)
        };
        let (q4, c4) = at(&perf);
        perf.local_dims = [2, 2, 2, 2];
        let (q2, c2) = at(&perf);
        // QCDOC keeps a large fraction of its efficiency; the cluster
        // loses most of what little it had.
        assert!(q2 / q4 > 0.55, "qcdoc retention {:.2}", q2 / q4);
        assert!(c2 / c4 < 0.45, "cluster retention {:.2}", c2 / c4);
        assert!(c2 < 0.12, "cluster at 2^4: {c2:.3}");
    }

    #[test]
    fn cluster_is_network_dominated_at_small_volume() {
        let mut perf = DiracPerf::paper_bench();
        perf.local_dims = [2, 2, 2, 2];
        let r = ClusterPerf::matching(&perf).evaluate(Action::Wilson);
        assert!(
            r.network_fraction > 0.6,
            "network fraction {:.2}",
            r.network_fraction
        );
    }

    #[test]
    fn cluster_catches_up_at_large_local_volume() {
        // With huge local volumes (soft scaling) messages amortize and the
        // gap narrows — the paper's point is about *hard* scaling.
        let mut perf = DiracPerf::paper_bench();
        perf.local_dims = [16, 16, 16, 16];
        let q = perf.evaluate(Action::Wilson).efficiency;
        let c = ClusterPerf::matching(&perf)
            .evaluate(Action::Wilson)
            .efficiency;
        assert!(c / q > 0.6, "large-volume ratio {:.2}", c / q);
    }
}
