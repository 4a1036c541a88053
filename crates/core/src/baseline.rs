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

use crate::perf::{DiracPerf, CLOCK};
use qcdoc_lattice::counts::Action;
use qcdoc_scu::timing::{ETHERNET_BYTES_PER_SEC, ETHERNET_STARTUP_NS};

/// The cluster performance model.
#[derive(Debug, Clone)]
pub struct ClusterPerf {
    /// Same workload/geometry description as the QCDOC model.
    pub perf: DiracPerf,
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
        ClusterPerf { perf: perf.clone() }
    }

    /// Evaluate the cluster model for one action.
    pub fn evaluate(&self, action: Action) -> ClusterReport {
        let p = &self.perf;
        // QCDOC's local model (same CPU + memory); only the network differs.
        let local = p.local_time(action);
        let op = local.op;

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
            net_bytes += 4.0 * face_sites as f64 * op.face_bytes as f64 * op.halo_depth as f64;
        }
        let net_ns =
            messages as f64 * ETHERNET_STARTUP_NS + net_bytes / ETHERNET_BYTES_PER_SEC * 1e9;
        let net_cycles = net_ns / CLOCK.period_ns();

        // Software global sums: a binary reduction tree of messages, two
        // per iteration.
        let nodes: usize = p.logical_dims.iter().product();
        let tree_depth = (nodes as f64).log2().ceil();
        let gsum_cycles = 2.0 * 2.0 * tree_depth * ETHERNET_STARTUP_NS / CLOCK.period_ns();

        let total = local.cycles + net_cycles + gsum_cycles;
        ClusterReport {
            efficiency: local.flops / (2.0 * total),
            iteration_us: total * CLOCK.period_ns() / 1000.0,
            network_fraction: (net_cycles + gsum_cycles) / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Precision;

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

    /// The bits of both closed-form models, pinned: an FNV-1a digest over
    /// every numeric field of `DiracPerf::evaluate` and
    /// `ClusterPerf::evaluate` for five actions × two widths × local
    /// 2⁴, 4⁴, 8⁴ and 16⁴ (both sides of the EDRAM cliff). The perf and
    /// cluster tests above check bands; this one fails on any moved bit.
    #[test]
    fn pricing_model_bits_are_pinned() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let actions = [
            Action::Wilson,
            Action::Clover,
            Action::Staggered,
            Action::Asqtad,
            Action::Dwf { ls: 8 },
        ];
        for action in actions {
            for precision in [Precision::Double, Precision::Single] {
                for l in [2, 4, 8, 16] {
                    let mut perf = DiracPerf::paper_bench();
                    perf.precision = precision;
                    perf.local_dims = [l; 4];
                    let q = perf.evaluate(action);
                    for word in [
                        q.fpu_cycles,
                        q.mem_cycles,
                        q.comm_cycles,
                        q.gsum_cycles,
                        q.total_cycles,
                        q.flops_per_iteration,
                        q.efficiency.to_bits(),
                        q.sustained_gflops_per_node.to_bits(),
                        q.resident_bytes,
                        q.fits_edram as u64,
                        q.iteration_us.to_bits(),
                    ] {
                        eat(word);
                    }
                    let c = ClusterPerf::matching(&perf).evaluate(action);
                    for x in [c.efficiency, c.iteration_us, c.network_fraction] {
                        eat(x.to_bits());
                    }
                }
            }
        }
        assert_eq!(digest, 0xe7ed_9825_750a_163a);
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
