//! The calibrated performance model — the machinery behind every
//! §4 efficiency figure.
//!
//! One CG iteration on one node decomposes into:
//!
//! * **FPU issue time** — the operator and linear-algebra flops divided by
//!   the per-action *issue density* (flops retired per FPU instruction in
//!   the hand-tuned assembly kernels; 2.0 would be pure FMA), inflated by
//!   a single machine-wide issue-overhead factor for the integer/branch
//!   code that cannot dual-issue;
//! * **memory time** — streaming traffic through the prefetching EDRAM
//!   port (16 B/cycle) while the working set fits in 4 MB, or through the
//!   DDR controller (≈5.8 B/cycle at 450 MHz) once it spills — the origin
//!   of the ~30% figure for large local volumes;
//! * **mesh time** — face exchanges on the 12 concurrent links, each a
//!   600 ns fixed path plus 72 bits/word serialization;
//! * **global-sum time** — two reductions per iteration on the hardware
//!   pass-through tree.
//!
//! The issue densities and the six constants below (issue overhead, two
//! prefetch overlaps, comm overlap, global-sum software cycles, DDR
//! stream efficiency) are the model's calibration, fitted once to §4's
//! 40 / 38 / 46.5 %; everything else — flop counts, byte
//! counts, surface areas, halo depths, link rates — is derived from the
//! implementations in `qcdoc-lattice`, `qcdoc-asic` and `qcdoc-scu`. The
//! efficiency *ordering* (clover > Wilson > ASQTAD) and the EDRAM cliff
//! are structural; the calibration only pins the absolute scale.
//!
//! This is the twin's one closed-form price of a node: the cluster
//! baseline ([`crate::baseline`]) reuses its local (FPU + memory) model
//! and swaps only the network.

use qcdoc_asic::clock::{Clock, Cycles};
use qcdoc_asic::edram::PORT_BYTES_PER_CYCLE;
use qcdoc_lattice::counts::{
    cg_linear_algebra_counts_in, operator_counts_in, Action, Prec, SiteCounts,
};
use qcdoc_scu::global::global_sum_cycles;
use qcdoc_scu::timing::transfer_cycles;

/// The node clock every price is quoted at: the paper's 128-node
/// benchmark clock (450 MHz, buffered DIMMs).
pub const CLOCK: Clock = Clock::BENCH_450;

/// Arithmetic precision of the solve. §4: "performance for single
/// precision is slightly higher due to the decreased bandwidth to local
/// memory that is needed in this case."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 64-bit IEEE (the paper's quoted numbers).
    Double,
    /// 32-bit.
    Single,
}

impl Precision {
    /// The storage width the byte ledgers are computed at.
    fn counts_width(self) -> Prec {
        match self {
            Precision::Double => Prec::Double,
            Precision::Single => Prec::Single,
        }
    }
}

/// Extra issue cycles per FPU instruction (integer/branch overhead).
/// Fitted to §4.
const ISSUE_OVERHEAD: f64 = 0.705;

/// Fraction of EDRAM streaming hidden under FPU time by the prefetching
/// controller. Fitted to §4.
const MEM_OVERLAP_EDRAM: f64 = 0.75;

/// Fraction of DDR streaming hidden (no prefetch streams: much lower).
/// Fitted to §4's ~30 % for DDR-resident volumes.
const MEM_OVERLAP_DDR: f64 = 0.30;

/// Fraction of link time hidden under local work. Fitted to §4.
const COMM_OVERLAP: f64 = 0.35;

/// Software cycles around each hardware global sum. Fitted to §4.
const GLOBAL_SUM_SW_CYCLES: u64 = 2_000;

/// Fraction of peak DDR bandwidth sustained by the mixed strided accesses
/// of a Dirac kernel (no prefetch streams on the DDR path, plus PLB
/// arbitration). Fitted to §4's ~30 % for DDR-resident volumes.
const DDR_STREAM_EFFICIENCY: f64 = 0.55;

/// Flops retired per FPU instruction by the tuned kernel of each action
/// (2.0 = pure FMA), fitted to §4 with the constants above. Clover's dense
/// 6×6 blocks are the most FMA-friendly; the staggered accumulate/phase
/// structure the least.
pub fn issue_density(action: Action) -> f64 {
    match action {
        Action::Wilson => 1.55,
        Action::Clover => 1.80,
        Action::Staggered => 1.60,
        Action::Asqtad => 1.60,
        // The 5-D kernel streams each gauge link once per Ls slices and
        // runs the longest unbroken FMA chains of the suite — the reason
        // §4 expects it to "surpass the performance of the clover improved
        // Wilson operator".
        Action::Dwf { .. } => 1.82,
    }
}

/// The full per-iteration cycle breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyReport {
    /// The action measured.
    pub action: Action,
    /// FPU issue cycles per CG iteration.
    pub fpu_cycles: u64,
    /// Local memory cycles.
    pub mem_cycles: u64,
    /// Worst-direction link cycles.
    pub comm_cycles: u64,
    /// Global-sum cycles.
    pub gsum_cycles: u64,
    /// Combined cycles per iteration after overlap.
    pub total_cycles: u64,
    /// Flops per iteration per node.
    pub flops_per_iteration: u64,
    /// Sustained fraction of peak.
    pub efficiency: f64,
    /// Sustained Gflops per node.
    pub sustained_gflops_per_node: f64,
    /// Working set per node in bytes.
    pub resident_bytes: u64,
    /// Whether the working set fits the 4 MB EDRAM.
    pub fits_edram: bool,
    /// Time per CG iteration in microseconds.
    pub iteration_us: f64,
}

/// One node's local time for one CG iteration (two operator
/// applications plus the solver's linear algebra), before any network.
pub(crate) struct LocalTime {
    /// Per-site operator ledger at the model's width.
    pub op: SiteCounts,
    /// FPU issue cycles.
    pub fpu_cycles: f64,
    /// Memory streaming cycles (EDRAM port, or DDR once the working set
    /// spills).
    pub mem_cycles: f64,
    /// FPU and memory combined after the prefetch overlap.
    pub cycles: f64,
    /// Flops per iteration per node.
    pub flops: f64,
    /// Working set per node in bytes.
    pub resident_bytes: u64,
    /// Whether the working set fits the 4 MB EDRAM.
    pub fits_edram: bool,
}

/// The Dirac-solver performance model for one machine + workload.
#[derive(Debug, Clone)]
pub struct DiracPerf {
    /// Logical 4-D machine dims the solve runs on (product = nodes used).
    pub logical_dims: [usize; 4],
    /// Local volume per node.
    pub local_dims: [usize; 4],
    /// Precision.
    pub precision: Precision,
}

impl DiracPerf {
    /// The paper's benchmark setup: 128 nodes as a 4×4×4×2 logical torus,
    /// 4⁴ local volume, double precision, 450 MHz.
    pub fn paper_bench() -> DiracPerf {
        DiracPerf {
            logical_dims: [4, 4, 4, 2],
            local_dims: [4, 4, 4, 4],
            precision: Precision::Double,
        }
    }

    /// Local sites per node.
    pub fn local_sites(&self) -> u64 {
        self.local_dims.iter().product::<usize>() as u64
    }

    /// FPU issue time, local memory time and their prefetch overlap for
    /// one CG iteration of `action` — QCDOC's local model, shared with
    /// the cluster baseline (same CPU, same memory system).
    pub(crate) fn local_time(&self, action: Action) -> LocalTime {
        let sites = self.local_sites() as f64;
        let width = self.precision.counts_width();
        let op = operator_counts_in(action, width);
        let la = cg_linear_algebra_counts_in(action, width);

        // --- FPU issue time (2 operator applications + linear algebra).
        let op_instr = 2.0 * op.flops as f64 / issue_density(action);
        let la_instr = la.flops as f64 / 2.0; // axpy/dot are pure FMA
        let fpu_cycles = sites * (op_instr + la_instr) * (1.0 + ISSUE_OVERHEAD);

        // --- Local memory time.
        let bytes_per_site =
            2.0 * (op.read_bytes + op.write_bytes) as f64 + (la.read_bytes + la.write_bytes) as f64;
        let bytes = sites * bytes_per_site;
        let resident_bytes = sites as u64 * op.resident_bytes;
        let fits_edram = qcdoc_asic::memory::fits_edram(resident_bytes);
        let (mem_cycles, mem_overlap) = if fits_edram {
            (bytes / PORT_BYTES_PER_CYCLE as f64, MEM_OVERLAP_EDRAM)
        } else {
            let ddr_bpc =
                qcdoc_asic::ddr::DDR_BYTES_PER_SEC / CLOCK.hz() as f64 * DDR_STREAM_EFFICIENCY;
            (bytes / ddr_bpc, MEM_OVERLAP_DDR)
        };

        // --- Local combined time (prefetch overlap).
        let cycles = fpu_cycles.max(mem_cycles) + (1.0 - mem_overlap) * fpu_cycles.min(mem_cycles);

        LocalTime {
            op,
            fpu_cycles,
            mem_cycles,
            cycles,
            flops: sites * (2.0 * op.flops as f64 + la.flops as f64),
            resident_bytes,
            fits_edram,
        }
    }

    /// Evaluate the model for one action.
    pub fn evaluate(&self, action: Action) -> EfficiencyReport {
        let local = self.local_time(action);
        let op = local.op;

        // --- Mesh time: worst direction, both operator applications. The
        // twelve links run concurrently, so only the busiest direction
        // matters; M and M† each exchange every face once.
        let mut comm_cycles = 0.0f64;
        for (axis, &ext) in self.logical_dims.iter().enumerate() {
            if ext <= 1 {
                continue; // neighbour is self: no off-node traffic
            }
            let face_sites = self.local_sites() / self.local_dims[axis] as u64;
            let bytes_dir = face_sites as f64 * op.face_bytes as f64 * op.halo_depth as f64;
            let words = (bytes_dir / 8.0).ceil() as u64;
            let t = transfer_cycles(words).count() as f64;
            comm_cycles = comm_cycles.max(2.0 * t);
        }

        // --- Global sums: two per iteration on the pass-through tree.
        let hw = global_sum_cycles(&self.logical_dims, true, true).count() as f64;
        let gsum = 2.0 * (hw + GLOBAL_SUM_SW_CYCLES as f64);

        // --- Combine: comm partially overlaps local work.
        let total = local.cycles.max(comm_cycles)
            + (1.0 - COMM_OVERLAP) * local.cycles.min(comm_cycles)
            + gsum;

        let flops_iter = local.flops as u64;
        let efficiency = flops_iter as f64 / (2.0 * total);
        EfficiencyReport {
            action,
            fpu_cycles: local.fpu_cycles as u64,
            mem_cycles: local.mem_cycles as u64,
            comm_cycles: comm_cycles as u64,
            gsum_cycles: gsum as u64,
            total_cycles: total as u64,
            flops_per_iteration: flops_iter,
            efficiency,
            sustained_gflops_per_node: efficiency * CLOCK.peak_flops() / 1e9,
            resident_bytes: local.resident_bytes,
            fits_edram: local.fits_edram,
            iteration_us: CLOCK.cycles_to_ns(Cycles(total as u64)) / 1000.0,
        }
    }

    /// Evaluate the paper's three benchmark actions plus domain wall.
    fn evaluate_suite(&self) -> Vec<EfficiencyReport> {
        [
            Action::Wilson,
            Action::Asqtad,
            Action::Clover,
            Action::Dwf { ls: 8 },
        ]
        .into_iter()
        .map(|a| self.evaluate(a))
        .collect()
    }

    /// Evaluate one action at both storage widths — same machine, same
    /// calibration, only the byte ledgers change. Returns
    /// `(double, single)`.
    pub fn evaluate_both_precisions(&self, action: Action) -> (EfficiencyReport, EfficiencyReport) {
        let mut model = self.clone();
        model.precision = Precision::Double;
        let dp = model.evaluate(action);
        model.precision = Precision::Single;
        let sp = model.evaluate(action);
        (dp, sp)
    }

    /// Render the single- vs double-precision sustained-performance table —
    /// §4's "performance for single precision is slightly higher" made
    /// quantitative. One row per suite action: efficiency and sustained
    /// Mflops per node at each width, plus the uplift.
    pub fn render_precision_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>12} {:>12} {:>9}\n",
            "action", "dp eff %", "sp eff %", "dp MF/node", "sp MF/node", "uplift"
        ));
        for action in [
            Action::Wilson,
            Action::Asqtad,
            Action::Clover,
            Action::Dwf { ls: 8 },
        ] {
            let (dp, sp) = self.evaluate_both_precisions(action);
            s.push_str(&format!(
                "{:<10} {:>10.1} {:>10.1} {:>12.0} {:>12.0} {:>8.1}%\n",
                action.name(),
                100.0 * dp.efficiency,
                100.0 * sp.efficiency,
                1000.0 * dp.sustained_gflops_per_node,
                1000.0 * sp.sustained_gflops_per_node,
                100.0 * (sp.efficiency - dp.efficiency),
            ));
        }
        s
    }

    /// Render the §4 benchmark table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>12} {:>10} {:>8}\n",
            "action", "eff %", "GF/node", "iter (us)", "EDRAM?", "Mcyc"
        ));
        for r in self.evaluate_suite() {
            s.push_str(&format!(
                "{:<10} {:>8.1} {:>10.3} {:>12.1} {:>10} {:>8.2}\n",
                r.action.name(),
                100.0 * r.efficiency,
                r.sustained_gflops_per_node,
                r.iteration_us,
                if r.fits_edram { "yes" } else { "no" },
                r.total_cycles as f64 / 1e6,
            ));
        }
        s
    }
}

/// The paper's quoted double-precision efficiencies at 4⁴ local volume.
pub const PAPER_EFFICIENCIES: [(Action, f64); 3] = [
    (Action::Wilson, 0.40),
    (Action::Asqtad, 0.38),
    (Action::Clover, 0.465),
];

/// §4 quotes no single-precision table — only that sustained performance
/// "is slightly higher due to the decreased bandwidth to local memory".
/// The regression band asserted by the paper-numbers tests: at the 4⁴
/// benchmark volume the single-precision sustained fraction must exceed
/// the double-precision one, by at most this many absolute efficiency
/// points ("slightly", not dramatically — the kernels stay issue-bound).
pub const PAPER_SINGLE_PRECISION_MAX_UPLIFT: f64 = 0.15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_efficiencies_at_4x4() {
        // E1: Wilson 40%, ASQTAD 38%, clover 46.5% — the model must land
        // within 2.5 percentage points of each.
        let perf = DiracPerf::paper_bench();
        for (action, paper) in PAPER_EFFICIENCIES {
            let got = perf.evaluate(action).efficiency;
            assert!(
                (got - paper).abs() < 0.025,
                "{}: model {:.3} vs paper {:.3}",
                action.name(),
                got,
                paper
            );
        }
    }

    #[test]
    fn efficiency_ordering_matches_paper() {
        let perf = DiracPerf::paper_bench();
        let w = perf.evaluate(Action::Wilson).efficiency;
        let a = perf.evaluate(Action::Asqtad).efficiency;
        let c = perf.evaluate(Action::Clover).efficiency;
        assert!(
            c > w && w > a,
            "clover {c:.3} > wilson {w:.3} > asqtad {a:.3}"
        );
    }

    #[test]
    fn dwf_surpasses_clover() {
        // §4: the domain-wall kernel "we expect will surpass the
        // performance of the clover improved Wilson operator".
        let perf = DiracPerf::paper_bench();
        let dwf = perf.evaluate(Action::Dwf { ls: 8 }).efficiency;
        let clover = perf.evaluate(Action::Clover).efficiency;
        assert!(dwf > clover - 0.01, "dwf {dwf:.3} vs clover {clover:.3}");
    }

    #[test]
    fn single_precision_is_slightly_higher() {
        let perf = DiracPerf::paper_bench();
        for action in [Action::Wilson, Action::Asqtad, Action::Clover] {
            let (dp, sp) = perf.evaluate_both_precisions(action);
            assert!(
                sp.efficiency > dp.efficiency,
                "{}: single {:.3} must beat double {:.3}",
                action.name(),
                sp.efficiency,
                dp.efficiency
            );
            assert!(
                sp.efficiency - dp.efficiency < PAPER_SINGLE_PRECISION_MAX_UPLIFT,
                "{}: only *slightly* higher: {:.3} vs {:.3}",
                action.name(),
                sp.efficiency,
                dp.efficiency
            );
        }
    }

    #[test]
    fn precision_table_lists_both_widths() {
        let t = DiracPerf::paper_bench().render_precision_table();
        for col in ["dp eff %", "sp eff %", "uplift"] {
            assert!(t.contains(col), "{t}");
        }
        for name in ["wilson", "asqtad", "clover", "dwf"] {
            assert!(t.contains(name), "{t}");
        }
    }

    #[test]
    fn ddr_spill_drops_to_thirty_percent_band() {
        // E2: 6^4 still fits EDRAM; 8^4 spills and lands near 30%.
        let mut perf = DiracPerf::paper_bench();
        perf.local_dims = [6, 6, 6, 6];
        let r6 = perf.evaluate(Action::Clover);
        assert!(r6.fits_edram, "6^4 must fit the 4 MB EDRAM");
        perf.local_dims = [8, 8, 8, 8];
        for action in [Action::Wilson, Action::Clover] {
            let r8 = perf.evaluate(action);
            assert!(!r8.fits_edram, "8^4 must spill to DDR");
            assert!(
                (0.26..0.36).contains(&r8.efficiency),
                "{}: DDR-resident efficiency {:.3} outside the ~30% band",
                action.name(),
                r8.efficiency
            );
        }
        assert!(r6.efficiency > perf.evaluate(Action::Clover).efficiency);
    }

    #[test]
    fn hard_scaling_holds_to_small_volumes() {
        // Shrinking the local volume (more nodes on a fixed problem) costs
        // some efficiency but QCDOC stays usable — the design goal.
        let mut perf = DiracPerf::paper_bench();
        perf.local_dims = [2, 2, 2, 2];
        let tiny = perf.evaluate(Action::Wilson).efficiency;
        assert!(tiny > 0.2, "2^4 local volume efficiency {tiny:.3}");
    }

    #[test]
    fn breakdown_is_self_consistent() {
        let perf = DiracPerf::paper_bench();
        let r = perf.evaluate(Action::Wilson);
        assert!(r.total_cycles >= r.fpu_cycles.max(r.comm_cycles));
        assert!(r.efficiency > 0.0 && r.efficiency < 1.0);
        assert!(r.iteration_us > 0.0);
        assert_eq!(
            r.flops_per_iteration,
            256 * (2 * 1368 + 384),
            "Wilson CG iteration flop ledger"
        );
    }

    #[test]
    fn render_table_lists_all_actions() {
        let t = DiracPerf::paper_bench().render_table();
        for name in ["wilson", "asqtad", "clover", "dwf"] {
            assert!(t.contains(name), "{t}");
        }
    }
}
