//! Per-site operation ledgers for each Dirac operator.
//!
//! These closed-form counts are the input to the machine performance model
//! (`qcdoc-core`): flops and local memory traffic per lattice site per
//! operator application, and the surface communication volume per face
//! site. They are derived from the kernel structure of this crate's
//! implementations (which match the standard community counts — e.g. 1320
//! flops/site for the Wilson dslash in double precision).

/// Size of one double-precision complex number in bytes.
const CPLX: u64 = 16;

/// Storage width of the complex numbers a kernel streams. Flop counts are
/// width-independent; every byte ledger scales linearly with the complex
/// size, which is how §4's "performance for single precision is slightly
/// higher" arises — half the bandwidth to local memory for the same
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prec {
    /// 32-bit IEEE components: 8-byte complex numbers.
    Single,
    /// 64-bit IEEE components: 16-byte complex numbers (the paper's
    /// quoted benchmark width).
    Double,
}

impl Prec {
    /// Bytes of one complex number at this width.
    pub const fn complex_bytes(self) -> u64 {
        match self {
            Prec::Single => 8,
            Prec::Double => 16,
        }
    }
}
/// Bytes of a half-spinor (6 complex) — the face-exchange payload of
/// Wilson-type actions.
pub const HALF_SPINOR_BYTES: u64 = 6 * CPLX;

/// The fermion actions benchmarked in §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Naive Wilson fermions (40% of peak in the paper).
    Wilson,
    /// Clover-improved Wilson (46.5%).
    Clover,
    /// Naive thin-link staggered (not benchmarked in the paper; included
    /// as the ASQTAD baseline).
    Staggered,
    /// ASQTAD staggered (38%).
    Asqtad,
    /// Domain-wall fermions (expected to exceed clover, §4).
    Dwf {
        /// Fifth-dimension extent.
        ls: u32,
    },
}

impl Action {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Action::Wilson => "wilson",
            Action::Clover => "clover",
            Action::Staggered => "staggered",
            Action::Asqtad => "asqtad",
            Action::Dwf { .. } => "dwf",
        }
    }
}

/// Per-site counts for one application of the full operator `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounts {
    /// Floating-point operations (FMA = 2).
    pub flops: u64,
    /// Of which issued as fused multiply-adds (instruction count).
    pub fmadds: u64,
    /// Remaining single-op instructions.
    pub fops_single: u64,
    /// Bytes read from local memory (gauge + fields + operator data).
    pub read_bytes: u64,
    /// Bytes written to local memory.
    pub write_bytes: u64,
    /// Bytes sent per face site per direction when the stencil crosses a
    /// node boundary.
    pub face_bytes: u64,
    /// Halo depth: how many boundary layers the stencil needs (1 for
    /// nearest-neighbour, 3 for the Naik term).
    pub halo_depth: u64,
    /// Bytes of per-site working state that must stay resident between CG
    /// iterations (gauge + operator data + solver vectors), used for the
    /// EDRAM-fit test.
    pub resident_bytes: u64,
}

/// Number of solver vectors CGNE keeps live (x, b, r, p, t, q).
const CG_VECTORS: u64 = 6;

/// Counts for one application of the operator `M` of `action`, at the
/// paper's double-precision benchmark width. Shorthand for
/// [`operator_counts_in`] with [`Prec::Double`].
pub fn operator_counts(action: Action) -> SiteCounts {
    operator_counts_in(action, Prec::Double)
}

/// Counts for one application of the operator `M` of `action` with data
/// stored at width `prec`. The flop ledger is identical at both widths;
/// every byte ledger scales with [`Prec::complex_bytes`].
pub fn operator_counts_in(action: Action, prec: Prec) -> SiteCounts {
    let cplx = prec.complex_bytes();
    let su3 = 9 * cplx;
    let spinor = 12 * cplx;
    let half_spinor = 6 * cplx;
    let colorvec = 3 * cplx;
    match action {
        Action::Wilson => SiteCounts {
            // 8 hops x (project 12 + SU(3)*halfspinor 132) + accumulate
            // 7 x 24 + kappa axpy 48 = 1152 + 168 + 48.
            flops: 1368,
            fmadds: 8 * 54 + 24, // the matvec FMA chains + axpy
            fops_single: 1368 - 2 * (8 * 54 + 24),
            read_bytes: 8 * su3 + 8 * spinor + spinor,
            write_bytes: spinor,
            face_bytes: half_spinor,
            halo_depth: 1,
            resident_bytes: 4 * su3 + CG_VECTORS * spinor,
        },
        Action::Clover => {
            let w = operator_counts_in(Action::Wilson, prec);
            SiteCounts {
                // + two Hermitian 6x6 blocks applied: 2 x (36 cmul + 30
                // cadd) = 552 flops; blocks read: 2 x 36 complex.
                flops: w.flops + 552,
                fmadds: w.fmadds + 2 * 36,
                fops_single: w.fops_single + 552 - 2 * 2 * 36,
                read_bytes: w.read_bytes + 2 * 36 * cplx,
                write_bytes: w.write_bytes,
                face_bytes: half_spinor,
                halo_depth: 1,
                resident_bytes: w.resident_bytes + 2 * 36 * cplx,
            }
        }
        Action::Staggered => SiteCounts {
            // 8 matvecs x 66 + 7 accumulations x 6 + mass axpy 12.
            flops: 8 * 66 + 7 * 6 + 12,
            fmadds: 8 * 27,
            fops_single: (8 * 66 + 7 * 6 + 12) - 2 * 8 * 27,
            read_bytes: 8 * su3 + 8 * colorvec + colorvec,
            write_bytes: colorvec,
            face_bytes: colorvec,
            halo_depth: 1,
            resident_bytes: 4 * su3 + CG_VECTORS * colorvec,
        },
        Action::Asqtad => SiteCounts {
            // 16 matvecs (8 fat + 8 Naik) x 66 + 15 x 6 + mass 12 = 1158.
            flops: 16 * 66 + 15 * 6 + 12,
            fmadds: 16 * 27,
            fops_single: (16 * 66 + 15 * 6 + 12) - 2 * 16 * 27,
            // Fat + long links are distinct precomputed fields.
            read_bytes: 16 * su3 + 16 * colorvec + colorvec,
            write_bytes: colorvec,
            face_bytes: colorvec,
            // The Naik term reaches three sites deep.
            halo_depth: 3,
            resident_bytes: 8 * su3 + CG_VECTORS * colorvec,
        },
        Action::Dwf { ls } => {
            let ls = ls as u64;
            let w = operator_counts_in(Action::Wilson, prec);
            SiteCounts {
                // Per 4-D site: Ls x (4-D Wilson work + 5-D hops: two
                // chiral projections and adds, 2 x 24, plus diagonal 24).
                flops: ls * (w.flops + 72),
                fmadds: ls * (w.fmadds + 12),
                fops_single: ls * (w.flops + 72) - 2 * ls * (w.fmadds + 12),
                // Gauge links are shared across s-slices: read once per
                // 4-D site; spinor traffic scales with Ls.
                read_bytes: 8 * su3 + ls * (9 * spinor + spinor),
                write_bytes: ls * spinor,
                face_bytes: ls * half_spinor,
                halo_depth: 1,
                resident_bytes: 4 * su3 + ls * CG_VECTORS * spinor,
            }
        }
    }
}

/// Per-site counts of the CGNE linear algebra between the two operator
/// applications of one iteration — three axpy-type updates and two
/// reductions on the action's field type — with data stored at width
/// `prec`.
pub fn cg_linear_algebra_counts_in(action: Action, prec: Prec) -> SiteCounts {
    let cplx = prec.complex_bytes();
    let (cplx_per_site, face) = match action {
        Action::Wilson | Action::Clover => (12u64, 6 * cplx),
        Action::Staggered | Action::Asqtad => (3u64, 3 * cplx),
        Action::Dwf { ls } => (12 * ls as u64, 6 * cplx),
    };
    // 3 axpy (8 flops per complex: 1 cmul + 1 cadd as 4 fmadds... counted
    // as 2 fmadds per complex) + 2 dot products (4 flops per complex).
    let flops = 3 * 8 * cplx_per_site + 2 * 4 * cplx_per_site;
    let fmadds = 3 * 2 * cplx_per_site + 2 * 2 * cplx_per_site;
    SiteCounts {
        flops,
        fmadds,
        fops_single: flops - 2 * fmadds,
        // axpy: read 2 vectors write 1; dots: read 2.
        read_bytes: (3 * 2 + 2 * 2) * cplx_per_site * cplx,
        write_bytes: 3 * cplx_per_site * cplx,
        face_bytes: face,
        halo_depth: 0,
        resident_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_matches_community_count() {
        // The canonical Wilson dslash number is 1320 flops/site; the full
        // operator adds the kappa axpy (48).
        let c = operator_counts(Action::Wilson);
        assert_eq!(c.flops, 1320 + 48);
    }

    #[test]
    fn asqtad_matches_community_count() {
        // ASQTAD dslash is usually quoted at 1146; with the mass term 1158.
        let c = operator_counts(Action::Asqtad);
        assert_eq!(c.flops, 1158);
    }

    #[test]
    fn clover_exceeds_wilson_by_block_work() {
        let w = operator_counts(Action::Wilson);
        let c = operator_counts(Action::Clover);
        assert_eq!(c.flops - w.flops, 552);
        assert!(c.read_bytes > w.read_bytes);
    }

    #[test]
    fn arithmetic_intensity_ordering_explains_the_paper() {
        // Clover does more flops per byte than Wilson, which beats ASQTAD —
        // the efficiency ordering of §4 (46.5% > 40% > 38%) in structural
        // form.
        let ai = |a: Action| {
            let c = operator_counts(a);
            c.flops as f64 / (c.read_bytes + c.write_bytes) as f64
        };
        assert!(ai(Action::Clover) > ai(Action::Wilson));
        assert!(ai(Action::Wilson) > ai(Action::Asqtad));
    }

    #[test]
    fn naik_needs_three_deep_halo() {
        assert_eq!(operator_counts(Action::Asqtad).halo_depth, 3);
        assert_eq!(operator_counts(Action::Wilson).halo_depth, 1);
    }

    #[test]
    fn dwf_scales_with_ls() {
        let a = operator_counts(Action::Dwf { ls: 8 });
        let b = operator_counts(Action::Dwf { ls: 16 });
        assert_eq!(b.flops, 2 * a.flops);
        assert!(
            b.read_bytes < 2 * a.read_bytes,
            "gauge reads amortize across slices"
        );
    }

    #[test]
    fn fma_decomposition_is_consistent() {
        for a in [
            Action::Wilson,
            Action::Clover,
            Action::Staggered,
            Action::Asqtad,
            Action::Dwf { ls: 8 },
        ] {
            let c = operator_counts(a);
            assert_eq!(c.flops, 2 * c.fmadds + c.fops_single, "{a:?}");
            let l = cg_linear_algebra_counts_in(a, Prec::Double);
            assert_eq!(l.flops, 2 * l.fmadds + l.fops_single, "{a:?} linalg");
        }
    }

    #[test]
    fn resident_set_fits_edram_at_paper_volumes() {
        // §4: "a 4^4 local volume ... For most of the fermion formulations,
        // a 6^4 local volume still fits in our 4 Megabytes of imbedded
        // memory."
        const EDRAM: u64 = 4 * 1024 * 1024;
        for a in [Action::Wilson, Action::Clover, Action::Asqtad] {
            let per_site = operator_counts(a).resident_bytes;
            assert!(256 * per_site < EDRAM, "{a:?} at 4^4");
            assert!(1296 * per_site < EDRAM, "{a:?} at 6^4");
            assert!(4096 * per_site > EDRAM, "{a:?} at 8^4 must spill");
        }
    }

    #[test]
    fn single_precision_halves_bytes_and_keeps_flops() {
        for a in [
            Action::Wilson,
            Action::Clover,
            Action::Staggered,
            Action::Asqtad,
            Action::Dwf { ls: 8 },
        ] {
            let dp = operator_counts_in(a, Prec::Double);
            let sp = operator_counts_in(a, Prec::Single);
            assert_eq!(sp.flops, dp.flops, "{a:?} flops are width-independent");
            assert_eq!(sp.fmadds, dp.fmadds);
            assert_eq!(2 * sp.read_bytes, dp.read_bytes, "{a:?}");
            assert_eq!(2 * sp.write_bytes, dp.write_bytes, "{a:?}");
            assert_eq!(2 * sp.face_bytes, dp.face_bytes, "{a:?}");
            assert_eq!(2 * sp.resident_bytes, dp.resident_bytes, "{a:?}");
            assert_eq!(sp.halo_depth, dp.halo_depth);
            let dl = cg_linear_algebra_counts_in(a, Prec::Double);
            let sl = cg_linear_algebra_counts_in(a, Prec::Single);
            assert_eq!(sl.flops, dl.flops);
            assert_eq!(2 * sl.read_bytes, dl.read_bytes);
            assert_eq!(2 * sl.write_bytes, dl.write_bytes);
        }
    }

    #[test]
    fn double_variants_match_legacy_entry_points() {
        for a in [Action::Wilson, Action::Asqtad, Action::Dwf { ls: 8 }] {
            assert_eq!(operator_counts(a), operator_counts_in(a, Prec::Double));
        }
    }

    #[test]
    fn wilson_face_is_half_spinor() {
        // The spin-projection trick halves the exchanged payload.
        const SPINOR_BYTES: u64 = 12 * CPLX;
        assert_eq!(operator_counts(Action::Wilson).face_bytes, SPINOR_BYTES / 2);
    }
}
