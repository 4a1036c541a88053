//! Property-based tests on the lattice algebra and operators.

use proptest::prelude::*;
use qcdoc_lattice::complex::C64;
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::rng::SiteRng;
use qcdoc_lattice::solver::{solve_cgne, CgParams};
use qcdoc_lattice::spinor::ProjSign;
use qcdoc_lattice::su3::Su3;
use qcdoc_lattice::wilson::WilsonDirac;

fn arb_c64() -> impl Strategy<Value = C64> {
    (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(re, im)| C64::new(re, im))
}

fn arb_su3(seed: u64) -> Su3 {
    let mut rng = SiteRng::new(seed, 1);
    let mut m = Su3::ZERO;
    for r in 0..3 {
        for c in 0..3 {
            m.0[r][c] = C64::new(rng.uniform() - 0.5, rng.uniform() - 0.5);
        }
    }
    m.reunitarize()
}

proptest! {
    #[test]
    fn complex_field_axioms(a in arb_c64(), b in arb_c64(), c in arb_c64()) {
        let assoc = (a * b) * c - a * (b * c);
        prop_assert!(assoc.abs() < 1e-12);
        let dist = a * (b + c) - (a * b + a * c);
        prop_assert!(dist.abs() < 1e-12);
        let comm = a * b - b * a;
        prop_assert!(comm.abs() < 1e-13);
    }

    #[test]
    fn conj_is_multiplicative(a in arb_c64(), b in arb_c64()) {
        let lhs = (a * b).conj();
        let rhs = a.conj() * b.conj();
        prop_assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn su3_closure_and_unitarity(s1 in 0u64..1000, s2 in 0u64..1000) {
        let a = arb_su3(s1);
        let b = arb_su3(s2.wrapping_add(7777));
        let c = a * b;
        prop_assert!(c.unitarity_error() < 1e-11);
        prop_assert!((c.det() - C64::ONE).abs() < 1e-11);
        // Reunitarization is (numerically) idempotent on group elements.
        prop_assert!(c.reunitarize().distance(&c) < 1e-11);
    }

    #[test]
    fn trace_cyclic(s1 in 0u64..500, s2 in 0u64..500) {
        let a = arb_su3(s1);
        let b = arb_su3(s2.wrapping_add(31337));
        let t1 = (a * b).trace();
        let t2 = (b * a).trace();
        prop_assert!((t1 - t2).abs() < 1e-11);
    }

    #[test]
    fn projection_halves_degrees_of_freedom(seed in 0u64..200, mu in 0usize..4) {
        // (1 ∓ γ_μ) applied twice equals 2 × (1 ∓ γ_μ) — projector up to
        // the conventional factor 2.
        let lat = Lattice::new([2, 2, 2, 2]);
        let f = FermionField::gaussian(lat, seed);
        let psi = *f.site(0);
        for sign in [ProjSign::Minus, ProjSign::Plus] {
            let once = qcdoc_lattice::spinor::Spinor::reconstruct(&psi.project(mu, sign), mu, sign);
            let twice = qcdoc_lattice::spinor::Spinor::reconstruct(&once.project(mu, sign), mu, sign);
            for s in 0..4 {
                for c in 0..3 {
                    let expect = once.0[s].0[c] * 2.0;
                    prop_assert!((twice.0[s].0[c] - expect).abs() < 1e-11);
                }
            }
        }
    }

    #[test]
    fn wilson_operator_is_gamma5_hermitian(seed in 0u64..50) {
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let op = WilsonDirac::new(&gauge, 0.11);
        let u = FermionField::gaussian(lat, seed.wrapping_add(1));
        let v = FermionField::gaussian(lat, seed.wrapping_add(2));
        let mut mv = FermionField::zero(lat);
        op.apply(&mut mv, &v);
        let mut mdu = FermionField::zero(lat);
        op.apply_dagger(&mut mdu, &u);
        let a = u.dot(&mv);
        let b = mdu.dot(&v);
        prop_assert!((a - b).abs() < 1e-8 * a.abs().max(1.0));
    }

    #[test]
    fn cg_solves_arbitrary_rhs(seed in 0u64..20) {
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let op = WilsonDirac::new(&gauge, 0.10);
        let b = FermionField::gaussian(lat, seed.wrapping_add(100));
        let mut x = FermionField::zero(lat);
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        prop_assert!(report.converged);
        // Verify M x ≈ b.
        let mut mx = FermionField::zero(lat);
        op.apply(&mut mx, &x);
        mx.axpy(C64::real(-1.0), &b);
        prop_assert!((mx.norm_sqr() / b.norm_sqr()).sqrt() < 1e-6);
    }

    #[test]
    fn config_io_roundtrip_is_bit_exact(seed in 0u64..10_000) {
        let lat = Lattice::new([2, 2, 2, 2]);
        let g = GaugeField::hot(lat, seed);
        let bytes = qcdoc_lattice::io::write_config(&g);
        let back = qcdoc_lattice::io::read_config(&bytes).unwrap();
        prop_assert_eq!(back.fingerprint(), g.fingerprint());
    }

    #[test]
    fn config_io_never_accepts_a_flipped_payload_bit(
        seed in 0u64..1_000,
        word in 0usize..2 * 2 * 2 * 2 * 4 * 18,
        bit in 0usize..64,
    ) {
        let lat = Lattice::new([2, 2, 2, 2]);
        let g = GaugeField::hot(lat, seed);
        let mut bytes = qcdoc_lattice::io::write_config(&g);
        let payload_start = bytes.len() - 2 * 2 * 2 * 2 * 4 * 18 * 8;
        bytes[payload_start + word * 8 + bit / 8] ^= 1 << (bit % 8);
        // Whichever validator fires first (checksum, or plaquette for
        // sum-preserving flips), corruption must never read back as Ok.
        prop_assert!(qcdoc_lattice::io::read_config(&bytes).is_err());
    }

    #[test]
    fn checkpoint_io_roundtrip_is_bit_exact(seed in 0u64..10_000, iters in 0usize..40) {
        let ckpt = qcdoc_lattice::CgCheckpoint {
            operator: "wilson".into(),
            iterations: iters,
            converged: iters % 2 == 0,
            rsq: (seed as f64) * 1e-3 + 0.125,
            bref: (seed as f64 + 1.0) * 0.5,
            residuals: (0..iters).map(|i| 1.0 / (i as f64 + 2.0)).collect(),
            applications: 3 + 2 * iters,
            reductions: 2 + 2 * iters,
            x: (0..24).map(|i| seed.wrapping_add(i)).collect(),
            r: (0..24).map(|i| seed.wrapping_mul(3).wrapping_add(i)).collect(),
            p: (0..24).map(|i| seed.wrapping_mul(7).wrapping_add(i)).collect(),
        };
        let bytes = qcdoc_lattice::checkpoint::write_checkpoint(&ckpt);
        let back = qcdoc_lattice::checkpoint::read_checkpoint(&bytes).unwrap();
        prop_assert_eq!(back.digest(), ckpt.digest());
        prop_assert_eq!(back, ckpt);
    }

    #[test]
    fn site_rng_streams_do_not_collide(s1 in 0u64..100_000, s2 in 0u64..100_000) {
        prop_assume!(s1 != s2);
        let mut a = SiteRng::new(7, s1);
        let mut b = SiteRng::new(7, s2);
        // First draws differing is the practical non-collision property.
        prop_assert_ne!(a.next_u64(), b.next_u64());
    }
}

/// Relative L2 distance between a double-precision field and the promoted
/// single-precision result, `‖hi − promote(lo)‖ / ‖hi‖`.
fn rel_err(hi: &FermionField, lo: &FermionField<f32>) -> f64 {
    let mut diff = hi.clone();
    diff.axpy(C64::real(-1.0), &lo.to_f64());
    (diff.norm_sqr() / hi.norm_sqr().max(f64::MIN_POSITIVE)).sqrt()
}

// The f32 instantiation of each Dirac operator must agree with the f64
// one to single-precision rounding — ~1e-6 relative on random fields
// (asserted at 1e-5 to leave margin for accumulation across the stencil).
const PRECISION_AGREEMENT: f64 = 1e-5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn wilson_f32_matches_f64(seed in 0u64..1000) {
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let inp = FermionField::gaussian(lat, seed.wrapping_add(1));
        let op = WilsonDirac::new(&gauge, 0.12);
        let mut out = FermionField::zero(lat);
        op.apply(&mut out, &inp);
        let gauge32 = gauge.to_f32();
        let op32 = WilsonDirac::new(&gauge32, 0.12);
        let mut out32 = FermionField::<f32>::zero(lat);
        op32.apply(&mut out32, &inp.to_f32());
        prop_assert!(rel_err(&out, &out32) < PRECISION_AGREEMENT);
    }

    #[test]
    fn clover_f32_matches_f64(seed in 0u64..1000) {
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let inp = FermionField::gaussian(lat, seed.wrapping_add(1));
        let op = qcdoc_lattice::clover::CloverDirac::new(&gauge, 0.12, 1.0);
        let mut out = FermionField::zero(lat);
        op.apply(&mut out, &inp);
        let gauge32 = gauge.to_f32();
        let op32 = qcdoc_lattice::clover::CloverDirac::new(&gauge32, 0.12, 1.0);
        let mut out32 = FermionField::<f32>::zero(lat);
        op32.apply(&mut out32, &inp.to_f32());
        prop_assert!(rel_err(&out, &out32) < PRECISION_AGREEMENT);
    }

    #[test]
    fn asqtad_f32_matches_f64(seed in 0u64..1000) {
        use qcdoc_lattice::field::StaggeredField;
        use qcdoc_lattice::staggered::{AsqtadCoeffs, AsqtadDirac, AsqtadLinks};
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let inp = StaggeredField::gaussian(lat, seed.wrapping_add(1));
        let links = AsqtadLinks::new(&gauge, AsqtadCoeffs::default());
        let op = AsqtadDirac::new(&links, 0.2);
        let mut out = StaggeredField::zero(lat);
        op.apply(&mut out, &inp);
        let gauge32 = gauge.to_f32();
        let links32 = AsqtadLinks::new(&gauge32, AsqtadCoeffs::default());
        let op32 = AsqtadDirac::new(&links32, 0.2);
        let mut out32 = StaggeredField::<f32>::zero(lat);
        op32.apply(&mut out32, &inp.to_f32());
        let mut diff = out.clone();
        diff.axpy(C64::real(-1.0), &out32.to_f64());
        let rel = (diff.norm_sqr() / out.norm_sqr().max(f64::MIN_POSITIVE)).sqrt();
        prop_assert!(rel < PRECISION_AGREEMENT);
    }

    #[test]
    fn dwf_f32_matches_f64(seed in 0u64..1000) {
        use qcdoc_lattice::dwf::{DwfDirac, DwfField};
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let inp = DwfField::gaussian(lat, 4, seed.wrapping_add(1));
        let op = DwfDirac::new(&gauge, 1.8, 0.1, 4);
        let mut out = DwfField::zero(lat, 4);
        op.apply(&mut out, &inp);
        let gauge32 = gauge.to_f32();
        let op32 = DwfDirac::new(&gauge32, 1.8, 0.1, 4);
        let mut out32 = DwfField::<f32>::zero(lat, 4);
        op32.apply(&mut out32, &inp.to_f32());
        let mut diff = out.clone();
        diff.axpy(C64::real(-1.0), &out32.to_f64());
        let rel = (diff.norm_sqr() / out.norm_sqr().max(f64::MIN_POSITIVE)).sqrt();
        prop_assert!(rel < PRECISION_AGREEMENT);
    }

    #[test]
    fn mixed_cg_matches_f64_tolerance_deterministically(seed in 0u64..20) {
        use qcdoc_lattice::solver::{solve_cgne_mixed, MixedCgParams};
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, seed);
        let gauge32 = gauge.to_f32();
        let op = WilsonDirac::new(&gauge, 0.11);
        let op32 = WilsonDirac::new(&gauge32, 0.11);
        let b = FermionField::gaussian(lat, seed.wrapping_add(100));

        // The mixed solve reaches the same f64 tolerance as plain CGNE.
        let params = MixedCgParams::default();
        let mut x = FermionField::zero(lat);
        let mixed = solve_cgne_mixed(&op, &op32, &mut x, &b, params);
        prop_assert!(mixed.converged);
        let mut x_ref = FermionField::zero(lat);
        let plain = solve_cgne(&op, &mut x_ref, &b, CgParams::default());
        prop_assert!(plain.converged);
        prop_assert!(mixed.final_residual <= CgParams::default().tolerance);

        // Seeded rerun is bit-identical: same outer/inner iteration
        // schedule, same solution bits.
        let mut x2 = FermionField::zero(lat);
        let mixed2 = solve_cgne_mixed(&op, &op32, &mut x2, &b, params);
        prop_assert_eq!(&mixed.inner_iterations, &mixed2.inner_iterations);
        prop_assert_eq!(mixed.outer_iterations, mixed2.outer_iterations);
        prop_assert_eq!(x.fingerprint(), x2.fingerprint());
    }
}

// The AoSoA layout (`aosoa`) is a pure re-arrangement: converting a field
// into lane blocks and back must reproduce every byte, and the blocked
// Dslash must produce the scalar kernel's bits — at both precisions, on
// any lattice whose volume divides into lanes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn aosoa_roundtrip_is_bit_exact_both_precisions(
        seed in 0u64..1000,
        which in 0usize..5,
    ) {
        use qcdoc_lattice::aosoa::{FermionBlocks, GaugeBlocks};
        const SHAPES: [[usize; 4]; 5] =
            [[2, 2, 2, 2], [4, 2, 2, 2], [2, 2, 2, 4], [4, 4, 2, 2], [8, 2, 2, 2]];
        let lat = Lattice::new(SHAPES[which]);
        let psi = FermionField::gaussian(lat, seed);
        prop_assert_eq!(FermionBlocks::from_field(&psi).to_field(), psi.clone());
        let psi32 = psi.to_f32();
        prop_assert_eq!(FermionBlocks::from_field(&psi32).to_field(), psi32);
        let gauge = GaugeField::hot(lat, seed.wrapping_add(7));
        prop_assert_eq!(
            GaugeBlocks::from_field(&gauge).to_field().fingerprint(),
            gauge.fingerprint()
        );
        let gauge32 = gauge.to_f32();
        prop_assert_eq!(GaugeBlocks::from_field(&gauge32).to_field(), gauge32);
    }

    #[test]
    fn aosoa_dslash_reproduces_scalar_bits(seed in 0u64..1000) {
        use qcdoc_lattice::aosoa::{dslash_aosoa, FermionBlocks, GaugeBlocks};
        use qcdoc_lattice::field::NeighbourTable;
        let lat = Lattice::new([2, 2, 2, 4]);
        let hops = NeighbourTable::new(lat);
        let gauge = GaugeField::hot(lat, seed);
        let psi = FermionField::gaussian(lat, seed.wrapping_add(1));
        let op = WilsonDirac::new(&gauge, 0.12);
        let mut scalar = FermionField::zero(lat);
        op.dslash(&mut scalar, &psi);
        let mut blocked = FermionBlocks::zero(lat);
        dslash_aosoa(
            &mut blocked,
            &GaugeBlocks::from_field(&gauge),
            &FermionBlocks::from_field(&psi),
            &hops,
        );
        prop_assert_eq!(blocked.to_field().fingerprint(), scalar.fingerprint());

        let gauge32 = gauge.to_f32();
        let psi32 = psi.to_f32();
        let op32 = WilsonDirac::new(&gauge32, 0.12);
        let mut scalar32 = FermionField::<f32>::zero(lat);
        op32.dslash(&mut scalar32, &psi32);
        let mut blocked32 = FermionBlocks::<f32>::zero(lat);
        dslash_aosoa(
            &mut blocked32,
            &GaugeBlocks::from_field(&gauge32),
            &FermionBlocks::from_field(&psi32),
            &hops,
        );
        prop_assert_eq!(blocked32.to_field(), scalar32);
    }
}

// `Spinor::project`/`reconstruct` are specialised per direction and
// `WilsonDirac` makes one pass per operator; the production kernels must
// reproduce the table-driven oracle's raw words — not fingerprints, and
// signed zeros included.
mod oracle;

mod oracle_bits {
    use super::oracle::TableWilson;
    use qcdoc_lattice::complex::C64;
    use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
    use qcdoc_lattice::real::Real;
    use qcdoc_lattice::solver::{solve_cgne, CgParams, DiracOperator, KrylovVector};
    use qcdoc_lattice::wilson::WilsonDirac;

    const KAPPA: f64 = 0.124;
    /// 4⁴, the distributed tests' 2·2·2·4, and one odd extent (where the
    /// forward and backward neighbour of a site differ along x only).
    const SHAPES: [[usize; 4]; 3] = [[4, 4, 4, 4], [2, 2, 2, 4], [3, 2, 2, 4]];

    /// Overwrite components of `f` with zeros of both signs; with `sparse`
    /// three sites in four become all-zero, so some sites see a signed-zero
    /// centre term and an exactly zero hopping sum.
    fn riddle(mut f: FermionField, seed: u64, sparse: bool) -> FermionField {
        let signed = |neg: bool| if neg { -0.0 } else { 0.0 };
        for x in f.lattice().sites() {
            for k in 0..12 {
                let z = &mut f.site_mut(x).0[k / 3].0[k % 3];
                let pick = (x * 7 + k * 5 + seed as usize) % 6;
                let zero = C64::new(signed(pick & 1 != 0), signed(pick & 2 != 0));
                if (sparse && x % 4 != 0) || pick >= 4 {
                    *z = zero;
                } else if pick < 2 {
                    z.re = zero.re;
                }
            }
        }
        f
    }

    /// Gaussian, point-source and fields riddled with zeros of both signs
    /// — the inputs on which a sign-of-zero slip would show.
    fn inputs(lat: Lattice, seed: u64) -> Vec<(&'static str, FermionField)> {
        let noise = |k| FermionField::gaussian(lat, seed + k);
        vec![
            ("gaussian", noise(0)),
            ("point", FermionField::point_source(lat, lat.volume() / 3)),
            ("signed zeros", riddle(noise(1), seed, false)),
            ("sparse signed zeros", riddle(noise(2), seed, true)),
        ]
    }

    fn assert_same_words<T: Real>(got: &FermionField<T>, want: &FermionField<T>, what: &str) {
        let (got, want) = (got.to_bits(), want.to_bits());
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{what}: word {i} (site {}, component {}) is {:#018x}, oracle {:#018x}",
                i / 24,
                i % 24,
                got[i],
                want[i]
            );
        }
    }

    fn kernels_match<T: Real>(gauge: &GaugeField<T>, psi: &FermionField<T>, what: &str) {
        let lat = psi.lattice();
        let op = WilsonDirac::new(gauge, KAPPA);
        let oracle = TableWilson::new(gauge, KAPPA);
        let (mut got, mut want) = (FermionField::zero(lat), FermionField::zero(lat));
        op.dslash(&mut got, psi);
        oracle.dslash(&mut want, psi);
        assert_same_words(&got, &want, &format!("dslash {what}"));
        op.apply(&mut got, psi);
        oracle.apply(&mut want, psi);
        assert_same_words(&got, &want, &format!("apply {what}"));
        op.apply_dagger(&mut got, psi);
        oracle.apply_dagger(&mut want, psi);
        assert_same_words(&got, &want, &format!("apply_dagger {what}"));
    }

    fn solves_match<T: Real>(gauge: &GaugeField<T>, b: &FermionField<T>, tol: f64, what: &str) {
        let params = CgParams {
            tolerance: tol,
            max_iterations: 60,
        };
        let mut got = FermionField::zero(b.lattice());
        let mut want = FermionField::zero(b.lattice());
        let report = solve_cgne(&WilsonDirac::new(gauge, KAPPA), &mut got, b, params);
        let oracle = solve_cgne(&TableWilson::new(gauge, KAPPA), &mut want, b, params);
        assert!(report.iterations > 3, "solve {what}: trivial solve");
        assert_eq!(report.iterations, oracle.iterations, "solve {what}");
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&report.residuals),
            bits(&oracle.residuals),
            "solve {what}: residual history"
        );
        assert_same_words(&got, &want, &format!("solve {what}"));
    }

    #[test]
    fn kernels_reproduce_the_table_oracle_word_for_word() {
        for (i, dims) in SHAPES.into_iter().enumerate() {
            let lat = Lattice::new(dims);
            let gauge = GaugeField::hot(lat, 300 + i as u64);
            let gauge32 = gauge.to_f32();
            for (name, psi) in inputs(lat, 310 + i as u64) {
                kernels_match(&gauge, &psi, &format!("f64 {name} {dims:?}"));
                kernels_match(&gauge32, &psi.to_f32(), &format!("f32 {name} {dims:?}"));
            }
        }
    }

    #[test]
    fn solve_cgne_reproduces_the_table_oracle_word_for_word() {
        for (i, dims) in SHAPES.into_iter().enumerate() {
            let lat = Lattice::new(dims);
            let gauge = GaugeField::hot(lat, 320 + i as u64);
            let gauge32 = gauge.to_f32();
            for (name, b) in inputs(lat, 330 + i as u64) {
                solves_match(&gauge, &b, 1e-10, &format!("f64 {name} {dims:?}"));
                solves_match(&gauge32, &b.to_f32(), 1e-5, &format!("f32 {name} {dims:?}"));
            }
        }
    }
}
