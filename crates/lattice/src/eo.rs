//! Even/odd (red/black) preconditioning of the Wilson operator.
//!
//! The Wilson matrix only couples sites of opposite checkerboard parity,
//! so in the parity basis
//!
//! ```text
//! M = [ 1        −κ D_eo ]
//!     [ −κ D_oe   1      ]
//! ```
//!
//! and the Schur complement `M̂ = 1 − κ² D_eo D_oe` acts on even sites
//! only. Solving `M̂ x_e = b_e + κ D_eo b_o` and back-substituting
//! `x_o = b_o + κ D_oe x_e` halves the vector length and roughly halves
//! the iteration count — the standard production trick of the era's QCD
//! codes (and the reason the per-node layouts in §4 are checkerboarded).

use crate::complex::C64;
use crate::field::{FermionField, GaugeField, Lattice};
use crate::solver::{CgParams, CgReport, DiracOperator, KrylovVector};
use crate::spinor::{ProjSign, Spinor, WORDS_PER_SPINOR};

/// Site ordering for one parity: dense indices 0..V/2 per checkerboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EoLayout {
    lat: Lattice,
    /// Full-lattice site index of each (parity, dense index).
    site_of: [Vec<usize>; 2],
    /// (parity, dense index) of each full-lattice site.
    eo_of: Vec<(usize, usize)>,
}

impl EoLayout {
    /// Build the layout for a lattice (requires an even volume).
    pub fn new(lat: Lattice) -> EoLayout {
        assert!(
            lat.volume().is_multiple_of(2),
            "even/odd split needs even volume"
        );
        let mut site_of = [Vec::new(), Vec::new()];
        let mut eo_of = vec![(0usize, 0usize); lat.volume()];
        for x in lat.sites() {
            let p = lat.parity(x);
            eo_of[x] = (p, site_of[p].len());
            site_of[p].push(x);
        }
        EoLayout {
            lat,
            site_of,
            eo_of,
        }
    }

    /// Sites per parity.
    fn half_volume(&self) -> usize {
        self.lat.volume() / 2
    }

    /// Full-lattice site of `(parity, dense)`.
    pub fn site(&self, parity: usize, dense: usize) -> usize {
        self.site_of[parity][dense]
    }

    /// `(parity, dense)` of a full-lattice site.
    pub fn eo(&self, site: usize) -> (usize, usize) {
        self.eo_of[site]
    }

    /// Split a full field into (even, odd) halves.
    pub fn split(&self, f: &FermionField) -> (EoField, EoField) {
        let mut even = EoField::zero(self.half_volume());
        let mut odd = EoField::zero(self.half_volume());
        for x in self.lat.sites() {
            let (p, d) = self.eo_of[x];
            if p == 0 {
                even.data[d] = *f.site(x);
            } else {
                odd.data[d] = *f.site(x);
            }
        }
        (even, odd)
    }

    /// Join parity halves back into a full field.
    pub fn join(&self, even: &EoField, odd: &EoField) -> FermionField {
        let mut f = FermionField::zero(self.lat);
        for x in self.lat.sites() {
            let (p, d) = self.eo_of[x];
            *f.site_mut(x) = if p == 0 { even.data[d] } else { odd.data[d] };
        }
        f
    }
}

/// A spinor field living on one checkerboard.
#[derive(Debug, Clone, PartialEq)]
pub struct EoField {
    data: Vec<Spinor>,
}

impl EoField {
    /// The zero half-field.
    pub fn zero(half_volume: usize) -> EoField {
        EoField {
            data: vec![Spinor::ZERO; half_volume],
        }
    }
}

impl KrylovVector for EoField {
    fn dot(&self, rhs: &Self) -> C64 {
        let mut acc = C64::ZERO;
        for (a, b) in self.data.iter().zip(&rhs.data) {
            acc += a.dot(b);
        }
        acc
    }
    fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|s| s.norm_sqr()).sum()
    }
    fn axpy(&mut self, a: C64, rhs: &Self) {
        for (x, y) in self.data.iter_mut().zip(&rhs.data) {
            *x = x.axpy(a, y);
        }
    }
    fn xpay(&mut self, a: C64, rhs: &Self) {
        for (x, y) in self.data.iter_mut().zip(&rhs.data) {
            *x = y.axpy(a, x);
        }
    }
    fn fill_zero(&mut self) {
        for s in &mut self.data {
            *s = Spinor::ZERO;
        }
    }
    fn to_bits(&self) -> Vec<u64> {
        self.data.iter().flat_map(Spinor::to_words).collect()
    }
    fn load_bits(&mut self, bits: &[u64]) {
        assert_eq!(
            bits.len(),
            self.data.len() * WORDS_PER_SPINOR,
            "half-field word count"
        );
        for (sp, words) in self.data.iter_mut().zip(bits.as_chunks().0) {
            *sp = Spinor::from_words(words);
        }
    }
}

/// The even/odd-preconditioned Wilson operator.
#[derive(Debug, Clone)]
pub struct EoWilson<'a> {
    gauge: &'a GaugeField,
    layout: EoLayout,
    kappa: f64,
}

impl<'a> EoWilson<'a> {
    /// Build from a gauge field and hopping parameter.
    pub fn new(gauge: &'a GaugeField, kappa: f64) -> EoWilson<'a> {
        EoWilson {
            gauge,
            layout: EoLayout::new(gauge.lattice()),
            kappa,
        }
    }

    /// The parity-changing hop: `out[target parity] = D in[source parity]`.
    /// `target` is 0 (even) for `D_eo` (odd → even) and 1 for `D_oe`.
    pub fn hop(&self, target: usize, inp: &EoField) -> EoField {
        let lat = self.layout.lat;
        let mut out = EoField::zero(self.layout.half_volume());
        for d in 0..self.layout.half_volume() {
            let x = self.layout.site(target, d);
            let mut acc = Spinor::ZERO;
            for mu in 0..4 {
                let xf = lat.neighbour(x, mu, true);
                let (_, df) = self.layout.eo(xf);
                let hf = inp.data[df]
                    .project(mu, ProjSign::Minus)
                    .mul_su3(self.gauge.link(x, mu));
                acc += Spinor::reconstruct(&hf, mu, ProjSign::Minus);
                let xb = lat.neighbour(x, mu, false);
                let (_, db) = self.layout.eo(xb);
                let hb = inp.data[db]
                    .project(mu, ProjSign::Plus)
                    .adj_mul_su3(self.gauge.link(xb, mu));
                acc += Spinor::reconstruct(&hb, mu, ProjSign::Plus);
            }
            out.data[d] = acc;
        }
        out
    }

    /// The Schur complement `M̂ = 1 − κ² D_eo D_oe` on even sites.
    fn apply_mhat(&self, out: &mut EoField, inp: &EoField) {
        let doe = self.hop(1, inp); // even -> odd
        let deo = self.hop(0, &doe); // odd -> even
        *out = inp.clone();
        out.axpy(C64::real(-self.kappa * self.kappa), &deo);
    }

    /// `M̂† = γ₅ M̂ γ₅` (inherited from the full operator).
    fn apply_mhat_dagger(&self, out: &mut EoField, inp: &EoField) {
        let mut tmp = inp.clone();
        for s in &mut tmp.data {
            *s = s.apply_gamma5();
        }
        let mut mid = EoField::zero(self.layout.half_volume());
        self.apply_mhat(&mut mid, &tmp);
        *out = mid;
        for s in &mut out.data {
            *s = s.apply_gamma5();
        }
    }

    /// Solve `M x = b` by preconditioned CG. Returns the full-lattice
    /// solution and the CG report of the even-site solve.
    pub fn solve(&self, b: &FermionField, params: CgParams) -> (FermionField, CgReport) {
        let (be, bo) = self.layout.split(b);
        // b̂_e = b_e + κ D_eo b_o.
        let deo_bo = self.hop(0, &bo);
        let mut bhat = be.clone();
        bhat.axpy(C64::real(self.kappa), &deo_bo);
        // CG on M̂† M̂ x_e = M̂† b̂.
        let wrapper = EoOperator { op: self };
        let mut xe = EoField::zero(self.layout.half_volume());
        let report = crate::solver::solve_cgne(&wrapper, &mut xe, &bhat, params);
        // x_o = b_o + κ D_oe x_e.
        let doe_xe = self.hop(1, &xe);
        let mut xo = bo.clone();
        xo.axpy(C64::real(self.kappa), &doe_xe);
        (self.layout.join(&xe, &xo), report)
    }
}

/// Adapter implementing the solver trait for the Schur complement.
struct EoOperator<'a, 'g> {
    op: &'a EoWilson<'g>,
}

impl DiracOperator for EoOperator<'_, '_> {
    type Field = EoField;
    fn apply(&self, out: &mut EoField, inp: &EoField) {
        self.op.apply_mhat(out, inp);
    }
    fn apply_dagger(&self, out: &mut EoField, inp: &EoField) {
        self.op.apply_mhat_dagger(out, inp);
    }
    fn name(&self) -> &'static str {
        "wilson-eo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wilson::WilsonDirac;

    fn lat() -> Lattice {
        Lattice::new([4, 4, 4, 4])
    }

    #[test]
    fn split_join_roundtrip() {
        let layout = EoLayout::new(lat());
        let f = FermionField::gaussian(lat(), 1);
        let (e, o) = layout.split(&f);
        let back = layout.join(&e, &o);
        assert_eq!(back.fingerprint(), f.fingerprint());
    }

    #[test]
    fn hop_changes_parity_only() {
        // D_oe of a field supported on even sites lands only on odd sites,
        // matching the full dslash restricted to those sites.
        let gauge = GaugeField::hot(lat(), 2);
        let eo = EoWilson::new(&gauge, 0.1);
        let psi = FermionField::gaussian(lat(), 3);
        let (pe, _po) = eo.layout.split(&psi);
        // Zero odd part, apply full dslash, compare odd output with hop.
        let full_in = eo.layout.join(&pe, &EoField::zero(eo.layout.half_volume()));
        let d = WilsonDirac::new(&gauge, 0.1);
        let mut full_out = FermionField::zero(lat());
        d.dslash(&mut full_out, &full_in);
        let hop_out = eo.hop(1, &pe);
        for dd in 0..eo.layout.half_volume() {
            let x = eo.layout.site(1, dd);
            let want = full_out.site(x);
            let got = &hop_out.data[dd];
            for s in 0..4 {
                for c in 0..3 {
                    assert_eq!(got.0[s].0[c].re.to_bits(), want.0[s].0[c].re.to_bits());
                }
            }
        }
        // The even part of the full dslash output must vanish (parity
        // coupling only).
        for dd in 0..eo.layout.half_volume() {
            let x = eo.layout.site(0, dd);
            assert!(full_out.site(x).norm_sqr() < 1e-30);
        }
    }

    #[test]
    fn preconditioned_solution_matches_unpreconditioned() {
        let gauge = GaugeField::hot(lat(), 4);
        let b = FermionField::gaussian(lat(), 5);
        let kappa = 0.12;
        let params = CgParams {
            tolerance: 1e-10,
            max_iterations: 4000,
        };
        // Unpreconditioned.
        let d = WilsonDirac::new(&gauge, kappa);
        let mut x_full = FermionField::zero(lat());
        let full_report = crate::solver::solve_cgne(&d, &mut x_full, &b, params);
        // Preconditioned.
        let eo = EoWilson::new(&gauge, kappa);
        let (x_eo, eo_report) = eo.solve(&b, params);
        assert!(full_report.converged && eo_report.converged);
        // Same solution.
        let mut diff = x_eo.clone();
        diff.axpy(C64::real(-1.0), &x_full);
        assert!(
            diff.norm_sqr() / x_full.norm_sqr() < 1e-12,
            "solutions differ: {}",
            diff.norm_sqr() / x_full.norm_sqr()
        );
        // And with fewer iterations — the point of the preconditioning.
        assert!(
            eo_report.iterations < full_report.iterations,
            "eo {} vs full {}",
            eo_report.iterations,
            full_report.iterations
        );
    }

    #[test]
    fn preconditioned_residual_is_true_residual() {
        let gauge = GaugeField::hot(lat(), 6);
        let b = FermionField::gaussian(lat(), 7);
        let eo = EoWilson::new(&gauge, 0.11);
        let (x, report) = eo.solve(&b, CgParams::default());
        assert!(report.converged);
        // Verify against the full operator: |Mx - b| / |b| small.
        let d = WilsonDirac::new(&gauge, 0.11);
        let mut mx = FermionField::zero(lat());
        d.apply(&mut mx, &x);
        mx.axpy(C64::real(-1.0), &b);
        assert!((mx.norm_sqr() / b.norm_sqr()).sqrt() < 1e-6);
    }

    #[test]
    fn mhat_is_gamma5_hermitian() {
        let gauge = GaugeField::hot(lat(), 8);
        let eo = EoWilson::new(&gauge, 0.13);
        let hv = eo.layout.half_volume();
        let (u, _) = eo.layout.split(&FermionField::gaussian(lat(), 9));
        let (v, _) = eo.layout.split(&FermionField::gaussian(lat(), 10));
        let mut mv = EoField::zero(hv);
        eo.apply_mhat(&mut mv, &v);
        let mut mdu = EoField::zero(hv);
        eo.apply_mhat_dagger(&mut mdu, &u);
        let a = u.dot(&mv);
        let bb = mdu.dot(&v);
        assert!((a - bb).abs() < 1e-8 * a.abs().max(1.0));
    }
}
