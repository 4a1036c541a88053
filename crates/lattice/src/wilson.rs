//! The Wilson Dirac operator — "naive Wilson fermions" of the §4
//! benchmarks.
//!
//! Hopping (κ) normalization:
//!
//! ```text
//! M ψ(x) = ψ(x) − κ Σ_μ [ U_μ(x) (1−γ_μ) ψ(x+μ̂) + U_μ†(x−μ̂) (1+γ_μ) ψ(x−μ̂) ]
//! ```
//!
//! The operator is γ₅-Hermitian (`M† = γ₅ M γ₅`), which is how
//! [`WilsonDirac::apply_dagger`] is implemented, and the spin projection
//! trick of [`crate::spinor`] halves the work and the neighbour traffic.
//!
//! `dslash`, `apply` and `apply_dagger` are one site kernel (`hop`) in
//! one sweep each: `1 − κD` is combined at the site and the γ₅ pair of
//! `M†` rides on the loads and the store, so `M†M` executes the 2 × 1,368
//! flops per site that [`crate::counts`] prices (plus 144 for the exact
//! γ₅ centre/output arithmetic) and allocates nothing.

use crate::complex::{Complex, C64};
use crate::field::{FermionField, GaugeField, NeighbourTable};
use crate::real::Real;
use crate::spinor::{ProjSign, Spinor};

/// The Wilson Dirac operator on a fixed gauge background.
///
/// Generic over the [`Real`] scalar of the gauge/fermion fields; the
/// hopping parameter is always stored in double precision and truncated at
/// application time (identity for the `f64` instantiation).
#[derive(Debug, Clone)]
pub struct WilsonDirac<'a, T: Real = f64> {
    gauge: &'a GaugeField<T>,
    kappa: f64,
    hops: NeighbourTable,
}

impl<'a, T: Real> WilsonDirac<'a, T> {
    /// Build with hopping parameter `kappa` (free-field critical value is
    /// 1/8).
    pub fn new(gauge: &'a GaugeField<T>, kappa: f64) -> WilsonDirac<'a, T> {
        let hops = NeighbourTable::new(gauge.lattice());
        WilsonDirac { gauge, kappa, hops }
    }

    /// The hopping parameter.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// The gauge field.
    pub fn gauge(&self) -> &GaugeField<T> {
        self.gauge
    }

    /// The hopping sum at site `x` — the one kernel behind all three
    /// operator entry points: `(1 ∓ γ_μ)` as the specialised
    /// [`Spinor::project`]/[`Spinor::reconstruct`], the SU(3) multiply on
    /// the half-spinor, eight accumulations from `+0`.
    ///
    /// With `gamma5_in` it is the hopping sum of `γ₅ψ` without forming
    /// `γ₅ψ`: negating spin components 2, 3 of a neighbour turns its
    /// `(1 ∓ γ_μ)` half-spinor into the `(1 ± γ_μ)` one of the unflipped
    /// spinor (`a − (−b)` is `a + b` bit for bit), so only the projection
    /// sign swaps; the reconstruction keeps the operator's own sign.
    #[inline(always)]
    fn hop(&self, inp: &FermionField<T>, x: usize, gamma5_in: bool) -> Spinor<T> {
        let (fwd, bwd) = if gamma5_in {
            (ProjSign::Plus, ProjSign::Minus)
        } else {
            (ProjSign::Minus, ProjSign::Plus)
        };
        let mut acc = Spinor::ZERO;
        for mu in 0..4 {
            // Forward: U_mu(x) (1-gamma_mu) psi(x+mu).
            let xf = self.hops.fwd(x, mu);
            let hf = inp
                .site(xf)
                .project(mu, fwd)
                .mul_su3(self.gauge.link(x, mu));
            acc += Spinor::reconstruct(&hf, mu, ProjSign::Minus);
            // Backward: U_mu(x-mu)^dag (1+gamma_mu) psi(x-mu).
            let xb = self.hops.bwd(x, mu);
            let hb = inp
                .site(xb)
                .project(mu, bwd)
                .adj_mul_su3(self.gauge.link(xb, mu));
            acc += Spinor::reconstruct(&hb, mu, ProjSign::Plus);
        }
        acc
    }

    fn assert_shapes(&self, out: &FermionField<T>, inp: &FermionField<T>) {
        let lat = self.gauge.lattice();
        assert_eq!(inp.lattice(), lat);
        assert_eq!(out.lattice(), lat);
    }

    /// The hopping term alone:
    /// `(Dψ)(x) = Σ_μ [U_μ(x)(1−γ_μ)ψ(x+μ̂) + U†_μ(x−μ̂)(1+γ_μ)ψ(x−μ̂)]`.
    pub fn dslash(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        self.assert_shapes(out, inp);
        for x in inp.lattice().sites() {
            *out.site_mut(x) = self.hop(inp, x, false);
        }
    }

    /// The full operator `M = 1 − κ D`, combined at the site in one pass.
    pub fn apply(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        self.assert_shapes(out, inp);
        let mk = Complex::from_c64(C64::real(-self.kappa));
        for x in inp.lattice().sites() {
            *out.site_mut(x) = inp.site(x).axpy(mk, &self.hop(inp, x, false));
        }
    }

    /// `M† = γ₅ M γ₅` in one pass, with no temporary field.
    ///
    /// The inner γ₅ is folded into the neighbour projections (see `hop`:
    /// those values only feed the SU(3) multiply, which erases the sign of
    /// a zero). The centre term and the outer γ₅ keep the table arithmetic
    /// of [`Spinor::apply_gamma5`], so the result matches the three-sweep
    /// form `γ₅ · apply · γ₅` bit for bit, signed zeros included.
    pub fn apply_dagger(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        self.assert_shapes(out, inp);
        let mk = Complex::from_c64(C64::real(-self.kappa));
        for x in inp.lattice().sites() {
            let d = self.hop(inp, x, true);
            *out.site_mut(x) = inp.site(x).apply_gamma5().axpy(mk, &d).apply_gamma5();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Lattice;

    fn small() -> Lattice {
        Lattice::new([4, 4, 4, 4])
    }

    #[test]
    fn free_field_plane_constant_mode() {
        // On unit links, the constant spinor is an eigenvector of the
        // hopping term with eigenvalue 8 (each of 8 hops contributes the
        // projector pair summing to 2 per direction... in fact
        // sum_mu (1-g)+(1+g) = 8 identity on a constant field).
        let lat = small();
        let gauge = GaugeField::unit(lat);
        let d = WilsonDirac::new(&gauge, 0.1);
        let mut inp = FermionField::zero(lat);
        for x in lat.sites() {
            *inp.site_mut(x) = *FermionField::gaussian(lat, 3).site(0);
        }
        let mut out = FermionField::zero(lat);
        d.dslash(&mut out, &inp);
        for x in lat.sites() {
            for s in 0..4 {
                for c in 0..3 {
                    let expect = inp.site(x).0[s].0[c] * 8.0;
                    assert!((out.site(x).0[s].0[c] - expect).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn operator_reduces_to_identity_at_kappa_zero() {
        let lat = small();
        let gauge = GaugeField::hot(lat, 1);
        let d = WilsonDirac::new(&gauge, 0.0);
        let inp = FermionField::gaussian(lat, 2);
        let mut out = FermionField::zero(lat);
        d.apply(&mut out, &inp);
        for x in lat.sites() {
            for s in 0..4 {
                for c in 0..3 {
                    assert_eq!(
                        out.site(x).0[s].0[c].re.to_bits(),
                        inp.site(x).0[s].0[c].re.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn gamma5_hermiticity() {
        // <u, M v> == <M† u, v> with M† implemented as γ5 M γ5.
        let lat = small();
        let gauge = GaugeField::hot(lat, 7);
        let d = WilsonDirac::new(&gauge, 0.124);
        let u = FermionField::gaussian(lat, 10);
        let v = FermionField::gaussian(lat, 11);
        let mut mv = FermionField::zero(lat);
        d.apply(&mut mv, &v);
        let mut mdag_u = FermionField::zero(lat);
        d.apply_dagger(&mut mdag_u, &u);
        let a = u.dot(&mv);
        let b = mdag_u.dot(&v);
        assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn dslash_is_linear() {
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(lat, 3);
        let d = WilsonDirac::new(&gauge, 0.1);
        let a = FermionField::gaussian(lat, 20);
        let b = FermionField::gaussian(lat, 21);
        let mut ab = a.clone();
        ab.axpy(C64::new(0.5, -0.25), &b);
        let mut out_ab = FermionField::zero(lat);
        d.dslash(&mut out_ab, &ab);
        let mut out_a = FermionField::zero(lat);
        d.dslash(&mut out_a, &a);
        let mut out_b = FermionField::zero(lat);
        d.dslash(&mut out_b, &b);
        out_a.axpy(C64::new(0.5, -0.25), &out_b);
        for x in lat.sites() {
            for s in 0..4 {
                for c in 0..3 {
                    assert!((out_ab.site(x).0[s].0[c] - out_a.site(x).0[s].0[c]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn dslash_couples_only_nearest_neighbours() {
        // A point source spreads exactly one hop per application.
        let lat = small();
        let gauge = GaugeField::hot(lat, 9);
        let d = WilsonDirac::new(&gauge, 0.1);
        let src_site = lat.index([1, 2, 3, 0]);
        let src = FermionField::point_source(lat, src_site);
        let mut out = FermionField::zero(lat);
        d.dslash(&mut out, &src);
        for x in lat.sites() {
            let nonzero = out.site(x).norm_sqr() > 1e-20;
            let is_neighbour = (0..4).any(|mu| {
                lat.neighbour(x, mu, true) == src_site || lat.neighbour(x, mu, false) == src_site
            });
            assert_eq!(nonzero, is_neighbour, "site {:?}", lat.coord(x));
        }
    }

    #[test]
    fn gauge_covariance_of_norm() {
        // A random gauge transformation leaves |M psi| invariant when psi
        // transforms too. We check the weaker invariant: |dslash psi| on a
        // transformed (gauge, psi) pair equals the original.
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge = GaugeField::hot(lat, 30);
        let psi = FermionField::gaussian(lat, 31);
        // Gauge transformation Omega(x).
        let omega = GaugeField::hot(lat, 32); // reuse links[.][0] as Omega
        let mut gauge2 = gauge.clone();
        let mut psi2 = FermionField::zero(lat);
        for x in lat.sites() {
            let om_x = *omega.link(x, 0);
            for mu in 0..4 {
                let xf = lat.neighbour(x, mu, true);
                let om_xf = *omega.link(xf, 0);
                *gauge2.link_mut(x, mu) = om_x * *gauge.link(x, mu) * om_xf.adjoint();
            }
            let s = psi.site(x);
            let mut t = Spinor::ZERO;
            for sp in 0..4 {
                t.0[sp] = om_x.mul_vec(&s.0[sp]);
            }
            *psi2.site_mut(x) = t;
        }
        let d1 = WilsonDirac::new(&gauge, 0.11);
        let d2 = WilsonDirac::new(&gauge2, 0.11);
        let mut o1 = FermionField::zero(lat);
        let mut o2 = FermionField::zero(lat);
        d1.apply(&mut o1, &psi);
        d2.apply(&mut o2, &psi2);
        assert!(
            (o1.norm_sqr() - o2.norm_sqr()).abs() < 1e-8 * o1.norm_sqr(),
            "{} vs {}",
            o1.norm_sqr(),
            o2.norm_sqr()
        );
    }
}
