//! The clover-improved Wilson operator — the best performer of the §4
//! benchmarks (46.5% of peak).
//!
//! `M = A(x) − κ D_hop`, where the clover term
//! `A(x) = 1 + (c_sw κ / 2) Σ_{μ<ν} σ_μν F_μν(x)` removes the O(a)
//! discretization error. `F_μν` is the traceless anti-Hermitian part of the
//! four "clover leaf" plaquettes around the site. Because σ_μν commutes
//! with γ₅ in the chiral basis, `A` is block-diagonal in chirality: two
//! Hermitian 6×6 (spin⊗color) blocks per site, which is also how real
//! clover codes store and apply it.

use crate::complex::{Complex, C64};
use crate::field::{FermionField, GaugeField, Lattice};
use crate::gamma::sigma;
use crate::real::Real;
use crate::su3::Su3;
use crate::wilson::WilsonDirac;

/// One site's clover term: Hermitian 6×6 blocks for the two chiralities.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CloverSite<T: Real = f64> {
    /// Upper-chirality block (spins 0, 1).
    pub upper: [[Complex<T>; 6]; 6],
    /// Lower-chirality block (spins 2, 3).
    pub lower: [[Complex<T>; 6]; 6],
}

impl<T: Real> CloverSite<T> {
    fn identity() -> CloverSite<T> {
        let mut b = [[Complex::ZERO; 6]; 6];
        for (i, row) in b.iter_mut().enumerate() {
            row[i] = Complex::ONE;
        }
        CloverSite { upper: b, lower: b }
    }
}

/// The field-strength tensor at `x` in the (μ,ν) plane from the four
/// clover leaves: `F = (Q − Q†)/8` with the trace removed, where `Q` is
/// the sum of the four plaquette loops around `x`.
fn clover_field_strength<T: Real>(gauge: &GaugeField<T>, x: usize, mu: usize, nu: usize) -> Su3<T> {
    let lat = gauge.lattice();
    let xpm = lat.neighbour(x, mu, true);
    let xpn = lat.neighbour(x, nu, true);
    let xmm = lat.neighbour(x, mu, false);
    let xmn = lat.neighbour(x, nu, false);
    let xpm_mn = lat.neighbour(xpm, nu, false);
    let xmm_pn = lat.neighbour(xmm, nu, true);
    let xmm_mn = lat.neighbour(xmm, nu, false);

    let u = |s: usize, d: usize| *gauge.link(s, d);

    // Leaf 1: x -> x+mu -> x+mu+nu -> x+nu -> x.
    let q1 = u(x, mu) * u(xpm, nu) * u(xpn, mu).adjoint() * u(x, nu).adjoint();
    // Leaf 2: x -> x+nu -> x-mu+nu -> x-mu -> x.
    let q2 = u(x, nu) * u(xmm_pn, mu).adjoint() * u(xmm, nu).adjoint() * u(xmm, mu);
    // Leaf 3: x -> x-mu -> x-mu-nu -> x-nu -> x.
    let q3 = u(xmm, mu).adjoint() * u(xmm_mn, nu).adjoint() * u(xmm_mn, mu) * u(xmn, nu);
    // Leaf 4: x -> x-nu -> x+mu-nu -> x+mu -> x.
    let q4 = u(xmn, nu).adjoint() * u(xmn, mu) * u(xpm_mn, nu) * u(x, mu).adjoint();

    let q = q1 + q2 + q3 + q4;
    let anti = q - q.adjoint();
    // Remove the trace and scale by 1/8.
    let tr = anti.trace() * T::from_f64(1.0 / 3.0);
    let mut f = anti.scale(Complex::real(T::from_f64(0.125)));
    for d in 0..3 {
        f.0[d][d] -= tr * T::from_f64(0.125);
    }
    f
}

/// The clover Dirac operator with precomputed per-site clover blocks.
///
/// Generic over the [`Real`] scalar: at `f32` the clover blocks are built
/// from the single-precision gauge field with the same operation sequence,
/// so the term is a deterministic function of the truncated links.
#[derive(Debug, Clone)]
pub struct CloverDirac<'a, T: Real = f64> {
    wilson: WilsonDirac<'a, T>,
    terms: Vec<CloverSite<T>>,
}

impl<'a, T: Real> CloverDirac<'a, T> {
    /// Build with hopping parameter `kappa` and clover coefficient `csw`
    /// (tree level: 1.0).
    pub fn new(gauge: &'a GaugeField<T>, kappa: f64, csw: f64) -> CloverDirac<'a, T> {
        let lat = gauge.lattice();
        let coeff = T::from_f64(csw * kappa * 0.5);
        let mut terms = Vec::with_capacity(lat.volume());
        for x in lat.sites() {
            let mut site = CloverSite::identity();
            for mu in 0..4 {
                for nu in (mu + 1)..4 {
                    let f = clover_field_strength(gauge, x, mu, nu);
                    let s = sigma(mu, nu);
                    // sigma is block diagonal: upper 2x2 (spins 0,1) and
                    // lower 2x2 (spins 2,3).
                    for s1 in 0..2 {
                        for s2 in 0..2 {
                            for c1 in 0..3 {
                                for c2 in 0..3 {
                                    // F is anti-Hermitian; i*sigma*F... the
                                    // Hermitian combination is sigma ⊗ (i F)
                                    // since sigma is Hermitian and iF is
                                    // Hermitian.
                                    let v =
                                        Complex::from_c64(s[s1][s2]) * f.0[c1][c2].mul_i() * coeff;
                                    site.upper[3 * s1 + c1][3 * s2 + c2] += v;
                                    let vl = Complex::from_c64(s[s1 + 2][s2 + 2])
                                        * f.0[c1][c2].mul_i()
                                        * coeff;
                                    site.lower[3 * s1 + c1][3 * s2 + c2] += vl;
                                }
                            }
                        }
                    }
                }
            }
            terms.push(site);
        }
        CloverDirac {
            wilson: WilsonDirac::new(gauge, kappa),
            terms,
        }
    }

    /// The lattice.
    pub fn lattice(&self) -> Lattice {
        self.wilson.gauge().lattice()
    }

    /// Apply the clover term alone: `out = A inp`.
    fn apply_clover_term(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        let lat = self.lattice();
        for x in lat.sites() {
            let t = &self.terms[x];
            let s = inp.site(x);
            let mut o = crate::spinor::Spinor::ZERO;
            for row in 0..6 {
                let (rs, rc) = (row / 3, row % 3);
                let mut up = Complex::ZERO;
                let mut lo = Complex::ZERO;
                for col in 0..6 {
                    let (cs, cc) = (col / 3, col % 3);
                    up = up.madd(t.upper[row][col], s.0[cs].0[cc]);
                    lo = lo.madd(t.lower[row][col], s.0[cs + 2].0[cc]);
                }
                o.0[rs].0[rc] = up;
                o.0[rs + 2].0[rc] = lo;
            }
            *out.site_mut(x) = o;
        }
    }

    /// Apply the full operator: `out = A inp − κ D inp`.
    pub fn apply(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        let lat = self.lattice();
        let mut hop = FermionField::zero(lat);
        self.wilson.dslash(&mut hop, inp);
        self.apply_clover_term(out, inp);
        let mk = C64::real(-self.wilson.kappa());
        out.axpy(mk, &hop);
    }

    /// `M† = γ₅ M γ₅` (the clover term commutes with γ₅).
    pub fn apply_dagger(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        let lat = self.lattice();
        let mut tmp = FermionField::zero(lat);
        for x in lat.sites() {
            *tmp.site_mut(x) = inp.site(x).apply_gamma5();
        }
        self.apply(out, &tmp);
        for x in lat.sites() {
            let g = out.site(x).apply_gamma5();
            *out.site_mut(x) = g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> Lattice {
        Lattice::new([4, 4, 2, 2])
    }

    #[test]
    fn field_strength_vanishes_on_unit_links() {
        let gauge: GaugeField = GaugeField::unit(lat());
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                let f = clover_field_strength(&gauge, 0, mu, nu);
                assert!(f.distance(&Su3::ZERO) < 1e-14);
            }
        }
    }

    #[test]
    fn field_strength_is_antihermitian_traceless() {
        let gauge = GaugeField::hot(lat(), 5);
        for x in [0, 7, 13] {
            for mu in 0..4 {
                for nu in (mu + 1)..4 {
                    let f = clover_field_strength(&gauge, x, mu, nu);
                    assert!((f + f.adjoint()).distance(&Su3::ZERO) < 1e-12);
                    assert!(f.trace().abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn clover_blocks_are_hermitian() {
        let gauge = GaugeField::hot(lat(), 6);
        let d = CloverDirac::new(&gauge, 0.12, 1.0);
        for x in [0, 3, 11] {
            let t = &d.terms[x];
            for r in 0..6 {
                for c in 0..6 {
                    assert!((t.upper[r][c] - t.upper[c][r].conj()).abs() < 1e-12);
                    assert!((t.lower[r][c] - t.lower[c][r].conj()).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn reduces_to_wilson_on_unit_links() {
        // F = 0 on the free field, so A = 1 and clover == Wilson.
        let gauge = GaugeField::unit(lat());
        let dc = CloverDirac::new(&gauge, 0.11, 1.0);
        let dw = WilsonDirac::new(&gauge, 0.11);
        let inp = FermionField::gaussian(lat(), 9);
        let mut oc = FermionField::zero(lat());
        let mut ow = FermionField::zero(lat());
        dc.apply(&mut oc, &inp);
        dw.apply(&mut ow, &inp);
        for x in lat().sites() {
            for s in 0..4 {
                for c in 0..3 {
                    assert!((oc.site(x).0[s].0[c] - ow.site(x).0[s].0[c]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn reduces_to_wilson_at_csw_zero() {
        let gauge = GaugeField::hot(lat(), 12);
        let dc = CloverDirac::new(&gauge, 0.1, 0.0);
        let dw = WilsonDirac::new(&gauge, 0.1);
        let inp = FermionField::gaussian(lat(), 13);
        let mut oc = FermionField::zero(lat());
        let mut ow = FermionField::zero(lat());
        dc.apply(&mut oc, &inp);
        dw.apply(&mut ow, &inp);
        for x in lat().sites() {
            for s in 0..4 {
                for c in 0..3 {
                    assert!((oc.site(x).0[s].0[c] - ow.site(x).0[s].0[c]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn gamma5_hermiticity() {
        let gauge = GaugeField::hot(lat(), 21);
        let d = CloverDirac::new(&gauge, 0.13, 1.2);
        let u = FermionField::gaussian(lat(), 22);
        let v = FermionField::gaussian(lat(), 23);
        let mut mv = FermionField::zero(lat());
        d.apply(&mut mv, &v);
        let mut mdag_u = FermionField::zero(lat());
        d.apply_dagger(&mut mdag_u, &u);
        let a = u.dot(&mv);
        let b = mdag_u.dot(&v);
        assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn clover_term_alone_is_hermitian_operator() {
        let gauge = GaugeField::hot(lat(), 25);
        let d = CloverDirac::new(&gauge, 0.1, 1.0);
        let u = FermionField::gaussian(lat(), 26);
        let v = FermionField::gaussian(lat(), 27);
        let mut av = FermionField::zero(lat());
        d.apply_clover_term(&mut av, &v);
        let mut au = FermionField::zero(lat());
        d.apply_clover_term(&mut au, &u);
        let x = u.dot(&av);
        let y = au.dot(&v);
        assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
    }
}
