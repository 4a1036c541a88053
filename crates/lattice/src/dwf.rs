//! Domain-wall fermions — the five-dimensional discretization §4 calls "a
//! prime target for much of our work with QCDOC".
//!
//! Shamir domain walls: `Ls` copies of a 4-D Wilson operator at negative
//! mass `−M5` (the domain-wall height), coupled along the fifth dimension
//! by the chiral projectors `P_± = (1 ± γ₅)/2`, with the physical quark
//! mass `m_f` entering through the boundary condition that links the two
//! walls:
//!
//! ```text
//! (D ψ)_s = D_W(−M5) ψ_s + ψ_s
//!           − P_− ψ_{s+1} − P_+ ψ_{s−1}           (bulk)
//! ψ_{Ls} → −m_f ψ_0  (through P_−),   ψ_{−1} → −m_f ψ_{Ls−1}  (through P_+)
//! ```
//!
//! The gauge field is four-dimensional and identical on every `s` slice —
//! exactly why the machine's mesh suits the 5-D formulation: the fifth
//! dimension carries no gauge links and maps onto a sixth machine axis (or
//! stays node-local).
//!
//! `D† = Γ₅ D Γ₅` with `Γ₅ ψ_s = γ₅ ψ_{Ls−1−s}` (the 5-D reflection).

use crate::complex::{Complex, C64};
use crate::field::{FermionField, GaugeField, Lattice};
use crate::real::Real;
use crate::spinor::Spinor;
use crate::wilson::WilsonDirac;

/// A 5-D fermion field: `Ls` four-dimensional spinor fields.
#[derive(Debug, Clone, PartialEq)]
pub struct DwfField<T: Real = f64> {
    slices: Vec<FermionField<T>>,
}

impl<T: Real> DwfField<T> {
    /// The zero field with `ls` slices.
    pub fn zero(lat: Lattice, ls: usize) -> DwfField<T> {
        assert!(ls >= 2, "domain walls need Ls >= 2");
        DwfField {
            slices: (0..ls).map(|_| FermionField::zero(lat)).collect(),
        }
    }

    /// Number of fifth-dimension slices.
    pub fn ls(&self) -> usize {
        self.slices.len()
    }

    /// The 4-D lattice.
    pub fn lattice(&self) -> Lattice {
        self.slices[0].lattice()
    }

    /// Slice accessor.
    pub fn slice(&self, s: usize) -> &FermionField<T> {
        &self.slices[s]
    }

    /// Mutable slice accessor.
    pub fn slice_mut(&mut self, s: usize) -> &mut FermionField<T> {
        &mut self.slices[s]
    }

    /// Hermitian inner product over all slices, in slice-then-site order,
    /// accumulated in double precision.
    pub fn dot(&self, rhs: &DwfField<T>) -> C64 {
        assert_eq!(self.ls(), rhs.ls());
        let mut acc = C64::ZERO;
        for s in 0..self.ls() {
            acc += self.slices[s].dot(&rhs.slices[s]);
        }
        acc
    }

    /// Squared norm, accumulated in double precision.
    pub fn norm_sqr(&self) -> f64 {
        self.slices.iter().map(|f| f.norm_sqr()).sum()
    }

    /// `self += a * rhs`.
    pub fn axpy(&mut self, a: C64, rhs: &DwfField<T>) {
        for s in 0..self.ls() {
            self.slices[s].axpy(a, &rhs.slices[s]);
        }
    }

    /// `self = a * self + rhs`.
    pub fn xpay(&mut self, a: C64, rhs: &DwfField<T>) {
        for s in 0..self.ls() {
            self.slices[s].xpay(a, &rhs.slices[s]);
        }
    }
}

impl DwfField {
    /// Gaussian random field, deterministic per (slice, site).
    pub fn gaussian(lat: Lattice, ls: usize, seed: u64) -> DwfField {
        DwfField {
            slices: (0..ls)
                .map(|s| FermionField::gaussian(lat, seed.wrapping_add(s as u64 * 0x9E37)))
                .collect(),
        }
    }

    /// Truncate every slice to single precision.
    pub fn to_f32(&self) -> DwfField<f32> {
        DwfField {
            slices: self.slices.iter().map(FermionField::to_f32).collect(),
        }
    }
}

impl DwfField<f32> {
    /// Widen every slice to double precision (exact).
    pub fn to_f64(&self) -> DwfField {
        DwfField {
            slices: self.slices.iter().map(FermionField::to_f64).collect(),
        }
    }
}

/// Chiral projection `P_± ψ = (1 ± γ₅)/2 ψ` — diagonal in the chiral
/// basis: `P_+` keeps spins (0,1), `P_−` keeps spins (2,3).
fn chiral_project<T: Real>(s: &Spinor<T>, plus: bool) -> Spinor<T> {
    let mut out = Spinor::ZERO;
    if plus {
        out.0[0] = s.0[0];
        out.0[1] = s.0[1];
    } else {
        out.0[2] = s.0[2];
        out.0[3] = s.0[3];
    }
    out
}

/// The Shamir domain-wall operator.
///
/// Generic over the [`Real`] scalar; `m5`/`mf` stay double precision and
/// are truncated at application time.
#[derive(Debug, Clone)]
pub struct DwfDirac<'a, T: Real = f64> {
    gauge: &'a GaugeField<T>,
    /// The 4-D hopping term, built once so its neighbour table is shared
    /// by every slice of every application (kappa is unused; dslash only).
    wilson: WilsonDirac<'a, T>,
    /// Domain-wall height (0 < M5 < 2 for one physical mode).
    pub m5: f64,
    /// Physical quark mass coupling the walls.
    pub mf: f64,
    /// Fifth-dimension extent.
    pub ls: usize,
}

impl<'a, T: Real> DwfDirac<'a, T> {
    /// Build the operator.
    pub fn new(gauge: &'a GaugeField<T>, m5: f64, mf: f64, ls: usize) -> DwfDirac<'a, T> {
        assert!(ls >= 2);
        let wilson = WilsonDirac::new(gauge, 0.0);
        DwfDirac {
            gauge,
            wilson,
            m5,
            mf,
            ls,
        }
    }

    /// Apply `D` to a 5-D field.
    pub fn apply(&self, out: &mut DwfField<T>, inp: &DwfField<T>) {
        assert_eq!(inp.ls(), self.ls);
        let lat = self.gauge.lattice();
        // 4-D part per slice: (4 - M5) psi_s - (1/2) Dslash_W psi_s, i.e. a
        // Wilson operator at negative mass. Reuse the Wilson hopping term.
        let diag = Complex::from_c64(C64::real(4.0 - self.m5 + 1.0)); // Wilson diagonal + the 5-D "+1"
        let half = Complex::from_c64(C64::real(-0.5));
        let mmf = Complex::from_c64(C64::real(-self.mf));
        let mut hop = FermionField::zero(lat);
        for s in 0..self.ls {
            self.wilson.dslash(&mut hop, inp.slice(s));
            let o = out.slice_mut(s);
            for x in lat.sites() {
                // 4-D Wilson at mass −M5 plus the 5-D diagonal unit.
                let mut acc = inp.slice(s).site(x).scale(diag);
                acc = acc.axpy(half, hop.site(x));
                // Fifth-dimension hopping with wall boundary conditions.
                let up = if s + 1 < self.ls {
                    chiral_project(inp.slice(s + 1).site(x), false)
                } else {
                    chiral_project(inp.slice(0).site(x), false).scale(mmf)
                };
                let down = if s > 0 {
                    chiral_project(inp.slice(s - 1).site(x), true)
                } else {
                    chiral_project(inp.slice(self.ls - 1).site(x), true).scale(mmf)
                };
                acc = acc - up - down;
                *o.site_mut(x) = acc;
            }
        }
    }

    /// `D† = Γ₅ D Γ₅` with the 5-D reflection `Γ₅ ψ_s = γ₅ ψ_{Ls−1−s}`.
    pub fn apply_dagger(&self, out: &mut DwfField<T>, inp: &DwfField<T>) {
        let lat = self.gauge.lattice();
        let mut tmp = DwfField::zero(lat, self.ls);
        gamma5_reflect(&mut tmp, inp);
        let mut mid = DwfField::zero(lat, self.ls);
        self.apply(&mut mid, &tmp);
        gamma5_reflect(out, &mid);
    }
}

/// `out_s = γ₅ in_{Ls−1−s}`.
fn gamma5_reflect<T: Real>(out: &mut DwfField<T>, inp: &DwfField<T>) {
    let ls = inp.ls();
    let lat = inp.lattice();
    for s in 0..ls {
        let src = inp.slice(ls - 1 - s);
        let dst = out.slice_mut(s);
        for x in lat.sites() {
            *dst.site_mut(x) = src.site(x).apply_gamma5();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> Lattice {
        Lattice::new([2, 2, 2, 4])
    }

    #[test]
    fn gamma5_reflection_is_involution() {
        let f = DwfField::gaussian(lat(), 4, 60);
        let mut once = DwfField::zero(lat(), 4);
        gamma5_reflect(&mut once, &f);
        let mut twice = DwfField::zero(lat(), 4);
        gamma5_reflect(&mut twice, &once);
        for s in 0..4 {
            assert_eq!(twice.slice(s).fingerprint(), f.slice(s).fingerprint());
        }
    }

    #[test]
    fn dagger_matches_inner_product() {
        let gauge = GaugeField::hot(lat(), 61);
        let d = DwfDirac::new(&gauge, 1.8, 0.04, 6);
        let u = DwfField::gaussian(lat(), 6, 62);
        let v = DwfField::gaussian(lat(), 6, 63);
        let mut dv = DwfField::zero(lat(), 6);
        d.apply(&mut dv, &v);
        let mut ddag_u = DwfField::zero(lat(), 6);
        d.apply_dagger(&mut ddag_u, &u);
        let a = u.dot(&dv);
        let b = ddag_u.dot(&v);
        assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn operator_is_local_in_s_to_one_hop() {
        let gauge = GaugeField::hot(lat(), 64);
        let d = DwfDirac::new(&gauge, 1.8, 0.1, 8);
        // Both chiralities present so both s-neighbours are reached.
        let mut src = DwfField::zero(lat(), 8);
        *src.slice_mut(3) = FermionField::gaussian(lat(), 69);
        let mut out = DwfField::zero(lat(), 8);
        d.apply(&mut out, &src);
        for s in 0..8 {
            let active = out.slice(s).norm_sqr() > 1e-20;
            assert_eq!(active, (2..=4).contains(&s), "slice {s}");
        }
    }

    #[test]
    fn walls_couple_through_mf() {
        let gauge = GaugeField::unit(lat());
        // With mf = 0 a source on slice 0 cannot reach slice Ls-1 in one
        // application; with mf != 0 it can (the wall-to-wall term).
        // The source needs both chiralities: P_− carries the wall-to-wall
        // coupling, and a spin-0 point source is annihilated by it.
        let mut src = DwfField::zero(lat(), 4);
        *src.slice_mut(0) = FermionField::gaussian(lat(), 68);
        let d0 = DwfDirac::new(&gauge, 1.8, 0.0, 4);
        let mut out0 = DwfField::zero(lat(), 4);
        d0.apply(&mut out0, &src);
        assert!(out0.slice(3).norm_sqr() < 1e-20);
        let dm = DwfDirac::new(&gauge, 1.8, 0.5, 4);
        let mut outm = DwfField::zero(lat(), 4);
        dm.apply(&mut outm, &src);
        assert!(outm.slice(3).norm_sqr() > 1e-20);
    }

    #[test]
    fn five_d_linearity() {
        let gauge = GaugeField::hot(lat(), 65);
        let d = DwfDirac::new(&gauge, 1.8, 0.04, 4);
        let a = DwfField::gaussian(lat(), 4, 66);
        let b = DwfField::gaussian(lat(), 4, 67);
        let s = C64::new(0.3, 0.7);
        let mut combo = a.clone();
        combo.axpy(s, &b);
        let mut out_combo = DwfField::zero(lat(), 4);
        d.apply(&mut out_combo, &combo);
        let mut out_a = DwfField::zero(lat(), 4);
        d.apply(&mut out_a, &a);
        let mut out_b = DwfField::zero(lat(), 4);
        d.apply(&mut out_b, &b);
        out_a.axpy(s, &out_b);
        let mut diff = out_combo.clone();
        diff.axpy(C64::real(-1.0), &out_a);
        assert!(diff.norm_sqr() < 1e-16 * out_combo.norm_sqr().max(1.0));
    }
}
