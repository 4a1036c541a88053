//! SU(3) matrices — the gauge links of lattice QCD.

use crate::colorvec::ColorVec;
use crate::complex::{Complex, C64};
use crate::real::Real;
use std::ops::{Add, Mul, Sub};

/// A 3×3 complex matrix, usually (but not necessarily) in SU(3), over a
/// [`Real`] component type (default `f64`).
///
/// Row-major storage: `m[row][col]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Su3<T: Real = f64>(pub [[Complex<T>; 3]; 3]);

impl<T: Real> Default for Su3<T> {
    fn default() -> Self {
        Su3::IDENTITY
    }
}

impl<T: Real> Su3<T> {
    /// The zero matrix.
    pub const ZERO: Su3<T> = Su3([[Complex::ZERO; 3]; 3]);

    /// The identity.
    pub const IDENTITY: Su3<T> = Su3([
        [Complex::ONE, Complex::ZERO, Complex::ZERO],
        [Complex::ZERO, Complex::ONE, Complex::ZERO],
        [Complex::ZERO, Complex::ZERO, Complex::ONE],
    ]);

    /// Hermitian conjugate (adjoint).
    pub fn adjoint(&self) -> Su3<T> {
        let mut out = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.0[r][c] = self.0[c][r].conj();
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> Complex<T> {
        self.0[0][0] + self.0[1][1] + self.0[2][2]
    }

    /// Determinant.
    pub fn det(&self) -> Complex<T> {
        let m = &self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &ColorVec<T>) -> ColorVec<T> {
        let mut out = ColorVec::ZERO;
        for r in 0..3 {
            let mut acc = Complex::ZERO;
            for c in 0..3 {
                acc = acc.madd(self.0[r][c], v.0[c]);
            }
            out.0[r] = acc;
        }
        out
    }

    /// Adjoint-matrix–vector product `U† v` without forming the adjoint.
    pub fn adj_mul_vec(&self, v: &ColorVec<T>) -> ColorVec<T> {
        let mut out = ColorVec::ZERO;
        for r in 0..3 {
            let mut acc = Complex::ZERO;
            for c in 0..3 {
                acc = acc.madd(self.0[c][r].conj(), v.0[c]);
            }
            out.0[r] = acc;
        }
        out
    }

    /// Two matrix–vector products sharing one matrix traversal — the shape
    /// of a half-spinor hop, where both spin components see the same link.
    /// Each accumulator runs exactly the [`Su3::mul_vec`] operation
    /// sequence (results are bit-identical); interleaving the two
    /// independent chains lets the compiler pack them into wider vector
    /// registers, which is where single precision earns its 2× lane
    /// advantage.
    #[inline(always)]
    pub fn mul_vec2(&self, a: &ColorVec<T>, b: &ColorVec<T>) -> (ColorVec<T>, ColorVec<T>) {
        let mut oa = ColorVec::ZERO;
        let mut ob = ColorVec::ZERO;
        for r in 0..3 {
            let mut acc_a = Complex::ZERO;
            let mut acc_b = Complex::ZERO;
            for c in 0..3 {
                let u = self.0[r][c];
                acc_a = acc_a.madd(u, a.0[c]);
                acc_b = acc_b.madd(u, b.0[c]);
            }
            oa.0[r] = acc_a;
            ob.0[r] = acc_b;
        }
        (oa, ob)
    }

    /// Paired adjoint products `(U†a, U†b)`; see [`Su3::mul_vec2`].
    #[inline(always)]
    pub fn adj_mul_vec2(&self, a: &ColorVec<T>, b: &ColorVec<T>) -> (ColorVec<T>, ColorVec<T>) {
        let mut oa = ColorVec::ZERO;
        let mut ob = ColorVec::ZERO;
        for r in 0..3 {
            let mut acc_a = Complex::ZERO;
            let mut acc_b = Complex::ZERO;
            for c in 0..3 {
                let u = self.0[c][r].conj();
                acc_a = acc_a.madd(u, a.0[c]);
                acc_b = acc_b.madd(u, b.0[c]);
            }
            oa.0[r] = acc_a;
            ob.0[r] = acc_b;
        }
        (oa, ob)
    }

    /// Scale by a complex number.
    pub fn scale(&self, s: Complex<T>) -> Su3<T> {
        let mut out = *self;
        for r in 0..3 {
            for c in 0..3 {
                out.0[r][c] = self.0[r][c] * s;
            }
        }
        out
    }

    /// Frobenius distance to another matrix.
    pub fn distance(&self, rhs: &Su3<T>) -> T {
        let mut acc = T::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                acc += (self.0[r][c] - rhs.0[r][c]).norm_sqr();
            }
        }
        acc.sqrt()
    }

    /// Deviation from unitarity: `‖U†U − 1‖_F`.
    pub fn unitarity_error(&self) -> T {
        (self.adjoint() * *self).distance(&Su3::IDENTITY)
    }

    /// Project back onto SU(3) by Gram–Schmidt on the rows plus a
    /// determinant fix on the third row — the standard reunitarization that
    /// keeps long evolutions on the group manifold.
    pub fn reunitarize(&self) -> Su3<T> {
        let mut r0 = ColorVec([self.0[0][0], self.0[0][1], self.0[0][2]]);
        let n0 = r0.norm_sqr().sqrt();
        r0 = r0 * (T::ONE / n0);
        let mut r1 = ColorVec([self.0[1][0], self.0[1][1], self.0[1][2]]);
        let proj = r0.dot(&r1);
        r1 = r1.axpy(-proj, &r0);
        let n1 = r1.norm_sqr().sqrt();
        r1 = r1 * (T::ONE / n1);
        // Third row = (r0 × r1)* makes det exactly +1.
        let r2 = ColorVec([
            (r0.0[1] * r1.0[2] - r0.0[2] * r1.0[1]).conj(),
            (r0.0[2] * r1.0[0] - r0.0[0] * r1.0[2]).conj(),
            (r0.0[0] * r1.0[1] - r0.0[1] * r1.0[0]).conj(),
        ]);
        Su3([
            [r0.0[0], r0.0[1], r0.0[2]],
            [r1.0[0], r1.0[1], r1.0[2]],
            [r2.0[0], r2.0[1], r2.0[2]],
        ])
    }

    /// Convert (truncate for `f32`, identity for `f64`) from double
    /// precision.
    pub fn from_c64_mat(m: &Su3<f64>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.0[r][c] = Complex::from_c64(m.0[r][c]);
            }
        }
        out
    }
}

impl Su3 {
    /// Embed an SU(2) matrix `[[a, b], [-b*, a*]]` into the SU(3) subgroup
    /// acting on rows/columns `(p, q)` — the building block of the
    /// Cabibbo–Marinari heatbath.
    pub fn from_su2(a: C64, b: C64, p: usize, q: usize) -> Su3 {
        debug_assert!(p < q && q < 3);
        let mut m = Su3::IDENTITY;
        m.0[p][p] = a;
        m.0[p][q] = b;
        m.0[q][p] = -b.conj();
        m.0[q][q] = a.conj();
        m
    }

    /// The (p,q) SU(2) block of this matrix, projected to the nearest SU(2)
    /// element times a magnitude: returns `(a, b, k)` such that
    /// `[[a, b], [-b*, a*]] * k` best matches the block.
    pub fn su2_project(&self, p: usize, q: usize) -> (C64, C64, f64) {
        // Average the block with the adjoint pattern.
        let a = (self.0[p][p] + self.0[q][q].conj()) * 0.5;
        let b = (self.0[p][q] - self.0[q][p].conj()) * 0.5;
        let k = (a.norm_sqr() + b.norm_sqr()).sqrt();
        if k < 1e-300 {
            return (C64::ONE, C64::ZERO, 0.0);
        }
        (a * (1.0 / k), b * (1.0 / k), k)
    }
}

impl<T: Real> Add for Su3<T> {
    type Output = Su3<T>;
    fn add(self, rhs: Su3<T>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.0[r][c] = self.0[r][c] + rhs.0[r][c];
            }
        }
        out
    }
}

impl<T: Real> Sub for Su3<T> {
    type Output = Su3<T>;
    fn sub(self, rhs: Su3<T>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.0[r][c] = self.0[r][c] - rhs.0[r][c];
            }
        }
        out
    }
}

impl<T: Real> Mul for Su3<T> {
    type Output = Su3<T>;
    fn mul(self, rhs: Su3<T>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                let mut acc = Complex::ZERO;
                for k in 0..3 {
                    acc = acc.madd(self.0[r][k], rhs.0[k][c]);
                }
                out.0[r][c] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SiteRng;

    fn random_su3(seed: u64) -> Su3 {
        let mut rng = SiteRng::new(seed, 0);
        let mut m = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                m.0[r][c] = C64::new(rng.uniform() - 0.5, rng.uniform() - 0.5);
            }
        }
        m.reunitarize()
    }

    #[test]
    fn identity_properties() {
        let i = Su3::IDENTITY;
        assert_eq!(i * i, i);
        assert_eq!(i.trace(), C64::real(3.0));
        assert!((i.det() - C64::ONE).abs() < 1e-15);
        assert!(i.unitarity_error() < 1e-15);
    }

    #[test]
    fn reunitarized_matrix_is_special_unitary() {
        for seed in 0..20 {
            let u = random_su3(seed);
            assert!(u.unitarity_error() < 1e-12, "seed {seed}");
            assert!(
                (u.det() - C64::ONE).abs() < 1e-12,
                "seed {seed}: det {}",
                u.det()
            );
        }
    }

    #[test]
    fn group_closure() {
        let a = random_su3(1);
        let b = random_su3(2);
        let c = a * b;
        assert!(c.unitarity_error() < 1e-12);
        assert!((c.det() - C64::ONE).abs() < 1e-12);
    }

    #[test]
    fn adjoint_is_inverse() {
        let u = random_su3(3);
        assert!((u * u.adjoint()).distance(&Su3::IDENTITY) < 1e-12);
        assert!((u.adjoint() * u).distance(&Su3::IDENTITY) < 1e-12);
    }

    #[test]
    fn adj_mul_vec_matches_explicit_adjoint() {
        let u = random_su3(4);
        let v = ColorVec([
            C64::new(1.0, -1.0),
            C64::new(0.5, 2.0),
            C64::new(-2.0, 0.25),
        ]);
        let fast = u.adj_mul_vec(&v);
        let slow = u.adjoint().mul_vec(&v);
        for c in 0..3 {
            assert!((fast.0[c] - slow.0[c]).abs() < 1e-13);
        }
    }

    #[test]
    fn mul_vec_preserves_norm_for_unitary() {
        let u = random_su3(5);
        let v = ColorVec([C64::new(0.3, 0.4), C64::new(-1.0, 0.2), C64::new(0.0, 0.9)]);
        let w = u.mul_vec(&v);
        assert!((w.norm_sqr() - v.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn su2_embedding_is_special_unitary() {
        // a, b normalized: |a|^2 + |b|^2 = 1.
        let a = C64::new(0.6, 0.0);
        let b = C64::new(0.0, 0.8);
        for (p, q) in [(0, 1), (0, 2), (1, 2)] {
            let m = Su3::from_su2(a, b, p, q);
            assert!(m.unitarity_error() < 1e-14);
            assert!((m.det() - C64::ONE).abs() < 1e-14);
        }
    }

    #[test]
    fn su2_project_roundtrips_embedded_element() {
        let a = C64::new(0.6, 0.0);
        let b = C64::new(0.48, 0.64);
        // normalize
        let k = (a.norm_sqr() + b.norm_sqr()).sqrt();
        let (a, b) = (a * (1.0 / k), b * (1.0 / k));
        let m = Su3::from_su2(a, b, 0, 2);
        let (pa, pb, pk) = m.su2_project(0, 2);
        assert!((pa - a).abs() < 1e-13);
        assert!((pb - b).abs() < 1e-13);
        assert!((pk - 1.0).abs() < 1e-13);
    }

    #[test]
    fn trace_is_basis_independent_under_conjugation() {
        let u = random_su3(6);
        let v = random_su3(7);
        let t1 = (v * u * v.adjoint()).trace();
        let t2 = u.trace();
        assert!((t1 - t2).abs() < 1e-11);
    }

    #[test]
    fn single_precision_group_closure() {
        let u32m: Su3<f32> = Su3::from_c64_mat(&random_su3(8));
        assert!(u32m.unitarity_error() < 1e-5);
        let sq = u32m * u32m;
        assert!(sq.unitarity_error() < 1e-5);
    }
}
