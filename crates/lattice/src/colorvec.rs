//! Three-component complex color vectors — the fundamental representation
//! of SU(3), and the per-site degree of freedom of staggered fermions.

use crate::complex::Complex;
use crate::real::Real;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A color-3 vector over a [`Real`] component type (default `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColorVec<T: Real = f64>(pub [Complex<T>; 3]);

impl<T: Real> ColorVec<T> {
    /// The zero vector.
    pub const ZERO: ColorVec<T> = ColorVec([Complex::ZERO; 3]);

    /// Basis vector `e_i`.
    pub fn basis(i: usize) -> ColorVec<T> {
        let mut v = ColorVec::ZERO;
        v.0[i] = Complex::ONE;
        v
    }

    /// Hermitian inner product `⟨self, rhs⟩ = Σ conj(self_i) rhs_i`.
    pub fn dot(&self, rhs: &ColorVec<T>) -> Complex<T> {
        let mut acc = Complex::ZERO;
        for c in 0..3 {
            acc += self.0[c].conj() * rhs.0[c];
        }
        acc
    }

    /// Squared L2 norm.
    pub fn norm_sqr(&self) -> T {
        let mut acc = T::ZERO;
        for z in &self.0 {
            acc += z.norm_sqr();
        }
        acc
    }

    /// Scale by a complex factor.
    pub fn scale(&self, s: Complex<T>) -> ColorVec<T> {
        ColorVec([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }

    /// Multiply by `i` — a swap and a negation per component, no
    /// multiplies.
    #[inline]
    pub fn mul_i(&self) -> ColorVec<T> {
        ColorVec([self.0[0].mul_i(), self.0[1].mul_i(), self.0[2].mul_i()])
    }

    /// Multiply by `-i`.
    #[inline]
    pub fn mul_neg_i(&self) -> ColorVec<T> {
        ColorVec([
            self.0[0].mul_neg_i(),
            self.0[1].mul_neg_i(),
            self.0[2].mul_neg_i(),
        ])
    }

    /// `self + s * rhs`.
    pub fn axpy(&self, s: Complex<T>, rhs: &ColorVec<T>) -> ColorVec<T> {
        ColorVec([
            self.0[0].madd(s, rhs.0[0]),
            self.0[1].madd(s, rhs.0[1]),
            self.0[2].madd(s, rhs.0[2]),
        ])
    }

    /// Convert (truncate for `f32`, identity for `f64`) from double
    /// precision.
    pub fn from_c64_vec(v: &ColorVec<f64>) -> ColorVec<T> {
        ColorVec([
            Complex::from_c64(v.0[0]),
            Complex::from_c64(v.0[1]),
            Complex::from_c64(v.0[2]),
        ])
    }

    /// Widen to double precision (exact for both supported widths).
    pub fn to_c64_vec(&self) -> ColorVec<f64> {
        ColorVec([self.0[0].to_c64(), self.0[1].to_c64(), self.0[2].to_c64()])
    }
}

impl<T: Real> Add for ColorVec<T> {
    type Output = ColorVec<T>;
    fn add(self, rhs: ColorVec<T>) -> ColorVec<T> {
        ColorVec([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
        ])
    }
}

impl<T: Real> AddAssign for ColorVec<T> {
    fn add_assign(&mut self, rhs: ColorVec<T>) {
        for c in 0..3 {
            self.0[c] += rhs.0[c];
        }
    }
}

impl<T: Real> Sub for ColorVec<T> {
    type Output = ColorVec<T>;
    fn sub(self, rhs: ColorVec<T>) -> ColorVec<T> {
        ColorVec([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
        ])
    }
}

impl<T: Real> SubAssign for ColorVec<T> {
    fn sub_assign(&mut self, rhs: ColorVec<T>) {
        for c in 0..3 {
            self.0[c] -= rhs.0[c];
        }
    }
}

impl<T: Real> Neg for ColorVec<T> {
    type Output = ColorVec<T>;
    fn neg(self) -> ColorVec<T> {
        ColorVec([-self.0[0], -self.0[1], -self.0[2]])
    }
}

impl<T: Real> Mul<T> for ColorVec<T> {
    type Output = ColorVec<T>;
    fn mul(self, rhs: T) -> ColorVec<T> {
        ColorVec([self.0[0] * rhs, self.0[1] * rhs, self.0[2] * rhs])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    #[test]
    fn basis_orthonormal() {
        for i in 0..3 {
            for j in 0..3 {
                let d = ColorVec::basis(i).dot(&ColorVec::basis(j));
                let expect = if i == j { C64::ONE } else { C64::ZERO };
                assert_eq!(d, expect);
            }
        }
    }

    #[test]
    fn dot_is_conjugate_symmetric() {
        let a = ColorVec([C64::new(1.0, 2.0), C64::new(-1.0, 0.5), C64::new(0.0, 1.0)]);
        let b = ColorVec([C64::new(2.0, -1.0), C64::new(0.5, 0.5), C64::new(1.0, 0.0)]);
        let ab = a.dot(&b);
        let ba = b.dot(&a);
        assert!((ab - ba.conj()).abs() < 1e-14);
    }

    #[test]
    fn norm_matches_self_dot() {
        let a = ColorVec([C64::new(3.0, 0.0), C64::new(0.0, 4.0), C64::ZERO]);
        assert_eq!(a.norm_sqr(), 25.0);
        assert!((a.dot(&a).re - 25.0).abs() < 1e-14);
        assert!(a.dot(&a).im.abs() < 1e-14);
    }

    #[test]
    fn axpy_matches_expanded() {
        let a = ColorVec::basis(0);
        let b = ColorVec::basis(1);
        let s = C64::new(0.0, 2.0);
        let r = a.axpy(s, &b);
        assert_eq!(r.0[0], C64::ONE);
        assert_eq!(r.0[1], C64::new(0.0, 2.0));
    }

    #[test]
    fn precision_roundtrip() {
        let a = ColorVec([C64::new(1.0, 2.0), C64::new(-0.5, 0.25), C64::ZERO]);
        let lo: ColorVec<f32> = ColorVec::from_c64_vec(&a);
        assert_eq!(lo.to_c64_vec(), a);
    }
}
