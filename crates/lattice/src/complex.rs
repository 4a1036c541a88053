//! Precision-generic complex arithmetic.
//!
//! Implemented locally (rather than pulling in a numerics crate) so the
//! operation counts feeding the performance model are exactly the ones the
//! code performs: a complex multiply is 4 real multiplies and 2 adds — 3
//! FMAs and 1 multiply on the PPC 440's FPU.
//!
//! The component type is any [`Real`] scalar; [`C64`] and [`C32`] name the
//! two instantiations the rest of the stack uses. All methods execute the
//! same operation sequence for both widths, so the `f64` path is
//! bit-identical to the historic double-precision-only implementation.

use crate::real::Real;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number over a [`Real`] component type (default `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex<T: Real = f64> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Double-precision complex number.
pub type C64 = Complex<f64>;
/// Single-precision complex number.
pub type C32 = Complex<f32>;

impl<T: Real> Complex<T> {
    /// Zero.
    pub const ZERO: Complex<T> = Complex {
        re: T::ZERO,
        im: T::ZERO,
    };
    /// One.
    pub const ONE: Complex<T> = Complex {
        re: T::ONE,
        im: T::ZERO,
    };

    /// Construct from parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Complex<T> {
        Complex { re, im }
    }

    /// A real number.
    #[inline]
    pub const fn real(re: T) -> Complex<T> {
        Complex { re, im: T::ZERO }
    }

    /// Convert (truncate for `f32`, identity for `f64`) from double
    /// precision.
    #[inline]
    pub fn from_c64(z: C64) -> Complex<T> {
        Complex {
            re: T::from_f64(z.re),
            im: T::from_f64(z.im),
        }
    }

    /// Widen to double precision (exact for both supported widths).
    #[inline]
    pub fn to_c64(self) -> C64 {
        C64 {
            re: self.re.to_f64(),
            im: self.im.to_f64(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Complex<T> {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus.
    #[inline]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Modulus.
    #[inline]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Multiply by `i`.
    #[inline]
    pub fn mul_i(self) -> Complex<T> {
        Complex {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiply by `-i`.
    #[inline]
    pub fn mul_neg_i(self) -> Complex<T> {
        Complex {
            re: self.im,
            im: -self.re,
        }
    }

    /// Fused `self + a * b`.
    ///
    /// Written in "broadcast" form — `self + a.re·b + a.im·b̂` with
    /// `b̂ = (−b.im, b.re)` — so each step is one real scalar times a
    /// complex, which the vectorizer packs across adjacent accumulators
    /// without per-multiply lane swizzles. Every component sees exactly
    /// the textbook operation sequence (`x + (−y)` is IEEE-identical to
    /// `x − y`), so results are bit-identical to the naive form.
    #[inline]
    pub fn madd(self, a: Complex<T>, b: Complex<T>) -> Complex<T> {
        let t = Complex {
            re: self.re + a.re * b.re,
            im: self.im + a.re * b.im,
        };
        Complex {
            re: t.re + a.im * (-b.im),
            im: t.im + a.im * b.re,
        }
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn add(self, rhs: Complex<T>) -> Complex<T> {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Complex<T>) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn sub(self, rhs: Complex<T>) -> Complex<T> {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex<T>) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn mul(self, rhs: Complex<T>) -> Complex<T> {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex<T>) {
        *self = *self * rhs;
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn mul(self, rhs: T) -> Complex<T> {
        Complex {
            re: self.re * rhs,
            im: self.im * rhs,
        }
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn div(self, rhs: Complex<T>) -> Complex<T> {
        let d = rhs.norm_sqr();
        Complex {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn neg(self) -> Complex<T> {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<T: Real> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= T::ZERO {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert!(close(a * b / b, a));
    }

    #[test]
    fn conjugation_and_norm() {
        let a = C64::new(3.0, 4.0);
        assert_eq!(a.conj(), C64::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!(close(a * a.conj(), C64::real(25.0)));
    }

    #[test]
    fn i_multiplication_shortcuts() {
        let a = C64::new(2.0, -3.0);
        let i = C64::new(0.0, 1.0);
        assert_eq!(a.mul_i(), a * i);
        assert_eq!(a.mul_neg_i(), a * -i);
        assert_eq!(i * i, -C64::ONE);
    }

    #[test]
    fn madd_matches_expanded_form() {
        let acc = C64::new(0.5, 0.5);
        let a = C64::new(1.5, -2.0);
        let b = C64::new(-0.25, 3.0);
        assert!(close(acc.madd(a, b), acc + a * b));
    }

    #[test]
    fn single_precision_instantiation() {
        let a = C32::new(1.0, 2.0);
        let b = C32::new(3.0, -1.0);
        assert_eq!(a * b, C32::new(5.0, 5.0));
        assert_eq!(C32::from_c64(C64::new(1.0, -0.5)), C32::new(1.0, -0.5));
        assert_eq!(C32::new(1.0, -0.5).to_c64(), C64::new(1.0, -0.5));
    }
}
