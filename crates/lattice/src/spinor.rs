//! Dirac 4-spinors, half-spinors, and the Wilson spin-projection trick.
//!
//! A site of a Wilson-type fermion field is a 4-spinor: four spin
//! components, each a color-3 vector (24 reals). The hopping term applies
//! `(1 ∓ γ_μ)`, a rank-2 projector, so only a *half-spinor* (two spin
//! components, 12 reals) needs the SU(3) multiplication and — crucially for
//! the machine — only the half-spinor crosses the mesh to the neighbouring
//! node. The projection/reconstruction identities follow from the
//! permutation-phase structure of the gamma basis (see [`crate::gamma`]).
//!
//! Every phase in that basis is ±1 or ±i, so [`Spinor::project`] and
//! [`Spinor::reconstruct`] never multiply: per direction they are adds,
//! subtracts, negations and re/im swaps — the operations the paper's
//! ledger ([`crate::counts`]) prices. The phase-table form they replaced
//! survives as the test oracle (`tests/oracle`), which holds them to its
//! raw words.
//!
//! Both types are generic over the [`Real`] scalar. The gamma tables
//! (still behind `Spinor::apply_gamma`) stay double precision (their
//! phases are 0, ±1, ±i — exactly representable at any width) and are
//! converted per use via [`Complex::from_c64`], which is the identity for
//! `f64`.

use crate::colorvec::ColorVec;
use crate::complex::Complex;
use crate::gamma::{Gamma, GAMMA5};
use crate::real::Real;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Words in a spinor's bit image ([`Spinor::to_words`]): 4 spins × 3
/// colours × (re, im).
pub const WORDS_PER_SPINOR: usize = 24;

/// A full 4-spinor: spin × color.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Spinor<T: Real = f64>(pub [ColorVec<T>; 4]);

/// The two independent spin components of a projected spinor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HalfSpinor<T: Real = f64>(pub [ColorVec<T>; 2]);

/// Projection sign: `(1 − γ_μ)` for hops in the +μ direction, `(1 + γ_μ)`
/// for hops in −μ (Wilson convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjSign {
    /// `(1 − γ_μ)`.
    Minus,
    /// `(1 + γ_μ)`.
    Plus,
}

impl<T: Real> Spinor<T> {
    /// The zero spinor.
    pub const ZERO: Spinor<T> = Spinor([ColorVec::ZERO; 4]);

    /// Hermitian inner product.
    pub fn dot(&self, rhs: &Spinor<T>) -> Complex<T> {
        let mut acc = Complex::ZERO;
        for s in 0..4 {
            acc += self.0[s].dot(&rhs.0[s]);
        }
        acc
    }

    /// Squared norm.
    pub fn norm_sqr(&self) -> T {
        let mut acc = T::ZERO;
        for c in &self.0 {
            acc += c.norm_sqr();
        }
        acc
    }

    /// Scale by a complex factor.
    pub fn scale(&self, s: Complex<T>) -> Spinor<T> {
        Spinor([
            self.0[0].scale(s),
            self.0[1].scale(s),
            self.0[2].scale(s),
            self.0[3].scale(s),
        ])
    }

    /// `self + a * rhs`.
    #[inline(always)]
    pub fn axpy(&self, a: Complex<T>, rhs: &Spinor<T>) -> Spinor<T> {
        Spinor([
            self.0[0].axpy(a, &rhs.0[0]),
            self.0[1].axpy(a, &rhs.0[1]),
            self.0[2].axpy(a, &rhs.0[2]),
            self.0[3].axpy(a, &rhs.0[3]),
        ])
    }

    /// Apply a gamma matrix (sparse table form).
    #[inline(always)]
    fn apply_gamma(&self, g: &Gamma) -> Spinor<T> {
        let mut out = Spinor::ZERO;
        for r in 0..4 {
            out.0[r] = self.0[g.col[r]].scale(Complex::from_c64(g.phase[r]));
        }
        out
    }

    /// Apply γ_5. Inlined so the constant table folds into the caller
    /// (the single-pass `M†` applies it twice per site).
    #[inline(always)]
    pub fn apply_gamma5(&self) -> Spinor<T> {
        self.apply_gamma(&GAMMA5)
    }

    /// Project `(1 ∓ γ_μ) ψ` down to its two independent spin components.
    ///
    /// Specialised per direction: every phase of [`GAMMA`](crate::gamma::GAMMA)
    /// is ±1 or ±i, so `ψ_s ∓ phase·ψ_col` is an add or subtract of a
    /// (possibly re/im-swapped) component — 12 flops, the ledger's count,
    /// where the table form spent 48. Non-zero values carry the same bits
    /// as the table arithmetic; only the sign of a zero can differ, and
    /// the SU(3) `madd` chain every caller feeds the half-spinor into
    /// starts from `+0` and erases it.
    #[inline(always)]
    pub fn project(&self, mu: usize, sign: ProjSign) -> HalfSpinor<T> {
        use ProjSign::{Minus, Plus};
        let [p0, p1, p2, p3] = self.0;
        HalfSpinor(match (mu, sign) {
            (0, Minus) => [p0 - p3.mul_i(), p1 - p2.mul_i()],
            (0, Plus) => [p0 + p3.mul_i(), p1 + p2.mul_i()],
            (1, Minus) => [p0 + p3, p1 - p2],
            (1, Plus) => [p0 - p3, p1 + p2],
            (2, Minus) => [p0 - p2.mul_i(), p1 + p3.mul_i()],
            (2, Plus) => [p0 + p2.mul_i(), p1 - p3.mul_i()],
            (3, Minus) => [p0 - p2, p1 - p3],
            (3, Plus) => [p0 + p2, p1 + p3],
            _ => panic!("direction {mu} out of range"),
        })
    }

    /// Rebuild the full `(1 ∓ γ_μ)`-projected spinor from its two
    /// independent components: rows 2, 3 are `∓ phase[r] · h[col[r]]`
    /// (see the derivation in [`crate::gamma`]'s docs/tests), which per
    /// direction is a copy, a negation or a `mul_i`/`mul_neg_i` — no
    /// multiplies. Same bits as the table form up to the sign of a zero,
    /// which the caller's `acc += …` (an accumulator that starts at `+0`)
    /// erases.
    #[inline(always)]
    pub fn reconstruct(h: &HalfSpinor<T>, mu: usize, sign: ProjSign) -> Spinor<T> {
        use ProjSign::{Minus, Plus};
        let [h0, h1] = h.0;
        let (r2, r3) = match (mu, sign) {
            (0, Minus) => (h1.mul_i(), h0.mul_i()),
            (0, Plus) => (h1.mul_neg_i(), h0.mul_neg_i()),
            (1, Minus) => (-h1, h0),
            (1, Plus) => (h1, -h0),
            (2, Minus) => (h0.mul_i(), h1.mul_neg_i()),
            (2, Plus) => (h0.mul_neg_i(), h1.mul_i()),
            (3, Minus) => (-h0, -h1),
            (3, Plus) => (h0, h1),
            _ => panic!("direction {mu} out of range"),
        };
        Spinor([h0, h1, r2, r3])
    }

    /// Convert (truncate for `f32`, identity for `f64`) from double
    /// precision.
    pub fn from_f64_spinor(s: &Spinor<f64>) -> Spinor<T> {
        Spinor([
            ColorVec::from_c64_vec(&s.0[0]),
            ColorVec::from_c64_vec(&s.0[1]),
            ColorVec::from_c64_vec(&s.0[2]),
            ColorVec::from_c64_vec(&s.0[3]),
        ])
    }

    /// Widen to double precision (exact for both supported widths).
    pub fn to_f64_spinor(&self) -> Spinor<f64> {
        Spinor([
            self.0[0].to_c64_vec(),
            self.0[1].to_c64_vec(),
            self.0[2].to_c64_vec(),
            self.0[3].to_c64_vec(),
        ])
    }

    /// Flatten to 12 complex numbers — 24 words, spin-major, then colour,
    /// re before im: the per-site image of every checkpointed Krylov
    /// vector (`FermionField::to_bits`, the distributed solver's global
    /// checkpoint). Values are carried as 64-bit IEEE words at both
    /// precisions ([`Real::bits64`]), like [`HalfSpinor::to_words`].
    #[inline]
    pub fn to_words(&self) -> [u64; WORDS_PER_SPINOR] {
        let mut out = [0u64; WORDS_PER_SPINOR];
        let mut k = 0;
        for cv in &self.0 {
            for z in &cv.0 {
                out[k] = z.re.bits64();
                out[k + 1] = z.im.bits64();
                k += 2;
            }
        }
        out
    }

    /// Inverse of [`Spinor::to_words`].
    #[inline]
    pub fn from_words(words: &[u64; WORDS_PER_SPINOR]) -> Spinor<T> {
        let mut sp = Spinor::ZERO;
        let mut k = 0;
        for cv in &mut sp.0 {
            for z in &mut cv.0 {
                *z = Complex::new(T::from_bits64(words[k]), T::from_bits64(words[k + 1]));
                k += 2;
            }
        }
        sp
    }
}

impl<T: Real> HalfSpinor<T> {
    /// Apply an SU(3) matrix to both spin components.
    #[inline(always)]
    pub fn mul_su3(&self, u: &crate::su3::Su3<T>) -> HalfSpinor<T> {
        let (a, b) = u.mul_vec2(&self.0[0], &self.0[1]);
        HalfSpinor([a, b])
    }

    /// Apply the adjoint of an SU(3) matrix to both spin components.
    #[inline(always)]
    pub fn adj_mul_su3(&self, u: &crate::su3::Su3<T>) -> HalfSpinor<T> {
        let (a, b) = u.adj_mul_vec2(&self.0[0], &self.0[1]);
        HalfSpinor([a, b])
    }

    /// Flatten to 6 complex numbers — 12 words, re then im, colour fastest
    /// within spin (the wire format of a face exchange;
    /// [`HALF_SPINOR_BYTES`](crate::counts::HALF_SPINOR_BYTES) in words).
    /// Values are carried as 64-bit IEEE words at both precisions so the
    /// exchange format is width-independent.
    pub fn to_words(&self) -> [u64; 12] {
        let mut out = [0u64; 12];
        let mut k = 0;
        for s in 0..2 {
            for c in 0..3 {
                out[k] = self.0[s].0[c].re.bits64();
                out[k + 1] = self.0[s].0[c].im.bits64();
                k += 2;
            }
        }
        out
    }

    /// Inverse of [`HalfSpinor::to_words`].
    pub fn from_words(words: &[u64; 12]) -> HalfSpinor<T> {
        let mut h = HalfSpinor::default();
        let mut k = 0;
        for s in 0..2 {
            for c in 0..3 {
                h.0[s].0[c] = Complex::new(T::from_bits64(words[k]), T::from_bits64(words[k + 1]));
                k += 2;
            }
        }
        h
    }
}

impl<T: Real> Add for Spinor<T> {
    type Output = Spinor<T>;
    fn add(self, rhs: Spinor<T>) -> Spinor<T> {
        Spinor([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }
}

impl<T: Real> AddAssign for Spinor<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Spinor<T>) {
        for s in 0..4 {
            self.0[s] += rhs.0[s];
        }
    }
}

impl<T: Real> Sub for Spinor<T> {
    type Output = Spinor<T>;
    fn sub(self, rhs: Spinor<T>) -> Spinor<T> {
        Spinor([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
        ])
    }
}

impl<T: Real> Neg for Spinor<T> {
    type Output = Spinor<T>;
    fn neg(self) -> Spinor<T> {
        Spinor([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

impl<T: Real> Mul<T> for Spinor<T> {
    type Output = Spinor<T>;
    fn mul(self, rhs: T) -> Spinor<T> {
        Spinor([
            self.0[0] * rhs,
            self.0[1] * rhs,
            self.0[2] * rhs,
            self.0[3] * rhs,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;
    use crate::gamma::GAMMA;
    use crate::rng::SiteRng;
    use crate::su3::Su3;

    fn random_spinor(seed: u64) -> Spinor {
        let mut rng = SiteRng::new(seed, 99);
        let mut s = Spinor::ZERO;
        for sp in 0..4 {
            for c in 0..3 {
                s.0[sp].0[c] = C64::new(rng.normal(), rng.normal());
            }
        }
        s
    }

    fn random_su3(seed: u64) -> Su3 {
        let mut rng = SiteRng::new(seed, 5);
        let mut m = Su3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                m.0[r][c] = C64::new(rng.uniform() - 0.5, rng.uniform() - 0.5);
            }
        }
        m.reunitarize()
    }

    /// Dense application of (1 ∓ γ_μ) for cross-checking the projection
    /// trick.
    fn one_mp_gamma(psi: &Spinor, mu: usize, sign: ProjSign) -> Spinor {
        let g = psi.apply_gamma(&GAMMA[mu]);
        match sign {
            ProjSign::Minus => *psi - g,
            ProjSign::Plus => *psi + g,
        }
    }

    #[test]
    fn projection_reconstruction_identity() {
        for mu in 0..4 {
            for sign in [ProjSign::Minus, ProjSign::Plus] {
                let psi = random_spinor(mu as u64);
                let direct = one_mp_gamma(&psi, mu, sign);
                let via_half = Spinor::reconstruct(&psi.project(mu, sign), mu, sign);
                for s in 0..4 {
                    for c in 0..3 {
                        assert!(
                            (direct.0[s].0[c] - via_half.0[s].0[c]).abs() < 1e-13,
                            "mu={mu} sign={sign:?} s={s} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn projection_commutes_with_su3() {
        // U acts on color only, so project → U → reconstruct must equal
        // U ⊗ (1 ∓ γ_μ) applied densely.
        let u = random_su3(3);
        let psi = random_spinor(17);
        for mu in 0..4 {
            let h = psi.project(mu, ProjSign::Minus).mul_su3(&u);
            let fast = Spinor::reconstruct(&h, mu, ProjSign::Minus);
            let mut slow = one_mp_gamma(&psi, mu, ProjSign::Minus);
            for s in 0..4 {
                slow.0[s] = u.mul_vec(&slow.0[s]);
            }
            for s in 0..4 {
                for c in 0..3 {
                    assert!((fast.0[s].0[c] - slow.0[s].0[c]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn projector_sum_is_two_psi() {
        // (1−γ)ψ + (1+γ)ψ = 2ψ.
        let psi = random_spinor(7);
        for mu in 0..4 {
            let a = Spinor::reconstruct(&psi.project(mu, ProjSign::Minus), mu, ProjSign::Minus);
            let b = Spinor::reconstruct(&psi.project(mu, ProjSign::Plus), mu, ProjSign::Plus);
            let sum = a + b;
            let twice = psi * 2.0;
            for s in 0..4 {
                for c in 0..3 {
                    assert!((sum.0[s].0[c] - twice.0[s].0[c]).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn gamma5_is_involution_on_spinors() {
        let psi = random_spinor(11);
        let twice = psi.apply_gamma5().apply_gamma5();
        for s in 0..4 {
            for c in 0..3 {
                assert!((twice.0[s].0[c] - psi.0[s].0[c]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn words_roundtrip_is_bit_exact() {
        let psi = random_spinor(23);
        let h = psi.project(2, ProjSign::Plus);
        let back: HalfSpinor = HalfSpinor::from_words(&h.to_words());
        for s in 0..2 {
            for c in 0..3 {
                assert_eq!(h.0[s].0[c].re.to_bits(), back.0[s].0[c].re.to_bits());
                assert_eq!(h.0[s].0[c].im.to_bits(), back.0[s].0[c].im.to_bits());
            }
        }
    }

    #[test]
    fn words_roundtrip_is_bit_exact_single_precision() {
        let psi: Spinor<f32> = Spinor::from_f64_spinor(&random_spinor(29));
        let h = psi.project(1, ProjSign::Minus);
        let back: HalfSpinor<f32> = HalfSpinor::from_words(&h.to_words());
        for s in 0..2 {
            for c in 0..3 {
                assert_eq!(h.0[s].0[c].re.to_bits(), back.0[s].0[c].re.to_bits());
                assert_eq!(h.0[s].0[c].im.to_bits(), back.0[s].0[c].im.to_bits());
            }
        }
    }

    #[test]
    fn spinor_words_roundtrip_is_the_identity_on_bits() {
        // Signed zeros and subnormals included: the checkpoint image must
        // carry every bit pattern, not every value.
        let mut s = random_spinor(37);
        s.0[0].0[0] = C64::new(-0.0, 0.0);
        s.0[1].0[2] = C64::new(f64::MIN_POSITIVE / 8.0, -f64::MIN_POSITIVE / 2.0);
        s.0[3].0[1] = C64::new(f64::from_bits(1), -f64::MAX);
        let words = s.to_words();
        assert_eq!(words[0], (-0.0f64).to_bits());
        assert_eq!(Spinor::<f64>::from_words(&words).to_words(), words);

        let mut s32: Spinor<f32> = Spinor::from_f64_spinor(&s);
        s32.0[2].0[0] = Complex::new(-0.0f32, f32::from_bits(1));
        s32.0[2].0[1] = Complex::new(f32::MIN_POSITIVE / 4.0, -f32::MAX);
        let words32 = s32.to_words();
        // f32 words are the exact f64 widening `store_bits` writes.
        assert_eq!(words32[12], f64::from(-0.0f32).to_bits());
        assert_eq!(words32[13], f64::from(f32::from_bits(1)).to_bits());
        let back = Spinor::<f32>::from_words(&words32);
        assert_eq!(back.to_words(), words32);
        assert_eq!(back.0[2].0[0].re.to_bits(), (-0.0f32).to_bits());
        assert_eq!(back.0[2].0[0].im.to_bits(), 1);
    }

    #[test]
    fn dot_and_norm_consistent() {
        let psi = random_spinor(31);
        assert!((psi.dot(&psi).re - psi.norm_sqr()).abs() < 1e-10);
        assert!(psi.dot(&psi).im.abs() < 1e-12);
    }

    #[test]
    fn axpy_matches_manual() {
        let a = random_spinor(1);
        let b = random_spinor(2);
        let s = C64::new(0.5, -1.5);
        let fast = a.axpy(s, &b);
        for sp in 0..4 {
            for c in 0..3 {
                let manual = a.0[sp].0[c] + s * b.0[sp].0[c];
                assert!((fast.0[sp].0[c] - manual).abs() < 1e-13);
            }
        }
    }
}
