//! AoSoA lane-blocked field layouts and the SIMD Wilson hot path.
//!
//! The scalar kernels in [`crate::wilson`] store one `Spinor` per site
//! (array-of-structures). That layout makes a complex multiply a shuffle
//! festival for the vectorizer: the real and imaginary parts it wants in
//! separate registers are interleaved in memory, and EXPERIMENTS.md E11
//! measured the consequence — scalar f32 ran at 0.68× the *f64* kernel,
//! because the narrower lanes bought nothing while the shuffles cost the
//! same.
//!
//! This module fixes the layout instead of the instruction mix. Fields are
//! re-blocked **AoSoA** — array of structures of arrays — over groups of
//! [`LANES`] consecutive sites:
//!
//! ```text
//! FermionBlocks  [block][spin 4][color 3]{ re[LANES], im[LANES] }
//! GaugeBlocks    [block][mu 4][row 3][col 3]{ re[LANES], im[LANES] }
//! ```
//!
//! Within a block, the same (spin, color) component of [`LANES`] sites is
//! contiguous, reals separated from imaginaries. Every algebraic step of
//! the Dslash then becomes [`LANES`] independent copies of the identical
//! scalar recurrence with **no intra-vector shuffles**, which the
//! autovectorizer turns into plain packed mul/add — and packed f32 finally
//! earns its 2× lane advantage over f64.
//!
//! **Bit-compatibility contract.** The resilience stack (ABFT checksums,
//! exact-bits checkpoints, the §4 reproducibility story) requires kernels
//! to produce identical bits regardless of execution strategy. Every lane
//! of every [`LaneComplex`] op executes *exactly* the operation sequence of
//! the corresponding scalar [`Complex`] op — same
//! madd decomposition, same accumulation order over mu/spin/color — so
//! [`dslash_aosoa`] and [`WilsonDirac::dslash`](crate::wilson::WilsonDirac)
//! agree bit-for-bit at each precision, and the layout converters are pure
//! data movement. Tests below assert both.

use crate::complex::{Complex, C64};
use crate::field::{FermionField, GaugeField, Lattice, NeighbourTable};
use crate::real::Real;
use crate::spinor::ProjSign;

/// Sites per AoSoA block. Eight f32 values fill one AVX2 register; for
/// f64 a block spans two registers, which costs nothing extra — the loop
/// body is lane-count agnostic.
pub const LANES: usize = 8;

/// [`LANES`] complex numbers with all real parts contiguous, then all
/// imaginary parts — the unit of AoSoA storage.
///
/// Each method is a lane loop whose body is the exact scalar
/// [`Complex`] formula, so per-lane results are
/// bit-identical to the scalar stack at both precisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneComplex<T: Real = f64> {
    /// Real parts, one per lane.
    pub re: [T; LANES],
    /// Imaginary parts, one per lane.
    pub im: [T; LANES],
}

impl<T: Real> LaneComplex<T> {
    /// All lanes zero.
    pub const ZERO: LaneComplex<T> = LaneComplex {
        re: [T::ZERO; LANES],
        im: [T::ZERO; LANES],
    };

    /// Lane-wise `self + a * b` in the scalar `madd` decomposition
    /// (broadcast-form complex FMA — see
    /// [`Complex::madd`](crate::complex::Complex::madd)).
    #[inline(always)]
    pub fn madd(&self, a: &LaneComplex<T>, b: &LaneComplex<T>) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            let t_re = self.re[l] + a.re[l] * b.re[l];
            let t_im = self.im[l] + a.re[l] * b.im[l];
            out.re[l] = t_re + a.im[l] * (-b.im[l]);
            out.im[l] = t_im + a.im[l] * b.re[l];
        }
        out
    }

    /// Lane-wise `self + a * b` with a uniform (broadcast) `a` — the shape
    /// of the κ-recurrence in the Wilson operator.
    #[inline(always)]
    pub fn madd_broadcast(&self, a: Complex<T>, b: &LaneComplex<T>) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            let t_re = self.re[l] + a.re * b.re[l];
            let t_im = self.im[l] + a.re * b.im[l];
            out.re[l] = t_re + a.im * (-b.im[l]);
            out.im[l] = t_im + a.im * b.re[l];
        }
        out
    }

    /// Lane-wise multiply by `i`.
    #[inline(always)]
    pub fn mul_i(&self) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            out.re[l] = -self.im[l];
            out.im[l] = self.re[l];
        }
        out
    }

    /// Lane-wise multiply by `-i`.
    #[inline(always)]
    pub fn mul_neg_i(&self) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            out.re[l] = self.im[l];
            out.im[l] = -self.re[l];
        }
        out
    }

    /// Lane-wise conjugate.
    #[inline(always)]
    pub fn conj(&self) -> LaneComplex<T> {
        let mut out = *self;
        for l in 0..LANES {
            out.im[l] = -out.im[l];
        }
        out
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(&self, rhs: &LaneComplex<T>) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            out.re[l] = self.re[l] + rhs.re[l];
            out.im[l] = self.im[l] + rhs.im[l];
        }
        out
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    pub fn sub(&self, rhs: &LaneComplex<T>) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            out.re[l] = self.re[l] - rhs.re[l];
            out.im[l] = self.im[l] - rhs.im[l];
        }
        out
    }

    /// Lane-wise negation.
    #[inline(always)]
    pub fn neg(&self) -> LaneComplex<T> {
        let mut out = LaneComplex::ZERO;
        for l in 0..LANES {
            out.re[l] = -self.re[l];
            out.im[l] = -self.im[l];
        }
        out
    }
}

fn assert_blockable(lat: Lattice) -> usize {
    let vol = lat.volume();
    assert!(
        vol.is_multiple_of(LANES),
        "AoSoA layout needs volume divisible by {LANES} sites, got {vol} \
         (dims {:?})",
        lat.dims()
    );
    vol / LANES
}

/// A fermion field re-blocked into the AoSoA layout.
///
/// Conversion is pure data movement — bits survive a round trip exactly,
/// at either precision:
///
/// ```
/// use qcdoc_lattice::aosoa::FermionBlocks;
/// use qcdoc_lattice::field::{FermionField, Lattice};
///
/// let lat = Lattice::new([4, 2, 2, 2]);
/// let psi = FermionField::gaussian(lat, 7);
/// let blocks = FermionBlocks::from_field(&psi);
/// assert_eq!(blocks.to_field().fingerprint(), psi.fingerprint());
///
/// let lo = psi.to_f32();
/// let back = FermionBlocks::from_field(&lo).to_field();
/// assert_eq!(back, lo);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FermionBlocks<T: Real = f64> {
    lat: Lattice,
    /// `[block][spin 4][color 3]` lane groups.
    data: Vec<LaneComplex<T>>,
}

impl<T: Real> FermionBlocks<T> {
    /// Re-block an AoS fermion field. Panics unless the volume is a
    /// multiple of [`LANES`].
    pub fn from_field(f: &FermionField<T>) -> FermionBlocks<T> {
        let lat = f.lattice();
        let blocks = assert_blockable(lat);
        let mut data = vec![LaneComplex::ZERO; blocks * 12];
        for x in lat.sites() {
            let (b, l) = (x / LANES, x % LANES);
            for s in 0..4 {
                for c in 0..3 {
                    let z = f.site(x).0[s].0[c];
                    let slot = &mut data[(b * 4 + s) * 3 + c];
                    slot.re[l] = z.re;
                    slot.im[l] = z.im;
                }
            }
        }
        FermionBlocks { lat, data }
    }

    /// The zero field in block layout.
    pub fn zero(lat: Lattice) -> FermionBlocks<T> {
        let blocks = assert_blockable(lat);
        FermionBlocks {
            lat,
            data: vec![LaneComplex::ZERO; blocks * 12],
        }
    }

    /// The lattice this field lives on.
    pub fn lattice(&self) -> Lattice {
        self.lat
    }

    /// Scatter back to the AoS layout — the exact inverse of
    /// [`FermionBlocks::from_field`].
    pub fn to_field(&self) -> FermionField<T> {
        let mut f = FermionField::zero(self.lat);
        for x in self.lat.sites() {
            let (b, l) = (x / LANES, x % LANES);
            for s in 0..4 {
                for c in 0..3 {
                    let slot = &self.data[(b * 4 + s) * 3 + c];
                    f.site_mut(x).0[s].0[c] = Complex::new(slot.re[l], slot.im[l]);
                }
            }
        }
        f
    }
}

/// A gauge field re-blocked into the AoSoA layout.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeBlocks<T: Real = f64> {
    lat: Lattice,
    /// `[block][mu 4][row 3][col 3]` lane groups.
    data: Vec<LaneComplex<T>>,
}

impl<T: Real> GaugeBlocks<T> {
    /// Re-block an AoS gauge field. Panics unless the volume is a
    /// multiple of [`LANES`].
    pub fn from_field(g: &GaugeField<T>) -> GaugeBlocks<T> {
        let lat = g.lattice();
        let blocks = assert_blockable(lat);
        let mut data = vec![LaneComplex::ZERO; blocks * 36];
        for x in lat.sites() {
            let (b, l) = (x / LANES, x % LANES);
            for mu in 0..4 {
                for r in 0..3 {
                    for c in 0..3 {
                        let z = g.link(x, mu).0[r][c];
                        let slot = &mut data[((b * 4 + mu) * 3 + r) * 3 + c];
                        slot.re[l] = z.re;
                        slot.im[l] = z.im;
                    }
                }
            }
        }
        GaugeBlocks { lat, data }
    }

    /// The lattice this field lives on.
    pub fn lattice(&self) -> Lattice {
        self.lat
    }

    /// Scatter back to the AoS layout — the exact inverse of
    /// [`GaugeBlocks::from_field`].
    pub fn to_field(&self) -> GaugeField<T> {
        let mut g = GaugeField::unit(self.lat);
        for x in self.lat.sites() {
            let (b, l) = (x / LANES, x % LANES);
            for mu in 0..4 {
                for r in 0..3 {
                    for c in 0..3 {
                        let slot = &self.data[((b * 4 + mu) * 3 + r) * 3 + c];
                        g.link_mut(x, mu).0[r][c] = Complex::new(slot.re[l], slot.im[l]);
                    }
                }
            }
        }
        g
    }
}

/// A lane-blocked half-spinor: 2 spins × 3 colors of lane groups.
type LaneHalf<T> = [[LaneComplex<T>; 3]; 2];
/// A lane-blocked full spinor: 4 spins × 3 colors of lane groups.
type LaneSpinor<T> = [[LaneComplex<T>; 3]; 4];

/// Lane-wise `(1 ∓ γ_μ)` projection — the scalar
/// [`Spinor::project`](crate::spinor::Spinor::project) per lane, with the
/// same per-direction specialisation.
#[inline(always)]
fn project_lanes<T: Real>(psi: &LaneSpinor<T>, mu: usize, sign: ProjSign) -> LaneHalf<T> {
    use ProjSign::{Minus, Plus};
    let mut h = [[LaneComplex::ZERO; 3]; 2];
    for c in 0..3 {
        let (p0, p1, p2, p3) = (&psi[0][c], &psi[1][c], &psi[2][c], &psi[3][c]);
        (h[0][c], h[1][c]) = match (mu, sign) {
            (0, Minus) => (p0.sub(&p3.mul_i()), p1.sub(&p2.mul_i())),
            (0, Plus) => (p0.add(&p3.mul_i()), p1.add(&p2.mul_i())),
            (1, Minus) => (p0.add(p3), p1.sub(p2)),
            (1, Plus) => (p0.sub(p3), p1.add(p2)),
            (2, Minus) => (p0.sub(&p2.mul_i()), p1.add(&p3.mul_i())),
            (2, Plus) => (p0.add(&p2.mul_i()), p1.sub(&p3.mul_i())),
            (3, Minus) => (p0.sub(p2), p1.sub(p3)),
            (3, Plus) => (p0.add(p2), p1.add(p3)),
            _ => panic!("direction {mu} out of range"),
        };
    }
    h
}

/// Lane-wise reconstruction and accumulation: `acc += reconstruct(h)` in
/// the scalar operation order
/// ([`Spinor::reconstruct`](crate::spinor::Spinor::reconstruct) followed by
/// the spinor `+=`).
#[inline(always)]
fn accumulate_reconstruct<T: Real>(
    acc: &mut LaneSpinor<T>,
    h: &LaneHalf<T>,
    mu: usize,
    sign: ProjSign,
) {
    use ProjSign::{Minus, Plus};
    for c in 0..3 {
        let (h0, h1) = (&h[0][c], &h[1][c]);
        let (r2, r3) = match (mu, sign) {
            (0, Minus) => (h1.mul_i(), h0.mul_i()),
            (0, Plus) => (h1.mul_neg_i(), h0.mul_neg_i()),
            (1, Minus) => (h1.neg(), *h0),
            (1, Plus) => (*h1, h0.neg()),
            (2, Minus) => (h0.mul_i(), h1.mul_neg_i()),
            (2, Plus) => (h0.mul_neg_i(), h1.mul_i()),
            (3, Minus) => (h0.neg(), h1.neg()),
            (3, Plus) => (*h0, *h1),
            _ => panic!("direction {mu} out of range"),
        };
        acc[0][c] = acc[0][c].add(h0);
        acc[1][c] = acc[1][c].add(h1);
        acc[2][c] = acc[2][c].add(&r2);
        acc[3][c] = acc[3][c].add(&r3);
    }
}

/// Gather the full spinors of the `mu`-neighbours (forward or backward) of
/// a block's [`LANES`] sites into lane-major temporaries.
#[inline(always)]
fn gather_neighbour_spinor<T: Real>(
    inp: &FermionBlocks<T>,
    hops: &NeighbourTable,
    base: usize,
    mu: usize,
    forward: bool,
) -> LaneSpinor<T> {
    // Index loops mirror the scalar kernel's traversal order exactly.
    #![allow(clippy::needless_range_loop)]
    let mut out = [[LaneComplex::ZERO; 3]; 4];
    for l in 0..LANES {
        let nb = if forward {
            hops.fwd(base + l, mu)
        } else {
            hops.bwd(base + l, mu)
        };
        let (nb_b, nb_l) = (nb / LANES, nb % LANES);
        for s in 0..4 {
            for c in 0..3 {
                let src = &inp.data[(nb_b * 4 + s) * 3 + c];
                out[s][c].re[l] = src.re[nb_l];
                out[s][c].im[l] = src.im[nb_l];
            }
        }
    }
    out
}

/// Gather the `mu`-links *at the backward neighbours* of a block's sites
/// (the `U†_μ(x−μ̂)` operand, which lives in the neighbour's block).
#[inline(always)]
fn gather_backward_links<T: Real>(
    gauge: &GaugeBlocks<T>,
    hops: &NeighbourTable,
    base: usize,
    mu: usize,
) -> [[LaneComplex<T>; 3]; 3] {
    #![allow(clippy::needless_range_loop)]
    let mut out = [[LaneComplex::ZERO; 3]; 3];
    for l in 0..LANES {
        let xb = hops.bwd(base + l, mu);
        let (bb, bl) = (xb / LANES, xb % LANES);
        for r in 0..3 {
            for c in 0..3 {
                let src = &gauge.data[((bb * 4 + mu) * 3 + r) * 3 + c];
                out[r][c].re[l] = src.re[bl];
                out[r][c].im[l] = src.im[bl];
            }
        }
    }
    out
}

/// Lane-wise paired SU(3) products `(U h₀, U h₁)` sharing one matrix
/// traversal — the scalar [`Su3::mul_vec2`](crate::su3::Su3::mul_vec2)
/// recurrence per lane. `adjoint` selects the `U†` variant
/// ([`Su3::adj_mul_vec2`](crate::su3::Su3::adj_mul_vec2)).
#[inline(always)]
fn mul_su3_lanes<T: Real>(
    u: &[[LaneComplex<T>; 3]; 3],
    h: &LaneHalf<T>,
    adjoint: bool,
) -> LaneHalf<T> {
    let mut out = [[LaneComplex::ZERO; 3]; 2];
    for r in 0..3 {
        let mut acc_a = LaneComplex::ZERO;
        let mut acc_b = LaneComplex::ZERO;
        for c in 0..3 {
            let m = if adjoint { u[c][r].conj() } else { u[r][c] };
            acc_a = acc_a.madd(&m, &h[0][c]);
            acc_b = acc_b.madd(&m, &h[1][c]);
        }
        out[0][r] = acc_a;
        out[1][r] = acc_b;
    }
    out
}

/// The Wilson hopping term on AoSoA-blocked fields — bit-identical per
/// precision to [`WilsonDirac::dslash`](crate::wilson::WilsonDirac::dslash)
/// on the corresponding AoS fields, but with every algebraic step running
/// [`LANES`] sites wide.
pub fn dslash_aosoa<T: Real>(
    out: &mut FermionBlocks<T>,
    gauge: &GaugeBlocks<T>,
    inp: &FermionBlocks<T>,
    hops: &NeighbourTable,
) {
    #![allow(clippy::needless_range_loop)]
    let lat = gauge.lat;
    assert_eq!(inp.lat, lat);
    assert_eq!(out.lat, lat);
    let blocks = lat.volume() / LANES;
    for b in 0..blocks {
        let base = b * LANES;
        let mut acc: LaneSpinor<T> = [[LaneComplex::ZERO; 3]; 4];
        for mu in 0..4 {
            // Forward: U_mu(x) (1-gamma_mu) psi(x+mu). The link is this
            // block's own, already lane-major.
            let nf = gather_neighbour_spinor(inp, hops, base, mu, true);
            let hf = project_lanes(&nf, mu, ProjSign::Minus);
            let mut uf = [[LaneComplex::ZERO; 3]; 3];
            for r in 0..3 {
                for c in 0..3 {
                    uf[r][c] = gauge.data[((b * 4 + mu) * 3 + r) * 3 + c];
                }
            }
            let hf = mul_su3_lanes(&uf, &hf, false);
            accumulate_reconstruct(&mut acc, &hf, mu, ProjSign::Minus);
            // Backward: U_mu(x-mu)^dag (1+gamma_mu) psi(x-mu). Both the
            // spinor and the link live in the neighbour's block.
            let nb = gather_neighbour_spinor(inp, hops, base, mu, false);
            let hb = project_lanes(&nb, mu, ProjSign::Plus);
            let ub = gather_backward_links(gauge, hops, base, mu);
            let hb = mul_su3_lanes(&ub, &hb, true);
            accumulate_reconstruct(&mut acc, &hb, mu, ProjSign::Plus);
        }
        for s in 0..4 {
            for c in 0..3 {
                out.data[(b * 4 + s) * 3 + c] = acc[s][c];
            }
        }
    }
}

/// The full Wilson operator `M = 1 − κ D` on AoSoA fields — bit-identical
/// per precision to [`WilsonDirac::apply`](crate::wilson::WilsonDirac::apply).
pub fn wilson_apply_aosoa<T: Real>(
    out: &mut FermionBlocks<T>,
    gauge: &GaugeBlocks<T>,
    inp: &FermionBlocks<T>,
    hops: &NeighbourTable,
    kappa: f64,
) {
    dslash_aosoa(out, gauge, inp, hops);
    let mk = Complex::from_c64(C64::real(-kappa));
    for (o, i) in out.data.iter_mut().zip(inp.data.iter()) {
        *o = i.madd_broadcast(mk, o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wilson::WilsonDirac;

    fn shapes() -> Vec<Lattice> {
        vec![
            Lattice::new([2, 2, 2, 2]),
            Lattice::new([4, 2, 2, 2]),
            Lattice::new([4, 4, 2, 2]),
            Lattice::new([8, 1, 1, 1]),
        ]
    }

    #[test]
    fn fermion_roundtrip_is_bit_exact_both_precisions() {
        for (seed, lat) in shapes().into_iter().enumerate() {
            let psi = FermionField::gaussian(lat, seed as u64 + 1);
            let back = FermionBlocks::from_field(&psi).to_field();
            assert_eq!(back.fingerprint(), psi.fingerprint(), "{:?}", lat.dims());
            let lo = psi.to_f32();
            let back32 = FermionBlocks::from_field(&lo).to_field();
            assert_eq!(back32, lo, "{:?} f32", lat.dims());
        }
    }

    #[test]
    fn gauge_roundtrip_is_bit_exact_both_precisions() {
        for (seed, lat) in shapes().into_iter().enumerate() {
            let g = GaugeField::hot(lat, seed as u64 + 10);
            let back = GaugeBlocks::from_field(&g).to_field();
            assert_eq!(back.fingerprint(), g.fingerprint(), "{:?}", lat.dims());
            let lo = g.to_f32();
            let back32 = GaugeBlocks::from_field(&lo).to_field();
            assert_eq!(back32, lo, "{:?} f32", lat.dims());
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_volume_is_rejected() {
        let lat = Lattice::new([3, 1, 1, 1]);
        FermionBlocks::<f64>::zero(lat);
    }

    fn assert_fields_bit_equal<T: Real>(a: &FermionField<T>, b: &FermionField<T>, what: &str) {
        for x in a.lattice().sites() {
            for s in 0..4 {
                for c in 0..3 {
                    let za = a.site(x).0[s].0[c];
                    let zb = b.site(x).0[s].0[c];
                    assert_eq!(za.re.bits64(), zb.re.bits64(), "{what} x={x} s={s} c={c}");
                    assert_eq!(za.im.bits64(), zb.im.bits64(), "{what} x={x} s={s} c={c}");
                }
            }
        }
    }

    #[test]
    fn dslash_matches_scalar_kernel_bitwise_f64() {
        for (seed, lat) in shapes().into_iter().enumerate() {
            let gauge = GaugeField::hot(lat, seed as u64 + 40);
            let psi = FermionField::gaussian(lat, seed as u64 + 41);
            let d = WilsonDirac::new(&gauge, 0.124);
            let mut scalar = FermionField::zero(lat);
            d.dslash(&mut scalar, &psi);

            let gb = GaugeBlocks::from_field(&gauge);
            let pb = FermionBlocks::from_field(&psi);
            let mut ob = FermionBlocks::zero(lat);
            let hops = NeighbourTable::new(lat);
            dslash_aosoa(&mut ob, &gb, &pb, &hops);
            assert_fields_bit_equal(&ob.to_field(), &scalar, "dslash f64");
        }
    }

    #[test]
    fn dslash_matches_scalar_kernel_bitwise_f32() {
        for (seed, lat) in shapes().into_iter().enumerate() {
            let gauge = GaugeField::hot(lat, seed as u64 + 50).to_f32();
            let psi = FermionField::gaussian(lat, seed as u64 + 51).to_f32();
            let d = WilsonDirac::new(&gauge, 0.124);
            let mut scalar = FermionField::zero(lat);
            d.dslash(&mut scalar, &psi);

            let gb = GaugeBlocks::from_field(&gauge);
            let pb = FermionBlocks::from_field(&psi);
            let mut ob = FermionBlocks::zero(lat);
            let hops = NeighbourTable::new(lat);
            dslash_aosoa(&mut ob, &gb, &pb, &hops);
            assert_fields_bit_equal(&ob.to_field(), &scalar, "dslash f32");
        }
    }

    #[test]
    fn wilson_apply_matches_scalar_kernel_bitwise_both_precisions() {
        let lat = Lattice::new([4, 4, 2, 2]);
        let gauge = GaugeField::hot(lat, 60);
        let psi = FermionField::gaussian(lat, 61);
        let hops = NeighbourTable::new(lat);
        let kappa = 0.117;

        let d = WilsonDirac::new(&gauge, kappa);
        let mut scalar = FermionField::zero(lat);
        d.apply(&mut scalar, &psi);
        let mut ob = FermionBlocks::zero(lat);
        wilson_apply_aosoa(
            &mut ob,
            &GaugeBlocks::from_field(&gauge),
            &FermionBlocks::from_field(&psi),
            &hops,
            kappa,
        );
        assert_fields_bit_equal(&ob.to_field(), &scalar, "apply f64");

        let gauge32 = gauge.to_f32();
        let psi32 = psi.to_f32();
        let d32 = WilsonDirac::new(&gauge32, kappa);
        let mut scalar32 = FermionField::zero(lat);
        d32.apply(&mut scalar32, &psi32);
        let mut ob32 = FermionBlocks::zero(lat);
        wilson_apply_aosoa(
            &mut ob32,
            &GaugeBlocks::from_field(&gauge32),
            &FermionBlocks::from_field(&psi32),
            &hops,
            kappa,
        );
        assert_fields_bit_equal(&ob32.to_field(), &scalar32, "apply f32");
    }

    #[test]
    fn lane_complex_ops_match_scalar_complex_bitwise() {
        // Randomised per-lane cross-check of every LaneComplex op against
        // the scalar Complex it mirrors.
        use crate::rng::SiteRng;
        let mut rng = SiteRng::new(99, 7);
        let mut mk = |_: usize| {
            let mut lc = LaneComplex::<f64>::ZERO;
            for l in 0..LANES {
                lc.re[l] = rng.normal();
                lc.im[l] = rng.normal();
            }
            lc
        };
        let (a, b, c) = (mk(0), mk(1), mk(2));
        let s = Complex::new(0.7, -1.3);
        for l in 0..LANES {
            let za = Complex::new(a.re[l], a.im[l]);
            let zb = Complex::new(b.re[l], b.im[l]);
            let zc = Complex::new(c.re[l], c.im[l]);
            let pairs: Vec<(Complex<f64>, LaneComplex<f64>)> = vec![
                (za.madd(zb, zc), a.madd(&b, &c)),
                (za.madd(s, zb), a.madd_broadcast(s, &b)),
                (za.mul_i(), a.mul_i()),
                (za.mul_neg_i(), a.mul_neg_i()),
                (za.conj(), a.conj()),
                (za + zb, a.add(&b)),
                (za - zb, a.sub(&b)),
                (-za, a.neg()),
            ];
            for (i, (scalar, lanes)) in pairs.iter().enumerate() {
                assert_eq!(
                    scalar.re.to_bits(),
                    lanes.re[l].to_bits(),
                    "op {i} lane {l}"
                );
                assert_eq!(
                    scalar.im.to_bits(),
                    lanes.im[l].to_bits(),
                    "op {i} lane {l}"
                );
            }
        }
    }
}
