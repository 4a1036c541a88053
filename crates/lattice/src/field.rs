//! Lattice layouts and field containers.
//!
//! Field containers are generic over the [`Real`] scalar (default `f64`).
//! Randomized constructors ([`GaugeField::hot`], [`FermionField::gaussian`],
//! …) and fingerprints are double-precision-only: single-precision fields
//! are produced by *truncating* a double-precision field (`to_f32`), which
//! keeps the f32 stack a deterministic function of the f64 one.
//!
//! Cross-site reductions (`dot`, `norm_sqr`) accumulate in double precision
//! at every width, in site order — the same deterministic global-sum
//! discipline the QCDOC hardware tree enforces, and the property that lets
//! the mixed-precision solver keep bit-reproducible residuals.

use crate::colorvec::ColorVec;
use crate::complex::{Complex, C64};
use crate::real::Real;
use crate::rng::SiteRng;
use crate::spinor::Spinor;
use crate::su3::Su3;
use serde::{Deserialize, Serialize};

/// A periodic 4-D space-time lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lattice {
    dims: [usize; 4],
}

impl Lattice {
    /// A lattice with extents `[x, y, z, t]`.
    pub fn new(dims: [usize; 4]) -> Lattice {
        assert!(dims.iter().all(|&d| d >= 1), "extents must be >= 1");
        Lattice { dims }
    }

    /// The paper's canonical per-node benchmark volume, 4⁴.
    pub fn hyper4() -> Lattice {
        Lattice::new([4, 4, 4, 4])
    }

    /// Extents.
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Number of sites.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Lexicographic index of a coordinate (x fastest).
    pub fn index(&self, c: [usize; 4]) -> usize {
        debug_assert!((0..4).all(|d| c[d] < self.dims[d]));
        ((c[3] * self.dims[2] + c[2]) * self.dims[1] + c[1]) * self.dims[0] + c[0]
    }

    /// Coordinate of a site index.
    pub fn coord(&self, mut idx: usize) -> [usize; 4] {
        let mut c = [0usize; 4];
        for (d, cd) in c.iter_mut().enumerate() {
            *cd = idx % self.dims[d];
            idx /= self.dims[d];
        }
        debug_assert_eq!(idx, 0);
        c
    }

    /// Index of the neighbour of `idx` one step along `mu` (`forward` or
    /// backward), with periodic wrap-around.
    pub fn neighbour(&self, idx: usize, mu: usize, forward: bool) -> usize {
        let mut c = self.coord(idx);
        let ext = self.dims[mu];
        c[mu] = if forward {
            (c[mu] + 1) % ext
        } else {
            (c[mu] + ext - 1) % ext
        };
        self.index(c)
    }

    /// Checkerboard parity of a site (0 = even, 1 = odd).
    pub fn parity(&self, idx: usize) -> usize {
        let c = self.coord(idx);
        (c[0] + c[1] + c[2] + c[3]) % 2
    }

    /// Iterate over all site indices.
    pub fn sites(&self) -> std::ops::Range<usize> {
        0..self.volume()
    }
}

/// Precomputed nearest-neighbour indices for every site of a [`Lattice`].
///
/// [`Lattice::neighbour`] recomputes the full coordinate (four div/mods)
/// on every call; a Dirac operator makes eight such calls per site per
/// application, which dominates the scalar kernels. Operators build one
/// table at construction time and look hops up instead. The table stores
/// exactly the values `Lattice::neighbour` returns, so kernels using it
/// are bit-identical to ones calling `neighbour` directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighbourTable {
    hops: Vec<[usize; 8]>,
}

impl NeighbourTable {
    /// Tabulate all eight hops (`2*mu + {0: forward, 1: backward}`) of
    /// every site.
    pub fn new(lat: Lattice) -> NeighbourTable {
        let hops = lat
            .sites()
            .map(|x| {
                let mut h = [0usize; 8];
                for mu in 0..4 {
                    h[2 * mu] = lat.neighbour(x, mu, true);
                    h[2 * mu + 1] = lat.neighbour(x, mu, false);
                }
                h
            })
            .collect();
        NeighbourTable { hops }
    }

    /// Forward neighbour of `x` along `mu` (= `lat.neighbour(x, mu, true)`).
    #[inline(always)]
    pub fn fwd(&self, x: usize, mu: usize) -> usize {
        self.hops[x][2 * mu]
    }

    /// Backward neighbour of `x` along `mu` (= `lat.neighbour(x, mu, false)`).
    #[inline(always)]
    pub fn bwd(&self, x: usize, mu: usize) -> usize {
        self.hops[x][2 * mu + 1]
    }
}

/// An SU(3) gauge field: four directed links per site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeField<T: Real = f64> {
    lat: Lattice,
    links: Vec<[Su3<T>; 4]>,
}

impl<T: Real> GaugeField<T> {
    /// The free (unit-link) configuration.
    pub fn unit(lat: Lattice) -> GaugeField<T> {
        GaugeField {
            lat,
            links: vec![[Su3::IDENTITY; 4]; lat.volume()],
        }
    }

    /// The lattice this field lives on.
    pub fn lattice(&self) -> Lattice {
        self.lat
    }

    /// Link `U_μ(x)`.
    #[inline]
    pub fn link(&self, site: usize, mu: usize) -> &Su3<T> {
        &self.links[site][mu]
    }

    /// Mutable link access.
    #[inline]
    pub fn link_mut(&mut self, site: usize, mu: usize) -> &mut Su3<T> {
        &mut self.links[site][mu]
    }

    /// Worst unitarity violation over all links.
    pub fn max_unitarity_error(&self) -> f64 {
        self.links
            .iter()
            .flat_map(|ls| ls.iter())
            .map(|u| u.unitarity_error().to_f64())
            .fold(0.0, f64::max)
    }

    /// Reunitarize every link in place.
    pub fn reunitarize(&mut self) {
        for ls in &mut self.links {
            for u in ls.iter_mut() {
                *u = u.reunitarize();
            }
        }
    }
}

impl GaugeField {
    /// A "hot" start: links drawn independently and site-deterministically,
    /// then reunitarized — reproducible for any node decomposition.
    pub fn hot(lat: Lattice, seed: u64) -> GaugeField {
        let mut g = GaugeField::unit(lat);
        for idx in lat.sites() {
            let mut rng = SiteRng::new(seed, idx as u64);
            for mu in 0..4 {
                let mut m = Su3::ZERO;
                for r in 0..3 {
                    for c in 0..3 {
                        m.0[r][c] = C64::new(rng.uniform() - 0.5, rng.uniform() - 0.5);
                    }
                }
                g.links[idx][mu] = m.reunitarize();
            }
        }
        g
    }

    /// Truncate every link to single precision.
    pub fn to_f32(&self) -> GaugeField<f32> {
        GaugeField {
            lat: self.lat,
            links: self
                .links
                .iter()
                .map(|ls| {
                    [
                        Su3::from_c64_mat(&ls[0]),
                        Su3::from_c64_mat(&ls[1]),
                        Su3::from_c64_mat(&ls[2]),
                        Su3::from_c64_mat(&ls[3]),
                    ]
                })
                .collect(),
        }
    }

    /// Bitwise fingerprint of the configuration — the §4 reproducibility
    /// check compares these after independent evolutions.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_words(
            self.links
                .iter()
                .flatten()
                .flat_map(|u| u.0.iter().flatten())
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
        )
    }
}

/// The one mixing function behind every field fingerprint: FNV-1a over
/// whole words with a fold-down after each multiply. Plain word-wise FNV
/// only ever carries bit 63 of a word into bit 63 of the hash, so two
/// flipped sign bits cancelled; the fold moves the top half into the low
/// half, where the next multiply diffuses it.
fn fingerprint_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x100000001B3);
        h ^= h >> 32;
    }
    h
}

/// Bitwise fingerprint of a run of spinors in (site, spin, colour, re/im)
/// order — [`FermionField::fingerprint`] on the whole field, and the
/// distributed solver's per-node block fingerprint.
pub fn fingerprint_spinors(block: &[Spinor]) -> u64 {
    fingerprint_words(block.iter().flat_map(Spinor::to_words))
}

/// A Wilson-type fermion field: one 4-spinor per site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FermionField<T: Real = f64> {
    lat: Lattice,
    data: Vec<Spinor<T>>,
}

impl<T: Real> FermionField<T> {
    /// The zero field.
    pub fn zero(lat: Lattice) -> FermionField<T> {
        FermionField {
            lat,
            data: vec![Spinor::ZERO; lat.volume()],
        }
    }

    /// The lattice this field lives on.
    pub fn lattice(&self) -> Lattice {
        self.lat
    }

    /// Site accessor.
    #[inline]
    pub fn site(&self, idx: usize) -> &Spinor<T> {
        &self.data[idx]
    }

    /// Mutable site accessor.
    #[inline]
    pub fn site_mut(&mut self, idx: usize) -> &mut Spinor<T> {
        &mut self.data[idx]
    }

    /// Hermitian inner product, accumulated in double precision in site
    /// order (deterministic at both widths).
    pub fn dot(&self, rhs: &FermionField<T>) -> C64 {
        assert_eq!(self.lat, rhs.lat);
        let mut acc = C64::ZERO;
        for i in self.lat.sites() {
            acc += self.data[i].dot(&rhs.data[i]).to_c64();
        }
        acc
    }

    /// Squared L2 norm, accumulated in double precision.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|s| s.norm_sqr().to_f64()).sum()
    }

    /// `self += a * rhs`.
    pub fn axpy(&mut self, a: C64, rhs: &FermionField<T>) {
        assert_eq!(self.lat, rhs.lat);
        let a = Complex::from_c64(a);
        for i in self.lat.sites() {
            self.data[i] = self.data[i].axpy(a, &rhs.data[i]);
        }
    }

    /// `self = a * self + rhs` (the CG `p`-update shape).
    pub fn xpay(&mut self, a: C64, rhs: &FermionField<T>) {
        assert_eq!(self.lat, rhs.lat);
        let a = Complex::from_c64(a);
        for i in self.lat.sites() {
            self.data[i] = rhs.data[i].axpy(a, &self.data[i]);
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, a: C64) {
        let a = Complex::from_c64(a);
        for s in &mut self.data {
            *s = s.scale(a);
        }
    }
}

impl FermionField {
    /// A Gaussian random field, site-deterministic.
    pub fn gaussian(lat: Lattice, seed: u64) -> FermionField {
        let mut f = FermionField::zero(lat);
        for idx in lat.sites() {
            let mut rng = SiteRng::new(seed ^ 0xF00D, idx as u64);
            for s in 0..4 {
                for c in 0..3 {
                    f.data[idx].0[s].0[c] = C64::new(rng.normal(), rng.normal());
                }
            }
        }
        f
    }

    /// A point source: unit spin-0/color-0 at `site`.
    pub fn point_source(lat: Lattice, site: usize) -> FermionField {
        let mut f = FermionField::zero(lat);
        f.data[site].0[0] = ColorVec::basis(0);
        f
    }

    /// Truncate every site to single precision.
    pub fn to_f32(&self) -> FermionField<f32> {
        FermionField {
            lat: self.lat,
            data: self.data.iter().map(Spinor::from_f64_spinor).collect(),
        }
    }

    /// Bitwise fingerprint.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_spinors(&self.data)
    }
}

impl FermionField<f32> {
    /// Widen every site to double precision (exact).
    pub fn to_f64(&self) -> FermionField {
        FermionField {
            lat: self.lat,
            data: self.data.iter().map(Spinor::to_f64_spinor).collect(),
        }
    }
}

/// A staggered fermion field: one color vector per site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaggeredField<T: Real = f64> {
    lat: Lattice,
    data: Vec<ColorVec<T>>,
}

impl<T: Real> StaggeredField<T> {
    /// The zero field.
    pub fn zero(lat: Lattice) -> StaggeredField<T> {
        StaggeredField {
            lat,
            data: vec![ColorVec::ZERO; lat.volume()],
        }
    }

    /// The lattice this field lives on.
    pub fn lattice(&self) -> Lattice {
        self.lat
    }

    /// Site accessor.
    #[inline]
    pub fn site(&self, idx: usize) -> &ColorVec<T> {
        &self.data[idx]
    }

    /// Mutable site accessor.
    #[inline]
    pub fn site_mut(&mut self, idx: usize) -> &mut ColorVec<T> {
        &mut self.data[idx]
    }

    /// Hermitian inner product, accumulated in double precision in site
    /// order.
    pub fn dot(&self, rhs: &StaggeredField<T>) -> C64 {
        assert_eq!(self.lat, rhs.lat);
        let mut acc = C64::ZERO;
        for i in self.lat.sites() {
            acc += self.data[i].dot(&rhs.data[i]).to_c64();
        }
        acc
    }

    /// Squared L2 norm, accumulated in double precision.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|s| s.norm_sqr().to_f64()).sum()
    }

    /// `self += a * rhs`.
    pub fn axpy(&mut self, a: C64, rhs: &StaggeredField<T>) {
        assert_eq!(self.lat, rhs.lat);
        let a = Complex::from_c64(a);
        for i in self.lat.sites() {
            self.data[i] = self.data[i].axpy(a, &rhs.data[i]);
        }
    }

    /// `self = a * self + rhs`.
    pub fn xpay(&mut self, a: C64, rhs: &StaggeredField<T>) {
        assert_eq!(self.lat, rhs.lat);
        let a = Complex::from_c64(a);
        for i in self.lat.sites() {
            self.data[i] = rhs.data[i].axpy(a, &self.data[i]);
        }
    }
}

impl StaggeredField {
    /// A Gaussian random field, site-deterministic.
    pub fn gaussian(lat: Lattice, seed: u64) -> StaggeredField {
        let mut f = StaggeredField::zero(lat);
        for idx in lat.sites() {
            let mut rng = SiteRng::new(seed ^ 0x57A6, idx as u64);
            for c in 0..3 {
                f.data[idx].0[c] = C64::new(rng.normal(), rng.normal());
            }
        }
        f
    }

    /// Truncate every site to single precision.
    pub fn to_f32(&self) -> StaggeredField<f32> {
        StaggeredField {
            lat: self.lat,
            data: self.data.iter().map(ColorVec::from_c64_vec).collect(),
        }
    }
}

impl StaggeredField<f32> {
    /// Widen every site to double precision (exact).
    pub fn to_f64(&self) -> StaggeredField {
        StaggeredField {
            lat: self.lat,
            data: self.data.iter().map(ColorVec::to_c64_vec).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coord_bijection() {
        let lat = Lattice::new([3, 4, 2, 5]);
        for idx in lat.sites() {
            assert_eq!(lat.index(lat.coord(idx)), idx);
        }
    }

    #[test]
    fn neighbour_wraps_periodically() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let origin = lat.index([0, 0, 0, 0]);
        let back = lat.neighbour(origin, 3, false);
        assert_eq!(lat.coord(back), [0, 0, 0, 3]);
        assert_eq!(lat.neighbour(back, 3, true), origin);
    }

    #[test]
    fn neighbour_round_trip_all_directions() {
        let lat = Lattice::new([2, 4, 2, 4]);
        for idx in lat.sites() {
            for mu in 0..4 {
                assert_eq!(lat.neighbour(lat.neighbour(idx, mu, true), mu, false), idx);
            }
        }
    }

    #[test]
    fn parity_flips_across_links() {
        let lat = Lattice::new([4, 4, 4, 4]);
        for idx in lat.sites() {
            for mu in 0..4 {
                let nb = lat.neighbour(idx, mu, true);
                assert_ne!(lat.parity(idx), lat.parity(nb));
            }
        }
    }

    #[test]
    fn parity_halves_the_lattice() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let even = lat.sites().filter(|&i| lat.parity(i) == 0).count();
        assert_eq!(even, lat.volume() / 2);
    }

    #[test]
    fn hot_start_is_unitary_and_reproducible() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let a = GaugeField::hot(lat, 11);
        let b = GaugeField::hot(lat, 11);
        assert!(a.max_unitarity_error() < 1e-12);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = GaugeField::hot(lat, 12);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprints_see_paired_sign_bit_flips() {
        // Word-wise FNV carried bit 63 of a word only into bit 63 of the
        // hash, so an even number of flipped sign bits cancelled.
        let lat = Lattice::new([2, 2, 2, 2]);
        let f = FermionField::gaussian(lat, 3);
        let mut flipped = f.clone();
        for (site, spin) in [(1, 0), (9, 3)] {
            let z = &mut flipped.site_mut(site).0[spin].0[1];
            z.re = -z.re;
        }
        assert_ne!(f.fingerprint(), flipped.fingerprint());

        let g = GaugeField::hot(lat, 4);
        let mut flipped = g.clone();
        for (site, mu) in [(0, 2), (15, 1)] {
            let z = &mut flipped.link_mut(site, mu).0[2][0];
            z.im = -z.im;
        }
        assert_ne!(g.fingerprint(), flipped.fingerprint());
    }

    #[test]
    fn fermion_vector_space_ops() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let a = FermionField::gaussian(lat, 1);
        let b = FermionField::gaussian(lat, 2);
        // dot(a, a) == |a|^2.
        assert!((a.dot(&a).re - a.norm_sqr()).abs() < 1e-9);
        assert!(a.dot(&a).im.abs() < 1e-10);
        // axpy linearity: |a + b|^2 = |a|^2 + 2 Re<a,b> + |b|^2.
        let mut apb = a.clone();
        apb.axpy(C64::ONE, &b);
        let lhs = apb.norm_sqr();
        let rhs = a.norm_sqr() + 2.0 * a.dot(&b).re + b.norm_sqr();
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn point_source_has_unit_norm() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let src = FermionField::point_source(lat, 17);
        assert!((src.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gaussian_field_is_decomposition_independent() {
        // The per-site RNG means the field depends only on global indices —
        // two identically-seeded builds agree bitwise.
        let lat = Lattice::new([4, 2, 2, 2]);
        let a = FermionField::gaussian(lat, 5);
        let b = FermionField::gaussian(lat, 5);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn staggered_ops() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let a = StaggeredField::gaussian(lat, 3);
        let b = StaggeredField::gaussian(lat, 4);
        let d = a.dot(&b);
        let d2 = b.dot(&a);
        assert!((d - d2.conj()).abs() < 1e-10);
        let mut c = a.clone();
        c.axpy(C64::real(-1.0), &a);
        assert!(c.norm_sqr() < 1e-20);
    }

    #[test]
    fn precision_truncation_roundtrip() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let a = FermionField::gaussian(lat, 9);
        let lo = a.to_f32();
        // Truncation loses bits, but widening back is exact on what's left.
        let hi = lo.to_f64();
        for i in lat.sites() {
            for s in 0..4 {
                for c in 0..3 {
                    let orig = a.site(i).0[s].0[c];
                    let back = hi.site(i).0[s].0[c];
                    assert!((orig - back).abs() < 1e-6 * orig.abs().max(1.0));
                }
            }
        }
        let g = GaugeField::hot(lat, 10);
        let g32 = g.to_f32();
        assert!(g32.max_unitarity_error() < 1e-5);
    }
}
