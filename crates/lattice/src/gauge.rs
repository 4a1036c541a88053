//! The gauge sector: plaquette, Wilson action, and quenched evolution by
//! Cabibbo–Marinari heatbath with overrelaxation.
//!
//! This is the workload of the paper's §4 verification: "a five day
//! simulation was completed on a 128 node machine … and then redone, with
//! the requirement that the resulting QCD configuration be identical in
//! all bits." Every random draw here is keyed to the global site index and
//! sweep number (see [`crate::rng`]), so two evolutions of the same seed
//! are bit-identical whatever the machine decomposition.

use crate::complex::C64;
use crate::field::GaugeField;
#[cfg(test)]
use crate::field::Lattice;
use crate::rng::SiteRng;
use crate::su3::Su3;

/// Average plaquette `⟨(1/3) Re Tr U_p⟩` over all sites and planes —
/// 1.0 on a cold configuration, → 0 as β → 0.
pub fn average_plaquette(gauge: &GaugeField) -> f64 {
    let lat = gauge.lattice();
    let mut acc = 0.0f64;
    let mut count = 0usize;
    for x in lat.sites() {
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                let xpm = lat.neighbour(x, mu, true);
                let xpn = lat.neighbour(x, nu, true);
                let p = *gauge.link(x, mu)
                    * *gauge.link(xpm, nu)
                    * gauge.link(xpn, mu).adjoint()
                    * gauge.link(x, nu).adjoint();
                acc += p.trace().re / 3.0;
                count += 1;
            }
        }
    }
    acc / count as f64
}

/// The sum of the six staples completing the plaquettes through
/// `U_μ(x)`: the local action is `−(β/3) Re Tr (U_μ(x) S)`.
pub fn staple_sum(gauge: &GaugeField, x: usize, mu: usize) -> Su3 {
    let lat = gauge.lattice();
    let mut s = Su3::ZERO;
    let xpm = lat.neighbour(x, mu, true);
    for nu in 0..4 {
        if nu == mu {
            continue;
        }
        let xpn = lat.neighbour(x, nu, true);
        let xmn = lat.neighbour(x, nu, false);
        let xmn_pm = lat.neighbour(xmn, mu, true);
        // Upper: U_nu(x+mu) U_mu(x+nu)^† U_nu(x)^†.
        s = s + *gauge.link(xpm, nu) * gauge.link(xpn, mu).adjoint() * gauge.link(x, nu).adjoint();
        // Lower: U_nu(x+mu-nu)^† U_mu(x-nu)^† U_nu(x-nu).
        s = s + gauge.link(xmn_pm, nu).adjoint()
            * gauge.link(xmn, mu).adjoint()
            * *gauge.link(xmn, nu);
    }
    s
}

/// Wilson gauge action `S = β Σ_p (1 − (1/3) Re Tr U_p)`.
pub fn wilson_action(gauge: &GaugeField, beta: f64) -> f64 {
    let plaquettes = (gauge.lattice().volume() * 6) as f64;
    beta * plaquettes * (1.0 - average_plaquette(gauge))
}

/// Parameters of the quenched evolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolveParams {
    /// Gauge coupling β = 6/g².
    pub beta: f64,
    /// Overrelaxation sweeps per heatbath sweep.
    pub or_per_hb: usize,
    /// Reunitarize every this many sweeps (drift control).
    pub reunit_interval: usize,
}

impl Default for EvolveParams {
    fn default() -> Self {
        EvolveParams {
            beta: 5.7,
            or_per_hb: 1,
            reunit_interval: 10,
        }
    }
}

/// Kennedy–Pendleton sampling of `x0 ∈ [−1, 1]` with density
/// `∝ sqrt(1 − x0²) exp(α x0)`.
fn kp_sample_x0(alpha: f64, rng: &mut SiteRng) -> f64 {
    if alpha < 1e-9 {
        // β k → 0: the weight degenerates to the semicircle density; a
        // uniform draw is adequate for this unreachable-by-physics corner
        // and avoids the division below.
        return 2.0 * rng.uniform() - 1.0;
    }
    loop {
        let r1 = rng.uniform_open();
        let r2 = rng.uniform();
        let r3 = rng.uniform_open();
        let lambda2 =
            -(r1.ln() + (std::f64::consts::TAU * r2 / 2.0).cos().powi(2) * r3.ln()) / (2.0 * alpha);
        let r4 = rng.uniform();
        if r4 * r4 <= 1.0 - lambda2 {
            return 1.0 - 2.0 * lambda2;
        }
    }
}

/// One SU(2)-subgroup heatbath hit on `U_μ(x)`.
fn su2_heatbath_hit(u: &mut Su3, staple: &Su3, beta: f64, p: usize, q: usize, rng: &mut SiteRng) {
    let w = *u * *staple;
    let (va, vb, k) = w.su2_project(p, q);
    if k < 1e-12 {
        return;
    }
    // P(A) ∝ exp((2βk/3) · x0(AV)); sample X = AV from the KP
    // distribution, then A = X V†.
    let alpha = 2.0 * beta * k / 3.0;
    let x0 = kp_sample_x0(alpha, rng);
    let r = (1.0 - x0 * x0).max(0.0).sqrt();
    // Random direction on the 2-sphere.
    let cos_t = 2.0 * rng.uniform() - 1.0;
    let sin_t = (1.0 - cos_t * cos_t).max(0.0).sqrt();
    let phi = std::f64::consts::TAU * rng.uniform();
    let (x1, x2, x3) = (r * sin_t * phi.cos(), r * sin_t * phi.sin(), r * cos_t);
    // X as (a, b) parameters: a = x0 + i x3, b = x2 + i x1.
    let xa = C64::new(x0, x3);
    let xb = C64::new(x2, x1);
    // A = X V†: SU(2) multiply (a, b) ∘ conj-inverse of (va, vb).
    let aa = xa * va.conj() + xb * vb.conj();
    let ab = -xa * vb + xb * va;
    let a_mat = Su3::from_su2(aa, ab, p, q);
    *u = a_mat * *u;
}

/// One SU(2)-subgroup overrelaxation hit (microcanonical reflection
/// `A = (V†)²`).
fn su2_overrelax_hit(u: &mut Su3, staple: &Su3, p: usize, q: usize) {
    let w = *u * *staple;
    let (va, vb, k) = w.su2_project(p, q);
    if k < 1e-12 {
        return;
    }
    // (V†)² in (a, b) parameters: V† = (va*, -vb); square it.
    let ha = va.conj();
    let hb = -vb;
    let aa = ha * ha - hb * hb.conj();
    let ab = ha * hb + hb * ha.conj();
    let a_mat = Su3::from_su2(aa, ab, p, q);
    *u = a_mat * *u;
}

const SUBGROUPS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];

/// One full heatbath sweep (all sites, all directions, all subgroups).
pub fn heatbath_sweep(gauge: &mut GaugeField, beta: f64, seed: u64, sweep: u64) {
    let lat = gauge.lattice();
    for x in lat.sites() {
        for mu in 0..4 {
            let staple = staple_sum(gauge, x, mu);
            let mut rng = SiteRng::new(
                seed ^ sweep.wrapping_mul(0x9E3779B97F4A7C15) ^ (mu as u64) << 56,
                x as u64,
            );
            let mut u = *gauge.link(x, mu);
            for &(p, q) in &SUBGROUPS {
                su2_heatbath_hit(&mut u, &staple, beta, p, q, &mut rng);
            }
            *gauge.link_mut(x, mu) = u;
        }
    }
}

/// One full overrelaxation sweep.
pub fn overrelax_sweep(gauge: &mut GaugeField) {
    let lat = gauge.lattice();
    for x in lat.sites() {
        for mu in 0..4 {
            let staple = staple_sum(gauge, x, mu);
            let mut u = *gauge.link(x, mu);
            for &(p, q) in &SUBGROUPS {
                su2_overrelax_hit(&mut u, &staple, p, q);
            }
            *gauge.link_mut(x, mu) = u;
        }
    }
}

/// Run `sweeps` combined (heatbath + OR) sweeps; returns the plaquette
/// history, one entry per sweep.
pub fn evolve(gauge: &mut GaugeField, params: EvolveParams, seed: u64, sweeps: usize) -> Vec<f64> {
    let mut history = Vec::with_capacity(sweeps);
    for sweep in 0..sweeps {
        heatbath_sweep(gauge, params.beta, seed, sweep as u64);
        for _ in 0..params.or_per_hb {
            overrelax_sweep(gauge);
        }
        if params.reunit_interval > 0 && (sweep + 1) % params.reunit_interval == 0 {
            gauge.reunitarize();
        }
        history.push(average_plaquette(gauge));
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> Lattice {
        Lattice::new([4, 4, 4, 4])
    }

    #[test]
    fn cold_plaquette_is_one() {
        let g = GaugeField::unit(lat());
        assert!((average_plaquette(&g) - 1.0).abs() < 1e-14);
        assert!(wilson_action(&g, 6.0).abs() < 1e-10);
    }

    #[test]
    fn hot_plaquette_is_small() {
        let g = GaugeField::hot(lat(), 1);
        let p = average_plaquette(&g);
        assert!(
            p.abs() < 0.2,
            "random links should have tiny plaquette, got {p}"
        );
    }

    #[test]
    fn staple_count_on_unit_links() {
        // Six staples, each the identity.
        let g = GaugeField::unit(lat());
        let s = staple_sum(&g, 0, 2);
        assert!((s.0[0][0].re - 6.0).abs() < 1e-12);
        assert!(s.0[0][1].abs() < 1e-12);
    }

    #[test]
    fn heatbath_thermalizes_toward_beta_band() {
        // At beta = 5.7 the quenched plaquette lands near 0.55-0.60; from a
        // hot start the heatbath must climb well above the random value and
        // stay below the cold value.
        let mut g = GaugeField::hot(lat(), 7);
        let history = evolve(&mut g, EvolveParams::default(), 99, 20);
        let p = *history.last().unwrap();
        assert!(p > 0.40 && p < 0.75, "plaquette after thermalization: {p}");
        assert!(g.max_unitarity_error() < 1e-9);
    }

    #[test]
    fn high_beta_stays_ordered() {
        let mut g = GaugeField::unit(lat());
        let history = evolve(
            &mut g,
            EvolveParams {
                beta: 100.0,
                ..Default::default()
            },
            3,
            5,
        );
        assert!(*history.last().unwrap() > 0.95);
    }

    #[test]
    fn overrelaxation_preserves_action() {
        let mut g = GaugeField::hot(lat(), 11);
        // Thermalize a little first.
        evolve(&mut g, EvolveParams::default(), 5, 5);
        let before = wilson_action(&g, 5.7);
        overrelax_sweep(&mut g);
        let after = wilson_action(&g, 5.7);
        // Microcanonical: action preserved up to rounding. Note each hit
        // preserves its own local action exactly; sweeping changes staples,
        // still exact in exact arithmetic.
        assert!(
            (before - after).abs() < 1e-6 * before.abs(),
            "OR changed action: {before} -> {after}"
        );
    }

    #[test]
    fn evolution_is_bit_reproducible() {
        // The §4 check, in miniature: evolve twice from the same start with
        // the same seed; fingerprints must match exactly.
        let small = Lattice::new([2, 2, 2, 2]);
        let mut g1 = GaugeField::hot(small, 42);
        let mut g2 = GaugeField::hot(small, 42);
        evolve(&mut g1, EvolveParams::default(), 1234, 6);
        evolve(&mut g2, EvolveParams::default(), 1234, 6);
        assert_eq!(
            g1.fingerprint(),
            g2.fingerprint(),
            "evolution must be bit-identical"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let small = Lattice::new([2, 2, 2, 2]);
        let mut g1 = GaugeField::hot(small, 42);
        let mut g2 = GaugeField::hot(small, 42);
        evolve(&mut g1, EvolveParams::default(), 1, 3);
        evolve(&mut g2, EvolveParams::default(), 2, 3);
        assert_ne!(g1.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn links_stay_in_su3() {
        let mut g = GaugeField::hot(lat(), 13);
        evolve(
            &mut g,
            EvolveParams {
                reunit_interval: 1,
                ..Default::default()
            },
            77,
            5,
        );
        assert!(g.max_unitarity_error() < 1e-10);
        // Spot-check determinants.
        for x in [0, 100, 200] {
            for mu in 0..4 {
                let d = g.link(x, mu).det();
                assert!((d - C64::ONE).abs() < 1e-9);
            }
        }
    }
}
