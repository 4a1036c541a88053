//! Physics measurements: quark propagators and meson correlators.
//!
//! This is what the machine was built to produce. A quark propagator is
//! twelve Dirac-equation solves (one per spin-color source component); the
//! pion correlator is its spin-color-summed modulus squared projected onto
//! time slices,
//!
//! ```text
//! C(t) = Σ_{x⃗} Σ_{s,c,s',c'} |S(x⃗,t; 0)_{s c, s' c'}|²
//! ```
//!
//! which for positive-definite actions is positive and, at large `t`,
//! decays as `cosh(m_π (t − T/2))` on a periodic lattice.

use crate::complex::C64;
use crate::field::{FermionField, GaugeField};
use crate::solver::{solve_cgne, CgParams, CgReport};
use crate::wilson::WilsonDirac;

/// A full quark propagator from a point source at the origin: one solved
/// field per source spin-color component.
#[derive(Debug, Clone)]
pub struct Propagator {
    /// Columns indexed by source (spin, color): `columns[3 * s + c]`.
    pub columns: Vec<FermionField>,
    /// CG reports of the twelve solves.
    pub reports: Vec<CgReport>,
}

/// Compute the Wilson propagator from a point source at site 0.
pub fn point_propagator(gauge: &GaugeField, kappa: f64, params: CgParams) -> Propagator {
    let lat = gauge.lattice();
    let op = WilsonDirac::new(gauge, kappa);
    let mut columns = Vec::with_capacity(12);
    let mut reports = Vec::with_capacity(12);
    for s in 0..4 {
        for c in 0..3 {
            let mut src = FermionField::zero(lat);
            src.site_mut(0).0[s].0[c] = C64::ONE;
            let mut x = FermionField::zero(lat);
            let report = solve_cgne(&op, &mut x, &src, params);
            columns.push(x);
            reports.push(report);
        }
    }
    Propagator { columns, reports }
}

/// The pion (pseudoscalar) correlator `C(t)` from a propagator.
pub fn pion_correlator(prop: &Propagator) -> Vec<f64> {
    let lat = prop.columns[0].lattice();
    let nt = lat.dims()[3];
    let mut corr = vec![0.0f64; nt];
    for col in &prop.columns {
        for x in lat.sites() {
            let t = lat.coord(x)[3];
            corr[t] += col.site(x).norm_sqr();
        }
    }
    corr
}

/// Effective mass `m_eff(t) = ln(C(t) / C(t+1))` — flat where a single
/// state dominates.
pub fn effective_mass(corr: &[f64]) -> Vec<f64> {
    corr.windows(2).map(|w| (w[0] / w[1]).ln()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Lattice;
    use crate::gauge::{evolve, EvolveParams};

    /// Sum a spinor's squared magnitude per time slice.
    fn timeslice_norms(field: &FermionField) -> Vec<f64> {
        let lat = field.lattice();
        let nt = lat.dims()[3];
        let mut out = vec![0.0f64; nt];
        for x in lat.sites() {
            out[lat.coord(x)[3]] += field.site(x).norm_sqr();
        }
        out
    }

    fn setup() -> (GaugeField, Propagator) {
        let lat = Lattice::new([2, 2, 2, 8]);
        let mut gauge = GaugeField::hot(lat, 2024);
        evolve(&mut gauge, EvolveParams::default(), 3, 3);
        let prop = point_propagator(
            &gauge,
            0.11,
            CgParams {
                tolerance: 1e-9,
                max_iterations: 4000,
            },
        );
        (gauge, prop)
    }

    #[test]
    fn all_twelve_solves_converge() {
        let (_, prop) = setup();
        assert_eq!(prop.columns.len(), 12);
        assert!(prop.reports.iter().all(|r| r.converged));
    }

    #[test]
    fn pion_correlator_is_positive_and_symmetric_ish() {
        let (_, prop) = setup();
        let corr = pion_correlator(&prop);
        assert_eq!(corr.len(), 8);
        assert!(corr.iter().all(|&c| c > 0.0), "{corr:?}");
        // Periodic lattice: C(t) ~ C(T-t); exact for the pseudoscalar at
        // zero momentum up to rounding.
        for t in 1..4 {
            let ratio = corr[t] / corr[8 - t];
            assert!((ratio - 1.0).abs() < 0.35, "t={t}: {ratio}");
        }
    }

    #[test]
    fn correlator_decays_from_the_source() {
        let (_, prop) = setup();
        let corr = pion_correlator(&prop);
        assert!(corr[0] > corr[1]);
        assert!(corr[1] > corr[3], "{corr:?}");
    }

    #[test]
    fn effective_mass_is_positive_in_the_bulk() {
        let (_, prop) = setup();
        let corr = pion_correlator(&prop);
        let meff = effective_mass(&corr);
        // Before the midpoint the correlator falls: positive m_eff.
        for (t, &m) in meff.iter().take(3).enumerate() {
            assert!(m > 0.0, "t={t}: {m}");
        }
    }

    #[test]
    fn free_field_correlator_matches_both_orderings() {
        // On unit links the propagator is translation invariant; the
        // timeslice helper must agree with the correlator assembled from
        // columns.
        let lat = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::unit(lat);
        let prop = point_propagator(&gauge, 0.1, CgParams::default());
        let corr = pion_correlator(&prop);
        let mut manual = [0.0; 4];
        for col in &prop.columns {
            for (t, v) in timeslice_norms(col).into_iter().enumerate() {
                manual[t] += v;
            }
        }
        for t in 0..4 {
            assert!((corr[t] - manual[t]).abs() < 1e-12);
        }
    }
}
