//! Lattice QCD workloads for the QCDOC reproduction.
//!
//! QCDOC exists to run lattice QCD, and the paper benchmarks it on the
//! conjugate-gradient solution of the Dirac equation for four fermion
//! discretizations: naive Wilson, clover-improved Wilson, ASQTAD staggered
//! (§4: 40%, 46.5% and 38% of peak respectively at 4⁴ local volume) and
//! domain-wall fermions (the five-dimensional formulation the machine's
//! sixth network dimension anticipates). This crate implements that
//! workload suite from scratch:
//!
//! * [`complex`], [`su3`], [`colorvec`], [`spinor`], [`gamma`] — the dense
//!   algebra: complex numbers, SU(3) matrices, color vectors, 4-spinors and
//!   the Euclidean gamma-matrix basis with its spin projectors;
//! * [`field`] — 4-D (and 5-D) lattice layouts, gauge and fermion fields,
//!   even/odd checkerboarding;
//! * [`rng`] — a deterministic, site-indexed parallel RNG so field
//!   generation is bit-reproducible regardless of node decomposition;
//! * [`gauge`] — plaquette, Wilson gauge action, and quenched heatbath +
//!   overrelaxation evolution (the workload of the §4 reproducibility run);
//! * [`wilson`], [`clover`], [`staggered`], [`dwf`] — the four Dirac
//!   operators;
//! * [`eo`] — even/odd preconditioning (the production solver trick);
//! * [`solver`] — conjugate gradient on the normal equations, the kernel
//!   that "dominates our calculations";
//! * [`aosoa`] — lane-blocked AoSoA field layouts and the SIMD Wilson hot
//!   path, bit-identical per precision to the scalar kernels;
//! * [`checkpoint`] — deterministic CG state checkpoints in the NERSC
//!   idiom, the solver half of the machine's quarantine-and-resume story;
//! * [`counts`] — closed-form per-site operation ledgers for each operator,
//!   the input to the machine performance model.
//!
//! The whole stack is generic over the [`Real`] scalar width (`f64` by
//! default, `f32` via [`real`]): fields, all four operators and the CG
//! solver instantiate at either precision, and
//! [`solver::solve_cgne_mixed`] combines them into the reliable-update
//! scheme that reaches full double-precision tolerance with the bulk of
//! the work in single precision — the §4 single-precision story, where
//! halved operands double the effective EDRAM bandwidth.

#![warn(missing_docs)]

pub mod aosoa;
pub mod checkpoint;
pub mod clover;
pub mod colorvec;
pub mod complex;
pub mod counts;
pub mod dwf;
pub mod eo;
pub mod field;
pub mod gamma;
pub mod gauge;
pub mod io;
pub mod measure;
pub mod real;
pub mod rng;
pub mod solver;
pub mod spinor;
pub mod staggered;
pub mod su3;
pub mod wilson;

pub use checkpoint::{CgCheckpoint, ResumeError};
pub use complex::{Complex, C32, C64};
pub use field::{FermionField, GaugeField, Lattice};
pub use real::Real;
pub use solver::{CgReport, DiracOperator};
pub use su3::Su3;
