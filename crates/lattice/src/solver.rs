//! Conjugate gradient on the normal equations — "the conjugate gradient
//! solvers that dominate our calculations" (abstract).
//!
//! The Dirac operators are non-Hermitian, so we solve `M x = b` through the
//! Hermitian positive-definite normal equations `M†M x = M†b`. Each
//! iteration costs two operator applications, three vector updates and two
//! global reductions — the two inner products whose latency motivates the
//! SCU's hardware global sums (§2.2).

use crate::checkpoint::{CgCheckpoint, ResumeError};
use crate::complex::C64;
use crate::dwf::{DwfDirac, DwfField};
use crate::field::{FermionField, StaggeredField};
use crate::real::Real;
use crate::spinor::{Spinor, WORDS_PER_SPINOR};
use crate::staggered::{AsqtadDirac, StaggeredDirac};
use crate::wilson::WilsonDirac;
use qcdoc_telemetry::{FlightKind, NodeTelemetry, Phase};

/// Vector-space operations CG needs from a field type.
pub trait KrylovVector: Clone {
    /// Hermitian inner product in a deterministic (site-order) association.
    fn dot(&self, rhs: &Self) -> C64;
    /// Squared L2 norm.
    fn norm_sqr(&self) -> f64;
    /// `self += a · rhs`.
    fn axpy(&mut self, a: C64, rhs: &Self);
    /// `self = a · self + rhs`.
    fn xpay(&mut self, a: C64, rhs: &Self);
    /// Set to zero.
    fn fill_zero(&mut self);
    /// The field's values as IEEE-754 bit patterns, in deterministic
    /// (site, then component) order — the checkpoint serialization.
    fn to_bits(&self) -> Vec<u64>;
    /// Restore values previously captured by [`KrylovVector::to_bits`].
    /// Panics if `bits` does not match the field's shape.
    fn load_bits(&mut self, bits: &[u64]);
    /// [`KrylovVector::to_bits`] into a caller-owned buffer — same
    /// contents and order, but the allocation is reused. The ABFT audit
    /// re-snapshots its rollback target every few iterations, so this
    /// keeps the clean path free of allocator traffic (whose cost is
    /// wildly machine-mood-dependent) after the first capture.
    fn store_bits(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.to_bits());
    }
    /// Linear content checksum: the plain sum of every scalar component.
    /// Linearity is what makes it ABFT-usable — the CG updates propagate
    /// it exactly up to roundoff: `s(x + a·y) = s(x) + a·s(y)` — so a
    /// cheaply-maintained running copy can audit the stored vector.
    fn checksum(&self) -> f64 {
        self.to_bits().iter().map(|&b| f64::from_bits(b)).sum()
    }
    /// Fused `self · rhs` and `rhs` content checksum in one traversal —
    /// bit-identical to [`KrylovVector::dot`] followed by
    /// [`KrylovVector::checksum`], because the two accumulators are
    /// independent and visit components in the same order. The ABFT
    /// audit calls this once per iteration, so an optimized single-pass
    /// implementation turns its extra sweep over the operator output
    /// into a ride-along on the dot product.
    fn dot_with_rhs_checksum(&self, rhs: &Self) -> (C64, f64) {
        (self.dot(rhs), rhs.checksum())
    }
    /// Fused content checksum and squared L2 norm in one traversal —
    /// bit-identical to the separate calls, for the same reason.
    fn checksum_norm_sqr(&self) -> (f64, f64) {
        (self.checksum(), self.norm_sqr())
    }
}

impl<T: Real> KrylovVector for FermionField<T> {
    fn dot(&self, rhs: &Self) -> C64 {
        FermionField::dot(self, rhs)
    }
    fn norm_sqr(&self) -> f64 {
        FermionField::norm_sqr(self)
    }
    fn axpy(&mut self, a: C64, rhs: &Self) {
        FermionField::axpy(self, a, rhs)
    }
    fn xpay(&mut self, a: C64, rhs: &Self) {
        FermionField::xpay(self, a, rhs)
    }
    fn fill_zero(&mut self) {
        for i in self.lattice().sites() {
            *self.site_mut(i) = Spinor::ZERO;
        }
    }
    fn checksum(&self) -> f64 {
        // Same values in the same order as the default, without the
        // `to_bits` allocation — this runs once per CG iteration when
        // ABFT is on, so it must stay off the heap.
        let mut s = 0.0;
        for i in self.lattice().sites() {
            let sp = self.site(i);
            for cv in &sp.0 {
                for z in &cv.0 {
                    s += f64::from_bits(z.re.bits64());
                    s += f64::from_bits(z.im.bits64());
                }
            }
        }
        s
    }
    fn dot_with_rhs_checksum(&self, rhs: &Self) -> (C64, f64) {
        // One traversal, two independent accumulators: `acc` mirrors
        // `FermionField::dot` and `s` mirrors `checksum`, each in the
        // same component order as the standalone method, so both results
        // are bit-identical to the unfused calls.
        assert_eq!(self.lattice(), rhs.lattice());
        let mut acc = C64::ZERO;
        let mut s = 0.0;
        for i in self.lattice().sites() {
            let sp = rhs.site(i);
            acc += self.site(i).dot(sp).to_c64();
            for cv in &sp.0 {
                for z in &cv.0 {
                    s += f64::from_bits(z.re.bits64());
                    s += f64::from_bits(z.im.bits64());
                }
            }
        }
        (acc, s)
    }
    fn checksum_norm_sqr(&self) -> (f64, f64) {
        let mut s = 0.0;
        let mut n = 0.0;
        for i in self.lattice().sites() {
            let sp = self.site(i);
            n += sp.norm_sqr().to_f64();
            for cv in &sp.0 {
                for z in &cv.0 {
                    s += f64::from_bits(z.re.bits64());
                    s += f64::from_bits(z.im.bits64());
                }
            }
        }
        (s, n)
    }
    fn to_bits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.store_bits(&mut out);
        out
    }
    fn store_bits(&self, out: &mut Vec<u64>) {
        let lat = self.lattice();
        out.clear();
        out.reserve(lat.volume() * WORDS_PER_SPINOR);
        for i in lat.sites() {
            out.extend_from_slice(&self.site(i).to_words());
        }
    }
    fn load_bits(&mut self, bits: &[u64]) {
        let lat = self.lattice();
        assert_eq!(
            bits.len(),
            lat.volume() * WORDS_PER_SPINOR,
            "checkpoint shape mismatch"
        );
        for (i, words) in lat.sites().zip(bits.as_chunks().0) {
            *self.site_mut(i) = Spinor::from_words(words);
        }
    }
}

impl<T: Real> KrylovVector for StaggeredField<T> {
    fn dot(&self, rhs: &Self) -> C64 {
        StaggeredField::dot(self, rhs)
    }
    fn norm_sqr(&self) -> f64 {
        StaggeredField::norm_sqr(self)
    }
    fn axpy(&mut self, a: C64, rhs: &Self) {
        StaggeredField::axpy(self, a, rhs)
    }
    fn xpay(&mut self, a: C64, rhs: &Self) {
        StaggeredField::xpay(self, a, rhs)
    }
    fn fill_zero(&mut self) {
        *self = StaggeredField::zero(self.lattice());
    }
    fn checksum(&self) -> f64 {
        let mut s = 0.0;
        for i in self.lattice().sites() {
            for z in &self.site(i).0 {
                s += f64::from_bits(z.re.bits64());
                s += f64::from_bits(z.im.bits64());
            }
        }
        s
    }
    fn to_bits(&self) -> Vec<u64> {
        let lat = self.lattice();
        let mut out = Vec::with_capacity(lat.volume() * 6);
        for i in lat.sites() {
            for z in &self.site(i).0 {
                out.push(z.re.bits64());
                out.push(z.im.bits64());
            }
        }
        out
    }
    fn load_bits(&mut self, bits: &[u64]) {
        let lat = self.lattice();
        assert_eq!(bits.len(), lat.volume() * 6, "checkpoint shape mismatch");
        let mut it = bits.iter();
        for i in lat.sites() {
            for z in &mut self.site_mut(i).0 {
                z.re = T::from_bits64(*it.next().expect("length checked"));
                z.im = T::from_bits64(*it.next().expect("length checked"));
            }
        }
    }
}

impl<T: Real> KrylovVector for DwfField<T> {
    fn dot(&self, rhs: &Self) -> C64 {
        DwfField::dot(self, rhs)
    }
    fn norm_sqr(&self) -> f64 {
        DwfField::norm_sqr(self)
    }
    fn axpy(&mut self, a: C64, rhs: &Self) {
        DwfField::axpy(self, a, rhs)
    }
    fn xpay(&mut self, a: C64, rhs: &Self) {
        DwfField::xpay(self, a, rhs)
    }
    fn fill_zero(&mut self) {
        let lat = self.lattice();
        let ls = self.ls();
        *self = DwfField::zero(lat, ls);
    }
    fn checksum(&self) -> f64 {
        (0..self.ls()).map(|s| self.slice(s).checksum()).sum()
    }
    fn to_bits(&self) -> Vec<u64> {
        (0..self.ls())
            .flat_map(|s| self.slice(s).to_bits())
            .collect()
    }
    fn load_bits(&mut self, bits: &[u64]) {
        let per_slice = self.lattice().volume() * WORDS_PER_SPINOR;
        assert_eq!(
            bits.len(),
            per_slice * self.ls(),
            "checkpoint shape mismatch"
        );
        for s in 0..self.ls() {
            self.slice_mut(s)
                .load_bits(&bits[s * per_slice..(s + 1) * per_slice]);
        }
    }
}

/// A Dirac operator usable by the CG driver.
pub trait DiracOperator {
    /// The field type the operator acts on.
    type Field: KrylovVector;
    /// `out = M inp`.
    fn apply(&self, out: &mut Self::Field, inp: &Self::Field);
    /// `out = M† inp`.
    fn apply_dagger(&self, out: &mut Self::Field, inp: &Self::Field);
    /// Human-readable name (for reports).
    fn name(&self) -> &'static str;
}

impl<T: Real> DiracOperator for WilsonDirac<'_, T> {
    type Field = FermionField<T>;
    fn apply(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        WilsonDirac::apply(self, out, inp)
    }
    fn apply_dagger(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        WilsonDirac::apply_dagger(self, out, inp)
    }
    fn name(&self) -> &'static str {
        "wilson"
    }
}

impl<T: Real> DiracOperator for crate::clover::CloverDirac<'_, T> {
    type Field = FermionField<T>;
    fn apply(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        crate::clover::CloverDirac::apply(self, out, inp)
    }
    fn apply_dagger(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        crate::clover::CloverDirac::apply_dagger(self, out, inp)
    }
    fn name(&self) -> &'static str {
        "clover"
    }
}

impl<T: Real> DiracOperator for StaggeredDirac<'_, T> {
    type Field = StaggeredField<T>;
    fn apply(&self, out: &mut StaggeredField<T>, inp: &StaggeredField<T>) {
        StaggeredDirac::apply(self, out, inp)
    }
    fn apply_dagger(&self, out: &mut StaggeredField<T>, inp: &StaggeredField<T>) {
        StaggeredDirac::apply_dagger(self, out, inp)
    }
    fn name(&self) -> &'static str {
        "staggered"
    }
}

impl<T: Real> DiracOperator for AsqtadDirac<'_, T> {
    type Field = StaggeredField<T>;
    fn apply(&self, out: &mut StaggeredField<T>, inp: &StaggeredField<T>) {
        AsqtadDirac::apply(self, out, inp)
    }
    fn apply_dagger(&self, out: &mut StaggeredField<T>, inp: &StaggeredField<T>) {
        AsqtadDirac::apply_dagger(self, out, inp)
    }
    fn name(&self) -> &'static str {
        "asqtad"
    }
}

impl<T: Real> DiracOperator for DwfDirac<'_, T> {
    type Field = DwfField<T>;
    fn apply(&self, out: &mut DwfField<T>, inp: &DwfField<T>) {
        DwfDirac::apply(self, out, inp)
    }
    fn apply_dagger(&self, out: &mut DwfField<T>, inp: &DwfField<T>) {
        DwfDirac::apply_dagger(self, out, inp)
    }
    fn name(&self) -> &'static str {
        "dwf"
    }
}

/// Conversion between a double-precision field and its single-precision
/// shadow — the two casts the reliable-update solver needs.
///
/// Implemented by the three `f64` field types with `Lo` set to the
/// matching `f32` field. `truncate` rounds every component to `f32`;
/// `add_promoted` widens the correction exactly (every `f32` is exactly
/// representable in `f64`) and accumulates it in double precision.
pub trait PrecisionCast {
    /// The single-precision shadow field type.
    type Lo: KrylovVector;
    /// Round each component to the low-precision type.
    fn truncate(&self) -> Self::Lo;
    /// `self += widen(lo)`, with the addition performed in `f64`.
    fn add_promoted(&mut self, lo: &Self::Lo);
}

impl PrecisionCast for FermionField {
    type Lo = FermionField<f32>;
    fn truncate(&self) -> FermionField<f32> {
        self.to_f32()
    }
    fn add_promoted(&mut self, lo: &FermionField<f32>) {
        let lat = self.lattice();
        assert_eq!(lat, lo.lattice());
        for i in lat.sites() {
            *self.site_mut(i) += lo.site(i).to_f64_spinor();
        }
    }
}

impl PrecisionCast for StaggeredField {
    type Lo = StaggeredField<f32>;
    fn truncate(&self) -> StaggeredField<f32> {
        self.to_f32()
    }
    fn add_promoted(&mut self, lo: &StaggeredField<f32>) {
        let lat = self.lattice();
        assert_eq!(lat, lo.lattice());
        for i in lat.sites() {
            *self.site_mut(i) += lo.site(i).to_c64_vec();
        }
    }
}

impl PrecisionCast for DwfField {
    type Lo = DwfField<f32>;
    fn truncate(&self) -> DwfField<f32> {
        self.to_f32()
    }
    fn add_promoted(&mut self, lo: &DwfField<f32>) {
        assert_eq!(self.ls(), lo.ls());
        for s in 0..self.ls() {
            self.slice_mut(s).add_promoted(lo.slice(s));
        }
    }
}

/// Stopping criteria for CG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgParams {
    /// Target relative residual `‖M†(b − Mx)‖ / ‖M†b‖`.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for CgParams {
    fn default() -> Self {
        CgParams {
            tolerance: 1e-8,
            max_iterations: 2000,
        }
    }
}

/// The outcome of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgReport {
    /// Operator name.
    pub operator: String,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Relative residual history (one entry per iteration).
    pub residuals: Vec<f64>,
    /// Final relative residual.
    pub final_residual: f64,
    /// Total operator applications (M or M†).
    pub operator_applications: usize,
    /// Global reductions performed (the inner products).
    pub global_reductions: usize,
}

/// Solve `M x = b` by CG on `M†M x = M†b`. `x` carries the initial guess
/// and receives the solution.
///
/// ```
/// use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
/// use qcdoc_lattice::solver::{solve_cgne, CgParams};
/// use qcdoc_lattice::wilson::WilsonDirac;
///
/// let lat = Lattice::new([2, 2, 2, 2]);
/// let gauge = GaugeField::hot(lat, 1);
/// let op = WilsonDirac::new(&gauge, 0.1);
/// let b = FermionField::gaussian(lat, 2);
/// let mut x = FermionField::zero(lat);
/// let report = solve_cgne(&op, &mut x, &b, CgParams::default());
/// assert!(report.converged);
/// ```
pub fn solve_cgne<Op: DiracOperator>(
    op: &Op,
    x: &mut Op::Field,
    b: &Op::Field,
    params: CgParams,
) -> CgReport {
    let mut telem = NodeTelemetry::disabled(0);
    solve_cgne_traced(op, x, b, params, &mut telem, &SolverCosts::unit())
}

/// Logical cycle prices the traced solver charges per phase. The solver's
/// arithmetic is identical whatever the prices — they only scale the span
/// durations on the telemetry clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCosts {
    /// Cycles per operator application (`M` or `M†`).
    pub apply_cycles: u64,
    /// Cycles per block-vector update pass (axpy/xpay).
    pub linalg_cycles: u64,
    /// Cycles per global reduction (inner product or norm).
    pub reduction_cycles: u64,
}

impl SolverCosts {
    /// One cycle per phase — spans then simply count events.
    pub fn unit() -> SolverCosts {
        SolverCosts {
            apply_cycles: 1,
            linalg_cycles: 1,
            reduction_cycles: 1,
        }
    }

    /// Price the phases from flop counts at the machine's two
    /// floating-point operations per cycle, plus an explicit reduction
    /// latency (the network round, not arithmetic).
    pub fn from_counts(apply_flops: u64, linalg_flops: u64, reduction_cycles: u64) -> SolverCosts {
        SolverCosts {
            apply_cycles: apply_flops / 2,
            linalg_cycles: linalg_flops / 2,
            reduction_cycles,
        }
    }
}

/// [`solve_cgne`] with cycle-stamped tracing: each iteration decomposes
/// into `solver.apply` (two operator applications), `solver.reduce` (the
/// inner products) and `solver.linalg` (vector updates) spans, with
/// `solver_*` counters and gauges in the node's registry. The arithmetic
/// — and therefore the solution and report — is bit-identical to the
/// untraced entry point.
pub fn solve_cgne_traced<Op: DiracOperator>(
    op: &Op,
    x: &mut Op::Field,
    b: &Op::Field,
    params: CgParams,
    telem: &mut NodeTelemetry,
    costs: &SolverCosts,
) -> CgReport {
    solve_cgne_instrumented(op, x, b, params, telem, costs, 0, &mut Vec::new())
}

/// The complete loop-carried state of the CG recurrence, excluding the
/// solution vector `x` (which stays with the caller).
struct CgLoopState<F> {
    t: F,
    /// `M†M p` — scratch like `t`, fully overwritten every iteration.
    q: F,
    r: F,
    p: F,
    rsq: f64,
    bref: f64,
    iterations: usize,
    residuals: Vec<f64>,
    converged: bool,
    applications: usize,
    reductions: usize,
}

/// Capture the loop-carried state as a [`CgCheckpoint`]. Called only at
/// iteration boundaries, where `(x, r, p, rsq)` is exactly the state the
/// next iteration starts from.
fn snapshot<Op: DiracOperator>(
    op: &Op,
    x: &Op::Field,
    st: &CgLoopState<Op::Field>,
) -> CgCheckpoint {
    CgCheckpoint {
        operator: op.name().to_string(),
        iterations: st.iterations,
        converged: st.converged,
        rsq: st.rsq,
        bref: st.bref,
        residuals: st.residuals.clone(),
        applications: st.applications,
        reductions: st.reductions,
        x: x.to_bits(),
        r: st.r.to_bits(),
        p: st.p.to_bits(),
    }
}

/// Refresh an existing checkpoint in place with the current loop-carried
/// state — field-for-field identical to a fresh [`snapshot`], but the
/// vector and residual buffers are reused. The ABFT audit replaces its
/// rollback target on every clean verification, so reuse keeps the
/// audit's cost a pure sweep with no allocator round trips.
fn snapshot_reuse<Op: DiracOperator>(
    op: &Op,
    x: &Op::Field,
    st: &CgLoopState<Op::Field>,
    ck: &mut CgCheckpoint,
) {
    op.name().clone_into(&mut ck.operator);
    ck.iterations = st.iterations;
    ck.converged = st.converged;
    ck.rsq = st.rsq;
    ck.bref = st.bref;
    ck.residuals.clear();
    ck.residuals.extend_from_slice(&st.residuals);
    ck.applications = st.applications;
    ck.reductions = st.reductions;
    x.store_bits(&mut ck.x);
    st.r.store_bits(&mut ck.r);
    st.p.store_bits(&mut ck.p);
}

/// Configuration for [`solve_cgne_abft`]'s checksum audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbftParams {
    /// Verify the running checksums against the stored vectors every
    /// this many iterations. The clean-run cost is three content sums
    /// per verification; smaller intervals bound the replay distance.
    pub interval: usize,
    /// Mismatch threshold separating roundoff drift from corruption,
    /// relative to `1 + |checksum| + ‖vector‖`.
    pub tolerance: f64,
    /// Rollbacks allowed before the solve gives up — a bound against
    /// persistent (non-transient) corruption replaying forever.
    pub max_rollbacks: u32,
}

impl Default for AbftParams {
    fn default() -> Self {
        AbftParams {
            interval: 8,
            tolerance: 1e-8,
            max_rollbacks: 4,
        }
    }
}

/// What [`solve_cgne_abft`]'s audit observed during a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbftReport {
    /// Checksum verifications performed (periodic plus the exit audit).
    pub verifications: u64,
    /// Verifications that found a corrupted vector.
    pub detections: u64,
    /// Rollbacks to the last verified state.
    pub rollbacks: u64,
    /// Whether the rollback budget ran out with corruption still present.
    pub exhausted: bool,
}

/// Which loop-carried vector a [`SolverTamper`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperTarget {
    /// The accumulating solution.
    X,
    /// The recurrence residual.
    R,
    /// The search direction.
    P,
}

/// A seeded silent-data-corruption strike against solver state — the
/// solver-level analogue of `qcdoc-fault`'s memory flips. At the end of
/// iteration `iteration`, `bits` is XORed into word `word` of the target
/// vector's IEEE-754 image, after the running checksums were updated:
/// exactly the store-side corruption the ABFT audit exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverTamper {
    /// One-based iteration count at which the strike lands.
    pub iteration: usize,
    /// The vector struck.
    pub target: TamperTarget,
    /// Word index into the vector's bit image (taken modulo its length).
    pub word: usize,
    /// Bit pattern XORed into that word.
    pub bits: u64,
}

/// Running-checksum state threaded through [`cg_loop`] when ABFT is on.
struct AbftTracker {
    interval: usize,
    tolerance: f64,
    s_x: f64,
    s_r: f64,
    s_p: f64,
    verifications: u64,
    detected_at: Option<usize>,
    tamper: Option<SolverTamper>,
}

impl AbftTracker {
    /// Reset the running checksums to the stored vectors' actual sums —
    /// done after every successful verification so roundoff drift never
    /// accumulates past one audit window.
    fn rebaseline<F: KrylovVector>(&mut self, x: &F, r: &F, p: &F) {
        self.s_x = x.checksum();
        self.s_r = r.checksum();
        self.s_p = p.checksum();
    }

    /// Audit the stored vectors against the carried checksums. Each
    /// vector's fresh checksum and norm come from one fused traversal;
    /// on a passing audit with `adopt` set, those same freshly measured
    /// sums become the new baseline (the periodic audit re-baselines to
    /// absorb a window's roundoff drift; the exit audit does not).
    fn audit<F: KrylovVector>(&mut self, x: &F, r: &F, p: &F, adopt: bool) -> bool {
        let close = |run: f64, (fresh, nrm_sqr): (f64, f64)| {
            // The cap keeps the threshold finite when corruption blows a
            // component up toward overflow — an infinite scale would make
            // the very largest strikes pass the audit. A NaN difference
            // (corruption propagated into the arithmetic) compares false.
            let scale = (1.0 + fresh.abs() + nrm_sqr.sqrt()).min(1e150);
            (run - fresh).abs() <= self.tolerance * scale
        };
        let (mx, mr, mp) = (
            x.checksum_norm_sqr(),
            r.checksum_norm_sqr(),
            p.checksum_norm_sqr(),
        );
        let ok = close(self.s_x, mx) && close(self.s_r, mr) && close(self.s_p, mp);
        if ok && adopt {
            self.s_x = mx.0;
            self.s_r = mr.0;
            self.s_p = mp.0;
        }
        ok
    }
}

/// The CG iteration: identical arithmetic and span sequence whether
/// entered fresh or from a restored checkpoint. The checkpoint hook fires
/// at iteration boundaries and only *reads* state, so an enabled interval
/// cannot perturb a single bit of the recurrence. The same holds for the
/// ABFT audit: the running checksums are carried *beside* the recurrence
/// and never feed back into it, so a clean audited solve is bit-identical
/// to a plain one.
#[allow(clippy::too_many_arguments)]
fn cg_loop<Op: DiracOperator>(
    op: &Op,
    x: &mut Op::Field,
    st: &mut CgLoopState<Op::Field>,
    params: CgParams,
    telem: &mut NodeTelemetry,
    costs: &SolverCosts,
    checkpoint_interval: usize,
    sink: &mut Vec<CgCheckpoint>,
    abft: &mut Option<AbftTracker>,
) {
    while !st.converged && st.iterations < params.max_iterations {
        let iter_begin = telem.clock();
        // q = M†M p.
        let apply = telem.begin();
        op.apply(&mut st.t, &st.p);
        op.apply_dagger(&mut st.q, &st.t);
        st.applications += 2;
        telem.advance(2 * costs.apply_cycles);
        telem.end_with(apply, "solver.apply", Phase::Compute, 2);

        let reduce = telem.begin();
        // With the audit on, `q`'s content checksum rides along on the
        // dot product's traversal — same components, same order, so `pq`
        // is bit-identical either way and the audit's per-iteration
        // extra pass over `q` disappears.
        let (pq, s_q) = match abft {
            Some(_) => {
                let (d, s) = st.p.dot_with_rhs_checksum(&st.q);
                (d.re, Some(s))
            }
            None => (st.p.dot(&st.q).re, None),
        };
        st.reductions += 1;
        telem.advance(costs.reduction_cycles);
        telem.end_with(reduce, "solver.reduce", Phase::GlobalSum, 1);
        if pq <= 0.0 {
            // Operator lost positivity (numerically singular system).
            break;
        }
        let linalg = telem.begin();
        let alpha = st.rsq / pq;
        x.axpy(C64::real(alpha), &st.p);
        st.r.axpy(C64::real(-alpha), &st.q);
        telem.advance(2 * costs.linalg_cycles);
        telem.end_with(linalg, "solver.linalg", Phase::Compute, 2);

        let reduce = telem.begin();
        let new_rsq = st.r.norm_sqr();
        st.reductions += 1;
        telem.advance(costs.reduction_cycles);
        telem.end_with(reduce, "solver.reduce", Phase::GlobalSum, 1);

        st.iterations += 1;
        let rel = (new_rsq / st.bref).sqrt();
        st.residuals.push(rel);
        st.converged = rel <= params.tolerance;

        let linalg = telem.begin();
        let beta = new_rsq / st.rsq;
        st.p.xpay(C64::real(beta), &st.r);
        st.rsq = new_rsq;
        telem.advance(costs.linalg_cycles);
        telem.end_with(linalg, "solver.linalg", Phase::Compute, 1);
        telem.counter_add("solver_iterations", 1);
        // Per-iteration cycle distribution: the tail (p99) is what the
        // benchmark judge gates, so a single slow iteration cannot hide
        // behind a healthy mean.
        telem.observe("solver_iteration_cycles", telem.clock() - iter_begin);

        if let Some(ab) = abft.as_mut() {
            // Mirror this iteration's vector updates on the running
            // checksums. `q` is regenerated from `p` every iteration, so
            // its sum was taken fresh alongside the dot product; the
            // loop-carried vectors propagate theirs by the same
            // `alpha`/`beta` the recurrence used.
            let s_q = s_q.expect("checksum computed whenever the audit is on");
            ab.s_x += alpha * ab.s_p;
            ab.s_r -= alpha * s_q;
            ab.s_p = ab.s_r + beta * ab.s_p;

            // Seeded SDC strike: corrupt the stored vector *after* the
            // checksums were carried forward — the audit's whole job.
            if let Some(t) = ab.tamper {
                if t.iteration == st.iterations {
                    ab.tamper = None;
                    let target = match t.target {
                        TamperTarget::X => &mut *x,
                        TamperTarget::R => &mut st.r,
                        TamperTarget::P => &mut st.p,
                    };
                    let mut bits = target.to_bits();
                    let w = t.word % bits.len();
                    bits[w] ^= t.bits;
                    target.load_bits(&bits);
                }
            }

            if st.iterations % ab.interval == 0 {
                ab.verifications += 1;
                telem.counter_add("solver_abft_verifications", 1);
                if ab.audit(x, &st.r, &st.p, true) {
                    // Verified state becomes the rollback target; the
                    // passing audit adopted its measured sums as the new
                    // baseline, absorbing one window's roundoff drift.
                    sink.truncate(1);
                    match sink.first_mut() {
                        Some(ck) => snapshot_reuse(op, x, st, ck),
                        None => sink.push(snapshot(op, x, st)),
                    }
                } else {
                    ab.detected_at = Some(st.iterations);
                    telem.counter_add("solver_abft_detections", 1);
                    telem.flight(
                        FlightKind::FaultInjected,
                        "abft_checksum_mismatch",
                        st.iterations as u64,
                        ab.verifications,
                    );
                    return;
                }
            }
        }

        if checkpoint_interval > 0 && st.iterations % checkpoint_interval == 0 {
            sink.push(snapshot(op, x, st));
            telem.counter_add("solver_checkpoint_writes", 1);
            telem.flight(
                FlightKind::Checkpoint,
                "cg_interval",
                st.iterations as u64,
                sink.len() as u64,
            );
        }
    }
}

/// Close out a solve: publish the end-of-run counters and assemble the
/// report.
fn cg_report<Op: DiracOperator>(
    op: &Op,
    st: CgLoopState<Op::Field>,
    telem: &mut NodeTelemetry,
) -> CgReport {
    let final_residual = st
        .residuals
        .last()
        .copied()
        .unwrap_or((st.rsq / st.bref).sqrt());
    telem.counter_add("solver_operator_applications", st.applications as u64);
    telem.counter_add("solver_global_reductions", st.reductions as u64);
    telem.gauge_set("solver_final_residual", final_residual);
    telem.gauge_set("solver_converged", if st.converged { 1.0 } else { 0.0 });
    CgReport {
        operator: op.name().to_string(),
        iterations: st.iterations,
        converged: st.converged,
        final_residual,
        residuals: st.residuals,
        operator_applications: st.applications,
        global_reductions: st.reductions,
    }
}

/// The CG setup phase: initial residual, reference scale and first
/// search direction. Every entry point that starts a solve from scratch
/// lands here; the returned state is exactly what [`cg_loop`] consumes.
fn cg_setup<Op: DiracOperator>(
    op: &Op,
    x: &Op::Field,
    b: &Op::Field,
    params: CgParams,
    telem: &mut NodeTelemetry,
    costs: &SolverCosts,
) -> CgLoopState<Op::Field> {
    let mut applications = 0usize;
    let mut reductions = 0usize;

    // r = M†(b − Mx).
    let setup = telem.begin();
    let mut t = b.clone();
    op.apply(&mut t, x);
    applications += 1;
    let mut bmx = b.clone();
    bmx.axpy(C64::real(-1.0), &t);
    let mut r = b.clone();
    op.apply_dagger(&mut r, &bmx);
    applications += 1;

    // Reference scale: ‖M†b‖². `bmx` is dead once `r` exists, so it
    // holds `M†b` and then becomes the loop's `q` scratch — the setup
    // never has more fields live than the loop does.
    let mut q = bmx;
    op.apply_dagger(&mut q, b);
    applications += 1;
    telem.advance(3 * costs.apply_cycles + costs.linalg_cycles);
    telem.end_with(setup, "solver.setup", Phase::Compute, 3);

    let reduce = telem.begin();
    let bref = q.norm_sqr().max(f64::MIN_POSITIVE);
    reductions += 1;

    let p = r.clone();
    let rsq = r.norm_sqr();
    reductions += 1;
    telem.advance(2 * costs.reduction_cycles);
    telem.end_with(reduce, "solver.reduce", Phase::GlobalSum, 2);

    let converged = (rsq / bref).sqrt() <= params.tolerance;
    CgLoopState {
        t,
        q,
        r,
        p,
        rsq,
        bref,
        iterations: 0,
        residuals: Vec::new(),
        converged,
        applications,
        reductions,
    }
}

/// The full solver: setup phase, iteration loop with an optional
/// checkpoint hook, report. Every public CG entry point lands here.
#[allow(clippy::too_many_arguments)]
fn solve_cgne_instrumented<Op: DiracOperator>(
    op: &Op,
    x: &mut Op::Field,
    b: &Op::Field,
    params: CgParams,
    telem: &mut NodeTelemetry,
    costs: &SolverCosts,
    checkpoint_interval: usize,
    sink: &mut Vec<CgCheckpoint>,
) -> CgReport {
    let mut st = cg_setup(op, x, b, params, telem, costs);
    cg_loop(
        op,
        x,
        &mut st,
        params,
        telem,
        costs,
        checkpoint_interval,
        sink,
        &mut None,
    );
    cg_report(op, st, telem)
}

/// [`solve_cgne`] with periodic checkpointing: every `interval`-th
/// iteration boundary pushes a [`CgCheckpoint`] into `sink` (`interval =
/// 0` disables the hook entirely). The hook only reads solver state, so
/// the solution, residual history, and report are **bit-identical** to an
/// uncheckpointed solve.
pub fn solve_cgne_checkpointed<Op: DiracOperator>(
    op: &Op,
    x: &mut Op::Field,
    b: &Op::Field,
    params: CgParams,
    interval: usize,
    sink: &mut Vec<CgCheckpoint>,
) -> CgReport {
    let mut telem = NodeTelemetry::disabled(0);
    solve_cgne_instrumented(
        op,
        x,
        b,
        params,
        &mut telem,
        &SolverCosts::unit(),
        interval,
        sink,
    )
}

/// Resume a solve from a checkpoint — the one serial resume entry point
/// (the scheduler's preemption protocol, the chaos soak and the
/// reproducibility suites all come through here). `template` supplies the
/// field shape (any field on the right lattice — its values are
/// overwritten); the returned solution and report are **bit-identical**
/// to those of a solve that ran uninterrupted: same residual history
/// (checkpointed prefix + freshly computed tail), same totals, same
/// solution bits.
///
/// A checkpoint may legitimately resume on a partition of a *different
/// shape* (it serialises the global lattice in a machine-independent
/// order), so the only hard requirements are the operator identity and
/// the global problem size; [`CgCheckpoint::validate`] checks both before
/// anything is restored.
pub fn resume_cgne<Op: DiracOperator>(
    op: &Op,
    template: &Op::Field,
    ckpt: &CgCheckpoint,
    params: CgParams,
) -> Result<(Op::Field, CgReport), ResumeError> {
    ckpt.validate(op.name(), template.to_bits().len())?;
    let mut telem = NodeTelemetry::disabled(0);
    let (mut x, mut st) = restore_state(template, ckpt);
    cg_loop(
        op,
        &mut x,
        &mut st,
        params,
        &mut telem,
        &SolverCosts::unit(),
        0,
        &mut Vec::new(),
        &mut None,
    );
    let report = cg_report(op, st, &mut telem);
    Ok((x, report))
}

/// Rebuild `(x, loop state)` from a checkpoint. `template` supplies the
/// field shape — its values are overwritten. Shared by [`resume_cgne`]
/// (which has validated `ckpt`) and the ABFT rollback path (whose
/// snapshots come from the running solve itself).
fn restore_state<F: KrylovVector>(template: &F, ckpt: &CgCheckpoint) -> (F, CgLoopState<F>) {
    let mut x = template.clone();
    x.load_bits(&ckpt.x);
    let mut r = template.clone();
    r.load_bits(&ckpt.r);
    let mut p = template.clone();
    p.load_bits(&ckpt.p);
    let st = CgLoopState {
        // The scratch vectors are fully overwritten by the first operator
        // applications, so any same-shape field restores them.
        t: template.clone(),
        q: template.clone(),
        r,
        p,
        rsq: ckpt.rsq,
        bref: ckpt.bref,
        iterations: ckpt.iterations,
        residuals: ckpt.residuals.clone(),
        converged: ckpt.converged,
        applications: ckpt.applications,
        reductions: ckpt.reductions,
    };
    (x, st)
}

/// [`solve_cgne`] hardened against silent data corruption by an
/// algorithm-based (ABFT) checksum audit — the solver-level third layer
/// of the machine's data-integrity defense, above the memory ECC and the
/// links' end-to-end block checksums.
///
/// A running content checksum is carried for each loop-carried vector
/// (`x`, `r`, `p`), propagated every iteration by the same `alpha`/`beta`
/// the recurrence uses at O(1) cost, and compared against the stored
/// vectors every [`AbftParams::interval`] iterations. Agreement makes the
/// verified state the rollback target; a mismatch means some store was
/// silently corrupted since the last audit, and the solve rolls back and
/// replays from the target. A final audit guards the exit path, so
/// corruption striking after the last periodic check cannot escape into
/// the returned solution.
///
/// On a clean run the audit only *reads* solver state, so the solution
/// and report are **bit-identical** to [`solve_cgne`]'s. A transient
/// corruption (seeded here via `tamper`) is detected and healed: the
/// replayed iterations are bit-identical to a never-corrupted solve.
pub fn solve_cgne_abft<Op: DiracOperator>(
    op: &Op,
    x: &mut Op::Field,
    b: &Op::Field,
    params: CgParams,
    abft: AbftParams,
    tamper: Option<SolverTamper>,
    telem: &mut NodeTelemetry,
) -> (CgReport, AbftReport) {
    let costs = SolverCosts::unit();
    let mut st = cg_setup(op, x, b, params, telem, &costs);
    let mut tracker = AbftTracker {
        interval: abft.interval.max(1),
        tolerance: abft.tolerance,
        s_x: 0.0,
        s_r: 0.0,
        s_p: 0.0,
        verifications: 0,
        detected_at: None,
        tamper,
    };
    tracker.rebaseline(x, &st.r, &st.p);
    // The iteration-0 state is the initial rollback target; successful
    // audits inside the loop replace it with fresher verified states.
    let mut verified = vec![snapshot(op, x, &st)];
    let mut report = AbftReport::default();
    let mut audit = Some(tracker);
    loop {
        cg_loop(
            op,
            x,
            &mut st,
            params,
            telem,
            &costs,
            0,
            &mut verified,
            &mut audit,
        );
        let ab = audit.as_mut().expect("the audit tracker persists");
        let mut detected = ab.detected_at.take();
        if detected.is_none() {
            // Clean loop exit — one final audit covers the iterations
            // since the last periodic verification.
            ab.verifications += 1;
            telem.counter_add("solver_abft_verifications", 1);
            if !ab.audit(x, &st.r, &st.p, false) {
                detected = Some(st.iterations);
                telem.counter_add("solver_abft_detections", 1);
            }
        }
        let Some(_) = detected else {
            break;
        };
        report.detections += 1;
        if report.rollbacks >= abft.max_rollbacks as u64 {
            report.exhausted = true;
            break;
        }
        report.rollbacks += 1;
        telem.counter_add("solver_abft_rollbacks", 1);
        let target = verified.last().expect("the baseline is always present");
        telem.flight(
            FlightKind::Rollback,
            "abft",
            st.iterations as u64,
            target.iterations as u64,
        );
        let (rx, rst) = restore_state(b, target);
        *x = rx;
        st = rst;
        let ab = audit.as_mut().expect("the audit tracker persists");
        ab.rebaseline(x, &st.r, &st.p);
    }
    report.verifications = audit.expect("the audit tracker persists").verifications;
    (cg_report(op, st, telem), report)
}

/// Stopping criteria for the mixed-precision (defect-correction) solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedCgParams {
    /// Target relative residual `‖M†(b − Mx)‖ / ‖M†b‖`, evaluated in
    /// **double** precision. Same meaning as [`CgParams::tolerance`].
    pub tolerance: f64,
    /// Cap on outer (double-precision reliable-update) cycles.
    pub max_outer: usize,
    /// Relative tolerance for each inner single-precision solve. Must sit
    /// above the `f32` rounding floor (~1e-7) to leave the inner CG a
    /// reachable target.
    pub inner_tolerance: f64,
    /// Iteration cap for each inner single-precision solve.
    pub max_inner: usize,
}

impl Default for MixedCgParams {
    fn default() -> Self {
        MixedCgParams {
            tolerance: 1e-8,
            max_outer: 50,
            inner_tolerance: 1e-5,
            max_inner: 2000,
        }
    }
}

/// The outcome of a mixed-precision solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedCgReport {
    /// Operator name (from the double-precision operator).
    pub operator: String,
    /// Outer reliable-update cycles performed.
    pub outer_iterations: usize,
    /// Inner single-precision CG iterations, one entry per outer cycle.
    pub inner_iterations: Vec<usize>,
    /// Sum of [`MixedCgReport::inner_iterations`].
    pub total_inner_iterations: usize,
    /// Whether the double-precision tolerance was reached.
    pub converged: bool,
    /// True (double-precision) relative residual after each outer cycle,
    /// including the initial one before any correction.
    pub residuals: Vec<f64>,
    /// Final true relative residual.
    pub final_residual: f64,
    /// Double-precision operator applications (`M` or `M†`).
    pub high_precision_applications: usize,
    /// Single-precision operator applications inside the inner solves.
    pub low_precision_applications: usize,
}

/// Solve `M x = b` to **double-precision** tolerance with the bulk of the
/// arithmetic in **single** precision — the reliable-update /
/// defect-correction scheme the paper's single-precision benchmark tables
/// assume (§4: single-precision sustained figures are "slightly higher"
/// because half the memory traffic crosses the EDRAM interface).
///
/// Each outer cycle recomputes the true residual `d = b − Mx` in `f64`,
/// truncates it to `f32`, solves the correction system `M e = d` with the
/// single-precision operator to a loose tolerance, and accumulates
/// `x += e` in `f64`. The `f64` residual recomputation bounds the error
/// the `f32` inner solve can leave behind, so the outer loop converges to
/// the full double-precision tolerance even though ~90% of operator
/// applications run at half the memory traffic.
///
/// Determinism: both the outer recomputation and the inner CG are
/// bit-deterministic (fixed site-order reductions), so the converged `x`
/// is bit-identical across reruns.
///
/// `op` and `op_lo` must represent the same operator at the two widths —
/// typically built from a gauge field and its [`crate::field::GaugeField::to_f32`]
/// truncation with identical mass parameters.
///
/// ```
/// use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
/// use qcdoc_lattice::solver::{solve_cgne_mixed, MixedCgParams};
/// use qcdoc_lattice::wilson::WilsonDirac;
///
/// let lat = Lattice::new([2, 2, 2, 2]);
/// let gauge = GaugeField::hot(lat, 1);
/// let gauge32 = gauge.to_f32();
/// let op = WilsonDirac::new(&gauge, 0.1);
/// let op32 = WilsonDirac::new(&gauge32, 0.1);
/// let b = FermionField::gaussian(lat, 2);
/// let mut x = FermionField::zero(lat);
/// let report = solve_cgne_mixed(&op, &op32, &mut x, &b, MixedCgParams::default());
/// assert!(report.converged);
/// assert!(report.low_precision_applications > report.high_precision_applications);
/// ```
pub fn solve_cgne_mixed<OpHi, OpLo>(
    op: &OpHi,
    op_lo: &OpLo,
    x: &mut OpHi::Field,
    b: &OpHi::Field,
    params: MixedCgParams,
) -> MixedCgReport
where
    OpHi: DiracOperator,
    OpHi::Field: PrecisionCast<Lo = OpLo::Field>,
    OpLo: DiracOperator,
{
    let mut hi_applications = 0usize;
    let mut lo_applications = 0usize;
    let mut inner_iterations = Vec::new();
    let mut residuals = Vec::new();

    // Reference scale ‖M†b‖², recomputed per call so a resumed solve sees
    // exactly the value the uninterrupted one used.
    let mut mdag_b = b.clone();
    op.apply_dagger(&mut mdag_b, b);
    hi_applications += 1;
    let bref = mdag_b.norm_sqr().max(f64::MIN_POSITIVE);

    let inner_params = CgParams {
        tolerance: params.inner_tolerance,
        max_iterations: params.max_inner,
    };

    let mut converged = false;
    let mut outer = 0usize;
    loop {
        // True residual, in double precision: rn = M†(b − Mx).
        let mut t = b.clone();
        op.apply(&mut t, x);
        let mut d = b.clone();
        d.axpy(C64::real(-1.0), &t);
        let mut rn = b.clone();
        op.apply_dagger(&mut rn, &d);
        hi_applications += 2;
        let rel = (rn.norm_sqr() / bref).sqrt();
        residuals.push(rel);
        if rel <= params.tolerance {
            converged = true;
            break;
        }
        // Stagnation guard: once the defect stops shrinking (the f32
        // correction is below the f64 residual's resolution), more outer
        // cycles cannot help.
        if residuals.len() >= 3 {
            let n = residuals.len();
            if residuals[n - 1] >= residuals[n - 2] && residuals[n - 2] >= residuals[n - 3] {
                break;
            }
        }
        if outer == params.max_outer {
            break;
        }

        // Correction system M e = d, solved in single precision.
        let d_lo = d.truncate();
        let mut e_lo = d_lo.clone();
        e_lo.fill_zero();
        let inner = solve_cgne(op_lo, &mut e_lo, &d_lo, inner_params);
        lo_applications += inner.operator_applications;
        inner_iterations.push(inner.iterations);

        // Accumulate the correction in double precision.
        x.add_promoted(&e_lo);
        outer += 1;
    }

    let final_residual = residuals.last().copied().unwrap_or(f64::INFINITY);
    let total_inner_iterations = inner_iterations.iter().sum();
    MixedCgReport {
        operator: op.name().to_string(),
        outer_iterations: outer,
        inner_iterations,
        total_inner_iterations,
        converged,
        residuals,
        final_residual,
        high_precision_applications: hi_applications,
        low_precision_applications: lo_applications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{GaugeField, Lattice};
    use crate::staggered::{AsqtadCoeffs, AsqtadLinks};

    fn lat() -> Lattice {
        Lattice::new([4, 4, 4, 4])
    }

    fn residual_of<Op: DiracOperator>(op: &Op, x: &Op::Field, b: &Op::Field) -> f64 {
        let mut mx = b.clone();
        op.apply(&mut mx, x);
        let mut r = b.clone();
        r.axpy(C64::real(-1.0), &mx);
        (r.norm_sqr() / b.norm_sqr()).sqrt()
    }

    #[test]
    fn wilson_cg_converges_and_solves() {
        let gauge = GaugeField::hot(lat(), 100);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 101);
        let mut x = FermionField::zero(lat());
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(
            report.converged,
            "CG did not converge: {:?}",
            report.final_residual
        );
        assert!(residual_of(&op, &x, &b) < 1e-6);
        assert_eq!(report.operator_applications, 3 + 2 * report.iterations);
        // Two reductions per iteration plus setup.
        assert_eq!(report.global_reductions, 2 + 2 * report.iterations);
    }

    #[test]
    fn clover_cg_converges() {
        let gauge = GaugeField::hot(lat(), 102);
        let op = crate::clover::CloverDirac::new(&gauge, 0.12, 1.0);
        let b = FermionField::gaussian(lat(), 103);
        let mut x = FermionField::zero(lat());
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(report.converged);
        assert!(residual_of(&op, &x, &b) < 1e-6);
    }

    #[test]
    fn staggered_cg_converges() {
        let gauge = GaugeField::hot(lat(), 104);
        let op = StaggeredDirac::new(&gauge, 0.2);
        let b = StaggeredField::gaussian(lat(), 105);
        let mut x = StaggeredField::zero(lat());
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(report.converged);
        assert!(residual_of(&op, &x, &b) < 1e-6);
    }

    #[test]
    fn asqtad_cg_converges() {
        let gauge = GaugeField::hot(lat(), 106);
        let links = AsqtadLinks::new(&gauge, AsqtadCoeffs::default());
        let op = AsqtadDirac::new(&links, 0.2);
        let b = StaggeredField::gaussian(lat(), 107);
        let mut x = StaggeredField::zero(lat());
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(report.converged);
        assert!(residual_of(&op, &x, &b) < 1e-6);
    }

    #[test]
    fn dwf_cg_converges() {
        let small = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(small, 108);
        let op = crate::dwf::DwfDirac::new(&gauge, 1.8, 0.1, 4);
        let b = crate::dwf::DwfField::gaussian(small, 4, 109);
        let mut x = crate::dwf::DwfField::zero(small, 4);
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(report.converged, "final residual {}", report.final_residual);
        assert!(residual_of(&op, &x, &b) < 1e-6);
    }

    #[test]
    fn residual_history_is_monotone_overall() {
        // CG residuals can locally oscillate, but the trend must fall by
        // orders of magnitude from start to finish.
        let gauge = GaugeField::hot(lat(), 110);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 111);
        let mut x = FermionField::zero(lat());
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(report.residuals.first().unwrap() / report.residuals.last().unwrap() > 1e4);
    }

    #[test]
    fn solver_is_bit_deterministic() {
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let mut x1 = FermionField::zero(lat());
        let r1 = solve_cgne(&op, &mut x1, &b, CgParams::default());
        let mut x2 = FermionField::zero(lat());
        let r2 = solve_cgne(&op, &mut x2, &b, CgParams::default());
        assert_eq!(
            x1.fingerprint(),
            x2.fingerprint(),
            "bitwise reproducibility"
        );
        assert_eq!(r1.iterations, r2.iterations);
    }

    #[test]
    fn abft_clean_run_is_bit_identical_to_plain_cg() {
        // The audit only reads solver state: same bits, same report.
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let mut x1 = FermionField::zero(lat());
        let plain = solve_cgne(&op, &mut x1, &b, CgParams::default());
        let mut x2 = FermionField::zero(lat());
        let mut telem = NodeTelemetry::disabled(0);
        let (audited, abft) = solve_cgne_abft(
            &op,
            &mut x2,
            &b,
            CgParams::default(),
            AbftParams::default(),
            None,
            &mut telem,
        );
        assert_eq!(x1.fingerprint(), x2.fingerprint(), "the audit changed bits");
        assert_eq!(plain, audited);
        assert!(abft.verifications >= 1);
        assert_eq!(abft.detections, 0);
        assert_eq!(abft.rollbacks, 0);
        assert!(!abft.exhausted);
    }

    #[test]
    fn abft_detects_tamper_and_recovers_bit_identically() {
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let mut clean = FermionField::zero(lat());
        let plain = solve_cgne(&op, &mut clean, &b, CgParams::default());
        assert!(plain.iterations > 12, "need room to strike mid-solve");
        for target in [TamperTarget::X, TamperTarget::R, TamperTarget::P] {
            // Flip the exponent's top bit of one stored word at iteration
            // 11 — three periodic audits later catches it in every case.
            let tamper = SolverTamper {
                iteration: 11,
                target,
                word: 5,
                bits: 1 << 62,
            };
            let mut x = FermionField::zero(lat());
            let mut telem = NodeTelemetry::disabled(0);
            let (report, abft) = solve_cgne_abft(
                &op,
                &mut x,
                &b,
                CgParams::default(),
                AbftParams::default(),
                Some(tamper),
                &mut telem,
            );
            assert!(abft.detections >= 1, "{target:?}: corruption missed");
            assert!(abft.rollbacks >= 1, "{target:?}: no rollback");
            assert!(!abft.exhausted, "{target:?}");
            assert!(report.converged, "{target:?}");
            assert_eq!(
                x.fingerprint(),
                clean.fingerprint(),
                "{target:?}: the replayed solve must be bit-identical"
            );
        }
    }

    #[test]
    fn abft_exit_audit_catches_corruption_past_the_last_interval() {
        // Interval longer than the whole solve: no periodic audit ever
        // fires, so only the exit audit stands between the tamper and the
        // returned solution.
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let mut clean = FermionField::zero(lat());
        let plain = solve_cgne(&op, &mut clean, &b, CgParams::default());
        let tamper = SolverTamper {
            iteration: plain.iterations - 1,
            target: TamperTarget::X,
            word: 0,
            bits: 1 << 62,
        };
        let mut x = FermionField::zero(lat());
        let mut telem = NodeTelemetry::disabled(0);
        let (report, abft) = solve_cgne_abft(
            &op,
            &mut x,
            &b,
            CgParams::default(),
            AbftParams {
                interval: 10_000,
                ..AbftParams::default()
            },
            Some(tamper),
            &mut telem,
        );
        assert_eq!(abft.detections, 1);
        assert_eq!(abft.rollbacks, 1, "rollback to the iteration-0 baseline");
        assert!(report.converged);
        assert_eq!(x.fingerprint(), clean.fingerprint());
    }

    #[test]
    fn abft_zero_rollback_budget_reports_exhaustion() {
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let tamper = SolverTamper {
            iteration: 11,
            target: TamperTarget::R,
            word: 2,
            bits: 1 << 62,
        };
        let mut x = FermionField::zero(lat());
        let mut telem = NodeTelemetry::disabled(0);
        let (_, abft) = solve_cgne_abft(
            &op,
            &mut x,
            &b,
            CgParams::default(),
            AbftParams {
                max_rollbacks: 0,
                ..AbftParams::default()
            },
            Some(tamper),
            &mut telem,
        );
        assert_eq!(abft.detections, 1);
        assert_eq!(abft.rollbacks, 0);
        assert!(abft.exhausted, "the budget must be reported as spent");
    }

    #[test]
    fn abft_counters_reach_telemetry() {
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let tamper = SolverTamper {
            iteration: 11,
            target: TamperTarget::P,
            word: 9,
            bits: 1 << 62,
        };
        let mut x = FermionField::zero(lat());
        let mut telem = NodeTelemetry::with_ring(0, 1 << 12);
        let (_, abft) = solve_cgne_abft(
            &op,
            &mut x,
            &b,
            CgParams::default(),
            AbftParams::default(),
            Some(tamper),
            &mut telem,
        );
        let m = telem.metrics();
        assert_eq!(
            m.counter("solver_abft_verifications", &[]),
            abft.verifications
        );
        assert_eq!(m.counter("solver_abft_detections", &[]), abft.detections);
        assert_eq!(m.counter("solver_abft_rollbacks", &[]), abft.rollbacks);
        assert!(abft.detections >= 1);
    }

    #[test]
    fn traced_solver_is_bit_identical_and_counts_phases() {
        let gauge = GaugeField::hot(lat(), 112);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 113);
        let mut x1 = FermionField::zero(lat());
        let plain = solve_cgne(&op, &mut x1, &b, CgParams::default());
        let mut x2 = FermionField::zero(lat());
        let mut telem = NodeTelemetry::with_ring(0, 1 << 16);
        let traced = solve_cgne_traced(
            &op,
            &mut x2,
            &b,
            CgParams::default(),
            &mut telem,
            &SolverCosts::from_counts(1320, 48, 600),
        );
        assert_eq!(x1.fingerprint(), x2.fingerprint(), "tracing changed bits");
        assert_eq!(plain, traced);
        let m = telem.metrics();
        assert_eq!(
            m.counter("solver_iterations", &[]) as usize,
            traced.iterations
        );
        assert_eq!(
            m.counter("solver_operator_applications", &[]) as usize,
            3 + 2 * traced.iterations
        );
        assert_eq!(
            m.counter("solver_global_reductions", &[]) as usize,
            2 + 2 * traced.iterations
        );
        assert_eq!(m.gauge("solver_converged", &[]), Some(1.0));
        // Spans partition the telemetry clock with no gaps.
        let (_, spans) = telem.take_parts();
        let mut clock = 0u64;
        for s in &spans {
            assert_eq!(s.begin, clock, "gap in the solver timeline");
            clock = s.end;
        }
        assert!(clock > 0);
    }

    #[test]
    fn disabled_checkpointing_is_bit_identical() {
        let gauge = GaugeField::hot(lat(), 120);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 121);
        let mut x1 = FermionField::zero(lat());
        let plain = solve_cgne(&op, &mut x1, &b, CgParams::default());
        let mut x2 = FermionField::zero(lat());
        let mut sink = Vec::new();
        let ckpt = solve_cgne_checkpointed(&op, &mut x2, &b, CgParams::default(), 0, &mut sink);
        assert_eq!(x1.fingerprint(), x2.fingerprint());
        assert_eq!(plain, ckpt);
        assert!(sink.is_empty());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let gauge = GaugeField::hot(lat(), 122);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 123);

        // Uninterrupted reference run.
        let mut x_ref = FermionField::zero(lat());
        let reference = solve_cgne(&op, &mut x_ref, &b, CgParams::default());
        assert!(reference.iterations > 10, "need a nontrivial solve");

        // Checkpointed run: enabling the hook must not change a bit.
        let mut x_ck = FermionField::zero(lat());
        let mut sink = Vec::new();
        let ck_report =
            solve_cgne_checkpointed(&op, &mut x_ck, &b, CgParams::default(), 5, &mut sink);
        assert_eq!(x_ref.fingerprint(), x_ck.fingerprint());
        assert_eq!(reference, ck_report);
        assert!(sink.len() >= 2);

        // Resume from a mid-run checkpoint (simulated crash after it was
        // written) and from the byte round-trip of that checkpoint.
        let mid = &sink[sink.len() / 2];
        assert_eq!(mid.iterations % 5, 0);
        let bytes = crate::checkpoint::write_checkpoint(mid);
        let restored = crate::checkpoint::read_checkpoint(&bytes).unwrap();
        assert_eq!(restored.digest(), mid.digest());
        let template = FermionField::zero(lat());
        let (x_res, res_report) =
            resume_cgne(&op, &template, &restored, CgParams::default()).unwrap();
        assert_eq!(
            x_ref.fingerprint(),
            x_res.fingerprint(),
            "resumed solution differs from the uninterrupted one"
        );
        assert_eq!(reference, res_report, "resumed report differs");
        for (a, c) in reference.residuals.iter().zip(res_report.residuals.iter()) {
            assert_eq!(a.to_bits(), c.to_bits(), "residual history diverged");
        }
    }

    #[test]
    fn resume_from_converged_checkpoint_is_a_no_op() {
        let gauge = GaugeField::hot(lat(), 124);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 125);
        let mut x = FermionField::zero(lat());
        let mut sink = Vec::new();
        let report = solve_cgne_checkpointed(&op, &mut x, &b, CgParams::default(), 1, &mut sink);
        let last = sink.last().unwrap();
        assert!(last.converged);
        let template = FermionField::zero(lat());
        let (x_res, res_report) = resume_cgne(&op, &template, last, CgParams::default()).unwrap();
        assert_eq!(x.fingerprint(), x_res.fingerprint());
        assert_eq!(report, res_report);
    }

    #[test]
    fn resume_cgne_validates_before_restoring() {
        let gauge = GaugeField::hot(lat(), 126);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 127);
        let mut x = FermionField::zero(lat());
        let mut sink = Vec::new();
        let report = solve_cgne_checkpointed(&op, &mut x, &b, CgParams::default(), 1, &mut sink);
        let ckpt = &sink[sink.len() / 2];
        let template = FermionField::zero(lat());

        // Valid resume matches the uninterrupted run.
        let (x_res, res_report) = resume_cgne(&op, &template, ckpt, CgParams::default()).unwrap();
        assert_eq!(x.fingerprint(), x_res.fingerprint());
        assert_eq!(report, res_report);

        // Wrong operator is an error, not a panic.
        let mut wrong_op = ckpt.clone();
        wrong_op.operator = "clover".into();
        assert!(matches!(
            resume_cgne(&op, &template, &wrong_op, CgParams::default()),
            Err(ResumeError::OperatorMismatch { .. })
        ));

        // Wrong problem size is an error, not a shape panic downstream.
        let small = FermionField::zero(Lattice::new([2, 2, 2, 2]));
        assert!(matches!(
            resume_cgne(&op, &small, ckpt, CgParams::default()),
            Err(ResumeError::ShapeMismatch { .. })
        ));

        // So is a checkpoint whose `r` or `p` lost words: all three
        // vectors are measured, not just `x`.
        for truncate in [
            |c: &mut CgCheckpoint| c.r.pop(),
            |c: &mut CgCheckpoint| c.p.pop(),
        ] {
            let mut short = ckpt.clone();
            truncate(&mut short);
            assert_eq!(
                resume_cgne(&op, &template, &short, CgParams::default()).unwrap_err(),
                ResumeError::ShapeMismatch {
                    expected: ckpt.x.len() - 1,
                    found: ckpt.x.len(),
                }
            );
        }
    }

    #[test]
    fn checkpointing_works_for_dwf_fields() {
        let small = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(small, 128);
        let op = crate::dwf::DwfDirac::new(&gauge, 1.8, 0.1, 4);
        let b = crate::dwf::DwfField::gaussian(small, 4, 129);
        let mut x_ref = crate::dwf::DwfField::zero(small, 4);
        let reference = solve_cgne(&op, &mut x_ref, &b, CgParams::default());
        let mut x_ck = crate::dwf::DwfField::zero(small, 4);
        let mut sink = Vec::new();
        solve_cgne_checkpointed(&op, &mut x_ck, &b, CgParams::default(), 3, &mut sink);
        let mid = &sink[0];
        let template = crate::dwf::DwfField::zero(small, 4);
        let (x_res, res_report) = resume_cgne(&op, &template, mid, CgParams::default()).unwrap();
        assert_eq!(x_ref.to_bits(), x_res.to_bits());
        assert_eq!(reference, res_report);
    }

    #[test]
    fn single_precision_cg_converges_to_f32_floor() {
        // The f32 instantiation of the whole CG stack solves on its own,
        // down to a tolerance above the f32 rounding floor.
        let gauge = GaugeField::hot(lat(), 100).to_f32();
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 101).to_f32();
        let mut x = FermionField::<f32>::zero(lat());
        let report = solve_cgne(
            &op,
            &mut x,
            &b,
            CgParams {
                tolerance: 1e-5,
                max_iterations: 2000,
            },
        );
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(residual_of(&op, &x, &b) < 1e-4);
    }

    #[test]
    fn mixed_cg_reaches_double_precision_tolerance() {
        let gauge = GaugeField::hot(lat(), 130);
        let gauge32 = gauge.to_f32();
        let op = WilsonDirac::new(&gauge, 0.12);
        let op32 = WilsonDirac::new(&gauge32, 0.12);
        let b = FermionField::gaussian(lat(), 131);

        let mut x = FermionField::zero(lat());
        let report = solve_cgne_mixed(&op, &op32, &mut x, &b, MixedCgParams::default());
        assert!(report.converged, "residuals {:?}", report.residuals);
        assert!(report.final_residual <= 1e-8);
        // The same tolerance the pure f64 solver reaches.
        let mut x_ref = FermionField::zero(lat());
        let ref_report = solve_cgne(&op, &mut x_ref, &b, CgParams::default());
        assert!(ref_report.converged);
        assert!(residual_of(&op, &x, &b) < 1e-6);
        // The bulk of the operator applications ran in single precision.
        assert!(report.low_precision_applications > 5 * report.high_precision_applications);
    }

    #[test]
    fn mixed_cg_is_bit_deterministic() {
        let gauge = GaugeField::hot(lat(), 132);
        let gauge32 = gauge.to_f32();
        let op = WilsonDirac::new(&gauge, 0.12);
        let op32 = WilsonDirac::new(&gauge32, 0.12);
        let b = FermionField::gaussian(lat(), 133);
        let mut x1 = FermionField::zero(lat());
        let r1 = solve_cgne_mixed(&op, &op32, &mut x1, &b, MixedCgParams::default());
        let mut x2 = FermionField::zero(lat());
        let r2 = solve_cgne_mixed(&op, &op32, &mut x2, &b, MixedCgParams::default());
        assert_eq!(x1.fingerprint(), x2.fingerprint(), "rerun changed bits");
        assert_eq!(r1, r2);
        for (a, c) in r1.residuals.iter().zip(r2.residuals.iter()) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn mixed_cg_converges_for_staggered_and_dwf() {
        let gauge = GaugeField::hot(lat(), 134);
        let gauge32 = gauge.to_f32();
        let op = StaggeredDirac::new(&gauge, 0.2);
        let op32 = StaggeredDirac::new(&gauge32, 0.2);
        let b = StaggeredField::gaussian(lat(), 135);
        let mut x = StaggeredField::zero(lat());
        let report = solve_cgne_mixed(&op, &op32, &mut x, &b, MixedCgParams::default());
        assert!(report.converged, "residuals {:?}", report.residuals);

        let small = Lattice::new([2, 2, 2, 4]);
        let gauge = GaugeField::hot(small, 136);
        let gauge32 = gauge.to_f32();
        let op = crate::dwf::DwfDirac::new(&gauge, 1.8, 0.1, 4);
        let op32 = crate::dwf::DwfDirac::new(&gauge32, 1.8, 0.1, 4);
        let b = crate::dwf::DwfField::gaussian(small, 4, 137);
        let mut x = crate::dwf::DwfField::zero(small, 4);
        let report = solve_cgne_mixed(&op, &op32, &mut x, &b, MixedCgParams::default());
        assert!(report.converged, "residuals {:?}", report.residuals);
    }

    #[test]
    fn mixed_cg_resume_from_partial_solution_matches_tolerance() {
        // Feeding a partially converged solution back in as the initial
        // guess completes the solve — bref is recomputed per call, so the
        // convergence criterion is identical.
        let gauge = GaugeField::hot(lat(), 138);
        let gauge32 = gauge.to_f32();
        let op = WilsonDirac::new(&gauge, 0.12);
        let op32 = WilsonDirac::new(&gauge32, 0.12);
        let b = FermionField::gaussian(lat(), 139);
        let mut x = FermionField::zero(lat());
        let partial = solve_cgne_mixed(
            &op,
            &op32,
            &mut x,
            &b,
            MixedCgParams {
                max_outer: 1,
                ..MixedCgParams::default()
            },
        );
        assert!(!partial.converged);
        let resumed = solve_cgne_mixed(&op, &op32, &mut x, &b, MixedCgParams::default());
        assert!(resumed.converged);
        assert!(resumed.final_residual <= 1e-8);
    }

    #[test]
    fn fill_zero_stores_positive_zero_whatever_was_there() {
        // `scale(0)` left NaN/∞ in place and wrote −0 over negatives.
        let mut f = FermionField::gaussian(Lattice::new([2, 2, 2, 2]), 113);
        f.site_mut(0).0[0].0[0] = C64::new(f64::NAN, f64::INFINITY);
        f.site_mut(3).0[2].0[1] = C64::new(f64::NEG_INFINITY, -1.0);
        f.fill_zero();
        assert!(f.to_bits().iter().all(|&w| w == 0));
        let mut lo = FermionField::gaussian(Lattice::new([2, 2, 2, 2]), 113).to_f32();
        lo.site_mut(5).0[1].0[2].re = f32::NAN;
        lo.fill_zero();
        assert!(lo.to_bits().iter().all(|&w| w == 0));
    }

    #[test]
    fn nonzero_initial_guess_accepted() {
        let gauge = GaugeField::hot(lat(), 114);
        let op = WilsonDirac::new(&gauge, 0.1);
        let b = FermionField::gaussian(lat(), 115);
        let mut x = FermionField::gaussian(lat(), 116);
        let report = solve_cgne(&op, &mut x, &b, CgParams::default());
        assert!(report.converged);
        assert!(residual_of(&op, &x, &b) < 1e-6);
    }

    #[test]
    fn max_iterations_respected() {
        let gauge = GaugeField::hot(lat(), 117);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat(), 118);
        let mut x = FermionField::zero(lat());
        let report = solve_cgne(
            &op,
            &mut x,
            &b,
            CgParams {
                tolerance: 1e-30,
                max_iterations: 5,
            },
        );
        assert!(!report.converged);
        assert_eq!(report.iterations, 5);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Wherever a single-word strike lands — any loop-carried
            /// vector, any word, any iteration, any right-hand side — the
            /// audited solve returns exactly the bits a never-corrupted
            /// solve returns, and on strike-free runs the audit itself
            /// perturbs nothing.
            #[test]
            fn abft_solution_is_bit_identical_for_any_single_word_strike(
                seed in 0u64..1000,
                target_sel in 0usize..3,
                word in 0usize..384,
                iteration in 1usize..24,
            ) {
                let gauge = GaugeField::hot(lat(), 200 + seed);
                let op = WilsonDirac::new(&gauge, 0.12);
                let b = FermionField::gaussian(lat(), 300 + seed);
                let mut clean = FermionField::zero(lat());
                let plain = solve_cgne(&op, &mut clean, &b, CgParams::default());
                prop_assume!(plain.converged);
                let target = [TamperTarget::X, TamperTarget::R, TamperTarget::P][target_sel];
                // Flipping the exponent's top bit rescales the struck
                // word by ~2^±1024: unmissable for any stored value.
                let tamper = SolverTamper { iteration, target, word, bits: 1 << 62 };
                let mut x = FermionField::zero(lat());
                let mut telem = NodeTelemetry::disabled(0);
                let (report, abft) = solve_cgne_abft(
                    &op,
                    &mut x,
                    &b,
                    CgParams::default(),
                    AbftParams::default(),
                    Some(tamper),
                    &mut telem,
                );
                prop_assert!(!abft.exhausted);
                prop_assert!(report.converged);
                prop_assert_eq!(x.fingerprint(), clean.fingerprint());
                prop_assert_eq!(&report, &plain);
            }
        }
    }
}
