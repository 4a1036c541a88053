//! Mixed-precision (reliable-update) CG against the pure double solver.
//!
//! §4 of the paper: "performance for single precision is slightly higher
//! due to the decreased bandwidth to local memory that is needed in this
//! case." The PPC 440 FPU is a double-precision unit, so on QCDOC single
//! precision buys *bandwidth*, never flops — which is why the paper's
//! uplift is slight (the analytic model reproduces it at +2.4 to +3.6
//! points, `perf::PAPER_SINGLE_PRECISION_MAX_UPLIFT`). Commodity x86 hosts
//! land in the same regime for a different reason: scalar f64 complex
//! arithmetic maps one complex per 128-bit register, so the double kernels
//! arrive effectively vectorized and the f32 kernels hold no flop
//! advantage. The smoke check therefore gates on what mixed precision
//! *guarantees* — full f64 tolerance, bit-reproducibility, and an inner
//! loop that does the bulk of its operator applications in f32 — and
//! reports the measured wall-clock ratio alongside, with the envelope
//! asserting the reliable-update overhead stays bounded. See
//! EXPERIMENTS.md ("Mixed-precision CG") for the recorded numbers and the
//! kernel-level instruction histograms behind them.

use criterion::{black_box, criterion_group, Criterion};
use qcdoc_bench::{overhead_gate, BenchRun};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::solver::{solve_cgne, solve_cgne_mixed, CgParams, MixedCgParams};
use qcdoc_lattice::wilson::WilsonDirac;

/// The seeded Wilson problem every claim below is measured on.
fn workload() -> (GaugeField, FermionField) {
    let lat = Lattice::new([8, 8, 8, 8]);
    (GaugeField::hot(lat, 42), FermionField::gaussian(lat, 43))
}

fn params() -> CgParams {
    CgParams {
        tolerance: 1e-8,
        max_iterations: 2000,
    }
}

fn solve_double(op: &WilsonDirac<'_>, b: &FermionField) -> FermionField {
    let mut x = FermionField::zero(b.lattice());
    let report = solve_cgne(op, &mut x, black_box(b), params());
    assert!(report.converged, "double CG failed to converge");
    x
}

fn solve_mixed(
    op: &WilsonDirac<'_>,
    op32: &WilsonDirac<'_, f32>,
    b: &FermionField,
) -> FermionField {
    let mut x = FermionField::zero(b.lattice());
    let report = solve_cgne_mixed(op, op32, &mut x, black_box(b), MixedCgParams::default());
    assert!(report.converged, "mixed CG failed to converge");
    x
}

/// Mixed CG must never cost more than this multiple of the double solver:
/// the reliable-update schedule repeats at most a few outer corrections,
/// so anything beyond ~1.6× means the defect-correction loop is broken
/// (runaway restarts), not that the kernels are slow.
const MAX_SLOWDOWN: f64 = 1.6;

fn smoke_check() {
    let (gauge, b) = workload();
    let gauge32 = gauge.to_f32();
    let op = WilsonDirac::new(&gauge, 0.12);
    let op32 = WilsonDirac::new(&gauge32, 0.12);

    // Correctness and determinism gates: full f64 tolerance, bit-identical
    // reruns, and an inner loop dominated by single-precision work.
    let mut x1 = FermionField::zero(b.lattice());
    let r1 = solve_cgne_mixed(&op, &op32, &mut x1, &b, MixedCgParams::default());
    assert!(r1.converged, "mixed CG missed the f64 tolerance");
    let mut x2 = FermionField::zero(b.lattice());
    let r2 = solve_cgne_mixed(&op, &op32, &mut x2, &b, MixedCgParams::default());
    assert_eq!(
        x1.fingerprint(),
        x2.fingerprint(),
        "mixed CG rerun is not bit-identical"
    );
    assert_eq!(r1.inner_iterations, r2.inner_iterations);
    assert!(
        r1.low_precision_applications > 4 * r1.high_precision_applications,
        "inner loop should do the bulk of its applications in f32: {} low vs {} high",
        r1.low_precision_applications,
        r1.high_precision_applications,
    );

    // Wall-clock envelope: mixed may cost at most MAX_SLOWDOWN x double.
    let speedup = 1.0
        / overhead_gate(
            "mixed_precision",
            ["double", "mixed"],
            MAX_SLOWDOWN,
            3,
            || {
                black_box(solve_double(&op, &b).fingerprint());
            },
            || {
                black_box(solve_mixed(&op, &op32, &b).fingerprint());
            },
        )
        .ratio;
    println!(
        "mixed_precision smoke PASS: speedup {speedup:.2}x (double-precision-FPU host; \
         QCDOC's single-precision gain is bandwidth-bound — see EXPERIMENTS.md)"
    );

    // The application counts are deterministic (bit-identical reruns were
    // asserted above), so the judge gates them at 1%; the wall-clock
    // speedup is host noise and stays report-only.
    let mut run = BenchRun::new("mixed_precision");
    run.gauge("mixed_speedup_vs_double", speedup);
    run.gauge("mixed_max_slowdown_envelope", MAX_SLOWDOWN);
    run.gauge(
        "mixed_inner_iterations",
        r1.inner_iterations.iter().sum::<usize>() as f64,
    );
    run.gauge(
        "mixed_low_precision_applications",
        r1.low_precision_applications as f64,
    );
    run.gauge(
        "mixed_high_precision_applications",
        r1.high_precision_applications as f64,
    );
    run.export();
}

fn solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_precision");
    group.sample_size(10);
    let (gauge, b) = workload();
    let gauge32 = gauge.to_f32();
    let op = WilsonDirac::new(&gauge, 0.12);
    let op32 = WilsonDirac::new(&gauge32, 0.12);
    let b32 = b.to_f32();

    group.bench_function("cg_8x8x8x8_double", |bch| {
        bch.iter(|| solve_double(&op, &b).fingerprint())
    });
    group.bench_function("cg_8x8x8x8_mixed", |bch| {
        bch.iter(|| solve_mixed(&op, &op32, &b).fingerprint())
    });

    // The raw kernels at both widths, for the ratio EXPERIMENTS.md records.
    let mut out = FermionField::zero(b.lattice());
    group.bench_function("wilson_apply_f64", |bch| {
        bch.iter(|| {
            op.apply(&mut out, black_box(&b));
            out.site(0).0[0].0[0].re
        })
    });
    let mut out32 = FermionField::<f32>::zero(b.lattice());
    group.bench_function("wilson_apply_f32", |bch| {
        bch.iter(|| {
            op32.apply(&mut out32, black_box(&b32));
            out32.site(0).0[0].0[0].re
        })
    });
    group.finish();
}

criterion_group!(benches, solvers);

fn main() {
    smoke_check();
    benches();
}
