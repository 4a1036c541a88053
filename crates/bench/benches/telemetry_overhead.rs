//! Cost of the telemetry layer on the Dslash hot loop.
//!
//! The observability contract is "compile-out-cheap": with telemetry
//! disabled every hook is a single branch on `NodeTelemetry::is_enabled`,
//! so the instrumented solver must run at raw-operator speed. The smoke
//! check times an 8⁴ Wilson `M†M` hot loop bare versus with the disabled
//! hooks interleaved exactly as `solve_cgne_traced` places them, takes the
//! minimum over several repetitions (minimum, not mean — the floor is the
//! honest cost on a noisy machine) and asserts the disabled path stays
//! within 5%. The criterion group then prices all three flavours: raw,
//! disabled hooks, and live spans into a ring sink.

use criterion::{black_box, criterion_group, Criterion};
use qcdoc_bench::{min_seconds, overhead_gate, BenchRun, Overhead};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::wilson::WilsonDirac;
use qcdoc_telemetry::{NodeTelemetry, Phase};

const ITERS: usize = 30;

fn workload() -> (GaugeField, FermionField) {
    let lat = Lattice::new([8, 8, 8, 8]);
    (GaugeField::hot(lat, 42), FermionField::gaussian(lat, 43))
}

/// The raw hot loop: `ITERS` normal-equation operator applications.
fn dslash_raw(op: &WilsonDirac<'_>, p: &FermionField) -> f64 {
    let mut t = p.clone();
    let mut q = p.clone();
    for _ in 0..ITERS {
        op.apply(&mut t, black_box(p));
        op.apply_dagger(&mut q, &t);
    }
    q.norm_sqr()
}

/// The same loop with telemetry hooks placed as the traced solver places
/// them: a span around the pair of applications, a clock advance, a
/// counter bump.
fn dslash_hooked(op: &WilsonDirac<'_>, p: &FermionField, telem: &mut NodeTelemetry) -> f64 {
    let mut t = p.clone();
    let mut q = p.clone();
    let apply_cycles = 1320 * p.lattice().volume() as u64 / 2;
    for _ in 0..ITERS {
        let token = telem.begin();
        op.apply(&mut t, black_box(p));
        op.apply_dagger(&mut q, &t);
        telem.advance(2 * apply_cycles);
        telem.end_with(token, "bench.apply", Phase::Compute, 2);
        telem.counter_add("solver_iterations", 1);
    }
    q.norm_sqr()
}

/// The acceptance gate: disabled telemetry adds < 5% to the hot loop,
/// and both ratios (disabled hooks, live ring spans) are exported to
/// `BENCH_telemetry.json`.
fn smoke_check() {
    let (gauge, p) = workload();
    let op = WilsonDirac::new(&gauge, 0.12);
    let Overhead {
        base_seconds: raw_s,
        ratio,
    } = overhead_gate(
        "telemetry_overhead",
        ["raw", "disabled"],
        1.05,
        3,
        || {
            black_box(dslash_raw(&op, &p));
        },
        || {
            let mut telem = NodeTelemetry::disabled(0);
            black_box(dslash_hooked(&op, &p, &mut telem));
        },
    );

    // Price the live path too (report-only — ring spans are opt-in).
    let ring = min_seconds(
        || {
            let mut telem = NodeTelemetry::with_ring(0, 1 << 12);
            black_box(dslash_hooked(&op, &p, &mut telem));
        },
        7,
    );
    let ring_ratio = ring / raw_s;
    println!("telemetry_overhead: ring-span path ratio {ring_ratio:.4}");

    let mut run = BenchRun::new("telemetry");
    run.gauge("telemetry_dslash_raw_seconds", raw_s);
    run.gauge("telemetry_disabled_overhead_ratio", ratio);
    run.gauge("telemetry_disabled_gate", 1.05);
    run.gauge("telemetry_ring_overhead_ratio", ring_ratio);
    run.export();
}

fn overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let (gauge, p) = workload();
    let op = WilsonDirac::new(&gauge, 0.12);
    group.bench_function("dslash_8x8x8x8_raw", |b| b.iter(|| dslash_raw(&op, &p)));
    group.bench_function("dslash_8x8x8x8_disabled_hooks", |b| {
        b.iter(|| {
            let mut telem = NodeTelemetry::disabled(0);
            dslash_hooked(&op, &p, &mut telem)
        })
    });
    group.bench_function("dslash_8x8x8x8_ring_spans", |b| {
        b.iter(|| {
            let mut telem = NodeTelemetry::with_ring(0, 1 << 12);
            dslash_hooked(&op, &p, &mut telem)
        })
    });
    group.finish();
}

criterion_group!(benches, overhead);

fn main() {
    smoke_check();
    benches();
}
