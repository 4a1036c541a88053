//! Cost of checkpointing on the CG solver.
//!
//! The self-healing contract mirrors the telemetry one: resilience must be
//! free when it isn't used. `solve_cgne_checkpointed` with the interval set
//! to 0 runs the very same loop as the raw solver — the only addition is a
//! `interval > 0` branch per iteration — so it must hold raw-CG speed. The
//! smoke check asserts that (minimum-of-several timing, 5% gate), and the
//! criterion group then prices the real thing: raw CG, checkpoint-disabled
//! CG, periodic in-memory checkpoints, and periodic checkpoints serialized
//! through the NERSC-style archive writer.

use criterion::{black_box, criterion_group, Criterion};
use qcdoc_bench::{min_seconds, overhead_gate, BenchRun, Overhead};
use qcdoc_lattice::checkpoint::{write_checkpoint, CgCheckpoint};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::solver::{solve_cgne, solve_cgne_checkpointed, CgParams};
use qcdoc_lattice::wilson::WilsonDirac;

fn workload() -> (GaugeField, FermionField) {
    let lat = Lattice::new([4, 4, 4, 4]);
    (GaugeField::hot(lat, 42), FermionField::gaussian(lat, 43))
}

fn params() -> CgParams {
    CgParams {
        tolerance: 1e-10,
        max_iterations: 25,
    }
}

fn cg_raw(op: &WilsonDirac<'_>, b: &FermionField) -> f64 {
    let mut x = FermionField::zero(b.lattice());
    let report = solve_cgne(op, &mut x, black_box(b), params());
    report.final_residual
}

fn cg_checkpointed(op: &WilsonDirac<'_>, b: &FermionField, interval: usize) -> f64 {
    let mut x = FermionField::zero(b.lattice());
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    let report = solve_cgne_checkpointed(op, &mut x, black_box(b), params(), interval, &mut sink);
    black_box(sink.len());
    report.final_residual
}

/// The acceptance gate: checkpoint-disabled CG stays within 5% of raw
/// CG. The measured ratio plus the periodic-checkpoint price and the
/// deterministic archive size land in `BENCH_recovery.json`.
fn smoke_check() {
    let (gauge, b) = workload();
    let op = WilsonDirac::new(&gauge, 0.12);
    let Overhead {
        base_seconds: raw_s,
        ratio,
    } = overhead_gate(
        "recovery_overhead",
        ["raw", "interval-0"],
        1.05,
        3,
        || {
            black_box(cg_raw(&op, &b));
        },
        || {
            black_box(cg_checkpointed(&op, &b, 0));
        },
    );

    // Price the real thing and size one archived checkpoint; the count
    // and byte size are deterministic, so the judge gates them tightly.
    let every5 = min_seconds(
        || {
            black_box(cg_checkpointed(&op, &b, 5));
        },
        7,
    );
    let mut x = FermionField::zero(b.lattice());
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    solve_cgne_checkpointed(&op, &mut x, &b, params(), 5, &mut sink);
    let archive_bytes: usize = sink.iter().map(|ck| write_checkpoint(ck).len()).sum();
    println!(
        "recovery_overhead: every-5 ratio {:.4}, {} checkpoints, {} archive bytes",
        every5 / raw_s,
        sink.len(),
        archive_bytes,
    );

    let mut run = BenchRun::new("recovery");
    run.gauge("recovery_cg_raw_seconds", raw_s);
    run.gauge("recovery_disabled_overhead_ratio", ratio);
    run.gauge("recovery_disabled_gate", 1.05);
    run.gauge("recovery_every5_overhead_ratio", every5 / raw_s);
    run.gauge("recovery_checkpoint_count", sink.len() as f64);
    run.gauge("recovery_archive_bytes", archive_bytes as f64);
    run.export();
}

fn overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_overhead");
    group.sample_size(10);
    let (gauge, b) = workload();
    let op = WilsonDirac::new(&gauge, 0.12);
    group.bench_function("cg_4x4x4x4_raw", |bch| bch.iter(|| cg_raw(&op, &b)));
    group.bench_function("cg_4x4x4x4_checkpoint_disabled", |bch| {
        bch.iter(|| cg_checkpointed(&op, &b, 0))
    });
    group.bench_function("cg_4x4x4x4_checkpoint_every_5", |bch| {
        bch.iter(|| cg_checkpointed(&op, &b, 5))
    });
    group.bench_function("cg_4x4x4x4_checkpoint_every_5_archived", |bch| {
        bch.iter(|| {
            let mut x = FermionField::zero(b.lattice());
            let mut sink: Vec<CgCheckpoint> = Vec::new();
            let report = solve_cgne_checkpointed(&op, &mut x, &b, params(), 5, &mut sink);
            let bytes: usize = sink.iter().map(|ck| write_checkpoint(ck).len()).sum();
            black_box(bytes);
            report.final_residual
        })
    });
    group.finish();
}

criterion_group!(benches, overhead);

fn main() {
    smoke_check();
    benches();
}
