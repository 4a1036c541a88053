//! AoSoA vs scalar Dslash kernels at both precisions — the layout
//! experiment behind EXPERIMENTS.md E16.
//!
//! E11 measured the scalar (AoS) kernels and found f32 *slower* than f64
//! (0.68×): interleaved re/im storage makes complex arithmetic
//! shuffle-bound, so narrower lanes buy nothing. The AoSoA layout in
//! `qcdoc_lattice::aosoa` separates re/im into lane-major planes, turning
//! the same arithmetic into shuffle-free packed ops where f32's 2× lane
//! count is finally worth wall-clock time. The smoke check *gates the
//! direction*: AoSoA f32 must beat AoSoA f64 or the bench fails. The
//! judge then gates the exported ratio against the blessed baseline.
//!
//! All four kernels are bit-identical per precision (asserted here on the
//! benchmark workload and in the lattice crate's test suite), so the
//! comparison is pure layout, not algorithm.
//!
//! The scalar kernel is itself held to a reference first: `dslash`,
//! `apply` and `apply_dagger` must reproduce, word for word, the
//! table-driven oracle kept in the lattice test tree (E19). `M` and `M†`
//! are then timed side by side — they are one site kernel in one sweep
//! each, so their ratio is gated near 1.

use criterion::{black_box, criterion_group, Criterion};
use qcdoc_bench::{min_seconds, BenchRun};
use qcdoc_lattice::aosoa::{dslash_aosoa, FermionBlocks, GaugeBlocks};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice, NeighbourTable};
use qcdoc_lattice::real::Real;
use qcdoc_lattice::solver::{DiracOperator, KrylovVector};
use qcdoc_lattice::wilson::WilsonDirac;

#[path = "../../lattice/tests/oracle/mod.rs"]
mod oracle;

/// The seeded workload every number below is measured on: the paper's
/// 8⁴ benchmark volume.
fn workload() -> (GaugeField, FermionField) {
    let lat = Lattice::new([8, 8, 8, 8]);
    (GaugeField::hot(lat, 42), FermionField::gaussian(lat, 43))
}

/// Dslash applications per timed closure — enough to amortize timer
/// granularity on a millisecond-scale kernel.
const APPLICATIONS: usize = 20;
/// Repetitions per measurement; `min_seconds` keeps the minimum.
const REPS: usize = 5;

struct KernelTimes {
    scalar_f64: f64,
    apply_f64: f64,
    apply_dagger_f64: f64,
    scalar_f32: f64,
    aosoa_f64: f64,
    aosoa_f32: f64,
}

fn measure() -> KernelTimes {
    let (gauge, psi) = workload();
    let lat = gauge.lattice();
    let hops = NeighbourTable::new(lat);
    let gauge32 = gauge.to_f32();
    let psi32 = psi.to_f32();
    let op = WilsonDirac::new(&gauge, 0.12);
    let op32 = WilsonDirac::new(&gauge32, 0.12);
    let gb = GaugeBlocks::from_field(&gauge);
    let pb = FermionBlocks::from_field(&psi);
    let gb32 = GaugeBlocks::from_field(&gauge32);
    let pb32 = FermionBlocks::from_field(&psi32);

    let mut out = FermionField::zero(lat);
    let scalar_f64 = min_seconds(
        || {
            for _ in 0..APPLICATIONS {
                op.dslash(&mut out, black_box(&psi));
            }
        },
        REPS,
    );
    // M and M† alternate rep by rep, so a drifting host moves both sides
    // of the gated ratio together.
    let (mut apply_f64, mut apply_dagger_f64) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let m = min_seconds(
            || {
                for _ in 0..APPLICATIONS {
                    op.apply(&mut out, black_box(&psi));
                }
            },
            1,
        );
        let mdag = min_seconds(
            || {
                for _ in 0..APPLICATIONS {
                    op.apply_dagger(&mut out, black_box(&psi));
                }
            },
            1,
        );
        apply_f64 = apply_f64.min(m);
        apply_dagger_f64 = apply_dagger_f64.min(mdag);
    }
    let mut out32 = FermionField::<f32>::zero(lat);
    let scalar_f32 = min_seconds(
        || {
            for _ in 0..APPLICATIONS {
                op32.dslash(&mut out32, black_box(&psi32));
            }
        },
        REPS,
    );
    let mut ob = FermionBlocks::zero(lat);
    let aosoa_f64 = min_seconds(
        || {
            for _ in 0..APPLICATIONS {
                dslash_aosoa(&mut ob, &gb, black_box(&pb), &hops);
            }
        },
        REPS,
    );
    let mut ob32 = FermionBlocks::<f32>::zero(lat);
    let aosoa_f32 = min_seconds(
        || {
            for _ in 0..APPLICATIONS {
                dslash_aosoa(&mut ob32, &gb32, black_box(&pb32), &hops);
            }
        },
        REPS,
    );

    KernelTimes {
        scalar_f64,
        apply_f64,
        apply_dagger_f64,
        scalar_f32,
        aosoa_f64,
        aosoa_f32,
    }
}

/// The scalar kernels against the table-driven oracle, on raw words.
fn assert_scalar_matches_oracle<T: Real>(gauge: &GaugeField<T>, psi: &FermionField<T>) {
    let lat = gauge.lattice();
    let op = WilsonDirac::new(gauge, 0.12);
    let table = oracle::TableWilson::new(gauge, 0.12);
    let (mut got, mut want) = (FermionField::zero(lat), FermionField::zero(lat));
    op.dslash(&mut got, psi);
    table.dslash(&mut want, psi);
    assert_eq!(got.to_bits(), want.to_bits(), "dslash vs table oracle");
    op.apply(&mut got, psi);
    table.apply(&mut want, psi);
    assert_eq!(got.to_bits(), want.to_bits(), "apply vs table oracle");
    op.apply_dagger(&mut got, psi);
    table.apply_dagger(&mut want, psi);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "apply_dagger vs table oracle"
    );
}

fn smoke_check() {
    // Correctness first: the scalar kernels must reproduce the reference
    // oracle, and the AoSoA kernels the scalar ones, bit-for-bit on the
    // benchmark workload at both precisions.
    let (gauge, psi) = workload();
    let lat = gauge.lattice();
    assert_scalar_matches_oracle(&gauge, &psi);
    assert_scalar_matches_oracle(&gauge.to_f32(), &psi.to_f32());
    let hops = NeighbourTable::new(lat);
    let op = WilsonDirac::new(&gauge, 0.12);
    let mut scalar = FermionField::zero(lat);
    op.dslash(&mut scalar, &psi);
    let mut ob = FermionBlocks::zero(lat);
    dslash_aosoa(
        &mut ob,
        &GaugeBlocks::from_field(&gauge),
        &FermionBlocks::from_field(&psi),
        &hops,
    );
    assert_eq!(
        ob.to_field().fingerprint(),
        scalar.fingerprint(),
        "AoSoA f64 dslash must be bit-identical to the scalar kernel"
    );
    let gauge32 = gauge.to_f32();
    let psi32 = psi.to_f32();
    let op32 = WilsonDirac::new(&gauge32, 0.12);
    let mut scalar32 = FermionField::zero(lat);
    op32.dslash(&mut scalar32, &psi32);
    let mut ob32 = FermionBlocks::zero(lat);
    dslash_aosoa(
        &mut ob32,
        &GaugeBlocks::from_field(&gauge32),
        &FermionBlocks::from_field(&psi32),
        &hops,
    );
    assert_eq!(
        ob32.to_field(),
        scalar32,
        "AoSoA f32 dslash must be bit-identical to the scalar kernel"
    );

    // Direction gate, with a retry envelope to ride out host noise: the
    // single-precision AoSoA kernel must be faster than the double one.
    let mut verdict = None;
    for attempt in 1..=3 {
        let t = measure();
        let aosoa_ratio = t.aosoa_f64 / t.aosoa_f32;
        let scalar_ratio = t.scalar_f64 / t.scalar_f32;
        println!(
            "kernels smoke attempt {attempt}: scalar f64 {:.1} ms, scalar f32 {:.1} ms \
             (ratio {scalar_ratio:.2}x), aosoa f64 {:.1} ms, aosoa f32 {:.1} ms \
             (ratio {aosoa_ratio:.2}x); scalar M {:.1} ms, M\u{2020} {:.1} ms",
            t.scalar_f64 * 1e3,
            t.scalar_f32 * 1e3,
            t.aosoa_f64 * 1e3,
            t.aosoa_f32 * 1e3,
            t.apply_f64 * 1e3,
            t.apply_dagger_f64 * 1e3,
        );
        if aosoa_ratio > 1.0 {
            verdict = Some(t);
            break;
        }
    }
    let t = verdict.expect("AoSoA f32 dslash must beat AoSoA f64 — the layout experiment failed");
    let aosoa_ratio = t.aosoa_f64 / t.aosoa_f32;
    let scalar_ratio = t.scalar_f64 / t.scalar_f32;
    println!(
        "kernels smoke PASS: AoSoA f32 is {aosoa_ratio:.2}x faster than f64 \
         (scalar layout managed only {scalar_ratio:.2}x; E11's shuffle-bound regime)"
    );

    let mut run = BenchRun::new("kernels");
    run.gauge("kernels_aosoa_f32_speedup", aosoa_ratio);
    run.gauge("kernels_scalar_f32_speedup", scalar_ratio);
    run.gauge("kernels_aosoa_vs_scalar_f64", t.scalar_f64 / t.aosoa_f64);
    run.gauge("kernels_aosoa_vs_scalar_f32", t.scalar_f32 / t.aosoa_f32);
    run.gauge(
        "kernels_scalar_f64_ms_per_dslash",
        t.scalar_f64 * 1e3 / APPLICATIONS as f64,
    );
    run.gauge(
        "kernels_aosoa_f32_ms_per_dslash",
        t.aosoa_f32 * 1e3 / APPLICATIONS as f64,
    );
    run.gauge(
        "kernels_scalar_apply_ms",
        t.apply_f64 * 1e3 / APPLICATIONS as f64,
    );
    run.gauge(
        "kernels_scalar_apply_dagger_ms",
        t.apply_dagger_f64 * 1e3 / APPLICATIONS as f64,
    );
    run.gauge("kernels_dagger_vs_apply", t.apply_dagger_f64 / t.apply_f64);
    run.export();
}

fn kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    let (gauge, psi) = workload();
    let lat = gauge.lattice();
    let hops = NeighbourTable::new(lat);
    let gauge32 = gauge.to_f32();
    let psi32 = psi.to_f32();
    let op = WilsonDirac::new(&gauge, 0.12);
    let op32 = WilsonDirac::new(&gauge32, 0.12);
    let gb = GaugeBlocks::from_field(&gauge);
    let pb = FermionBlocks::from_field(&psi);
    let gb32 = GaugeBlocks::from_field(&gauge32);
    let pb32 = FermionBlocks::from_field(&psi32);

    let mut out = FermionField::zero(lat);
    group.bench_function("dslash_scalar_f64", |b| {
        b.iter(|| {
            op.dslash(&mut out, black_box(&psi));
            out.site(0).0[0].0[0].re
        })
    });
    let mut out32 = FermionField::<f32>::zero(lat);
    group.bench_function("dslash_scalar_f32", |b| {
        b.iter(|| {
            op32.dslash(&mut out32, black_box(&psi32));
            out32.site(0).0[0].0[0].re
        })
    });
    let mut ob = FermionBlocks::zero(lat);
    group.bench_function("dslash_aosoa_f64", |b| {
        b.iter(|| dslash_aosoa(&mut ob, &gb, black_box(&pb), &hops))
    });
    let mut ob32 = FermionBlocks::<f32>::zero(lat);
    group.bench_function("dslash_aosoa_f32", |b| {
        b.iter(|| dslash_aosoa(&mut ob32, &gb32, black_box(&pb32), &hops))
    });
    group.finish();
}

criterion_group!(benches, kernels);

fn main() {
    smoke_check();
    benches();
}
