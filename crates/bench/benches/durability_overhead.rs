//! Cost of *durable* checkpointing on the CG solver.
//!
//! PR 8's contract: the atomic-generation store (write-to-temp, chunked
//! NFS write, read-back verify, digest-in-filename rename, retention GC)
//! must not tax the campaign. A solver that streams its periodic
//! checkpoints through the durable store must stay within 5% of one that
//! merely serializes them to the NERSC archive format and drops the
//! bytes — the solve dominates, the storage protocol rides along. The
//! smoke check gates that ratio at a checkpoint-every-10-iterations
//! cadence (one ~150 KB archive per ~2.5 ms of solve — still orders of
//! magnitude denser than any real campaign), with the archived and
//! durable timings interleaved so clock drift taxes both sides equally.
//! The criterion group then prices the even-denser every-5 cadence and
//! the store's own verbs (clean save, save with a torn-write retry,
//! verified restore) in isolation.

use criterion::{black_box, criterion_group, Criterion};
use qcdoc_bench::{min_seconds, overhead_gate, BenchRun, Overhead};
use qcdoc_fault::{StorageFault, StorageFaultPlan};
use qcdoc_host::ckstore::{CheckpointStore, StoreConfig};
use qcdoc_host::nfs::NfsServer;
use qcdoc_lattice::checkpoint::{write_checkpoint, CgCheckpoint};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::solver::{solve_cgne_checkpointed, CgParams};
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

fn fresh_store() -> (NfsServer, CheckpointStore) {
    let mut nfs = NfsServer::new(&["/data"], 1 << 26);
    let store = CheckpointStore::open(StoreConfig::new("/data/ck/bench"), &mut nfs);
    (nfs, store)
}

/// CG with periodic checkpoints serialized to the archive format and
/// discarded — the pre-PR-8 price of checkpointing.
fn cg_archived(op: &WilsonDirac<'_>, b: &FermionField, interval: usize) -> f64 {
    let mut x = FermionField::zero(b.lattice());
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    let report = solve_cgne_checkpointed(op, &mut x, black_box(b), params(), interval, &mut sink);
    let bytes: usize = sink.iter().map(|ck| write_checkpoint(ck).len()).sum();
    black_box(bytes);
    report.final_residual
}

/// The same solve, every checkpoint driven through the durable store:
/// temp write over the NFS wire, read-back verify, digest rename, GC.
/// The mount and the store are long-lived, as in a real campaign —
/// generations accumulate and retention GC turns over the oldest.
fn cg_durable(
    op: &WilsonDirac<'_>,
    b: &FermionField,
    interval: usize,
    nfs: &mut NfsServer,
    store: &mut CheckpointStore,
) -> f64 {
    let mut x = FermionField::zero(b.lattice());
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    let report = solve_cgne_checkpointed(op, &mut x, black_box(b), params(), interval, &mut sink);
    for ck in &sink {
        store
            .save(nfs, &write_checkpoint(ck))
            .expect("clean-path durable save");
    }
    black_box(store.bytes_committed());
    report.final_residual
}

fn one_archive(op: &WilsonDirac<'_>, b: &FermionField) -> Vec<u8> {
    let mut x = FermionField::zero(b.lattice());
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    solve_cgne_checkpointed(op, &mut x, b, params(), 5, &mut sink);
    write_checkpoint(sink.last().expect("at least one checkpoint"))
}

/// The acceptance gate: durable checkpointing every 10 iterations stays
/// within 5% of archive-and-drop checkpointing at the same cadence. The
/// ratio, the store-verb prices, and the deterministic commit accounting
/// land in `BENCH_durability.json`.
fn smoke_check() {
    let (gauge, b) = workload();
    let op = WilsonDirac::new(&gauge, 0.12);
    let (mut nfs, mut store) = fresh_store();
    let Overhead {
        base_seconds: archived_s,
        ratio,
    } = overhead_gate(
        "durability_overhead",
        ["archived", "durable"],
        1.05,
        3,
        || {
            black_box(cg_archived(&op, &b, 10));
        },
        || {
            black_box(cg_durable(&op, &b, 10, &mut nfs, &mut store));
        },
    );

    // Price the store's verbs in isolation against the same long-lived
    // mount, and pin the deterministic accounting (commit count, bytes,
    // generations on disk).
    let archive = one_archive(&op, &b);
    let save_us = min_seconds(
        || {
            store.save(&mut nfs, &archive).expect("save");
            black_box(store.commits());
        },
        25,
    ) * 1e6;
    let torn_retry_us = min_seconds(
        || {
            nfs.inject(
                &StorageFaultPlan::new(11).with_event(StorageFault::TornWrite {
                    write_op: nfs.write_ops(),
                    keep: None,
                }),
            );
            store.save(&mut nfs, &archive).expect("save after retry");
            nfs.clear_faults();
            black_box(store.retries());
        },
        25,
    ) * 1e6;
    let restore_us = min_seconds(
        || {
            let restored = store.restore(&mut nfs).expect("restore");
            black_box(restored.generation);
        },
        25,
    ) * 1e6;

    let (mut nfs, mut store) = fresh_store();
    let mut x = FermionField::zero(b.lattice());
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    solve_cgne_checkpointed(&op, &mut x, &b, params(), 5, &mut sink);
    for ck in &sink {
        store.save(&mut nfs, &write_checkpoint(ck)).expect("save");
    }
    println!(
        "durability_overhead: save {save_us:.1} us, torn-retry {torn_retry_us:.1} us, restore {restore_us:.1} us, {} commits, {} bytes, {} retained",
        store.commits(),
        store.bytes_committed(),
        store.generations(&nfs).len(),
    );

    let mut run = BenchRun::new("durability");
    run.gauge("durability_cg_archived_seconds", archived_s);
    run.gauge("durability_durable_overhead_ratio", ratio);
    run.gauge("durability_durable_gate", 1.05);
    run.gauge("durability_save_us", save_us);
    run.gauge("durability_torn_retry_save_us", torn_retry_us);
    run.gauge("durability_restore_us", restore_us);
    run.gauge("durability_commit_count", store.commits() as f64);
    run.gauge("durability_bytes_committed", store.bytes_committed() as f64);
    run.gauge(
        "durability_retained_generations",
        store.generations(&nfs).len() as f64,
    );
    run.export();
}

fn overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_overhead");
    group.sample_size(10);
    let (gauge, b) = workload();
    let op = WilsonDirac::new(&gauge, 0.12);
    let archive = one_archive(&op, &b);
    group.bench_function("cg_4x4x4x4_checkpoint_every_5_archived", |bch| {
        bch.iter(|| cg_archived(&op, &b, 5))
    });
    group.bench_function("cg_4x4x4x4_checkpoint_every_5_durable", |bch| {
        let (mut nfs, mut store) = fresh_store();
        bch.iter(|| cg_durable(&op, &b, 5, &mut nfs, &mut store))
    });
    group.bench_function("store_save_clean", |bch| {
        bch.iter(|| {
            let (mut nfs, mut store) = fresh_store();
            store.save(&mut nfs, &archive).expect("save");
            store.commits()
        })
    });
    group.bench_function("store_save_torn_retry", |bch| {
        bch.iter(|| {
            let (mut nfs, mut store) = fresh_store();
            nfs.inject(
                &StorageFaultPlan::new(11).with_event(StorageFault::TornWrite {
                    write_op: 0,
                    keep: None,
                }),
            );
            store.save(&mut nfs, &archive).expect("save after retry");
            store.retries()
        })
    });
    group.bench_function("store_restore_verified", |bch| {
        let (mut nfs, mut store) = fresh_store();
        store.save(&mut nfs, &archive).expect("save");
        bch.iter(|| {
            let restored = store.restore(&mut nfs).expect("restore");
            restored.generation
        })
    });
    group.finish();
}

criterion_group!(benches, overhead);

fn main() {
    smoke_check();
    benches();
}
