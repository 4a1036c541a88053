//! The per-layer probes of a traced run: each public function called alone,
//! from outside, a fixed number of times, on the workload's own shapes.
//!
//! Every traced run makes every probe, so its result carries every
//! per-layer metric. Per-operation engine costs are priced on the
//! workload's machine (16 nodes where the workload has none); the ratios
//! that need several whole runs are always priced on 16 nodes.

use crate::control_plane::{
    cg_checkpoint, chaos_config, check_soak, derive_seed, open_store, ARCHIVE_ITERATIONS,
    ARCHIVE_LATTICE, FOLD, PHYSICAL,
};
use crate::measure::{timed, RepSummary, Sample};
use crate::report::{Checks, Metrics};
use crate::stats::median;
use crate::torus::{
    gather, run_plain, run_with_health, run_with_telemetry, same_outcome, serial_reference, Extent,
    Inputs, BANDWIDTH_MACHINE, BIT_ERROR_RATE,
};
use crate::trace::Tracer;
use crate::{local_solve, KAPPA};
use qcdoc::asic::memory::NodeMemory;
use qcdoc::core::comm::global_sum_f64_async;
use qcdoc::core::distributed::{dslash_local_async, exchange_faces_async, BlockGeom};
use qcdoc::core::functional::NodeCtx;
use qcdoc::geometry::{NodeId, Partition, PartitionSpec, TorusShape};
use qcdoc::host::{run_chaos, Qdaemon};
use qcdoc::lattice::aosoa::{dslash_aosoa, FermionBlocks, GaugeBlocks};
use qcdoc::lattice::checkpoint::{read_checkpoint, write_checkpoint};
use qcdoc::lattice::counts::{operator_counts, Action};
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice, NeighbourTable};
use qcdoc::lattice::real::Real;
use qcdoc::lattice::solver::{solve_cgne, solve_cgne_mixed, CgParams, MixedCgParams};
use qcdoc::lattice::wilson::WilsonDirac;
use qcdoc::scu::dma::DmaDescriptor;
use qcdoc::scu::link::{RecvOutcome, RecvUnit, SendUnit};
use std::hint::black_box;

/// What a workload tells the probes about itself.
pub struct Plan {
    /// Machine the per-operation engine costs are priced on.
    pub machine: [usize; 4],
    /// Lattice the kernels and the serial solver are priced on.
    pub lattice: [usize; 4],
    /// CG iterations of one rep of the workload's own solve.
    pub iterations: usize,
    /// What that solve is, so its timing can stand in for a probe's.
    pub own_solve: OwnSolve,
}

pub enum OwnSolve {
    /// The rep is the distributed solve on `machine`.
    Distributed,
    /// The rep is the serial solve on `lattice`, with this many operator
    /// applications.
    Serial { applications: usize },
    /// The rep solves nothing (`control_plane`).
    None,
}

/// Global sums per probe run.
const SUMS: usize = 20;
/// Face exchanges (and Dslash applications) per probe run, by node count:
/// enough to stand clear of the spawn cost, few enough to fit the run.
fn engine_ops(nodes: usize) -> usize {
    if nodes > 256 {
        4
    } else {
        10
    }
}
/// CG iterations of the 16-node segments the ratios compare.
const RATIO_ITERATIONS: usize = 3;
/// Site updates per kernel sweep: 80 applications on 8^4, 5 on 16^4.
const SITE_UPDATES: usize = 327_680;
/// Words per link transfer and transfers per probe, as in
/// `crates/bench/benches/link_protocol.rs`.
const LINK_WORDS: u32 = 256;
const LINK_TRANSFERS: usize = 200;
/// Words per memory block (one 4^4 face) and blocks per probe.
const BLOCK_WORDS: usize = 768;
const BLOCKS: usize = 400;

pub fn run(
    seed: u64,
    plan: &Plan,
    summary: &RepSummary,
    t: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    m.set("cg.iterations", plan.iterations as f64);
    m.set(
        "trace.overhead_ratio",
        summary
            .trace_overhead_ratio
            .expect("probes run in a traced run"),
    );
    let clean = t.span("probe.engine_ratios", |t| engine_ratios(seed, t, checks, m));
    let engine_rep = match plan.own_solve {
        OwnSolve::Distributed => (summary.rep, plan.iterations),
        _ => (clean, RATIO_ITERATIONS),
    };
    t.span("probe.engine_operations", |t| {
        engine_operations(seed, plan.machine, engine_rep, t, checks, m)
    });
    t.span("probe.scu_link", |_| scu_link(checks, m));
    t.span("probe.asic_memory", |_| asic_memory(checks, m));
    let serial_rep = match plan.own_solve {
        OwnSolve::Serial { applications } => Some((summary.rep, plan.iterations, applications)),
        _ => None,
    };
    t.span("probe.lattice", |t| {
        lattice(seed, Lattice::new(plan.lattice), serial_rep, t, checks, m)
    });
    t.span("probe.host", |t| host(seed, t, checks, m));
}

/// Time `machine.run(program)` once.
fn timed_run<R: Send>(
    inputs: &Inputs,
    t: &mut Tracer,
    name: &str,
    program: impl AsyncFn(&mut NodeCtx) -> R + Sync,
) -> (Vec<R>, Sample) {
    let machine = inputs.machine();
    t.span(name, |_| timed(|| machine.run(program)))
}

/// Per-operation engine costs on `machine`: spawn, global sum, block
/// extraction, face exchange, distributed Dslash.
fn engine_operations(
    seed: u64,
    machine: [usize; 4],
    (rep, rep_iterations): (Sample, usize),
    t: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let inputs = Inputs::generate(seed, machine);
    let nodes = inputs.shape.node_count();
    let ops = engine_ops(nodes);

    let mut spawns = Vec::new();
    for _ in 0..3 {
        let (ranks, sample) = timed_run(&inputs, t, "ShardedMachine::run(empty)", async |ctx| {
            ctx.id.0
        });
        checks.check(
            ranks.iter().enumerate().all(|(i, &r)| r as usize == i),
            || "the empty program did not return the ranks in order".into(),
        );
        spawns.push(sample.wall_s);
    }
    let spawn_s = median(&spawns);
    m.set("core.sharded.spawn_ms", spawn_s * 1e3);

    let (sums, sample) = timed_run(&inputs, t, "global_sum_f64_async", async |ctx| {
        let mut last = 0.0;
        for _ in 0..SUMS {
            last = global_sum_f64_async(ctx, ctx.id.0 as f64).await;
        }
        last.to_bits()
    });
    let expected = (nodes * (nodes - 1) / 2) as f64;
    checks.check(sums.iter().all(|&bits| bits == expected.to_bits()), || {
        format!("a global sum of the ranks is not {expected} on every node")
    });
    m.set(
        "core.comm.global_sum_us",
        (sample.wall_s - spawn_s).max(0.0) / SUMS as f64 * 1e6,
    );

    let (blocks, sample) = t.span("BlockGeom::extract", |_| {
        timed(|| {
            (0..nodes)
                .map(|node| {
                    let geom =
                        BlockGeom::for_node(&inputs.shape, NodeId(node as u32), inputs.global);
                    (
                        geom.extract_gauge(&inputs.gauge).len(),
                        geom.extract_fermion(&inputs.source).len(),
                    )
                })
                .fold(0, |sites, (g, f)| sites + g + f)
        })
    });
    checks.check(blocks == 2 * inputs.global.volume(), || {
        "the node blocks do not tile the lattice".into()
    });
    m.set(
        "core.distributed.extract_us_per_node",
        sample.wall_s / nodes as f64 * 1e6,
    );

    // A program that extracts its blocks and then exchanges faces (or applies
    // the whole Dslash) a number of times; the zero-times run is the baseline
    // the others are priced from.
    let exchange = async |ctx: &mut NodeCtx, times: usize, full_dslash: bool| {
        let geom = BlockGeom::new(ctx, inputs.global);
        let lg = geom.extract_gauge(&inputs.gauge);
        let lb = geom.extract_fermion(&inputs.source);
        let mut words = 0usize;
        for _ in 0..times {
            if full_dslash {
                words += dslash_local_async(ctx, &geom, &lg, &lb).await.len();
            } else {
                let (plus, minus) = exchange_faces_async(ctx, &geom, &lg, &lb).await;
                words += plus.iter().chain(minus.iter()).map(Vec::len).sum::<usize>() * 24;
            }
        }
        words
    };
    let (_, base) = timed_run(&inputs, t, "extract_only", async |ctx| {
        exchange(ctx, 0, false).await
    });
    let (received, exchanged) = timed_run(&inputs, t, "exchange_faces_async", async |ctx| {
        exchange(ctx, ops, false).await
    });
    let (_, applied) = timed_run(&inputs, t, "dslash_local_async", async |ctx| {
        exchange(ctx, ops, true).await
    });
    let geom = BlockGeom::for_node(&inputs.shape, NodeId(0), inputs.global);
    let face_words: usize = (0..4)
        .filter(|&mu| geom.off_node(mu))
        .map(|mu| 2 * geom.face_sites(mu) * 24)
        .sum::<usize>()
        * nodes;
    checks.check(received.iter().sum::<usize>() == face_words * ops, || {
        "the words received in the face exchanges are not the computed face words".into()
    });
    let exchange_s = (exchanged.wall_s - base.wall_s).max(0.0) / ops as f64;
    m.set("core.distributed.face_exchange_us", exchange_s * 1e6);
    m.set("core.distributed.face_words", face_words as f64);
    m.set(
        "core.sharded.us_per_word",
        exchange_s * 1e6 / face_words as f64,
    );
    m.set(
        "core.distributed.dslash_us",
        (applied.wall_s - base.wall_s).max(0.0) / ops as f64 * 1e6,
    );

    m.set(
        "core.distributed.cg_iter_ms",
        rep.wall_s / rep_iterations as f64 * 1e3,
    );
    m.set("core.sharded.cpu_per_wall", rep.cpu_s / rep.wall_s);
}

/// The ratios between whole runs of a [`RATIO_ITERATIONS`]-iteration CG
/// segment on 16 nodes: one worker against all, block checksums on against
/// off, a noisy wire against a clean one, telemetry on against off, and the
/// engine against the serial solver. Returns the clean run's sample.
fn engine_ratios(seed: u64, t: &mut Tracer, checks: &mut Checks, m: &mut Metrics) -> Sample {
    let inputs = Inputs::generate(seed, BANDWIDTH_MACHINE);
    let nodes = inputs.shape.node_count() as f64;
    let extent = Extent::Segment(RATIO_ITERATIONS);

    // Discarded: after a single-threaded phase the first machine run finds
    // the second core cold and takes up to twice as long as the next one.
    t.span("warm_up", |_| run_plain(&inputs.machine(), &inputs, extent));
    let (outs, clean) = t.span("clean", |_| {
        timed(|| run_plain(&inputs.machine(), &inputs, extent))
    });
    let reference = gather(&inputs, &outs, checks);

    let (outs, one_worker) = t.span("one_worker", |_| {
        timed(|| run_plain(&inputs.machine().with_workers(1), &inputs, extent))
    });
    same_outcome(
        "one worker",
        &gather(&inputs, &outs, checks),
        &reference,
        checks,
    );
    m.set(
        "core.sharded.worker_speedup",
        one_worker.wall_s / clean.wall_s,
    );

    let ((outs, ledger), checksummed) = t.span("block_checksums", |_| {
        timed(|| run_with_health(&inputs.machine().with_block_checksums(), &inputs, extent))
    });
    same_outcome(
        "block checksums",
        &gather(&inputs, &outs, checks),
        &reference,
        checks,
    );
    checks.check(ledger.total_injected() == 0, || {
        "a clean run injected faults".into()
    });
    m.set(
        "fault.checksum_overhead_ratio",
        checksummed.wall_s / clean.wall_s,
    );

    let ((outs, ledger), healed) = t.span("noisy_wire", |_| {
        timed(|| {
            run_with_health(
                &inputs.faulty_machine(seed, BIT_ERROR_RATE),
                &inputs,
                extent,
            )
        })
    });
    same_outcome(
        "healed run",
        &gather(&inputs, &outs, checks),
        &reference,
        checks,
    );
    checks.check(ledger.all_checksums_ok(), || {
        "link checksums disagree after the healed run".into()
    });
    m.set("fault.injected", ledger.total_injected() as f64);
    m.set("fault.resends", ledger.total_resends() as f64);
    m.set("fault.healed_overhead_ratio", healed.wall_s / clean.wall_s);

    let ((outs, _, telemetry), observed) = t.span("telemetry", |_| {
        timed(|| run_with_telemetry(&inputs, extent))
    });
    same_outcome(
        "telemetry on",
        &gather(&inputs, &outs, checks),
        &reference,
        checks,
    );
    m.set(
        "telemetry.enabled_overhead_ratio",
        observed.wall_s / clean.wall_s,
    );
    m.set(
        "telemetry.spans_per_node",
        telemetry.spans.len() as f64 / nodes,
    );

    let (_, _, serial) = t.span("solve_cgne", |_| serial_reference(&inputs, extent));
    m.set("core.engine_overhead_ratio", clean.wall_s / serial.wall_s);
    clean
}

/// Pump [`LINK_WORDS`] words from a send unit to a receive unit, with every
/// `corrupt_every`-th frame corrupted on the wire (0: none). Returns the
/// frames put on the wire and the frames the receiver rejected.
fn link_transfer(mem: &mut NodeMemory, corrupt_every: u64) -> (u64, u64) {
    let mut send = SendUnit::new();
    let mut recv = RecvUnit::new();
    send.train();
    recv.train();
    recv.arm(DmaDescriptor::contiguous(0x1000, LINK_WORDS), mem)
        .expect("arm a receive into EDRAM");
    for word in 0..u64::from(LINK_WORDS) {
        send.enqueue_word(word);
    }
    let mut frames = 0u64;
    while let Some(mut wire) = send.next_frame().expect("a trained link") {
        frames += 1;
        if corrupt_every > 0 && frames.is_multiple_of(corrupt_every) {
            wire.frame.corrupt_bit((frames % 70) as usize);
        }
        match recv
            .on_frame(&wire, mem)
            .expect("a frame for an armed receive")
        {
            RecvOutcome::Accepted | RecvOutcome::Duplicate => send.on_ack(wire.seq),
            RecvOutcome::Rejected { seq } => send.on_reject(seq),
            other => panic!("unexpected receive outcome {other:?}"),
        }
    }
    assert!(recv.complete(), "the transfer did not complete");
    (frames, recv.rejects())
}

/// Repeat [`link_transfer`] [`LINK_TRANSFERS`] times. Returns one transfer's
/// frames and rejects — every transfer must have as many — and the
/// nanoseconds per frame.
fn time_link(mem: &mut NodeMemory, corrupt_every: u64, checks: &mut Checks) -> (u64, u64, f64) {
    let (frames, rejects) = link_transfer(mem, corrupt_every);
    let (all, sample) = timed(|| {
        (0..LINK_TRANSFERS)
            .map(|_| black_box(link_transfer(mem, corrupt_every)))
            .fold((0, 0), |sum, one| (sum.0 + one.0, sum.1 + one.1))
    });
    let transfers = LINK_TRANSFERS as u64;
    checks.check(all == (frames * transfers, rejects * transfers), || {
        "link transfers of the same words differ in frames or rejects".into()
    });
    (frames, rejects, sample.wall_s * 1e9 / all.0 as f64)
}

fn scu_link(checks: &mut Checks, m: &mut Metrics) {
    let mut mem = NodeMemory::with_128mb_dimm();
    let (frames, rejects, frame_ns) = time_link(&mut mem, 0, checks);
    checks.check(frames == u64::from(LINK_WORDS) && rejects == 0, || {
        format!("a clean transfer took {frames} frames and {rejects} rejects")
    });
    m.set("scu.link.frame_ns", frame_ns);
    m.set("scu.link.frames", frames as f64);
    let (frames, rejects, frame_ns) = time_link(&mut mem, 10, checks);
    checks.check(rejects > 0, || "no corrupted frame was rejected".into());
    m.set("scu.link.noisy_frame_ns", frame_ns);
    m.set("scu.link.rejects", rejects as f64);
    m.set(
        "scu.link.frames_per_word",
        frames as f64 / f64::from(LINK_WORDS),
    );
}

fn asic_memory(checks: &mut Checks, m: &mut Metrics) {
    let mut mem = NodeMemory::with_128mb_dimm();
    let words: Vec<u64> = (0..BLOCK_WORDS as u64)
        .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let (intact, sample) = timed(|| {
        (0..BLOCKS).all(|_| {
            mem.write_block(0x1000, black_box(&words))
                .expect("write EDRAM");
            mem.read_block(0x1000, BLOCK_WORDS).expect("read EDRAM") == words
        })
    });
    checks.check(intact, || {
        "a memory block did not read back as written".into()
    });
    m.set(
        "asic.memory.word_rw_ns",
        sample.wall_s * 1e9 / (BLOCKS * BLOCK_WORDS) as f64,
    );
}

/// Time `applications` calls of `kernel`, after one discarded call that
/// touches the output's pages.
fn sweep(t: &mut Tracer, name: &str, applications: usize, mut kernel: impl FnMut()) -> Sample {
    kernel();
    let ((), sample) = t.span(name, |_| {
        timed(|| {
            for _ in 0..applications {
                kernel();
            }
        })
    });
    sample
}

/// Sweep the scalar and the AoSoA Dslash over the same inputs; returns the
/// two samples and whether the outputs are equal.
fn kernel_pair<T: Real>(
    gauge: &GaugeField<T>,
    source: &FermionField<T>,
    applications: usize,
    t: &mut Tracer,
) -> (Sample, Sample, bool) {
    let lattice = gauge.lattice();
    let op = WilsonDirac::new(gauge, KAPPA);
    let mut out = FermionField::zero(lattice);
    let scalar = sweep(t, "WilsonDirac::dslash", applications, || {
        op.dslash(&mut out, black_box(source))
    });
    let hops = NeighbourTable::new(lattice);
    let gauge_blocks = GaugeBlocks::from_field(gauge);
    let source_blocks = FermionBlocks::from_field(source);
    let mut out_blocks = FermionBlocks::zero(lattice);
    let blocked = sweep(t, "dslash_aosoa", applications, || {
        dslash_aosoa(
            &mut out_blocks,
            &gauge_blocks,
            black_box(&source_blocks),
            &hops,
        )
    });
    (scalar, blocked, out_blocks.to_field() == out)
}

/// Kernels, the serial solvers and the checkpoint encoder on `lattice`.
/// `serial_rep` is the workload's own serial solve on it, if it has one:
/// (sample, iterations, operator applications).
fn lattice(
    seed: u64,
    lattice: Lattice,
    serial_rep: Option<(Sample, usize, usize)>,
    t: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let gauge = GaugeField::hot(lattice, seed);
    let source = FermionField::gaussian(lattice, seed + 1);
    let volume = lattice.volume();
    let applications = SITE_UPDATES / volume;
    let ns_per_site = |s: Sample| s.wall_s * 1e9 / (applications * volume) as f64;

    let (scalar, blocked, equal) = kernel_pair(&gauge, &source, applications, t);
    checks.check(equal, || {
        "the AoSoA f64 Dslash differs from the scalar kernel".into()
    });
    m.set("lattice.wilson.dslash_ns_per_site", ns_per_site(scalar));
    m.set("lattice.aosoa.dslash_ns_per_site", ns_per_site(blocked));
    let gauge32 = gauge.to_f32();
    let (scalar, blocked, equal) = kernel_pair(&gauge32, &source.to_f32(), applications, t);
    checks.check(equal, || {
        "the AoSoA f32 Dslash differs from the scalar kernel".into()
    });
    m.set("lattice.wilson.dslash_f32_ns_per_site", ns_per_site(scalar));
    m.set("lattice.aosoa.dslash_f32_ns_per_site", ns_per_site(blocked));

    // The full operator M = 1 - kappa D is what `lattice::counts` counts
    // and what the solver applies, so the rate and the solver's share of
    // linear algebra are priced from it, not from the bare Dslash.
    let op = WilsonDirac::new(&gauge, KAPPA);
    let mut out = FermionField::zero(lattice);
    let applied = sweep(t, "WilsonDirac::apply", applications, || {
        op.apply(&mut out, black_box(&source))
    });
    let counts = operator_counts(Action::Wilson);
    m.set("lattice.wilson.flops_per_site", counts.flops as f64);
    m.set(
        "lattice.wilson.bytes_per_site",
        (counts.read_bytes + counts.write_bytes) as f64,
    );
    m.set(
        "lattice.wilson.mflops",
        counts.flops as f64 / ns_per_site(applied) * 1e3,
    );

    let params = CgParams {
        tolerance: local_solve::TOLERANCE,
        max_iterations: 2000,
    };
    let (solve, iterations, operator_applications) = serial_rep.unwrap_or_else(|| {
        let mut x = FermionField::zero(lattice);
        let (report, sample) = t.span("solve_cgne", |_| {
            timed(|| solve_cgne(&op, &mut x, &source, params))
        });
        checks.ops(1, u64::from(!report.converged), "serial solves");
        (sample, report.iterations, report.operator_applications)
    });
    m.set(
        "lattice.solver.cgne_iter_ms",
        solve.wall_s / iterations as f64 * 1e3,
    );
    let apply_s = applied.wall_s / applications as f64;
    m.set(
        "lattice.solver.linalg_share",
        1.0 - operator_applications as f64 * apply_s / solve.wall_s,
    );

    let op32 = WilsonDirac::new(&gauge32, KAPPA);
    let mut x = FermionField::zero(lattice);
    let mixed_params = MixedCgParams {
        tolerance: local_solve::TOLERANCE,
        ..MixedCgParams::default()
    };
    let (report, mixed) = t.span("solve_cgne_mixed", |_| {
        timed(|| solve_cgne_mixed(&op, &op32, &mut x, &source, mixed_params))
    });
    let reached = report.converged && report.final_residual <= local_solve::TOLERANCE;
    checks.ops(1, u64::from(!reached), "mixed-precision solves");
    m.set("lattice.solver.mixed_wall_s", mixed.wall_s);
    let (lo, hi) = (
        report.low_precision_applications as f64,
        report.high_precision_applications as f64,
    );
    m.set("lattice.solver.mixed_lo_fraction", lo / (lo + hi));

    let checkpoint = t.span("solve_cgne_checkpointed", |_| {
        cg_checkpoint(seed, lattice, 2)
    });
    let (bytes, encode) = t.span("write_checkpoint", |_| {
        timed(|| write_checkpoint(&checkpoint))
    });
    checks.check(
        read_checkpoint(&bytes).is_ok_and(|back| back.digest() == checkpoint.digest()),
        || "an encoded checkpoint does not decode to itself".into(),
    );
    m.set("lattice.checkpoint.encode_ms", encode.wall_s * 1e3);
    m.set("lattice.checkpoint.bytes", bytes.len() as f64);
}

/// Host software on the full machine: boot, fold and allocate, one chaos
/// soak, and the checkpoint store's save and restore.
fn host(seed: u64, t: &mut Tracer, checks: &mut Checks, m: &mut Metrics) {
    let physical = TorusShape::new(&PHYSICAL);
    let spec = || PartitionSpec::whole_machine(&physical, &FOLD);
    let mut qdaemon = Qdaemon::new(physical.clone());
    let (report, boot) = t.span("Qdaemon::boot", |_| timed(|| qdaemon.boot(&[])));
    checks.check(report.booted == physical.node_count(), || {
        format!(
            "boot reached {} of {} nodes",
            report.booted,
            physical.node_count()
        )
    });
    m.set("host.qdaemon.boot_ms", boot.wall_s * 1e3);
    let (partition, fold) = t.span("Partition::new", |_| {
        timed(|| Partition::new(&physical, spec()))
    });
    checks.check(partition.is_ok_and(|p| p.dilation() == 1), || {
        "the fold of the full machine is not a unit-dilation partition".into()
    });
    m.set("geometry.partition.fold_us", fold.wall_s * 1e6);
    let (allocated, allocate) = t.span("Qdaemon::allocate", |_| timed(|| qdaemon.allocate(spec())));
    checks.check(allocated.is_ok(), || {
        format!("allocate: {:?}", allocated.as_ref().err())
    });
    m.set("host.qdaemon.allocate_ms", allocate.wall_s * 1e3);

    let cfg = chaos_config(derive_seed(seed, 0));
    let (report, soak) = t.span("run_chaos", |_| timed(|| run_chaos(cfg.clone())));
    check_soak(&cfg, &report, checks);
    m.set("host.chaos.soak_s", soak.wall_s);
    m.set(
        "host.chaos.events",
        (report.failures_injected + report.storage_faults_injected) as f64,
    );
    m.set("host.chaos.requeues", report.requeues as f64);
    m.set("host.chaos.goodput", report.goodput);
    m.set("sched.decisions", report.event_count as f64);
    m.set(
        "sched.decision_us",
        soak.wall_s / report.event_count as f64 * 1e6,
    );

    let archive = write_checkpoint(&cg_checkpoint(
        seed,
        Lattice::new(ARCHIVE_LATTICE),
        ARCHIVE_ITERATIONS,
    ));
    let (mut nfs, mut store) = open_store();
    let (saved, save) = t.span("CheckpointStore::save", |_| {
        timed(|| store.save(&mut nfs, &archive))
    });
    let (restored, restore) = t.span("CheckpointStore::restore", |_| {
        timed(|| store.restore(&mut nfs))
    });
    checks.check(
        saved.is_ok() && restored.as_ref().is_ok_and(|r| r.bytes == archive),
        || {
            format!(
                "checkpoint store round trip: {:?} {:?}",
                saved.as_ref().err(),
                restored.as_ref().err()
            )
        },
    );
    m.set("host.ckstore.save_ms", save.wall_s * 1e3);
    m.set("host.ckstore.restore_ms", restore.wall_s * 1e3);
    m.set("host.ckstore.bytes", archive.len() as f64);
}
