//! Fault sweep: sustained Dslash throughput versus link bit-error rate.
//!
//! §2.2 argues the machine can afford its automatic parity-resend because
//! real HSSL error rates are tiny: each corrupted frame costs one
//! go-back-N rewind (a window's worth of words), so throughput degrades
//! gracefully with the error rate instead of falling off a cliff. This
//! example plays that out on the timing engine: a 256-node machine runs a
//! Wilson-Dslash-shaped workload while one link's bit-error rate sweeps
//! from 0 (the healthy machine) up to rates no real cable would survive,
//! and we watch the sustained per-node Gflops respond.
//!
//! Every sweep point runs through the traced engine, so the whole
//! BER-vs-throughput curve lands in one telemetry registry (gauges
//! labelled by `ber`) and is written to `BENCH_fault_sweep.json` via the
//! stamped v2 exporter — the file a host-side dashboard would scrape,
//! and one `bench-judge` can diff once a baseline is blessed for it.
//!
//! ```text
//! cargo run --release --example fault_sweep
//! ```

use qcdoc::core::des::{run_traced, DesConfig, DesTelemetry};
use qcdoc::core::distributed::{
    assemble_checkpoint, wilson_cg_segment_async, BlockGeom, CgSegmentOut,
};
use qcdoc::core::functional::NodeCtx;
use qcdoc::core::perf::DiracPerf;
use qcdoc::core::recovery::{RecoveryConfig, Replacement, SegmentVerdict};
use qcdoc::core::ShardedMachine;
use qcdoc::fault::{FaultEvent, FaultPlan};
use qcdoc::geometry::TorusShape;
use qcdoc::lattice::checkpoint::CgCheckpoint;
use qcdoc::lattice::counts::Action;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::telemetry::{bench_summary_json, MetricsRegistry, RingSink, TraceSink};

fn main() {
    // Price one CG iteration with the paper-benchmark machine, then hand
    // the same pieces to the DES (as in the engine's cross-check test).
    let perf = DiracPerf::paper_bench();
    let report = perf.evaluate(Action::Wilson);
    let local = report.total_cycles - report.comm_cycles - report.gsum_cycles;
    let cfg = DesConfig {
        machine_dims: perf.logical_dims,
        compute_cycles: local,
        compute_override: vec![],
        face_words: report.comm_cycles / 72,
        link: perf.machine.link,
        global_sum_cycles: report.gsum_cycles,
        perturbations: vec![],
    };
    const ITERS: usize = 50;
    let clock_hz = perf.machine.node.clock.hz() as f64;
    let nodes: usize = perf.logical_dims.iter().product();
    println!(
        "{} nodes, Wilson Dslash, {} iterations; {:.3} Gflops/node on clean links\n",
        nodes, ITERS, report.sustained_gflops_per_node
    );
    println!(
        "{:>12}  {:>10}  {:>10}  {:>14}  {:>9}",
        "BER/word", "errors", "resent wds", "Gflops/node", "slowdown"
    );

    // One registry accumulates the whole sweep; each point stamps its
    // series with a `ber` label. Spans are kept for the clean run only —
    // enough to see the compute/comms/global-sum decomposition without a
    // seven-fold trace.
    let mut sweep = MetricsRegistry::new();
    let mut clean_spans = Vec::new();
    let mut clean_cycles = 0u64;
    for rate in [0.0, 1e-6, 1e-4, 1e-3, 1e-2, 5e-2, 2e-1] {
        let plan = FaultPlan::new(2004).with_event(FaultEvent::bit_error_rate(5, 0, rate));
        let mut sink = RingSink::new(3 * nodes * ITERS);
        let mut metrics = MetricsRegistry::new();
        let (result, ledger) = run_traced(
            &cfg,
            ITERS,
            &plan,
            Some(DesTelemetry {
                sink: &mut sink,
                metrics: &mut metrics,
            }),
        );
        if rate == 0.0 {
            clean_spans = sink.drain();
            clean_cycles = result.total_cycles;
        }
        let seconds = result.total_cycles as f64 / clock_hz;
        let gflops = report.flops_per_iteration as f64 * ITERS as f64 / seconds / 1e9;
        let slowdown = 100.0 * (result.total_cycles as f64 / clean_cycles as f64 - 1.0);
        let ber = [("ber", format!("{rate:e}"))];
        sweep.gauge_set("fault_sweep_gflops_per_node", &ber, gflops);
        sweep.gauge_set("fault_sweep_injected", &ber, ledger.total_injected() as f64);
        sweep.gauge_set("fault_sweep_resends", &ber, ledger.total_resends() as f64);
        sweep.gauge_set("fault_sweep_slowdown_pct", &ber, slowdown);
        sweep.gauge_set("fault_sweep_total_cycles", &ber, result.total_cycles as f64);
        println!(
            "{:>12.0e}  {:>10}  {:>10}  {:>14.3}  {:>8.2}%",
            rate,
            ledger.total_injected(),
            ledger.total_resends(),
            gflops,
            slowdown,
        );
    }

    recovery_demo(&mut sweep);
    integrity_demo(&mut sweep);

    let json = bench_summary_json("fault_sweep", &sweep, &clean_spans);
    std::fs::write("BENCH_fault_sweep.json", &json).expect("write BENCH_fault_sweep.json");
    println!(
        "\nWrote BENCH_fault_sweep.json ({} bytes): the BER-vs-throughput curve as\n\
         `ber`-labelled gauges plus the clean run's compute/comms/global-sum\n\
         phase decomposition.",
        json.len()
    );
    println!(
        "\nEach error rewinds the three-in-the-air window, so even a 1e-2 per-word\n\
         error rate on one wire barely moves machine throughput — while the same\n\
         sweep's health ledger pins every corrupted word to the guilty link."
    );
}

/// One recovery segment of the distributed Wilson CG (fresh or restored
/// from the last checkpoint), shared by every severity below.
async fn cg_segment(
    ctx: &mut NodeCtx,
    gauge: &GaugeField,
    b: &FermionField,
    global: Lattice,
    state: &Option<CgCheckpoint>,
) -> CgSegmentOut {
    let geom = BlockGeom::new(ctx, global);
    let lg = geom.extract_gauge(gauge);
    let lb = geom.extract_fermion(b);
    wilson_cg_segment_async(ctx, &geom, &lg, &lb, 0.12, 1e-7, 400, state.as_ref(), 5).await
}

/// Recovered-vs-unrecovered runs across fault severities: a healthy
/// machine, link noise the protocol heals in place, and a dead wire that
/// needs quarantine-and-resume — plus the same dead wire with recovery
/// disabled, which simply loses the run.
fn recovery_demo(sweep: &mut MetricsRegistry) {
    let global = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(global, 71);
    let b = FermionField::gaussian(global, 72);
    let noise = || {
        FaultPlan::new(5)
            .with_event(FaultEvent::bit_flip(1, 0, 40, 9))
            .with_event(FaultEvent::bit_flip(2, 1, 90, 17))
    };
    let dead = || FaultPlan::new(5).with_event(FaultEvent::dead_link(1, 0, 120));
    println!(
        "\nSelf-healing runs (distributed Wilson CG, 4-node partition, 5-iteration\n\
         segments; 'wasted' = discarded segments per useful one):\n"
    );
    println!(
        "{:>22}  {:>8}  {:>10}  {:>9}  {:>9}",
        "severity", "segments", "recoveries", "wasted", "outcome"
    );
    let cases = [
        ("none", FaultPlan::default(), 4usize),
        ("link-noise", noise(), 4),
        ("dead-link", dead(), 4),
        ("dead-link-unrecovered", dead(), 0),
    ];
    for (severity, plan, max_recoveries) in cases {
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2]))
            .with_faults(plan)
            .with_wedge_timeout(5_000);
        let outcome = machine.run_with_recovery(
            RecoveryConfig { max_recoveries },
            None,
            async |ctx, state: &Option<CgCheckpoint>| {
                cg_segment(ctx, &gauge, &b, global, state).await
            },
            |shape, outs: Vec<CgSegmentOut>| {
                let ckpt = assemble_checkpoint(shape, global, &outs);
                if ckpt.converged {
                    SegmentVerdict::Done(ckpt)
                } else {
                    SegmentVerdict::Continue(Some(ckpt))
                }
            },
            // The operator's repair: swap the broken daughterboard, keep
            // the machine shape.
            |_| {
                Some(Replacement {
                    shape: TorusShape::new(&[2, 2]),
                    faults: FaultPlan::default(),
                    degraded: false,
                })
            },
        );
        let labels = [("severity", severity.to_string())];
        let (segments, recoveries, converged) = match &outcome {
            Ok((ckpt, report)) => (report.segments, report.recoveries, ckpt.converged),
            Err(_) => (0, 0, false),
        };
        let wasted = if segments > 0 {
            100.0 * recoveries as f64 / segments as f64
        } else {
            0.0
        };
        sweep.gauge_set("recovery_run_segments", &labels, segments as f64);
        sweep.gauge_set("recovery_run_recoveries", &labels, recoveries as f64);
        sweep.gauge_set("recovery_run_wasted_pct", &labels, wasted);
        sweep.gauge_set(
            "recovery_run_converged",
            &labels,
            if converged { 1.0 } else { 0.0 },
        );
        println!(
            "{:>22}  {:>8}  {:>10}  {:>8.1}%  {:>9}",
            severity,
            segments,
            recoveries,
            wasted,
            if converged { "converged" } else { "lost" },
        );
    }
    println!(
        "\nLink noise heals inside the protocol (no segments lost); a dead wire\n\
         costs exactly the segments in flight when it died, and with recovery\n\
         disabled the same fault loses the whole run."
    );
}

/// Silent-data-corruption rates before and after the end-to-end block
/// checksums: a batch of seeded parity-evading payload bursts strikes a
/// Wilson CG, and a run is *silent* when the delivered solution differs
/// from the fault-free bits without any detection counter firing. With
/// the checksums on, every burst is caught at the receive unit and the
/// block replayed, so the after column is zero by construction.
fn integrity_demo(sweep: &mut MetricsRegistry) {
    let global = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(global, 81);
    let b = FermionField::gaussian(global, 82);
    let solve = |machine: ShardedMachine| {
        machine.run_with_health(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lb = geom.extract_fermion(&b);
            wilson_cg_segment_async(ctx, &geom, &lg, &lb, 0.12, 1e-7, 400, None, usize::MAX).await
        })
    };
    let shape = TorusShape::new(&[2, 2]);
    let (ref_outs, _) = solve(ShardedMachine::new(shape.clone()));
    let reference = assemble_checkpoint(&shape, global, &ref_outs).digest();

    let bursts: Vec<FaultPlan> = (0..5)
        .map(|i| {
            FaultPlan::new(100 + i as u64).with_event(FaultEvent::payload_burst(
                (i % 4) as u32,
                0,
                30 + 25 * i as u64,
                5 + i,
                2,
            ))
        })
        .collect();
    let mut silent = [0usize; 2];
    let mut caught = 0u64;
    for plan in &bursts {
        for (def, defended) in [(0usize, false), (1, true)] {
            let mut machine = ShardedMachine::new(shape.clone()).with_faults(plan.clone());
            if defended {
                machine = machine.with_block_checksums();
            }
            let (outs, ledger) = solve(machine);
            let digest = assemble_checkpoint(&shape, global, &outs).digest();
            caught += if defended {
                ledger.total_block_rejects()
            } else {
                0
            };
            if digest != reference && ledger.total_block_rejects() == 0 {
                silent[def] += 1;
            }
        }
    }
    println!(
        "\nSilent data corruption ({} seeded parity-evading bursts mid-CG):\n",
        bursts.len()
    );
    println!("{:>22}  {:>10}  {:>10}", "defense", "silent", "caught");
    println!(
        "{:>22}  {:>7}/{}  {:>10}",
        "frame parity only",
        silent[0],
        bursts.len(),
        0
    );
    println!(
        "{:>22}  {:>7}/{}  {:>10}",
        "+ block checksums",
        silent[1],
        bursts.len(),
        caught
    );
    for (name, val) in [("off", silent[0]), ("on", silent[1])] {
        sweep.gauge_set(
            "integrity_sdc_silent_runs",
            &[("block_checksums", name.to_string())],
            val as f64,
        );
    }
    sweep.gauge_set("integrity_sdc_blocks_caught", &[], caught as f64);
    println!(
        "\nA burst with an even number of flips per parity class sails through the\n\
         frame parity; only the end-to-end block checksum at the receive unit sees\n\
         it, replays the block, and hands the solver the reference bits."
    );
}
