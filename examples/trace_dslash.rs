//! Chrome-trace of one distributed CG solve.
//!
//! Runs the distributed Wilson CG on a four-node functional machine with
//! telemetry enabled, then writes `trace_dslash.json` — a Chrome tracing
//! file (load it at `chrome://tracing` or <https://ui.perfetto.dev>) in
//! which every Dslash application decomposes into the §4 efficiency
//! terms: a `dslash.compute` span, an `scu.complete` comms span for the
//! face exchange, and `comm.global_sum` spans for the CG inner products.
//!
//! ```text
//! cargo run --release --example trace_dslash
//! ```

use qcdoc::core::distributed::{wilson_solve_cg_async, BlockGeom};
use qcdoc::core::functional::TelemetryConfig;
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::TorusShape;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::telemetry::Phase;

fn main() {
    let global = Lattice::new([4, 4, 4, 4]);
    let gauge = GaugeField::hot(global, 314);
    let b = FermionField::gaussian(global, 315);
    let machine =
        ShardedMachine::new(TorusShape::new(&[2, 2])).with_telemetry(TelemetryConfig::default());
    let (reports, _ledger, telemetry) = machine.run_with_telemetry(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        let (_, report) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, 0.12, 1e-8, 2000).await;
        report
    });
    let report = &reports[0];
    println!(
        "distributed CG on 4 nodes: {} iterations, residual {:.3e}, converged={}",
        report.iterations, report.final_residual, report.converged
    );

    // The §4 decomposition, straight from the depth-0 spans.
    let phases = telemetry.phase_summary();
    let total: u64 = phases.iter().map(|&(_, _, c)| c).sum();
    println!(
        "\n{:>12}  {:>8}  {:>14}  {:>7}",
        "phase", "spans", "cycles", "share"
    );
    for (phase, spans, cycles) in &phases {
        println!(
            "{:>12}  {:>8}  {:>14}  {:>6.1}%",
            phase.name(),
            spans,
            cycles,
            100.0 * *cycles as f64 / total.max(1) as f64
        );
    }
    let compute: u64 = phases
        .iter()
        .filter(|(p, _, _)| *p == Phase::Compute)
        .map(|&(_, _, c)| c)
        .sum();
    println!(
        "\ncompute efficiency on the telemetry clock: {:.1}%",
        100.0 * compute as f64 / total.max(1) as f64
    );

    let trace = telemetry.chrome_trace();
    let path = std::path::Path::new("target").join("trace_dslash.json");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(&path, &trace).expect("write target/trace_dslash.json");
    println!(
        "wrote {} ({} bytes, {} spans) — open in chrome://tracing",
        path.display(),
        trace.len(),
        telemetry.spans.len()
    );
}
