//! Exporter determinism: the same seed and configuration must produce
//! byte-identical Chrome traces, Prometheus dumps and JSON summaries
//! across runs. Telemetry rides the logical cycle clock — never wall
//! time — so a trace is as reproducible as the physics (§4).

use proptest::prelude::*;
use qcdoc_core::des::{run_traced, DesConfig, DesTelemetry};
use qcdoc_core::distributed::{wilson_solve_cg_async, BlockGeom};
use qcdoc_core::functional::TelemetryConfig;
use qcdoc_core::ShardedMachine;
use qcdoc_fault::{FaultEvent, FaultPlan};
use qcdoc_geometry::TorusShape;
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_telemetry::{
    chrome_trace, prometheus_text, summary_json, MetricsRegistry, RingSink, TraceSink,
};

/// One traced DES run, exported three ways.
fn des_exports(dims: [usize; 4], iterations: usize, seed: u64, ber: f64) -> [String; 3] {
    let cfg = DesConfig::homogeneous(dims, 800_000, 1_536, 3_000);
    let plan = FaultPlan::new(seed).with_event(FaultEvent::bit_error_rate(1, 0, ber));
    let mut sink = RingSink::new(1 << 16);
    let mut metrics = MetricsRegistry::new();
    let _ = run_traced(
        &cfg,
        iterations,
        &plan,
        Some(DesTelemetry {
            sink: &mut sink,
            metrics: &mut metrics,
        }),
    );
    let spans = sink.drain();
    [
        chrome_trace(&spans),
        prometheus_text(&metrics),
        summary_json(&metrics, &spans),
    ]
}

#[test]
fn des_exports_are_byte_identical_across_runs() {
    let a = des_exports([2, 2, 2, 1], 8, 7, 0.01);
    let b = des_exports([2, 2, 2, 1], 8, 7, 0.01);
    assert_eq!(a, b, "same seed + config must export identically");
    // Sanity: the exports are non-trivial.
    assert!(a[0].contains("des.compute"));
    assert!(a[1].contains("des_total_cycles"));
    assert!(a[2].contains("qcdoc-telemetry-v1"));
    // The injected errors are visible: a clean run exports different bytes.
    let c = des_exports([2, 2, 2, 1], 8, 7, 0.0);
    assert_ne!(a[1], c[1], "injected errors must show in the metrics");
    assert!(c[1].contains("machine_total_injected 0"));
}

/// One clean functional CG run with telemetry, exported three ways. Clean
/// runs have no resends, so every series is schedule-independent.
fn functional_exports() -> [String; 3] {
    let global = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(global, 60);
    let b = FermionField::gaussian(global, 61);
    let machine =
        ShardedMachine::new(TorusShape::new(&[2, 2])).with_telemetry(TelemetryConfig::default());
    let (_, _, telemetry) = machine.run_with_telemetry(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        let (_, report) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, 0.12, 1e-8, 500).await;
        assert!(report.converged);
    });
    [
        telemetry.chrome_trace(),
        telemetry.prometheus_text(),
        telemetry.summary_json(),
    ]
}

#[test]
fn functional_machine_exports_are_byte_identical_across_runs() {
    let a = functional_exports();
    let b = functional_exports();
    assert_eq!(a, b, "a clean functional run must export identically");
    assert!(a[0].contains("dslash.compute"));
    assert!(a[0].contains("scu.complete"));
    assert!(a[0].contains("comm.global_sum"));
    assert!(a[1].contains("dma_send_words"));
    assert!(a[1].contains("node_mem_edram_reads"));
    assert!(a[1].contains("machine_total_resends 0"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the DES determinism claim: any small machine,
    /// iteration count, seed and error rate exports identically twice.
    #[test]
    fn des_exports_deterministic_for_any_seed(
        ext in 1usize..3,
        iterations in 1usize..6,
        seed in 0u64..1000,
        ber in 0.0f64..0.1,
    ) {
        let dims = [2, ext, 1, 1];
        let a = des_exports(dims, iterations, seed, ber);
        let b = des_exports(dims, iterations, seed, ber);
        prop_assert_eq!(a, b);
    }
}
