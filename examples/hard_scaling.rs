//! Hard scaling (experiment E8): a fixed 32³×64 lattice spread over ever
//! more nodes — the regime QCDOC was designed for (§1) — compared against
//! a commodity Ethernet cluster with identical node compute power.
//!
//! §4: "A 4⁴ local volume is a reasonable size for machines with a peak
//! speed of 10 Teraflops and translates into a 32³×64 lattice size for a
//! 8,192 node machine."
//!
//! Two sections: the analytic model's projection of the paper's machine,
//! and a **measured** sweep that actually executes the solver on the
//! functional engine — every node running the real SCU link protocol —
//! up to the full 12,288-node machine. One OS thread per node would cap
//! this sweep at a few hundred nodes; the sharded virtual-node engine
//! (`qcdoc::core::ShardedMachine`) multiplexes all 12,288 onto a handful
//! of workers, so the full machine boots, partitions, and solves for real. The measured points are exported in
//! the v2 bench schema (`BENCH_full_machine.json`) and gated by the bench
//! judge.
//!
//! ```text
//! cargo run --release --example hard_scaling
//! ```

use qcdoc::core::baseline::ClusterPerf;
use qcdoc::core::distributed::{wilson_cg_segment_async, BlockGeom};
use qcdoc::core::perf::{DiracPerf, Precision};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{PartitionSpec, TorusShape};
use qcdoc::host::qdaemon::Qdaemon;
use qcdoc::lattice::counts::Action;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::telemetry::{bench_summary_json, MetricsRegistry};
use std::time::Instant;

const GLOBAL: [usize; 4] = [32, 32, 32, 64];

/// CG iterations per measured segment — enough to exercise face
/// exchanges, dimension-ordered global sums, and the κ recurrence on
/// every node without turning the example into a production solve.
const SEG_ITERS: usize = 3;

/// One measured point: boot the physical machine through the qdaemon,
/// carve the logical partition, run a bounded Wilson-CG segment on the
/// sharded engine, and check every node agrees on the residual bits.
fn measured_point(
    physical: &TorusShape,
    groups: &[&[usize]],
    global: Lattice,
    gauge: &GaugeField,
    b: &FermionField,
) -> (usize, f64, f64) {
    let mut qdaemon = Qdaemon::new(physical.clone());
    let boot = qdaemon.boot(&[]);
    assert_eq!(
        boot.booted,
        physical.node_count(),
        "boot must reach every node"
    );
    let id = qdaemon
        .allocate(PartitionSpec::whole_machine(physical, groups))
        .expect("whole-machine partition");
    let logical = qdaemon.partition(id).unwrap().logical_shape().clone();
    let nodes = logical.node_count();

    let start = Instant::now();
    let machine = ShardedMachine::new(logical);
    let outs = machine.run(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(gauge);
        let lb = geom.extract_fermion(b);
        let out =
            wilson_cg_segment_async(ctx, &geom, &lg, &lb, 0.11, 1e-12, 10_000, None, SEG_ITERS)
                .await;
        (out.iterations, out.rsq, out.wedged)
    });
    let seconds = start.elapsed().as_secs_f64();
    qdaemon.release(id);

    assert_eq!(outs.len(), nodes);
    assert!(outs.iter().all(|o| !o.2), "no node may wedge");
    assert!(outs.iter().all(|o| o.0 == SEG_ITERS));
    let rsq_bits = outs[0].1.to_bits();
    assert!(
        outs.iter().all(|o| o.1.to_bits() == rsq_bits),
        "dimension-ordered sums must agree bitwise on all {nodes} nodes"
    );
    (nodes, outs[0].1, seconds)
}

fn main() {
    // Machine partitions of the fixed lattice, 512 to 8192 nodes.
    let configs: [(usize, [usize; 4]); 5] = [
        (512, [4, 4, 4, 8]),
        (1024, [4, 4, 8, 8]),
        (2048, [4, 8, 8, 8]),
        (4096, [8, 8, 8, 8]),
        (8192, [8, 8, 8, 16]),
    ];
    println!("hard scaling on a fixed {GLOBAL:?} lattice (Wilson CG, double precision, 450 MHz)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "nodes", "local", "EDRAM?", "qcdoc eff", "cluster eff", "qcdoc Tflops", "cluster Tflops"
    );
    for (nodes, mdims) in configs {
        let local: [usize; 4] = std::array::from_fn(|a| GLOBAL[a] / mdims[a]);
        let mut perf = DiracPerf::paper_bench();
        perf.logical_dims = mdims;
        perf.local_dims = local;
        perf.precision = Precision::Double;
        let q = perf.evaluate(Action::Wilson);
        let c = ClusterPerf::matching(&perf).evaluate(Action::Wilson);
        let peak_node = perf.machine.node.clock.peak_flops();
        println!(
            "{:>6} {:>10} {:>10} {:>11.1}% {:>11.1}% {:>14.2} {:>14.2}",
            nodes,
            format!("{}x{}x{}x{}", local[0], local[1], local[2], local[3]),
            if q.fits_edram { "yes" } else { "no" },
            100.0 * q.efficiency,
            100.0 * c.efficiency,
            nodes as f64 * peak_node * q.efficiency / 1e12,
            nodes as f64 * peak_node * c.efficiency / 1e12,
        );
    }
    println!(
        "\nthe cluster's message start-up cost (5-10 us, §2.2) stops amortizing as the local\n\
         volume shrinks; QCDOC's 600 ns zero-copy path and 24 concurrent links keep scaling.\n\
         (the paper's own 32^3x64 example stops at 8,192 nodes; the full 12,288-node\n\
         machine runs an [8,8,8,24] time extent — measured below.)"
    );

    // Measured sweep: boot, partition, and solve for real on the sharded
    // virtual-node engine, up to the full machine at one site per node.
    let global = Lattice::new([8, 8, 8, 24]);
    let gauge = GaugeField::hot(global, 11);
    let b = FermionField::gaussian(global, 12);
    println!(
        "\nmeasured on the functional engine (sharded virtual nodes, real SCU links,\n\
         {SEG_ITERS}-iteration Wilson-CG segment on a fixed {:?} lattice):\n",
        global.dims()
    );
    println!(
        "{:>6} {:>10} {:>12} {:>22}",
        "nodes", "local", "seconds", "residual |r|^2"
    );
    let mut reg = MetricsRegistry::new();
    let points: Vec<(TorusShape, Vec<Vec<usize>>)> = vec![
        // 256 nodes: a 4-D development box, native partition.
        (
            TorusShape::new(&[4, 4, 4, 4]),
            vec![vec![0], vec![1], vec![2], vec![3]],
        ),
        // 4,096 nodes: one columbia-4096-scale half-rack row.
        (
            TorusShape::new(&[8, 8, 8, 8]),
            vec![vec![0], vec![1], vec![2], vec![3]],
        ),
        // 12,288 nodes: the paper's full machine, physically the 6-D
        // [8,8,6,4,4,2] torus, folded to a logical [8,8,8,24].
        (
            TorusShape::new(&[8, 8, 6, 4, 4, 2]),
            vec![vec![0], vec![1], vec![3, 5], vec![2, 4]],
        ),
    ];
    for (physical, groups) in &points {
        let group_refs: Vec<&[usize]> = groups.iter().map(|g| g.as_slice()).collect();
        let (nodes, rsq, seconds) = measured_point(physical, &group_refs, global, &gauge, &b);
        let local: [usize; 4] = {
            let mdims = match nodes {
                256 => [4, 4, 4, 4],
                4096 => [8, 8, 8, 8],
                _ => [8, 8, 8, 24],
            };
            std::array::from_fn(|a| global.dims()[a] / mdims[a])
        };
        println!(
            "{:>6} {:>10} {:>11.2}s {:>22.6e}",
            nodes,
            format!("{}x{}x{}x{}", local[0], local[1], local[2], local[3]),
            seconds,
            rsq,
        );
        let labels = [("nodes", nodes.to_string())];
        reg.gauge_set("full_machine_solve_seconds", &labels, seconds);
        reg.gauge_set("full_machine_segment_rsq", &labels, rsq);
    }
    reg.gauge_set("full_machine_nodes", &[], 12_288.0);
    reg.gauge_set("full_machine_segment_iterations", &[], SEG_ITERS as f64);
    let json = bench_summary_json("full_machine", &reg, &[]);
    std::fs::write("BENCH_full_machine.json", &json).expect("write BENCH_full_machine.json");
    println!(
        "\nall residual bits agreed machine-wide at every point (dimension-ordered sums);\n\
         wrote BENCH_full_machine.json ({} bytes)",
        json.len()
    );
}
