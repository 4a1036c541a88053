//! Quickstart: boot a 64-node QCDOC, carve a 4-D partition, run a Wilson
//! CG solve on the functional machine, and print the performance report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qcdoc::core::comm::global_sum_f64_async;
use qcdoc::core::distributed::{wilson_solve_cg_async, BlockGeom};
use qcdoc::core::perf::DiracPerf;
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{PartitionSpec, TorusShape};
use qcdoc::host::qdaemon::Qdaemon;
use qcdoc::lattice::counts::Action;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};

fn main() {
    // --- 1. Boot the machine through the qdaemon (Ethernet/JTAG path).
    let machine_shape = TorusShape::motherboard_64(); // 2^6 hypercube
    let mut qdaemon = Qdaemon::new(machine_shape.clone());
    let boot = qdaemon.boot(&[]);
    println!(
        "booted {} nodes with {} UDP packets ({} per node), est. {:.2} s",
        boot.booted,
        boot.packets_sent,
        boot.packets_sent / boot.booted as u64,
        boot.boot_seconds
    );

    // --- 2. Remap the native 6-D mesh to a 4-D machine in software.
    let spec = PartitionSpec::whole_machine(&machine_shape, &[&[0], &[1], &[2], &[3, 4, 5]]);
    let id = qdaemon.allocate(spec).expect("partition allocation");
    let logical = qdaemon.partition(id).unwrap().logical_shape().clone();
    println!("partition {id}: logical machine {logical} (dilation 1, no cables moved)");

    // --- 3. Run a distributed Wilson solve on a small functional machine
    //        (async node programs over the real SCU link protocol). 16 nodes
    //        keeps the demo quick; the protocol path is identical at any size.
    let demo_shape = TorusShape::new(&[2, 2, 2, 2]);
    let global = Lattice::new([4, 4, 4, 4]);
    let gauge = GaugeField::hot(global, 2004);
    let b = FermionField::gaussian(global, 7);
    println!(
        "\nsolving M x = b (Wilson, kappa = 0.12) on a {} functional machine, lattice 4^4 ...",
        demo_shape
    );
    let machine = ShardedMachine::new(demo_shape);
    let results = machine.run(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        let (x, report) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, 0.12, 1e-8, 2000).await;
        let local_norm: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        let global_norm = global_sum_f64_async(ctx, local_norm).await;
        (report, global_norm)
    });
    let (report, norm) = &results[0];
    println!(
        "CG converged: {} iterations, final residual {:.2e}, |x|^2 = {:.6}, link errors: {}",
        report.iterations, report.final_residual, norm, report.link_errors
    );

    // --- 4. The paper's §4 performance table from the calibrated model.
    println!("\nprojected sustained efficiency (128 nodes, 4^4 local volume, 450 MHz):");
    let perf = DiracPerf::paper_bench();
    print!("{}", perf.render_table());
    let wilson = perf.evaluate(Action::Wilson);
    println!(
        "Wilson CG: {:.1} Gflops/node sustained, {:.1} us per iteration",
        wilson.sustained_gflops_per_node, wilson.iteration_us
    );
}
