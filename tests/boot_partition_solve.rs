//! End-to-end pipeline: boot the machine through the qdaemon, carve a
//! logical partition in software, run a distributed physics job on the
//! functional engine over that partition's shape, and return the output to
//! the host — the full §3 software stack in one flow.

use qcdoc::core::comm::global_sum_f64_async;
use qcdoc::core::distributed::{wilson_solve_cg_async, BlockGeom};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{NodeCoord, PartitionSpec, TorusShape};
use qcdoc::host::qcsh::{parse, Qcsh};
use qcdoc::host::qdaemon::{NodeState, Qdaemon};
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};

#[test]
fn boot_partition_run_return_output() {
    // Physical machine: a 32-node box.
    let machine_shape = TorusShape::new(&[2, 2, 2, 2, 2, 1]);
    let mut qdaemon = Qdaemon::new(machine_shape.clone());
    let boot = qdaemon.boot(&[]);
    assert_eq!(boot.booted, 32);

    // Carve a 4-D partition: fold the last two spanned axes together.
    let spec = PartitionSpec::whole_machine(&machine_shape, &[&[0], &[1], &[2], &[3, 4, 5]]);
    let id = qdaemon.allocate(spec).expect("allocation");
    let logical = qdaemon.partition(id).unwrap().logical_shape().clone();
    assert_eq!(logical.dims(), &[2, 2, 2, 4]);
    assert_eq!(qdaemon.partition(id).unwrap().dilation(), 1);

    // Run the job on the partition's logical shape.
    let global = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::hot(global, 11);
    let b = FermionField::gaussian(global, 12);
    let machine = ShardedMachine::new(logical);
    let results = machine.run(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        let (x, report) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, 0.11, 1e-7, 2000).await;
        let norm = global_sum_f64_async(ctx, x.iter().map(|s| s.norm_sqr()).sum()).await;
        (report.converged, report.iterations, norm)
    });
    assert!(
        results.iter().all(|r| r.0),
        "all nodes must agree the solve converged"
    );
    let iters = results[0].1;
    assert!(
        results.iter().all(|r| r.1 == iters),
        "iteration counts must agree"
    );
    // The global norm is a machine-wide reduction: identical on all nodes.
    let norm_bits = results[0].2.to_bits();
    assert!(results.iter().all(|r| r.2.to_bits() == norm_bits));

    // Return output to the host and release.
    qdaemon.return_output(
        id,
        format!("CG converged in {iters} iterations\n").as_bytes(),
    );
    assert!(String::from_utf8_lossy(qdaemon.job_output(id).unwrap()).contains("converged"));
    qdaemon.release(id);
    let census = qdaemon.census();
    assert_eq!((census.ready, census.busy), (32, 0));
}

#[test]
fn sharded_engine_boots_partitions_and_solves() {
    // Same pipeline, swept over the engine's worker counts: one worker
    // multiplexing all 32 cooperative node programs, two workers, and one
    // OS thread per node. Sharding is pure scheduling, so every run must
    // agree on the converged solution bit-for-bit.
    let machine_shape = TorusShape::new(&[2, 2, 2, 2, 2, 1]);
    let mut qdaemon = Qdaemon::new(machine_shape.clone());
    assert_eq!(qdaemon.boot(&[]).booted, 32);
    let spec = PartitionSpec::whole_machine(&machine_shape, &[&[0], &[1], &[2], &[3, 4, 5]]);
    let id = qdaemon.allocate(spec).expect("allocation");
    let logical = qdaemon.partition(id).unwrap().logical_shape().clone();

    let global = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::hot(global, 11);
    let b = FermionField::gaussian(global, 12);
    let (results, ledger) = ShardedMachine::new(logical).run_worker_sweep(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        wilson_solve_cg_async(ctx, &geom, &lg, &lb, 0.11, 1e-7, 2000).await
    });
    qdaemon.release(id);

    assert_eq!(results.len(), 32);
    assert!(ledger.unhealthy_nodes().is_empty());
    let (_, head) = &results[0];
    for (_, report) in &results {
        assert!(report.converged, "the solve must converge");
        assert_eq!(report.iterations, head.iterations);
        assert_eq!(
            report.final_residual.to_bits(),
            head.final_residual.to_bits(),
            "nodes must agree on the residual bits"
        );
    }
}

#[test]
fn qcsh_session_drives_the_stack() {
    let mut qdaemon = Qdaemon::new(TorusShape::new(&[4, 2, 2, 1, 1, 1]));
    let mut sh = Qcsh::new(1001, &["/home/lqcd"]);
    let boot = sh.execute(&mut qdaemon, &parse("qboot").unwrap());
    assert!(boot.contains("booted 16 nodes"));
    let part = sh.execute(&mut qdaemon, &parse("qpartition 2").unwrap());
    assert!(part.contains("partition 0"), "{part}");
    // Partition rank 2 folds axes 1.. into one logical axis: 4 x 4.
    assert!(part.contains("4x4"), "{part}");
    qdaemon.return_output(0, b"plaquette 0.58\n");
    let out = sh.execute(&mut qdaemon, &parse("qcat 0").unwrap());
    assert!(out.contains("plaquette"));
    sh.execute(&mut qdaemon, &parse("qfree 0").unwrap());
    assert_eq!(
        sh.execute(&mut qdaemon, &parse("qstat").unwrap()),
        "ready 16 busy 0 faulty 0 unbooted 0 spare 0 blacklisted 0"
    );
}

#[test]
fn faulty_node_blocks_whole_machine_allocation_but_not_subbox() {
    let machine_shape = TorusShape::new(&[4, 2, 2, 2, 1, 1]);
    let mut qdaemon = Qdaemon::new(machine_shape.clone());
    qdaemon.boot(&[31]); // last node faulty
    assert_eq!(
        qdaemon.node_state(qcdoc::geometry::NodeId(31)),
        NodeState::Faulty
    );
    // Whole machine fails…
    assert!(qdaemon
        .allocate(PartitionSpec::native(&machine_shape))
        .is_err());
    // …but a sub-box avoiding the faulty node allocates fine.
    let spec = PartitionSpec {
        origin: NodeCoord::ORIGIN,
        extents: vec![2, 2, 2, 2, 1, 1],
        groups: vec![vec![0, 3], vec![1], vec![2]],
    };
    let id = qdaemon.allocate(spec).expect("sub-box allocation");
    assert_eq!(qdaemon.partition(id).unwrap().node_count(), 16);
}
