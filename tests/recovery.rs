//! Self-healing acceptance: a seeded hardware fault kills a run mid-CG;
//! the stack quarantines the culprit through the qdaemon, re-allocates a
//! spare partition, restores from the last checkpoint — and the recovered
//! solution is **bit-identical** to a run that never faulted.
//!
//! This is the paper's operating story end to end: the Ethernet/JTAG
//! diagnostics path finds the broken daughterboard, the partitioning
//! software routes the job around it, and determinism (dimension-ordered
//! global sums + exact-bits checkpoints) guarantees physics results are
//! unaffected.

mod common;

use common::{cg_segment_app, global, half_spec, replan, SEG_ITERS};
use qcdoc::core::distributed::{assemble_checkpoint, CgSegmentOut};
use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::recovery::{RecoveryConfig, RecoveryReport, SegmentVerdict};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{PartitionSpec, TorusShape};
use qcdoc::host::{Qdaemon, RecoveryPlanner};
use qcdoc::lattice::checkpoint::{read_checkpoint, write_checkpoint, CgCheckpoint};
use qcdoc::lattice::field::{FermionField, GaugeField};
use qcdoc::telemetry::bench_summary_json;

#[test]
fn faulted_run_recovers_bit_identically_on_the_spare_partition() {
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);

    // Reference: the same segmented solve on a fault-free machine (the
    // distributed suite proves segmenting itself is bit-transparent).
    let logical = TorusShape::new(&[2, 2, 2]);
    let ref_outs = ShardedMachine::new(logical.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    assert!(ref_outs.iter().all(|o| o.converged && !o.wedged));
    let ref_ckpt = assemble_checkpoint(&logical, global(), &ref_outs);

    // Faulted run: physical node 3's +x transmitter goes silent mid-solve.
    let mut qdaemon = Qdaemon::new(TorusShape::new(&[2, 2, 2, 2]));
    qdaemon.boot(&[]);
    let machine_faults = FaultPlan::new(7).with_event(FaultEvent::dead_link(3, 0, 300));
    let mut planner =
        RecoveryPlanner::new(&mut qdaemon, half_spec(), machine_faults, false).unwrap();
    assert_eq!(planner.local_faults().events.len(), 1);

    let machine = ShardedMachine::new(planner.partition().logical_shape().clone())
        .with_faults(planner.local_faults());

    let (recovered, report) = machine
        .run_with_recovery(
            RecoveryConfig::default(),
            None,
            async |ctx, state: &Option<CgCheckpoint>| {
                cg_segment_app(ctx, &gauge, &b, state, SEG_ITERS).await
            },
            |shape, outs: Vec<CgSegmentOut>| {
                let ckpt = assemble_checkpoint(shape, global(), &outs);
                if ckpt.converged {
                    SegmentVerdict::Done(ckpt)
                } else {
                    // Persist through the NERSC-style archive machinery, as
                    // a real campaign would, and resume from the read-back.
                    let bytes = write_checkpoint(&ckpt);
                    SegmentVerdict::Continue(Some(read_checkpoint(&bytes).unwrap()))
                }
            },
            |ledger| replan(&mut planner, &mut qdaemon, ledger),
        )
        .expect("the spare half must carry the job home");

    // One quarantine, no degradation, and the job finished.
    assert_eq!(report.recoveries, 1);
    assert!(!report.degraded);
    assert!(
        report.segments >= 2,
        "fault must strike a multi-segment run"
    );
    assert!(recovered.converged);

    // Bit-identical to the fault-free run: same solution bits, same
    // residual history, same digest.
    assert_eq!(recovered.iterations, ref_ckpt.iterations);
    assert_eq!(recovered.x, ref_ckpt.x);
    assert_eq!(
        recovered
            .residuals
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        ref_ckpt
            .residuals
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(recovered.digest(), ref_ckpt.digest());

    // The recovery overhead is visible to the exporters.
    let json = bench_summary_json("recovery", &report.metrics, &report.spans);
    for key in [
        "recovery_segments",
        "recovery_quarantines",
        "recovery_repartitions",
        "recovery_checkpoint_restores",
    ] {
        assert!(json.contains(key), "summary must report {key}: {json}");
    }

    // Host-side: the culprit is quarantined, the spare half is busy.
    let census = qdaemon.census();
    assert_eq!((census.busy, census.faulty), (8, 1));
    assert_eq!(planner.partition().spec().origin.get(3), 1);
}

#[test]
fn a_fault_on_a_link_that_leaves_the_partition_touches_nothing() {
    // Physical node 3's link 6 runs along axis 3, out of the [2,2,2] half:
    // no wire of the logical machine, so the job runs as if fault-free.
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);
    let mut qdaemon = Qdaemon::new(TorusShape::new(&[2, 2, 2, 2]));
    qdaemon.boot(&[]);
    let machine_faults = FaultPlan::new(7).with_event(FaultEvent::bit_error_rate(3, 6, 0.5));
    let planner = RecoveryPlanner::new(&mut qdaemon, half_spec(), machine_faults, false).unwrap();
    assert!(planner.local_faults().events.is_empty());

    let outs = ShardedMachine::new(planner.partition().logical_shape().clone())
        .with_faults(planner.local_faults())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    assert!(outs.iter().all(|o| o.converged && !o.wedged));
}

/// Run the standard faulted campaign — node 3's +x transmitter dies at
/// cycle 300, the planner swaps in the spare half — with the engine's
/// virtual nodes spread over `workers` threads.
fn faulted_recovery_on(
    gauge: &GaugeField,
    b: &FermionField,
    workers: usize,
) -> (CgCheckpoint, RecoveryReport) {
    let mut qdaemon = Qdaemon::new(TorusShape::new(&[2, 2, 2, 2]));
    qdaemon.boot(&[]);
    let machine_faults = FaultPlan::new(7).with_event(FaultEvent::dead_link(3, 0, 300));
    let mut planner =
        RecoveryPlanner::new(&mut qdaemon, half_spec(), machine_faults, false).unwrap();

    ShardedMachine::new(planner.partition().logical_shape().clone())
        .with_faults(planner.local_faults())
        .with_workers(workers)
        .run_with_recovery(
            RecoveryConfig::default(),
            None,
            async |ctx, state: &Option<CgCheckpoint>| {
                cg_segment_app(ctx, gauge, b, state, SEG_ITERS).await
            },
            |shape, outs: Vec<CgSegmentOut>| {
                let ckpt = assemble_checkpoint(shape, global(), &outs);
                if ckpt.converged {
                    SegmentVerdict::Done(ckpt)
                } else {
                    let bytes = write_checkpoint(&ckpt);
                    SegmentVerdict::Continue(Some(read_checkpoint(&bytes).unwrap()))
                }
            },
            |ledger| replan(&mut planner, &mut qdaemon, ledger),
        )
        .expect("the spare half must carry the job home")
}

#[test]
fn recovery_reproduces_fault_free_residual_bits_at_any_worker_count() {
    // Same fault, same planner, same checkpoints — one run multiplexed
    // onto a single worker, one with an OS thread per node. The execution
    // strategy is invisible to the physics: recovered solution bits,
    // residual history, and archive digest must equal the fault-free
    // solve's at every worker count.
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);

    let logical = TorusShape::new(&[2, 2, 2]);
    let ref_outs = ShardedMachine::new(logical.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    let ref_ckpt = assemble_checkpoint(&logical, global(), &ref_outs);
    let bits = |ckpt: &CgCheckpoint| {
        ckpt.residuals
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>()
    };

    let runs = [1, logical.node_count()].map(|workers| faulted_recovery_on(&gauge, &b, workers));
    assert_eq!(runs[0].1.segments, runs[1].1.segments);
    for (ckpt, report) in &runs {
        assert_eq!(report.recoveries, 1);
        assert!(!report.degraded);
        assert!(ckpt.converged);

        assert_eq!(ckpt.iterations, ref_ckpt.iterations);
        assert_eq!(ckpt.x, ref_ckpt.x);
        assert_eq!(
            bits(ckpt),
            bits(&ref_ckpt),
            "recovered residual history must match the fault-free run bit-for-bit"
        );
        assert_eq!(ckpt.digest(), ref_ckpt.digest());
    }
}

#[test]
fn run_degrades_to_a_smaller_partition_when_no_spare_exists() {
    let gauge = GaugeField::hot(global(), 31);
    let b = FermionField::gaussian(global(), 32);

    // The whole 8-node machine is the job's partition: a dead wire leaves
    // no same-size spare, only smaller slabs.
    let machine_shape = TorusShape::new(&[2, 2, 2]);
    let mut qdaemon = Qdaemon::new(machine_shape.clone());
    qdaemon.boot(&[]);
    let machine_faults = FaultPlan::new(9).with_event(FaultEvent::dead_link(6, 0, 100));
    let mut planner = RecoveryPlanner::new(
        &mut qdaemon,
        PartitionSpec::native(&machine_shape),
        machine_faults,
        true,
    )
    .unwrap();

    let machine = ShardedMachine::new(planner.partition().logical_shape().clone())
        .with_faults(planner.local_faults());

    let (result, report) = machine
        .run_with_recovery(
            RecoveryConfig::default(),
            None,
            async |ctx, state: &Option<CgCheckpoint>| {
                cg_segment_app(ctx, &gauge, &b, state, SEG_ITERS).await
            },
            |shape, outs: Vec<CgSegmentOut>| {
                let ckpt = assemble_checkpoint(shape, global(), &outs);
                if ckpt.converged {
                    SegmentVerdict::Done(ckpt)
                } else {
                    SegmentVerdict::Continue(Some(ckpt))
                }
            },
            |ledger| replan(&mut planner, &mut qdaemon, ledger),
        )
        .expect("a degraded slab must finish the job");

    // Degraded but done: correctness survives, bit-identity is not claimed
    // (a different machine shape reorders the global sums).
    assert!(report.degraded);
    assert_eq!(report.recoveries, 1);
    assert!(result.converged);
    assert_eq!(planner.partition().node_count(), 4);
    let census = qdaemon.census();
    assert_eq!((census.busy, census.faulty), (4, 1));
}

#[test]
fn checkpoints_are_portable_across_machine_shapes() {
    // A checkpoint written by an 8-node [2,2,2] machine resumes on a
    // 4-node [2,2] machine: the archive stores the *global* field, so the
    // reader can re-block it for any geometry.
    let gauge = GaugeField::hot(global(), 41);
    let b = FermionField::gaussian(global(), 42);

    let big = TorusShape::new(&[2, 2, 2]);
    let outs = ShardedMachine::new(big.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, 5).await);
    assert!(outs.iter().all(|o| !o.converged && o.iterations == 5));
    let ckpt = assemble_checkpoint(&big, global(), &outs);

    let small = TorusShape::new(&[2, 2]);
    let state = Some(ckpt);
    let outs = ShardedMachine::new(small.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &state, usize::MAX).await);
    assert!(outs.iter().all(|o| o.converged));
    let final_ckpt = assemble_checkpoint(&small, global(), &outs);
    assert_eq!(
        final_ckpt.residuals.len(),
        final_ckpt.iterations,
        "resumed history must splice onto the prior segment's"
    );
}
