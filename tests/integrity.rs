//! End-to-end data-integrity acceptance: every corruption class the
//! fault plan can inject is either corrected in place (memory ECC),
//! detected and replayed in flight (DMA block checksums), or detected
//! and rolled back (ABFT in the solver) — and the physics the machine
//! delivers is **bit-identical** to a run that never faulted.
//!
//! The three layers mirror the paper's hardware story: §2.1 puts ECC on
//! the EDRAM and DDR paths, §2.2 backs the serial links' parity with
//! end-of-run checksum comparison, and the deterministic software stack
//! turns any detected corruption into a replay instead of a wrong answer.

mod common;

use common::{cg_segment_app, global, half_spec, replan, KAPPA, SEG_ITERS};
use qcdoc::core::distributed::{assemble_checkpoint, CgSegmentOut};
use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::recovery::{RecoveryConfig, SegmentVerdict};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::TorusShape;
use qcdoc::host::{Qdaemon, RecoveryPlanner};
use qcdoc::lattice::checkpoint::CgCheckpoint;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::solver::{
    solve_cgne, solve_cgne_abft, AbftParams, CgParams, SolverTamper, TamperTarget,
};
use qcdoc::lattice::wilson::WilsonDirac;
use qcdoc::telemetry::NodeTelemetry;

fn logical() -> TorusShape {
    TorusShape::new(&[2, 2, 2])
}

/// The fault-free reference solve and its checkpoint digest.
fn reference(gauge: &GaugeField, b: &FermionField) -> CgCheckpoint {
    let outs = ShardedMachine::new(logical())
        .run(async |ctx| cg_segment_app(ctx, gauge, b, &None, usize::MAX).await);
    assert!(outs.iter().all(|o| o.converged && !o.wedged));
    assemble_checkpoint(&logical(), global(), &outs)
}

/// An uncorrectable (double-bit) memory error defeats SEC-DED: the node
/// latches a machine check, the sweep condemns it, and the job replays on
/// the spare half — landing on exactly the bits of the fault-free run.
#[test]
fn uncorrectable_memory_error_quarantines_and_recovers_bit_identically() {
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);
    let ref_ckpt = reference(&gauge, &b);

    let mut qdaemon = Qdaemon::new(TorusShape::new(&[2, 2, 2, 2]));
    qdaemon.boot(&[]);
    // Two flips in the same word of physical node 3's memory.
    let machine_faults = FaultPlan::new(7).with_event(FaultEvent::mem_double_flip(3, 0x100, 3, 41));
    let mut planner =
        RecoveryPlanner::new(&mut qdaemon, half_spec(), machine_faults, false).unwrap();
    assert_eq!(planner.local_faults().events.len(), 1);

    let machine = ShardedMachine::new(planner.partition().logical_shape().clone())
        .with_faults(planner.local_faults());

    let mut evidence = (0u64, 0u64);
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
                    SegmentVerdict::Continue(Some(ckpt))
                }
            },
            |ledger| {
                evidence = (ledger.total_machine_checks(), ledger.total_ecc_corrected());
                replan(&mut planner, &mut qdaemon, ledger)
            },
        )
        .expect("the spare half must carry the job home");

    // The evidence was a latched machine check, not a corrected flip.
    assert_eq!(evidence, (1, 0));
    assert_eq!(report.recoveries, 1);
    assert!(!report.degraded);
    assert!(recovered.converged);

    // Bit-identical to the fault-free run.
    assert_eq!(recovered.iterations, ref_ckpt.iterations);
    assert_eq!(recovered.x, ref_ckpt.x);
    assert_eq!(recovered.digest(), ref_ckpt.digest());

    // Host-side: the culprit daughterboard is out of the pool.
    let census = qdaemon.census();
    assert_eq!((census.busy, census.faulty), (8, 1));
    assert_eq!(planner.partition().spec().origin.get(3), 1);
}

/// A parity-evading payload burst mid-CG is caught by the end-to-end
/// block checksum at the receive unit and the whole block is replayed —
/// the run finishes without recovery machinery, on the reference bits.
#[test]
fn payload_burst_mid_cg_is_healed_in_flight_by_block_checksums() {
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);
    let ref_ckpt = reference(&gauge, &b);

    // An even number of flips per parity class in the frame carrying data
    // word 50 on node 1's +x wire: frame parity decodes clean.
    let plan = FaultPlan::new(5).with_event(FaultEvent::payload_burst(1, 0, 50, 10, 2));
    let (outs, ledger) = ShardedMachine::new(logical())
        .with_faults(plan)
        .with_block_checksums()
        .run_with_health(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    assert!(outs.iter().all(|o| o.converged && !o.wedged));
    let ckpt = assemble_checkpoint(&logical(), global(), &outs);

    // Detected, replayed, and invisible to the physics.
    assert!(
        ledger.total_block_rejects() >= 1,
        "the burst must be caught by a block checksum"
    );
    assert!(ledger.all_checksums_ok());
    assert!(ledger.unhealthy_nodes().is_empty());
    assert_eq!(ckpt.iterations, ref_ckpt.iterations);
    assert_eq!(ckpt.x, ref_ckpt.x);
    assert_eq!(ckpt.digest(), ref_ckpt.digest());
}

/// The same burst without block checksums is the silent-data-corruption
/// baseline: the run completes, the answer is wrong, and only the
/// end-of-run checksum comparison — too late for the physics — disagrees.
#[test]
fn without_block_checksums_the_burst_is_silent_data_corruption() {
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);
    let ref_ckpt = reference(&gauge, &b);

    let plan = FaultPlan::new(5).with_event(FaultEvent::payload_burst(1, 0, 50, 10, 2));
    let (outs, ledger) = ShardedMachine::new(logical())
        .with_faults(plan)
        .run_with_health(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    assert!(outs.iter().all(|o| !o.wedged));
    let ckpt = assemble_checkpoint(&logical(), global(), &outs);

    // No reject, no resend — the parity never fired.
    assert_eq!(ledger.total_block_rejects(), 0);
    assert!(
        ckpt.digest() != ref_ckpt.digest(),
        "the burst must have corrupted the solve"
    );
    // Only the end-of-run audit knows something went wrong.
    assert!(!ledger.all_checksums_ok());
}

/// A correctable single-bit soft error is fixed in place by SEC-DED: the
/// run is bit-identical to the reference and the only trace is a counter.
#[test]
fn correctable_soft_error_leaves_only_counter_evidence() {
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);
    let ref_ckpt = reference(&gauge, &b);

    let plan = FaultPlan::new(3).with_event(FaultEvent::mem_bit_flip(2, 0x100, 17));
    let (outs, ledger) = ShardedMachine::new(logical())
        .with_faults(plan)
        .run_with_health(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    assert!(outs.iter().all(|o| o.converged && !o.wedged));
    let ckpt = assemble_checkpoint(&logical(), global(), &outs);

    assert_eq!(ckpt.digest(), ref_ckpt.digest());
    assert!(ledger.nodes[2].ecc_corrected >= 1);
    assert_eq!(ledger.nodes[2].machine_checks, 0);
    assert!(
        ledger.unhealthy_nodes().is_empty(),
        "a corrected flip is bookkeeping, not a casualty"
    );
}

/// ABFT closes the last gap: corruption that strikes *inside* the solver
/// — past ECC and past the link checksums — is caught by the running
/// checksums over x/r/p and rolled back to the last verified snapshot.
#[test]
fn abft_rolls_back_in_solver_corruption_to_the_reference_bits() {
    let lat = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(lat, 112);
    let op = WilsonDirac::new(&gauge, KAPPA);
    let b = FermionField::gaussian(lat, 113);

    let mut clean = FermionField::zero(lat);
    let plain = solve_cgne(&op, &mut clean, &b, CgParams::default());
    assert!(plain.converged);
    assert!(plain.iterations > 4, "need room to strike mid-solve");

    let tamper = SolverTamper {
        iteration: 3,
        target: TamperTarget::R,
        word: 7,
        bits: 1 << 62,
    };
    let mut x = FermionField::zero(lat);
    let mut telem = NodeTelemetry::disabled(0);
    let (report, abft) = solve_cgne_abft(
        &op,
        &mut x,
        &b,
        CgParams::default(),
        AbftParams::default(),
        Some(tamper),
        &mut telem,
    );
    assert!(abft.detections >= 1);
    assert!(abft.rollbacks >= 1);
    assert!(!abft.exhausted);
    assert!(report.converged);
    assert_eq!(
        x.fingerprint(),
        clean.fingerprint(),
        "the replayed solve must be bit-identical"
    );
}
