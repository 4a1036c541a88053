//! The campaign scaffold shared by the recovery, integrity and durability
//! suites: one problem, one node program, one spare-half partition spec
//! and one host-side replan step, so the three suites differ only in the
//! faults they inject and the assertions they make.

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use qcdoc::core::distributed::{wilson_cg_segment_async, BlockGeom, CgSegmentOut};
use qcdoc::core::functional::NodeCtx;
use qcdoc::core::recovery::Replacement;
use qcdoc::fault::HealthLedger;
use qcdoc::geometry::{NodeCoord, PartitionSpec};
use qcdoc::host::{Qdaemon, RecoveryPlanner};
use qcdoc::lattice::checkpoint::CgCheckpoint;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};

pub const KAPPA: f64 = 0.12;
pub const TOL: f64 = 1e-7;
pub const MAX_ITERS: usize = 400;
pub const SEG_ITERS: usize = 6;

pub fn global() -> Lattice {
    Lattice::new([4, 4, 2, 2])
}

/// One recovery-segment of the distributed Wilson solve: fresh when no
/// checkpoint exists, restored from exact bits otherwise.
pub async fn cg_segment_app(
    ctx: &mut NodeCtx,
    gauge: &GaugeField,
    b: &FermionField,
    state: &Option<CgCheckpoint>,
    segment_iters: usize,
) -> CgSegmentOut {
    let geom = BlockGeom::new(ctx, global());
    let lg = geom.extract_gauge(gauge);
    let lb = geom.extract_fermion(b);
    wilson_cg_segment_async(
        ctx,
        &geom,
        &lg,
        &lb,
        KAPPA,
        TOL,
        MAX_ITERS,
        state.as_ref(),
        segment_iters,
    )
    .await
}

/// Half-machine spec on a [2,2,2,2] box: a [2,2,2] logical partition with
/// a spare twin in the other x3 half.
pub fn half_spec() -> PartitionSpec {
    PartitionSpec {
        origin: NodeCoord::ORIGIN,
        extents: vec![2, 2, 2, 1],
        groups: vec![vec![0], vec![1], vec![2]],
    }
}

/// The host's answer to a dirty ledger, in the shape `run_with_recovery`
/// wants: quarantine the culprits through the qdaemon and hand back the
/// replacement partition's logical shape and translated faults.
pub fn replan(
    planner: &mut RecoveryPlanner,
    qdaemon: &mut Qdaemon,
    ledger: &HealthLedger,
) -> Option<Replacement> {
    planner
        .quarantine_and_replan(qdaemon, ledger)
        .map(|(part, faults, degraded)| Replacement {
            shape: part.logical_shape().clone(),
            faults,
            degraded,
        })
}
