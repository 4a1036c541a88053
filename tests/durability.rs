//! Durable-storage acceptance: the host crashes mid-checkpoint-write AND
//! the newest committed generation bit-rots on the RAID — and the
//! campaign still resumes, from generation N−1, to a final CG state
//! **bit-identical** to a run that never stopped.
//!
//! This is the host-system half of the paper's reliability story (§3.2,
//! §4 and hep-lat/0306023): nodes stream checkpoints to NFS-mounted
//! disks, and the storage layer — not just the SCU links — must be
//! survivable. The `CheckpointStore`'s atomic generation protocol means
//! a torn write can only ever cost the *in-flight* save; verified
//! restore with generational fallback means silent rot costs one
//! generation of replay, never the campaign.

mod common;

use common::{cg_segment_app, global, half_spec, replan, SEG_ITERS};
use qcdoc::core::distributed::{assemble_checkpoint, CgSegmentOut};
use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::recovery::{RecoveryConfig, SegmentVerdict};
use qcdoc::core::ShardedMachine;
use qcdoc::fault::{StorageFault, StorageFaultPlan};
use qcdoc::geometry::TorusShape;
use qcdoc::host::ckstore::{CheckpointStore, StoreConfig, VerifyMode};
use qcdoc::host::nfs::{NfsError, NfsServer};
use qcdoc::host::{Qdaemon, RecoveryPlanner};
use qcdoc::lattice::checkpoint::{write_checkpoint, CgCheckpoint};
use qcdoc::lattice::field::{FermionField, GaugeField};
use qcdoc::scu::RetryPolicy;
use qcdoc::telemetry::MetricsRegistry;

fn campaign_cfg() -> StoreConfig {
    StoreConfig {
        root: "/data/ck/campaign".into(),
        retain: 3,
        verify: VerifyMode::CgArchive,
        retry: RetryPolicy::bounded(4, 2, 16),
    }
}

#[test]
fn host_crash_plus_rotted_newest_generation_resumes_bit_identically() {
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);
    let logical = TorusShape::new(&[2, 2, 2]);

    // Reference: the uninterrupted run.
    let ref_outs = ShardedMachine::new(logical.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    assert!(ref_outs.iter().all(|o| o.converged && !o.wedged));
    let ref_ckpt = assemble_checkpoint(&logical, global(), &ref_outs);

    // --- The campaign, checkpointing durably every SEG_ITERS. ---------
    let mut nfs = NfsServer::new(&["/data"], 1 << 24);
    let mut store = CheckpointStore::open(campaign_cfg(), &mut nfs);
    let mut state: Option<CgCheckpoint> = None;
    for seg in 0..3u64 {
        if seg == 1 {
            // An NFS server crash tears this save's temp write; the
            // store's bounded retry re-drives it — no generation harmed.
            nfs.inject(
                &StorageFaultPlan::new(5).with_event(StorageFault::TornWrite {
                    write_op: nfs.write_ops(),
                    keep: None,
                }),
            );
        }
        let outs = ShardedMachine::new(logical.clone())
            .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &state, SEG_ITERS).await);
        let ckpt = assemble_checkpoint(&logical, global(), &outs);
        assert!(!ckpt.converged, "campaign must outlive three segments");
        assert_eq!(store.save(&mut nfs, &write_checkpoint(&ckpt)).unwrap(), seg);
        state = Some(ckpt);
    }
    assert!(
        store.torn_detected() >= 1 && store.retries() >= 1,
        "the mid-campaign torn write must be detected and retried"
    );
    assert_eq!(store.generations(&nfs), vec![0, 1, 2]);

    // --- The disaster. ------------------------------------------------
    // (1) The host dies mid-way through writing generation 3: the temp
    // write tears and no one retries, because the writer is gone.
    nfs.inject(
        &StorageFaultPlan::new(7).with_event(StorageFault::TornWrite {
            write_op: nfs.write_ops(),
            keep: None,
        }),
    );
    let outs = ShardedMachine::new(logical.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &state, SEG_ITERS).await);
    let ckpt3 = assemble_checkpoint(&logical, global(), &outs);
    let h = nfs.open("/data/ck/campaign/tmp.ckpt").unwrap();
    assert_eq!(
        nfs.write(h, &write_checkpoint(&ckpt3)),
        Err(NfsError::ServerCrash)
    );
    drop(store); // the host process is gone; only the disks survive

    // (2) While the machine is down, the newest committed generation
    // rots on the platter: one flipped bit deep in the payload.
    let newest = nfs.list("/data/ck/campaign/gen-").pop().unwrap();
    let len = nfs.stat(&newest).unwrap();
    nfs.inject(&StorageFaultPlan::new(9).with_event(StorageFault::BitRot {
        path: newest,
        from_op: 0,
        byte: len - 5,
        bit: 4,
    }));

    // --- Recovery. ----------------------------------------------------
    let mut store = CheckpointStore::open(campaign_cfg(), &mut nfs);
    assert!(
        store.torn_detected() >= 1,
        "the leftover torn temp must be recognised on open"
    );
    let (resumed, restored) = store.restore_cg(&mut nfs).unwrap();
    assert_eq!(restored.generation, 1, "fallback to generation N-1");
    assert_eq!(restored.skipped.len(), 1);
    assert_eq!(restored.skipped[0].0, 2, "generation N was the rotted one");
    assert!(
        restored.skipped[0].1.contains("checksum"),
        "rot is detected as a checksum failure: {:?}",
        restored.skipped
    );
    assert_eq!(resumed.iterations, 2 * SEG_ITERS);
    assert_eq!(store.fallbacks(), 1);
    assert_eq!(store.rot_detected(), 1);

    // Replay the delta iterations to convergence, still saving durably.
    let mut state = Some(resumed);
    let recovered = loop {
        let outs = ShardedMachine::new(logical.clone())
            .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &state, SEG_ITERS).await);
        let ckpt = assemble_checkpoint(&logical, global(), &outs);
        if ckpt.converged {
            break ckpt;
        }
        store.save(&mut nfs, &write_checkpoint(&ckpt)).unwrap();
        state = Some(ckpt);
    };

    // Bit-identical to never having crashed: same solution bits, same
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

    // The whole story is visible to the host: flight events flow into
    // the qdaemon's recorder, counters into the metrics scrape.
    let mut qdaemon = Qdaemon::new(TorusShape::new(&[2, 2, 2]));
    qdaemon.ingest_flight(&store.drain_flight());
    let dump = qdaemon.flight_dump(None);
    for needle in [
        "ckstore_torn_leftover",
        "ckstore_rot",
        "ckstore_fallback",
        "ckstore_restore",
        "ckstore_commit",
    ] {
        assert!(
            dump.contains(needle),
            "flight dump missing {needle}:\n{dump}"
        );
    }
    let mut reg = MetricsRegistry::new();
    store.export_metrics(&mut reg);
    let text = qcdoc::telemetry::prometheus_text(&reg);
    assert!(text.contains("ckstore_fallbacks 1"), "{text}");
    assert!(text.contains("ckstore_rot_detected 1"), "{text}");
}

#[test]
fn hardware_recovery_and_flaky_storage_compose_bit_identically() {
    // The full stack at once: a dead SCU link kills the partition
    // mid-solve (PR 3's recovery path) while the NFS server throws
    // transient I/O errors at the checkpoint traffic — every segment's
    // state round-trips through the durable store, and the quarantined,
    // re-planned, storage-retried run still lands on the reference bits.
    let gauge = GaugeField::hot(global(), 21);
    let b = FermionField::gaussian(global(), 22);

    let logical = TorusShape::new(&[2, 2, 2]);
    let ref_outs = ShardedMachine::new(logical.clone())
        .run(async |ctx| cg_segment_app(ctx, &gauge, &b, &None, usize::MAX).await);
    let ref_ckpt = assemble_checkpoint(&logical, global(), &ref_outs);

    let mut nfs = NfsServer::new(&["/data"], 1 << 24);
    // Sprinkle transient failures over the campaign's early NFS ops.
    nfs.inject(
        &StorageFaultPlan::new(13)
            .with_event(StorageFault::Transient { op: 2, count: 1 })
            .with_event(StorageFault::Transient { op: 11, count: 2 }),
    );
    let mut store = CheckpointStore::open(campaign_cfg(), &mut nfs);

    let mut qdaemon = Qdaemon::new(TorusShape::new(&[2, 2, 2, 2]));
    qdaemon.boot(&[]);
    let machine_faults = FaultPlan::new(7).with_event(FaultEvent::dead_link(3, 0, 300));
    let mut planner =
        RecoveryPlanner::new(&mut qdaemon, half_spec(), machine_faults, false).unwrap();

    let machine = ShardedMachine::new(planner.partition().logical_shape().clone())
        .with_faults(planner.local_faults())
        .with_wedge_timeout(5_000);

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
                    // Persist durably and resume from the store's
                    // verified read-back — the real campaign loop.
                    store
                        .save(&mut nfs, &write_checkpoint(&ckpt))
                        .expect("durable save");
                    let (restored, _) = store.restore_cg(&mut nfs).expect("verified restore");
                    SegmentVerdict::Continue(Some(restored))
                }
            },
            |ledger| replan(&mut planner, &mut qdaemon, ledger),
        )
        .expect("the spare half must carry the job home");

    assert_eq!(report.recoveries, 1);
    assert!(recovered.converged);
    assert!(
        store.retries() >= 2,
        "the scheduled transients must have been retried, got {}",
        store.retries()
    );
    assert_eq!(recovered.digest(), ref_ckpt.digest());
    assert_eq!(recovered.x, ref_ckpt.x);
}
