//! Acceptance tests for the fault-injection subsystem: a seeded
//! bit-error-rate plan is healed by the link protocol and reported
//! deterministically; an unrecoverable fault is detected and quarantined
//! through the host diagnostics path instead of hanging the machine.

use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{Axis, NodeId, TorusShape};
use qcdoc::host::qdaemon::{NodeState, Qdaemon};
use qcdoc::scu::dma::DmaDescriptor;

const WORDS: u32 = 1000;

/// Seed chosen so the 1e-6 per-word draw on node 1, link 0 fires within
/// the first 1000 words (at word 295) — the draws are pure functions of
/// `(seed, node, link, seq)`, so this is stable by construction.
const SEED: u64 = 441;

fn noisy_run() -> (Vec<Vec<u64>>, qcdoc::fault::HealthLedger) {
    let plan = FaultPlan::new(SEED).with_event(FaultEvent::bit_error_rate(1, 0, 1e-6));
    let machine = ShardedMachine::new(TorusShape::new(&[4])).with_faults(plan);
    machine.run_with_health(async |ctx| {
        for i in 0..WORDS as u64 {
            ctx.mem
                .write_word(0x100 + i * 8, ctx.id.0 as u64 * 10_000 + i)
                .unwrap();
        }
        ctx.shift_async(
            Axis(0).plus(),
            DmaDescriptor::contiguous(0x100, WORDS),
            DmaDescriptor::contiguous(0x8000, WORDS),
        )
        .await;
        ctx.mem.read_block(0x8000, WORDS as usize).unwrap()
    })
}

#[test]
fn bit_error_rate_is_healed_and_ledgered_deterministically() {
    let (payloads, ledger) = noisy_run();
    // Every node holds its -x neighbour's words, intact: the resend
    // protocol healed the corruption before it reached memory.
    for (rank, got) in payloads.iter().enumerate() {
        let from = (rank + 3) % 4;
        let want: Vec<u64> = (0..WORDS as u64)
            .map(|i| from as u64 * 10_000 + i)
            .collect();
        assert_eq!(got, &want, "node {rank} payload corrupted");
    }
    // The fault fired and was recorded.
    assert!(
        ledger.total_injected() >= 1,
        "the seeded 1e-6 draw must fire"
    );
    assert_eq!(ledger.nodes[1].links[0].injected, ledger.total_injected());
    assert!(
        ledger.total_resends() >= 1,
        "healing requires at least one resend"
    );
    // Recoverable errors leave the end-of-run checksums in agreement.
    assert!(ledger.all_checksums_ok());
    assert!(ledger.unhealthy_nodes().is_empty());
    // Same seed, same ledger: the deterministic fields are bit-identical.
    let (_, again) = noisy_run();
    assert_eq!(ledger.fingerprint(), again.fingerprint());
}

#[test]
fn dead_link_is_quarantined_via_host_diagnostics_not_a_hang() {
    let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(2, 0, 0));
    let machine = ShardedMachine::new(TorusShape::new(&[4])).with_faults(plan);
    // The run returns (the quiescent machine wedges) instead of hanging.
    let (_, ledger) = machine.run_with_health(async |ctx| {
        ctx.mem.write_word(0x100, ctx.id.0 as u64).unwrap();
        ctx.shift_async(
            Axis(0).plus(),
            DmaDescriptor::contiguous(0x100, 1),
            DmaDescriptor::contiguous(0x200, 1),
        )
        .await;
    });
    assert_eq!(ledger.dead_links(), vec![(2, 0)]);
    // The host sweep quarantines the afflicted node and later allocations
    // route around it.
    let mut q = Qdaemon::new(TorusShape::new(&[4, 1, 1, 1, 1, 1]));
    q.boot(&[]);
    let report = q.ingest_health(&ledger).unwrap();
    assert!(
        report.quarantined.contains(&2),
        "node 2 must be quarantined: {report:?}"
    );
    assert_eq!(report.dead_links, vec![(2, 0)]);
    assert!(!report.clean());
    assert_eq!(q.node_state(NodeId(2)), NodeState::Faulty);
    assert!(
        q.allocate(qcdoc::geometry::PartitionSpec::native(q.machine()))
            .is_err(),
        "a full-machine allocation must be refused after quarantine"
    );
}

#[test]
fn memory_soft_error_is_corrected_and_visible_to_the_sweep() {
    let plan = FaultPlan::new(0).with_event(FaultEvent::mem_bit_flip(3, 0x100, 17));
    let machine = ShardedMachine::new(TorusShape::new(&[4])).with_faults(plan);
    let (values, ledger) = machine.run_with_health(async |ctx| {
        // The flip strikes before the app runs; read what the app sees.
        ctx.mem.read_word(0x100).unwrap()
    });
    // SEC-DED corrects the single-bit flip on the read path: the
    // application never sees the corruption, only the counters do.
    assert!(
        values.iter().all(|&v| v == 0),
        "ECC must hand back the original word: {values:?}"
    );
    assert_eq!(ledger.nodes[3].mem_flips, 1);
    assert!(ledger.nodes[3].ecc_corrected >= 1);
    assert_eq!(ledger.nodes[3].machine_checks, 0);
    // A corrected error is bookkeeping, not a casualty.
    assert!(ledger.unhealthy_nodes().is_empty());
}
