//! Acceptance tests for the per-node flight recorder: a seeded fault
//! plan leaves a black-box event trail that matches the injected
//! schedule, deterministic faults dump bit-identically, the host
//! aggregates node rings next to its own quarantine decisions, and a
//! failing test scope leaves a dump artifact instead of a bare
//! backtrace.

use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{Axis, TorusShape};
use qcdoc::host::qdaemon::Qdaemon;
use qcdoc::scu::dma::DmaDescriptor;
use qcdoc::telemetry::{FlightDumpGuard, FlightEvent, FlightKind, MachineTelemetry};

const WORDS: u32 = 1000;

/// Same seed as `tests/fault_injection.rs`: the 1e-6 per-word draw on
/// node 1, link 0 fires within the first 1000 words. The draws are pure
/// functions of `(seed, node, link, seq)`, so the schedule is stable.
const SEED: u64 = 441;

fn shift_run(plan: FaultPlan) -> (qcdoc::fault::HealthLedger, MachineTelemetry) {
    let machine = ShardedMachine::new(TorusShape::new(&[4])).with_faults(plan);
    let (_, ledger, telemetry) = machine.run_with_telemetry(async |ctx| {
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
        ctx.mem.read_word(0x8000).unwrap()
    });
    (ledger, telemetry)
}

fn events_of<'a>(
    telemetry: &'a MachineTelemetry,
    node: u32,
    kind: FlightKind,
    detail: &str,
) -> Vec<&'a FlightEvent> {
    telemetry
        .flight
        .iter()
        .filter(|e| e.node == node && e.kind == kind && e.detail == detail)
        .collect()
}

#[test]
fn injected_schedule_appears_in_the_black_box() {
    let plan = FaultPlan::new(SEED)
        .with_event(FaultEvent::bit_error_rate(1, 0, 1e-6))
        .with_event(FaultEvent::mem_bit_flip(3, 0x100, 17));
    let (ledger, telemetry) = shift_run(plan);

    // Every wire corruption the plan scheduled left a flight event on
    // the afflicted node, stamped with the link it fired on — the event
    // count equals the ledger's injection counter exactly.
    let corrupt = events_of(&telemetry, 1, FlightKind::FaultInjected, "frame_corrupt");
    assert_eq!(
        corrupt.len() as u64,
        ledger.nodes[1].links[0].injected,
        "one frame_corrupt flight event per injected fault"
    );
    assert!(!corrupt.is_empty(), "the seeded 1e-6 draw must fire");
    assert!(corrupt.iter().all(|e| e.a == 0), "link index recorded");

    // Healing the corruption forced at least one go-back-N retry, and
    // the black box saw it.
    assert!(
        telemetry
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Retry && e.detail == "go_back_n"),
        "healing must leave a retry event: {}",
        telemetry.flight_dump(None)
    );

    // The memory flip on node 3 is recorded with its address and bit.
    let flips = events_of(&telemetry, 3, FlightKind::FaultInjected, "mem_flip");
    assert_eq!(flips.len(), 1);
    assert_eq!((flips[0].a, flips[0].b), (0x100, 17));

    // Per-node filtering: the dump for node 3 holds only node-3 lines.
    let dump3 = telemetry.flight_dump(Some(3));
    assert!(dump3.contains("node=3 fault_injected mem_flip a=256 b=17"));
    assert!(
        dump3.lines().all(|l| l.contains("node=3")),
        "filtered dump leaked other nodes: {dump3}"
    );
}

#[test]
fn deterministic_faults_dump_bit_identically() {
    // Memory flips and scheduled crashes are node-local (no wire
    // scheduling noise), so two runs of the same plan must produce
    // byte-identical black boxes.
    let plan = || {
        FaultPlan::new(7)
            .with_event(FaultEvent::mem_bit_flip(0, 0x200, 3))
            .with_event(FaultEvent::mem_bit_flip(2, 0x300, 41))
    };
    let run = |plan: FaultPlan| {
        let machine = ShardedMachine::new(TorusShape::new(&[4])).with_faults(plan);
        let (_, _, telemetry) =
            machine.run_with_telemetry(async |ctx| ctx.mem.read_word(0x200).unwrap());
        telemetry.flight_dump(None)
    };
    let first = run(plan());
    let second = run(plan());
    assert_eq!(first, second, "flight dump must be deterministic");
    assert!(first.contains("node=0 fault_injected mem_flip a=512 b=3"));
    assert!(first.contains("node=2 fault_injected mem_flip a=768 b=41"));
}

#[test]
fn wedge_reaches_the_host_ring_next_to_its_quarantine() {
    // The wedge verdict waits for a machine that can never move again, so
    // the evidence — who wedged, with what still pending — is the same at
    // every worker count, down to the byte.
    let host_dump = |workers: usize| {
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(2, 0, 0));
        let machine = ShardedMachine::new(TorusShape::new(&[4]))
            .with_faults(plan)
            .with_workers(workers);
        let (_, ledger, telemetry) = machine.run_with_telemetry(async |ctx| {
            ctx.mem.write_word(0x100, ctx.id.0 as u64).unwrap();
            ctx.shift_async(
                Axis(0).plus(),
                DmaDescriptor::contiguous(0x100, 1),
                DmaDescriptor::contiguous(0x200, 1),
            )
            .await;
        });
        // The host sweep quarantines the casualty and files its own event;
        // ingesting the node rings puts the whole story in one dump — the
        // artifact `qcsh qflight` renders.
        let mut q = Qdaemon::new(TorusShape::new(&[4, 1, 1, 1, 1, 1]));
        q.boot(&[]);
        q.ingest_health(&ledger).unwrap();
        q.ingest_flight(&telemetry.flight);
        q.flight_dump(None)
    };
    let dump = host_dump(1);
    assert!(dump.contains("quarantine mark_faulty a=2"), "{dump}");
    // Node 2's send is never acked; node 3 never receives.
    assert!(dump.contains("node=2 wedge silent_wire a=1 b=0"), "{dump}");
    assert!(dump.contains("node=3 wedge silent_wire a=0 b=1"), "{dump}");
    for workers in [2, 4] {
        assert_eq!(host_dump(workers), dump, "at {workers} workers");
    }
}

#[test]
fn dump_guard_leaves_an_artifact_matching_the_schedule() {
    let path = std::env::temp_dir().join("qcdoc_flight_acceptance_dump.txt");
    let _ = std::fs::remove_file(&path);
    let path_in = path.clone();
    let result = std::panic::catch_unwind(move || {
        let mut guard = FlightDumpGuard::new(&path_in);
        let plan = FaultPlan::new(9).with_event(FaultEvent::mem_bit_flip(1, 0x400, 5));
        let (_, telemetry) = shift_run(plan);
        guard.extend(&telemetry.flight);
        // A synthetic assertion failure: the guard turns it into a
        // black-box artifact on the way down.
        panic!("synthetic test failure");
    });
    assert!(result.is_err());
    let dump = std::fs::read_to_string(&path).expect("panic must leave a flight dump");
    assert!(
        dump.contains("node=1 fault_injected mem_flip a=1024 b=5"),
        "dump must match the injected schedule: {dump}"
    );
    let _ = std::fs::remove_file(&path);
}
