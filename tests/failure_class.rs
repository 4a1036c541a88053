//! Property tests for the autonomic layer's two classification promises:
//!
//! 1. **Deterministic blame** — every injectable [`FaultKind`] charges one
//!    fixed [`FailureClass`] when it proves fatal, and the ledger-level
//!    classifier agrees with the kind-level table whenever the kind leaves
//!    health evidence at all. The verdict depends only on *what* broke,
//!    never on *which* node carried the evidence.
//! 2. **Convicted domains stay empty** — a requeued job is never placed
//!    on any node of its failure's convicted set, across arbitrary
//!    fail/retry rounds with arbitrary avoid sets; when the conviction
//!    blocks every shape in the menu, the job waits rather than trespass.

use proptest::prelude::*;
use qcdoc::fault::{classify_ledger, convicted_nodes, FailureClass, FaultKind, HealthLedger};
use qcdoc::geometry::TorusShape;
use qcdoc::sched::{
    JobId, JobSpec, JobStatus, Priority, SchedConfig, Scheduler, ShapeRequest, SimMesh,
    TenantConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One instance of every [`FaultKind`] variant, parameters drawn from the
/// three sampled integers so repeated calls with equal inputs are equal.
fn kind_of(tag: usize, a: u64, b: usize) -> FaultKind {
    match tag {
        0 => FaultKind::BitFlip {
            seq: a,
            first_bit: b,
            burst: 1 + b % 4,
        },
        1 => FaultKind::BitErrorRate {
            rate: (a % 100) as f64 / 1000.0,
        },
        2 => FaultKind::Stall {
            iteration: b,
            cycles: a,
        },
        3 => FaultKind::DeadLink { from_seq: a },
        4 => FaultKind::StuckLink { from_seq: a },
        5 => FaultKind::NodePause {
            iteration: b.is_multiple_of(2).then_some(b),
            cycles: a,
        },
        6 => FaultKind::NodeCrash { iteration: b },
        7 => FaultKind::MemBitFlip {
            addr: a * 8,
            bit: (b % 64) as u32,
        },
        8 => FaultKind::MemDoubleFlip {
            addr: a * 8,
            bit: (b % 64) as u32,
            bit2: ((b + 1) % 64) as u32,
        },
        _ => FaultKind::PayloadBurst {
            seq: a,
            first_bit: b,
            pairs: 1 + b % 8,
        },
    }
}

/// The pinned kind → class table: changing [`FailureClass::from_fault_kind`]
/// must be a deliberate edit here too.
fn pinned_class(kind: &FaultKind) -> FailureClass {
    match kind {
        FaultKind::BitFlip { .. }
        | FaultKind::BitErrorRate { .. }
        | FaultKind::Stall { .. }
        | FaultKind::NodePause { .. }
        | FaultKind::MemBitFlip { .. } => FailureClass::Transient,
        FaultKind::DeadLink { .. } | FaultKind::StuckLink { .. } => FailureClass::DeadLink,
        FaultKind::NodeCrash { .. } => FailureClass::NodeCrash,
        FaultKind::MemDoubleFlip { .. } => FailureClass::MachineCheck,
        FaultKind::PayloadBurst { .. } => FailureClass::LinkCorruption,
    }
}

/// Write the health evidence a fatal fault of this kind leaves on
/// `victim`, if the kind leaves ledger evidence at all ([`FaultKind::Stall`]
/// and [`FaultKind::NodePause`] are pure timing faults: counters stay
/// clean, so only the kind-level table can charge them).
fn leave_evidence(ledger: &mut HealthLedger, kind: &FaultKind, victim: u32, wire: usize) -> bool {
    use qcdoc::fault::Liveness;
    let node = ledger.node_mut(victim);
    match kind {
        FaultKind::BitFlip { .. } | FaultKind::BitErrorRate { .. } => {
            node.links[wire].resends = 2;
            node.links[wire].injected = 2;
        }
        FaultKind::MemBitFlip { .. } => node.ecc_corrected = 1,
        FaultKind::DeadLink { .. } => node.links[wire].dead = true,
        FaultKind::StuckLink { .. } => node.links[wire].retry_exhausted = true,
        FaultKind::NodeCrash { .. } => node.liveness = Liveness::Crashed { iteration: 3 },
        FaultKind::MemDoubleFlip { .. } => node.machine_checks = 1,
        FaultKind::PayloadBurst { .. } => node.links[wire].checksum_ok = Some(false),
        FaultKind::Stall { .. } | FaultKind::NodePause { .. } => return false,
    }
    true
}

proptest! {
    #[test]
    fn every_fault_kind_charges_one_deterministic_class(
        tag in 0usize..10, a in 0u64..10_000, b in 0usize..64,
    ) {
        let kind = kind_of(tag, a, b);
        let class = FailureClass::from_fault_kind(&kind);
        prop_assert_eq!(class, pinned_class(&kind), "kind {:?}", kind);
        // Deterministic: an identically-parameterised kind charges the
        // same class, and the class round-trips through its wire code.
        prop_assert_eq!(class, FailureClass::from_fault_kind(&kind_of(tag, a, b)));
        prop_assert_eq!(FailureClass::from_code(class.code()), Some(class));
    }

    #[test]
    fn ledger_verdict_matches_the_kind_and_ignores_the_victim(
        tag in 0usize..10, a in 0u64..10_000, b in 0usize..64,
        victim in 0u32..32, wire in 0usize..12,
    ) {
        let kind = kind_of(tag, a, b);
        let mut ledger = HealthLedger::new(32);
        if !leave_evidence(&mut ledger, &kind, victim, wire) {
            return Ok(()); // timing fault: no ledger evidence to classify
        }
        prop_assert_eq!(
            classify_ledger(&ledger),
            FailureClass::from_fault_kind(&kind),
            "kind {:?} on node {} wire {}", kind, victim, wire
        );
        // The conviction is victim-anchored for hard evidence and empty
        // for healed traffic — never somebody else's node.
        let convicted = convicted_nodes(&ledger);
        if pinned_class(&kind) == FailureClass::Transient {
            prop_assert!(convicted.is_empty(), "healed traffic convicts nobody");
        } else if !matches!(kind, FaultKind::MemDoubleFlip { .. })
            || ledger.nodes.iter().any(|n| n.node == victim && n.machine_checks > 0)
        {
            prop_assert!(convicted.contains(&victim), "{convicted:?}");
        }
    }
}

fn shape(extents: &[usize], groups: &[&[usize]]) -> ShapeRequest {
    ShapeRequest {
        extents: extents.to_vec(),
        groups: groups.iter().map(|g| g.to_vec()).collect(),
    }
}

/// Degradable menu on the [4,2,2,2,1,1] machine: 16, 8 or 4 nodes, every
/// shape spanning the full extent-4 leading axis.
fn menu() -> Vec<ShapeRequest> {
    vec![
        shape(&[4, 2, 2, 1, 1, 1], &[&[0], &[1], &[2]]),
        shape(&[4, 2, 1, 1, 1, 1], &[&[0], &[1]]),
        shape(&[4, 1, 1, 1, 1, 1], &[&[0]]),
    ]
}

/// Physical node ids inside a placed job's granted sub-box.
fn members(sched: &Scheduler, id: JobId) -> Vec<u32> {
    let job = sched.job(id).expect("job exists");
    let Some(placement) = job.placement.as_ref() else {
        return Vec::new();
    };
    let machine = sched.machine();
    let mut extents = job.spec.shapes[placement.shape_index].extents.clone();
    extents.resize(machine.rank(), 1);
    machine
        .coords()
        .filter(|c| {
            (0..machine.rank()).all(|ax| {
                let lo = placement.origin.get(ax);
                c.get(ax) >= lo && c.get(ax) < lo + extents[ax]
            })
        })
        .map(|c| machine.rank_of(c).0)
        .collect()
}

fn harness() -> (Scheduler, SimMesh, JobId) {
    let machine = TorusShape::new(&[4, 2, 2, 2, 1, 1]);
    let mut sched = Scheduler::new(
        machine.clone(),
        SchedConfig {
            retry_budget: 1000,
            holdoff_base: 1,
            ..SchedConfig::default()
        },
    );
    sched.add_tenant(
        "prop",
        TenantConfig {
            weight: 1.0,
            node_quota: usize::MAX,
            max_queued: usize::MAX,
        },
    );
    let mut mesh = SimMesh::new(machine);
    let id = sched
        .submit(JobSpec {
            tenant: "prop".into(),
            priority: Priority::Standard,
            shapes: menu(),
            work: u64::MAX / 2,
            preemptible: true,
        })
        .expect("quiet machine admits the job");
    sched.schedule(&mut mesh);
    (sched, mesh, id)
}

proptest! {
    #[test]
    fn requeue_placement_never_lands_in_the_convicted_domain(seed in 0u64..200) {
        let (mut sched, mut mesh, id) = harness();
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..8 {
            if sched.job(id).unwrap().status == JobStatus::Running {
                let mut avoid: Vec<u32> =
                    (0..rng.gen_range(0..6usize)).map(|_| rng.gen_range(0..32u32)).collect();
                avoid.sort_unstable();
                avoid.dedup();
                prop_assert!(sched.fail_job(id, FailureClass::DeadLink, &avoid, &mut mesh));
            }
            prop_assert!(sched.retry(id, &mut mesh), "round {round}");
            let job = sched.job(id).unwrap();
            if job.placement.is_some() {
                let avoid = job.avoid.clone();
                for m in members(&sched, id) {
                    prop_assert!(
                        !avoid.contains(&m),
                        "round {}: node {} of the new placement is convicted ({:?})",
                        round, m, avoid
                    );
                }
            }
        }
    }
}

#[test]
fn a_conviction_blocking_every_shape_parks_the_job() {
    let (mut sched, mut mesh, id) = harness();
    // Every menu shape spans the full extent-4 leading axis, so there are
    // eight axis-0 columns of four nodes each; convicting one node per
    // column leaves no admissible sub-box anywhere.
    let machine = sched.machine().clone();
    let blockade: Vec<u32> = machine
        .coords()
        .filter(|c| c.get(0) == 0)
        .map(|c| machine.rank_of(c).0)
        .collect();
    assert_eq!(blockade.len(), 8);
    assert!(sched.fail_job(id, FailureClass::MachineCheck, &blockade, &mut mesh));
    assert!(sched.retry(id, &mut mesh));
    let job = sched.job(id).unwrap();
    assert!(
        job.placement.is_none(),
        "no placement can dodge a node in every column: {:?}",
        job.placement
    );
    assert_ne!(job.status, JobStatus::Running);
    // The machine itself is fine — an unconvicted twin of the job places
    // immediately, so the blockade (not capacity) is what parks the job.
    let twin = sched
        .submit(JobSpec {
            tenant: "prop".into(),
            priority: Priority::Standard,
            shapes: menu(),
            work: 4,
            preemptible: true,
        })
        .expect("twin admits");
    sched.schedule(&mut mesh);
    assert_eq!(sched.job(twin).unwrap().status, JobStatus::Running);
}
