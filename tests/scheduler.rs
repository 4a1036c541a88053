//! Experiment E13: multi-tenant scheduling on the 12,288-node machine.
//!
//! The paper's §3.1 partitioning story — many independent user partitions
//! carved from one mesh "without moving cables" — is only an operations
//! win if the host can run a mixed workload for a long time without
//! starving anyone, without letting any tenant exceed its share of the
//! machine, and without preemption ever costing a bit of physics. This
//! file is that claim, compressed:
//!
//! * a seeded soak of 240 mixed-tenant jobs on the full [8,8,6,4,4,2]
//!   shape, asserting zero starvation, bounded waits, and per-tenant
//!   quota high-water marks;
//! * a determinism replay on a smaller machine (same seed → byte-equal
//!   decision logs);
//! * the crown jewel: a CG solve preempted mid-run by a production job,
//!   resumed on a *different partition shape*, producing a solution
//!   bit-identical to the uninterrupted run.

use qcdoc::geometry::TorusShape;
use qcdoc::host::Qdaemon;
use qcdoc::lattice::checkpoint::{read_checkpoint, write_checkpoint};
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::solver::{resume_cgne, solve_cgne_checkpointed, CgParams};
use qcdoc::lattice::wilson::WilsonDirac;
use qcdoc::sched::{
    JobSpec, JobStatus, Priority, SchedConfig, SchedEvent, Scheduler, ShapeRequest, SimMesh,
    TenantConfig,
};
use qcdoc::telemetry::FlightDumpGuard;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full installation of the paper: 8 x 8 x 6 x 4 x 4 x 2 = 12,288.
fn big_machine() -> TorusShape {
    TorusShape::new(&[8, 8, 6, 4, 4, 2])
}

fn shape(extents: &[usize], groups: &[&[usize]]) -> ShapeRequest {
    ShapeRequest {
        extents: extents.to_vec(),
        groups: groups.iter().map(|g| g.to_vec()).collect(),
    }
}

/// Valid partition shapes of the big machine, largest first. Every
/// multi-axis group ends on an extent-2 axis (or spans the full machine
/// extent), so each ring closes with unit dilation.
fn shape_menu() -> Vec<ShapeRequest> {
    vec![
        shape(&[8, 8, 6, 4, 4, 2], &[&[0], &[1], &[2], &[3], &[4], &[5]]), // 12288
        shape(&[8, 8, 6, 4, 4, 1], &[&[0], &[1], &[2], &[3], &[4]]),       // 6144
        shape(&[8, 8, 6, 4, 2, 1], &[&[0], &[1], &[2], &[3, 4]]),          // 3072
        shape(&[8, 8, 6, 2, 2, 1], &[&[0], &[1], &[2], &[3, 4]]),          // 1536
        shape(&[8, 8, 6, 2, 1, 1], &[&[0], &[1], &[2, 3]]),                // 768
        shape(&[8, 8, 2, 2, 1, 1], &[&[0], &[1], &[2, 3]]),                // 256
        shape(&[8, 2, 2, 1, 1, 1], &[&[0], &[1, 2]]),                      // 32
        shape(&[2, 2, 1, 1, 1, 1], &[&[0, 1]]),                            // 4
    ]
}

/// Tenant mix: a flagship group entitled to the whole machine, two
/// mid-size groups with hard node quotas, and a scavenger account.
fn add_tenants(sched: &mut Scheduler) {
    sched.add_tenant(
        "alpha",
        TenantConfig {
            weight: 2.0,
            node_quota: 12_288,
            max_queued: usize::MAX,
        },
    );
    sched.add_tenant(
        "beta",
        TenantConfig {
            weight: 1.0,
            node_quota: 6_144,
            max_queued: usize::MAX,
        },
    );
    sched.add_tenant(
        "gamma",
        TenantConfig {
            weight: 1.0,
            node_quota: 3_072,
            max_queued: usize::MAX,
        },
    );
    sched.add_tenant(
        "scav",
        TenantConfig {
            weight: 0.25,
            node_quota: 12_288,
            max_queued: usize::MAX,
        },
    );
}

/// Drive one seeded soak against a simulated mesh; returns the scheduler
/// after a full drain (panics if the queue cannot drain).
fn run_soak(machine: TorusShape, jobs: usize, seed: u64, aging_ticks: u64) -> Scheduler {
    let mut sched = Scheduler::new(
        machine.clone(),
        SchedConfig {
            aging_ticks,
            window: 8,
            ..SchedConfig::default()
        },
    );
    add_tenants(&mut sched);
    let mut mesh = SimMesh::new(machine.clone());
    let menu: Vec<ShapeRequest> = shape_menu()
        .into_iter()
        .filter(|s| s.node_count() <= machine.node_count())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let tenants = ["alpha", "beta", "gamma", "scav"];
    let quotas = [12_288usize, 6_144, 3_072, 12_288];
    for _ in 0..jobs {
        let t = rng.gen_range(0..tenants.len());
        let priority = match rng.gen_range(0..10) {
            0 => Priority::Production,
            1..=6 => Priority::Standard,
            _ => Priority::Scavenger,
        };
        // Primary shape within quota plus the next smaller size as an
        // alternate: enough flexibility for a preempted job to resume
        // in a different hole, not so much that big jobs always
        // degrade to crumbs instead of preempting.
        let affordable: Vec<&ShapeRequest> = menu
            .iter()
            .filter(|s| s.node_count() <= quotas[t])
            .collect();
        let first = rng.gen_range(0..affordable.len());
        let shapes: Vec<ShapeRequest> = affordable[first..]
            .iter()
            .take(2)
            .map(|&s| s.clone())
            .collect();
        let work = rng.gen_range(2..=24u64);
        sched
            .submit(JobSpec {
                tenant: tenants[t].into(),
                priority,
                shapes,
                work,
                preemptible: true,
            })
            .expect("soak submissions are all admissible");
        let lull = rng.gen_range(0..=2u64);
        if lull > 0 {
            sched.advance(
                lull.min(sched.next_completion_in().unwrap_or(lull)),
                &mut mesh,
            );
        }
    }
    assert!(
        sched.drain(&mut mesh, 200_000),
        "soak queue failed to drain"
    );
    assert_eq!(mesh.free_count(), machine.node_count(), "nodes leaked");
    sched
}

#[test]
fn soak_240_jobs_on_the_full_machine_no_starvation_no_quota_breach() {
    let aging = 48;
    let sched = run_soak(big_machine(), 240, 2004, aging);

    // If any assertion below fails, the scheduler's flight ring
    // (checkpoints, preemptions, resumes) lands in target/ as a black
    // box instead of leaving only a backtrace.
    let mut flight_guard = FlightDumpGuard::new("target/flight_sched_soak.txt");
    let flight: Vec<_> = sched.flight_recorder().events().copied().collect();
    flight_guard.extend(&flight);

    // Zero starvation: every admitted job started and completed.
    let mut max_wait = 0;
    for job in sched.jobs() {
        assert_eq!(
            job.status,
            JobStatus::Completed,
            "{} ({}, {}) never completed",
            job.id,
            job.spec.tenant,
            job.spec.priority.label()
        );
        assert!(job.first_started_at.is_some());
        max_wait = max_wait.max(job.wait_ticks);
    }
    // Bounded wait: strict aging makes a starving job a backfill
    // barrier, so no wait can grow past the aging threshold by more
    // than the drain time of the jobs already holding nodes (work is
    // capped at 24 ticks; the factor covers preempt-requeue episodes
    // and queued starving jobs draining in turn).
    assert!(
        max_wait < aging + 24 * 16,
        "a job waited {max_wait} ticks — starvation guard failed"
    );

    // Quota enforcement witness: high-water concurrent nodes per tenant.
    for (tenant, quota) in [
        ("alpha", 12_288),
        ("beta", 6_144),
        ("gamma", 3_072),
        ("scav", 12_288),
    ] {
        let stats = sched.tenant_stats(tenant).unwrap();
        assert!(
            stats.max_running_nodes <= quota,
            "{tenant} peaked at {} nodes over its quota {quota}",
            stats.max_running_nodes
        );
        assert_eq!(stats.completed + stats.canceled, stats.submitted);
        assert!(stats.completed > 0, "{tenant} ran nothing in the soak");
    }

    // The mix actually exercised the policy: the machine was busy, and
    // preemption fired at least once.
    assert!(
        sched.occupancy_ratio() > 0.5,
        "soak occupancy only {:.2}",
        sched.occupancy_ratio()
    );
    assert!(sched.preemptions() > 0, "soak never exercised preemption");
}

#[test]
fn same_seed_same_decisions() {
    // A smaller machine keeps the replay cheap; the policy code path is
    // identical. Byte-equal decision logs mean every placement, every
    // preemption and every completion landed on the same tick.
    let machine = TorusShape::new(&[8, 2, 2, 2, 1, 1]);
    let log = |seed| {
        let sched = run_soak(machine.clone(), 80, seed, 32);
        format!("{:?}", sched.events())
    };
    assert_eq!(log(7), log(7));
    // And the log is not trivially empty or seed-independent.
    assert_ne!(log(7), log(8));
}

#[test]
fn preempted_cg_resumes_on_a_different_shape_bit_identically() {
    // Physics setup: one Wilson CG solve, solved once uninterrupted
    // with a checkpoint taken at every iteration boundary.
    let lat = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(lat, 2004);
    let op = WilsonDirac::new(&gauge, 0.12);
    let b = FermionField::gaussian(lat, 11);
    let params = CgParams::default();
    let mut x_ref = FermionField::zero(lat);
    let mut sink = Vec::new();
    let reference = solve_cgne_checkpointed(&op, &mut x_ref, &b, params, 1, &mut sink);
    assert!(reference.iterations > 20, "need a nontrivial solve");

    // Host setup: a real qdaemon as the scheduler's mesh. One tick of
    // scheduler time is one CG iteration of service.
    let machine = TorusShape::new(&[4, 2, 2]);
    let mut q = Qdaemon::new(machine.clone());
    q.boot(&[]);
    let mut sched = Scheduler::new(machine, SchedConfig::default());
    sched.add_tenant("lqcd", TenantConfig::default());
    sched.add_tenant("urgent", TenantConfig::default());
    // Whole machine folded to [8,2], with a half-machine [8] fallback.
    let whole = shape(&[4, 2, 2], &[&[0, 1], &[2]]);
    let half = shape(&[4, 2, 1], &[&[0, 1]]);
    let cg = sched
        .submit(JobSpec {
            tenant: "lqcd".into(),
            priority: Priority::Scavenger,
            shapes: vec![whole, half.clone()],
            work: reference.iterations as u64,
            preemptible: true,
        })
        .unwrap();
    sched.schedule(&mut q);
    let rec = sched.job(cg).unwrap();
    assert_eq!(rec.status, JobStatus::Running);
    assert_eq!(rec.placement.as_ref().unwrap().logical.dims(), &[8, 2]);
    assert_eq!(q.census().busy, 16);

    // Seven iterations of service, then a production job arrives
    // needing a half machine no hole can satisfy: the CG job is evicted.
    sched.advance(7, &mut q);
    let prod = sched
        .submit(JobSpec {
            tenant: "urgent".into(),
            priority: Priority::Production,
            shapes: vec![half],
            work: 1_000,
            preemptible: false,
        })
        .unwrap();
    sched.schedule(&mut q);
    assert_eq!(sched.job(cg).unwrap().status, JobStatus::Preempted);
    assert_eq!(sched.job(prod).unwrap().status, JobStatus::Running);
    let delivered = reference.iterations as u64 - sched.job(cg).unwrap().remaining;
    assert_eq!(delivered, 7, "preemption must land mid-solve");

    // The driver answers the Preempted event by archiving the exact-bits
    // checkpoint at the iteration boundary the scheduler stopped on.
    let boundary = sink
        .iter()
        .find(|c| c.iterations == delivered as usize)
        .expect("per-iteration sink has the boundary");
    sched.store_checkpoint(cg, write_checkpoint(boundary));

    // Next pass: the whole-machine shape no longer exists (production
    // holds a half), so the job resumes on the *other* half — a
    // different partition shape than it started on.
    sched.schedule(&mut q);
    let rec = sched.job(cg).unwrap();
    assert_eq!(rec.status, JobStatus::Running);
    assert_eq!(rec.preemptions, 1);
    assert_eq!(rec.shape_history[0].dims(), &[8, 2]);
    assert_eq!(
        rec.shape_history[1].dims(),
        &[8],
        "resume must change shape"
    );
    assert!(sched
        .events()
        .iter()
        .any(|e| matches!(e, SchedEvent::Preempted { job, by, .. } if *job == cg && *by == prod)));
    assert!(sched
        .events()
        .iter()
        .any(|e| matches!(e, SchedEvent::Resumed { job, .. } if *job == cg)));

    // The driver answers the Resumed event by rebuilding solver state
    // from the blob — validated resume, then run to convergence.
    let blob = sched
        .take_checkpoint(cg)
        .expect("blob travels with the job");
    let restored = read_checkpoint(&blob).unwrap();
    let template = FermionField::zero(lat);
    let (x_res, resumed_report) = resume_cgne(&op, &template, &restored, params).unwrap();

    // Bit-identity: the preempted-and-migrated solve equals the
    // uninterrupted one in all bits — solution, residual history, totals.
    assert_eq!(x_ref.fingerprint(), x_res.fingerprint());
    assert_eq!(reference, resumed_report);
    for (a, b) in reference
        .residuals
        .iter()
        .zip(resumed_report.residuals.iter())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "residual history diverged");
    }

    // Bookkeeping drains: both jobs run out, the machine comes back.
    assert!(sched.drain(&mut q, 10_000));
    assert_eq!(sched.job(cg).unwrap().status, JobStatus::Completed);
    assert_eq!(q.census().ready, 16);
}
