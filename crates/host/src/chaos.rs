//! The chaos soak: the whole autonomic loop under continuous fire.
//!
//! The paper's operational claim (§4) is not that QCDOC hardware never
//! fails — it is that week-long campaigns *finish*, bit-identically,
//! on a machine where links die, nodes crash, memory rots and the host
//! RAID hiccups. This module compresses that week into a seeded soak:
//!
//! * a multi-tenant job mix runs under the scheduler on a live
//!   [`Qdaemon`], checkpointing durably into a [`JobVault`];
//! * a deterministic fault schedule strikes running jobs with every
//!   failure family at once — dead links, node crashes, wedges,
//!   uncorrectable machine checks, link corruption, and storage faults
//!   aimed at the checkpoint traffic;
//! * each strike drives the detect half of the loop: health evidence →
//!   [`qcdoc_fault::classify_ledger`] → quarantine →
//!   [`qcdoc_sched::Scheduler::fail_job`] (checkpoint rollback,
//!   exponential hold-off, failure-domain-avoiding requeue);
//! * the repair pipeline ([`Qdaemon::repair_admit`] /
//!   [`Qdaemon::repair_tick`]) runs concurrently, returning healthy
//!   nodes to the spare pool and blacklisting the seeded "lemons";
//! * optionally the qdaemon process is killed mid-soak: the scheduler
//!   snapshot is parked in the vault under [`qcdoc_sched::STATE_JOB`],
//!   a fresh daemon boots over the surviving disks, and the restored
//!   scheduler must resume the *same* event log.
//!
//! The [`ChaosReport`] carries the machine-level SLOs the acceptance
//! tests and the `chaos` bench gate: zero lost jobs, goodput under
//! fault load, capacity recovered after repair, and — for the tracked
//! CG jobs — a final solve **bit-identical** to the fault-free digest.

use crate::ckstore::JobVault;
use crate::nfs::NfsServer;
use crate::qdaemon::{NodeState, Qdaemon};
use qcdoc_fault::{
    classify_ledger, convicted_nodes, FailureClass, HealthLedger, Liveness, StorageFault,
    StorageFaultPlan,
};
use qcdoc_geometry::{NodeId, TorusShape};
use qcdoc_lattice::checkpoint::write_checkpoint;
use qcdoc_lattice::solver::{resume_cgne, solve_cgne, solve_cgne_checkpointed, CgParams};
use qcdoc_lattice::wilson::WilsonDirac;
use qcdoc_lattice::{CgCheckpoint, FermionField, GaugeField, Lattice};
use qcdoc_sched::{
    CheckpointVault, JobId, JobSpec, JobStatus, Priority, SchedConfig, SchedEvent, Scheduler,
    ShapeRequest, TenantConfig, STATE_JOB,
};
use qcdoc_telemetry::{Histogram, MetricValue, MetricsRegistry};
use std::borrow::Borrow;
use std::collections::HashMap;

/// SplitMix64: the soak's only source of randomness, fully determined
/// by the config seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Ticks between durable checkpoint rounds during the soak window. A model
/// choice, like every soak period: the papers give no cadence.
const CKPT_PERIOD: u64 = 5;

/// Ticks between repair-pipeline ticks (a model choice).
const REPAIR_PERIOD: u64 = 3;

/// Tunables of one chaos soak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the fault schedule, job mix, and lemon draw. Same seed,
    /// same machine history, byte for byte.
    pub seed: u64,
    /// Physical machine shape.
    pub machine: TorusShape,
    /// Background (untracked) jobs in the mix.
    pub jobs: usize,
    /// CG jobs whose final solve is checked bit-identical against a
    /// fault-free reference.
    pub tracked_solves: usize,
    /// Ticks between fault strikes during the soak window.
    pub fault_period: u64,
    /// Fault injection stops at this tick; the soak then drains.
    pub soak_ticks: u64,
    /// Kill and restart the qdaemon at this tick (`None` = never).
    pub restart_at: Option<u64>,
    /// Permanently-bad nodes drawn from the seed: they fail every
    /// burn-in until blacklisted.
    pub lemons: usize,
    /// Hard bound on total soak ticks (a stuck soak is a test failure,
    /// not a hang).
    pub max_ticks: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 4096,
            machine: TorusShape::new(&[4, 2, 2, 2, 1, 1]),
            jobs: 8,
            tracked_solves: 2,
            fault_period: 11,
            soak_ticks: 420,
            restart_at: None,
            lemons: 2,
            max_ticks: 6000,
        }
    }
}

/// What the soak measured — the SLO surface the tests and bench gate.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Final virtual clock.
    pub clock: u64,
    /// Jobs that delivered all their work.
    pub completed: u64,
    /// Jobs lost: terminally failed or cancelled. The headline SLO
    /// gates this at zero.
    pub lost: u64,
    /// Failure requeues the scheduler performed.
    pub requeues: u64,
    /// Machine-side fault strikes injected.
    pub failures_injected: u64,
    /// Storage-side strikes injected into the vault's NFS server.
    pub storage_faults_injected: u64,
    /// Durable checkpoint writes that failed under storage fire.
    pub storage_failures: u64,
    /// Nodes the repair pipeline returned to the spare pool.
    pub repaired: u64,
    /// Nodes stickily blacklisted.
    pub blacklisted: u64,
    /// Delivered-minus-wasted service over capacity (the scheduler's
    /// goodput ratio at drain end).
    pub goodput: f64,
    /// Allocatable nodes (ready + spare) when the soak ended.
    pub capacity_end: usize,
    /// Physical node count, for the capacity ratio.
    pub node_count: usize,
    /// Tracked CG jobs whose post-soak resume matched the fault-free
    /// fingerprint.
    pub tracked_matches: usize,
    /// Tracked CG jobs total.
    pub tracked_total: usize,
    /// Failed → Requeued latency in ticks, per requeue.
    pub requeue_latency: Histogram,
    /// After a mid-soak restart: whether the restored scheduler's event
    /// log was byte-identical to the pre-kill log. `None` when no
    /// restart was scheduled.
    pub restart_log_resumed: Option<bool>,
    /// FNV-1a digest of the full event log — the determinism handle.
    pub event_digest: u64,
    /// FNV-1a digest of the daemon's metrics registry
    /// ([`Qdaemon::metrics`]) when the soak ended: every series the soak
    /// left there, node gauges included, key and value.
    pub registry_digest: u64,
    /// Number of scheduler events.
    pub event_count: usize,
    /// Placement searches the scheduler ran
    /// ([`Scheduler::fit_searches`], summed across a restart).
    pub fit_searches: u64,
    /// Whether the scheduler drained to `Done` (every job terminal).
    pub drained: bool,
}

impl ChaosReport {
    /// Allocatable fraction of the machine at soak end.
    pub fn capacity_ratio(&self) -> f64 {
        self.capacity_end as f64 / self.node_count.max(1) as f64
    }
}

/// The fault families the schedule rotates through.
const FAMILIES: u64 = 6;

/// The global lattice of the tracked CG jobs — small enough to solve in
/// milliseconds, large enough for a nontrivial iteration count.
fn tracked_lattice() -> Lattice {
    Lattice::new([4, 4, 2, 2])
}

/// The fault-free reference for the tracked solves: solution
/// fingerprint, per-iteration checkpoints, and iteration count.
struct TrackedReference {
    fingerprint: u64,
    sink: Vec<CgCheckpoint>,
    iterations: u64,
}

fn tracked_reference(seed: u64) -> TrackedReference {
    let lat = tracked_lattice();
    let gauge = GaugeField::hot(lat, 21 ^ seed);
    let op = WilsonDirac::new(&gauge, 0.12);
    let b = FermionField::gaussian(lat, 22 ^ seed);
    let mut x = FermionField::zero(lat);
    let mut sink = Vec::new();
    let report = solve_cgne_checkpointed(&op, &mut x, &b, CgParams::default(), 1, &mut sink);
    assert!(report.converged, "reference solve must converge");
    TrackedReference {
        fingerprint: x.fingerprint(),
        sink,
        iterations: report.iterations as u64,
    }
}

/// Shape menu every chaos job submits: a half-machine box degrading to a
/// quarter and an eighth, so quarantine never strands a job with a
/// single all-or-nothing shape.
fn shape_menu(machine: &TorusShape) -> Vec<ShapeRequest> {
    let dims = machine.dims();
    let mut menu = Vec::new();
    // Largest first: the full leading axis crossed with progressively
    // fewer of the remaining axes, each kept at full extent (partition
    // validity: grouped single axes must span their physical extent).
    for keep in (1..=dims.len().min(3)).rev() {
        let mut extents = vec![1; dims.len()];
        let mut groups = Vec::new();
        for (axis, extent) in dims.iter().take(keep).enumerate() {
            extents[axis] = *extent;
            groups.push(vec![axis]);
        }
        menu.push(ShapeRequest { extents, groups });
    }
    menu
}

/// Synthesize the health evidence one fault family leaves behind, aimed
/// at `victim`: a ledger with one report, the victim's.
pub(crate) fn evidence_for(family: u64, victim: u32, node_count: usize, tick: u64) -> HealthLedger {
    let mut ledger = HealthLedger::new(node_count);
    let nh = ledger.node_mut(victim);
    match family {
        0 => nh.links[(tick % 12) as usize].dead = true,
        1 => {
            nh.liveness = Liveness::Crashed {
                iteration: tick as usize,
            }
        }
        2 => nh.liveness = Liveness::Wedged,
        3 => nh.machine_checks = 1,
        4 => nh.links[(tick % 12) as usize].checksum_ok = Some(false),
        _ => unreachable!("machine families are 0..5"),
    }
    ledger
}

/// One running chaos soak. Owns the scheduler, daemon and vault so the
/// restart path can tear them down and rebuild from the disks.
struct Soak {
    cfg: ChaosConfig,
    rng: Rng,
    sched: Scheduler,
    q: Qdaemon,
    vault: JobVault,
    reference: TrackedReference,
    tracked: Vec<JobId>,
    lemons: Vec<u32>,
    events_seen: usize,
    failed_at: HashMap<u64, u64>,
    report: ChaosReport,
}

const VAULT_ROOT: &str = "/data/vault";

impl Soak {
    fn new(cfg: ChaosConfig) -> Soak {
        let mut rng = Rng(cfg.seed);
        let node_count = cfg.machine.node_count();
        let mut lemons = Vec::new();
        while lemons.len() < cfg.lemons.min(node_count / 4) {
            let n = rng.below(node_count as u64) as u32;
            if !lemons.contains(&n) {
                lemons.push(n);
            }
        }

        let mut q = Qdaemon::new(cfg.machine.clone());
        q.boot(&[]);
        let vault = JobVault::new(NfsServer::new(&["/data"], 1 << 26), VAULT_ROOT);
        let mut sched = Scheduler::new(
            cfg.machine.clone(),
            SchedConfig {
                // Generous budget: the soak's SLO is zero lost jobs, so
                // the budget must outlast the densest plausible streak
                // of convictions against one unlucky job.
                retry_budget: 12,
                holdoff_base: 2,
                ..SchedConfig::default()
            },
        );
        for tenant in ["alpha", "beta", "gamma"] {
            sched.add_tenant(tenant, TenantConfig::default());
        }

        let reference = tracked_reference(cfg.seed);
        let menu = shape_menu(&cfg.machine);
        let mut tracked = Vec::new();
        for i in 0..cfg.tracked_solves {
            let id = sched
                .submit(JobSpec {
                    tenant: "alpha".into(),
                    priority: Priority::Production,
                    shapes: menu.clone(),
                    work: reference.iterations,
                    preemptible: true,
                })
                .unwrap_or_else(|e| panic!("tracked job {i} refused: {e}"));
            tracked.push(id);
        }
        for i in 0..cfg.jobs {
            let tenant = ["alpha", "beta", "gamma"][i % 3];
            let priority = [
                Priority::Scavenger,
                Priority::Standard,
                Priority::Production,
            ][(rng.below(3)) as usize];
            sched
                .submit(JobSpec {
                    tenant: tenant.into(),
                    priority,
                    shapes: menu.clone(),
                    work: 40 + rng.below(80),
                    preemptible: true,
                })
                .unwrap_or_else(|e| panic!("chaos job {i} refused: {e}"));
        }

        let report = ChaosReport {
            clock: 0,
            completed: 0,
            lost: 0,
            requeues: 0,
            failures_injected: 0,
            storage_faults_injected: 0,
            storage_failures: 0,
            repaired: 0,
            blacklisted: 0,
            goodput: 0.0,
            capacity_end: 0,
            node_count,
            tracked_matches: 0,
            tracked_total: cfg.tracked_solves,
            requeue_latency: Histogram::default(),
            restart_log_resumed: None,
            event_digest: 0,
            registry_digest: 0,
            event_count: 0,
            fit_searches: 0,
            drained: false,
        };
        Soak {
            cfg,
            rng,
            sched,
            q,
            vault,
            reference,
            tracked,
            lemons,
            events_seen: 0,
            failed_at: HashMap::new(),
            report,
        }
    }

    /// Member node ids of a running job's partition, in ascending rank.
    fn members(&self, id: JobId) -> Vec<u32> {
        let partition = self
            .sched
            .job(id)
            .and_then(|job| job.placement.as_ref())
            .and_then(|placement| self.q.partition(placement.partition));
        partition.map_or_else(Vec::new, |p| p.members().map(|n| n.0).collect())
    }

    /// The durable-checkpoint round: every running job parks a blob.
    /// Tracked jobs park the genuine CG checkpoint at their delivered
    /// iteration; background jobs park a synthetic blob. A hard storage
    /// error is itself a failure: the job is failed with class
    /// [`FailureClass::Storage`].
    fn checkpoint_round(&mut self) {
        let running: Vec<JobId> = {
            let mut ids: Vec<JobId> = self
                .sched
                .jobs()
                .filter(|j| j.status == JobStatus::Running)
                .map(|j| j.id)
                .collect();
            ids.sort();
            ids
        };
        for id in running {
            let job = self.sched.job(id).expect("running job");
            let delivered = job.spec.work - job.remaining;
            let blob = if self.tracked.contains(&id) {
                // The genuine exact-bits checkpoint at this service level.
                match self
                    .reference
                    .sink
                    .iter()
                    .find(|c| c.iterations as u64 == delivered)
                {
                    Some(ckpt) => write_checkpoint(ckpt),
                    None => continue, // before the first iteration boundary
                }
            } else {
                let mut b = format!("chaos-job-{}-", id.0).into_bytes();
                b.extend_from_slice(&delivered.to_le_bytes());
                b
            };
            if self
                .sched
                .store_checkpoint(id, &blob, &mut self.vault)
                .is_err()
            {
                // The RAID failed the save past its bounded retries:
                // detect, classify as a storage loss, requeue.
                self.report.storage_failures += 1;
                self.sched
                    .fail_job(id, FailureClass::Storage, &[], &mut self.q);
            }
        }
    }

    /// One fault strike from the schedule: five machine-side families
    /// plus the storage family, rotated by the seed.
    fn strike(&mut self, tick: u64) {
        let family = self.rng.below(FAMILIES);
        if family == 5 {
            self.storage_strike();
            return;
        }
        let running: Vec<JobId> = {
            let mut ids: Vec<JobId> = self
                .sched
                .jobs()
                .filter(|j| j.status == JobStatus::Running)
                .map(|j| j.id)
                .collect();
            ids.sort();
            ids
        };
        if running.is_empty() {
            return;
        }
        let victim_job = running[self.rng.below(running.len() as u64) as usize];
        let members = self.members(victim_job);
        if members.is_empty() {
            return;
        }
        let victim = members[self.rng.below(members.len() as u64) as usize];
        let ledger = evidence_for(family, victim, self.report.node_count, tick);
        let class = classify_ledger(&ledger);
        let convicted = convicted_nodes(&ledger);
        self.q
            .ingest_health(&ledger)
            .expect("the evidence ledger covers the machine");
        self.sched
            .fail_job(victim_job, class, &convicted, &mut self.q);
        self.report.failures_injected += 1;
    }

    /// A storage strike: alternate transient-error bursts at the next
    /// checkpoint writes with bit rot on a committed generation.
    fn storage_strike(&mut self) {
        let rot = self.rng.below(2) == 0;
        let seed = self.rng.next();
        if rot {
            let committed: Vec<String> = self
                .vault
                .nfs()
                .list(VAULT_ROOT)
                .into_iter()
                .filter(|p| p.contains("/gen-"))
                .collect();
            if let Some(path) = committed
                .get(self.rng.below(committed.len().max(1) as u64) as usize)
                .cloned()
            {
                let byte = self.rng.below(64);
                let bit = (self.rng.below(8)) as u8;
                self.vault
                    .nfs_mut()
                    .inject(
                        &StorageFaultPlan::new(seed).with_event(StorageFault::BitRot {
                            path,
                            from_op: 0,
                            byte,
                            bit,
                        }),
                    );
                self.report.storage_faults_injected += 1;
            }
        } else {
            let op = self.vault.nfs().ops();
            let write_op = self.vault.nfs().write_ops();
            self.vault.nfs_mut().inject(
                &StorageFaultPlan::new(seed)
                    .with_event(StorageFault::Transient { op, count: 2 })
                    .with_event(StorageFault::TornWrite {
                        write_op,
                        keep: None,
                    }),
            );
            self.report.storage_faults_injected += 1;
        }
    }

    /// Advance the repair pipeline one tick; lemons fail burn-in.
    fn repair_round(&mut self) {
        self.q.repair_admit();
        let lemons = self.lemons.clone();
        let tick = self.q.repair_tick(&mut |node| !lemons.contains(&node));
        self.report.repaired += tick.returned.len() as u64;
        self.report.blacklisted += tick.blacklisted.len() as u64;
    }

    /// Fold newly-appended scheduler events into the latency histogram.
    fn absorb_events(&mut self) {
        let events = self.sched.events();
        for event in &events[self.events_seen..] {
            match event {
                SchedEvent::Failed { job, at, .. } => {
                    self.failed_at.insert(job.0, *at);
                }
                SchedEvent::Requeued { job, at } => {
                    if let Some(failed) = self.failed_at.remove(&job.0) {
                        self.report
                            .requeue_latency
                            .observe(at.saturating_sub(failed));
                    }
                }
                _ => {}
            }
        }
        self.events_seen = events.len();
    }

    /// Kill the qdaemon process mid-soak and restart over the surviving
    /// disks: scheduler snapshot through the vault, fresh daemon boot
    /// with the quarantine re-applied, running jobs checkpoint-requeued
    /// without charging their retry budgets.
    fn restart(&mut self) {
        let prekill: Vec<String> = self
            .sched
            .events()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        self.report.fit_searches += self.sched.fit_searches();
        let bytes = self.sched.save_state();
        self.vault
            .store(STATE_JOB, &bytes)
            .expect("scheduler snapshot must park durably");

        // The process dies. Only the disks — the NFS server inside the
        // vault — survive. Node states are re-derived from what the old
        // daemon knew (operationally: the host's quarantine file).
        let node_count = self.report.node_count;
        let faulty: Vec<u32> = (0..node_count as u32)
            .filter(|&n| {
                matches!(
                    self.q.node_state(NodeId(n)),
                    NodeState::Faulty | NodeState::Blacklisted
                )
            })
            .collect();
        let blacklisted: Vec<u32> = (0..node_count as u32)
            .filter(|&n| self.q.node_state(NodeId(n)) == NodeState::Blacklisted)
            .collect();

        let old_vault = std::mem::replace(
            &mut self.vault,
            JobVault::new(NfsServer::new(&["/data"], 1), VAULT_ROOT),
        );
        self.vault = JobVault::new(old_vault.into_server(), VAULT_ROOT);
        let saved = self
            .vault
            .load(STATE_JOB)
            .expect("snapshot readable")
            .expect("snapshot present");
        self.sched = Scheduler::restore_state(&saved).expect("snapshot restores");
        let resumed: Vec<String> = self
            .sched
            .events()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        self.report.restart_log_resumed = Some(resumed == prekill);
        self.events_seen = self.events_seen.min(resumed.len());

        self.q = Qdaemon::new(self.cfg.machine.clone());
        self.q.boot(&faulty);
        for n in blacklisted {
            self.q.blacklist(NodeId(n));
        }
        self.sched.recover_after_restart();
        self.sched.schedule(&mut self.q);
    }

    /// Verify every tracked job: resume from its newest durable
    /// generation (or solve fresh if it never checkpointed) and compare
    /// fingerprints with the fault-free reference.
    fn verify_tracked(&mut self) {
        let lat = tracked_lattice();
        let gauge = GaugeField::hot(lat, 21 ^ self.cfg.seed);
        let op = WilsonDirac::new(&gauge, 0.12);
        let b = FermionField::gaussian(lat, 22 ^ self.cfg.seed);
        for &id in &self.tracked.clone() {
            let done = self
                .sched
                .job(id)
                .map(|j| j.status == JobStatus::Completed)
                .unwrap_or(false);
            if !done {
                continue;
            }
            let fingerprint = match self.vault.load(id) {
                Ok(Some(blob)) => {
                    let Ok(ckpt) = qcdoc_lattice::checkpoint::read_checkpoint(&blob) else {
                        continue;
                    };
                    let template = FermionField::zero(lat);
                    match resume_cgne(&op, &template, &ckpt, CgParams::default()) {
                        Ok((x, _)) => x.fingerprint(),
                        Err(_) => continue,
                    }
                }
                // Never durably checkpointed (or discarded): the job ran
                // fault-free start to finish — solve fresh.
                _ => {
                    let mut x = FermionField::zero(lat);
                    solve_cgne(&op, &mut x, &b, CgParams::default());
                    x.fingerprint()
                }
            };
            if fingerprint == self.reference.fingerprint {
                self.report.tracked_matches += 1;
            }
        }
    }

    fn run(mut self) -> ChaosReport {
        self.sched.schedule(&mut self.q);
        let mut tick: u64 = 0;
        while tick < self.cfg.max_ticks {
            if self.cfg.restart_at == Some(tick) {
                self.restart();
            }
            if tick > 0 && tick < self.cfg.soak_ticks {
                if tick.is_multiple_of(self.cfg.fault_period) {
                    self.strike(tick);
                }
                if tick.is_multiple_of(CKPT_PERIOD) {
                    self.checkpoint_round();
                }
            }
            if tick.is_multiple_of(REPAIR_PERIOD) {
                self.repair_round();
            }
            self.absorb_events();
            let all_terminal = self.sched.jobs().all(|j| {
                matches!(
                    j.status,
                    JobStatus::Completed | JobStatus::Canceled | JobStatus::Failed
                )
            });
            if all_terminal && tick >= self.cfg.soak_ticks {
                break;
            }
            self.sched.advance(1, &mut self.q);
            tick += 1;
        }
        // Drain repairs so capacity recovery is measured, not raced.
        for _ in 0..64 {
            self.repair_round();
        }
        self.absorb_events();
        self.verify_tracked();

        let digest = self.sched.events().iter().fold(FNV_OFFSET, |h, event| {
            fnv1a(h, format!("{event:?}").as_bytes())
        });
        self.report.registry_digest = registry_digest(self.q.metrics());
        let census = self.q.census();
        // Admission-time blacklists (conviction threshold already met)
        // bypass the repair-tick report; the census is authoritative.
        self.report.blacklisted = census.blacklisted as u64;
        self.report.clock = self.sched.clock();
        self.report.completed = self
            .sched
            .jobs()
            .filter(|j| j.status == JobStatus::Completed)
            .count() as u64;
        self.report.lost = self
            .sched
            .jobs()
            .filter(|j| matches!(j.status, JobStatus::Failed | JobStatus::Canceled))
            .count() as u64;
        self.report.requeues = self.sched.requeues();
        self.report.goodput = self.sched.goodput_ratio();
        self.report.capacity_end = census.allocatable();
        self.report.event_digest = digest;
        self.report.event_count = self.sched.events().len();
        self.report.fit_searches += self.sched.fit_searches();
        self.report.drained = self.sched.jobs().all(|j| {
            matches!(
                j.status,
                JobStatus::Completed | JobStatus::Canceled | JobStatus::Failed
            )
        });
        self.report
    }
}

/// The FNV-1a offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a over every series of `reg` in key order: the series' identity
/// string (its `Borrow<str>` form) after its length, then the value's type
/// and bits (a histogram's count, sum and non-empty buckets).
fn registry_digest(reg: &MetricsRegistry) -> u64 {
    let word = |h: u64, w: u64| fnv1a(h, &w.to_le_bytes());
    reg.iter().fold(FNV_OFFSET, |h, (key, value)| {
        let id: &str = key.borrow();
        let h = fnv1a(word(h, id.len() as u64), id.as_bytes());
        match value {
            MetricValue::Counter(c) => word(word(h, 0), *c),
            MetricValue::Gauge(g) => word(word(h, 1), g.to_bits()),
            MetricValue::Histogram(hist) => {
                let mut h = word(word(word(h, 2), hist.count()), hist.sum());
                for (bound, count) in hist.nonzero_buckets() {
                    h = word(word(h, bound), count);
                }
                h
            }
        }
    })
}

/// Run one seeded chaos soak to completion and report the SLO surface.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    Soak::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_soak_loses_nothing_and_recovers_capacity() {
        let report = run_chaos(ChaosConfig::default());
        assert!(report.drained, "soak must drain: {report:?}");
        assert_eq!(report.lost, 0, "zero lost jobs: {report:?}");
        assert!(report.failures_injected > 10, "{report:?}");
        assert!(report.requeues > 0, "{report:?}");
        assert_eq!(
            report.completed,
            (ChaosConfig::default().jobs + ChaosConfig::default().tracked_solves) as u64
        );
        assert_eq!(report.tracked_matches, report.tracked_total, "{report:?}");
        // Capacity: everything except the blacklisted lemons is back.
        assert!(
            report.capacity_end + report.blacklisted as usize >= report.node_count,
            "{report:?}"
        );
    }

    #[test]
    fn same_seed_same_history() {
        let a = run_chaos(ChaosConfig::default());
        let b = run_chaos(ChaosConfig::default());
        assert_eq!(a.event_digest, b.event_digest);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.clock, b.clock);
        let c = run_chaos(ChaosConfig {
            seed: 5,
            ..ChaosConfig::default()
        });
        assert_ne!(a.event_digest, c.event_digest, "seed must matter");
    }
}
