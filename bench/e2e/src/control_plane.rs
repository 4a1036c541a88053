//! `control_plane`: boot and fold the full 12,288-node machine, run seeded
//! chaos soaks on it, and push a real CG archive through the durable
//! checkpoint store. Host software only: no engine, no kernels.

use crate::measure::{timed, Sample, Workload};
use crate::report::Checks;
use crate::trace::Tracer;
use crate::KAPPA;
use qcdoc::geometry::{PartitionSpec, TorusShape};
use qcdoc::host::ckstore::{CheckpointStore, StoreConfig};
use qcdoc::host::nfs::NfsServer;
use qcdoc::host::{run_chaos, ChaosConfig, ChaosReport, Qdaemon};
use qcdoc::lattice::checkpoint::{write_checkpoint, CgCheckpoint};
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::solver::{solve_cgne_checkpointed, CgParams};
use qcdoc::lattice::wilson::WilsonDirac;

/// The paper's full machine and the fold that runs an [8,8,8,24] lattice
/// decomposition on it.
pub const PHYSICAL: [usize; 6] = [8, 8, 6, 4, 4, 2];
pub const FOLD: [&[usize]; 4] = [&[0], &[1], &[3, 5], &[2, 4]];
pub const LOGICAL: [usize; 4] = [8, 8, 8, 24];
/// Lattice of the CG archive the checkpoint store round-trips.
pub const ARCHIVE_LATTICE: [usize; 4] = [8, 8, 8, 8];
/// CG iterations behind the archive: it is the tenth iteration's checkpoint.
pub const ARCHIVE_ITERATIONS: usize = 10;

/// The `index`-th seed derived from `--seed` (SplitMix64 of the pair).
/// Every chaos soak of a run draws its own.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One soak of the workload: 256 background jobs and two tracked CG solves
/// under four thousand ticks of fire on the full machine.
///
/// A strike every 22 ticks, not the default 11. Full-machine jobs run few at
/// a time, so at 11 the one running job takes most strikes, and in 3 of 150
/// seeds tried one of them outran the soak's retry budget of 12 and was lost.
/// A benchmark needs workloads on which no operation fails: at 22 none of
/// 650 seeds lost a job.
pub fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        machine: TorusShape::new(&PHYSICAL),
        jobs: 256,
        soak_ticks: 4000,
        max_ticks: 200_000,
        fault_period: 22,
        ..ChaosConfig::default()
    }
}

/// Count a soak's jobs — one that did not complete (lost, or still queued
/// when the soak gave up) is a failed operation — and check the soak's
/// other service-level outcomes. Returns the number of jobs completed.
pub fn check_soak(cfg: &ChaosConfig, report: &ChaosReport, checks: &mut Checks) -> u64 {
    let submitted = (cfg.jobs + cfg.tracked_solves) as u64;
    checks.ops(
        submitted,
        submitted.saturating_sub(report.completed),
        &format!("chaos jobs (seed {:#x}, {} lost)", cfg.seed, report.lost),
    );
    checks.check(report.drained, || "the chaos soak did not drain".into());
    checks.check(report.tracked_matches == report.tracked_total, || {
        format!(
            "{} of {} tracked solves reproduce the fault-free bits",
            report.tracked_matches, report.tracked_total
        )
    });
    report.completed
}

/// A CG archive in the NERSC-style checkpoint format: the last periodic
/// checkpoint of a serial solve on `lattice`.
pub fn cg_checkpoint(seed: u64, lattice: Lattice, max_iterations: usize) -> CgCheckpoint {
    let gauge = GaugeField::hot(lattice, seed);
    let source = FermionField::gaussian(lattice, seed + 1);
    let op = WilsonDirac::new(&gauge, KAPPA);
    let mut x = FermionField::zero(lattice);
    let mut sink = Vec::new();
    let params = CgParams {
        tolerance: 1e-8,
        max_iterations,
    };
    solve_cgne_checkpointed(&op, &mut x, &source, params, 1, &mut sink);
    sink.pop()
        .expect("a solve of at least one iteration checkpoints")
}

/// A fresh in-memory NFS export with a checkpoint store opened on it.
pub fn open_store() -> (NfsServer, CheckpointStore) {
    let mut nfs = NfsServer::new(&["/data"], 1 << 26);
    let store = CheckpointStore::open(StoreConfig::new("/data/ck/e2e"), &mut nfs);
    (nfs, store)
}

pub struct ControlPlane;

pub struct State {
    seed: u64,
    /// Event-log digest of each round's soak. A seed that is soaked again
    /// (round 0 repeats the warm-up's; a traced rep repeats its untraced
    /// partner's) must reproduce its digest.
    digests: Vec<u64>,
    pub archive: Vec<u8>,
    nfs: NfsServer,
    store: CheckpointStore,
}

impl Workload for ControlPlane {
    type State = State;

    fn name(&self) -> &'static str {
        "control_plane"
    }

    fn setup(&self, seed: u64, t: &mut Tracer) -> State {
        let physical = TorusShape::new(&PHYSICAL);
        let mut qdaemon = t.span("Qdaemon::new", |_| Qdaemon::new(physical.clone()));
        let booted = t.span("Qdaemon::boot", |_| qdaemon.boot(&[]).booted);
        assert_eq!(booted, physical.node_count(), "boot must reach every node");
        let partition = t.span("Qdaemon::allocate", |_| {
            qdaemon
                .allocate(PartitionSpec::whole_machine(&physical, &FOLD))
                .expect("the whole machine is free after boot")
        });
        let logical = qdaemon
            .partition(partition)
            .expect("just allocated")
            .logical_shape();
        assert_eq!(
            logical.dims(),
            LOGICAL,
            "the fold must give the logical torus"
        );
        let archive = t.span("cg_archive", |_| {
            write_checkpoint(&cg_checkpoint(
                seed,
                Lattice::new(ARCHIVE_LATTICE),
                ARCHIVE_ITERATIONS,
            ))
        });
        let (nfs, store) = t.span("CheckpointStore::open", |_| open_store());
        State {
            seed,
            digests: Vec::new(),
            archive,
            nfs,
            store,
        }
    }

    fn warm_up(&self, state: &mut State, t: &mut Tracer, checks: &mut Checks) {
        let cfg = chaos_config(derive_seed(state.seed, 0));
        let report = t.span("run_chaos", |_| run_chaos(cfg.clone()));
        check_soak(&cfg, &report, checks);
        state.digests.push(report.event_digest);
    }

    /// One soak on the round's derived seed, then the archive through the
    /// store and back.
    fn rep(
        &self,
        state: &mut State,
        round: usize,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> (Sample, f64) {
        let cfg = chaos_config(derive_seed(state.seed, round as u64));
        let ((report, restored), sample) = timed(|| {
            let report = t.span("run_chaos", |_| run_chaos(cfg.clone()));
            let saved = t.span("CheckpointStore::save", |_| {
                state.store.save(&mut state.nfs, &state.archive)
            });
            let restored = t.span("CheckpointStore::restore", |_| {
                state.store.restore(&mut state.nfs)
            });
            (report, saved.and(restored))
        });
        let completed = check_soak(&cfg, &report, checks);
        match state.digests.get(round) {
            Some(&digest) => checks.same_bits(
                "chaos event digest of a repeated seed",
                report.event_digest,
                digest,
            ),
            None => state.digests.push(report.event_digest),
        }
        checks.check(
            restored.as_ref().is_ok_and(|r| r.bytes == state.archive),
            || format!("checkpoint store round trip: {:?}", restored.as_ref().err()),
        );
        (sample, completed as f64)
    }

    /// Each rep soaks a different derived seed, so the reps are a sample of
    /// fault schedules, not repeats of one: report their mean.
    fn typical(&self, values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_stable() {
        assert_eq!(derive_seed(11, 0), 0x50f5_647d_2380_309d);
        assert_eq!(derive_seed(11, 1), 0x432a_5cd2_7a6b_13a1);
        assert_eq!(derive_seed(12, 0), 0x943f_f9fc_99de_8f03);
        assert_ne!(derive_seed(11, 0), derive_seed(11, 1));
    }
}
