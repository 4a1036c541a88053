//! Durable checkpoint store over the host NFS layer (§3.2, §4).
//!
//! The paper's recovery story assumes the host RAID is where state
//! outlives hardware: nodes write checkpoints to NFS-mounted disks so an
//! operator can pull a daughterboard and resume. But disks fail too —
//! the companion paper (hep-lat/0306023 §4) calls the host system the
//! *other* half of reliability. This store makes a checkpoint survive
//! the storage failures `qcdoc_fault::storage` can inject:
//!
//! * **Atomic generations** — each save goes write-to-temp → read-back
//!   verify → one atomic `rename` into `gen-NNNNNN.<digest>.ckpt`. A
//!   crash mid-save leaves a torn *temp*, never a torn generation; the
//!   committed name itself carries a content digest over every byte of
//!   the blob — header scalars included, closing the hole the NERSC
//!   payload checksum leaves — so commit and identity travel in the
//!   same atomic step. The clean path stays cheap: the read-back is
//!   compared byte-for-byte against the bytes just written and the
//!   digest is a word-folded FNV, so no archive parse taxes a save.
//! * **Verified restore with fallback** — restore walks generations
//!   newest-first, re-checking each against the digest in its file
//!   name; in [`VerifyMode::CgArchive`] a mismatch is then *classified*
//!   by parsing the archive (payload-checksum failure → rot, truncation
//!   → torn) and a match is still re-parsed before it may win. A torn
//!   or bit-rotted generation is skipped — detected, recorded in the
//!   flight ring — and the previous good one wins.
//! * **Bounded retry + backoff** — transient I/O errors and server
//!   crashes are retried under the store's own discipline: a budget of
//!   consecutive failures and a doubling, capped hold-off.
//! * **Retention GC** — `retain` newest generations are kept,
//!   oldest-first collection; a genuinely full disk sacrifices the
//!   oldest surplus generation to make room for the new one.
//!
//! Everything the store does on an exceptional path leaves a
//! [`HOST_NODE`] flight event, and `export_metrics` publishes the
//! `ckstore_*` counters the qdaemon's registry carries.

use crate::nfs::{NfsError, NfsServer};
use qcdoc_lattice::checkpoint::{read_checkpoint, CgCheckpoint};
use qcdoc_lattice::io::IoError;
use qcdoc_sched::{CheckpointVault, JobId};
use qcdoc_telemetry::{FlightEvent, FlightKind, FlightRecorder, MetricsRegistry, HOST_NODE};
use std::collections::HashMap;

/// How a stored blob is validated on restore. Both modes commit the
/// same content digest in the generation's file name and check it
/// first; they differ in what happens around that check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// The blob is a [`CgCheckpoint`] archive: a digest mismatch is
    /// classified by parsing the archive (NERSC payload-checksum
    /// failure → rot, truncation → torn), and even a digest match must
    /// parse before it is allowed to restore.
    CgArchive,
    /// Opaque bytes: a digest mismatch is reported as rot, nothing is
    /// parsed.
    Opaque,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory under an NFS export holding this store's generations,
    /// e.g. `/data/ck/job42` (no trailing slash).
    pub root: String,
    /// Newest generations kept after a successful commit.
    pub retain: usize,
    /// Validation discipline.
    pub verify: VerifyMode,
}

/// Consecutive transient failures a save or read retries; one more ends
/// it. A model choice, like the hold-off: the paper prices no host retry.
const RETRY_BUDGET: u32 = 4;

/// Store ticks held after the `n`th consecutive failure (`n ≥ 1`): 2,
/// doubling per failure, capped at 16.
fn hold_off_ticks(n: u32) -> u64 {
    2 << n.saturating_sub(1).min(3)
}

impl StoreConfig {
    /// Defaults: keep 3 generations of verified CG archives.
    pub fn new(root: impl Into<String>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            retain: 3,
            verify: VerifyMode::CgArchive,
        }
    }
}

/// Terminal store failures (transient ones are retried internally).
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A non-retryable NFS failure (bad path, disk full with nothing
    /// left to collect).
    Nfs(NfsError),
    /// The retry budget ran out on a retryable NFS failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The failure of the last attempt.
        last: NfsError,
    },
    /// Read-back verification kept failing within the retry budget — the
    /// disk is eating writes (or the caller handed us a blob that does
    /// not parse under [`VerifyMode::CgArchive`]).
    VerifyFailed {
        /// Attempts made.
        attempts: u32,
        /// Last verification failure.
        reason: String,
    },
    /// Restore examined every generation and none validated.
    NoGoodGeneration {
        /// Generations examined.
        examined: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Nfs(e) => write!(f, "checkpoint store: {e}"),
            StoreError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "checkpoint store: gave up after {attempts} attempts: {last}"
                )
            }
            StoreError::VerifyFailed { attempts, reason } => {
                write!(
                    f,
                    "checkpoint store: verify failed {attempts} times: {reason}"
                )
            }
            StoreError::NoGoodGeneration { examined } => {
                write!(f, "checkpoint store: no good generation among {examined}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A successful restore.
#[derive(Debug, Clone, PartialEq)]
pub struct Restored {
    /// Generation number that validated.
    pub generation: u64,
    /// Its verified bytes.
    pub bytes: Vec<u8>,
    /// Newer generations that were examined and rejected, newest first,
    /// with the rejection reason — non-empty means a fallback happened.
    pub skipped: Vec<(u64, String)>,
}

/// One attempt's failure, before retry policy is applied.
enum Attempt {
    Nfs(NfsError),
    Verify(String),
}

/// Content digest committed in a generation's file name: four
/// interleaved FNV-1a lanes over 8-byte little-endian words
/// (length-seeded, byte-wise tail), folded together at the end. It
/// covers every byte of the blob — header scalars and payload alike —
/// at a fraction of the cost of parsing the archive: the lanes break
/// the serial multiply dependency so a ~150 KB archive digests in a
/// few microseconds, keeping the clean save path off the solver's
/// critical-path budget.
fn content_digest(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x100_0000_01B3;
    let mut lanes = [
        OFFSET ^ bytes.len() as u64,
        OFFSET.wrapping_mul(PRIME),
        OFFSET.rotate_left(17),
        OFFSET.rotate_left(43),
    ];
    let mut quads = bytes.chunks_exact(32);
    for q in &mut quads {
        for (lane, w) in lanes.iter_mut().zip(q.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes
        .into_iter()
        .fold(OFFSET, |h, lane| (h ^ lane).wrapping_mul(PRIME));
    for &b in quads.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The durable checkpoint store.
#[derive(Debug)]
pub struct CheckpointStore {
    cfg: StoreConfig,
    next_gen: u64,
    clock: u64,
    flight: FlightRecorder,
    // ckstore_* counters
    commits: u64,
    retries: u64,
    verify_failures: u64,
    torn_detected: u64,
    rot_detected: u64,
    fallbacks: u64,
    restores: u64,
    gc_removed: u64,
    bytes_committed: u64,
    backoff_held: u64,
    last_gen_count: usize,
}

impl CheckpointStore {
    /// Open (or re-open) a store, discovering committed generations from
    /// the server. A leftover temp file — the footprint of a crash
    /// mid-save — is detected, recorded, and cleared.
    pub fn open(cfg: StoreConfig, nfs: &mut NfsServer) -> CheckpointStore {
        let mut store = CheckpointStore {
            cfg,
            next_gen: 0,
            clock: 0,
            flight: FlightRecorder::default(),
            commits: 0,
            retries: 0,
            verify_failures: 0,
            torn_detected: 0,
            rot_detected: 0,
            fallbacks: 0,
            restores: 0,
            gc_removed: 0,
            bytes_committed: 0,
            backoff_held: 0,
            last_gen_count: 0,
        };
        let committed = store.committed(nfs);
        store.next_gen = committed.last().map(|(g, _, _)| g + 1).unwrap_or(0);
        store.last_gen_count = committed.len();
        let tmp = store.temp_path();
        if nfs.stat(&tmp).is_ok() {
            store.torn_detected += 1;
            store.clock += 1;
            store.flight.record(
                HOST_NODE,
                store.clock,
                FlightKind::Info,
                "ckstore_torn_leftover",
                0,
                0,
            );
            let _ = nfs.remove(&tmp);
        }
        store
    }

    fn temp_path(&self) -> String {
        format!("{}/tmp.ckpt", self.cfg.root)
    }

    fn committed_name(&self, gen: u64, digest: u64) -> String {
        format!("{}/gen-{gen:06}.{digest:016x}.ckpt", self.cfg.root)
    }

    /// Committed generations `(gen, digest, path)`, oldest first.
    fn committed(&self, nfs: &NfsServer) -> Vec<(u64, u64, String)> {
        let prefix = format!("{}/gen-", self.cfg.root);
        let mut out: Vec<(u64, u64, String)> = nfs
            .list(&prefix)
            .into_iter()
            .filter_map(|path| {
                let rest = path.strip_prefix(&prefix)?.strip_suffix(".ckpt")?;
                let (gen_s, dig_s) = rest.split_once('.')?;
                if dig_s.len() != 16 {
                    return None;
                }
                Some((
                    gen_s.parse::<u64>().ok()?,
                    u64::from_str_radix(dig_s, 16).ok()?,
                    path.clone(),
                ))
            })
            .collect();
        out.sort();
        out
    }

    /// Committed `(generation, path)` pairs, oldest first — the paths
    /// fault plans aim bit rot at.
    fn committed_paths(&self, nfs: &NfsServer) -> Vec<(u64, String)> {
        self.committed(nfs)
            .into_iter()
            .map(|(g, _, p)| (g, p))
            .collect()
    }

    /// Generation numbers currently on disk, oldest first.
    pub fn generations(&self, nfs: &NfsServer) -> Vec<u64> {
        self.committed(nfs).into_iter().map(|(g, _, _)| g).collect()
    }

    /// Drain flight events (for ingestion into the qdaemon's recorder).
    pub fn drain_flight(&mut self) -> Vec<FlightEvent> {
        self.flight.drain()
    }

    /// Simulated hold-off ([`hold_off_ticks`]) after the `consecutive`th
    /// failure, accounted in store ticks.
    fn hold_off(&mut self, consecutive: u32) {
        let hold = hold_off_ticks(consecutive);
        self.backoff_held += hold;
        self.clock += hold + 1;
    }

    /// One save attempt: temp write, read-back verify, atomic commit,
    /// then retention GC. Any failure is reported for retry policy.
    fn attempt_save(
        &mut self,
        nfs: &mut NfsServer,
        bytes: &[u8],
        gen: u64,
    ) -> Result<u64, Attempt> {
        let tmp = self.temp_path();
        if nfs.stat(&tmp).is_ok() {
            nfs.remove(&tmp).map_err(Attempt::Nfs)?;
        }
        let h = nfs.open(&tmp).map_err(Attempt::Nfs)?;
        nfs.write(h, bytes).map_err(Attempt::Nfs)?;
        let back = nfs.read(&tmp).map_err(Attempt::Nfs)?;
        if back != bytes {
            return Err(Attempt::Verify(
                "read-back differs from written bytes".into(),
            ));
        }
        // The read-back matched the in-memory truth byte-for-byte, so
        // digesting `bytes` digests exactly what the media holds.
        let dest = self.committed_name(gen, content_digest(bytes));
        nfs.rename(&tmp, &dest).map_err(Attempt::Nfs)?;
        self.next_gen = gen + 1;
        self.commits += 1;
        self.bytes_committed += bytes.len() as u64;
        self.clock += 1;
        self.flight.record(
            HOST_NODE,
            self.clock,
            FlightKind::Checkpoint,
            "ckstore_commit",
            gen,
            bytes.len() as u64,
        );
        self.retention_gc(nfs);
        Ok(gen)
    }

    /// Collect generations beyond the retention window, oldest first.
    fn retention_gc(&mut self, nfs: &mut NfsServer) {
        let mut gens = self.committed(nfs);
        while gens.len() > self.cfg.retain {
            let (g, _, path) = gens.remove(0);
            if nfs.remove(&path).is_err() {
                // Transient mid-GC: leave the surplus for the next save.
                break;
            }
            self.gc_removed += 1;
            self.clock += 1;
            self.flight
                .record(HOST_NODE, self.clock, FlightKind::Info, "ckstore_gc", g, 0);
        }
        self.last_gen_count = gens.len();
    }

    /// Sacrifice the oldest generation to free disk space (keeping at
    /// least one). Returns whether anything was freed.
    fn gc_for_space(&mut self, nfs: &mut NfsServer) -> bool {
        let gens = self.committed(nfs);
        if gens.len() < 2 {
            return false;
        }
        let (g, _, path) = gens.into_iter().next().unwrap();
        if nfs.remove(&path).is_err() {
            return false;
        }
        self.gc_removed += 1;
        self.clock += 1;
        self.flight.record(
            HOST_NODE,
            self.clock,
            FlightKind::Info,
            "ckstore_gc_for_space",
            g,
            0,
        );
        true
    }

    /// Durably save one checkpoint blob; returns its generation number.
    ///
    /// Transient failures, server crashes, and stale handles are retried
    /// up to four times in a row; a full disk collects the oldest surplus
    /// generation and tries again.
    pub fn save(&mut self, nfs: &mut NfsServer, bytes: &[u8]) -> Result<u64, StoreError> {
        let gen = self.next_gen;
        let mut failures: u32 = 0;
        loop {
            let err = match self.attempt_save(nfs, bytes, gen) {
                Ok(gen) => return Ok(gen),
                Err(e) => e,
            };
            match err {
                Attempt::Nfs(NfsError::DiskFull) => {
                    // Not a flaky disk but a full one: freeing space is
                    // the fix, and does not consume retry budget.
                    if !self.gc_for_space(nfs) {
                        return Err(StoreError::Nfs(NfsError::DiskFull));
                    }
                }
                Attempt::Nfs(e) if e.retryable() => {
                    failures += 1;
                    if e == NfsError::ServerCrash {
                        // The crash tore our temp write; say so in the
                        // black box before retrying.
                        self.torn_detected += 1;
                        self.clock += 1;
                        self.flight.record(
                            HOST_NODE,
                            self.clock,
                            FlightKind::Info,
                            "ckstore_torn_write",
                            gen,
                            0,
                        );
                    }
                    if failures > RETRY_BUDGET {
                        return Err(StoreError::Exhausted {
                            attempts: failures,
                            last: e,
                        });
                    }
                    self.retries += 1;
                    self.hold_off(failures);
                    self.flight.record(
                        HOST_NODE,
                        self.clock,
                        FlightKind::Retry,
                        "ckstore_retry",
                        gen,
                        u64::from(failures),
                    );
                }
                Attempt::Nfs(e) => return Err(StoreError::Nfs(e)),
                Attempt::Verify(reason) => {
                    failures += 1;
                    self.verify_failures += 1;
                    self.clock += 1;
                    self.flight.record(
                        HOST_NODE,
                        self.clock,
                        FlightKind::Info,
                        "ckstore_verify_fail",
                        gen,
                        u64::from(failures),
                    );
                    if failures > RETRY_BUDGET {
                        return Err(StoreError::VerifyFailed {
                            attempts: failures,
                            reason,
                        });
                    }
                    self.hold_off(failures);
                }
            }
        }
    }

    /// Read a path with bounded retry on retryable failures.
    fn read_retry(&mut self, nfs: &mut NfsServer, path: &str) -> Result<Vec<u8>, NfsError> {
        let mut failures: u32 = 0;
        loop {
            match nfs.read(path) {
                Ok(bytes) => return Ok(bytes),
                Err(e) if e.retryable() && failures < RETRY_BUDGET => {
                    failures += 1;
                    self.retries += 1;
                    self.hold_off(failures);
                    self.flight.record(
                        HOST_NODE,
                        self.clock,
                        FlightKind::Retry,
                        "ckstore_retry",
                        0,
                        u64::from(failures),
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Validate stored bytes against the digest committed in the file
    /// name; classifies the failure for the black box.
    fn validate(&mut self, bytes: &[u8], named_digest: u64, gen: u64) -> Result<(), String> {
        let digest_ok = content_digest(bytes) == named_digest;
        let (reason, detail): (String, &'static str) = match self.cfg.verify {
            VerifyMode::CgArchive => match (digest_ok, read_checkpoint(bytes)) {
                (true, Ok(_)) => return Ok(()),
                // Digest intact but unparseable: the caller committed a
                // blob that was never a valid archive — surface it as
                // torn rather than restore garbage.
                (true, Err(e)) => (format!("unparseable archive: {e}"), "ckstore_torn"),
                (false, Err(e @ IoError::Checksum { .. })) => (format!("{e}"), "ckstore_rot"),
                (false, Err(e)) => (format!("torn archive: {e}"), "ckstore_torn"),
                // Rot the payload checksum cannot see — a flipped header
                // scalar — still trips the whole-blob digest.
                (false, Ok(_)) => ("content digest mismatch".into(), "ckstore_rot"),
            },
            VerifyMode::Opaque => {
                if digest_ok {
                    return Ok(());
                }
                ("digest mismatch".into(), "ckstore_rot")
            }
        };
        if detail == "ckstore_rot" {
            self.rot_detected += 1;
        } else {
            self.torn_detected += 1;
        }
        self.clock += 1;
        self.flight
            .record(HOST_NODE, self.clock, FlightKind::Info, detail, gen, 0);
        Err(reason)
    }

    /// Restore the newest generation that validates, falling back past
    /// torn or rotted ones.
    pub fn restore(&mut self, nfs: &mut NfsServer) -> Result<Restored, StoreError> {
        let gens = self.committed(nfs);
        let examined = gens.len();
        let mut skipped: Vec<(u64, String)> = Vec::new();
        for (gen, named_digest, path) in gens.into_iter().rev() {
            let bytes = match self.read_retry(nfs, &path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    skipped.push((gen, format!("unreadable: {e}")));
                    continue;
                }
            };
            match self.validate(&bytes, named_digest, gen) {
                Ok(()) => {
                    self.restores += 1;
                    self.clock += 1;
                    self.flight.record(
                        HOST_NODE,
                        self.clock,
                        FlightKind::Resume,
                        "ckstore_restore",
                        gen,
                        bytes.len() as u64,
                    );
                    if !skipped.is_empty() {
                        self.fallbacks += 1;
                        self.flight.record(
                            HOST_NODE,
                            self.clock,
                            FlightKind::Rollback,
                            "ckstore_fallback",
                            gen,
                            skipped.len() as u64,
                        );
                    }
                    return Ok(Restored {
                        generation: gen,
                        bytes,
                        skipped,
                    });
                }
                Err(reason) => skipped.push((gen, reason)),
            }
        }
        Err(StoreError::NoGoodGeneration { examined })
    }

    /// Restore and parse a [`CgCheckpoint`] (convenience for the solver
    /// resume path; requires [`VerifyMode::CgArchive`]).
    pub fn restore_cg(
        &mut self,
        nfs: &mut NfsServer,
    ) -> Result<(CgCheckpoint, Restored), StoreError> {
        let restored = self.restore(nfs)?;
        // Already validated by restore(); a parse failure here would be
        // a logic error, but stay typed anyway.
        match read_checkpoint(&restored.bytes) {
            Ok(ckpt) => Ok((ckpt, restored)),
            Err(e) => Err(StoreError::VerifyFailed {
                attempts: 1,
                reason: format!("{e}"),
            }),
        }
    }

    /// Publish the `ckstore_*` counters.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.gauge_set("ckstore_commits", &[], self.commits as f64);
        reg.gauge_set("ckstore_retries", &[], self.retries as f64);
        reg.gauge_set("ckstore_verify_failures", &[], self.verify_failures as f64);
        reg.gauge_set("ckstore_torn_detected", &[], self.torn_detected as f64);
        reg.gauge_set("ckstore_rot_detected", &[], self.rot_detected as f64);
        reg.gauge_set("ckstore_fallbacks", &[], self.fallbacks as f64);
        reg.gauge_set("ckstore_restores", &[], self.restores as f64);
        reg.gauge_set("ckstore_gc_removed", &[], self.gc_removed as f64);
        reg.gauge_set("ckstore_bytes_committed", &[], self.bytes_committed as f64);
        reg.gauge_set("ckstore_backoff_held", &[], self.backoff_held as f64);
        reg.gauge_set("ckstore_generations", &[], self.last_gen_count as f64);
    }

    /// Commits performed by this store instance.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Retries spent on retryable failures.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Torn writes detected (mid-save crashes, leftover temps, torn
    /// archives found on restore).
    pub fn torn_detected(&self) -> u64 {
        self.torn_detected
    }

    /// Bit rot detected on restore (checksum or digest mismatches).
    pub fn rot_detected(&self) -> u64 {
        self.rot_detected
    }

    /// Restores that had to fall back past a bad newer generation.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Total archive bytes committed by this store instance.
    pub fn bytes_committed(&self) -> u64 {
        self.bytes_committed
    }
}

/// The host's implementation of the scheduler's durable parking
/// boundary ([`CheckpointVault`]): one [`CheckpointStore`] per job under
/// `<root>/job-NNNNNN/`, blobs opaque (the scheduler already treats
/// them as opaque bytes), every save atomic and read-back verified.
/// Because the generations live on the NFS server, a parked job
/// survives a qdaemon restart: rebuild the vault over the same server
/// and `load` finds the newest good generation.
#[derive(Debug)]
pub struct JobVault {
    nfs: NfsServer,
    root: String,
    retain: usize,
    stores: HashMap<u64, CheckpointStore>,
}

impl JobVault {
    /// A vault over `nfs` keeping its stores under `root` (must be
    /// inside an export). Retains 2 generations per job.
    pub fn new(nfs: NfsServer, root: impl Into<String>) -> JobVault {
        JobVault {
            nfs,
            root: root.into(),
            retain: 2,
            stores: HashMap::new(),
        }
    }

    /// The underlying server (for stats and fault-plan aiming).
    pub fn nfs(&self) -> &NfsServer {
        &self.nfs
    }

    /// Mutable access to the underlying server (fault injection).
    pub fn nfs_mut(&mut self) -> &mut NfsServer {
        &mut self.nfs
    }

    /// Tear the vault down to its server — what survives a qdaemon
    /// restart (the disks, not the process state).
    pub fn into_server(self) -> NfsServer {
        self.nfs
    }

    /// The per-job store and the server, borrowed disjointly.
    fn parts(&mut self, job: u64) -> (&mut CheckpointStore, &mut NfsServer) {
        let JobVault {
            nfs,
            root,
            retain,
            stores,
        } = self;
        let store = stores.entry(job).or_insert_with(|| {
            CheckpointStore::open(
                StoreConfig {
                    root: format!("{root}/job-{job:06}"),
                    retain: *retain,
                    verify: VerifyMode::Opaque,
                },
                nfs,
            )
        });
        (store, nfs)
    }
}

impl CheckpointVault for JobVault {
    fn store(&mut self, job: JobId, blob: &[u8]) -> Result<u64, String> {
        let (store, nfs) = self.parts(job.0);
        store.save(nfs, blob).map_err(|e| e.to_string())
    }

    fn load(&mut self, job: JobId) -> Result<Option<Vec<u8>>, String> {
        let (store, nfs) = self.parts(job.0);
        match store.restore(nfs) {
            Ok(restored) => Ok(Some(restored.bytes)),
            // Nothing ever stored: a legitimate "no checkpoint".
            Err(StoreError::NoGoodGeneration { examined: 0 }) => Ok(None),
            // Generations exist but none validate — that is a failure
            // the caller must hear about, not an empty answer.
            Err(e) => Err(e.to_string()),
        }
    }

    fn discard(&mut self, job: JobId) {
        let (store, nfs) = self.parts(job.0);
        for (_, path) in store.committed_paths(nfs) {
            let _ = nfs.remove(&path);
        }
        self.stores.remove(&job.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_fault::{StorageFault, StorageFaultPlan};
    use qcdoc_lattice::checkpoint::write_checkpoint;

    fn opaque_cfg(root: &str) -> StoreConfig {
        StoreConfig {
            verify: VerifyMode::Opaque,
            ..StoreConfig::new(root)
        }
    }

    fn small_ckpt(iters: usize) -> CgCheckpoint {
        CgCheckpoint {
            operator: "wilson_dirac".into(),
            iterations: iters,
            converged: false,
            rsq: 0.5 / iters as f64,
            bref: 2.0,
            residuals: (1..=iters).map(|i| 1.0 / i as f64).collect(),
            applications: 2 * iters,
            reductions: 3 * iters,
            x: (0..32).map(|i| (i * iters) as u64).collect(),
            r: (0..32).map(|i| (i + iters) as u64).collect(),
            p: (0..32).map(|i| (i ^ iters) as u64).collect(),
        }
    }

    #[test]
    fn hold_off_doubles_from_two_ticks_and_caps_at_sixteen() {
        let holds: Vec<u64> = (1..=6).map(hold_off_ticks).collect();
        assert_eq!(holds, [2, 4, 8, 16, 16, 16]);
        assert_eq!(hold_off_ticks(u32::MAX), 16);
    }

    #[test]
    fn save_restore_roundtrip_and_retention_gc() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(
            StoreConfig {
                retain: 2,
                ..opaque_cfg("/data/ck")
            },
            &mut nfs,
        );
        for (i, blob) in [b"alpha", b"bravo", b"charl", b"delta"].iter().enumerate() {
            assert_eq!(store.save(&mut nfs, *blob).unwrap(), i as u64);
        }
        assert_eq!(store.generations(&nfs), vec![2, 3], "oldest-first GC");
        assert_eq!(store.gc_removed, 2);
        let restored = store.restore(&mut nfs).unwrap();
        assert_eq!(restored.generation, 3);
        assert_eq!(restored.bytes, b"delta");
        assert!(restored.skipped.is_empty());
        let dump = store.flight.dump(None);
        assert!(dump.contains("checkpoint ckstore_commit"), "{dump}");
        assert!(dump.contains("info ckstore_gc"), "{dump}");
    }

    #[test]
    fn reopen_continues_generation_sequence() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        store.save(&mut nfs, b"one").unwrap();
        store.save(&mut nfs, b"two").unwrap();
        drop(store);
        // "qdaemon restart": a fresh store over the same server.
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        assert_eq!(store.save(&mut nfs, b"three").unwrap(), 2);
        assert_eq!(store.generations(&nfs), vec![0, 1, 2]);
    }

    #[test]
    fn transient_errors_are_retried_within_budget() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        // The next save's first NFS call (open) runs at the current op.
        let plan = StorageFaultPlan::new(9).with_event(StorageFault::Transient {
            op: nfs.ops(),
            count: 2,
        });
        nfs.inject(&plan);
        store.save(&mut nfs, b"persist").unwrap();
        assert_eq!(store.retries(), 2);
        assert!(store.flight.dump(None).contains("retry ckstore_retry"));
        assert_eq!(store.restore(&mut nfs).unwrap().bytes, b"persist");
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        nfs.inject(
            &StorageFaultPlan::new(9).with_event(StorageFault::Transient {
                op: nfs.ops(),
                count: 1000,
            }),
        );
        match store.save(&mut nfs, b"x") {
            Err(StoreError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 5, "budget 4 = 5 attempts");
                assert_eq!(last, NfsError::Transient);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn torn_temp_write_never_corrupts_a_generation() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        store.save(&mut nfs, b"good-gen-0").unwrap();
        // Crash the server mid-way through the next save's temp write.
        nfs.inject(
            &StorageFaultPlan::new(7).with_event(StorageFault::TornWrite {
                write_op: nfs.write_ops(),
                keep: None,
            }),
        );
        store.save(&mut nfs, b"good-gen-1").unwrap();
        assert!(store.torn_detected() >= 1, "torn write must be recorded");
        assert!(store.retries() >= 1);
        // Both generations committed intact despite the crash.
        let restored = store.restore(&mut nfs).unwrap();
        assert_eq!(restored.generation, 1);
        assert_eq!(restored.bytes, b"good-gen-1");
        assert!(store.flight.dump(None).contains("ckstore_torn_write"));
    }

    #[test]
    fn bit_rot_on_newest_falls_back_to_previous_good_generation() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        store.save(&mut nfs, b"generation-zero").unwrap();
        store.save(&mut nfs, b"generation-one!").unwrap();
        let (newest_gen, newest_path) = store.committed_paths(&nfs).pop().unwrap();
        assert_eq!(newest_gen, 1);
        nfs.inject(&StorageFaultPlan::new(3).with_event(StorageFault::BitRot {
            path: newest_path,
            from_op: 0,
            byte: 4,
            bit: 6,
        }));
        let restored = store.restore(&mut nfs).unwrap();
        assert_eq!(restored.generation, 0);
        assert_eq!(restored.bytes, b"generation-zero");
        assert_eq!(restored.skipped.len(), 1);
        assert_eq!(restored.skipped[0].0, 1);
        assert_eq!(store.fallbacks(), 1);
        assert_eq!(store.rot_detected(), 1);
        assert!(store
            .flight
            .dump(None)
            .contains("rollback ckstore_fallback"));
    }

    #[test]
    fn cg_archive_mode_detects_payload_rot_and_header_rot() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(StoreConfig::new("/data/ck"), &mut nfs);
        let old = small_ckpt(5);
        let new = small_ckpt(9);
        store.save(&mut nfs, &write_checkpoint(&old)).unwrap();
        store.save(&mut nfs, &write_checkpoint(&new)).unwrap();
        // Rot a payload byte of the newest archive (the archive is header
        // + payload; byte len-3 is deep in the payload).
        let (_, newest_path) = store.committed_paths(&nfs).pop().unwrap();
        let len = nfs.stat(&newest_path).unwrap();
        nfs.inject(&StorageFaultPlan::new(3).with_event(StorageFault::BitRot {
            path: newest_path,
            from_op: 0,
            byte: len - 3,
            bit: 1,
        }));
        let (ckpt, restored) = store.restore_cg(&mut nfs).unwrap();
        assert_eq!(restored.generation, 0, "fell back past the rotted archive");
        assert_eq!(
            ckpt.digest(),
            old.digest(),
            "restored state is bit-identical"
        );
        assert!(
            restored.skipped[0].1.contains("checksum"),
            "{:?}",
            restored.skipped
        );
        assert_eq!(store.rot_detected(), 1);

        // Now rot a *header* byte of the surviving generation: the NERSC
        // payload checksum cannot see it, but the digest in the file name
        // does.
        let (g0, path0) = store.committed_paths(&nfs).first().cloned().unwrap();
        assert_eq!(g0, 0);
        nfs.clear_faults();
        nfs.inject(&StorageFaultPlan::new(4).with_event(StorageFault::BitRot {
            path: path0,
            from_op: 0,
            byte: 150, // inside the ASCII header (ITERATIONS/RSQ lines)
            bit: 0,
        }));
        match store.restore(&mut nfs) {
            Err(StoreError::NoGoodGeneration { examined }) => assert_eq!(examined, 2),
            Ok(r) => {
                // If the header flip broke parsing instead, the archive is
                // classified torn — either way it must NOT restore.
                panic!("rotted header restored: gen {}", r.generation)
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn disk_full_sacrifices_oldest_generation_for_space() {
        // Room for two 40-byte generations plus a temp, not three.
        let mut nfs = NfsServer::new(&["/data"], 100);
        let mut store = CheckpointStore::open(
            StoreConfig {
                retain: 3,
                ..opaque_cfg("/data/ck")
            },
            &mut nfs,
        );
        let blob = [7u8; 40];
        store.save(&mut nfs, &blob).unwrap();
        store.save(&mut nfs, &blob).unwrap();
        // Third save: temp write hits real capacity, store frees gen 0.
        store.save(&mut nfs, &blob).unwrap();
        assert_eq!(store.generations(&nfs), vec![1, 2]);
        assert!(store.flight.dump(None).contains("ckstore_gc_for_space"));
        // With a single generation left and no surplus, a hopeless save
        // reports DiskFull instead of looping.
        let mut tiny = NfsServer::new(&["/data"], 32);
        let mut s2 = CheckpointStore::open(opaque_cfg("/data/ck"), &mut tiny);
        s2.save(&mut tiny, &[1u8; 20]).unwrap();
        assert_eq!(
            s2.save(&mut tiny, &[2u8; 20]),
            Err(StoreError::Nfs(NfsError::DiskFull))
        );
    }

    #[test]
    fn leftover_temp_from_crash_is_detected_and_cleared_on_open() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let h = nfs.open("/data/ck/tmp.ckpt").unwrap();
        nfs.write(h, b"torn leftover").unwrap();
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        assert_eq!(store.torn_detected(), 1);
        assert!(nfs.stat("/data/ck/tmp.ckpt").is_err(), "temp cleared");
        assert!(store.flight.dump(None).contains("ckstore_torn_leftover"));
        // And the store still works.
        store.save(&mut nfs, b"fresh").unwrap();
        assert_eq!(store.restore(&mut nfs).unwrap().bytes, b"fresh");
    }

    #[test]
    fn no_good_generation_is_typed_not_a_panic() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        assert_eq!(
            store.restore(&mut nfs),
            Err(StoreError::NoGoodGeneration { examined: 0 })
        );
    }

    #[test]
    fn job_vault_blobs_survive_a_restart() {
        let nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut vault = JobVault::new(nfs, "/data/vault");
        let job = JobId(3);
        assert_eq!(vault.load(job).unwrap(), None);
        vault.store(job, b"parked state").unwrap();
        // qdaemon restart: only the disks survive.
        let mut vault = JobVault::new(vault.into_server(), "/data/vault");
        assert_eq!(
            vault.load(job).unwrap().as_deref(),
            Some(&b"parked state"[..])
        );
        vault.discard(job);
        let mut vault = JobVault::new(vault.into_server(), "/data/vault");
        assert_eq!(vault.load(job).unwrap(), None);
    }

    #[test]
    fn job_vault_falls_back_past_rotted_newest_generation() {
        let nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut vault = JobVault::new(nfs, "/data/vault");
        let job = JobId(1);
        vault.store(job, b"generation zero").unwrap();
        vault.store(job, b"generation one!").unwrap();
        let newest = vault.nfs().list("/data/vault/job-000001/").pop().unwrap();
        vault
            .nfs_mut()
            .inject(&StorageFaultPlan::new(11).with_event(StorageFault::BitRot {
                path: newest,
                from_op: 0,
                byte: 7,
                bit: 2,
            }));
        assert_eq!(
            vault.load(job).unwrap().as_deref(),
            Some(&b"generation zero"[..])
        );
    }

    #[test]
    fn metrics_export_covers_the_ckstore_counters() {
        let mut nfs = NfsServer::new(&["/data"], 1 << 20);
        let mut store = CheckpointStore::open(opaque_cfg("/data/ck"), &mut nfs);
        store.save(&mut nfs, b"m").unwrap();
        let mut reg = MetricsRegistry::new();
        store.export_metrics(&mut reg);
        let text = qcdoc_telemetry::prometheus_text(&reg);
        for name in [
            "ckstore_commits",
            "ckstore_retries",
            "ckstore_generations",
            "ckstore_bytes_committed",
        ] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
    }
}
