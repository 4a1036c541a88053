//! Durable scheduler state: snapshot codec + restart recovery.
//!
//! The paper's operating model keeps job state on the host (RAID + NFS),
//! so a crashed qdaemon is an inconvenience, not a massacre. This module
//! gives the scheduler the same property: [`Scheduler::save_state`]
//! serialises the *entire* decision state — tenants, job records,
//! queues, counters, and the full event log — into a self-contained
//! little-endian archive, and [`Scheduler::restore_state`] rebuilds a
//! scheduler that continues the same event log byte-for-byte.
//!
//! The format follows the checkpoint archives in `qcdoc_lattice::checkpoint`
//! and `qcdoc_host::ckstore`: magic + versioned fields, length-prefixed
//! variable parts, every multi-byte value little-endian. The reader is
//! bounds-checked throughout: a truncated or corrupted archive comes back
//! as a typed [`StateError`], never a panic.
//!
//! After a restore, the mesh is gone — the real partitions died with the
//! host — so [`Scheduler::recover_after_restart`] converts every
//! formerly-running job into a held requeue charged as
//! [`FailureClass::HostRestart`] (which never consumes retry budget:
//! the machine's fault, not the job's).

use crate::job::{GrantedPlacement, JobId, JobRecord, JobSpec, JobStatus, Priority, ShapeRequest};
use crate::scheduler::{SchedConfig, SchedEvent, Scheduler};
use crate::tenant::{TenantConfig, TenantStats};
use qcdoc_fault::FailureClass;
use qcdoc_geometry::{NodeCoord, TorusShape};
use qcdoc_telemetry::{FlightRecorder, MetricsRegistry};
use std::collections::BTreeMap;

/// Reserved job id under which a qdaemon parks the scheduler snapshot
/// itself in the durable [`crate::CheckpointVault`] — the snapshot rides
/// the same faulty-NFS-hardened path as job checkpoints.
pub const STATE_JOB: JobId = JobId(u64::MAX);

/// Version 2: job records carry no checkpoint blob (blobs live only in
/// the vault). A version-1 archive is refused as [`StateError::BadMagic`].
const MAGIC: &[u8; 8] = b"QSCHEDv2";

/// Why a scheduler snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The archive ended early.
    Truncated {
        /// Bytes the next field needs.
        need: usize,
        /// Offset of that field.
        at: usize,
        /// Bytes left from that offset.
        have: usize,
    },
    /// The archive does not start with the scheduler-state magic.
    BadMagic,
    /// A length prefix larger than the whole archive.
    BadLength {
        /// The recorded length.
        len: u64,
    },
    /// A tenant name is not UTF-8.
    BadUtf8,
    /// An enumeration code outside its range.
    BadCode {
        /// Which enumeration: priority, job status, event tag or failure
        /// class.
        what: &'static str,
        /// The code found.
        code: u64,
    },
    /// Torus dimensions no machine can have (rank outside 1..=6, or a
    /// zero extent).
    BadShape {
        /// The dimensions found.
        dims: Vec<usize>,
    },
    /// The pending or running queue names a job the archive lacks.
    UnknownJob {
        /// The job id.
        id: u64,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated { need, at, have } => write!(
                f,
                "truncated scheduler state: need {need} bytes at offset {at}, have {have}"
            ),
            StateError::BadMagic => write!(f, "not a scheduler state archive (bad magic)"),
            StateError::BadLength { len } => {
                write!(f, "implausible length {len} in scheduler state")
            }
            StateError::BadUtf8 => write!(f, "bad utf-8 in scheduler state"),
            StateError::BadCode { what, code } => write!(f, "bad {what} code {code}"),
            StateError::BadShape { dims } => {
                write!(f, "bad torus dims {dims:?} in scheduler state")
            }
            StateError::UnknownJob { id } => write!(f, "state references unknown job {id}"),
        }
    }
}

impl std::error::Error for StateError {}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_u64(out, x as u64);
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
        None => put_u8(out, 0),
    }
}

fn put_shape(out: &mut Vec<u8>, shape: &TorusShape) {
    put_usize_slice(out, shape.dims());
}

/// Bounds-checked little-endian reader over the archive.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(StateError::Truncated {
                need: n,
                at: self.pos,
                have,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, StateError> {
        Ok(self.u8()? != 0)
    }

    fn u64(&mut self) -> Result<u64, StateError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize, StateError> {
        let n = self.u64()?;
        // Any honest length fits in what's left of the buffer.
        if n > self.buf.len() as u64 {
            return Err(StateError::BadLength { len: n });
        }
        Ok(n as usize)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, StateError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, StateError> {
        String::from_utf8(self.bytes()?).map_err(|_| StateError::BadUtf8)
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, StateError> {
        let n = self.len()?;
        (0..n).map(|_| Ok(self.u64()? as usize)).collect()
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, StateError> {
        Ok(if self.u8()? == 1 {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn shape(&mut self) -> Result<TorusShape, StateError> {
        let dims = self.usize_vec()?;
        if dims.is_empty() || dims.len() > 6 || dims.contains(&0) {
            return Err(StateError::BadShape { dims });
        }
        Ok(TorusShape::new(&dims))
    }
}

fn priority_code(p: Priority) -> u8 {
    match p {
        Priority::Scavenger => 0,
        Priority::Standard => 1,
        Priority::Production => 2,
    }
}

fn priority_from(code: u8) -> Result<Priority, StateError> {
    Ok(match code {
        0 => Priority::Scavenger,
        1 => Priority::Standard,
        2 => Priority::Production,
        _ => {
            return Err(StateError::BadCode {
                what: "priority",
                code: code.into(),
            })
        }
    })
}

fn status_code(s: JobStatus) -> u8 {
    match s {
        JobStatus::Queued => 0,
        JobStatus::Running => 1,
        JobStatus::Preempted => 2,
        JobStatus::Held => 3,
        JobStatus::Failed => 4,
        JobStatus::Completed => 5,
        JobStatus::Canceled => 6,
    }
}

fn status_from(code: u8) -> Result<JobStatus, StateError> {
    Ok(match code {
        0 => JobStatus::Queued,
        1 => JobStatus::Running,
        2 => JobStatus::Preempted,
        3 => JobStatus::Held,
        4 => JobStatus::Failed,
        5 => JobStatus::Completed,
        6 => JobStatus::Canceled,
        _ => {
            return Err(StateError::BadCode {
                what: "job status",
                code: code.into(),
            })
        }
    })
}

fn class_from(code: u64) -> Result<FailureClass, StateError> {
    FailureClass::from_code(code).ok_or(StateError::BadCode {
        what: "failure class",
        code,
    })
}

fn put_job(out: &mut Vec<u8>, job: &JobRecord) {
    put_u64(out, job.id.0);
    put_str(out, &job.spec.tenant);
    put_u8(out, priority_code(job.spec.priority));
    put_u64(out, job.spec.shapes.len() as u64);
    for s in &job.spec.shapes {
        put_usize_slice(out, &s.extents);
        put_u64(out, s.groups.len() as u64);
        for g in &s.groups {
            put_usize_slice(out, g);
        }
    }
    put_u64(out, job.spec.work);
    put_bool(out, job.spec.preemptible);
    put_u8(out, status_code(job.status));
    put_u64(out, job.submitted_at);
    put_u64(out, job.queued_since);
    put_opt_u64(out, job.first_started_at);
    put_opt_u64(out, job.finished_at);
    put_u64(out, job.remaining);
    match &job.placement {
        Some(p) => {
            put_u8(out, 1);
            put_u64(out, p.partition as u64);
            for axis in 0..6 {
                put_u64(out, p.origin.0[axis] as u64);
            }
            put_u64(out, p.shape_index as u64);
            put_shape(out, &p.logical);
        }
        None => put_u8(out, 0),
    }
    put_u64(out, job.shape_history.len() as u64);
    for s in &job.shape_history {
        put_shape(out, s);
    }
    put_u64(out, job.preemptions as u64);
    put_u64(out, job.wait_ticks);
    put_u64(out, job.retries as u64);
    put_opt_u64(out, job.last_failure.map(|c| c.code()));
    put_u64(out, job.held_until);
    put_u64(out, job.avoid.len() as u64);
    for &n in &job.avoid {
        put_u64(out, n as u64);
    }
    put_opt_u64(out, job.checkpoint_remaining);
}

fn read_job(r: &mut Reader) -> Result<JobRecord, StateError> {
    let id = JobId(r.u64()?);
    let tenant = r.str()?;
    let priority = priority_from(r.u8()?)?;
    let n_shapes = r.len()?;
    let mut shapes = Vec::with_capacity(n_shapes);
    for _ in 0..n_shapes {
        let extents = r.usize_vec()?;
        let n_groups = r.len()?;
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            groups.push(r.usize_vec()?);
        }
        shapes.push(ShapeRequest { extents, groups });
    }
    let work = r.u64()?;
    let preemptible = r.bool()?;
    let status = status_from(r.u8()?)?;
    let submitted_at = r.u64()?;
    let queued_since = r.u64()?;
    let first_started_at = r.opt_u64()?;
    let finished_at = r.opt_u64()?;
    let remaining = r.u64()?;
    let placement = if r.u8()? == 1 {
        let partition = r.u64()? as u32;
        let mut origin = [0u32; 6];
        for axis in origin.iter_mut() {
            *axis = r.u64()? as u32;
        }
        let shape_index = r.u64()? as usize;
        let logical = r.shape()?;
        Some(GrantedPlacement {
            partition,
            origin: NodeCoord(origin),
            shape_index,
            logical,
        })
    } else {
        None
    };
    let n_hist = r.len()?;
    let mut shape_history = Vec::with_capacity(n_hist);
    for _ in 0..n_hist {
        shape_history.push(r.shape()?);
    }
    let preemptions = r.u64()? as u32;
    let wait_ticks = r.u64()?;
    let retries = r.u64()? as u32;
    let last_failure = match r.opt_u64()? {
        Some(code) => Some(class_from(code)?),
        None => None,
    };
    let held_until = r.u64()?;
    let n_avoid = r.len()?;
    let mut avoid = Vec::with_capacity(n_avoid);
    for _ in 0..n_avoid {
        avoid.push(r.u64()? as u32);
    }
    let checkpoint_remaining = r.opt_u64()?;
    Ok(JobRecord {
        id,
        spec: JobSpec {
            tenant,
            priority,
            shapes,
            work,
            preemptible,
        },
        status,
        submitted_at,
        queued_since,
        first_started_at,
        finished_at,
        remaining,
        placement,
        shape_history,
        preemptions,
        wait_ticks,
        retries,
        last_failure,
        held_until,
        avoid,
        checkpoint_remaining,
    })
}

fn put_event(out: &mut Vec<u8>, ev: &SchedEvent) {
    match ev {
        SchedEvent::Submitted { job, at } => {
            put_u8(out, 0);
            put_u64(out, job.0);
            put_u64(out, *at);
        }
        SchedEvent::Started {
            job,
            at,
            partition,
            logical,
        } => {
            put_u8(out, 1);
            put_u64(out, job.0);
            put_u64(out, *at);
            put_u64(out, *partition as u64);
            put_shape(out, logical);
        }
        SchedEvent::Preempted { job, at, by } => {
            put_u8(out, 2);
            put_u64(out, job.0);
            put_u64(out, *at);
            put_u64(out, by.0);
        }
        SchedEvent::Resumed {
            job,
            at,
            partition,
            logical,
        } => {
            put_u8(out, 3);
            put_u64(out, job.0);
            put_u64(out, *at);
            put_u64(out, *partition as u64);
            put_shape(out, logical);
        }
        SchedEvent::Failed {
            job,
            at,
            class,
            retry,
        } => {
            put_u8(out, 4);
            put_u64(out, job.0);
            put_u64(out, *at);
            put_u64(out, class.code());
            put_u64(out, *retry as u64);
        }
        SchedEvent::Requeued { job, at } => {
            put_u8(out, 5);
            put_u64(out, job.0);
            put_u64(out, *at);
        }
        SchedEvent::Completed { job, at } => {
            put_u8(out, 6);
            put_u64(out, job.0);
            put_u64(out, *at);
        }
        SchedEvent::Canceled { job, at } => {
            put_u8(out, 7);
            put_u64(out, job.0);
            put_u64(out, *at);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<SchedEvent, StateError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => SchedEvent::Submitted {
            job: JobId(r.u64()?),
            at: r.u64()?,
        },
        1 => SchedEvent::Started {
            job: JobId(r.u64()?),
            at: r.u64()?,
            partition: r.u64()? as u32,
            logical: r.shape()?,
        },
        2 => SchedEvent::Preempted {
            job: JobId(r.u64()?),
            at: r.u64()?,
            by: JobId(r.u64()?),
        },
        3 => SchedEvent::Resumed {
            job: JobId(r.u64()?),
            at: r.u64()?,
            partition: r.u64()? as u32,
            logical: r.shape()?,
        },
        4 => SchedEvent::Failed {
            job: JobId(r.u64()?),
            at: r.u64()?,
            class: class_from(r.u64()?)?,
            retry: r.u64()? as u32,
        },
        5 => SchedEvent::Requeued {
            job: JobId(r.u64()?),
            at: r.u64()?,
        },
        6 => SchedEvent::Completed {
            job: JobId(r.u64()?),
            at: r.u64()?,
        },
        7 => SchedEvent::Canceled {
            job: JobId(r.u64()?),
            at: r.u64()?,
        },
        _ => {
            return Err(StateError::BadCode {
                what: "event tag",
                code: tag.into(),
            })
        }
    })
}

impl Scheduler {
    /// Serialise the full decision state (tenants, jobs, queues,
    /// counters, event log) into a self-contained archive a restarted
    /// host can [`Scheduler::restore_state`] from.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        put_shape(&mut out, &self.machine);
        put_u64(&mut out, self.config.aging_ticks);
        put_u64(&mut out, self.config.window as u64);
        put_u64(&mut out, self.config.retry_budget as u64);
        put_u64(&mut out, self.config.holdoff_base);
        put_u64(&mut out, self.clock);
        put_u64(&mut out, self.next_id);
        put_u64(&mut out, self.decisions);
        put_u64(&mut out, self.preemptions);
        put_u64(&mut out, self.busy_node_ticks);
        put_u64(&mut out, self.wasted_node_ticks);
        put_u64(&mut out, self.requeues);
        put_u64(&mut out, self.failed_terminal);
        put_u64(&mut out, self.tenants.len() as u64);
        for (name, (cfg, stats)) in &self.tenants {
            put_str(&mut out, name);
            put_f64(&mut out, cfg.weight);
            put_u64(&mut out, cfg.node_quota as u64);
            put_u64(&mut out, cfg.max_queued as u64);
            put_u64(&mut out, stats.submitted);
            put_u64(&mut out, stats.rejected);
            put_u64(&mut out, stats.completed);
            put_u64(&mut out, stats.canceled);
            put_u64(&mut out, stats.preemptions);
            put_u64(&mut out, stats.requeues);
            put_u64(&mut out, stats.failed);
            put_u64(&mut out, stats.wait_ticks);
            put_u64(&mut out, stats.node_ticks);
            put_u64(&mut out, stats.running_nodes as u64);
            put_u64(&mut out, stats.max_running_nodes as u64);
        }
        put_u64(&mut out, self.jobs.len() as u64);
        for job in self.jobs.values() {
            put_job(&mut out, job);
        }
        put_u64(&mut out, self.pending.len() as u64);
        for &id in &self.pending {
            put_u64(&mut out, id);
        }
        put_u64(&mut out, self.running.len() as u64);
        for &id in &self.running {
            put_u64(&mut out, id);
        }
        put_u64(&mut out, self.events.len() as u64);
        for ev in &self.events {
            put_event(&mut out, ev);
        }
        out
    }

    /// Rebuild a scheduler from a [`Scheduler::save_state`] archive. The
    /// result continues the same clock, counters, and event log; call
    /// [`Scheduler::recover_after_restart`] next to deal with the jobs
    /// whose partitions died with the old host.
    pub fn restore_state(bytes: &[u8]) -> Result<Scheduler, StateError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(StateError::BadMagic);
        }
        let machine = r.shape()?;
        let config = SchedConfig {
            aging_ticks: r.u64()?,
            window: r.u64()? as usize,
            retry_budget: r.u64()? as u32,
            holdoff_base: r.u64()?,
        };
        let clock = r.u64()?;
        let next_id = r.u64()?;
        let decisions = r.u64()?;
        let preemptions = r.u64()?;
        let busy_node_ticks = r.u64()?;
        let wasted_node_ticks = r.u64()?;
        let requeues = r.u64()?;
        let failed_terminal = r.u64()?;
        let mut tenants = BTreeMap::new();
        for _ in 0..r.len()? {
            let name = r.str()?;
            let cfg = TenantConfig {
                weight: r.f64()?,
                node_quota: r.u64()? as usize,
                max_queued: r.u64()? as usize,
            };
            let stats = TenantStats {
                submitted: r.u64()?,
                rejected: r.u64()?,
                completed: r.u64()?,
                canceled: r.u64()?,
                preemptions: r.u64()?,
                requeues: r.u64()?,
                failed: r.u64()?,
                wait_ticks: r.u64()?,
                node_ticks: r.u64()?,
                running_nodes: r.u64()? as usize,
                max_running_nodes: r.u64()? as usize,
            };
            tenants.insert(name, (cfg, stats));
        }
        let mut jobs = BTreeMap::new();
        for _ in 0..r.len()? {
            let job = read_job(&mut r)?;
            jobs.insert(job.id.0, job);
        }
        let mut pending = Vec::new();
        for _ in 0..r.len()? {
            pending.push(r.u64()?);
        }
        let mut running = Vec::new();
        for _ in 0..r.len()? {
            running.push(r.u64()?);
        }
        let mut events = Vec::new();
        for _ in 0..r.len()? {
            events.push(read_event(&mut r)?);
        }
        for id in pending.iter().chain(running.iter()) {
            if !jobs.contains_key(id) {
                return Err(StateError::UnknownJob { id: *id });
            }
        }
        Ok(Scheduler {
            machine,
            config,
            tenants,
            jobs,
            pending,
            running,
            clock,
            next_id,
            decisions,
            fit_searches: 0,
            fits: Default::default(),
            preemptions,
            busy_node_ticks,
            wasted_node_ticks,
            requeues,
            failed_terminal,
            events,
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::default(),
        })
    }

    /// After a restore onto a fresh mesh: every job that was running
    /// when the old host died lost its partition. Roll each back to its
    /// newest checkpoint and requeue it as a held
    /// [`FailureClass::HostRestart`] failure — charged to the machine,
    /// never to the job's retry budget, with no hold-off and no domain to
    /// avoid: the same rollback as [`Scheduler::fail_job`]. Returns the
    /// recovered job ids.
    pub fn recover_after_restart(&mut self) -> Vec<JobId> {
        let running = self.running.clone();
        for &id in &running {
            self.roll_back(
                id,
                FailureClass::HostRestart,
                &[],
                false,
                "sched_host_restart",
                None,
            );
        }
        running.into_iter().map(JobId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::SimMesh;
    use crate::scheduler::StepOutcome;
    use crate::vault::MemoryVault;

    fn machine() -> TorusShape {
        TorusShape::new(&[4, 2, 2])
    }

    fn shape(extents: &[usize]) -> ShapeRequest {
        ShapeRequest {
            extents: extents.to_vec(),
            groups: vec![vec![0], vec![1]],
        }
    }

    fn setup() -> (Scheduler, SimMesh) {
        let mut s = Scheduler::new(machine(), SchedConfig::default());
        s.add_tenant("phys", TenantConfig::default());
        s.add_tenant("eng", TenantConfig::default());
        (s, SimMesh::new(machine()))
    }

    /// Five jobs over two tenants, some running and some queued, one
    /// with a checkpoint: every part of the archive is non-empty.
    fn busy_scheduler() -> Scheduler {
        let (mut s, mut mesh) = setup();
        for i in 0..5 {
            let spec = JobSpec {
                tenant: if i % 2 == 0 { "phys" } else { "eng" }.into(),
                priority: if i == 3 {
                    Priority::Production
                } else {
                    Priority::Standard
                },
                shapes: vec![
                    shape(&[4, 2, 1]),
                    ShapeRequest {
                        extents: vec![4, 1, 1],
                        groups: vec![vec![0]],
                    },
                ],
                work: 4 + i,
                preemptible: true,
            };
            s.submit(spec).unwrap();
            s.advance(1, &mut mesh);
        }
        s.store_checkpoint(JobId(0), &[9, 9, 9], &mut MemoryVault::new())
            .unwrap();
        s
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let s = busy_scheduler();
        let id = JobId(0);
        let bytes = s.save_state();
        let restored = Scheduler::restore_state(&bytes).unwrap();
        // The restored scheduler re-saves to the identical archive and
        // continues the identical event log.
        assert_eq!(restored.save_state(), bytes);
        assert_eq!(
            format!("{:?}", restored.events()),
            format!("{:?}", s.events())
        );
        assert_eq!(restored.clock(), s.clock());
        assert_eq!(
            restored.job(id).unwrap().checkpoint_remaining,
            s.job(id).unwrap().checkpoint_remaining
        );
    }

    #[test]
    fn corrupt_archives_are_refused() {
        let (s, _) = setup();
        let bytes = s.save_state();
        assert_eq!(
            Scheduler::restore_state(&bytes[..4]).err(),
            Some(StateError::Truncated {
                need: 8,
                at: 0,
                have: 4
            })
        );
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            Scheduler::restore_state(&bad).err(),
            Some(StateError::BadMagic)
        );
        // A version-1 archive (job records carried checkpoint blobs) is
        // refused, not misread.
        let mut v1 = bytes.clone();
        v1[..8].copy_from_slice(b"QSCHEDv1");
        assert_eq!(
            Scheduler::restore_state(&v1).err(),
            Some(StateError::BadMagic)
        );
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        // The last field is the (empty) event log's count.
        assert_eq!(
            Scheduler::restore_state(&truncated).err(),
            Some(StateError::Truncated {
                need: 8,
                at: bytes.len() - 8,
                have: 7
            })
        );
    }

    #[test]
    fn every_strict_prefix_is_refused_as_truncated() {
        let bytes = busy_scheduler().save_state();
        for len in 0..bytes.len() {
            match Scheduler::restore_state(&bytes[..len]) {
                Err(StateError::Truncated { .. } | StateError::BadLength { .. }) => {}
                other => panic!("prefix of {len} bytes: {:?}", other.err()),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_restores_or_fails_typed() {
        // Exhaustive over every bit of the archive: no flip may panic, and
        // between them the flips reach every corruption the reader names.
        let bytes = busy_scheduler().save_state();
        let mut seen = BTreeMap::new();
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let kind = match Scheduler::restore_state(&flipped) {
                Ok(_) => "ok",
                Err(StateError::Truncated { .. }) => "truncated",
                Err(StateError::BadMagic) => "bad magic",
                Err(StateError::BadLength { .. }) => "bad length",
                Err(StateError::BadUtf8) => "bad utf-8",
                Err(StateError::BadCode { what, .. }) => what,
                Err(StateError::BadShape { .. }) => "bad shape",
                Err(StateError::UnknownJob { .. }) => "unknown job",
            };
            *seen.entry(kind).or_insert(0usize) += 1;
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let kinds: Vec<_> = seen.keys().copied().collect();
        assert_eq!(
            kinds,
            [
                "bad length",
                "bad magic",
                "bad shape",
                "bad utf-8",
                "event tag",
                "failure class",
                "job status",
                "ok",
                "priority",
                "truncated",
                "unknown job",
            ],
            "{seen:?}"
        );
    }

    #[test]
    fn restart_recovery_requeues_running_jobs_without_charging_budget() {
        let (mut s, mut mesh) = setup();
        let job = s
            .submit(JobSpec {
                tenant: "phys".into(),
                priority: Priority::Standard,
                shapes: vec![shape(&[4, 2, 1])],
                work: 10,
                preemptible: true,
            })
            .unwrap();
        s.schedule(&mut mesh);
        s.advance(4, &mut mesh);
        // Checkpoint at remaining=6, then deliver 2 more ticks that the
        // restart will roll back.
        s.store_checkpoint(job, &[1], &mut MemoryVault::new())
            .unwrap();
        s.advance(2, &mut mesh);
        assert_eq!(s.job(job).unwrap().remaining, 4);

        let bytes = s.save_state();
        let mut restarted = Scheduler::restore_state(&bytes).unwrap();
        let recovered = restarted.recover_after_restart();
        assert_eq!(recovered, vec![job]);
        let rec = restarted.job(job).unwrap();
        assert_eq!(rec.status, JobStatus::Held);
        assert_eq!(rec.remaining, 6, "rolled back to the checkpoint");
        assert_eq!(rec.retries, 0, "host restarts never charge the budget");
        assert_eq!(rec.last_failure, Some(FailureClass::HostRestart));
        // Wasted the 2 uncheckpointed node·ticks on 8 nodes.
        assert_eq!(restarted.wasted_node_ticks(), 16);
        // A fresh mesh picks the job back up and it completes.
        let mut mesh2 = SimMesh::new(machine());
        loop {
            match restarted.step(&mut mesh2) {
                StepOutcome::Done => break,
                StepOutcome::Progressed => {}
                StepOutcome::Stuck => panic!("recovered job must place"),
            }
        }
        assert_eq!(
            restarted.job(job).unwrap().status,
            JobStatus::Completed,
            "recovered job runs to completion"
        );
    }
}
