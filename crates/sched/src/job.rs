//! Batch jobs: what a tenant asks the machine to do.

use qcdoc_fault::FailureClass;
use qcdoc_geometry::{NodeCoord, TorusShape};

/// Priority classes, lowest to highest. Preemption only ever evicts a
/// job of a *strictly lower* class, so scavenger work soaks up idle
/// nodes without ever delaying production running at full priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Opportunistic filler: runs on whatever is idle, first to be
    /// preempted.
    Scavenger,
    /// Normal batch work.
    Standard,
    /// Deadline work: may preempt lower classes to get on the machine.
    Production,
}

impl Priority {
    /// Stable label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Scavenger => "scavenger",
            Priority::Standard => "standard",
            Priority::Production => "production",
        }
    }
}

/// One acceptable partition shape for a job: a physical sub-box (the
/// scheduler picks the origin) plus the axis grouping that folds it into
/// the logical torus the application runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeRequest {
    /// Requested extent along each physical axis.
    pub extents: Vec<usize>,
    /// Logical axis groups, as in [`qcdoc_geometry::PartitionSpec`].
    pub groups: Vec<Vec<usize>>,
}

impl ShapeRequest {
    /// Number of nodes the shape occupies.
    pub fn node_count(&self) -> usize {
        self.extents.iter().product()
    }
}

/// A tenant's job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (must be registered before submission).
    pub tenant: String,
    /// Priority class.
    pub priority: Priority,
    /// Acceptable shapes in preference order; the scheduler grants the
    /// first that fits. A preempted job may resume on a *different*
    /// shape from this list — the checkpoint protocol guarantees the
    /// result is bit-identical either way.
    pub shapes: Vec<ShapeRequest>,
    /// Service demand in scheduler ticks (for the CG acceptance tests,
    /// one tick is one solver iteration).
    pub work: u64,
    /// Whether the job may be preempted by a higher class. Checkpointed
    /// solvers say yes; jobs without a checkpoint story say no and are
    /// only ever stopped by `cancel`.
    pub preemptible: bool,
}

/// Job identifier, unique within one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for nodes.
    Queued,
    /// Holding a partition and accruing service.
    Running,
    /// Evicted mid-run; its checkpoint waits in the vault and the job
    /// waits in the queue for a new placement.
    Preempted,
    /// Died mid-run and is serving its exponential hold-off before the
    /// scheduler requeues it — the `Held(backoff)` state of the autonomic
    /// loop. Flips back to [`JobStatus::Queued`] when the hold expires.
    Held,
    /// Exhausted its retry budget; terminal unless an operator revives
    /// it with a manual `qretry`.
    Failed,
    /// All requested work delivered.
    Completed,
    /// Removed by the user before completion.
    Canceled,
}

/// A granted placement: which partition, where, and what logical shape
/// the job sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantedPlacement {
    /// Partition id in the mesh host (the qdaemon's allocation id).
    pub partition: u32,
    /// Physical origin of the sub-box.
    pub origin: NodeCoord,
    /// Index into [`JobSpec::shapes`] of the granted shape.
    pub shape_index: usize,
    /// The logical torus the job runs on.
    pub logical: TorusShape,
}

/// The scheduler's full record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's id.
    pub id: JobId,
    /// The request as submitted.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Clock tick at submission.
    pub submitted_at: u64,
    /// Tick the job last entered the queue (submission or preemption) —
    /// the reference point for aging.
    pub queued_since: u64,
    /// Tick of the first placement, once started.
    pub first_started_at: Option<u64>,
    /// Tick the job completed or was cancelled.
    pub finished_at: Option<u64>,
    /// Service ticks still owed.
    pub remaining: u64,
    /// Current placement while running.
    pub placement: Option<GrantedPlacement>,
    /// Logical shapes of every placement the job has held, in order —
    /// after a preempt-and-resume the list shows whether the shape
    /// changed.
    pub shape_history: Vec<TorusShape>,
    /// Times this job was preempted.
    pub preemptions: u32,
    /// Total ticks spent waiting in the queue.
    pub wait_ticks: u64,
    /// Times this job was requeued after a failure (distinct from
    /// voluntary preemptions) — charged against
    /// [`crate::SchedConfig::retry_budget`].
    pub retries: u32,
    /// Classification of the most recent failure, if any.
    pub last_failure: Option<FailureClass>,
    /// While [`JobStatus::Held`]: the clock tick the hold-off expires.
    pub held_until: u64,
    /// The convicted failure domain of the last failure: node ids the
    /// next placement must not include.
    pub avoid: Vec<u32>,
    /// `remaining` as of the newest checkpoint stored in the vault
    /// ([`crate::Scheduler::store_checkpoint`]) — the service level a
    /// failure rolls the job back to. `None` means no checkpoint
    /// exists and a failure restarts the job from scratch.
    pub checkpoint_remaining: Option<u64>,
}

impl JobRecord {
    /// Nodes currently held (0 unless running).
    pub fn held_nodes(&self) -> usize {
        self.placement
            .as_ref()
            .map(|p| p.logical.node_count())
            .unwrap_or(0)
    }
}
