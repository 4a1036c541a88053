//! Multi-tenant job scheduling for the QCDOC host (§3.1 and the
//! companion status reports, hep-lat/0306023 / hep-lat/0309096).
//!
//! The machine's signature software feature — carving the 6-D mesh into
//! independent 1..6-D partitions "without moving cables" — only pays off
//! once *many* physics groups can share one 12,288-node installation.
//! The qdaemon is their front door; this crate is the brain behind it:
//!
//! * [`tenant`] — tenants (physics groups) with fair-share weights and
//!   node quotas;
//! * [`job`] — batch job requests: a tenant, a priority class, one or
//!   more acceptable partition shapes, and a service demand;
//! * [`mesh`] — the [`MeshHost`] boundary the scheduler drives
//!   (implemented by the host's `Qdaemon`, and by the in-crate
//!   [`SimMesh`] for tests and benchmarks);
//! * [`scheduler`] — the deterministic scheduler itself: admission
//!   control, torus-aware best-fit packing over
//!   [`qcdoc_geometry::OccupancyMap`], fair-share ordering with strict
//!   aging (zero starvation), and preemption of lower-priority work via
//!   exact-bits checkpoints (the blob protocol of
//!   `qcdoc_lattice::checkpoint` — opaque bytes at this layer);
//! * [`vault`] — the [`CheckpointVault`] boundary, the one home of
//!   every checkpoint blob (the host implements it over its NFS
//!   checkpoint store, so parked jobs survive a qdaemon restart);
//! * [`state`] — the scheduler's own durable snapshot
//!   ([`Scheduler::save_state`] / [`Scheduler::restore_state`]) plus
//!   [`Scheduler::recover_after_restart`], which turns a host crash
//!   into a round of checkpoint-requeues instead of lost jobs.
//!
//! Failure is part of the schedule: [`Scheduler::fail_job`] classifies a
//! dead run (via [`qcdoc_fault::FailureClass`]), rolls the job back to
//! its newest checkpoint, serves an exponential hold-off, and requeues
//! it away from the convicted failure domain under a bounded retry
//! budget — the detect-and-requeue half of the autonomic loop the chaos
//! soak proves out.
//!
//! Everything is deterministic: virtual time is an explicit tick clock,
//! orderings use total comparisons with stable tie-breaks, and the same
//! submission stream against the same machine always produces the same
//! placement history. That is what makes a week of multi-tenant
//! operations compressible into a seeded soak test.

#![warn(missing_docs)]

pub mod job;
pub mod mesh;
pub mod scheduler;
pub mod state;
pub mod tenant;
pub mod vault;

pub use job::{JobId, JobRecord, JobSpec, JobStatus, Priority, ShapeRequest};
pub use mesh::{MeshHost, Placement, SimMesh};
pub use qcdoc_fault::FailureClass;
pub use scheduler::{AdmitError, SchedConfig, SchedEvent, Scheduler, StepOutcome};
pub use state::{StateError, STATE_JOB};
pub use tenant::{TenantConfig, TenantStats};
pub use vault::{CheckpointVault, MemoryVault};
