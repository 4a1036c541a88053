//! Durable checkpoint storage at the scheduler boundary.
//!
//! A preempted job's exact-bits CG checkpoint is an opaque blob the
//! scheduler never reads. The paper's operating model (§3.2, §4) puts
//! that state on the host RAID, not in the daemon's memory: checkpoints
//! belong on disk, where they outlive the process that took them. So a
//! blob has exactly one home, the vault; the scheduler remembers only
//! the service level it was taken at.
//!
//! [`CheckpointVault`] is the boundary trait: the scheduler stays
//! storage-agnostic (blobs in, blobs out, `String` errors), the host
//! crate implements it over its NFS server + durable `CheckpointStore`
//! (atomic generations, verified restore), and [`MemoryVault`] is the
//! in-process reference implementation for tests and in-process
//! drivers.

use crate::job::JobId;
use std::collections::HashMap;

/// Durable parking for preempted jobs' checkpoint blobs.
///
/// Implementations must make a stored blob readable after the scheduler
/// process that stored it is gone (except [`MemoryVault`], which
/// documents that it does not). Errors are strings because the scheduler
/// can do nothing smarter than record and surface them.
pub trait CheckpointVault {
    /// Durably store `blob` for `job`, replacing any previous one.
    /// Returns an implementation-defined generation number.
    fn store(&mut self, job: JobId, blob: &[u8]) -> Result<u64, String>;

    /// Load the newest good blob for `job`, `None` if none was stored.
    fn load(&mut self, job: JobId) -> Result<Option<Vec<u8>>, String>;

    /// Drop `job`'s blobs (the job completed or was cancelled); best
    /// effort.
    fn discard(&mut self, job: JobId);
}

/// In-memory reference vault: correct protocol, no durability across a
/// process restart.
#[derive(Debug, Default)]
pub struct MemoryVault {
    blobs: HashMap<u64, (u64, Vec<u8>)>,
}

impl MemoryVault {
    /// An empty vault.
    pub fn new() -> MemoryVault {
        MemoryVault::default()
    }
}

impl CheckpointVault for MemoryVault {
    fn store(&mut self, job: JobId, blob: &[u8]) -> Result<u64, String> {
        let gen = self.blobs.get(&job.0).map(|(g, _)| g + 1).unwrap_or(0);
        self.blobs.insert(job.0, (gen, blob.to_vec()));
        Ok(gen)
    }

    fn load(&mut self, job: JobId) -> Result<Option<Vec<u8>>, String> {
        Ok(self.blobs.get(&job.0).map(|(_, b)| b.clone()))
    }

    fn discard(&mut self, job: JobId) {
        self.blobs.remove(&job.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_vault_roundtrip_replace_discard() {
        let mut v = MemoryVault::new();
        let job = JobId(7);
        assert_eq!(v.load(job).unwrap(), None);
        assert_eq!(v.store(job, b"one").unwrap(), 0);
        assert_eq!(v.store(job, b"two").unwrap(), 1, "replace bumps generation");
        assert_eq!(v.load(job).unwrap().as_deref(), Some(&b"two"[..]));
        v.discard(job);
        assert_eq!(v.load(job).unwrap(), None);
    }
}
