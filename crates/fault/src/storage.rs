//! Seeded, deterministic **storage** faults: the host-disk half of the
//! reliability story.
//!
//! The companion paper (hep-lat/0306023) splits reliability into the
//! machine half — SCU links, ECC, checksums, already covered by
//! [`crate::plan`] — and the *host-system* half: the RAID the nodes write
//! to over NFS (§3.2, §4). A week-long campaign's checkpoints live there,
//! and disks fail in their own ways: a server crash tears a write in
//! half, media rots a bit years (or seconds, here) after it was verified,
//! a reboot staled every open handle, a congested net drops a call, a
//! full disk refuses new bytes.
//!
//! Like the machine-side plans, a [`StorageFaultPlan`] is pure data;
//! compiling it into a [`StorageClock`] resolves every seeded draw up
//! front, so the injected fault stream is a pure function of the plan and
//! the server's operation counters — identical across runs.

use crate::clock::mix;

/// One scheduled storage failure.
///
/// Write-scoped kinds ([`StorageFault::TornWrite`],
/// [`StorageFault::DiskFull`]) are keyed by the server's *write-call*
/// counter; the rest by its global operation counter. Both counters are
/// deterministic functions of the workload, so a plan aimed at "the 3rd
/// write" strikes the same byte stream every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageFault {
    /// The server crashes partway through the `write_op`-th write call:
    /// only a prefix of the call's bytes reaches the platter, every open
    /// handle dies with the server, and the caller sees
    /// a server-crash error. `keep` is the number of bytes that land;
    /// `None` draws it from the plan's seed (strictly less than the
    /// call's length, so the write is genuinely torn).
    TornWrite {
        /// Index into the server's write-call counter.
        write_op: u64,
        /// Bytes of the call that land before the crash (`None` = seeded
        /// draw in `0..len`).
        keep: Option<usize>,
    },
    /// Transient I/O errors: operations `op..op + count` fail without
    /// touching any state (a congested network, a briefly-unreachable
    /// server). Retryable by construction.
    Transient {
        /// First failing operation index.
        op: u64,
        /// Number of consecutive failing operations.
        count: u64,
    },
    /// The disk reports itself full on the `write_op`-th write call,
    /// whatever the real capacity says — an operator filled the RAID
    /// with someone else's configurations.
    DiskFull {
        /// Index into the server's write-call counter.
        write_op: u64,
    },
    /// The server reboots between calls at operation `op`: every handle
    /// opened before it is stale afterwards. Stored bytes survive.
    StaleHandles {
        /// Operation index at which the reboot becomes visible.
        op: u64,
    },
    /// Bit rot at rest: from operation `from_op` on, the stored bytes of
    /// `path` carry one flipped bit (applied on next access, `byte`
    /// taken modulo the file length). The write that stored the bytes
    /// succeeded and verified clean — the decay happens on the platter.
    BitRot {
        /// Path of the afflicted file.
        path: String,
        /// Operation index from which the rot is manifest.
        from_op: u64,
        /// Afflicted byte offset (modulo file length at strike time).
        byte: u64,
        /// Bit within the byte (0..8).
        bit: u8,
    },
}

/// A seeded, declarative schedule of storage faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageFaultPlan {
    /// Seed for every random draw the plan implies.
    pub seed: u64,
    /// The scheduled events.
    pub events: Vec<StorageFault>,
}

impl StorageFaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> StorageFaultPlan {
        StorageFaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Add an event (builder style).
    pub fn with_event(mut self, event: StorageFault) -> StorageFaultPlan {
        self.events.push(event);
        self
    }
}

/// A [`StorageFaultPlan`] compiled for querying by the NFS server.
///
/// Every query is a pure function of `(plan, operation counter)`; the
/// clock itself is immutable. The *server* tracks which one-shot rot
/// events it has already applied — the clock only says what is due.
#[derive(Debug, Clone)]
pub struct StorageClock {
    seed: u64,
    torn: Vec<(u64, Option<usize>)>,
    transients: Vec<(u64, u64)>,
    full: Vec<u64>,
    stale: Vec<u64>,
    rot: Vec<(String, u64, u64, u8)>,
}

impl StorageClock {
    /// Compile a plan.
    pub fn resolve(plan: &StorageFaultPlan) -> StorageClock {
        let mut clock = StorageClock {
            seed: plan.seed,
            torn: Vec::new(),
            transients: Vec::new(),
            full: Vec::new(),
            stale: Vec::new(),
            rot: Vec::new(),
        };
        for event in &plan.events {
            match event {
                StorageFault::TornWrite { write_op, keep } => {
                    clock.torn.push((*write_op, *keep));
                }
                StorageFault::Transient { op, count } => {
                    clock.transients.push((*op, (*count).max(1)));
                }
                StorageFault::DiskFull { write_op } => clock.full.push(*write_op),
                StorageFault::StaleHandles { op } => clock.stale.push(*op),
                StorageFault::BitRot {
                    path,
                    from_op,
                    byte,
                    bit,
                } => {
                    clock.rot.push((path.clone(), *from_op, *byte, *bit % 8));
                }
            }
        }
        clock
    }

    /// If the `write_op`-th write call is torn: how many of its `len`
    /// bytes land before the server dies (always `< len` for `len > 0`).
    pub fn torn_keep(&self, write_op: u64, len: usize) -> Option<usize> {
        self.torn
            .iter()
            .find(|(w, _)| *w == write_op)
            .map(|(_, k)| {
                let keep = match k {
                    Some(keep) => *keep,
                    None => (mix(self.seed ^ write_op) % len.max(1) as u64) as usize,
                };
                keep.min(len.saturating_sub(1))
            })
    }

    /// Whether operation `op` fails transiently.
    pub fn transient(&self, op: u64) -> bool {
        self.transients
            .iter()
            .any(|(from, count)| op >= *from && op < from + count)
    }

    /// Whether the `write_op`-th write call sees a full disk.
    pub fn disk_full(&self, write_op: u64) -> bool {
        self.full.contains(&write_op)
    }

    /// Whether a server reboot staled the handles at exactly `op`.
    pub fn handles_stale_at(&self, op: u64) -> bool {
        self.stale.contains(&op)
    }

    /// Bit-rot events due against `path` by operation `op`: plan indices
    /// (for the server's applied-once bookkeeping) with `(byte, bit)`.
    pub fn rot_due(&self, path: &str, op: u64) -> Vec<(usize, u64, u8)> {
        self.rot
            .iter()
            .enumerate()
            .filter(|(_, (p, from, _, _))| p == path && op >= *from)
            .map(|(i, (_, _, byte, bit))| (i, *byte, *bit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_compiles() {
        let plan = StorageFaultPlan::new(5)
            .with_event(StorageFault::TornWrite {
                write_op: 3,
                keep: Some(100),
            })
            .with_event(StorageFault::Transient { op: 7, count: 2 })
            .with_event(StorageFault::DiskFull { write_op: 9 })
            .with_event(StorageFault::StaleHandles { op: 11 })
            .with_event(StorageFault::BitRot {
                path: "/data/a".into(),
                from_op: 4,
                byte: 17,
                bit: 3,
            });
        assert_eq!(plan.events.len(), 5);
        let clock = StorageClock::resolve(&plan);
        assert_eq!(clock.torn_keep(3, 500), Some(100));
        assert_eq!(clock.torn_keep(2, 500), None);
        assert!(clock.transient(7) && clock.transient(8) && !clock.transient(9));
        assert!(clock.disk_full(9) && !clock.disk_full(3));
        assert!(clock.handles_stale_at(11) && !clock.handles_stale_at(10));
        assert_eq!(clock.rot_due("/data/a", 3), vec![]);
        assert_eq!(clock.rot_due("/data/a", 4), vec![(0, 17, 3)]);
        assert_eq!(clock.rot_due("/data/b", 99), vec![]);
    }

    #[test]
    fn seeded_torn_keep_is_deterministic_and_strictly_torn() {
        let plan = StorageFaultPlan::new(42).with_event(StorageFault::TornWrite {
            write_op: 1,
            keep: None,
        });
        let a = StorageClock::resolve(&plan);
        let b = StorageClock::resolve(&plan);
        for len in [1usize, 2, 100, 65536] {
            let ka = a.torn_keep(1, len).unwrap();
            assert_eq!(Some(ka), b.torn_keep(1, len), "seeded draw must replay");
            assert!(ka < len, "a torn write must lose at least one byte");
        }
        // A different seed draws a different prefix (for any useful len).
        let other = StorageClock::resolve(&StorageFaultPlan::new(43).with_event(
            StorageFault::TornWrite {
                write_op: 1,
                keep: None,
            },
        ));
        assert_ne!(a.torn_keep(1, 65536), other.torn_keep(1, 65536));
    }

    #[test]
    fn explicit_keep_is_clamped_below_len() {
        let plan = StorageFaultPlan::new(0).with_event(StorageFault::TornWrite {
            write_op: 0,
            keep: Some(10_000),
        });
        let clock = StorageClock::resolve(&plan);
        assert_eq!(clock.torn_keep(0, 8), Some(7));
    }
}
