//! The host-side NFS service (§3.2).
//!
//! "The kernel also includes support for NFS mounting of remote disks,
//! which is already being used by application programs to write directly
//! to the host disk system." The server exports directories from the
//! host's RAID (6 TB on the 4096-node machine, §4); nodes mount them and
//! stream configurations out over the Ethernet tree.
//!
//! The server accepts a seeded [`StorageFaultPlan`] (see
//! `qcdoc_fault::storage`): torn writes, bit rot at rest, stale handles,
//! transient I/O errors, and injected disk-full strike at fixed points of
//! the server's operation counters. State-changing verbs (`open`,
//! `write`, `read`, `rename`, `remove`) advance the clock; read-only
//! metadata probes (`stat`, `list`) do not, so fault plans aimed at "the
//! Nth write" survive extra discovery traffic.
//!
//! Appends land on the media in `WIRE_CHUNK`-sized transfer units, so
//! capacity exhaustion can surface *mid-call*; the write then rolls the
//! partial append back — per-call writes are all-or-nothing. The one
//! deliberate exception is an injected
//! [`qcdoc_fault::StorageFault::TornWrite`]: the
//! server died mid-call, nobody was left to roll back, and exactly the
//! surviving prefix stays on disk.

use qcdoc_fault::{StorageClock, StorageFaultPlan};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

/// NFS transfer unit: the granularity at which an append reaches the
/// media (and at which a mid-call disk-full or crash can strike).
const WIRE_CHUNK: usize = 8 * 1024;

/// An open-file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NfsHandle(pub u32);

/// NFS operation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsError {
    /// The path is outside every export.
    NotExported(String),
    /// Unknown handle.
    StaleHandle,
    /// The file does not exist (read/stat/rename/remove).
    NoEntry(String),
    /// The server's disk is full.
    DiskFull,
    /// The server crashed mid-call (injected torn write): a prefix of
    /// the bytes may have landed and every open handle is dead.
    ServerCrash,
    /// Transient I/O failure (congestion, brief unreachability); nothing
    /// was touched, the call may simply be retried.
    Transient,
}

impl NfsError {
    /// Whether a bounded retry (after reopening handles if needed) can
    /// reasonably expect to succeed. `DiskFull` is not retryable until
    /// someone frees space; `NotExported`/`NoEntry` are caller bugs.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            NfsError::Transient | NfsError::ServerCrash | NfsError::StaleHandle
        )
    }
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::NotExported(p) => write!(f, "{p}: not exported"),
            NfsError::StaleHandle => write!(f, "stale NFS handle"),
            NfsError::NoEntry(p) => write!(f, "{p}: no such file"),
            NfsError::DiskFull => write!(f, "disk full"),
            NfsError::ServerCrash => write!(f, "NFS server crashed mid-write"),
            NfsError::Transient => write!(f, "transient NFS I/O error"),
        }
    }
}

impl std::error::Error for NfsError {}

/// The host NFS server.
#[derive(Debug)]
pub struct NfsServer {
    exports: Vec<String>,
    /// Every file by path, in path order, so a listing is a range scan.
    files: BTreeMap<String, Vec<u8>>,
    handles: HashMap<NfsHandle, String>,
    next_handle: u32,
    capacity: u64,
    used: u64,
    bytes_read: u64,
    faults: Option<StorageClock>,
    ops: u64,
    write_ops: u64,
    rot_applied: HashSet<usize>,
}

impl NfsServer {
    /// A server exporting the given path prefixes with `capacity` bytes of
    /// disk (the paper's machine: 6 TB of parallel RAID).
    pub fn new(exports: &[&str], capacity: u64) -> NfsServer {
        NfsServer {
            exports: exports.iter().map(|s| s.to_string()).collect(),
            files: BTreeMap::new(),
            handles: HashMap::new(),
            next_handle: 1,
            capacity,
            used: 0,
            bytes_read: 0,
            faults: None,
            ops: 0,
            write_ops: 0,
            rot_applied: HashSet::new(),
        }
    }

    /// The paper's host storage: 6 TB.
    pub fn paper_host() -> NfsServer {
        NfsServer::new(&["/data"], 6 * 1024 * 1024 * 1024 * 1024)
    }

    /// Arm a seeded storage-fault plan. Replaces any previous plan but
    /// keeps the operation counters, so a plan injected mid-run aims at
    /// ops *from now on*; use [`NfsServer::ops`]/[`NfsServer::write_ops`]
    /// to address them.
    pub fn inject(&mut self, plan: &StorageFaultPlan) {
        self.faults = Some(StorageClock::resolve(plan));
        self.rot_applied.clear();
    }

    /// Disarm storage faults.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Operations performed so far (the global fault-clock index the
    /// next call will run at).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Write calls performed so far (the write-clock index the next
    /// `write` will run at).
    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    fn exported(&self, path: &str) -> bool {
        self.exports.iter().any(|e| path.starts_with(e.as_str()))
    }

    /// Advance the global operation clock, applying any scheduled server
    /// reboot (staling every handle) due at this instant.
    fn tick(&mut self) -> u64 {
        let op = self.ops;
        self.ops += 1;
        if self.faults.as_ref().is_some_and(|c| c.handles_stale_at(op)) {
            self.handles.clear();
        }
        op
    }

    fn transient_at(&self, op: u64) -> bool {
        self.faults.as_ref().is_some_and(|c| c.transient(op))
    }

    /// Manifest any bit rot due against `path` (each plan event strikes
    /// at most once, on the first access after its `from_op`).
    fn apply_rot(&mut self, path: &str, op: u64) {
        let due = match &self.faults {
            Some(clock) => clock.rot_due(path, op),
            None => return,
        };
        for (idx, byte, bit) in due {
            if self.rot_applied.contains(&idx) {
                continue;
            }
            if let Some(file) = self.files.get_mut(path) {
                if !file.is_empty() {
                    let i = (byte % file.len() as u64) as usize;
                    file[i] ^= 1 << bit;
                    self.rot_applied.insert(idx);
                }
            }
        }
    }

    /// Open (creating if needed) a file for a node.
    pub fn open(&mut self, path: &str) -> Result<NfsHandle, NfsError> {
        let op = self.tick();
        if self.transient_at(op) {
            return Err(NfsError::Transient);
        }
        if !self.exported(path) {
            return Err(NfsError::NotExported(path.to_string()));
        }
        self.files.entry(path.to_string()).or_default();
        let h = NfsHandle(self.next_handle);
        self.next_handle += 1;
        self.handles.insert(h, path.to_string());
        Ok(h)
    }

    /// Append bytes through a handle — all-or-nothing: if the disk fills
    /// partway through the call's `WIRE_CHUNK`s, the partial append is
    /// rolled back and `DiskFull` reports an untouched file. Only an
    /// injected server crash ([`NfsError::ServerCrash`]) leaves a torn
    /// prefix, because the process that would have rolled it back died.
    pub fn write(&mut self, h: NfsHandle, bytes: &[u8]) -> Result<(), NfsError> {
        let op = self.tick();
        if self.transient_at(op) {
            return Err(NfsError::Transient);
        }
        let path = self.handles.get(&h).ok_or(NfsError::StaleHandle)?.clone();
        let wop = self.write_ops;
        self.write_ops += 1;
        if self.faults.as_ref().is_some_and(|c| c.disk_full(wop)) {
            return Err(NfsError::DiskFull);
        }
        let torn = self
            .faults
            .as_ref()
            .and_then(|c| c.torn_keep(wop, bytes.len()));
        let file = self.files.get_mut(&path).ok_or(NfsError::StaleHandle)?;
        if let Some(keep) = torn {
            // Server crash mid-call: the surviving prefix (as far as the
            // disk had room) stays; every handle dies with the server.
            let room = (self.capacity - self.used).min(keep as u64) as usize;
            file.extend_from_slice(&bytes[..room]);
            self.used += room as u64;
            self.handles.clear();
            return Err(NfsError::ServerCrash);
        }
        let base_len = file.len();
        let base_used = self.used;
        // One allocation up front; the per-chunk loop below still models
        // (and can fail) each WIRE_CHUNK transfer individually.
        file.reserve(bytes.len());
        for chunk in bytes.chunks(WIRE_CHUNK) {
            if self.used + chunk.len() as u64 > self.capacity {
                file.truncate(base_len);
                self.used = base_used;
                return Err(NfsError::DiskFull);
            }
            file.extend_from_slice(chunk);
            self.used += chunk.len() as u64;
        }
        Ok(())
    }

    /// Read a whole file (manifesting any bit rot due against it).
    pub fn read(&mut self, path: &str) -> Result<Vec<u8>, NfsError> {
        let op = self.tick();
        if self.transient_at(op) {
            return Err(NfsError::Transient);
        }
        if !self.exported(path) {
            return Err(NfsError::NotExported(path.to_string()));
        }
        self.apply_rot(path, op);
        let data = self
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| NfsError::NoEntry(path.to_string()))?;
        self.bytes_read += data.len() as u64;
        Ok(data)
    }

    /// Atomically rename `from` to `to` (POSIX semantics: an existing
    /// destination is replaced in one step). Handles to either path go
    /// stale; this is the commit primitive the checkpoint store builds
    /// its generation protocol on.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), NfsError> {
        let op = self.tick();
        if self.transient_at(op) {
            return Err(NfsError::Transient);
        }
        if !self.exported(from) {
            return Err(NfsError::NotExported(from.to_string()));
        }
        if !self.exported(to) {
            return Err(NfsError::NotExported(to.to_string()));
        }
        let data = self
            .files
            .remove(from)
            .ok_or_else(|| NfsError::NoEntry(from.to_string()))?;
        if let Some(old) = self.files.insert(to.to_string(), data) {
            self.used -= old.len() as u64;
        }
        self.handles.retain(|_, p| p != from && p != to);
        Ok(())
    }

    /// Remove a file, refunding its bytes. Handles to it go stale.
    pub fn remove(&mut self, path: &str) -> Result<(), NfsError> {
        let op = self.tick();
        if self.transient_at(op) {
            return Err(NfsError::Transient);
        }
        if !self.exported(path) {
            return Err(NfsError::NotExported(path.to_string()));
        }
        let data = self
            .files
            .remove(path)
            .ok_or_else(|| NfsError::NoEntry(path.to_string()))?;
        self.used -= data.len() as u64;
        self.handles.retain(|_, p| p != path);
        Ok(())
    }

    /// Paths starting with `prefix`, sorted (a directory listing; does
    /// not advance the fault clock).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        // Every path with the prefix sorts at or after the prefix itself,
        // and before the first path past it that lacks the prefix.
        self.files
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(path, _)| path)
            .take_while(|path| path.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// File size, if it exists (does not advance the fault clock).
    pub fn stat(&self, path: &str) -> Result<u64, NfsError> {
        self.files
            .get(path)
            .map(|d| d.len() as u64)
            .ok_or_else(|| NfsError::NoEntry(path.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_fault::StorageFault;

    #[test]
    fn open_write_read_roundtrip() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        let h = s.open("/data/configs/lat.0").unwrap();
        s.write(h, b"hello").unwrap();
        s.write(h, b" qcd").unwrap();
        assert_eq!(s.read("/data/configs/lat.0").unwrap(), b"hello qcd");
        assert_eq!(s.stat("/data/configs/lat.0").unwrap(), 9);
    }

    #[test]
    fn unexported_paths_rejected() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        assert!(matches!(
            s.open("/etc/shadow"),
            Err(NfsError::NotExported(_))
        ));
        assert!(matches!(
            s.read("/etc/shadow"),
            Err(NfsError::NotExported(_))
        ));
    }

    #[test]
    fn stale_handle_rejected() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        assert_eq!(s.write(NfsHandle(99), b"x"), Err(NfsError::StaleHandle));
    }

    #[test]
    fn disk_capacity_enforced() {
        let mut s = NfsServer::new(&["/data"], 10);
        let h = s.open("/data/f").unwrap();
        s.write(h, &[0u8; 10]).unwrap();
        assert_eq!(s.write(h, &[0u8; 1]), Err(NfsError::DiskFull));
        assert_eq!(s.used, 10);
    }

    #[test]
    fn disk_full_mid_call_is_all_or_nothing() {
        // Capacity falls between the first and second WIRE_CHUNK of one
        // call: the chunk that landed must be rolled back.
        let mut s = NfsServer::new(&["/data"], 10_000);
        let h = s.open("/data/f").unwrap();
        assert_eq!(
            s.write(h, &[7u8; WIRE_CHUNK + 4_000]),
            Err(NfsError::DiskFull)
        );
        assert_eq!(s.stat("/data/f").unwrap(), 0, "partial append leaked");
        assert_eq!(s.used, 0);
        // And a prior append is preserved exactly across a failed one.
        s.write(h, b"safe").unwrap();
        assert_eq!(s.write(h, &[7u8; 12_000]), Err(NfsError::DiskFull));
        assert_eq!(s.read("/data/f").unwrap(), b"safe");
        assert_eq!(s.used, 4);
    }

    #[test]
    fn injected_disk_full_touches_nothing() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        s.inject(&StorageFaultPlan::new(1).with_event(StorageFault::DiskFull { write_op: 1 }));
        let h = s.open("/data/f").unwrap();
        s.write(h, b"one").unwrap();
        assert_eq!(s.write(h, b"two"), Err(NfsError::DiskFull));
        assert_eq!(s.read("/data/f").unwrap(), b"one");
        // The strike is one-shot: the next write goes through.
        s.write(h, b"three").unwrap();
        assert_eq!(s.read("/data/f").unwrap(), b"onethree");
    }

    #[test]
    fn torn_write_leaves_exact_prefix_and_kills_handles() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        s.inject(
            &StorageFaultPlan::new(1).with_event(StorageFault::TornWrite {
                write_op: 0,
                keep: Some(3),
            }),
        );
        let h = s.open("/data/f").unwrap();
        assert_eq!(s.write(h, b"abcdef"), Err(NfsError::ServerCrash));
        assert_eq!(s.write(h, b"late"), Err(NfsError::StaleHandle));
        assert_eq!(s.read("/data/f").unwrap(), b"abc");
        let h2 = s.open("/data/f").unwrap();
        s.write(h2, b"def").unwrap();
        assert_eq!(s.read("/data/f").unwrap(), b"abcdef");
    }

    #[test]
    fn transient_errors_are_retryable_and_touch_nothing() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        // open is op 0, so the first write runs at op 1.
        s.inject(&StorageFaultPlan::new(1).with_event(StorageFault::Transient { op: 1, count: 1 }));
        let h = s.open("/data/f").unwrap();
        let err = s.write(h, b"x").unwrap_err();
        assert_eq!(err, NfsError::Transient);
        assert!(err.retryable());
        s.write(h, b"x").unwrap();
        assert_eq!(s.read("/data/f").unwrap(), b"x");
    }

    #[test]
    fn scheduled_reboot_stales_handles_but_keeps_bytes() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        s.inject(&StorageFaultPlan::new(1).with_event(StorageFault::StaleHandles { op: 2 }));
        let h = s.open("/data/f").unwrap();
        s.write(h, b"pre").unwrap();
        assert_eq!(s.write(h, b"post"), Err(NfsError::StaleHandle));
        let h2 = s.open("/data/f").unwrap();
        s.write(h2, b"post").unwrap();
        assert_eq!(s.read("/data/f").unwrap(), b"prepost");
    }

    #[test]
    fn bit_rot_flips_one_bit_once() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        let h = s.open("/data/f").unwrap();
        s.write(h, b"hello").unwrap();
        s.inject(&StorageFaultPlan::new(1).with_event(StorageFault::BitRot {
            path: "/data/f".into(),
            from_op: 0,
            byte: 0,
            bit: 0,
        }));
        assert_eq!(s.read("/data/f").unwrap(), b"iello");
        assert_eq!(s.read("/data/f").unwrap(), b"iello", "rot must be one-shot");
    }

    #[test]
    fn rename_is_atomic_commit_and_replaces_destination() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        let h = s.open("/data/tmp").unwrap();
        s.write(h, b"new bytes").unwrap();
        let h2 = s.open("/data/final").unwrap();
        s.write(h2, b"old").unwrap();
        assert_eq!(s.used, 12);
        s.rename("/data/tmp", "/data/final").unwrap();
        assert_eq!(s.read("/data/final").unwrap(), b"new bytes");
        assert!(matches!(s.read("/data/tmp"), Err(NfsError::NoEntry(_))));
        assert_eq!(s.used, 9, "replaced destination must refund its bytes");
        assert_eq!(s.write(h2, b"x"), Err(NfsError::StaleHandle));
        assert!(matches!(
            s.rename("/data/nope", "/data/x"),
            Err(NfsError::NoEntry(_))
        ));
        assert!(matches!(
            s.rename("/data/final", "/other/x"),
            Err(NfsError::NotExported(_))
        ));
    }

    #[test]
    fn remove_refunds_bytes_and_stales_handles() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        let h = s.open("/data/f").unwrap();
        s.write(h, b"bytes").unwrap();
        s.remove("/data/f").unwrap();
        assert_eq!(s.used, 0);
        assert_eq!(s.write(h, b"x"), Err(NfsError::StaleHandle));
        assert!(matches!(s.remove("/data/f"), Err(NfsError::NoEntry(_))));
    }

    #[test]
    fn list_returns_sorted_prefix_matches() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        for p in ["/data/ck/b", "/data/ck/a", "/data/other"] {
            s.open(p).unwrap();
        }
        assert_eq!(s.list("/data/ck/"), vec!["/data/ck/a", "/data/ck/b"]);
        assert!(s.list("/data/none/").is_empty());
    }

    /// The listing as a filter over every path, then a sort.
    fn oracle_list(s: &NfsServer, prefix: &str) -> Vec<String> {
        let mut out: Vec<String> = s
            .files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        out.sort();
        out
    }

    #[test]
    fn list_equals_a_filter_and_sort() {
        // Two export roots, one a prefix of the other.
        let mut s = NfsServer::new(&["/data", "/data2"], 1 << 20);
        for p in [
            "/data/ck/job/gen-10",
            "/data/ck/job/gen-1",
            "/data/ck/job/gen-1.tmp",
            "/data/ck/job/gen-2",
            "/data/ck/job/gen-100",
            "/data/ck/jobs/gen-1",
            "/data/ck/job",
            "/data2/ck/job/gen-1",
            "/data/",
            "/data",
        ] {
            let h = s.open(p).unwrap();
            s.write(h, p.as_bytes()).unwrap();
        }
        let prefixes = [
            "",
            "/",
            "/data",
            "/data/",
            "/data2",
            "/data/ck/job",
            "/data/ck/job/",
            "/data/ck/job/gen-1",
            "/data/ck/job/gen-10",
            "/data/ck/job/gen-1000",
            "/data/ck/jobs",
            "/data/ck/job/gen-\u{10FFFF}",
            "/nothing",
        ];
        let check = |s: &NfsServer, step: &str| {
            for prefix in prefixes {
                assert_eq!(s.list(prefix), oracle_list(s, prefix), "{step}: {prefix:?}");
            }
        };
        check(&s, "fresh");
        assert_eq!(
            s.list("/data/ck/job/gen-1"),
            [
                "/data/ck/job/gen-1",
                "/data/ck/job/gen-1.tmp",
                "/data/ck/job/gen-10",
                "/data/ck/job/gen-100",
            ]
        );
        assert_eq!(s.list("/data").len(), 10, "/data2 shares the prefix");
        s.remove("/data/ck/job/gen-10").unwrap();
        check(&s, "after remove");
        s.rename("/data/ck/job/gen-1.tmp", "/data/ck/job/gen-3")
            .unwrap();
        s.rename("/data/ck/job/gen-2", "/data2/ck/job/gen-1")
            .unwrap();
        check(&s, "after rename");
        // A torn write leaves its prefix on a path the listing still shows.
        s.inject(
            &StorageFaultPlan::new(1).with_event(StorageFault::TornWrite {
                write_op: s.write_ops(),
                keep: Some(2),
            }),
        );
        let h = s.open("/data/ck/job/gen-11").unwrap();
        assert_eq!(s.write(h, b"torn"), Err(NfsError::ServerCrash));
        check(&s, "after a torn write");
        assert!(s
            .list("/data/ck/job/")
            .contains(&"/data/ck/job/gen-11".to_string()));
    }

    #[test]
    fn missing_file_is_noentry() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        assert!(matches!(s.read("/data/nope"), Err(NfsError::NoEntry(_))));
    }

    #[test]
    fn concurrent_handles_to_different_files() {
        let mut s = NfsServer::new(&["/data"], 1 << 20);
        let h1 = s.open("/data/a").unwrap();
        let h2 = s.open("/data/b").unwrap();
        s.write(h1, b"one").unwrap();
        s.write(h2, b"two").unwrap();
        assert_eq!(s.read("/data/a").unwrap(), b"one");
        assert_eq!(s.read("/data/b").unwrap(), b"two");
    }
}
