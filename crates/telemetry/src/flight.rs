//! Per-node flight recorder: the black box of the machine.
//!
//! The real QCDOC is debugged over its Ethernet/JTAG diagnostics tree
//! (paper §2.2); when a 12,288-node job dies, the question is always
//! "what happened on *that* node in the seconds before?". The flight
//! recorder answers it from the failure artifact instead of a rerun: a
//! bounded ring of cycle-stamped structured events — fault injections,
//! link retries, block rejects, machine checks, quarantines, preemptions,
//! checkpoints, rollbacks — recorded on the exceptional paths of the
//! scu/fault/core/host layers. It is *always on* (unlike span tracing):
//! the events are rare by construction, the ring is bounded and grows on
//! its first record (an always-on ring that never records costs nothing),
//! and a black box that has to be enabled in advance records nothing the
//! day it matters.
//!
//! Dumps are deterministic text, one line per event, filterable by node —
//! the `qflight <node>` qcsh verb and the end-of-soak artifacts both
//! render through [`dump_events`].

use std::collections::VecDeque;

/// Synthetic node id used for machine-level events (scheduler decisions,
/// host quarantines) that belong to no single node.
pub const HOST_NODE: u32 = u32::MAX;

/// What happened. Every kind has a stable lowercase name used by the
/// dump format and asserted on by the acceptance tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlightKind {
    /// A fault-plan event fired (corrupted or dropped frame, memory flip).
    FaultInjected,
    /// A link-level go-back-N rewind (parity reject forced a resend).
    Retry,
    /// An end-to-end block-checksum mismatch forced a whole-block replay.
    BlockReject,
    /// An uncorrectable (2-bit) ECC error latched a machine check.
    MachineCheck,
    /// A transfer gave up waiting on a silent wire and wedged the node.
    Wedge,
    /// The fault plan crashed this node mid-run.
    Crash,
    /// The host quarantined a node out of the boot map.
    Quarantine,
    /// The scheduler evicted a running job from its partition.
    Preemption,
    /// A checkpoint was captured (CG state or scheduler job blob).
    Checkpoint,
    /// A solver rolled its state back to a verified snapshot.
    Rollback,
    /// A preempted or interrupted computation resumed.
    Resume,
    /// A quarantined node moved through the repair pipeline (scrub,
    /// burn-in, return-to-service, blacklist).
    Repair,
    /// Anything else worth a line in the black box.
    Info,
}

impl FlightKind {
    /// Stable lowercase name used by the dump format.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::FaultInjected => "fault_injected",
            FlightKind::Retry => "retry",
            FlightKind::BlockReject => "block_reject",
            FlightKind::MachineCheck => "machine_check",
            FlightKind::Wedge => "wedge",
            FlightKind::Crash => "crash",
            FlightKind::Quarantine => "quarantine",
            FlightKind::Preemption => "preemption",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::Rollback => "rollback",
            FlightKind::Resume => "resume",
            FlightKind::Repair => "repair",
            FlightKind::Info => "info",
        }
    }
}

/// One cycle-stamped structured event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Recorder-local sequence number (record order, monotone).
    pub seq: u64,
    /// Logical cycle at record time (0 when the recording layer keeps no
    /// clock — the sequence number still orders events).
    pub cycle: u64,
    /// Node the event happened on ([`HOST_NODE`] for machine-level ones).
    pub node: u32,
    /// What happened.
    pub kind: FlightKind,
    /// Static detail tag, e.g. `"link_rewind"` or `"abft_audit"`.
    pub detail: &'static str,
    /// First free-form argument (link index, job id, address, …).
    pub a: u64,
    /// Second free-form argument (count, iteration, bit, …).
    pub b: u64,
}

impl FlightEvent {
    /// Render as one deterministic dump line.
    pub fn render(&self) -> String {
        let node = if self.node == HOST_NODE {
            "host".to_string()
        } else {
            self.node.to_string()
        };
        format!(
            "#{:06} @{} node={} {} {} a={} b={}",
            self.seq,
            self.cycle,
            node,
            self.kind.name(),
            self.detail,
            self.a,
            self.b
        )
    }
}

/// Render events as a deterministic multi-line dump, optionally filtered
/// to one node. The shared formatter behind every flight artifact.
pub fn dump_events(events: &[FlightEvent], node: Option<u32>) -> String {
    let mut out = String::new();
    let mut shown = 0usize;
    for ev in events {
        if node.is_some_and(|n| ev.node != n) {
            continue;
        }
        out.push_str(&ev.render());
        out.push('\n');
        shown += 1;
    }
    if shown == 0 {
        out.push_str("(no flight events)\n");
    }
    out
}

/// Bounded ring of [`FlightEvent`]s: keeps the most recent `capacity`
/// events (the ones *before* a failure are the ones that explain it, so
/// eviction drops the oldest).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<FlightEvent>,
    next_seq: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default per-node ring depth: enough for every exceptional event a
    /// plausible failure leaves behind, small enough to be free at scale.
    const DEFAULT_CAPACITY: usize = 256;

    /// A ring retaining at most `capacity` events. The ring allocates on
    /// its first record and grows on demand, so a node that never records
    /// (every node of a clean run) holds no buffer at all.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            buf: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Record one event, stamping record order.
    pub fn record(
        &mut self,
        node: u32,
        cycle: u64,
        kind: FlightKind,
        detail: &'static str,
        a: u64,
        b: u64,
    ) {
        let ev = FlightEvent {
            seq: self.next_seq,
            cycle,
            node,
            kind,
            detail,
            a,
            b,
        };
        self.next_seq += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }

    /// Absorb foreign events (e.g. a node ring merging into the host's
    /// machine-level recorder), preserving their node/cycle/kind but
    /// re-stamping the sequence in arrival order.
    pub fn ingest(&mut self, events: &[FlightEvent]) {
        for ev in events {
            self.record(ev.node, ev.cycle, ev.kind, ev.detail, ev.a, ev.b);
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.buf.iter()
    }

    /// Remove and return everything retained, oldest first.
    pub fn drain(&mut self) -> Vec<FlightEvent> {
        self.buf.drain(..).collect()
    }

    /// Deterministic text dump, optionally filtered to one node.
    pub fn dump(&self, node: Option<u32>) -> String {
        let events: Vec<FlightEvent> = self.buf.iter().copied().collect();
        dump_events(&events, node)
    }
}

/// Writes a flight dump to a file if the surrounding scope panics — how
/// acceptance and soak tests turn an assertion failure into a black-box
/// artifact instead of a bare backtrace.
///
/// Feed it events as they become available with
/// [`FlightDumpGuard::extend`]; on a clean drop nothing is written.
#[derive(Debug)]
pub struct FlightDumpGuard {
    path: std::path::PathBuf,
    events: Vec<FlightEvent>,
}

impl FlightDumpGuard {
    /// Guard that will dump to `path` on panic.
    pub fn new(path: impl Into<std::path::PathBuf>) -> FlightDumpGuard {
        FlightDumpGuard {
            path: path.into(),
            events: Vec::new(),
        }
    }

    /// Append events to what a panic-time dump would contain.
    pub fn extend(&mut self, events: &[FlightEvent]) {
        self.events.extend_from_slice(events);
    }
}

impl Drop for FlightDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let dump = dump_events(&self.events, None);
            // Best effort: a failed write must not shadow the panic that
            // triggered the dump.
            let _ = std::fs::write(&self.path, dump);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_orders_and_bounds_events() {
        let mut rec = FlightRecorder::new(2);
        rec.record(0, 10, FlightKind::Retry, "link_rewind", 3, 1);
        rec.record(0, 20, FlightKind::BlockReject, "block_checksum", 3, 1);
        rec.record(1, 30, FlightKind::Wedge, "silent_wire", 0, 0);
        assert_eq!(rec.len(), 2);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        let dump = rec.dump(None);
        assert!(dump.contains("block_reject block_checksum a=3 b=1"));
        assert!(dump.contains("wedge silent_wire"));
        assert!(!dump.contains("retry link_rewind"), "oldest evicted");
    }

    #[test]
    fn dump_filters_by_node_and_names_host() {
        let mut rec = FlightRecorder::new(8);
        rec.record(2, 5, FlightKind::FaultInjected, "wire", 0, 7);
        rec.record(HOST_NODE, 6, FlightKind::Quarantine, "mark_faulty", 2, 0);
        let only2 = rec.dump(Some(2));
        assert!(only2.contains("node=2 fault_injected"));
        assert!(!only2.contains("quarantine"));
        assert!(rec.dump(None).contains("node=host quarantine mark_faulty"));
        assert_eq!(rec.dump(Some(9)), "(no flight events)\n");
    }

    #[test]
    fn ingest_restamps_sequence() {
        let mut node_ring = FlightRecorder::new(8);
        node_ring.record(4, 100, FlightKind::Checkpoint, "cg_state", 5, 0);
        let mut host = FlightRecorder::new(8);
        host.record(HOST_NODE, 0, FlightKind::Info, "boot", 0, 0);
        host.ingest(&node_ring.drain());
        let seqs: Vec<(u64, u32)> = host.events().map(|e| (e.seq, e.node)).collect();
        assert_eq!(seqs, vec![(0, HOST_NODE), (1, 4)]);
    }

    #[test]
    fn zero_capacity_ring_refuses_everything() {
        let mut rec = FlightRecorder::new(0);
        rec.record(0, 0, FlightKind::Info, "x", 0, 0);
        assert!(rec.is_empty());
    }

    #[test]
    fn dump_guard_writes_only_on_panic() {
        let dir = std::env::temp_dir().join("qcdoc_flight_guard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.txt");
        let _ = std::fs::remove_file(&clean);
        {
            let mut g = FlightDumpGuard::new(&clean);
            g.extend(&[FlightEvent {
                seq: 0,
                cycle: 0,
                node: 0,
                kind: FlightKind::Info,
                detail: "x",
                a: 0,
                b: 0,
            }]);
        }
        assert!(!clean.exists(), "clean drop must not write");

        let panicked = dir.join("panicked.txt");
        let _ = std::fs::remove_file(&panicked);
        let panicked_in = panicked.clone();
        let result = std::panic::catch_unwind(move || {
            let mut g = FlightDumpGuard::new(&panicked_in);
            g.extend(&[FlightEvent {
                seq: 0,
                cycle: 42,
                node: 3,
                kind: FlightKind::Crash,
                detail: "node_crash",
                a: 1,
                b: 0,
            }]);
            panic!("boom");
        });
        assert!(result.is_err());
        let dump = std::fs::read_to_string(&panicked).expect("panic dump written");
        assert!(dump.contains("node=3 crash node_crash"));
    }
}
