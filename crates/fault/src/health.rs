//! The machine-health ledger: what the host's diagnostics path reads out.

use qcdoc_geometry::{NodeId, TorusShape};
use qcdoc_scu::LINKS;
use qcdoc_telemetry::MetricsRegistry;
use std::borrow::Cow;

/// The per-node gauges every node exports, in [`NodeHealth::export_metrics`]'s
/// order: liveness (0 alive, 1 crashed, 2 wedged) and the memory-event counts.
const NODE_GAUGES: [&str; 4] = [
    "node_liveness",
    "node_mem_flips",
    "node_ecc_corrected",
    "node_machine_checks",
];

/// The numbers `0..n` in the order of their decimal strings (`0`, `1`,
/// `10`, `100`, …, `11`, …, `2`, …): the order of a `node` label.
fn decimal_order(n: usize) -> impl Iterator<Item = usize> {
    let mut next = (n > 0).then_some(0);
    std::iter::from_fn(move || {
        let at = next?;
        next = if at == 0 {
            (n > 1).then_some(1)
        } else if at * 10 < n {
            Some(at * 10)
        } else {
            // Past the last number with this prefix: drop the trailing
            // 9s (and a last digit with no successor below n), then step.
            let mut x = at;
            while x > 0 && (x % 10 == 9 || x + 1 >= n) {
                x /= 10;
            }
            (x > 0).then_some(x + 1)
        };
        Some(at)
    })
}

/// Whether a node survived the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Liveness {
    /// The node ran to completion.
    #[default]
    Alive,
    /// The node went dark at `iteration` (scheduled crash).
    Crashed {
        /// Iteration the node stopped responding.
        iteration: usize,
    },
    /// The node never completed — its run wedged waiting on a wire.
    Wedged,
}

/// End-of-run health of one wire direction of one node.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkHealth {
    /// Data words this node pushed into the send unit.
    pub sent_words: u64,
    /// Data words accepted by this node's receive unit.
    pub received_words: u64,
    /// Go-back-N retransmissions the send unit performed.
    pub resends: u64,
    /// Frames the receive unit rejected (parity or type-code damage).
    pub rejects: u64,
    /// Frames the fault machinery corrupted on this wire (deterministic).
    pub injected: u64,
    /// Extra cycles the wire withheld traffic (timing engine only).
    pub stall_cycles: u64,
    /// Whether the wire was scheduled dead at any point.
    pub dead: bool,
    /// End-of-run checksum of everything sent on this wire.
    pub send_checksum: u64,
    /// End-of-run checksum of everything received on this wire.
    pub recv_checksum: u64,
    /// Verdict after pairing with the far end of the wire; `None` until
    /// [`HealthLedger::finalize`] runs, or when the link is not a wire.
    pub checksum_ok: Option<bool>,
    /// Whether the send unit exhausted its retry budget and went silent —
    /// the link-level escalation verdict.
    pub retry_exhausted: bool,
    /// Checked DMA blocks whose end-to-end checksum failed at the receive
    /// unit (corruption that evaded the per-frame parity).
    pub block_rejects: u64,
    /// Whole-block replays the send unit performed after a block reject.
    pub block_resends: u64,
}

/// End-of-run health of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHealth {
    /// Logical node rank.
    pub node: u32,
    /// Whether the node survived.
    pub liveness: Liveness,
    /// Per-link health, indexed by `Direction::link_index`; only the
    /// machine's wires ([`TorusShape::wires`]) carry traffic.
    pub links: [LinkHealth; LINKS],
    /// Memory soft-error bits injected into this node (raw injection
    /// count, before the ECC verdict splits them into corrected vs
    /// machine-checked).
    pub mem_flips: u64,
    /// Single-bit memory errors the SEC-DED code corrected (on read or
    /// scrub). Corrected errors are *not* casualty evidence: the paper's
    /// ECC exists precisely so these never take a node down.
    pub ecc_corrected: u64,
    /// Uncorrectable memory words the node latched machine checks for.
    /// Any nonzero value condemns the node like a crash.
    pub machine_checks: u64,
}

impl NodeHealth {
    /// The report of a node with nothing to report: what a ledger reads
    /// for a node that never reported.
    pub fn quiet(node: u32) -> NodeHealth {
        NodeHealth {
            node,
            liveness: Liveness::Alive,
            links: [LinkHealth::default(); LINKS],
            mem_flips: 0,
            ecc_corrected: 0,
            machine_checks: 0,
        }
    }

    /// Whether the node has nothing to report: alive, no memory event of
    /// any kind, and every wire untouched. A quiet node's export is four
    /// zero `node_*` gauges and no `scu_link_*` series.
    pub fn is_quiet(&self) -> bool {
        self.liveness == Liveness::Alive
            && self.mem_flips == 0
            && self.ecc_corrected == 0
            && self.machine_checks == 0
            && self.links.iter().all(|l| *l == LinkHealth::default())
    }

    /// Publish this node's gauges: the four `node_*` gauges, and the
    /// `scu_link_*` series of every wire that saw any activity (idle
    /// wires are skipped, so the export stays sparse).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let node_labels = [("node", self.node.to_string())];
        let liveness = match self.liveness {
            Liveness::Alive => 0.0,
            Liveness::Crashed { .. } => 1.0,
            Liveness::Wedged => 2.0,
        };
        let values = [
            liveness,
            self.mem_flips as f64,
            self.ecc_corrected as f64,
            self.machine_checks as f64,
        ];
        for (name, v) in NODE_GAUGES.into_iter().zip(values) {
            reg.gauge_set(name, &node_labels, v);
        }
        for (link, l) in self.links.iter().enumerate() {
            let active = l.sent_words > 0
                || l.received_words > 0
                || l.resends > 0
                || l.rejects > 0
                || l.injected > 0
                || l.stall_cycles > 0
                || l.dead
                || l.retry_exhausted
                || l.block_rejects > 0
                || l.block_resends > 0;
            if !active {
                continue;
            }
            let labels = [("node", self.node.to_string()), ("link", link.to_string())];
            reg.gauge_set("scu_link_sent_words", &labels, l.sent_words as f64);
            reg.gauge_set("scu_link_received_words", &labels, l.received_words as f64);
            reg.gauge_set("scu_link_resends", &labels, l.resends as f64);
            reg.gauge_set("scu_link_rejects", &labels, l.rejects as f64);
            reg.gauge_set("scu_link_injected", &labels, l.injected as f64);
            reg.gauge_set("scu_link_stall_cycles", &labels, l.stall_cycles as f64);
            reg.gauge_set("scu_link_dead", &labels, u64::from(l.dead) as f64);
            if l.retry_exhausted {
                reg.gauge_set("scu_link_retry_exhausted", &labels, 1.0);
            }
            if l.block_rejects > 0 {
                reg.gauge_set("scu_link_block_rejects", &labels, l.block_rejects as f64);
            }
            if l.block_resends > 0 {
                reg.gauge_set("scu_link_block_resends", &labels, l.block_resends as f64);
            }
            if let Some(ok) = l.checksum_ok {
                reg.gauge_set("scu_link_checksum_ok", &labels, u64::from(ok) as f64);
            }
        }
    }

    /// Publish what [`NodeHealth::export_metrics`] writes for a quiet
    /// node, its four zero `node_*` gauges, for every node `0..nodes`, in
    /// one batch in key order: a first export of the whole machine costs
    /// about one allocation per series.
    pub fn export_quiet(nodes: usize, reg: &mut MetricsRegistry) {
        let labels: Vec<String> = decimal_order(nodes).map(|n| n.to_string()).collect();
        let mut names = NODE_GAUGES;
        names.sort_unstable();
        reg.gauge_set_batch(
            "node",
            names
                .into_iter()
                .flat_map(|name| labels.iter().map(move |node| (name, node.as_str(), 0.0))),
        );
    }
}

/// Machine-wide totals of one ledger, gathered in one pass over its
/// nodes: what the `machine_*` gauges and the host's sweep digest report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthTotals {
    /// Go-back-N retransmissions.
    pub resends: u64,
    /// Frames the fault machinery corrupted (deterministic).
    pub injected: u64,
    /// Every wire scheduled dead, as `(node, link_index)`.
    pub dead_links: Vec<(u32, usize)>,
    /// Finalized checksum pairings that disagreed.
    pub checksum_mismatches: usize,
    /// Single-bit memory corrections.
    pub ecc_corrected: u64,
    /// Latched machine checks.
    pub machine_checks: u64,
    /// Checked-DMA block checksum failures.
    pub block_rejects: u64,
    /// Nodes that did not finish healthy
    /// ([`HealthLedger::unhealthy_nodes`]).
    pub unhealthy: Vec<u32>,
}

impl HealthTotals {
    /// Publish the `machine_*` gauges.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.gauge_set("machine_total_resends", &[], self.resends as f64);
        reg.gauge_set("machine_total_injected", &[], self.injected as f64);
        reg.gauge_set("machine_dead_links", &[], self.dead_links.len() as f64);
        reg.gauge_set(
            "machine_checksum_mismatches",
            &[],
            self.checksum_mismatches as f64,
        );
        reg.gauge_set("machine_ecc_corrected", &[], self.ecc_corrected as f64);
        reg.gauge_set("machine_machine_checks", &[], self.machine_checks as f64);
        reg.gauge_set("machine_block_rejects", &[], self.block_rejects as f64);
        reg.gauge_set("machine_unhealthy_nodes", &[], self.unhealthy.len() as f64);
    }
}

/// Machine-wide health report, aggregated from every node's SCU counters.
///
/// This is the software analogue of the paper's end-of-run diagnostics
/// sweep: the host walks the Ethernet/JTAG tree, reads each node's link
/// checksums and error counters, and pairs each send checksum with the
/// receiving neighbour's. A mismatch means a corruption slipped past the
/// per-frame parity — exactly the failure the paper's checksums exist to
/// catch.
///
/// A ledger describes a machine of [`HealthLedger::node_count`] nodes but
/// holds reports only for the nodes that reported. A node without one
/// reads as [`NodeHealth::quiet`], and every walk visits the reports
/// alone, so evidence that names one node costs one node whatever the
/// machine's size. An engine run reports every node, and there
/// `nodes[r]` is rank `r`'s report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthLedger {
    /// The reports, in ascending rank order, at most one per node.
    pub nodes: Vec<NodeHealth>,
    node_count: usize,
}

impl HealthLedger {
    /// An empty ledger for a machine of `node_count` nodes: every node
    /// reads as quiet.
    pub fn new(node_count: usize) -> HealthLedger {
        HealthLedger {
            nodes: Vec::new(),
            node_count,
        }
    }

    /// Nodes in the machine the ledger describes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Mutable access to one node's report, filing a quiet one if the
    /// node has not reported yet. Panics for a node outside the machine.
    pub fn node_mut(&mut self, node: u32) -> &mut NodeHealth {
        assert!(
            (node as usize) < self.node_count,
            "node {node} is outside a {}-node ledger",
            self.node_count
        );
        // A ledger every node reported to is indexed by rank.
        let at = if self
            .nodes
            .get(node as usize)
            .is_some_and(|n| n.node == node)
        {
            node as usize
        } else {
            match self.nodes.binary_search_by_key(&node, |n| n.node) {
                Ok(at) => at,
                Err(at) => {
                    self.nodes.insert(at, NodeHealth::quiet(node));
                    at
                }
            }
        };
        &mut self.nodes[at]
    }

    /// Every node's report in rank order, a quiet one standing in for
    /// each node that has not reported.
    fn every_node(&self) -> impl Iterator<Item = Cow<'_, NodeHealth>> {
        let mut reports = self.nodes.iter().peekable();
        (0..self.node_count as u32).map(move |node| {
            reports
                .next_if(|r| r.node == node)
                .map_or_else(|| Cow::Owned(NodeHealth::quiet(node)), Cow::Borrowed)
        })
    }

    /// Pair the send checksum at each wire's near end with the receive
    /// checksum at its far end ([`TorusShape::wires`]), filling in
    /// `checksum_ok`. A link that is not a wire stays `None`.
    pub fn finalize(&mut self, shape: &TorusShape) {
        assert_eq!(
            self.node_count,
            shape.node_count(),
            "ledger/shape size mismatch"
        );
        // Pairing reads both ends of every wire, so every node gets a
        // report, indexed by rank.
        if self.nodes.len() < self.node_count {
            self.nodes = self.every_node().map(Cow::into_owned).collect();
        }
        let verdicts: Vec<(usize, usize, bool)> = self
            .nodes
            .iter()
            .flat_map(|nh| shape.wires(NodeId(nh.node)).map(move |wire| (nh, wire)))
            .map(|(nh, (d, far, far_d))| {
                let sent = nh.links[d.link_index()].send_checksum;
                let got = self.nodes[far.index()].links[far_d.link_index()].recv_checksum;
                (nh.node as usize, d.link_index(), sent == got)
            })
            .collect();
        for (node, link, ok) in verdicts {
            self.nodes[node].links[link].checksum_ok = Some(ok);
        }
    }

    /// Total go-back-N retransmissions across the machine.
    pub fn total_resends(&self) -> u64 {
        self.totals().resends
    }

    /// Total frames the fault machinery corrupted (deterministic).
    pub fn total_injected(&self) -> u64 {
        self.totals().injected
    }

    /// Every wire scheduled dead, as `(node, link_index)`.
    pub fn dead_links(&self) -> Vec<(u32, usize)> {
        self.totals().dead_links
    }

    /// Nodes that did not finish healthy: crashed, wedged, any dead or
    /// retry-exhausted wire, a failed checksum pairing, or an
    /// uncorrectable memory error (machine check). A soft error the ECC
    /// *corrected* leaves the node healthy — that is the point of the
    /// code.
    pub fn unhealthy_nodes(&self) -> Vec<u32> {
        self.totals().unhealthy
    }

    /// Every machine-wide total in one pass over the ledger.
    pub fn totals(&self) -> HealthTotals {
        let mut t = HealthTotals::default();
        for n in &self.nodes {
            t.ecc_corrected += n.ecc_corrected;
            t.machine_checks += n.machine_checks;
            let mut unhealthy = n.liveness != Liveness::Alive || n.machine_checks > 0;
            for (i, l) in n.links.iter().enumerate() {
                t.resends += l.resends;
                t.injected += l.injected;
                t.block_rejects += l.block_rejects;
                t.checksum_mismatches += usize::from(l.checksum_ok == Some(false));
                if l.dead {
                    t.dead_links.push((n.node, i));
                }
                unhealthy |= l.dead || l.retry_exhausted || l.checksum_ok == Some(false);
            }
            if unhealthy {
                t.unhealthy.push(n.node);
            }
        }
        t
    }

    /// Nodes with *hardware evidence* of their own failure: a scheduled
    /// crash, a dead or retry-exhausted wire, or a latched machine check
    /// (uncorrectable memory error).
    ///
    /// This is the quarantine set. [`HealthLedger::unhealthy_nodes`] also
    /// flags collateral damage — in a tightly coupled calculation one dead
    /// wire wedges *every* node at the next global sum and breaks checksum
    /// pairings machine-wide, so quarantining all unhealthy nodes would
    /// condemn the whole partition. Wedged liveness and checksum
    /// mismatches alone are symptoms, not evidence of local fault.
    pub fn culprit_nodes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(n.liveness, Liveness::Crashed { .. })
                    || n.machine_checks > 0
                    || n.links.iter().any(|l| l.dead || l.retry_exhausted)
            })
            .map(|n| n.node)
            .collect()
    }

    /// Total single-bit memory corrections across the machine — the
    /// `ecc_corrections` figure of the host's hardware status readout.
    pub fn total_ecc_corrected(&self) -> u64 {
        self.totals().ecc_corrected
    }

    /// Total latched machine checks across the machine.
    pub fn total_machine_checks(&self) -> u64 {
        self.totals().machine_checks
    }

    /// Total checked-DMA block checksum failures across the machine.
    pub fn total_block_rejects(&self) -> u64 {
        self.totals().block_rejects
    }

    /// Whether every finalized checksum pairing agreed.
    pub fn all_checksums_ok(&self) -> bool {
        self.nodes
            .iter()
            .flat_map(|n| &n.links)
            .all(|l| l.checksum_ok != Some(false))
    }

    /// Publish the ledger into a [`MetricsRegistry`] — the single view the
    /// host daemon keeps in its registry (`Qdaemon::metrics()`).
    ///
    /// Everything is exported as *gauges* holding absolute end-of-run
    /// values, so re-ingesting the same ledger is idempotent. This is the
    /// one exporter of the per-wire `scu_link_*` series.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        for n in self.every_node() {
            n.export_metrics(reg);
        }
        self.totals().export_metrics(reg);
    }

    /// FNV-1a digest of the ledger's *deterministic* fields: word counts,
    /// injected-fault counts, stall time, dead flags, checksums, liveness,
    /// memory flips and their ECC verdicts, and checked-block rejects and
    /// replays. Resend/reject counters are excluded — with a threaded
    /// execution engine they depend on scheduling (an ack that arrives a
    /// frame later causes an extra, harmless rewind) while everything
    /// hashed here does not. Retry-budget verdicts are excluded for the
    /// same reason: they are functions of the resend count. Block rejects
    /// *are* hashed: the payload bursts that cause them strike fresh
    /// transmissions only, so their count is a pure function of the fault
    /// plan. Two same-seed runs must produce equal
    /// fingerprints. A node that never reported hashes as a quiet one, so
    /// the digest does not depend on which quiet nodes filed a report.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01B3);
            }
        };
        for n in self.every_node() {
            eat(u64::from(n.node));
            eat(match n.liveness {
                Liveness::Alive => 0,
                Liveness::Crashed { iteration } => 1 + ((iteration as u64) << 8),
                Liveness::Wedged => 2,
            });
            eat(n.mem_flips);
            eat(n.ecc_corrected);
            eat(n.machine_checks);
            for l in &n.links {
                eat(l.sent_words);
                eat(l.received_words);
                eat(l.injected);
                eat(l.stall_cycles);
                eat(u64::from(l.dead));
                eat(l.send_checksum);
                eat(l.recv_checksum);
                eat(l.block_rejects);
                eat(l.block_resends);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape2() -> TorusShape {
        TorusShape::new(&[2])
    }

    #[test]
    fn decimal_order_is_the_order_of_the_strings() {
        for n in (0..=120).chain([999, 1000, 1001, 12_288]) {
            let mut strings: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            strings.sort();
            let ordered: Vec<String> = decimal_order(n).map(|i| i.to_string()).collect();
            assert_eq!(ordered, strings, "n = {n}");
        }
    }

    #[test]
    fn a_quiet_export_in_bulk_equals_one_per_node() {
        // Into an empty registry, and into one that already holds some of
        // the series with other values, a loud node's link series, and
        // series of other names around them.
        let mut seeded = MetricsRegistry::new();
        seeded.gauge_set("node_liveness", &[("node", "7".into())], 2.0);
        seeded.gauge_set("node_mem_flips", &[("node", "100".into())], 3.0);
        seeded.gauge_set("machine_dead_links", &[], 1.0);
        seeded.counter_add("qdaemon_health_sweeps", &[], 1);
        let mut loud = NodeHealth::quiet(12);
        loud.links[3].resends = 4;
        loud.export_metrics(&mut seeded);
        for start in [MetricsRegistry::new(), seeded] {
            let mut bulk = start.clone();
            NodeHealth::export_quiet(130, &mut bulk);
            let mut one_by_one = start;
            for node in 0..130 {
                NodeHealth::quiet(node).export_metrics(&mut one_by_one);
            }
            assert_eq!(bulk, one_by_one);
            assert_eq!(
                qcdoc_telemetry::prometheus_text(&bulk),
                qcdoc_telemetry::prometheus_text(&one_by_one)
            );
        }
    }

    #[test]
    fn finalize_pairs_opposite_wires() {
        // Two nodes on a 1-D ring of 2: node 0's +x wire (link 0) feeds
        // node 1's -x receive wire (link 1), and vice versa.
        let shape = shape2();
        let mut ledger = HealthLedger::new(2);
        ledger.node_mut(0).links[0].send_checksum = 0xAAAA;
        ledger.node_mut(1).links[1].recv_checksum = 0xAAAA;
        ledger.node_mut(1).links[0].send_checksum = 0xBBBB;
        ledger.node_mut(0).links[1].recv_checksum = 0xBEEF; // mismatch
        ledger.finalize(&shape);
        assert_eq!(ledger.nodes[0].links[0].checksum_ok, Some(true));
        assert_eq!(ledger.nodes[1].links[0].checksum_ok, Some(false));
        assert_eq!(
            ledger.nodes[0].links[2].checksum_ok, None,
            "unwired axis stays None"
        );
        assert!(!ledger.all_checksums_ok());
        assert_eq!(ledger.unhealthy_nodes(), vec![1]);
    }

    #[test]
    fn fingerprint_ignores_resends_but_sees_everything_else() {
        let mut a = HealthLedger::new(2);
        a.node_mut(0).links[0].sent_words = 100;
        a.node_mut(0).links[0].injected = 3;
        let mut b = a.clone();
        b.node_mut(1).links[5].resends = 40;
        b.node_mut(0).links[0].rejects = 2;
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "resends/rejects are scheduling noise"
        );
        b.node_mut(0).links[0].injected = 4;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.node_mut(1).liveness = Liveness::Wedged;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn export_metrics_is_idempotent_and_sparse() {
        let mut ledger = HealthLedger::new(2);
        ledger.node_mut(0).links[0].sent_words = 10;
        ledger.node_mut(0).links[0].resends = 3;
        ledger.node_mut(1).liveness = Liveness::Wedged;
        ledger.node_mut(1).mem_flips = 2;
        ledger.node_mut(1).ecc_corrected = 2;
        let mut reg = MetricsRegistry::new();
        ledger.export_metrics(&mut reg);
        let once = reg.clone();
        ledger.export_metrics(&mut reg); // re-ingest must not double-count
        assert_eq!(reg, once);
        let l0 = [("node", "0".to_string()), ("link", "0".to_string())];
        assert_eq!(reg.gauge("scu_link_resends", &l0), Some(3.0));
        assert_eq!(
            reg.gauge("node_liveness", &[("node", "1".to_string())]),
            Some(2.0)
        );
        assert_eq!(
            reg.gauge("node_mem_flips", &[("node", "1".to_string())]),
            Some(2.0)
        );
        assert_eq!(
            reg.gauge("node_ecc_corrected", &[("node", "1".to_string())]),
            Some(2.0)
        );
        assert_eq!(reg.gauge("machine_ecc_corrected", &[]), Some(2.0));
        assert_eq!(reg.gauge("machine_machine_checks", &[]), Some(0.0));
        assert_eq!(reg.gauge("machine_total_resends", &[]), Some(3.0));
        assert_eq!(reg.gauge("machine_unhealthy_nodes", &[]), Some(1.0));
        // Idle wires are skipped: only node 0 link 0 has scu_link_ series.
        let l5 = [("node", "1".to_string()), ("link", "5".to_string())];
        assert_eq!(reg.gauge("scu_link_sent_words", &l5), None);
    }

    #[test]
    fn rollups() {
        let mut ledger = HealthLedger::new(3);
        ledger.node_mut(0).links[0].resends = 2;
        ledger.node_mut(2).links[7].resends = 5;
        ledger.node_mut(1).links[3].dead = true;
        ledger.node_mut(2).links[7].injected = 9;
        // A corrected soft error is NOT a casualty; a machine check is.
        ledger.node_mut(2).mem_flips = 1;
        ledger.node_mut(2).ecc_corrected = 1;
        assert_eq!(ledger.total_resends(), 7);
        assert_eq!(ledger.total_injected(), 9);
        assert_eq!(ledger.total_ecc_corrected(), 1);
        assert_eq!(ledger.dead_links(), vec![(1, 3)]);
        assert_eq!(ledger.unhealthy_nodes(), vec![1]);
        ledger.node_mut(2).machine_checks = 1;
        assert_eq!(ledger.unhealthy_nodes(), vec![1, 2]);
        assert_eq!(ledger.total_machine_checks(), 1);
        // A failed checksum pairing condemns its node.
        ledger.node_mut(0).links[4].block_rejects = 3;
        ledger.node_mut(0).links[4].checksum_ok = Some(false);
        assert_eq!(ledger.unhealthy_nodes(), vec![0, 1, 2]);
        assert_eq!(ledger.total_block_rejects(), 3);
        assert_eq!(ledger.totals().checksum_mismatches, 1);
    }

    #[test]
    fn corrected_errors_are_not_culprit_evidence_but_machine_checks_are() {
        let mut ledger = HealthLedger::new(4);
        ledger.node_mut(1).mem_flips = 3;
        ledger.node_mut(1).ecc_corrected = 3;
        assert!(ledger.culprit_nodes().is_empty());
        assert!(ledger.unhealthy_nodes().is_empty());
        ledger.node_mut(2).mem_flips = 2;
        ledger.node_mut(2).machine_checks = 1;
        assert_eq!(ledger.culprit_nodes(), vec![2]);
        assert_eq!(ledger.unhealthy_nodes(), vec![2]);
    }

    #[test]
    fn block_counters_export_and_fingerprint() {
        let mut ledger = HealthLedger::new(2);
        ledger.node_mut(0).links[2].block_rejects = 1;
        ledger.node_mut(0).links[2].block_resends = 1;
        // Block activity alone makes the wire active in the export …
        let mut reg = MetricsRegistry::new();
        ledger.export_metrics(&mut reg);
        let l = [("node", "0".to_string()), ("link", "2".to_string())];
        assert_eq!(reg.gauge("scu_link_block_rejects", &l), Some(1.0));
        assert_eq!(reg.gauge("scu_link_block_resends", &l), Some(1.0));
        assert_eq!(reg.gauge("machine_block_rejects", &[]), Some(1.0));
        // … the retry-exhausted series stays out of the registry until
        // the wire has given up …
        assert_eq!(reg.gauge("scu_link_retry_exhausted", &l), None);
        let mut retrying = ledger.clone();
        retrying.node_mut(0).links[2].retry_exhausted = true;
        let mut reg = MetricsRegistry::new();
        retrying.export_metrics(&mut reg);
        assert_eq!(reg.gauge("scu_link_retry_exhausted", &l), Some(1.0));
        // … a caught-and-healed block does not condemn anyone …
        assert!(ledger.unhealthy_nodes().is_empty());
        // … and the counters are deterministic, so the fingerprint sees
        // them.
        let mut clean = ledger.clone();
        clean.node_mut(0).links[2].block_rejects = 0;
        assert_ne!(ledger.fingerprint(), clean.fingerprint());
    }

    #[test]
    fn culprits_exclude_collateral_damage() {
        // The dead-wire-in-a-collective picture: node 1 owns the broken
        // hardware; every node wedged waiting on the stalled global sum
        // and half the checksum pairings broke. Only node 1 is a culprit.
        let mut ledger = HealthLedger::new(4);
        for n in 0..4 {
            ledger.node_mut(n).liveness = Liveness::Wedged;
        }
        ledger.node_mut(1).links[2].dead = true;
        ledger.node_mut(3).links[0].checksum_ok = Some(false);
        assert_eq!(ledger.unhealthy_nodes(), vec![0, 1, 2, 3]);
        assert_eq!(ledger.culprit_nodes(), vec![1]);
    }

    #[test]
    fn retry_exhaustion_is_hardware_evidence() {
        let mut ledger = HealthLedger::new(3);
        ledger.node_mut(2).links[4].retry_exhausted = true;
        ledger.node_mut(0).liveness = Liveness::Crashed { iteration: 1 };
        assert_eq!(ledger.unhealthy_nodes(), vec![0, 2]);
        assert_eq!(ledger.culprit_nodes(), vec![0, 2]);
        // Exported sparsely, and excluded from the fingerprint.
        let mut reg = MetricsRegistry::new();
        ledger.export_metrics(&mut reg);
        let l = [("node", "2".to_string()), ("link", "4".to_string())];
        assert_eq!(reg.gauge("scu_link_retry_exhausted", &l), Some(1.0));
        let mut bare = ledger.clone();
        bare.node_mut(2).links[4].retry_exhausted = false;
        assert_eq!(ledger.fingerprint(), bare.fingerprint());
    }
}
