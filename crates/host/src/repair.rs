//! The repair pipeline: quarantine is a waiting room, not a grave.
//!
//! The QCDOC operating model (hep-lat/0309096 §4) assumes week-long
//! campaigns on 12,288 nodes with inevitable hardware attrition. A
//! machine whose quarantine only ever *grows* drains monotonically to
//! uselessness; the real machine's operators pulled daughterboards,
//! reseated cables, and returned racks to service. This module is that
//! loop, made deterministic:
//!
//! 1. **Admit** ([`Qdaemon::repair_admit`]) — quarantined nodes enter
//!    the pipeline, unless their conviction count already exceeds the
//!    sticky-blacklist threshold, in which case they are blacklisted on
//!    the spot.
//! 2. **Scrub** — a full memory scrub pass (modelled as a fixed number
//!    of repair ticks) clears soft errors: the dominant real-world
//!    failure the paper's EDAC scrubbing was built for.
//! 3. **Burn-in** — a link self-test on an isolated partition (the node
//!    exchanges test frames with itself over its 12 wires; no healthy
//!    neighbour is put at risk). More ticks, then a verdict.
//! 4. **Verdict** ([`Qdaemon::repair_tick`]'s callback) — pass returns
//!    the node to the spare pool via [`Qdaemon::return_to_service`];
//!    fail is a fresh conviction, and enough convictions blacklist the
//!    node for good.
//!
//! The pipeline never touches `Busy` or `Ready` nodes, and a node under
//! repair stays `Faulty` — isolation from the allocator is what makes
//! the burn-in safe.

use crate::qdaemon::Qdaemon;
use qcdoc_geometry::NodeId;
use qcdoc_telemetry::{FlightKind, HOST_NODE};
use std::collections::BTreeMap;

/// Repair ticks a full memory scrub takes. A model choice: the papers
/// give the repair loop (hep-lat/0309096 §4) but no durations.
const SCRUB_TICKS: u32 = 4;

/// Repair ticks the isolated link burn-in takes (a model choice, as
/// [`SCRUB_TICKS`]).
const BURNIN_TICKS: u32 = 8;

/// Convictions after which a node is blacklisted instead of re-admitted
/// (sticky: blacklisting is permanent). A model choice.
const MAX_CONVICTIONS: u32 = 3;

/// Where one node sits in the repair pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStage {
    /// Memory scrub in progress; `remaining` ticks to go.
    Scrub {
        /// Repair ticks left in this stage.
        remaining: u32,
    },
    /// Isolated link burn-in in progress; `remaining` ticks to go.
    BurnIn {
        /// Repair ticks left in this stage.
        remaining: u32,
    },
}

impl RepairStage {
    /// Stable label for reports and the `qrepair` verb.
    pub fn label(&self) -> &'static str {
        match self {
            RepairStage::Scrub { .. } => "scrub",
            RepairStage::BurnIn { .. } => "burnin",
        }
    }
}

/// The in-flight repair work, keyed by node id (BTreeMap so iteration —
/// and therefore every verdict order and flight event — is
/// deterministic).
#[derive(Debug, Clone, Default)]
pub struct RepairPipeline {
    stages: BTreeMap<u32, RepairStage>,
}

impl RepairPipeline {
    /// Nodes currently in the pipeline, with their stage, in node order.
    pub fn stages(&self) -> impl Iterator<Item = (u32, RepairStage)> + '_ {
        self.stages.iter().map(|(&n, &s)| (n, s))
    }

    /// Whether a node is currently under repair.
    pub fn contains(&self, node: u32) -> bool {
        self.stages.contains_key(&node)
    }

    /// Number of nodes under repair.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Drop a node from the pipeline (on return-to-service/blacklist).
    pub(crate) fn forget(&mut self, node: u32) {
        self.stages.remove(&node);
    }
}

/// What one [`Qdaemon::repair_tick`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairTickReport {
    /// Nodes that passed burn-in and returned to the spare pool.
    pub returned: Vec<u32>,
    /// Nodes that failed burn-in this tick (fresh conviction).
    pub failed: Vec<u32>,
    /// Nodes blacklisted this tick (by a failed burn-in that exhausted
    /// their convictions).
    pub blacklisted: Vec<u32>,
}

impl Qdaemon {
    /// Admit every quarantined node into the repair pipeline. Nodes
    /// whose conviction count already reached the blacklist threshold
    /// are blacklisted instead. Returns the newly admitted node ids, in
    /// rank order. The walk visits the daemon's faulty set, so it costs
    /// the nodes in quarantine, not the machine.
    pub fn repair_admit(&mut self) -> Vec<u32> {
        let waiting: Vec<u32> = self
            .faulty
            .iter()
            .copied()
            .filter(|&n| !self.repair.contains(n))
            .collect();
        let mut admitted = Vec::new();
        for node in waiting {
            let convictions = self.convictions[node as usize];
            if convictions >= MAX_CONVICTIONS {
                self.blacklist(NodeId(node));
                continue;
            }
            self.repair.stages.insert(
                node,
                RepairStage::Scrub {
                    remaining: SCRUB_TICKS,
                },
            );
            self.flight.record(
                HOST_NODE,
                self.sweeps,
                FlightKind::Repair,
                "repair_admit",
                node as u64,
                convictions as u64,
            );
            self.metrics.counter_add("autorepair_admitted", &[], 1);
            admitted.push(node);
        }
        admitted
    }

    /// Advance every in-flight repair by one tick. A finished scrub
    /// moves to burn-in; a finished burn-in asks `verdict(node)` whether
    /// the isolated link self-test passed. Pass → the node returns to
    /// the spare pool; fail → a fresh conviction, and past the threshold
    /// the node is blacklisted (otherwise it leaves the pipeline still
    /// quarantined, eligible for re-admission).
    pub fn repair_tick(&mut self, verdict: &mut dyn FnMut(u32) -> bool) -> RepairTickReport {
        let mut report = RepairTickReport::default();
        let nodes: Vec<u32> = self.repair.stages.keys().copied().collect();
        for node in nodes {
            let stage = self.repair.stages.get_mut(&node).expect("in pipeline");
            match stage {
                RepairStage::Scrub { remaining } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        *stage = RepairStage::BurnIn {
                            remaining: BURNIN_TICKS,
                        };
                    }
                }
                RepairStage::BurnIn { remaining } => {
                    *remaining -= 1;
                    if *remaining > 0 {
                        continue;
                    }
                    self.repair.stages.remove(&node);
                    if verdict(node) {
                        self.return_to_service(NodeId(node))
                            .expect("burn-in node is quarantined");
                        report.returned.push(node);
                    } else {
                        // A failed burn-in is hardware evidence, exactly
                        // like a failed health sweep: convict again.
                        self.convictions[node as usize] += 1;
                        self.metrics.counter_add("autorepair_convictions", &[], 1);
                        self.flight.record(
                            HOST_NODE,
                            self.sweeps,
                            FlightKind::Repair,
                            "repair_fail",
                            node as u64,
                            self.convictions[node as usize] as u64,
                        );
                        report.failed.push(node);
                        if self.convictions[node as usize] >= MAX_CONVICTIONS {
                            self.blacklist(NodeId(node));
                            report.blacklisted.push(node);
                        }
                    }
                }
            }
        }
        report
    }

    /// Human-readable pipeline state — the `qrepair` verb's payload.
    pub fn repair_state(&self) -> String {
        let census = self.census();
        let mut out = format!(
            "repair: {} in pipeline, {} faulty, {} spare, {} blacklisted\n",
            self.repair.len(),
            census.faulty,
            census.spare,
            census.blacklisted
        );
        for (node, stage) in self.repair.stages() {
            let remaining = match stage {
                RepairStage::Scrub { remaining } | RepairStage::BurnIn { remaining } => remaining,
            };
            out.push_str(&format!(
                "node {} stage={} remaining={} convictions={}\n",
                node,
                stage.label(),
                remaining,
                self.convictions[node as usize]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdaemon::NodeState;
    use qcdoc_geometry::TorusShape;

    fn booted() -> Qdaemon {
        let mut q = Qdaemon::new(TorusShape::new(&[4, 2, 2, 2, 1, 1]));
        q.boot(&[]);
        q
    }

    #[test]
    fn repair_returns_a_healthy_node_to_the_spare_pool() {
        let mut q = booted();
        q.mark_faulty(NodeId(5));
        assert_eq!(q.census().faulty, 1);
        assert_eq!(q.repair_admit(), vec![5]);
        assert!(q.repair.contains(5));
        // Node stays quarantined (isolated) through scrub + burn-in.
        let total = SCRUB_TICKS + BURNIN_TICKS;
        for tick in 0..total {
            assert_eq!(q.census().faulty, 1, "still isolated at tick {tick}");
            let report = q.repair_tick(&mut |_| true);
            if tick + 1 == total {
                assert_eq!(report.returned, vec![5]);
            } else {
                assert_eq!(report, RepairTickReport::default());
            }
        }
        let census = q.census();
        assert_eq!((census.ready, census.spare, census.faulty), (31, 1, 0));
        assert_eq!(census.allocatable(), 32);
        assert!(q.repair.is_empty());
        assert!(q.flight_dump(None).contains("return_to_service"));
        // The spare is genuinely allocatable again.
        use qcdoc_geometry::PartitionSpec;
        assert!(q.allocate(PartitionSpec::native(q.machine())).is_ok());
    }

    /// Run one whole scrub + burn-in whose burn-in fails; returns the
    /// report of the verdict tick.
    fn failed_repair(q: &mut Qdaemon) -> RepairTickReport {
        for _ in 1..SCRUB_TICKS + BURNIN_TICKS {
            assert_eq!(q.repair_tick(&mut |_| false), RepairTickReport::default());
        }
        q.repair_tick(&mut |_| false)
    }

    #[test]
    fn repeated_convictions_blacklist_stickily() {
        let mut q = booted();
        q.mark_faulty(NodeId(7)); // conviction 1
        assert_eq!(q.repair_admit(), vec![7]);
        let report = failed_repair(&mut q); // conviction 2
        assert_eq!(report.failed, vec![7]);
        assert!(report.blacklisted.is_empty(), "below the threshold");
        assert_eq!(q.node_state(NodeId(7)), NodeState::Faulty);
        // Still quarantined, so eligible for another round.
        assert_eq!(q.repair_admit(), vec![7]);
        let report = failed_repair(&mut q); // conviction 3
        assert_eq!(report.failed, vec![7]);
        assert_eq!(report.blacklisted, vec![7], "threshold reached");
        assert_eq!(q.node_state(NodeId(7)), NodeState::Blacklisted);
        assert_eq!(q.census().blacklisted, 1);
        // Sticky: never re-admitted, never returnable.
        assert!(q.repair_admit().is_empty());
        assert!(q.return_to_service(NodeId(7)).is_err());
        // Quarantine convicts once, however often it is reported.
        q.mark_faulty(NodeId(3));
        q.mark_faulty(NodeId(3)); // idempotent: still 1 conviction
        assert_eq!(q.convictions(NodeId(3)), 1);
        q.repair_admit();
        assert!(failed_repair(&mut q).blacklisted.is_empty());
        q.repair_admit();
        assert_eq!(failed_repair(&mut q).blacklisted, vec![3]);
    }

    #[test]
    fn admission_takes_the_faulty_nodes_in_rank_order() {
        let mut q = booted();
        // Node 20 is already under repair when the others are quarantined,
        // out of rank order; node 9 reaches the blacklist threshold.
        q.mark_faulty(NodeId(20));
        assert_eq!(q.repair_admit(), vec![20]);
        for n in [17, 3, 9, 30, 1] {
            q.mark_faulty(NodeId(n));
        }
        q.convictions[9] = MAX_CONVICTIONS;
        let before = q.flight_recorder().events().count();
        assert_eq!(q.repair_admit(), vec![1, 3, 17, 30]);
        assert_eq!(q.node_state(NodeId(9)), NodeState::Blacklisted);
        assert_eq!(
            q.repair.stages().map(|(n, _)| n).collect::<Vec<_>>(),
            vec![1, 3, 17, 20, 30]
        );
        let events: Vec<String> = q
            .flight_recorder()
            .events()
            .skip(before)
            .map(|e| e.render())
            .collect();
        assert_eq!(
            events,
            [
                "#000007 @0 node=host repair repair_admit a=1 b=1",
                "#000008 @0 node=host repair repair_admit a=3 b=1",
                "#000009 @0 node=host repair blacklist a=9 b=3",
                "#000010 @0 node=host repair repair_admit a=17 b=1",
                "#000011 @0 node=host repair repair_admit a=30 b=1",
            ]
        );
        assert_eq!(q.metrics().counter("autorepair_admitted", &[]), 5);
        assert_eq!(q.metrics().counter("autorepair_blacklisted", &[]), 1);
        assert!(q.repair_admit().is_empty(), "nothing new to admit");
    }

    #[test]
    fn return_to_service_guards_its_inputs() {
        let mut q = booted();
        assert!(q.return_to_service(NodeId(0)).is_err(), "ready node");
        q.mark_faulty(NodeId(0));
        assert!(q.return_to_service(NodeId(0)).is_ok());
        assert_eq!(q.census().spare, 1);
        // A spare that fails again loses its spare status, and the clean
        // return cleared its old conviction: only the fresh one counts.
        q.mark_faulty(NodeId(0));
        let census = q.census();
        assert_eq!((census.spare, census.faulty), (0, 1));
        assert_eq!(q.convictions(NodeId(0)), 1);
    }

    #[test]
    fn repair_state_is_reportable() {
        let mut q = booted();
        q.mark_faulty(NodeId(2));
        q.repair_admit();
        let s = q.repair_state();
        assert!(s.contains("1 in pipeline"));
        assert!(s.contains("node 2 stage=scrub"));
        q.repair_tick(&mut |_| true);
        q.repair_tick(&mut |_| true);
        q.repair_tick(&mut |_| true);
        q.repair_tick(&mut |_| true);
        assert!(q.repair_state().contains("stage=burnin"));
    }
}
