//! Host-side recovery planning: quarantine culprits, re-allocate a
//! partition around them, and degrade gracefully when no spare of the
//! full size remains.
//!
//! The paper's operating model separates detection from repair: the
//! Ethernet/JTAG diagnostics tree "allows the host computer to diagnose
//! any fault", and the partitioning software then carves a working
//! logical machine out of whatever hardware is still good. The
//! [`RecoveryPlanner`] is that loop in software. It owns a partition
//! allocated from the [`Qdaemon`]; when a run's [`HealthLedger`] comes
//! back dirty, [`RecoveryPlanner::quarantine_and_replan`] marks the
//! culprit nodes faulty, releases the tainted partition (quarantined
//! members stay out of the pool), and scans every legal placement of the
//! same spec for a replacement. If none fits and degradation is allowed,
//! it searches progressively smaller specs — dropping one logical axis
//! group at a time — for the largest sub-partition that still allocates.

use crate::qdaemon::{AllocError, Qdaemon};
use qcdoc_fault::{FaultPlan, HealthLedger, LinkSelect, NodeSelect};
use qcdoc_geometry::{NodeCoord, NodeId, Partition, PartitionSpec};
use std::collections::VecDeque;

/// Plans quarantine-and-resume repartitions for one job.
#[derive(Debug)]
pub struct RecoveryPlanner {
    partition_id: u32,
    spec: PartitionSpec,
    current: Partition,
    machine_faults: FaultPlan,
    allow_degraded: bool,
}

/// Every origin at which a sub-box of `extents` fits inside the machine
/// (full-extent axes admit only the origin 0).
fn origins_for(machine: &qcdoc_geometry::TorusShape, extents: &[usize]) -> Vec<NodeCoord> {
    let mut origins = vec![NodeCoord::ORIGIN];
    for axis in 0..machine.rank() {
        let slack = machine.extent(axis) - extents.get(axis).copied().unwrap_or(1);
        if slack == 0 {
            continue;
        }
        let mut next = Vec::with_capacity(origins.len() * (slack + 1));
        for base in &origins {
            for off in 0..=slack {
                let mut c = *base;
                c.set(axis, off);
                next.push(c);
            }
        }
        origins = next;
    }
    origins
}

impl RecoveryPlanner {
    /// Allocate the job's initial partition and remember the spec and the
    /// machine-level fault plan (faults are keyed by *physical* node id;
    /// [`RecoveryPlanner::local_faults`] translates them into whatever
    /// partition currently hosts the job).
    pub fn new(
        q: &mut Qdaemon,
        spec: PartitionSpec,
        machine_faults: FaultPlan,
        allow_degraded: bool,
    ) -> Result<RecoveryPlanner, AllocError> {
        let id = q.allocate(spec.clone())?;
        let current = q.partition(id).expect("just allocated").clone();
        Ok(RecoveryPlanner {
            partition_id: id,
            spec,
            current,
            machine_faults,
            allow_degraded,
        })
    }

    /// The partition currently hosting the job.
    pub fn partition(&self) -> &Partition {
        &self.current
    }

    /// The machine fault plan translated into the current partition's
    /// logical ranks. Events aimed at physical nodes outside the
    /// partition are dropped — their hardware is not wired into this
    /// logical machine — and so are link-scoped events on a link that is
    /// not a wire of the partition's logical shape ([`TorusShape::wires`]).
    /// Link indices ride along unchanged (the fault follows the node's
    /// transmitter).
    ///
    /// [`TorusShape::wires`]: qcdoc_geometry::TorusShape::wires
    pub fn local_faults(&self) -> FaultPlan {
        let mut phys_to_logical = std::collections::HashMap::new();
        for l in 0..self.current.node_count() {
            let phys = self.current.physical_id(NodeId(l as u32));
            phys_to_logical.insert(phys.0, l as u32);
        }
        // Every node of the logical machine has the same links wired.
        let wired: Vec<usize> = self
            .current
            .logical_shape()
            .wires(NodeId(0))
            .map(|(d, ..)| d.link_index())
            .collect();
        let mut local = FaultPlan::new(self.machine_faults.seed);
        for ev in &self.machine_faults.events {
            if let LinkSelect::Link(link) = ev.link {
                if !ev.kind.is_node_scoped() && !wired.contains(&link) {
                    continue;
                }
            }
            match ev.node {
                NodeSelect::Node(phys) => {
                    if let Some(&logical) = phys_to_logical.get(&phys) {
                        let mut translated = *ev;
                        translated.node = NodeSelect::Node(logical);
                        local = local.with_event(translated);
                    }
                }
                NodeSelect::Random => {
                    local = local.with_event(*ev);
                }
            }
        }
        local
    }

    /// Digest a dirty health ledger: quarantine the culprits, release the
    /// tainted partition, and hunt for a replacement. Returns the new
    /// partition, its translated fault plan, and whether it is degraded —
    /// or `None` when nothing allocatable remains.
    ///
    /// Culprits are the nodes with *hardware* evidence against them
    /// ([`HealthLedger::culprit_nodes`]): in a tightly-coupled collective
    /// one dead wire wedges every node, and quarantining the collateral
    /// would condemn the whole machine for one bad transmitter. When the
    /// ledger carries no hardware evidence at all, every unhealthy node
    /// is quarantined — something is wrong and the planner must route
    /// around it.
    pub fn quarantine_and_replan(
        &mut self,
        q: &mut Qdaemon,
        ledger: &HealthLedger,
    ) -> Option<(Partition, FaultPlan, bool)> {
        let mut blamed = ledger.culprit_nodes();
        if blamed.is_empty() {
            blamed = ledger.unhealthy_nodes();
        }
        for logical in blamed {
            let phys = self.current.physical_id(NodeId(logical));
            q.mark_faulty(phys);
        }
        q.release(self.partition_id);

        // Breadth-first over specs: the original first, then children with
        // one logical group dropped, then two, … — so the first hit is a
        // largest allocatable sub-partition.
        let machine = q.machine().clone();
        let mut queue = VecDeque::new();
        let mut seen = std::collections::HashSet::new();
        queue.push_back(self.spec.clone());
        seen.insert((self.spec.extents.clone(), self.spec.groups.clone()));
        while let Some(spec) = queue.pop_front() {
            let degraded = spec.groups.len() < self.spec.groups.len();
            if degraded && !self.allow_degraded {
                break;
            }
            for origin in origins_for(&machine, &spec.extents) {
                let mut candidate = spec.clone();
                candidate.origin = origin;
                if let Ok(id) = q.allocate(candidate) {
                    self.partition_id = id;
                    self.current = q.partition(id).expect("just allocated").clone();
                    return Some((self.current.clone(), self.local_faults(), degraded));
                }
            }
            // Children: drop each non-trivial group in turn.
            if spec.groups.len() <= 1 {
                continue;
            }
            for (gi, group) in spec.groups.iter().enumerate() {
                if !group.iter().any(|&a| spec.extents[a] > 1) {
                    continue;
                }
                let mut child = spec.clone();
                child.groups.remove(gi);
                for &a in group {
                    child.extents[a] = 1;
                }
                let key = (child.extents.clone(), child.groups.clone());
                if seen.insert(key) {
                    queue.push_back(child);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_fault::FaultEvent;
    use qcdoc_geometry::TorusShape;

    fn machine_2222() -> TorusShape {
        TorusShape::new(&[2, 2, 2, 2])
    }

    /// Half-machine spec: a [2,2,2] logical box, placed along axis 3.
    fn half_spec(x3: usize) -> PartitionSpec {
        let mut origin = NodeCoord::ORIGIN;
        origin.set(3, x3);
        PartitionSpec {
            origin,
            extents: vec![2, 2, 2, 1],
            groups: vec![vec![0], vec![1], vec![2]],
        }
    }

    #[test]
    fn replan_moves_the_job_onto_the_spare_half() {
        let mut q = Qdaemon::new(machine_2222());
        q.boot(&[]);
        let faults = FaultPlan::new(1).with_event(FaultEvent::dead_link(3, 0, 0));
        let mut planner = RecoveryPlanner::new(&mut q, half_spec(0), faults, false).unwrap();
        assert_eq!(planner.partition().logical_shape().dims(), &[2, 2, 2]);
        // Physical node 3 sits in the x3=0 half, so the local plan sees it.
        assert_eq!(planner.local_faults().events.len(), 1);

        // The run comes back with logical node 3 wedged and its link dead.
        let mut ledger = HealthLedger::new(8);
        ledger.node_mut(3).links[0].dead = true;
        ledger.node_mut(5).liveness = qcdoc_fault::Liveness::Wedged;
        let (part, local, degraded) = planner
            .quarantine_and_replan(&mut q, &ledger)
            .expect("the x3=1 half is free");
        assert!(!degraded);
        assert_eq!(part.logical_shape().dims(), &[2, 2, 2]);
        // The culprit (physical 3) is quarantined; only it — the wedged
        // bystander stays in the pool.
        assert_eq!(q.node_state(NodeId(3)), crate::qdaemon::NodeState::Faulty);
        assert_ne!(q.node_state(NodeId(5)), crate::qdaemon::NodeState::Faulty);
        // The replacement lives in the other half, clear of the fault, so
        // the translated plan is empty.
        assert_eq!(part.spec().origin.get(3), 1);
        assert!(local.events.is_empty());
        let census = q.census();
        assert_eq!((census.busy, census.faulty), (8, 1));
    }

    #[test]
    fn replan_fails_when_no_spare_exists_and_degradation_is_off() {
        let machine = TorusShape::new(&[2, 2, 2]);
        let mut q = Qdaemon::new(machine.clone());
        q.boot(&[]);
        let spec = PartitionSpec::native(&machine);
        let mut planner = RecoveryPlanner::new(&mut q, spec, FaultPlan::default(), false).unwrap();
        let mut ledger = HealthLedger::new(8);
        ledger.node_mut(6).liveness = qcdoc_fault::Liveness::Crashed { iteration: 0 };
        assert!(planner.quarantine_and_replan(&mut q, &ledger).is_none());
    }

    #[test]
    fn degradation_shrinks_to_the_largest_clean_sub_partition() {
        let machine = TorusShape::new(&[2, 2, 2]);
        let mut q = Qdaemon::new(machine.clone());
        q.boot(&[]);
        let spec = PartitionSpec::native(&machine);
        let mut planner = RecoveryPlanner::new(&mut q, spec, FaultPlan::default(), true).unwrap();
        // Physical node 6 = (0,1,1) dies; the whole machine can't allocate,
        // but a [2,2] slab avoiding x2=1 can.
        let mut ledger = HealthLedger::new(8);
        ledger.node_mut(6).liveness = qcdoc_fault::Liveness::Crashed { iteration: 0 };
        let (part, _, degraded) = planner
            .quarantine_and_replan(&mut q, &ledger)
            .expect("a 4-node slab must fit");
        assert!(degraded);
        assert_eq!(part.logical_shape().node_count(), 4);
        // Every member is clear of the quarantined node.
        for l in 0..part.node_count() {
            assert_ne!(part.physical_id(NodeId(l as u32)).0, 6);
        }
    }

    #[test]
    fn faults_outside_the_partition_are_dropped() {
        let mut q = Qdaemon::new(machine_2222());
        q.boot(&[]);
        // Fault on physical node 11, which lives in the x3=1 half.
        let faults = FaultPlan::new(1).with_event(FaultEvent::dead_link(11, 2, 0));
        let planner = RecoveryPlanner::new(&mut q, half_spec(0), faults, false).unwrap();
        assert!(planner.local_faults().events.is_empty());
    }

    #[test]
    fn link_faults_off_the_partitions_wires_are_dropped() {
        let mut q = Qdaemon::new(machine_2222());
        q.boot(&[]);
        // Physical node 3 is in the [2,2,2] half, but its links 6 and 7
        // leave the partition along axis 3: no wire of the logical machine.
        let faults = FaultPlan::new(1)
            .with_event(FaultEvent::bit_error_rate(3, 6, 0.1))
            .with_event(FaultEvent::dead_link(3, 7, 0))
            .with_event(FaultEvent::bit_error_rate(3, 5, 0.1))
            .with_event(FaultEvent::node_crash(3, 2));
        let planner = RecoveryPlanner::new(&mut q, half_spec(0), faults, false).unwrap();
        let local = planner.local_faults();
        assert_eq!(local.events.len(), 2);
        assert_eq!(local.events[0].link, LinkSelect::Link(5));
        assert!(local.events[1].kind.is_node_scoped());
    }
}
