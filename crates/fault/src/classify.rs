//! Failure classification: from raw health evidence to a scheduling verdict.
//!
//! When a managed job dies mid-run, the autonomic layer (the scheduler's
//! detect-and-requeue loop) needs one deterministic word for *why* — the
//! class drives the retry charge, the hold-off, and the placement
//! conviction. The evidence is the same [`HealthLedger`] the host's
//! diagnostics sweep reads out; [`classify_ledger`] folds it with a fixed
//! precedence so the same ledger always yields the same class, whatever
//! order the counters were written in.
//!
//! Two classes have no ledger evidence at all and are charged directly by
//! the layer that observed them: [`FailureClass::Storage`] (the durable
//! checkpoint store errored mid-park) and [`FailureClass::HostRestart`]
//! (the qdaemon died under the job).

use crate::health::{HealthLedger, Liveness};
use crate::plan::FaultKind;

/// Why a managed job stopped making progress.
///
/// Ordered by evidence precedence: when a ledger shows several kinds of
/// damage at once (a dead wire wedges the whole partition and breaks
/// checksum pairings machine-wide), [`classify_ledger`] charges the most
/// specific hardware evidence, top first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// A node latched an uncorrectable memory error (machine check).
    MachineCheck,
    /// A node went dark mid-run (scheduled or real crash).
    NodeCrash,
    /// A wire died or its send unit exhausted the retry budget.
    DeadLink,
    /// A node never finished — wedged waiting on a silent wire, with no
    /// link-level conviction to pin it on.
    Wedge,
    /// An end-of-run checksum pairing disagreed: corruption slipped past
    /// the per-frame parity but was caught end-to-end.
    LinkCorruption,
    /// Errors happened and were healed in place (resends, corrected ECC);
    /// the machine finished healthy. Not a casualty class — a job only
    /// carries it if something *else* killed it.
    Transient,
    /// The durable checkpoint store failed while parking the job's blob.
    Storage,
    /// The qdaemon restarted under the job; its partition evaporated.
    HostRestart,
    /// No evidence at all.
    Unknown,
}

impl FailureClass {
    /// Stable lowercase label for metrics, `qjobs` columns and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailureClass::MachineCheck => "machine_check",
            FailureClass::NodeCrash => "node_crash",
            FailureClass::DeadLink => "dead_link",
            FailureClass::Wedge => "wedge",
            FailureClass::LinkCorruption => "link_corruption",
            FailureClass::Transient => "transient",
            FailureClass::Storage => "storage",
            FailureClass::HostRestart => "host_restart",
            FailureClass::Unknown => "unknown",
        }
    }

    /// Stable small integer for flight-recorder arguments.
    pub fn code(&self) -> u64 {
        match self {
            FailureClass::MachineCheck => 0,
            FailureClass::NodeCrash => 1,
            FailureClass::DeadLink => 2,
            FailureClass::Wedge => 3,
            FailureClass::LinkCorruption => 4,
            FailureClass::Transient => 5,
            FailureClass::Storage => 6,
            FailureClass::HostRestart => 7,
            FailureClass::Unknown => 8,
        }
    }

    /// Inverse of [`FailureClass::code`], for decoding persisted state.
    pub fn from_code(code: u64) -> Option<FailureClass> {
        Some(match code {
            0 => FailureClass::MachineCheck,
            1 => FailureClass::NodeCrash,
            2 => FailureClass::DeadLink,
            3 => FailureClass::Wedge,
            4 => FailureClass::LinkCorruption,
            5 => FailureClass::Transient,
            6 => FailureClass::Storage,
            7 => FailureClass::HostRestart,
            8 => FailureClass::Unknown,
            _ => return None,
        })
    }

    /// The class a fault of this kind is charged as when it proves fatal
    /// to the job running over it — the deterministic mapping the
    /// classification property test pins. Healed kinds (parity-caught
    /// flips, stalls, correctable memory errors) map to
    /// [`FailureClass::Transient`]: they leave counters, not casualties.
    pub fn from_fault_kind(kind: &FaultKind) -> FailureClass {
        match kind {
            FaultKind::BitFlip { .. } => FailureClass::Transient,
            FaultKind::BitErrorRate { .. } => FailureClass::Transient,
            FaultKind::Stall { .. } => FailureClass::Transient,
            FaultKind::NodePause { .. } => FailureClass::Transient,
            FaultKind::MemBitFlip { .. } => FailureClass::Transient,
            FaultKind::DeadLink { .. } => FailureClass::DeadLink,
            FaultKind::StuckLink { .. } => FailureClass::DeadLink,
            FaultKind::NodeCrash { .. } => FailureClass::NodeCrash,
            FaultKind::MemDoubleFlip { .. } => FailureClass::MachineCheck,
            FaultKind::PayloadBurst { .. } => FailureClass::LinkCorruption,
        }
    }
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classify a health ledger into one [`FailureClass`] with a fixed
/// evidence precedence:
///
/// 1. any latched machine check → [`FailureClass::MachineCheck`];
/// 2. any crashed node → [`FailureClass::NodeCrash`];
/// 3. any dead or retry-exhausted wire → [`FailureClass::DeadLink`];
/// 4. any wedged node (with no link conviction) → [`FailureClass::Wedge`];
/// 5. any failed checksum pairing or checked-block reject →
///    [`FailureClass::LinkCorruption`];
/// 6. healed traffic only (resends, injected corruption, corrected ECC) →
///    [`FailureClass::Transient`];
/// 7. a clean ledger → [`FailureClass::Unknown`].
///
/// The walk reads every report, so the verdict is independent of *which*
/// node carries the evidence — two ledgers with the same damage classify
/// identically regardless of node order. A node with no report is quiet
/// and has no evidence to add.
pub fn classify_ledger(ledger: &HealthLedger) -> FailureClass {
    let mut crashed = false;
    let mut dead_link = false;
    let mut wedged = false;
    let mut checksum_bad = false;
    let mut healed = false;
    for n in &ledger.nodes {
        if n.machine_checks > 0 {
            return FailureClass::MachineCheck;
        }
        match n.liveness {
            Liveness::Crashed { .. } => crashed = true,
            Liveness::Wedged => wedged = true,
            Liveness::Alive => {}
        }
        for l in &n.links {
            dead_link |= l.dead || l.retry_exhausted;
            checksum_bad |= l.checksum_ok == Some(false) || l.block_rejects > 0;
            healed |= l.resends > 0 || l.injected > 0;
        }
        healed |= n.ecc_corrected > 0;
    }
    if crashed {
        FailureClass::NodeCrash
    } else if dead_link {
        FailureClass::DeadLink
    } else if wedged {
        FailureClass::Wedge
    } else if checksum_bad {
        FailureClass::LinkCorruption
    } else if healed {
        FailureClass::Transient
    } else {
        FailureClass::Unknown
    }
}

/// The placement conviction of a failed run: the nodes a requeued job
/// must avoid. This is the ledger's full unhealthy set — culprits *and*
/// collateral — because the requeue decision is about risk, not blame:
/// until the repair pipeline clears a region, a job that just died there
/// should not be put back on any node the failure touched.
pub fn convicted_nodes(ledger: &HealthLedger) -> Vec<u32> {
    ledger.unhealthy_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_charges_the_most_specific_evidence() {
        let mut ledger = HealthLedger::new(4);
        // A dead wire wedges a neighbour and breaks pairings — but the
        // verdict is the wire.
        ledger.node_mut(1).links[3].dead = true;
        ledger.node_mut(2).liveness = Liveness::Wedged;
        ledger.node_mut(0).links[0].checksum_ok = Some(false);
        assert_eq!(classify_ledger(&ledger), FailureClass::DeadLink);
        // A machine check outranks everything.
        ledger.node_mut(3).machine_checks = 1;
        assert_eq!(classify_ledger(&ledger), FailureClass::MachineCheck);
    }

    #[test]
    fn healed_traffic_is_transient_and_clean_is_unknown() {
        let mut ledger = HealthLedger::new(2);
        assert_eq!(classify_ledger(&ledger), FailureClass::Unknown);
        ledger.node_mut(0).links[5].resends = 3;
        ledger.node_mut(0).links[5].injected = 3;
        ledger.node_mut(1).ecc_corrected = 2;
        assert_eq!(classify_ledger(&ledger), FailureClass::Transient);
    }

    #[test]
    fn conviction_includes_collateral() {
        let mut ledger = HealthLedger::new(4);
        ledger.node_mut(1).links[3].dead = true;
        ledger.node_mut(2).liveness = Liveness::Wedged;
        assert_eq!(convicted_nodes(&ledger), vec![1, 2]);
    }

    #[test]
    fn labels_and_codes_are_distinct() {
        let all = [
            FailureClass::MachineCheck,
            FailureClass::NodeCrash,
            FailureClass::DeadLink,
            FailureClass::Wedge,
            FailureClass::LinkCorruption,
            FailureClass::Transient,
            FailureClass::Storage,
            FailureClass::HostRestart,
            FailureClass::Unknown,
        ];
        for (i, a) in all.iter().enumerate() {
            assert_eq!(FailureClass::from_code(a.code()), Some(*a));
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
                assert_ne!(a.code(), b.code());
            }
        }
        assert_eq!(FailureClass::from_code(99), None);
    }
}
