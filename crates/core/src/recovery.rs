//! Quarantine-and-resume orchestration: segment a run, watch the health
//! ledger, repartition around broken hardware, and continue from the last
//! checkpoint.
//!
//! This is the software shape of the paper's operating story: the
//! Ethernet/JTAG diagnostics network "allows the host computer to
//! diagnose any fault" while the partitioned torus lets an operator carve
//! the faulty daughterboard out and keep the campaign going. Here the
//! host is [`run_with_recovery`](crate::ShardedMachine::run_with_recovery):
//! it runs the application one bounded *segment* at a time, sweeps the
//! [`HealthLedger`] after each, and on evidence of hardware failure
//! discards the tainted segment, asks a planner for a replacement
//! partition, and re-runs the segment from checkpointed state. With a
//! deterministic application (checkpoints carry exact bits, global sums
//! are dimension-ordered), the recovered run is **bit-identical** to one
//! that never faulted — the property `tests/recovery.rs` proves end to
//! end.

use crate::functional::{FaultPlan, HealthLedger, NodeCtx};
use crate::sharded::ShardedMachine;
use qcdoc_fault::PlanError;
use qcdoc_geometry::TorusShape;
use qcdoc_telemetry::{MetricsRegistry, NodeTelemetry, Phase, Span};

/// Knobs for the recovery controller.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Maximum repartitions before the run is abandoned. Each recovery
    /// costs one discarded segment, so this bounds the wasted work.
    pub max_recoveries: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { max_recoveries: 4 }
    }
}

/// A replacement fabric proposed by the planner after a quarantine.
#[derive(Debug, Clone)]
pub struct Replacement {
    /// Logical shape of the replacement partition.
    pub shape: TorusShape,
    /// Machine faults translated into the replacement's logical ranks.
    pub faults: FaultPlan,
    /// Whether the replacement is smaller than the original request
    /// (graceful degradation: no spare of the full size was available).
    pub degraded: bool,
}

/// What the reduction step decides after a clean segment.
pub enum SegmentVerdict<S, T> {
    /// Not finished: checkpoint this state and run another segment.
    Continue(S),
    /// The application completed with this result.
    Done(T),
}

/// Why a recovered run gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The recovery budget ran out with hardware still failing.
    Exhausted {
        /// Repartitions performed before giving up.
        recoveries: usize,
    },
    /// The planner found no replacement partition (no spares, and
    /// degradation disallowed or impossible).
    Unreplaceable,
    /// The replacement's fault plan names a node or a wire the
    /// replacement lacks; nothing ran on it.
    Plan(PlanError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Exhausted { recoveries } => {
                write!(
                    f,
                    "recovery budget exhausted after {recoveries} repartitions"
                )
            }
            RecoveryError::Unreplaceable => write!(f, "no replacement partition available"),
            RecoveryError::Plan(e) => write!(f, "replacement refused: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What a recovered run went through, with the controller's own
/// cycle-stamped spans and counters for the telemetry exporters.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Clean segments reduced into the result.
    pub segments: usize,
    /// Repartitions performed.
    pub recoveries: usize,
    /// Whether the run finished on a degraded (smaller) partition.
    pub degraded: bool,
    /// Controller counters (`recovery_*`).
    pub metrics: MetricsRegistry,
    /// One `recovery.segment` span per attempt, one `recovery.repartition`
    /// span per quarantine.
    pub spans: Vec<Span>,
}

impl ShardedMachine {
    /// Run `app` in bounded segments with quarantine-and-resume recovery.
    ///
    /// Each round runs `app(ctx, &state)` on every node of the current
    /// fabric and sweeps the health ledger. A clean sweep hands the
    /// per-node results to `reduce`, which either finishes the run
    /// ([`SegmentVerdict::Done`]) or yields the next checkpointed state.
    /// On evidence of failure the tainted results are **discarded**,
    /// `replan` proposes a replacement fabric (quarantining culprits on
    /// the host side), and the same state — the last good checkpoint —
    /// re-runs on the new fabric. `app` must therefore be a deterministic
    /// function of `(ctx.shape, state)`; everything it learned during a
    /// tainted segment is forgotten.
    pub fn run_with_recovery<S, T, R, F, G, H>(
        mut self,
        cfg: RecoveryConfig,
        initial: S,
        app: F,
        mut reduce: G,
        mut replan: H,
    ) -> Result<(T, RecoveryReport), RecoveryError>
    where
        S: Sync,
        R: Send,
        F: AsyncFn(&mut NodeCtx, &S) -> R + Sync,
        G: FnMut(&TorusShape, Vec<R>) -> SegmentVerdict<S, T>,
        H: FnMut(&HealthLedger) -> Option<Replacement>,
    {
        let mut telem = NodeTelemetry::with_ring(0, 4096);
        let mut state = initial;
        let mut segments = 0usize;
        let mut recoveries = 0usize;
        let mut degraded = false;
        loop {
            let token = telem.begin();
            let (results, ledger) = self.run_with_health(async |ctx| app(ctx, &state).await);
            telem.advance(1);
            telem.end_with(token, "recovery.segment", Phase::Host, 1);
            if ledger.unhealthy_nodes().is_empty() {
                segments += 1;
                telem.counter_add("recovery_segments", 1);
                match reduce(self.shape(), results) {
                    SegmentVerdict::Done(result) => {
                        telem.gauge_set("recovery_degraded", if degraded { 1.0 } else { 0.0 });
                        let (metrics, spans) = telem.take_parts();
                        return Ok((
                            result,
                            RecoveryReport {
                                segments,
                                recoveries,
                                degraded,
                                metrics,
                                spans,
                            },
                        ));
                    }
                    SegmentVerdict::Continue(next) => {
                        state = next;
                        telem.counter_add("recovery_checkpoint_writes", 1);
                    }
                }
            } else {
                // Tainted segment: drop the results on the floor.
                drop(results);
                if recoveries >= cfg.max_recoveries {
                    return Err(RecoveryError::Exhausted { recoveries });
                }
                let token = telem.begin();
                telem.counter_add(
                    "recovery_quarantines",
                    ledger.culprit_nodes().len().max(1) as u64,
                );
                let Some(replacement) = replan(&ledger) else {
                    return Err(RecoveryError::Unreplaceable);
                };
                recoveries += 1;
                degraded |= replacement.degraded;
                self.replace_fabric(replacement)
                    .map_err(RecoveryError::Plan)?;
                telem.counter_add("recovery_repartitions", 1);
                telem.counter_add("recovery_checkpoint_restores", 1);
                telem.advance(1);
                telem.end_with(token, "recovery.repartition", Phase::Host, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::FaultEvent;
    use qcdoc_geometry::Axis;
    use qcdoc_scu::dma::DmaDescriptor;

    fn ring4() -> TorusShape {
        TorusShape::new(&[4])
    }

    /// One segment of a toy application: every node shifts its rank one
    /// hop +x and returns what arrived.
    async fn shift_app(ctx: &mut NodeCtx, _state: &usize) -> u64 {
        ctx.mem.write_word(0x100, 1000 + ctx.id.0 as u64).unwrap();
        ctx.shift_async(
            Axis(0).plus(),
            DmaDescriptor::contiguous(0x100, 1),
            DmaDescriptor::contiguous(0x200, 1),
        )
        .await;
        ctx.mem.read_word(0x200).unwrap()
    }

    #[test]
    fn faulty_segment_is_discarded_and_rerun_on_the_replacement() {
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 0));
        let machine = ShardedMachine::new(ring4()).with_faults(plan);
        let (rounds, report) = machine
            .run_with_recovery(
                RecoveryConfig::default(),
                0usize,
                shift_app,
                |_, results: Vec<u64>| {
                    // A tainted segment must never reach this reducer with
                    // garbage: the shift pattern must hold exactly.
                    assert_eq!(results, vec![1003, 1000, 1001, 1002]);
                    SegmentVerdict::Done(results.len())
                },
                |ledger| {
                    assert!(ledger.unhealthy_nodes().contains(&1));
                    // "Swap the daughterboard": same shape, clean plan.
                    Some(Replacement {
                        shape: ring4(),
                        faults: FaultPlan::default(),
                        degraded: false,
                    })
                },
            )
            .expect("recovery must succeed");
        assert_eq!(rounds, 4);
        assert_eq!(report.segments, 1);
        assert_eq!(report.recoveries, 1);
        assert!(!report.degraded);
        assert_eq!(report.metrics.counter("recovery_repartitions", &[]), 1);
        assert_eq!(
            report.metrics.counter("recovery_checkpoint_restores", &[]),
            1
        );
        assert!(report.spans.iter().any(|s| s.name == "recovery.segment"));
        assert!(report
            .spans
            .iter()
            .any(|s| s.name == "recovery.repartition"));
    }

    #[test]
    fn multi_segment_state_threads_through_checkpoints() {
        let machine = ShardedMachine::new(ring4());
        let (total, report) = machine
            .run_with_recovery(
                RecoveryConfig::default(),
                0usize,
                shift_app,
                |_, results: Vec<u64>| {
                    // Static counter via the state: three segments, then done.
                    static ROUND: std::sync::atomic::AtomicUsize =
                        std::sync::atomic::AtomicUsize::new(0);
                    let r = ROUND.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                    if r < 3 {
                        SegmentVerdict::Continue(r)
                    } else {
                        SegmentVerdict::Done(results.iter().sum::<u64>())
                    }
                },
                |_| None,
            )
            .expect("clean run needs no recovery");
        assert_eq!(total, 1000 + 1001 + 1002 + 1003);
        assert_eq!(report.segments, 3);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.metrics.counter("recovery_checkpoint_writes", &[]), 2);
    }

    #[test]
    fn unreplaceable_fault_surfaces_as_an_error() {
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 0));
        let machine = ShardedMachine::new(ring4()).with_faults(plan);
        let err = machine
            .run_with_recovery(
                RecoveryConfig::default(),
                0usize,
                shift_app,
                |_, _: Vec<u64>| SegmentVerdict::Done(()),
                |_| None,
            )
            .unwrap_err();
        assert_eq!(err, RecoveryError::Unreplaceable);
    }

    #[test]
    fn a_replacement_plan_naming_a_missing_wire_is_refused_before_it_runs() {
        // The ring's links are 0 and 1; a plan for the replacement that
        // names link 2 is refused, and no node runs on the new fabric.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs = AtomicUsize::new(0);
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 0));
        let err = ShardedMachine::new(ring4())
            .with_faults(plan)
            .run_with_recovery(
                RecoveryConfig::default(),
                0usize,
                async |ctx, state| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    shift_app(ctx, state).await
                },
                |_, _: Vec<u64>| -> SegmentVerdict<usize, ()> {
                    panic!("no segment may come back clean")
                },
                |_| {
                    Some(Replacement {
                        shape: ring4(),
                        faults: FaultPlan::new(0).with_event(FaultEvent::dead_link(0, 2, 0)),
                        degraded: false,
                    })
                },
            )
            .unwrap_err();
        assert_eq!(err, RecoveryError::Plan(PlanError::NoSuchWire(0, 2)));
        assert_eq!(runs.into_inner(), 4, "only the tainted segment ran");
    }

    #[test]
    fn recovery_budget_exhausts_deterministically() {
        let bad_plan = || FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 0));
        let machine = ShardedMachine::new(ring4()).with_faults(bad_plan());
        let err = machine
            .run_with_recovery(
                RecoveryConfig { max_recoveries: 2 },
                0usize,
                shift_app,
                |_, _: Vec<u64>| SegmentVerdict::Done(()),
                // A "replacement" that is just as broken: the budget must
                // stop the loop.
                move |_| {
                    Some(Replacement {
                        shape: ring4(),
                        faults: bad_plan(),
                        degraded: false,
                    })
                },
            )
            .unwrap_err();
        assert_eq!(err, RecoveryError::Exhausted { recoveries: 2 });
    }
}
