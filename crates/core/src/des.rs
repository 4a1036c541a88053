//! A discrete-event timing engine for iterative stencil workloads.
//!
//! The analytic model (`crate::perf`) prices one CG iteration in closed
//! form; this engine *plays it out*: every node computes, exchanges faces
//! with its neighbours over links with the real serialization constants,
//! and joins the machine-wide reduction. Because the dependence structure
//! is explicit, it answers questions the closed form cannot:
//!
//! * §2.2's **self-synchronization**: "if a given node stops communicating
//!   with its neighbors, the entire machine will shortly become stalled.
//!   Once the initial blocked link resumes its transfers, the whole
//!   machine will proceed" — a one-time delay costs the machine that
//!   delay *once*, not once per iteration;
//! * "this link-level handshaking also allows one node to get slightly
//!   behind in a uniform operation over the whole machine, say due to a
//!   memory refresh" — a short pause on a node with slack is absorbed
//!   completely;
//! * a persistently slow node paces the whole machine.
//!
//! The engine also cross-checks the analytic model: on a homogeneous
//! machine the two must agree on the iteration time (asserted in tests).
//!
//! Every disturbance — a pause, a stall, a noisy or dead wire — arrives
//! through a [`qcdoc_fault::FaultPlan`], and faces travel over the
//! machine's own [`TorusShape`] wiring, so a plan strikes the same node
//! and wire here as in the functional engine.

use qcdoc_geometry::{NodeId, TorusShape};
use qcdoc_scu::timing::transfer_cycles;
use qcdoc_telemetry::{MetricsRegistry, Phase, RingSink, Span};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesConfig {
    /// Logical 4-D machine extents.
    pub machine_dims: [usize; 4],
    /// Baseline compute cycles per node per iteration.
    pub compute_cycles: u64,
    /// Per-node compute override (rank → cycles); e.g. a faster node has
    /// headroom that can absorb a pause.
    pub compute_override: Vec<(usize, u64)>,
    /// 64-bit words exchanged per face per iteration.
    pub face_words: u64,
    /// Cycles for the machine-wide reduction closing each iteration.
    pub global_sum_cycles: u64,
}

impl DesConfig {
    /// A homogeneous machine.
    pub fn homogeneous(
        machine_dims: [usize; 4],
        compute_cycles: u64,
        face_words: u64,
        global_sum_cycles: u64,
    ) -> DesConfig {
        DesConfig {
            machine_dims,
            compute_cycles,
            compute_override: Vec::new(),
            face_words,
            global_sum_cycles,
        }
    }

    fn compute_of(&self, rank: usize) -> u64 {
        self.compute_override
            .iter()
            .find(|(r, _)| *r == rank)
            .map_or(self.compute_cycles, |&(_, v)| v)
    }
}

/// The result of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesResult {
    /// Cycle at which the whole machine finished all iterations.
    pub total_cycles: u64,
    /// Machine-wide finish time of each iteration.
    pub iteration_finish: Vec<u64>,
}

impl DesResult {
    /// Steady-state cycles per iteration (from the last two iterations).
    pub fn steady_iteration_cycles(&self) -> u64 {
        match self.iteration_finish.len() {
            0 => 0,
            1 => self.iteration_finish[0],
            n => self.iteration_finish[n - 1] - self.iteration_finish[n - 2],
        }
    }
}

/// Play out `iterations` iterations of compute → face exchange → global
/// reduction under a fault plan, returning both the timing result and the
/// machine-health ledger a host sweep would read. An empty plan is the
/// healthy machine.
///
/// Fault semantics in the timing domain:
///
/// * **Bit errors** (scheduled flips and sustained error rates) cost wire
///   time: each corrupted frame triggers a go-back-N rewind, so the face
///   effectively carries `WINDOW` extra words per error. The error count
///   per `(node, link, iteration)` is a deterministic seeded draw.
/// * **Stalls** delay one link's face by the scheduled cycles — the
///   self-synchronization story of §2.2 plays out from there.
/// * **Node pauses** extend the node's compute phase.
/// * **Dead links and node crashes** are fatal: the machine self-stalls
///   (§2.2 — "the entire machine will shortly become stalled"), so the run
///   stops at the iteration the fault strikes and reports it in the
///   ledger instead of hanging. `DesResult::iteration_finish` is then
///   shorter than `iterations`.
///
/// The DES moves no payload bytes, so link checksums stay zero and
/// `checksum_ok` stays `None`; word counts, injected-error counts, stall
/// time, liveness, and the fingerprint are all fully deterministic.
///
/// Panics with the [`qcdoc_fault::PlanError`] before the first iteration
/// if the plan names a node or a wire the machine lacks.
pub fn run_with_faults(
    config: &DesConfig,
    iterations: usize,
    plan: &qcdoc_fault::FaultPlan,
) -> (DesResult, qcdoc_fault::HealthLedger) {
    run_traced(config, iterations, plan, None)
}

/// Telemetry hooks for a traced DES run: spans land in `sink`, aggregate
/// counters and the health-ledger readout land in `metrics`.
pub struct DesTelemetry<'a> {
    /// Receives one compute/comms/global-sum span per node per iteration.
    pub sink: &'a mut RingSink,
    /// Receives `des_*` series plus the ledger's gauge export.
    pub metrics: &'a mut MetricsRegistry,
}

impl std::fmt::Debug for DesTelemetry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesTelemetry").finish_non_exhaustive()
    }
}

/// [`run_with_faults`] with cycle-stamped tracing: each iteration of each
/// node decomposes into a `des.compute` span (ready → compute end), a
/// `des.comms` span (compute end → halo complete) and a `des.gsum` span
/// (halo complete → reduction done) — the §4 efficiency decomposition,
/// played out on the event clock. Timing and ledger are bit-identical to
/// the untraced run, and a plan that does not fit is refused the same way.
pub fn run_traced(
    config: &DesConfig,
    iterations: usize,
    plan: &qcdoc_fault::FaultPlan,
    mut telemetry: Option<DesTelemetry<'_>>,
) -> (DesResult, qcdoc_fault::HealthLedger) {
    use qcdoc_fault::{FaultClock, HealthLedger, Liveness};
    use qcdoc_scu::link::WINDOW;
    use qcdoc_scu::LINKS;

    let shape = TorusShape::new(&config.machine_dims);
    let n = shape.node_count();
    let clock = FaultClock::resolve(plan, &shape).unwrap_or_else(|e| panic!("{e}"));
    let mut ledger = HealthLedger::new(n);

    // The iteration at which an unrecoverable fault stops the machine: a
    // crash, or a dead wire, since every wire carries a face.
    let mut fatal_at = usize::MAX;
    for r in 0..n {
        if let Some(it) = clock.crash_iteration(r as u32) {
            fatal_at = fatal_at.min(it);
            ledger.node_mut(r as u32).liveness = Liveness::Crashed { iteration: it };
        }
        for l in 0..LINKS {
            if let Some(from_seq) = clock.link_dead_from(r as u32, l) {
                let words = config.face_words.max(1);
                fatal_at = fatal_at.min((from_seq / words) as usize);
                ledger.node_mut(r as u32).links[l].dead = true;
            }
        }
        // Analytic ECC verdict: the DES has no real memory, but SEC-DED's
        // outcome is a pure function of how many bits struck each word —
        // one flip is corrected by the scrub, two or more in the same
        // word defeat the Hamming distance and latch a machine check.
        let faults = clock.mem_faults(r as u32);
        let nh = ledger.node_mut(r as u32);
        nh.mem_flips = faults.len() as u64;
        let mut by_addr: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (addr, _) in faults {
            *by_addr.entry(addr).or_insert(0) += 1;
        }
        for &flips in by_addr.values() {
            if flips == 1 {
                nh.ecc_corrected += 1;
            } else {
                nh.machine_checks += 1;
            }
        }
    }

    // Every wire carries one face per iteration.
    let wires: Vec<Vec<_>> = (0..n)
        .map(|m| shape.wires(NodeId(m as u32)).collect())
        .collect();
    let mut ready = vec![0u64; n];
    let mut finishes = Vec::with_capacity(iterations.min(fatal_at));
    for it in 0..iterations.min(fatal_at) {
        let compute_end: Vec<u64> = (0..n)
            .map(|r| ready[r] + config.compute_of(r) + clock.pause_cycles(r as u32, it))
            .collect();
        let mut halo_done = compute_end.clone();
        for (m, &computed) in compute_end.iter().enumerate() {
            for &(d, r, rd) in &wires[m] {
                let (send_link, r, recv_link) = (d.link_index(), r.index(), rd.link_index());
                let errors = clock.wire_errors(m as u32, send_link, it, config.face_words);
                let effective = config.face_words + errors * WINDOW as u64;
                let stall = clock.stall_cycles(m as u32, send_link, it);
                let face = transfer_cycles(effective).count() + stall;
                halo_done[r] = halo_done[r].max(computed + face);
                let mh = ledger.node_mut(m as u32);
                mh.links[send_link].sent_words += config.face_words;
                mh.links[send_link].injected += errors;
                mh.links[send_link].resends += errors * WINDOW as u64;
                mh.links[send_link].stall_cycles += stall;
                let rh = ledger.node_mut(r as u32);
                rh.links[recv_link].received_words += config.face_words;
                rh.links[recv_link].rejects += errors;
            }
        }
        let sum_done = halo_done.iter().max().copied().expect("nodes") + config.global_sum_cycles;
        if let Some(t) = telemetry.as_mut() {
            for r in 0..n {
                for (name, phase, begin, end) in [
                    ("des.compute", Phase::Compute, ready[r], compute_end[r]),
                    ("des.comms", Phase::Comms, compute_end[r], halo_done[r]),
                    ("des.gsum", Phase::GlobalSum, halo_done[r], sum_done),
                ] {
                    t.sink.record(Span {
                        name,
                        node: r as u32,
                        phase,
                        begin,
                        end,
                        depth: 0,
                        arg: it as u64,
                    });
                }
            }
            t.metrics.counter_add("des_iterations", &[], 1);
            let prev = finishes.last().copied().unwrap_or(0);
            t.metrics
                .observe("des_iteration_cycles", &[], sum_done - prev);
        }
        ready.iter_mut().for_each(|t| *t = sum_done);
        finishes.push(sum_done);
    }
    let result = DesResult {
        total_cycles: *finishes.last().unwrap_or(&0),
        iteration_finish: finishes,
    };
    if let Some(t) = telemetry.as_mut() {
        t.metrics
            .gauge_set("des_total_cycles", &[], result.total_cycles as f64);
        ledger.export_metrics(t.metrics);
    }
    (result, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_fault::{FaultEvent, FaultPlan};

    /// The healthy machine: the fault-plan run with an empty plan.
    fn run(config: &DesConfig, iterations: usize) -> DesResult {
        run_with_faults(config, iterations, &FaultPlan::new(0)).0
    }

    /// The fault-plan run with a single scheduled event.
    fn run_one(config: &DesConfig, iterations: usize, event: FaultEvent) -> DesResult {
        run_with_faults(config, iterations, &FaultPlan::new(0).with_event(event)).0
    }

    fn base() -> DesConfig {
        // 16 nodes, 4^4-local-volume-ish numbers.
        DesConfig::homogeneous([2, 2, 2, 2], 800_000, 1_536, 3_000)
    }

    #[test]
    fn homogeneous_iteration_time_is_compute_plus_face_plus_sum() {
        let cfg = base();
        let r = run(&cfg, 5);
        let face = transfer_cycles(cfg.face_words).count();
        let expect = cfg.compute_cycles + face + cfg.global_sum_cycles;
        assert_eq!(r.steady_iteration_cycles(), expect);
        assert_eq!(r.total_cycles, 5 * expect);
    }

    #[test]
    fn agrees_with_analytic_model_without_overlap() {
        // The analytic model's pieces summed with no overlap: local time,
        // link time and global sums back to back, as the DES plays them.
        use crate::perf::DiracPerf;
        use qcdoc_lattice::counts::Action;
        let perf = DiracPerf::paper_bench();
        let report = perf.evaluate(Action::Wilson);
        let local = perf.local_time(Action::Wilson).cycles as u64;
        let serial = local + report.comm_cycles + report.gsum_cycles;
        // Feed the DES the same pieces: local cycles, per-face words (one
        // direction's worth — faces move concurrently), and the global sum.
        let cfg = DesConfig {
            machine_dims: perf.logical_dims,
            compute_cycles: local,
            compute_override: vec![],
            // comm_cycles covers both operator applications; DES charges
            // one face exchange per iteration, so hand it the total.
            face_words: report.comm_cycles / 72,
            global_sum_cycles: report.gsum_cycles,
        };
        let des = run(&cfg, 3);
        let rel = (des.steady_iteration_cycles() as f64 - serial as f64).abs() / serial as f64;
        assert!(
            rel < 0.02,
            "DES {} vs analytic {serial}",
            des.steady_iteration_cycles()
        );
    }

    #[test]
    fn one_time_stall_costs_the_machine_once() {
        // §2.2: a blocked link stalls the machine; when it resumes, the
        // machine proceeds — the delay is paid once, not per iteration.
        let clean = run(&base(), 10).total_cycles;
        let delta = 500_000u64;
        let stalled = run_one(&base(), 10, FaultEvent::node_pause(5, Some(2), delta)).total_cycles;
        assert_eq!(
            stalled,
            clean + delta,
            "a one-time stall must cost exactly itself"
        );
    }

    #[test]
    fn persistently_slow_node_paces_the_machine() {
        let clean = run(&base(), 10).total_cycles;
        let delta = 50_000u64;
        let slowed = run_one(&base(), 10, FaultEvent::node_pause(3, None, delta)).total_cycles;
        assert_eq!(
            slowed,
            clean + 10 * delta,
            "every iteration waits for the slow node"
        );
    }

    #[test]
    fn short_pause_on_a_node_with_slack_is_absorbed() {
        // §2.2: "allows one node to get slightly behind … say due to a
        // memory refresh. Provided the delay … is short enough, the
        // majority of the machine will not see this pause." Give node 7
        // headroom (it computes faster), then pause it by less than that
        // headroom: total time must not change at all.
        let mut cfg = base();
        cfg.compute_override.push((7, cfg.compute_cycles - 40_000));
        let clean = run(&cfg, 10).total_cycles;
        assert_eq!(
            run_one(&cfg, 10, FaultEvent::node_pause(7, Some(4), 30_000)).total_cycles,
            clean,
            "refresh pause must be invisible"
        );
        // But exceeding the headroom shows up.
        assert!(run_one(&cfg, 10, FaultEvent::node_pause(7, Some(4), 60_000)).total_cycles > clean);
    }

    #[test]
    fn skipping_comm_on_serial_axes() {
        // Machine extent 1 on every axis: a single node, no faces.
        let cfg = DesConfig::homogeneous([1, 1, 1, 1], 1000, 999, 7);
        let r = run(&cfg, 2);
        assert_eq!(r.steady_iteration_cycles(), 1007);
    }

    mod faults {
        use super::*;
        use qcdoc_fault::Liveness;

        #[test]
        fn empty_plan_leaves_a_clean_ledger() {
            let cfg = base();
            let (_, ledger) = run_with_faults(&cfg, 5, &FaultPlan::new(1));
            assert_eq!(ledger.total_injected(), 0);
            assert!(ledger.unhealthy_nodes().is_empty());
            // Word accounting: every node exchanges one face per spanning
            // direction per iteration.
            assert_eq!(ledger.nodes[0].links[0].sent_words, 5 * cfg.face_words);
            assert_eq!(ledger.nodes[0].links[1].received_words, 5 * cfg.face_words);
        }

        #[test]
        fn sustained_error_rate_costs_wire_time_deterministically() {
            let cfg = base();
            let clean = run(&cfg, 20).total_cycles;
            let plan = FaultPlan::new(7).with_event(FaultEvent::bit_error_rate(5, 0, 0.02));
            let (a, la) = run_with_faults(&cfg, 20, &plan);
            let (b, lb) = run_with_faults(&cfg, 20, &plan);
            assert_eq!(a, b, "same seed must give identical timing");
            assert_eq!(la.fingerprint(), lb.fingerprint(), "same seed, same ledger");
            assert!(
                la.total_injected() > 0,
                "a 2% BER over 20 iterations must fire"
            );
            assert_eq!(la.total_resends(), la.total_injected() * 3);
            assert!(a.total_cycles > clean, "resends must cost cycles");
            // A different seed draws a different error pattern.
            let (_, lc) = run_with_faults(
                &cfg,
                20,
                &FaultPlan::new(8).with_event(FaultEvent::bit_error_rate(5, 0, 0.02)),
            );
            assert_ne!(la.fingerprint(), lc.fingerprint());
        }

        #[test]
        fn analytic_ecc_verdict_splits_flips_by_word() {
            // One flip in one word is corrected; two flips in another word
            // defeat SEC-DED and condemn the node — same verdicts the
            // functional engine's real memory model reaches.
            let cfg = base();
            let plan = FaultPlan::new(0)
                .with_event(FaultEvent::mem_bit_flip(3, 0x100, 7))
                .with_event(FaultEvent::mem_double_flip(3, 0x200, 3, 41));
            let (_, ledger) = run_with_faults(&cfg, 5, &plan);
            assert_eq!(ledger.nodes[3].mem_flips, 3);
            assert_eq!(ledger.nodes[3].ecc_corrected, 1);
            assert_eq!(ledger.nodes[3].machine_checks, 1);
            assert_eq!(ledger.unhealthy_nodes(), vec![3]);
            assert_eq!(ledger.culprit_nodes(), vec![3]);
        }

        #[test]
        fn dead_link_stops_the_run_and_is_reported() {
            let cfg = base();
            // The wire dies mid-run: iteration 3 of the word schedule.
            let from_seq = 3 * cfg.face_words;
            let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(2, 1, from_seq));
            let (r, ledger) = run_with_faults(&cfg, 10, &plan);
            assert_eq!(
                r.iteration_finish.len(),
                3,
                "the machine stalls at iteration 3"
            );
            assert_eq!(ledger.dead_links(), vec![(2, 1)]);
            assert_eq!(ledger.unhealthy_nodes(), vec![2]);
        }

        #[test]
        fn crash_stops_the_run_at_its_iteration() {
            let cfg = base();
            let crash = FaultPlan::new(0).with_event(FaultEvent::node_crash(4, 2));
            let (r, ledger) = run_with_faults(&cfg, 10, &crash);
            assert_eq!(r.iteration_finish.len(), 2);
            assert_eq!(ledger.nodes[4].liveness, Liveness::Crashed { iteration: 2 });
        }

        #[test]
        fn traced_run_matches_untraced_and_partitions_the_clock() {
            let cfg = base();
            let plan = FaultPlan::new(7).with_event(FaultEvent::bit_error_rate(5, 0, 0.02));
            let (plain, ledger) = run_with_faults(&cfg, 6, &plan);
            let mut sink = RingSink::new(1 << 16);
            let mut metrics = MetricsRegistry::new();
            let (traced, tledger) = run_traced(
                &cfg,
                6,
                &plan,
                Some(DesTelemetry {
                    sink: &mut sink,
                    metrics: &mut metrics,
                }),
            );
            assert_eq!(plain, traced, "tracing must not perturb the timing");
            assert_eq!(ledger.fingerprint(), tledger.fingerprint());
            let spans = sink.drain();
            assert_eq!(spans.len(), 3 * 16 * 6, "3 spans per node per iteration");
            // Per node, the spans tile [0, total_cycles] with no gaps.
            let mut clock = [0u64; 16];
            for s in &spans {
                assert_eq!(s.begin, clock[s.node as usize], "gap in node timeline");
                assert!(s.end >= s.begin);
                clock[s.node as usize] = s.end;
            }
            assert!(clock.iter().all(|&c| c == traced.total_cycles));
            assert_eq!(metrics.counter("des_iterations", &[]), 6);
            assert_eq!(
                metrics.gauge("des_total_cycles", &[]),
                Some(traced.total_cycles as f64)
            );
            // The ledger export rode along.
            assert!(metrics.gauge("machine_total_resends", &[]).is_some());
        }

        #[test]
        fn a_random_link_fault_strikes_the_same_wire_in_both_engines() {
            // Random links draw among the machine's wires, which leave out
            // the extent-1 axis, in both engines.
            use crate::ShardedMachine;
            use qcdoc_fault::{FaultKind, LinkSelect, NodeSelect};
            let dims = [4, 4, 4, 1];
            for seed in 0..10 {
                let plan = FaultPlan::new(seed).with_event(FaultEvent {
                    node: NodeSelect::Random,
                    link: LinkSelect::Random,
                    kind: FaultKind::DeadLink { from_seq: 0 },
                });
                let (_, des) =
                    run_with_faults(&DesConfig::homogeneous(dims, 1_000, 8, 10), 3, &plan);
                let (_, machine) = ShardedMachine::new(TorusShape::new(&dims))
                    .with_workers(1)
                    .with_faults(plan)
                    .run_with_health(async |_| ());
                assert_eq!(des.dead_links(), machine.dead_links(), "seed {seed}");
            }
        }

        #[test]
        fn a_plan_naming_a_missing_wire_is_refused_by_both_engines() {
            // On [4,4,4,1] axis 3 has extent 1, so links 6 and 7 are not
            // wires; 9 and 11 lie beyond the 4-D rank, 12 and 21 beyond the
            // twelve links, and node 64 beyond the machine. Both engines
            // refuse each plan before running, with the resolver's error.
            // Link 0 carries the +x faces, so a dead link 0 stops both.
            use crate::distributed::{wilson_cg_segment_async, BlockGeom};
            use crate::ShardedMachine;
            use qcdoc_fault::{FaultClock, PlanError};
            use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
            use std::panic::{catch_unwind, AssertUnwindSafe};
            const ITERS: usize = 3;
            let dims = [4, 4, 4, 1];
            let shape = TorusShape::new(&dims);
            let cfg = DesConfig::homogeneous(dims, 1_000, 8, 10);
            let panic_text = |run: &dyn Fn()| -> String {
                let payload =
                    catch_unwind(AssertUnwindSafe(run)).expect_err("the plan must be refused");
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            };
            let refused = [6, 7, 9, 11, 12, 21]
                .map(|link| {
                    (
                        FaultEvent::dead_link(3, link, 0),
                        PlanError::NoSuchWire(3, link),
                    )
                })
                .into_iter()
                .chain([(
                    FaultEvent::dead_link(64, 0, 0),
                    PlanError::NoSuchNode(64, 64),
                )]);
            for (event, want) in refused {
                let plan = FaultPlan::new(0).with_event(event);
                assert_eq!(FaultClock::resolve(&plan, &shape).unwrap_err(), want);
                let des = panic_text(&|| {
                    run_with_faults(&cfg, ITERS, &plan);
                });
                let machine = panic_text(&|| {
                    ShardedMachine::new(shape.clone()).with_faults(plan.clone());
                });
                assert_eq!(
                    (des.as_str(), machine.as_str()),
                    (&*want.to_string(), &*want.to_string())
                );
            }

            let global = Lattice::new([8, 8, 8, 2]);
            let gauge = GaugeField::hot(global, 5);
            let b = FermionField::gaussian(global, 6);
            let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(3, 0, 0));
            let (des, des_ledger) = run_with_faults(&cfg, ITERS, &plan);
            let (outs, ledger) = ShardedMachine::new(shape)
                .with_workers(1)
                .with_faults(plan)
                .run_with_health(async |ctx| {
                    let geom = BlockGeom::new(ctx, global);
                    let lg = geom.extract_gauge(&gauge);
                    let lb = geom.extract_fermion(&b);
                    wilson_cg_segment_async(ctx, &geom, &lg, &lb, 0.12, 1e-12, ITERS, None, ITERS)
                        .await
                        .wedged
                });
            assert!(des.iteration_finish.is_empty(), "the DES stops at once");
            assert!(outs.iter().any(|&wedged| wedged), "the machine wedges");
            assert_eq!(des_ledger.dead_links(), vec![(3, 0)]);
            assert_eq!(ledger.dead_links(), vec![(3, 0)]);
        }

        #[test]
        fn link_stall_is_paid_once() {
            let cfg = base();
            let plan = FaultPlan::new(0).with_event(FaultEvent::stall(1, 0, 2, 75_000));
            let (r, ledger) = run_with_faults(&cfg, 10, &plan);
            assert_eq!(r.total_cycles, run(&cfg, 10).total_cycles + 75_000);
            assert_eq!(ledger.nodes[1].links[0].stall_cycles, 75_000);
        }
    }
}
