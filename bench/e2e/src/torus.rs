//! The three machine workloads: a Wilson CG on the sharded engine at two
//! shapes, and the 16-node one again under injected link faults.

use crate::measure::{timed, Sample, Workload};
use crate::report::Checks;
use crate::trace::Tracer;
use crate::{workers, KAPPA};
use qcdoc::core::distributed::{wilson_cg_segment_async, wilson_solve_cg_async, BlockGeom};
use qcdoc::core::functional::{NodeCtx, TelemetryConfig};
use qcdoc::core::ShardedMachine;
use qcdoc::fault::{FaultEvent, FaultPlan, HealthLedger};
use qcdoc::geometry::{NodeId, TorusShape};
use qcdoc::lattice::complex::C64;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::solver::{solve_cgne, CgParams};
use qcdoc::lattice::spinor::Spinor;
use qcdoc::lattice::wilson::WilsonDirac;
use qcdoc::telemetry::MachineTelemetry;

/// The global lattice of every machine workload: 8^4 — one site per node on
/// the 4,096-node torus, the paper's 4^4 local volume on 16 nodes.
pub const GLOBAL: [usize; 4] = [8, 8, 8, 8];
pub const LATENCY_MACHINE: [usize; 4] = [8, 8, 8, 8];
pub const BANDWIDTH_MACHINE: [usize; 4] = [2, 2, 2, 2];
/// Relative residual the 16-node solves run to.
pub const TOLERANCE: f64 = 1e-8;
/// CG iterations of one `torus_latency` rep: a bounded segment, like the
/// 12,288-node run the ROADMAP quotes, at a size that repeats. One, so that
/// five reps fit a run: interleaved ten-run sets spread 5.5 % with five
/// 1-iteration reps against 18.7 % with three 2-iteration ones.
const LATENCY_ITERATIONS: usize = 1;
/// Bit-error rate of `torus_faulty`, on one wire drawn from the seed.
pub const BIT_ERROR_RATE: f64 = 1e-3;
/// Agreement required between the distributed and the serial solution.
const SERIAL_AGREEMENT: f64 = 1e-10;
/// Iteration cap of a solve to tolerance; reaching it is a failure.
const MAX_ITERATIONS: usize = 2000;

/// How far a node program runs the solver.
#[derive(Clone, Copy)]
pub enum Extent {
    /// `wilson_cg_segment_async` for exactly this many iterations.
    Segment(usize),
    /// `wilson_solve_cg_async` to [`TOLERANCE`].
    Solve,
}

/// Everything a machine run reads, generated from the seed.
pub struct Inputs {
    pub shape: TorusShape,
    pub global: Lattice,
    pub gauge: GaugeField,
    pub source: FermionField,
}

impl Inputs {
    pub fn generate(seed: u64, machine: [usize; 4]) -> Inputs {
        let global = Lattice::new(GLOBAL);
        Inputs {
            shape: TorusShape::new(&machine),
            global,
            gauge: GaugeField::hot(global, seed),
            source: FermionField::gaussian(global, seed + 1),
        }
    }

    /// A fault-free machine of this shape on the harness's worker count.
    pub fn machine(&self) -> ShardedMachine {
        ShardedMachine::new(self.shape.clone()).with_workers(workers())
    }

    /// The same machine with one noisy wire and end-to-end block checksums.
    pub fn faulty_machine(&self, seed: u64, rate: f64) -> ShardedMachine {
        let plan = FaultPlan::new(seed).with_event(FaultEvent::random_bit_error_rate(rate));
        self.machine().with_faults(plan).with_block_checksums()
    }
}

/// What one node hands back.
pub struct NodeOut {
    iterations: usize,
    residual_bits: u64,
    /// Not wedged, and converged or ran the whole segment.
    completed: bool,
    x: Vec<Spinor>,
}

/// The node program of every machine workload and probe: extract this
/// node's blocks, then run the distributed CG as far as `extent` says.
async fn node_solve(ctx: &mut NodeCtx, inputs: &Inputs, extent: Extent) -> NodeOut {
    let geom = BlockGeom::new(ctx, inputs.global);
    let lg = geom.extract_gauge(&inputs.gauge);
    let lb = geom.extract_fermion(&inputs.source);
    match extent {
        Extent::Segment(iterations) => {
            let out = wilson_cg_segment_async(
                ctx, &geom, &lg, &lb, KAPPA, 1e-12, 10_000, None, iterations,
            )
            .await;
            NodeOut {
                iterations: out.iterations,
                residual_bits: out.rsq.to_bits(),
                completed: !out.wedged && out.iterations == iterations,
                x: out.x,
            }
        }
        Extent::Solve => {
            let (x, report) =
                wilson_solve_cg_async(ctx, &geom, &lg, &lb, KAPPA, TOLERANCE, MAX_ITERATIONS).await;
            NodeOut {
                iterations: report.iterations,
                residual_bits: report.final_residual.to_bits(),
                completed: !ctx.wedged() && report.converged,
                x,
            }
        }
    }
}

pub fn run_plain(machine: &ShardedMachine, inputs: &Inputs, extent: Extent) -> Vec<NodeOut> {
    machine.run(async |ctx| node_solve(ctx, inputs, extent).await)
}

pub fn run_with_health(
    machine: &ShardedMachine,
    inputs: &Inputs,
    extent: Extent,
) -> (Vec<NodeOut>, HealthLedger) {
    machine.run_with_health(async |ctx| node_solve(ctx, inputs, extent).await)
}

pub fn run_with_telemetry(
    inputs: &Inputs,
    extent: Extent,
) -> (Vec<NodeOut>, HealthLedger, MachineTelemetry) {
    inputs
        .machine()
        .with_telemetry(TelemetryConfig::default())
        .run_with_telemetry(async |ctx| node_solve(ctx, inputs, extent).await)
}

/// One machine run, reduced to what the checks compare.
pub struct Outcome {
    pub iterations: usize,
    pub residual_bits: u64,
    /// Fingerprint of the solution assembled in global site order.
    pub fingerprint: u64,
    pub solution: FermionField,
}

/// Count the node programs, check that every node agrees on the iteration
/// count and the residual bits, and assemble the global solution.
pub fn gather(inputs: &Inputs, outs: &[NodeOut], checks: &mut Checks) -> Outcome {
    let incomplete = outs.iter().filter(|o| !o.completed).count();
    checks.ops(outs.len() as u64, incomplete as u64, "node programs");
    let head = &outs[0];
    let disagree = outs
        .iter()
        .filter(|o| o.residual_bits != head.residual_bits || o.iterations != head.iterations)
        .count();
    checks.check(disagree == 0, || {
        format!("{disagree} nodes disagree with node 0 on residual bits or iteration count")
    });
    let mut solution = FermionField::zero(inputs.global);
    for (node, out) in outs.iter().enumerate() {
        let geom = BlockGeom::for_node(&inputs.shape, NodeId(node as u32), inputs.global);
        for l in geom.local.sites() {
            *solution.site_mut(geom.global_site(l)) = out.x[l];
        }
    }
    Outcome {
        iterations: head.iterations,
        residual_bits: head.residual_bits,
        fingerprint: solution.fingerprint(),
        solution,
    }
}

/// `got` must be `want`, bit for bit.
pub fn same_outcome(what: &str, got: &Outcome, want: &Outcome, checks: &mut Checks) {
    checks.same_bits(
        &format!("{what}: solution fingerprint"),
        got.fingerprint,
        want.fingerprint,
    );
    checks.same_bits(
        &format!("{what}: residual bits"),
        got.residual_bits,
        want.residual_bits,
    );
    checks.same_bits(
        &format!("{what}: iterations"),
        got.iterations as u64,
        want.iterations as u64,
    );
}

/// The serial reference: `solve_cgne` on the whole lattice, stopped where
/// the distributed run stops.
pub fn serial_reference(inputs: &Inputs, extent: Extent) -> (FermionField, usize, Sample) {
    let op = WilsonDirac::new(&inputs.gauge, KAPPA);
    let mut x = FermionField::zero(inputs.global);
    let params = match extent {
        Extent::Segment(iterations) => CgParams {
            tolerance: 1e-12,
            max_iterations: iterations,
        },
        Extent::Solve => CgParams {
            tolerance: TOLERANCE,
            max_iterations: MAX_ITERATIONS,
        },
    };
    let (report, sample) = timed(|| solve_cgne(&op, &mut x, &inputs.source, params));
    (x, report.iterations, sample)
}

/// The distributed solution must match the serial one to
/// [`SERIAL_AGREEMENT`] and take the same number of iterations.
pub fn agrees_with_serial(inputs: &Inputs, extent: Extent, got: &Outcome, checks: &mut Checks) {
    let (x, iterations, _) = serial_reference(inputs, extent);
    let mut difference = got.solution.clone();
    difference.axpy(C64::real(-1.0), &x);
    let relative = (difference.norm_sqr() / x.norm_sqr()).sqrt();
    checks.check(relative <= SERIAL_AGREEMENT, || {
        format!("distributed solution is {relative:e} (relative) from the serial solve_cgne")
    });
    checks.check(iterations == got.iterations, || {
        format!(
            "distributed CG took {} iterations, serial {iterations}",
            got.iterations
        )
    });
}

/// A machine workload: which torus, how far the solver runs, and whether
/// the links are noisy.
pub struct Torus {
    pub name: &'static str,
    pub machine: [usize; 4],
    pub extent: Extent,
    /// The cheaper run that warms the process up. `torus_faulty` ignores
    /// it: its warm-up is the fault-free solve its reps must reproduce.
    pub warm_up: Extent,
    pub faulty: bool,
}

pub const TORUS_LATENCY: Torus = Torus {
    name: "torus_latency",
    machine: LATENCY_MACHINE,
    extent: Extent::Segment(LATENCY_ITERATIONS),
    warm_up: Extent::Segment(LATENCY_ITERATIONS),
    faulty: false,
};
pub const TORUS_BANDWIDTH: Torus = Torus {
    name: "torus_bandwidth",
    machine: BANDWIDTH_MACHINE,
    extent: Extent::Solve,
    warm_up: Extent::Segment(2),
    faulty: false,
};
pub const TORUS_FAULTY: Torus = Torus {
    name: "torus_faulty",
    faulty: true,
    ..TORUS_BANDWIDTH
};

pub struct State {
    pub inputs: Inputs,
    machine: ShardedMachine,
    /// The outcome every rep must reproduce bit for bit: the first rep's,
    /// or for `torus_faulty` the fault-free warm-up's.
    reference: Option<Outcome>,
    /// Faults the first noisy rep saw injected; the plan is seeded, so
    /// every later rep must see as many.
    injected: Option<u64>,
}

impl State {
    /// CG iterations of one rep.
    pub fn iterations(&self) -> usize {
        self.reference.as_ref().map_or(0, |r| r.iterations)
    }
}

impl Workload for Torus {
    type State = State;

    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&self, seed: u64, t: &mut Tracer) -> State {
        let inputs = t.span("generate_fields", |_| Inputs::generate(seed, self.machine));
        let machine = t.span("ShardedMachine::new", |_| {
            if self.faulty {
                inputs.faulty_machine(seed, BIT_ERROR_RATE)
            } else {
                inputs.machine()
            }
        });
        State {
            inputs,
            machine,
            reference: None,
            injected: None,
        }
    }

    fn warm_up(&self, state: &mut State, t: &mut Tracer, checks: &mut Checks) {
        let clean;
        let (machine, extent) = if self.faulty {
            clean = state.inputs.machine();
            (&clean, self.extent)
        } else {
            (&state.machine, self.warm_up)
        };
        let outs = t.span("ShardedMachine::run", |_| {
            run_plain(machine, &state.inputs, extent)
        });
        let outcome = gather(&state.inputs, &outs, checks);
        if self.faulty {
            state.reference = Some(outcome);
        }
    }

    fn rep(
        &self,
        state: &mut State,
        _round: usize,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> (Sample, f64) {
        let (outs, sample) = if self.faulty {
            let ((outs, ledger), sample) = t.span("ShardedMachine::run_with_health", |_| {
                timed(|| run_with_health(&state.machine, &state.inputs, self.extent))
            });
            checks.check(ledger.all_checksums_ok(), || {
                "link checksums disagree after the healed run".into()
            });
            let injected = ledger.total_injected();
            checks.check(injected > 0, || "the fault plan injected nothing".into());
            checks.same_bits(
                "faults injected",
                injected,
                *state.injected.get_or_insert(injected),
            );
            println!(
                "{} injected {injected} resends {} (resends depend on the schedule)",
                self.name,
                ledger.total_resends()
            );
            (outs, sample)
        } else {
            t.span("ShardedMachine::run", |_| {
                timed(|| run_plain(&state.machine, &state.inputs, self.extent))
            })
        };
        let outcome = t.span("gather_and_compare", |_| {
            let outcome = gather(&state.inputs, &outs, checks);
            if let Some(reference) = &state.reference {
                same_outcome(self.name, &outcome, reference, checks);
            }
            outcome
        });
        let work = (state.inputs.global.volume() * outcome.iterations) as f64;
        state.reference.get_or_insert(outcome);
        (sample, work)
    }

    fn verify(&self, state: &mut State, t: &mut Tracer, checks: &mut Checks) {
        let reference = state.reference.as_ref().expect("at least one rep ran");
        t.span("solve_cgne", |_| {
            agrees_with_serial(&state.inputs, self.extent, reference, checks)
        });
    }
}
