//! `local_solve`: the serial double-precision Wilson CG on 16^4. No
//! machine, no links — `lattice` does all the work.

use crate::measure::{timed, Sample, Workload};
use crate::report::Checks;
use crate::trace::Tracer;
use crate::KAPPA;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::solver::{solve_cgne, CgParams};
use qcdoc::lattice::wilson::WilsonDirac;

pub const LATTICE: [usize; 4] = [16, 16, 16, 16];
pub const TOLERANCE: f64 = 1e-8;
/// Iterations of the discarded warm-up solve.
const WARM_UP_ITERATIONS: usize = 2;

pub struct LocalSolve;

pub struct State {
    pub gauge: GaugeField,
    pub source: FermionField,
    /// The first rep's solve, which every later rep must reproduce.
    first: Option<Solved>,
}

#[derive(Clone, Copy)]
struct Solved {
    fingerprint: u64,
    iterations: usize,
    applications: usize,
}

impl State {
    pub fn iterations(&self) -> usize {
        self.first.map_or(0, |s| s.iterations)
    }

    pub fn applications(&self) -> usize {
        self.first.map_or(0, |s| s.applications)
    }
}

impl Workload for LocalSolve {
    type State = State;

    fn name(&self) -> &'static str {
        "local_solve"
    }

    fn setup(&self, seed: u64, t: &mut Tracer) -> State {
        let lattice = Lattice::new(LATTICE);
        t.span("generate_fields", |_| State {
            gauge: GaugeField::hot(lattice, seed),
            source: FermionField::gaussian(lattice, seed + 1),
            first: None,
        })
    }

    fn warm_up(&self, state: &mut State, t: &mut Tracer, _checks: &mut Checks) {
        let op = WilsonDirac::new(&state.gauge, KAPPA);
        let mut x = FermionField::zero(state.source.lattice());
        let params = CgParams {
            tolerance: TOLERANCE,
            max_iterations: WARM_UP_ITERATIONS,
        };
        t.span("solve_cgne", |_| {
            solve_cgne(&op, &mut x, &state.source, params)
        });
    }

    fn rep(
        &self,
        state: &mut State,
        _round: usize,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> (Sample, f64) {
        let op = WilsonDirac::new(&state.gauge, KAPPA);
        let mut x = FermionField::zero(state.source.lattice());
        let params = CgParams {
            tolerance: TOLERANCE,
            max_iterations: 2000,
        };
        let (report, sample) = t.span("solve_cgne", |_| {
            timed(|| solve_cgne(&op, &mut x, &state.source, params))
        });
        let converged = report.converged && report.final_residual <= TOLERANCE;
        checks.ops(1, u64::from(!converged), "serial solves");
        let first = *state.first.get_or_insert(Solved {
            fingerprint: x.fingerprint(),
            iterations: report.iterations,
            applications: report.operator_applications,
        });
        checks.same_bits(
            "local_solve: solution fingerprint",
            x.fingerprint(),
            first.fingerprint,
        );
        checks.same_bits(
            "local_solve: iterations",
            report.iterations as u64,
            first.iterations as u64,
        );
        let work = (state.source.lattice().volume() * report.iterations) as f64;
        (sample, work)
    }
}
