//! Timing one call, and the closed loop of reps every workload runs:
//! set up several times, warm up once, then repeat the operation until the
//! measuring time is used up.

use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::report::{Checks, Metrics};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use std::time::Instant;

/// Host wall and CPU (user + system, all threads) seconds of one call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let result = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    (result, Sample { wall_s, cpu_s })
}

/// Times set-up is repeated to report its median.
const SETUPS: usize = 9;
/// Fewest timed reps of an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 2;

/// One of the five workloads, as the rep loop sees it.
pub trait Workload {
    /// Inputs generated from the seed, hosts booted, machines constructed.
    type State;

    fn name(&self) -> &'static str;

    /// Everything before the timed region. Reported as `setup_s`.
    fn setup(&self, seed: u64, t: &mut Tracer) -> Self::State;

    /// The timed operation at a smaller size, run once and discarded, so
    /// first-touch page faults and allocator growth stay out of the reps.
    fn warm_up(&self, state: &mut Self::State, t: &mut Tracer, checks: &mut Checks);

    /// One closed-loop rep: time the operation, then check its outputs
    /// outside the timed call. Returns the sample and the work it did
    /// (site-iterations for a solve, completed jobs for the control plane).
    /// `round` counts reps from zero, except that the untraced and the
    /// traced rep of a pair share one, so they can be given the same work.
    fn rep(
        &self,
        state: &mut Self::State,
        round: usize,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> (Sample, f64);

    /// Checks that need a reference computation, after the timed region.
    fn verify(&self, _state: &mut Self::State, _t: &mut Tracer, _checks: &mut Checks) {}

    /// The value reported for a series of rep timings. Reps of identical
    /// work report their median.
    fn typical(&self, values: &[f64]) -> f64 {
        median(values)
    }
}

/// What the rep loop measured, for the per-layer probes to reuse.
pub struct RepSummary {
    /// Typical untraced rep.
    pub rep: Sample,
    /// Typical traced rep wall over typical untraced rep wall (traced runs).
    pub trace_overhead_ratio: Option<f64>,
}

/// Run `workload` for `seconds` and record the end-to-end metrics. In a
/// traced run, untraced and traced reps alternate for half the time (the
/// per-layer probes get the rest) and every other phase is traced.
pub fn run_reps<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: f64,
    traced_run: bool,
    t: &mut Tracer,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> (W::State, RepSummary) {
    let name = workload.name();
    t.set_enabled(traced_run);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take()); // one copy of the inputs alive at a time
        let (made, sample) = t.span("setup", |t| timed(|| workload.setup(seed, t)));
        setups.push(sample.wall_s);
        state = Some(made);
    }
    let mut state = state.expect("SETUPS is at least one");

    t.span("warm_up", |t| workload.warm_up(&mut state, t, checks));

    let budget = if traced_run { seconds / 2.0 } else { seconds };
    let step = if traced_run { 2 } else { 1 };
    let mut samples: Vec<Sample> = Vec::new();
    let mut work = 0.0;
    let started = Instant::now();
    for round in 0.. {
        let round_started = Instant::now();
        for i in 0..step {
            t.set_enabled(traced_run && i == 1);
            let (sample, w) = t.span("rep", |t| workload.rep(&mut state, round, t, checks));
            samples.push(sample);
            work = w;
        }
        // Go round again while at least half of another round fits, so the
        // time measured averages `budget` whatever a rep's length.
        let round_s = round_started.elapsed().as_secs_f64();
        let enough = samples.len() >= MIN_REPS;
        if enough && started.elapsed().as_secs_f64() + round_s / 2.0 > budget {
            break;
        }
    }
    t.set_enabled(traced_run);

    let series = |pick: fn(&Sample) -> f64, offset: usize| -> Vec<f64> {
        samples
            .iter()
            .skip(offset)
            .step_by(step)
            .map(pick)
            .collect()
    };
    let walls = series(|s| s.wall_s, 0);
    let cpus = series(|s| s.cpu_s, 0);
    let rep = Sample {
        wall_s: workload.typical(&walls),
        cpu_s: workload.typical(&cpus),
    };
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    print!("{name} rep_wall_s [{}]", listed.join(", "));
    if walls.len() >= 2 {
        let (q1, q3) = quartiles(&walls);
        print!(" quartiles {q1:.4} {q3:.4} (printed, not judged)");
    }
    println!();
    let trace_overhead_ratio =
        traced_run.then(|| workload.typical(&series(|s| s.wall_s, 1)) / rep.wall_s);

    t.span("verify", |t| workload.verify(&mut state, t, checks));

    if !traced_run {
        metrics.set("wall_s", rep.wall_s);
        metrics.set("cpu_s", rep.cpu_s);
        metrics.set("work_per_s", work / rep.wall_s);
        metrics.set("peak_rss_mb", peak_rss_mb());
        metrics.set("setup_s", median(&setups));
    }
    let summary = RepSummary {
        rep,
        trace_overhead_ratio,
    };
    (state, summary)
}
