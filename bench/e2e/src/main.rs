//! End-to-end benchmark of the QCDOC software twin.
//!
//! `qcdoc-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process, prints every metric as
//! `workload metric value unit`, and ends with the result object. An
//! untraced run reports the end-to-end metrics; a traced run reports every
//! per-layer metric and writes `out/trace_<workload>.json`. See README.md.

mod catalogue;
mod control_plane;
mod local_solve;
mod measure;
mod probes;
mod procfs;
mod report;
mod stats;
mod torus;
mod trace;

use measure::{run_reps, Workload};
use report::{Checks, Metrics};
use std::process::ExitCode;
use trace::Tracer;

/// Hopping parameter of every Wilson operator in the benchmark.
pub const KAPPA: f64 = 0.11;

/// Worker threads of every sharded machine the harness builds: two, or
/// one where the host has a single core. Printed with every result.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: f64::from(catalogue::RUN_SECONDS),
        traced: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

/// Run one workload end to end and print its result. The probes get the
/// workload's state so they can price the layers on its shapes.
fn run<W: Workload>(
    workload: &W,
    args: &Args,
    plan: impl FnOnce(&W::State) -> probes::Plan,
) -> ExitCode {
    let name = workload.name();
    println!(
        "{name} seed {} seconds {} traced {} workers {} host_cores {} host_caches [{}]",
        args.seed,
        args.seconds,
        args.traced,
        workers(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        procfs::host_caches(),
    );
    let mut tracer = Tracer::new(name, args.traced);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let (state, summary) = run_reps(
        workload,
        args.seed,
        args.seconds,
        args.traced,
        &mut tracer,
        &mut checks,
        &mut metrics,
    );
    if args.traced {
        let plan = plan(&state);
        drop(state);
        probes::run(
            args.seed,
            &plan,
            &summary,
            &mut tracer,
            &mut checks,
            &mut metrics,
        );
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace_{name}.json");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json()))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{name} trace {} spans in {path}", tracer.spans().len());
    }
    report::print_result(name, args.traced, &checks, &metrics);
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--benchmark-json") {
        print!("{}", catalogue::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("qcdoc-e2e: {message}");
            eprintln!(
                "usage: qcdoc-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
                 qcdoc-e2e --benchmark-json"
            );
            return ExitCode::from(2);
        }
    };
    let torus_plan = |machine| {
        move |state: &torus::State| probes::Plan {
            machine,
            lattice: torus::GLOBAL,
            iterations: state.iterations(),
            own_solve: probes::OwnSolve::Distributed,
        }
    };
    match args.workload.as_str() {
        "torus_latency" => run(
            &torus::TORUS_LATENCY,
            &args,
            torus_plan(torus::LATENCY_MACHINE),
        ),
        "torus_bandwidth" => run(
            &torus::TORUS_BANDWIDTH,
            &args,
            torus_plan(torus::BANDWIDTH_MACHINE),
        ),
        "torus_faulty" => run(
            &torus::TORUS_FAULTY,
            &args,
            torus_plan(torus::BANDWIDTH_MACHINE),
        ),
        "local_solve" => run(&local_solve::LocalSolve, &args, |state| probes::Plan {
            machine: torus::BANDWIDTH_MACHINE,
            lattice: local_solve::LATTICE,
            iterations: state.iterations(),
            own_solve: probes::OwnSolve::Serial {
                applications: state.applications(),
            },
        }),
        "control_plane" => run(&control_plane::ControlPlane, &args, |_| probes::Plan {
            machine: torus::BANDWIDTH_MACHINE,
            lattice: control_plane::ARCHIVE_LATTICE,
            iterations: control_plane::ARCHIVE_ITERATIONS,
            own_solve: probes::OwnSolve::None,
        }),
        other => {
            let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "qcdoc-e2e: unknown workload `{other}`; one of {}",
                names.join(", ")
            );
            ExitCode::from(2)
        }
    }
}
