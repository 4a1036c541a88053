//! Self-synchronization (§2.2): what the link-level handshake does to a
//! machine when a node stalls.
//!
//! "In a tightly coupled application involving extensive nearest-neighbor
//! communications, if a given node stops communicating with its neighbors,
//! the entire machine will shortly become stalled. Once the initial
//! blocked link resumes its transfers, the whole machine will proceed with
//! the calculation. This link-level handshaking also allows one node to
//! get slightly behind … say due to a memory refresh."
//!
//! ```text
//! cargo run --release --example self_sync
//! ```

use qcdoc::core::des::{run_with_faults, DesConfig, DesResult};
use qcdoc::fault::{FaultEvent, FaultPlan};

const ITERS: usize = 20;

/// Run the machine with `events` (node pauses) scheduled.
fn run(config: &DesConfig, events: &[FaultEvent]) -> DesResult {
    let plan = events
        .iter()
        .copied()
        .fold(FaultPlan::new(0), FaultPlan::with_event);
    run_with_faults(config, ITERS, &plan).0
}

fn main() {
    // A 256-node 4-D machine iterating a CG-like workload.
    let base = DesConfig::homogeneous([4, 4, 4, 4], 900_000, 1_536, 3_000);

    let clean = run(&base, &[]);
    println!(
        "clean machine      : {} iterations in {:.2} Mcycles ({} kcycles each)",
        ITERS,
        clean.total_cycles as f64 / 1e6,
        clean.steady_iteration_cycles() / 1000
    );

    // One node pauses once, for half an iteration.
    let r_once = run(&base, &[FaultEvent::node_pause(77, Some(5), 450_000)]);
    println!(
        "one 450 kcycle stall on node 77 at iteration 5:\n\
         \x20                    total +{} kcycles (exactly the stall, paid once, then the\n\
         \x20                    machine proceeds — the self-synchronizing property)",
        (r_once.total_cycles - clean.total_cycles) / 1000
    );

    // A persistently slow node paces everyone.
    let r_slow = run(&base, &[FaultEvent::node_pause(3, None, 50_000)]);
    println!(
        "node 3 slower by 50 kcycles every iteration:\n\
         \x20                    total +{} kcycles ({} x 50k — the machine runs at the\n\
         \x20                    slowest node's pace)",
        (r_slow.total_cycles - clean.total_cycles) / 1000,
        ITERS
    );

    // A refresh pause inside a node's slack is invisible.
    let mut fast = base.clone();
    fast.compute_override.push((42, 900_000 - 60_000)); // node 42 has headroom
    let with_headroom = run(&fast, &[]).total_cycles;
    let r_refresh = run(&fast, &[FaultEvent::node_pause(42, Some(9), 40_000)]).total_cycles;
    println!(
        "a 40 kcycle DRAM-refresh pause on a node with 60 kcycles of slack:\n\
         \x20                    total +{} cycles — \"the majority of the machine will not\n\
         \x20                    see this pause by one node\" (§2.2)",
        r_refresh - with_headroom
    );
}
