//! The complete paper-vs-measured record in one run: every §2.2/§3.1/§4
//! number, printed side by side with the model's value. This is the
//! programmatic version of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example paper_report
//! ```

use qcdoc::asic::clock::Clock;
use qcdoc::core::baseline::ClusterPerf;
use qcdoc::core::distributed::{wilson_cg_segment_async, BlockGeom};
use qcdoc::core::perf::{DiracPerf, Precision, PAPER_EFFICIENCIES};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{PartitionSpec, TorusShape};
use qcdoc::host::qdaemon::Qdaemon;
use qcdoc::lattice::counts::Action;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::machine::catalog;
use qcdoc::machine::cost::{columbia_4096, CostModel, PricePerformance, PAPER_PRICE_PERF};
use qcdoc::machine::packaging::MachineAssembly;
use qcdoc::machine::wiring::wiring;
use qcdoc::scu::global::dimension_sum_hops;
use qcdoc::scu::timing::LinkTimingConfig;
use std::time::Instant;

fn row(claim: &str, paper: &str, measured: &str) {
    println!("  {claim:<46} {paper:>16} {measured:>18}");
}

fn main() {
    println!("QCDOC (SC 2004) — paper vs this reproduction\n");
    println!("  {:<46} {:>16} {:>18}", "claim", "paper", "measured");
    println!("  {:-<46} {:->16} {:->18}", "", "", "");

    // §2.1 / abstract.
    row(
        "node peak speed",
        "1 Gflops",
        &format!("{:.1} Gflops", Clock::DESIGN.peak_flops() / 1e9),
    );
    row(
        "12,288-node peak",
        "10+ Tflops",
        &format!(
            "{:.2} Tflops",
            MachineAssembly::new(12_288).peak_flops(500.0) / 1e12
        ),
    );
    let edram_bw = qcdoc::asic::edram::PORT_BYTES_PER_CYCLE as f64 * Clock::DESIGN.hz() as f64;
    row(
        "EDRAM bandwidth",
        "8 GB/s",
        &format!("{:.1} GB/s", edram_bw / 1e9),
    );
    row(
        "DDR bandwidth",
        "2.6 GB/s",
        &format!("{:.1} GB/s", qcdoc::asic::ddr::DDR_BYTES_PER_SEC / 1e9),
    );

    // §2.2 link numbers.
    let link = LinkTimingConfig::default();
    row(
        "nearest-neighbour latency",
        "~600 ns",
        &format!("{:.0} ns", link.transfer_ns(1, Clock::DESIGN)),
    );
    let tail = link.transfer_ns(24, Clock::DESIGN) - link.transfer_ns(1, Clock::DESIGN);
    row(
        "24-word transfer tail",
        "3.3 us",
        &format!("{:.2} us", tail / 1000.0),
    );
    row(
        "aggregate node bandwidth",
        "1.3 GB/s",
        &format!("{:.2} GB/s", link.node_bandwidth(Clock::DESIGN) / 1e9),
    );
    row(
        "global sum hops (8x8x8x16)",
        "36 / 20 doubled",
        &format!(
            "{} / {}",
            dimension_sum_hops(&[8, 8, 8, 16], false),
            dimension_sum_hops(&[8, 8, 8, 16], true)
        ),
    );

    // §3.1 boot.
    let mut q = Qdaemon::new(qcdoc::geometry::TorusShape::motherboard_64());
    let boot = q.boot(&[]);
    row(
        "boot packets per node",
        "~100 + ~100",
        &format!("{}", boot.packets_sent / 64),
    );

    // §4 efficiencies.
    let perf = DiracPerf::paper_bench();
    for (action, paper) in PAPER_EFFICIENCIES {
        row(
            &format!("{} CG efficiency (4^4, 450 MHz)", action.name()),
            &format!("{:.1} %", 100.0 * paper),
            &format!("{:.1} %", 100.0 * perf.evaluate(action).efficiency),
        );
    }
    row(
        "domain wall vs clover",
        "surpasses",
        &format!(
            "{:.1} % vs {:.1} %",
            100.0 * perf.evaluate(Action::Dwf { ls: 8 }).efficiency,
            100.0 * perf.evaluate(Action::Clover).efficiency
        ),
    );
    let mut sp = DiracPerf::paper_bench();
    sp.precision = Precision::Single;
    row(
        "single precision",
        "slightly higher",
        &format!(
            "+{:.1} pp",
            100.0
                * (sp.evaluate(Action::Wilson).efficiency
                    - perf.evaluate(Action::Wilson).efficiency)
        ),
    );
    println!("\n  single vs double precision (4^4, 450 MHz):");
    for line in perf.render_precision_table().lines() {
        println!("    {line}");
    }
    println!();
    let mut big = DiracPerf::paper_bench();
    big.local_dims = [8, 8, 8, 8];
    row(
        "DDR-resident efficiency (8^4)",
        "~30 %",
        &format!("{:.1} %", 100.0 * big.evaluate(Action::Wilson).efficiency),
    );

    // §4 cost.
    let assembly = MachineAssembly::new(4096);
    let b = CostModel::default().breakdown(&assembly);
    row(
        "4096-node hardware total",
        &format!("${:.0}", columbia_4096::QUOTED_TOTAL),
        &format!("${:.0}", b.hardware_total()),
    );
    row(
        "all-in with prorated R&D",
        &format!("${:.0}", columbia_4096::QUOTED_TOTAL_WITH_RND),
        &format!("${:.0}", b.total()),
    );
    for (clock, paper) in PAPER_PRICE_PERF {
        let pp = PricePerformance {
            clock_mhz: clock,
            efficiency: 0.45,
            total_cost: b.total(),
            nodes: 4096,
        };
        row(
            &format!("price/performance @ {clock} MHz"),
            &format!("${paper:.2}/MF"),
            &format!("${:.3}/MF", pp.dollars_per_mflops()),
        );
    }
    let w = wiring(&catalog::by_name("columbia-4096").unwrap().shape);
    row(
        "mesh cables (4096 nodes)",
        "768",
        &format!("{} ({} faces x 3)", w.cables, w.faces),
    );

    // Hard scaling headline.
    let mut hs = DiracPerf::paper_bench();
    hs.logical_dims = [8, 8, 8, 16];
    hs.local_dims = [4, 4, 4, 4];
    let qe = hs.evaluate(Action::Wilson).efficiency;
    let ce = ClusterPerf::matching(&hs)
        .evaluate(Action::Wilson)
        .efficiency;
    row(
        "8192-node hard scaling (32^3x64)",
        "mesh >> cluster",
        &format!("{:.1} % vs {:.1} %", 100.0 * qe, 100.0 * ce),
    );

    // Abstract: "a 10 Teraflops computer" — the 12,288-node machine, not a
    // model this time: boot every node through the qdaemon, fold the 6-D
    // [8,8,6,4,4,2] torus to a logical [8,8,8,24], and run a bounded
    // Wilson-CG segment at one site per node on the sharded virtual-node
    // engine (real SCU link protocol on every one of the 49,152 mesh
    // wires): all 12,288 node programs multiplexed onto a few workers.
    let physical = TorusShape::new(&[8, 8, 6, 4, 4, 2]);
    let mut q = Qdaemon::new(physical.clone());
    let boot = q.boot(&[]);
    let id = q
        .allocate(PartitionSpec::whole_machine(
            &physical,
            &[&[0], &[1], &[3, 5], &[2, 4]],
        ))
        .expect("full-machine partition");
    let logical = q.partition(id).unwrap().logical_shape().clone();
    let global = Lattice::new([8, 8, 8, 24]);
    let gauge = GaugeField::hot(global, 11);
    let b = FermionField::gaussian(global, 12);
    let start = Instant::now();
    let outs = ShardedMachine::new(logical).run(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        let out = wilson_cg_segment_async(ctx, &geom, &lg, &lb, 0.11, 1e-12, 10_000, None, 2).await;
        (out.rsq, out.wedged)
    });
    let seconds = start.elapsed().as_secs_f64();
    q.release(id);
    let rsq_bits = outs[0].0.to_bits();
    assert!(outs.iter().all(|o| !o.1 && o.0.to_bits() == rsq_bits));
    row(
        "full-machine run (boot+partition+solve)",
        "12,288 nodes",
        &format!("{} booted, {:.0} s", boot.booted, seconds),
    );
    row(
        "machine-wide residual agreement",
        "exact bits",
        &format!("12,288/12,288 @ {:.3e}", outs[0].0),
    );

    println!("\nEvery row is pinned by tests/paper_numbers.rs; details in EXPERIMENTS.md.");
}
