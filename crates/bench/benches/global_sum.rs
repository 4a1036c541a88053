//! E5 — global operations (§2.2): hop counts `Nx+Ny+Nz+Nt−4` (halved in
//! doubled mode), the 8-bit pass-through advantage over store-and-forward,
//! and the functional dimension-ordered sum on the functional machine.

use criterion::{criterion_group, criterion_main, Criterion};
use qcdoc_asic::clock::Clock;
use qcdoc_core::comm::global_sum_f64_async;
use qcdoc_core::ShardedMachine;
use qcdoc_geometry::TorusShape;
use qcdoc_scu::global::{dimension_ordered_sum, dimension_sum_hops, GlobalTimingConfig};
use std::hint::black_box;

fn print_series() {
    let cfg = GlobalTimingConfig::default();
    let clock = Clock::DESIGN;
    eprintln!("\n=== E5: global sum latency vs machine size (4-D partitions) ===");
    eprintln!(
        "{:>16} {:>8} {:>8} {:>14} {:>14} {:>16}",
        "machine", "hops", "hops/2", "pass-thru (us)", "doubled (us)", "store-fwd (us)"
    );
    for dims in [
        [4usize, 4, 4, 2],
        [4, 4, 4, 8],
        [8, 8, 8, 8],
        [8, 8, 8, 16],
        [8, 8, 8, 24],
    ] {
        let single = dimension_sum_hops(&dims, false);
        let doubled = dimension_sum_hops(&dims, true);
        let t_pass = clock.cycles_to_ns(cfg.global_sum_cycles(&dims, false, true)) / 1000.0;
        let t_doub = clock.cycles_to_ns(cfg.global_sum_cycles(&dims, true, true)) / 1000.0;
        let t_sf = clock.cycles_to_ns(cfg.global_sum_cycles(&dims, false, false)) / 1000.0;
        eprintln!(
            "{:>16} {:>8} {:>8} {:>14.2} {:>14.2} {:>16.2}",
            format!("{}x{}x{}x{}", dims[0], dims[1], dims[2], dims[3]),
            single,
            doubled,
            t_pass,
            t_doub,
            t_sf
        );
    }
    eprintln!("(paper: hops = Nx+Ny+Nz+Nt-4, halved by the doubled SCU global mode)");
}

fn bench(c: &mut Criterion) {
    print_series();

    // Closed-form dimension-ordered sum over a 1024-node machine.
    let shape = TorusShape::new(&[8, 4, 4, 2, 2, 2]);
    let values: Vec<f64> = (0..shape.node_count()).map(|i| (i as f64).sin()).collect();
    c.bench_function("e5_closed_form_sum_1024", |b| {
        b.iter(|| black_box(dimension_ordered_sum(&shape, &values)))
    });

    // The real thing: functional machine, real link protocol.
    let mut group = c.benchmark_group("e5_functional_global_sum");
    group.sample_size(10);
    for dims in [vec![4usize], vec![2, 2, 2], vec![4, 2, 2]] {
        let label = dims
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x");
        group.bench_function(format!("machine_{label}"), |b| {
            let shape = TorusShape::new(&dims);
            b.iter(|| {
                let machine = ShardedMachine::new(shape.clone());
                let r = machine.run(async |ctx| global_sum_f64_async(ctx, ctx.id.0 as f64).await);
                black_box(r)
            })
        });
    }
    group.finish();

    c.bench_function("e5_hop_formula", |b| {
        b.iter(|| {
            for dims in [[8usize, 8, 8, 16], [4, 4, 4, 2]] {
                black_box(dimension_sum_hops(&dims, true));
                black_box(dimension_sum_hops(&dims, false));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
