//! Overhead of the fault-injection machinery itself.
//!
//! The injection hooks sit on every simulated wire, so they must be cheap
//! when idle: an empty plan's tap is a couple of table lookups per frame.
//! These benches price (a) the per-frame tap with and without scheduled
//! faults, (b) the per-iteration keyed Poisson draw the timing engine
//! uses, and (c) a whole functional-machine shift clean versus faulted.
//! The smoke check exports the idle-tap cost plus the fully deterministic
//! DES cycle counts to `BENCH_fault.json` for the judge.

use criterion::{black_box, criterion_group, Criterion};
use qcdoc_bench::{min_seconds, BenchRun};
use qcdoc_core::des::{run_with_faults, DesConfig};
use qcdoc_core::ShardedMachine;
use qcdoc_fault::{FaultClock, FaultEvent, FaultPlan, NodeTap};
use qcdoc_geometry::{Axis, TorusShape};
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_scu::link::{WireFrame, WireTap};
use qcdoc_scu::packet::{Frame, Packet};
use std::sync::Arc;

/// An empty plan and a 1 % bit-error rate on node 3's link 0, compiled for
/// a 16-node `[2, 2, 2, 2]` machine.
fn tap_clocks() -> [Arc<FaultClock>; 2] {
    let shape = TorusShape::new(&[2, 2, 2, 2]);
    [
        FaultPlan::new(0),
        FaultPlan::new(7).with_event(FaultEvent::bit_error_rate(3, 0, 0.01)),
    ]
    .map(|plan| Arc::new(FaultClock::resolve(&plan, &shape).expect("the plan fits")))
}

fn tap_per_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead");
    group.sample_size(20);
    let [empty, noisy] = tap_clocks();
    for (label, clock) in [
        ("tap_1k_frames_empty_plan", empty),
        ("tap_1k_frames_ber_plan", noisy),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut tap = NodeTap::new(Arc::clone(&clock), 3);
                for seq in 0..1_000u64 {
                    let mut wf = WireFrame {
                        seq,
                        frame: Frame::encode(Packet::Normal(seq)),
                    };
                    black_box(tap.on_frame(0, &mut wf));
                }
                tap.injected()[0]
            })
        });
    }
    group.finish();
}

fn des_draws(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead");
    group.sample_size(20);
    let cfg = DesConfig::homogeneous([2, 2, 2, 2], 800_000, 1_536, 3_000);
    let clean = FaultPlan::new(1);
    let faulty = FaultPlan::new(1).with_event(FaultEvent::bit_error_rate(5, 0, 0.001));
    group.bench_function("des_16n_20it_clean", |b| {
        b.iter(|| run_with_faults(black_box(&cfg), 20, &clean).0.total_cycles)
    });
    group.bench_function("des_16n_20it_ber", |b| {
        b.iter(|| run_with_faults(black_box(&cfg), 20, &faulty).0.total_cycles)
    });
    group.finish();
}

fn functional_shift(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead");
    group.sample_size(10);
    let shift = |plan: FaultPlan| {
        let machine = ShardedMachine::new(TorusShape::new(&[4])).with_faults(plan);
        machine.run(async |ctx| {
            for i in 0..64u64 {
                ctx.mem
                    .write_word(0x100 + i * 8, ctx.id.0 as u64 + i)
                    .unwrap();
            }
            ctx.shift_async(
                Axis(0).plus(),
                DmaDescriptor::contiguous(0x100, 64),
                DmaDescriptor::contiguous(0x4000, 64),
            )
            .await;
            ctx.mem.read_word(0x4000).unwrap()
        })
    };
    group.bench_function("functional_ring4_shift64_clean", |b| {
        b.iter(|| shift(FaultPlan::new(0)))
    });
    group.bench_function("functional_ring4_shift64_bitflip", |b| {
        b.iter(|| shift(FaultPlan::new(0).with_event(FaultEvent::bit_flip(1, 0, 9, 33))))
    });
    group.finish();
}

/// Run `frames` frames through a tap built on `clock`; returns the
/// injected-fault count on link 0.
fn tap_run(clock: &Arc<FaultClock>, frames: u64) -> u64 {
    let mut tap = NodeTap::new(Arc::clone(clock), 3);
    for seq in 0..frames {
        let mut wf = WireFrame {
            seq,
            frame: Frame::encode(Packet::Normal(seq)),
        };
        black_box(tap.on_frame(0, &mut wf));
    }
    tap.injected()[0]
}

/// Export the idle-tap price and the deterministic DES cycle counts.
/// The cycle counts are logical — identical on every host — so the
/// judge gates them at 1%: any drift is a real model change.
fn smoke_check() {
    let [empty, noisy] = tap_clocks();
    black_box(tap_run(&empty, 1_000));
    let empty_s = min_seconds(
        || {
            black_box(tap_run(&empty, 10_000));
        },
        7,
    );
    let noisy_s = min_seconds(
        || {
            black_box(tap_run(&noisy, 10_000));
        },
        7,
    );
    let tap_ratio = noisy_s / empty_s;
    println!(
        "fault_overhead: idle tap {:.1} ns/frame, ber-plan ratio {tap_ratio:.4}",
        empty_s / 10_000.0 * 1e9,
    );

    let cfg = DesConfig::homogeneous([2, 2, 2, 2], 800_000, 1_536, 3_000);
    let clean_cycles = run_with_faults(&cfg, 20, &FaultPlan::new(1)).0.total_cycles;
    let ber_plan = FaultPlan::new(1).with_event(FaultEvent::bit_error_rate(5, 0, 0.001));
    let ber_cycles = run_with_faults(&cfg, 20, &ber_plan).0.total_cycles;
    println!("fault_overhead: DES 16n/20it cycles clean {clean_cycles}, ber {ber_cycles}");

    let mut run = BenchRun::new("fault");
    run.gauge("fault_tap_empty_ns_per_frame", empty_s / 10_000.0 * 1e9);
    run.gauge("fault_tap_ber_ratio", tap_ratio);
    run.gauge("fault_des_clean_total_cycles", clean_cycles as f64);
    run.gauge("fault_des_ber_total_cycles", ber_cycles as f64);
    run.export();
}

criterion_group!(benches, tap_per_frame, des_draws, functional_shift);

fn main() {
    smoke_check();
    benches();
}
