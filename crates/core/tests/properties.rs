//! Property-based tests of the functional machine: arbitrary transfers
//! with arbitrary fault plans must deliver exactly-once in-order, and
//! collectives must be decomposition- and fault-independent.

use proptest::prelude::*;
use qcdoc_core::comm::global_sum_f64_async;
use qcdoc_core::functional::{FaultEvent, FaultPlan};
use qcdoc_core::ShardedMachine;
use qcdoc_geometry::{Axis, TorusShape};
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_scu::global::dimension_ordered_sum;

fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![2usize]),
        Just(vec![4usize]),
        Just(vec![2usize, 2]),
        Just(vec![4usize, 2]),
        Just(vec![2usize, 2, 2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ring_shift_delivers_under_faults(
        dims in small_shape(),
        words in 1u32..24,
        faults in prop::collection::vec((0u32..8, 0u64..20, 0usize..70), 0..4),
    ) {
        let shape = TorusShape::new(&dims);
        let n = shape.node_count() as u32;
        let mut plan = FaultPlan::new(0);
        for &(node, seq, bit) in &faults {
            // Link 0 is the axis-0 plus direction.
            plan = plan.with_event(FaultEvent::bit_flip(node % n, 0, seq, bit));
        }
        let machine = ShardedMachine::new(shape.clone()).with_faults(plan);
        let w = words;
        let results = machine.run(async move |ctx| {
            for i in 0..w as u64 {
                ctx.mem.write_word(0x100 + i * 8, ctx.id.0 as u64 * 1_000 + i).unwrap();
            }
            ctx.shift_async(
                Axis(0).plus(),
                DmaDescriptor::contiguous(0x100, w),
                DmaDescriptor::contiguous(0x4000, w),
            )
            .await;
            ctx.mem.read_block(0x4000, w as usize).unwrap()
        });
        // Every node must hold its -x neighbour's payload, intact.
        for (rank, got) in results.iter().enumerate() {
            let c = shape.coord_of(qcdoc_geometry::NodeId(rank as u32));
            let from = shape.rank_of(shape.neighbour(c, Axis(0).minus())).0 as u64;
            let want: Vec<u64> = (0..words as u64).map(|i| from * 1_000 + i).collect();
            prop_assert_eq!(got, &want, "node {}", rank);
        }
    }

    #[test]
    fn same_seed_gives_identical_payloads_and_ledger(
        seed in 0u64..1_000,
        words in 1u32..16,
    ) {
        // A sustained error rate drawn from `seed`: two runs must agree on
        // every payload bit and on the health-ledger fingerprint, and a
        // fault-free run must agree on the payloads (recoverable faults
        // are invisible to the application).
        let shape = TorusShape::new(&[4]);
        let plan = FaultPlan::new(seed).with_event(FaultEvent::bit_error_rate(1, 0, 0.05));
        let run = |p: FaultPlan| {
            let machine = ShardedMachine::new(shape.clone()).with_faults(p);
            let w = words;
            machine.run_with_health(async move |ctx| {
                for i in 0..w as u64 {
                    ctx.mem.write_word(0x100 + i * 8, ctx.id.0 as u64 * 777 + i).unwrap();
                }
                ctx.shift_async(
                    Axis(0).plus(),
                    DmaDescriptor::contiguous(0x100, w),
                    DmaDescriptor::contiguous(0x4000, w),
                )
                .await;
                ctx.mem.read_block(0x4000, w as usize).unwrap()
            })
        };
        let (pa, la) = run(plan.clone());
        let (pb, lb) = run(plan);
        let (clean, _) = run(FaultPlan::default());
        prop_assert_eq!(&pa, &pb, "same seed, same payloads");
        prop_assert_eq!(la.fingerprint(), lb.fingerprint(), "same seed, same ledger");
        prop_assert_eq!(&pa, &clean, "recoverable faults must not change payloads");
        prop_assert!(la.all_checksums_ok());
    }

    #[test]
    fn global_sum_matches_closed_form_for_any_values(
        dims in small_shape(),
        seed in 0u64..1_000,
    ) {
        let shape = TorusShape::new(&dims);
        let n = shape.node_count();
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let x = (seed.wrapping_mul(31).wrapping_add(i as u64)) as f64;
                (x * 0.618).sin() * 1.0e12 + x
            })
            .collect();
        let expect = dimension_ordered_sum(&shape, &values);
        let machine = ShardedMachine::new(shape);
        let vals = values.clone();
        let results = machine.run(async move |ctx| global_sum_f64_async(ctx, vals[ctx.id.index()]).await);
        for (got, want) in results.iter().zip(&expect) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn checksums_pair_up_on_every_axis(dims in small_shape(), words in 1u32..12) {
        let shape = TorusShape::new(&dims);
        let rank = shape.rank();
        let machine = ShardedMachine::new(shape.clone());
        let w = words;
        let results = machine.run(async move |ctx| {
            let mut sums = Vec::new();
            for a in 0..rank {
                for i in 0..w as u64 {
                    ctx.mem
                        .write_word(0x100 + i * 8, ctx.id.0 as u64 ^ (i << 8) ^ (a as u64) << 32)
                        .unwrap();
                }
                ctx.shift_async(
                    Axis(a as u8).plus(),
                    DmaDescriptor::contiguous(0x100, w),
                    DmaDescriptor::contiguous(0x6000, w),
                )
                .await;
                sums.push((
                    ctx.send_checksum(Axis(a as u8).plus()),
                    ctx.recv_checksum(Axis(a as u8).minus()),
                ));
            }
            sums
        });
        // For each axis, my send checksum equals my +axis neighbour's
        // receive checksum.
        for (rank_i, sums) in results.iter().enumerate() {
            let c = shape.coord_of(qcdoc_geometry::NodeId(rank_i as u32));
            for (a, &(send, _)) in sums.iter().enumerate() {
                let nb = shape.rank_of(shape.neighbour(c, Axis(a as u8).plus()));
                let (_, nb_recv) = results[nb.index()][a];
                prop_assert_eq!(send, nb_recv, "axis {} from node {}", a, rank_i);
            }
        }
    }
}
