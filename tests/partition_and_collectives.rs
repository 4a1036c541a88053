//! Experiments E5/E6 end to end: software remapping of the 6-D mesh and
//! collectives running on the remapped logical machines.

use qcdoc::core::comm::{barrier_async, broadcast_u64_async, global_sum_f64_async};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::{Partition, PartitionSpec, TorusShape};
use qcdoc::scu::global::{all_nodes_agree, dimension_ordered_sum};

/// Whole-machine grouping folding trailing axes into the last logical
/// dimension.
fn fold_to_rank(machine: &TorusShape, rank: usize) -> Partition {
    let keep = rank - 1;
    let mut groups: Vec<Vec<usize>> = (0..keep).map(|a| vec![a]).collect();
    groups.push((keep..machine.rank()).collect());
    Partition::new(
        machine,
        PartitionSpec {
            origin: qcdoc::geometry::NodeCoord::ORIGIN,
            extents: machine.dims().to_vec(),
            groups,
        },
    )
    .unwrap()
}

#[test]
fn every_remap_rank_has_unit_dilation() {
    // The rack (1024 nodes) and the bench machine, remapped to ranks 1..6.
    for machine in [
        TorusShape::rack_1024(),
        TorusShape::new(&[4, 4, 2, 2, 2, 1]),
    ] {
        for rank in 1..=machine.rank() {
            let p = fold_to_rank(&machine, rank);
            assert_eq!(p.node_count(), machine.node_count());
            assert_eq!(p.dilation(), 1, "machine {machine}, rank {rank}");
        }
    }
}

#[test]
fn global_sum_on_a_remapped_machine() {
    // Fold a physical 2x2x2x2 box to a logical 2x2x4 machine, then run the
    // functional global sum on the logical shape.
    let physical = TorusShape::new(&[2, 2, 2, 2]);
    let p = fold_to_rank(&physical, 3);
    let logical = p.logical_shape().clone();
    assert_eq!(logical.dims(), &[2, 2, 4]);
    let machine = ShardedMachine::new(logical.clone());
    let results =
        machine.run(async |ctx| global_sum_f64_async(ctx, (ctx.id.0 as f64 + 1.0).sqrt()).await);
    assert!(all_nodes_agree(&results));
    // Matches the closed-form algorithm bitwise.
    let values: Vec<f64> = (0..16).map(|i| (i as f64 + 1.0).sqrt()).collect();
    let expect = dimension_ordered_sum(&logical, &values);
    assert_eq!(results[0].to_bits(), expect[0].to_bits());
}

#[test]
fn collectives_on_each_logical_rank() {
    // Sum + broadcast + barrier must work on 1-D through 3-D logical
    // machines of the same 8 nodes.
    for dims in [vec![8usize], vec![4, 2], vec![2, 2, 2]] {
        let shape = TorusShape::new(&dims);
        let machine = ShardedMachine::new(shape);
        let results = machine.run(async |ctx| {
            barrier_async(ctx).await;
            let sum = global_sum_f64_async(ctx, ctx.id.0 as f64).await;
            let word = broadcast_u64_async(ctx, 0x5151, 3).await;
            (sum, word)
        });
        for (i, &(sum, word)) in results.iter().enumerate() {
            assert_eq!(sum, 28.0, "dims {dims:?} node {i}"); // 0+..+7
            assert_eq!(word, 0x5151, "dims {dims:?} node {i}");
        }
    }
}

#[test]
fn partition_interrupt_covers_a_folded_partition() {
    // §2.2: partition interrupts must reach every node of the partition.
    let machine = ShardedMachine::new(TorusShape::new(&[4, 2]));
    let results = machine.run(async |ctx| {
        if ctx.id.0 == 6 {
            ctx.raise_partition_irq(0b1);
        }
        // Interrupt packets queue ahead of data on every wire, and a
        // barrier cannot finish before node 6's contribution has crossed
        // the machine — so the flood has landed everywhere by then.
        barrier_async(ctx).await;
        ctx.partition_irq_state()
    });
    assert!(results.iter().all(|&s| s == 1), "{results:?}");
}
