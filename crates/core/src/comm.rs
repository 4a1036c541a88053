//! Node-side collectives built from link transfers — the software face of
//! the SCU's global operations (§2.2, §3.3).
//!
//! The global sum follows the hardware algorithm exactly: axis by axis,
//! every node launches its current value around the ring and accumulates
//! the `N−1` values it relays, then sums the ring's contributions in
//! ascending-coordinate order. Because that order is the same on every
//! node, all nodes finish with **bitwise identical** results — the
//! property the machine-wide reproducibility test of §4 rests on. The
//! functional result is checked against the closed-form
//! [`qcdoc_scu::global::dimension_ordered_sum`] in the tests.

use crate::functional::NodeCtx;
use qcdoc_geometry::Axis;
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_telemetry::Phase;

/// Comm scratch area: the top 64 kB of EDRAM are reserved for staging
/// buffers (the application owns the rest).
pub const COMM_SCRATCH_BASE: u64 = qcdoc_asic::memory::EDRAM_SIZE - 64 * 1024;

const GSUM_SEND: u64 = COMM_SCRATCH_BASE;
const GSUM_RECV: u64 = COMM_SCRATCH_BASE + 8;

/// Dimension-ordered global sum of one `f64` per node. Every node returns
/// the same bit pattern.
pub async fn global_sum_f64_async(ctx: &mut NodeCtx, value: f64) -> f64 {
    if !ctx.telem.is_enabled() {
        return global_sum_inner_async(ctx, value).await;
    }
    // The ring shifts inside the sum are comms on the wire, but the §4
    // decomposition charges them to the global-sum term: reclassify every
    // nested span while the sum runs.
    let token = ctx.telem.begin();
    let prev = ctx.telem.set_phase_override(Some(Phase::GlobalSum));
    let result = global_sum_inner_async(ctx, value).await;
    ctx.telem.set_phase_override(prev);
    let cycles = ctx
        .telem
        .end_with(token, "comm.global_sum", Phase::GlobalSum, 0);
    ctx.telem.counter_add("comm_global_sums", 1);
    ctx.telem.observe("comm_global_sum_cycles", cycles);
    result
}

async fn global_sum_inner_async(ctx: &mut NodeCtx, value: f64) -> f64 {
    let mut acc = value;
    let rank = ctx.shape.rank();
    for axis in 0..rank {
        let n = ctx.shape.extent(axis);
        if n <= 1 {
            continue;
        }
        let my_x = ctx.coord.get(axis);
        let mut ring = vec![0.0f64; n];
        ring[my_x] = acc;
        let mut carry = acc;
        for step in 1..n {
            ctx.mem.write_f64(GSUM_SEND, carry).unwrap();
            ctx.shift_async(
                Axis(axis as u8).plus(),
                DmaDescriptor::contiguous(GSUM_SEND, 1),
                DmaDescriptor::contiguous(GSUM_RECV, 1),
            )
            .await;
            carry = ctx.mem.read_f64(GSUM_RECV).unwrap();
            // The value arriving at step k originated k hops in the -axis
            // direction.
            ring[(my_x + n - step) % n] = carry;
        }
        // Canonical (node-independent) accumulation order.
        acc = 0.0;
        for &v in &ring {
            acc += v;
        }
    }
    acc
}

/// Broadcast one 64-bit word from `root` to every node: ring relays, axis
/// by axis, exactly the hardware's dimension-ordered flood. Non-holders
/// drive the zero word (the functional stand-in for idle bytes), so a
/// broadcast *of* zero is trivially correct and any non-zero word on the
/// wire is the root's.
///
/// # Panics
///
/// If `root` is not a rank of the machine: no node would hold the word and
/// every node would silently return zero.
pub async fn broadcast_u64_async(ctx: &mut NodeCtx, root_value: u64, root: u32) -> u64 {
    let nodes = ctx.shape.node_count();
    assert!(
        (root as usize) < nodes,
        "broadcast root {root} is not a rank of this {nodes}-node machine"
    );
    let mut value = if ctx.id.0 == root { root_value } else { 0 };
    for axis in 0..ctx.shape.rank() {
        let n = ctx.shape.extent(axis);
        if n <= 1 {
            continue;
        }
        let mut carry = value;
        for _ in 1..n {
            ctx.mem.write_word(GSUM_SEND, carry).unwrap();
            ctx.shift_async(
                Axis(axis as u8).plus(),
                DmaDescriptor::contiguous(GSUM_SEND, 1),
                DmaDescriptor::contiguous(GSUM_RECV, 1),
            )
            .await;
            carry = ctx.mem.read_word(GSUM_RECV).unwrap();
            if carry != 0 {
                value = carry;
            }
        }
    }
    value
}

/// Barrier: a throwaway global sum (every node must contribute before any
/// node can finish).
pub async fn barrier_async(ctx: &mut NodeCtx) {
    let _ = global_sum_f64_async(ctx, 0.0).await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedMachine;
    use qcdoc_geometry::TorusShape;
    use qcdoc_scu::global::{all_nodes_agree, dimension_ordered_sum};

    #[test]
    fn global_sum_matches_closed_form_bitwise_at_any_worker_count() {
        // Awkward (rounding-sensitive) values: every node of every run
        // must produce the same bits, and they must equal the closed form.
        let shape = TorusShape::new(&[4, 2, 2]);
        let value = |i: usize| 1.0e15 / (i as f64 + 1.0) + 1e-3 * i as f64;
        let values: Vec<f64> = (0..16).map(value).collect();
        let expected = dimension_ordered_sum(&shape, &values);
        let (results, _) = ShardedMachine::new(shape).run_worker_sweep(async |ctx| {
            global_sum_f64_async(ctx, value(ctx.id.0 as usize)).await
        });
        assert!(all_nodes_agree(&results), "nodes disagree: {results:?}");
        for (got, want) in results.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "functional vs closed form");
        }
    }

    #[test]
    fn global_sum_is_the_true_sum_for_exact_values() {
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2, 2]));
        let results =
            machine.run(async |ctx| global_sum_f64_async(ctx, ctx.id.0 as f64 + 1.0).await);
        // 1 + 2 + ... + 8 = 36 exactly.
        assert!(results.iter().all(|&r| r == 36.0), "{results:?}");
    }

    #[test]
    fn global_sum_on_ring() {
        let machine = ShardedMachine::new(TorusShape::new(&[8]));
        let results =
            machine.run(async |ctx| global_sum_f64_async(ctx, 2.0f64.powi(ctx.id.0 as i32)).await);
        assert!(results.iter().all(|&r| r == 255.0), "{results:?}");
    }

    #[test]
    fn broadcast_reaches_every_node() {
        let machine = ShardedMachine::new(TorusShape::new(&[4, 2])).with_workers(2);
        let results = machine.run(async |ctx| {
            barrier_async(ctx).await;
            broadcast_u64_async(ctx, 0xABCD_EF01, 5).await
        });
        assert!(
            results.iter().all(|&r| r == 0xABCD_EF01),
            "broadcast failed: {results:x?}"
        );
    }

    #[test]
    #[should_panic(expected = "broadcast root 8 is not a rank of this 8-node machine")]
    fn broadcast_from_an_out_of_range_root_panics() {
        let machine = ShardedMachine::new(TorusShape::new(&[4, 2]));
        machine.run(async |ctx| broadcast_u64_async(ctx, 0xABCD_EF01, 8).await);
    }
}
