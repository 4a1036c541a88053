//! Node-side collectives built from link transfers — the software face of
//! the SCU's global operations (§2.2, §3.3).
//!
//! The collectives run the hardware's *doubled* mode: axis by axis, every
//! node launches its current value both ways round the ring at once — one
//! copy toward +axis, one toward −axis, on disjoint links — so a ring of
//! `N` nodes is covered in `⌊(N−1)/2⌋` two-way steps plus one one-way step
//! when `N` is even. That is exactly
//! [`dimension_sum_hops(&[N], true)`](qcdoc_scu::global::dimension_sum_hops)
//! rounds per axis (16 on `[8,8,8,8]`, where a one-way walk takes 28).
//! Every relayed value lands in the ring slot of the node it came from,
//! and the slots are summed in ascending-coordinate order. Because that
//! order is the same on every node, all nodes finish with **bitwise
//! identical** results — the property the machine-wide reproducibility
//! test of §4 rests on. The functional result is checked against the
//! closed-form [`qcdoc_scu::global::dimension_ordered_sum`] in the tests.

use crate::functional::NodeCtx;
use qcdoc_geometry::Axis;
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_telemetry::Phase;

/// Top of the comm scratch, which grows down from here: first the four
/// ring-step words, then, directly below them, the face staging of
/// [`crate::distributed`]. Packed together, a node whose faces are small
/// (a one-site block: 196 words) keeps its whole comm footprint in one
/// 4 kB EDRAM page. The application owns the memory below the staging.
pub(crate) const COMM_SCRATCH_TOP: u64 = qcdoc_asic::memory::EDRAM_SIZE - 64 * 1024;

/// Ring-step staging words: what leaves toward ±axis, and what arrives
/// from the −axis and +axis neighbours. The face staging ends here.
pub(crate) const RING_SEND_PLUS: u64 = COMM_SCRATCH_TOP - 32;
const RING_SEND_MINUS: u64 = RING_SEND_PLUS + 8;
const RING_FROM_MINUS: u64 = RING_SEND_PLUS + 16;
const RING_FROM_PLUS: u64 = RING_SEND_PLUS + 24;

/// Dimension-ordered global sum of one `f64` per node. Every node returns
/// the same bit pattern.
pub async fn global_sum_f64_async(ctx: &mut NodeCtx, value: f64) -> f64 {
    if !ctx.telem.is_enabled() {
        return global_sum_inner_async(ctx, value).await;
    }
    // The ring steps inside the sum are comms on the wire, but the §4
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
    // One ring buffer per sum, sized for the longest axis; each axis uses
    // its first `n` slots, and the relay fills every one of them.
    let longest = (0..ctx.shape.rank()).map(|a| ctx.shape.extent(a)).max();
    let mut ring = vec![0.0f64; longest.filter(|&n| n > 1).unwrap_or(0)];
    for axis in 0..ctx.shape.rank() {
        let n = ctx.shape.extent(axis);
        if n <= 1 {
            continue;
        }
        let ring = &mut ring[..n];
        ring[ctx.coord.get(axis)] = acc;
        ring_relay_async(ctx, axis, acc.to_bits(), |x, word| {
            ring[x] = f64::from_bits(word);
        })
        .await;
        // Canonical (node-independent) accumulation order.
        acc = 0.0;
        for &v in ring.iter() {
            acc += v;
        }
    }
    acc
}

/// Relay `own` round the ring along `axis` in doubled mode and hand every
/// word that arrives to `deliver`, with the ring coordinate of the node it
/// came from. Step `k` receives the words that originated `k` hops away:
/// from the −axis neighbour (travelling +axis) and, while `2k < N`, from
/// the +axis neighbour (travelling −axis). For even `N` the last step is
/// one-way: the antipode is `N/2` hops away in both directions. One
/// [`NodeCtx::complete_async`] per step, so the wait loop — and with it
/// the telemetry clock — sees exactly `dimension_sum_hops(&[N], true)`
/// rounds.
async fn ring_relay_async(
    ctx: &mut NodeCtx,
    axis: usize,
    own: u64,
    mut deliver: impl FnMut(usize, u64),
) {
    let n = ctx.shape.extent(axis);
    let x = ctx.coord.get(axis);
    let (plus, minus) = (Axis(axis as u8).plus(), Axis(axis as u8).minus());
    let word = |addr| DmaDescriptor::contiguous(addr, 1);
    const MAPPED: &str = "ring staging words are aligned EDRAM";
    let (mut up, mut down) = (own, own);
    for k in 1..=n / 2 {
        let two_way = 2 * k < n;
        ctx.mem.write_word(RING_SEND_PLUS, up).expect(MAPPED);
        ctx.start_recv(minus, word(RING_FROM_MINUS));
        ctx.start_send(plus, word(RING_SEND_PLUS));
        if two_way {
            ctx.mem.write_word(RING_SEND_MINUS, down).expect(MAPPED);
            ctx.start_recv(plus, word(RING_FROM_PLUS));
            ctx.start_send(minus, word(RING_SEND_MINUS));
            ctx.complete_async(&[plus, minus], &[minus, plus]).await;
        } else {
            ctx.complete_async(&[plus], &[minus]).await;
        }
        up = ctx.mem.read_word(RING_FROM_MINUS).expect(MAPPED);
        deliver((x + n - k) % n, up);
        if two_way {
            down = ctx.mem.read_word(RING_FROM_PLUS).expect(MAPPED);
            deliver((x + k) % n, down);
        }
    }
}

/// Broadcast one 64-bit word from `root` to every node: doubled ring
/// relays, axis by axis, exactly the hardware's dimension-ordered flood
/// (the same steps as [`global_sum_f64_async`]). Non-holders
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
        let mut held = value;
        ring_relay_async(ctx, axis, value, |_, word| {
            if word != 0 {
                held = word;
            }
        })
        .await;
        value = held;
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
    use crate::functional::TelemetryConfig;
    use crate::ShardedMachine;
    use qcdoc_geometry::TorusShape;
    use qcdoc_scu::global::{all_nodes_agree, dimension_ordered_sum, dimension_sum_hops};
    use qcdoc_scu::timing::transfer_cycles;

    /// Shapes with even, odd and unit extents (1, 2, 3, 5, 6, 8).
    const SHAPES: [&[usize]; 5] = [&[4, 2, 2], &[8, 4, 2], &[3, 5], &[2, 1, 6], &[8]];

    #[test]
    fn global_sum_matches_closed_form_bitwise_at_any_worker_count() {
        // Awkward (rounding-sensitive) values: every node of every run
        // must produce the same bits, and they must equal the closed form.
        let value = |i: usize| 1.0e15 / (i as f64 + 1.0) + 1e-3 * i as f64;
        for dims in SHAPES {
            let shape = TorusShape::new(dims);
            let values: Vec<f64> = (0..shape.node_count()).map(value).collect();
            let expected = dimension_ordered_sum(&shape, &values);
            let (results, _) = ShardedMachine::new(shape).run_worker_sweep(async |ctx| {
                global_sum_f64_async(ctx, value(ctx.id.0 as usize)).await
            });
            assert!(all_nodes_agree(&results), "{dims:?}: nodes disagree");
            for (got, want) in results.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits(), "{dims:?}: vs closed form");
            }
        }
    }

    #[test]
    fn global_sum_runs_the_doubled_hop_count() {
        // Each ring step is one single-word completion, so the telemetry
        // clock charges one `transfer_cycles(1)` per round: the machine's
        // own clock counts the rounds the sum ran.
        let per_round = transfer_cycles(1).count();
        for dims in &SHAPES[1..] {
            let shape = TorusShape::new(dims);
            let machine =
                ShardedMachine::new(shape.clone()).with_telemetry(TelemetryConfig::default());
            let (_, _, telemetry) =
                machine.run_with_telemetry(async |ctx| global_sum_f64_async(ctx, 1.0).await);
            let want = dimension_sum_hops(dims, true) as u64 * per_round;
            for node in 0..shape.node_count() {
                let h = telemetry
                    .metrics
                    .histogram("comm_global_sum_cycles", &[("node", node.to_string())])
                    .expect("one observation per node");
                assert_eq!((h.count(), h.sum()), (1, want), "{dims:?} node {node}");
            }
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
        // Every root of an odd-by-even machine: the flood must cover both
        // the two-way steps and the even ring's one-way antipode step.
        let machine = ShardedMachine::new(TorusShape::new(&[3, 4])).with_workers(2);
        let results = machine.run(async |ctx| {
            barrier_async(ctx).await;
            let mut got = Vec::new();
            for root in 0..12u32 {
                got.push(broadcast_u64_async(ctx, 0xABCD_EF00 + root as u64, root).await);
            }
            got
        });
        let want: Vec<u64> = (0..12).map(|root| 0xABCD_EF00 + root).collect();
        assert!(
            results.iter().all(|r| *r == want),
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
