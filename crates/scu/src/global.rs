//! Global sums and broadcasts: the SCU's pass-through global mode.
//!
//! §2.2 "Global operations": in global mode the SCU routes incoming link
//! data straight out to any combination of the other 11 links (and to local
//! memory), forwarding after only **8 bits** have arrived instead of
//! assembling the full 64-bit word — cutting per-hop latency by almost an
//! order of magnitude relative to store-and-forward. The global
//! functionality is **doubled**: two disjoint link sets can run concurrent
//! global operations, which lets a sum travel both ways round each ring and
//! halves the hop count, "effectively halving the size of the machine".
//!
//! A 4-D global sum is dimension-ordered: every node sends its word around
//! the x ring and accumulates the `Nx − 1` words it receives; then the same
//! along y, z, t. Total hops `Nx+Ny+Nz+Nt−4`, or `Nx/2+Ny/2+Nz/2+Nt/2` in
//! doubled mode — both formulas straight from the paper.
//!
//! [`dimension_ordered_sum`] is the *functional* algorithm with a fixed,
//! node-independent accumulation order, so every node computes bitwise the
//! same result — the property behind the machine-wide bit-reproducibility
//! of §4.
//!
//! This module holds the timing formulas and that closed form. The node
//! programs' doubled ring, which runs [`dimension_sum_hops`]`(dims, true)`
//! link rounds over the real SCU protocol, is `qcdoc_core::comm`.

use qcdoc_asic::clock::Cycles;
use qcdoc_geometry::TorusShape;

/// Hop count of a dimension-ordered global sum or broadcast over a logical
/// torus with the given extents.
///
/// Single mode: `Σ (N_i − 1)`. Doubled mode (two disjoint global link
/// sets, words travelling both ways round each ring): `Σ ⌈N_i / 2⌉`,
/// clamped below the single-mode count for tiny extents.
pub fn dimension_sum_hops(dims: &[usize], doubled: bool) -> usize {
    if doubled {
        dims.iter().map(|&n| (n / 2).max(usize::from(n > 1))).sum()
    } else {
        dims.iter().map(|&n| n - 1).sum()
    }
}

/// SCU pipeline cycles each hop adds on top of its forwarding granularity.
/// A model choice: §2.2 gives no per-hop figure beyond the 8-bit
/// pass-through.
const HOP_PIPELINE_CYCLES: u64 = 4;

/// Bits that must arrive before a pass-through hop forwards: "after only 8
/// bits have arrived" (§2.2).
const PASSTHROUGH_BITS: u64 = 8;

/// Per-hop latency: pass-through forwards after 8 bits; store-and-forward
/// (the ablation case the paper argues against) assembles the whole 72-bit
/// frame first.
fn hop_cycles(passthrough: bool) -> u64 {
    let granularity = if passthrough {
        PASSTHROUGH_BITS
    } else {
        crate::timing::WORD_WIRE_BITS
    };
    granularity + HOP_PIPELINE_CYCLES
}

/// Latency of a global operation spanning `hops` hops: the leading edge
/// pays the per-hop latency at each hop, and the tail of the 72-bit frame
/// drains behind it at the serial rate.
fn operation_cycles(hops: usize, passthrough: bool) -> Cycles {
    let tail = if passthrough {
        crate::timing::WORD_WIRE_BITS - PASSTHROUGH_BITS
    } else {
        0
    };
    Cycles(hops as u64 * hop_cycles(passthrough) + tail)
}

/// Latency of a dimension-ordered global sum over `dims`, with the two
/// global link sets (`doubled`) and the 8-bit pass-through (`passthrough`)
/// each on or off — the ASIC runs both; the other three are §2.2's
/// ablations.
pub fn global_sum_cycles(dims: &[usize], doubled: bool, passthrough: bool) -> Cycles {
    // Each axis is a separate pass: leading-edge latency per axis.
    let mut total = Cycles::ZERO;
    for &n in dims {
        let hops = dimension_sum_hops(&[n], doubled);
        total += operation_cycles(hops, passthrough);
    }
    total
}

/// The dimension-ordered global sum as the hardware performs it, with the
/// canonical accumulation order (ascending coordinate along each axis).
///
/// `values[rank]` is node `rank`'s contribution. Returns the per-node
/// results, which are bitwise identical across nodes — see
/// [`all_nodes_agree`].
pub fn dimension_ordered_sum(shape: &TorusShape, values: &[f64]) -> Vec<f64> {
    assert_eq!(
        values.len(),
        shape.node_count(),
        "one contribution per node"
    );
    let mut current = values.to_vec();
    for axis in 0..shape.rank() {
        let mut next = vec![0.0f64; current.len()];
        for c in shape.coords() {
            // Accumulate over the whole ring through `c` along `axis`, in
            // ascending-coordinate order — the same order on every node of
            // the ring, which is what makes the result node-independent.
            let mut acc = 0.0f64;
            let mut probe = c;
            for x in 0..shape.extent(axis) {
                probe.set(axis, x);
                acc += current[shape.rank_of(probe).index()];
            }
            next[shape.rank_of(c).index()] = acc;
        }
        current = next;
    }
    current
}

/// Whether all per-node results of a global operation agree bitwise.
pub fn all_nodes_agree(results: &[f64]) -> bool {
    results.windows(2).all(|w| w[0].to_bits() == w[1].to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hop_formulas() {
        // 4-D machine Nx=Ny=Nz=8, Nt=16: single mode Nx+Ny+Nz+Nt-4 = 36.
        assert_eq!(dimension_sum_hops(&[8, 8, 8, 16], false), 36);
        // Doubled mode: Nx/2+Ny/2+Nz/2+Nt/2 = 20.
        assert_eq!(dimension_sum_hops(&[8, 8, 8, 16], true), 20);
    }

    #[test]
    fn doubled_mode_halves_hops_for_even_extents() {
        for dims in [vec![4usize, 4, 4, 4], vec![8, 4, 4, 2, 2, 2]] {
            let single = dimension_sum_hops(&dims, false);
            let doubled = dimension_sum_hops(&dims, true);
            assert!(doubled < single);
            let expect: usize = dims.iter().map(|&n| n / 2).sum();
            assert_eq!(doubled, expect);
        }
    }

    #[test]
    fn passthrough_beats_store_and_forward() {
        assert!(hop_cycles(true) < hop_cycles(false));
        let hops = 36;
        let fast = operation_cycles(hops, true);
        let slow = operation_cycles(hops, false);
        assert!(
            fast.count() * 4 < slow.count(),
            "pass-through {fast} vs store-and-forward {slow}"
        );
    }

    #[test]
    fn sum_equals_total_on_every_node() {
        let shape = TorusShape::new(&[4, 2, 2]);
        let values: Vec<f64> = (0..16).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let result = dimension_ordered_sum(&shape, &values);
        let expect: f64 = values.iter().sum();
        // Dimension-ordered association may differ from linear summation
        // for general floats; for these values both are exact.
        for (i, &r) in result.iter().enumerate() {
            assert_eq!(r, expect, "node {i}");
        }
        assert!(all_nodes_agree(&result));
    }

    #[test]
    fn sum_is_bitwise_identical_across_nodes_for_rough_floats() {
        // Values chosen so rounding *does* occur: agreement must still be
        // bitwise because every node accumulates in the same order.
        let shape = TorusShape::new(&[4, 4]);
        let values: Vec<f64> = (0..16)
            .map(|i| 1.0e16 / (i as f64 + 1.0) + 1.0e-3 * i as f64)
            .collect();
        let result = dimension_ordered_sum(&shape, &values);
        assert!(all_nodes_agree(&result), "nodes disagree bitwise");
    }

    #[test]
    fn sum_is_deterministic_across_runs() {
        let shape = TorusShape::new(&[2, 4, 2]);
        let values: Vec<f64> = (0..16).map(|i| (i as f64).sin() * 1e10).collect();
        let a = dimension_ordered_sum(&shape, &values);
        let b = dimension_ordered_sum(&shape, &values);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn global_sum_latency_scales_with_machine_size() {
        let small = global_sum_cycles(&[4, 4, 4, 4], true, true);
        let big = global_sum_cycles(&[8, 8, 8, 16], true, true);
        assert!(big > small);
    }
}
