//! Heap allocations that do not grow with the work done:
//! - the per-word path — `NodeCtx::progress` → wire → `Scu::rx` — allocates
//!   nothing: a transfer eight times longer costs the same number of heap
//!   allocations;
//! - a distributed CG iteration allocates no block and no face: a segment
//!   of nine iterations makes as many allocations of at least 768 B as one
//!   of three.
//!
//! One test only, because the counters are process-wide.

use qcdoc_core::distributed::{wilson_cg_segment_async, BlockGeom};
use qcdoc_core::ShardedMachine;
use qcdoc_geometry::{Axis, TorusShape};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_scu::dma::DmaDescriptor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least [`LARGE_BYTES`].
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// One face of a 2⁴ block: 8 sites of 96-byte half-spinors, so every
/// face copy and every block counts.
const LARGE_BYTES: usize = 768;

/// The system allocator, counting every allocation and, apart, the large
/// ones (a `realloc` reaches `alloc` through the trait's default
/// implementation).
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE_BYTES {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LONG: u32 = 2_048;
const SEND_BUF: u64 = 0x0;
const RECV_BUF: u64 = 0x8000;

/// Heap allocations made by a whole 2-node run that shifts `words` words
/// one hop. Both buffers are written at the long transfer's size first, so
/// the lazily allocated node memory costs every run the same. One worker:
/// the poll order, and with it every queue's depth, is then fixed.
fn allocations_of_a_shift(words: u32) -> u64 {
    let machine = ShardedMachine::new(TorusShape::new(&[2])).with_workers(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let last_words = machine.run(async |ctx| {
        for i in 0..LONG as u64 {
            let tagged = (ctx.id.0 as u64) << 32 | i;
            ctx.mem.write_word(SEND_BUF + i * 8, tagged).unwrap();
            ctx.mem.write_word(RECV_BUF + i * 8, 0).unwrap();
        }
        ctx.shift_async(
            Axis(0).plus(),
            DmaDescriptor::contiguous(SEND_BUF, words),
            DmaDescriptor::contiguous(RECV_BUF, words),
        )
        .await;
        ctx.mem
            .read_word(RECV_BUF + (words as u64 - 1) * 8)
            .unwrap()
    });
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let last = words as u64 - 1;
    assert_eq!(last_words, vec![1 << 32 | last, last], "{words} words");
    allocations
}

/// Allocations of at least [`LARGE_BYTES`] made by a whole one-worker run
/// of a fresh `wilson_cg_segment_async` of exactly `iterations` iterations
/// (the tolerance is one no iteration reaches).
fn large_allocations_of_a_cg_segment(dims: &[usize], global: [usize; 4], iterations: usize) -> u64 {
    let global = Lattice::new(global);
    let gauge = GaugeField::hot(global, 5);
    let b = FermionField::gaussian(global, 6);
    let machine = ShardedMachine::new(TorusShape::new(dims)).with_workers(1);
    let before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    let done = machine.run(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&gauge);
        let lb = geom.extract_fermion(&b);
        let out =
            wilson_cg_segment_async(ctx, &geom, &lg, &lb, 0.12, 1e-30, 100, None, iterations).await;
        out.iterations
    });
    let large = LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(done.iter().all(|&i| i == iterations), "{dims:?}: {done:?}");
    large
}

#[test]
fn a_longer_transfer_allocates_no_more() {
    let short = allocations_of_a_shift(256);
    let long = allocations_of_a_shift(LONG);
    assert_eq!(
        short, long,
        "256 words took {short} allocations, {LONG} words took {long}"
    );

    for (dims, global) in [(&[2, 2, 2, 2][..], [4, 4, 4, 4]), (&[2, 2], [4, 4, 2, 2])] {
        let short = large_allocations_of_a_cg_segment(dims, global, 3);
        let long = large_allocations_of_a_cg_segment(dims, global, 9);
        assert_eq!(
            short, long,
            "{dims:?}: 3 CG iterations made {short} allocations of at least {LARGE_BYTES} B, 9 made {long}"
        );
    }
}
