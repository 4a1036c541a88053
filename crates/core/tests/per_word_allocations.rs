//! The per-word path — `NodeCtx::progress` → wire → `Scu::rx` — allocates
//! nothing: a transfer eight times longer costs the same number of heap
//! allocations. One test only, because the counter is process-wide.

use qcdoc_core::ShardedMachine;
use qcdoc_geometry::{Axis, TorusShape};
use qcdoc_scu::dma::DmaDescriptor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation (a `realloc` reaches
/// `alloc` through the trait's default implementation).
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn a_longer_transfer_allocates_no_more() {
    let short = allocations_of_a_shift(256);
    let long = allocations_of_a_shift(LONG);
    assert_eq!(
        short, long,
        "256 words took {short} allocations, {LONG} words took {long}"
    );
}
