//! Resident bytes per node: the peak live heap of a 256-node machine,
//! divided by its node count. A node pays for what it touches — the EDRAM
//! pages it wrote, the flight ring and backoff histograms only once
//! something is recorded — so a machine of one-site nodes (the
//! `torus_latency` shape) is bounded by this number, not by the 4 MB
//! EDRAM address space. One test only, because the counter is
//! process-wide (as in `per_word_allocations.rs`).

use qcdoc_core::comm::global_sum_f64_async;
use qcdoc_core::functional::NodeCtx;
use qcdoc_core::ShardedMachine;
use qcdoc_geometry::TorusShape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, tracking live bytes and their high-water mark
/// (a `realloc` or `alloc_zeroed` reaches `alloc` and `dealloc` through
/// the trait's default implementations).
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KIB: usize = 1024;

/// Peak live heap per node while a 256-node `[4,4,4,4]` machine runs
/// `app`. One worker: every node's state is alive at once, and the poll
/// order — with it every queue's depth — is fixed.
fn peak_bytes_per_node<F, R>(app: F) -> usize
where
    F: AsyncFn(&mut NodeCtx) -> R + Sync,
    R: Send,
{
    let machine = ShardedMachine::new(TorusShape::new(&[4, 4, 4, 4])).with_workers(1);
    let nodes = machine.shape().node_count();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(machine.run(app));
    (PEAK.load(Ordering::Relaxed) - base) / nodes
}

#[test]
fn an_idle_node_and_a_summing_node_stay_small() {
    let idle = peak_bytes_per_node(async |_ctx| {});
    let summed = peak_bytes_per_node(async |ctx| global_sum_f64_async(ctx, 1.0).await);
    eprintln!("resident bytes per node: empty program {idle}, one global sum {summed}");
    assert!(idle <= 24 * KIB, "empty program: {idle} B per node");
    assert!(summed <= 40 * KIB, "one global sum: {summed} B per node");
}
