//! Resident bytes per node: the peak live heap of a machine divided by its
//! node count. A node pays for what it touches — the 4 kB EDRAM pages it
//! wrote and a page-table entry for each, the flight ring and backoff
//! histograms only once something is recorded; its SCU units are inline
//! and allocate nothing — so a machine of one-site nodes (the
//! `torus_latency` shape) is bounded by this number, not by the 4 MB
//! EDRAM address space. One test only, because the counter is
//! process-wide (as in `per_word_allocations.rs`).

use qcdoc_core::comm::global_sum_f64_async;
use qcdoc_core::distributed::{dslash_local_async, BlockGeom};
use qcdoc_core::functional::NodeCtx;
use qcdoc_core::ShardedMachine;
use qcdoc_geometry::TorusShape;
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
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

/// Peak live heap per node while a machine of `shape` runs `app`. One
/// worker: every node's state is alive at once, and the poll order — with
/// it every queue's depth — is fixed.
fn peak_bytes_per_node<F, R>(shape: &[usize], app: F) -> usize
where
    F: AsyncFn(&mut NodeCtx) -> R + Sync,
    R: Send,
{
    let machine = ShardedMachine::new(TorusShape::new(shape)).with_workers(1);
    let nodes = machine.shape().node_count();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(machine.run(app));
    (PEAK.load(Ordering::Relaxed) - base) / nodes
}

/// Exchange this node's faces for one Wilson Dslash of its block of
/// `global`, then join one global sum.
async fn dslash_then_sum(
    ctx: &mut NodeCtx,
    global: Lattice,
    gauge: &GaugeField,
    source: &FermionField,
) -> f64 {
    let geom = BlockGeom::new(ctx, global);
    let lg = geom.extract_gauge(gauge);
    let lb = geom.extract_fermion(source);
    let out = dslash_local_async(ctx, &geom, &lg, &lb).await;
    global_sum_f64_async(ctx, out[0].norm_sqr()).await
}

#[test]
fn an_idle_node_and_a_summing_node_stay_small() {
    let latency_machine = [4, 4, 4, 4];
    let idle = peak_bytes_per_node(&latency_machine, async |_ctx| {});
    let summed = peak_bytes_per_node(&latency_machine, async |ctx| {
        global_sum_f64_async(ctx, 1.0).await
    });
    // The `torus_latency` node: a one-site block that exchanges its faces
    // for one Wilson Dslash and then joins one global sum. Its face staging
    // and the sum's ring words share one 4 kB EDRAM page.
    let global = Lattice::new([4, 4, 4, 4]);
    let gauge = GaugeField::hot(global, 1);
    let source = FermionField::gaussian(global, 2);
    let latency = peak_bytes_per_node(&latency_machine, async |ctx| {
        dslash_then_sum(ctx, global, &gauge, &source).await
    });
    // The `torus_bandwidth` node: the paper's 4^4 local volume, whose
    // 768-word faces stage across 25 pages.
    let global = Lattice::new([8, 8, 8, 8]);
    let gauge = GaugeField::hot(global, 1);
    let source = FermionField::gaussian(global, 2);
    let bandwidth = peak_bytes_per_node(&[2, 2, 2, 2], async |ctx| {
        dslash_then_sum(ctx, global, &gauge, &source).await
    });
    eprintln!(
        "resident bytes per node: empty program {idle}, one global sum {summed}, \
         one-site Dslash + sum {latency}, 4^4 Dslash + sum {bandwidth}"
    );
    assert!(idle <= 12 * KIB, "empty program: {idle} B per node");
    assert!(summed <= 20 * KIB, "one global sum: {summed} B per node");
    assert!(
        latency <= 20 * KIB,
        "one-site Dslash + sum: {latency} B per node"
    );
    // The 4^4 node as measured with 8 kB pages under dense page tables:
    // smaller pages must never cost more where a node's staging spans many.
    assert!(
        bandwidth <= 404_981,
        "4^4 Dslash + sum: {bandwidth} B per node"
    );
}
