//! Recording into a series the registry already holds allocates nothing:
//! the identity is encoded into a buffer the registry keeps, and the
//! lookup borrows it. One test only, because the counter is process-wide.

use qcdoc_telemetry::{Histogram, MetricsRegistry};
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

#[test]
fn recording_into_an_existing_series_allocates_nothing() {
    let mut reg = MetricsRegistry::new();
    // Labels out of order, as a link series passes them.
    let link = [("node", "12287".to_string()), ("link", "11".to_string())];
    let node = [("node", "7".to_string())];
    let mut pre = Histogram::default();
    pre.observe(9);
    let record = |reg: &mut MetricsRegistry, round: u64| {
        reg.gauge_set("scu_link_resends", &link, round as f64);
        reg.gauge_set("node_liveness", &node, 0.0);
        reg.counter_add("qdaemon_health_sweeps", &[], 1);
        reg.counter_add("autorepair_admitted", &node, round);
        reg.observe("requeue_latency", &link, round);
        reg.histogram_merge("backoff", &node, &pre);
    };
    record(&mut reg, 1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 2..100 {
        record(&mut reg, round);
    }
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - before, 0);
    assert_eq!(reg.len(), 6);
    assert_eq!(reg.gauge("scu_link_resends", &link), Some(99.0));
    assert_eq!(reg.counter("qdaemon_health_sweeps", &[]), 99);
    assert_eq!(
        reg.histogram("backoff", &node).map(Histogram::count),
        Some(99)
    );
}
