//! The serial solver's iteration allocates no fields: a solve five times
//! longer costs the same number of field-sized heap blocks, and one `M†`
//! costs no allocation at all. One test only, because the counters are
//! process-wide.

use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::solver::{solve_cgne, CgParams};
use qcdoc_lattice::wilson::WilsonDirac;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FIELD_SIZED: AtomicU64 = AtomicU64::new(0);

/// Bytes of one 4⁴ double-precision fermion field: 24 reals per site.
const FIELD_BYTES: usize = 256 * 24 * 8;

/// The system allocator, counting every allocation and, separately, the
/// ones big enough to hold a field (a `realloc` reaches `alloc` through
/// the trait's default implementation).
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= FIELD_BYTES {
            FIELD_SIZED.fetch_add(1, Ordering::Relaxed);
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

/// Field-sized blocks allocated by a solve capped at `iterations` (the
/// tolerance is out of reach, so the cap is what stops it).
fn field_blocks_of_a_solve(op: &WilsonDirac<'_>, b: &FermionField, iterations: usize) -> u64 {
    let mut x = FermionField::zero(b.lattice());
    let params = CgParams {
        tolerance: 1e-30,
        max_iterations: iterations,
    };
    let before = FIELD_SIZED.load(Ordering::Relaxed);
    let report = solve_cgne(op, &mut x, b, params);
    let blocks = FIELD_SIZED.load(Ordering::Relaxed) - before;
    assert_eq!(report.iterations, iterations);
    blocks
}

#[test]
fn a_longer_solve_allocates_no_more_fields_and_mdagger_allocates_nothing() {
    let lat = Lattice::hyper4();
    assert_eq!(lat.volume() * 24 * 8, FIELD_BYTES);
    let gauge = GaugeField::hot(lat, 1);
    let op = WilsonDirac::new(&gauge, 0.124);
    let b = FermionField::gaussian(lat, 2);

    let short = field_blocks_of_a_solve(&op, &b, 5);
    let long = field_blocks_of_a_solve(&op, &b, 25);
    assert_eq!(
        short, long,
        "5 iterations took {short} field-sized blocks, 25 took {long}"
    );

    let mut out = FermionField::zero(lat);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    op.apply_dagger(&mut out, &b);
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(during, 0, "apply_dagger made {during} allocations");
}
