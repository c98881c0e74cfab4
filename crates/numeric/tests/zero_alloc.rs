//! Verifies the `solve_into` zero-allocation contract with a counting
//! global allocator.
//!
//! This file must hold exactly one test: other tests running concurrently
//! in the same binary would bump the counters and produce false failures.
//!
//! Only allocations made *by the test thread* are counted. The libtest
//! harness's main thread lazily allocates an mpsc receiver context the
//! first time it blocks waiting for the test result, and on a loaded (or
//! single-core) machine that first block can land inside the measurement
//! window — a process-wide counter flakes on harness noise the solver
//! cannot control. The opt-in flag is a `const`-initialized thread-local,
//! so reading it from inside the allocator never itself allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use placer_numeric::{Grid, PoissonSolver};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_this_thread() {
    if COUNTED.try_with(|c| c.get()).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_this_thread();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_this_thread();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_this_thread();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn solve_into_allocates_nothing_after_warm_up() {
    // The solve runs on the calling thread whatever the thread count, so
    // the window must stay clean at one thread and at four.
    COUNTED.with(|c| c.set(true));

    let n = 64;
    let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
    let mut rho = Grid::new(n, n);
    for iy in 0..n {
        for ix in 0..n {
            rho.set(ix, iy, ((ix * 13 + iy * 7) % 29) as f64 * 0.1);
        }
    }
    let mut psi = Grid::new(n, n);

    // Warm-up (scratch is built at construction, but let any lazy runtime
    // allocation happen here too).
    solver.solve_into(&rho, &mut psi);

    let mut counts = Vec::new();
    for threads in [1, 4] {
        placer_parallel::set_max_threads(threads);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..10 {
            solver.solve_into(&rho, &mut psi);
        }
        counts.push((threads, ALLOCATIONS.load(Ordering::SeqCst) - before));
    }
    placer_parallel::set_max_threads(0);

    for (threads, allocations) in counts {
        assert_eq!(
            allocations, 0,
            "solve_into allocated {allocations} times across 10 warm calls at {threads} thread(s)"
        );
    }
    // Sanity: the solver actually produced a nontrivial potential.
    assert!(psi.max().abs() > 0.0);
}
