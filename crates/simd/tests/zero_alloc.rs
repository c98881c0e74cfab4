//! Verifies the SIMD kernels' zero-allocation contract with a counting
//! global allocator: once dispatch has resolved (the first `selected()`
//! call may read `PLACER_SIMD` from the environment, which allocates),
//! every kernel in the crate runs entirely on caller-provided buffers.
//!
//! This file must hold exactly one test: other tests running concurrently
//! in the same binary would bump the counters and produce false failures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn kernels_allocate_nothing_after_dispatch_resolves() {
    // Resolve dispatch (may read the environment) and build every input
    // buffer before the measured window.
    let backend = placer_simd::selected();
    let n = 37; // odd on purpose: exercises every SIMD tail
    let args: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 20.0).collect();
    let mut ep = vec![0.0; n];
    let mut acc: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    let xs: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let mut row = vec![0.0; n];
    let ex: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let ey: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut sink = 0.0;
    for _ in 0..50 {
        ep.copy_from_slice(&args);
        placer_simd::exp_slice(&mut ep);
        placer_simd::axpy(&mut acc, 0.5, &xs);
        placer_simd::scatter_row(&mut row, 3, 0.8, 1.0, 7.5, 0.6, 0.64);
        let (mut fx, mut fy) = (0.0, 0.0);
        placer_simd::gather_row(&ex, &ey, 3, 0.8, 1.0, 7.5, 0.6, 0.64, &mut fx, &mut fy);
        sink += ep[0] + acc[n - 1] + row[0] + fx + fy;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "kernels allocated {} times across 50 sweeps on backend {}",
        after - before,
        backend.name()
    );
}
