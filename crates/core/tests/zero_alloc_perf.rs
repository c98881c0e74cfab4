//! Verifies the ePlace-AP performance-gradient hook's zero-allocation
//! contract with a counting global allocator: after [`PerfGradHook`]
//! construction, every Nesterov-iteration callback — feature refresh, CSR
//! forward, input-gradient backward, α-scaled accumulation — never
//! touches the heap.
//!
//! This file must hold exactly one test: other tests running concurrently
//! in the same binary would bump the counters and produce false failures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use analog_netlist::testcases;
use eplace::PerfGradHook;
use placer_gnn::Network;

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
fn perf_grad_hook_allocates_nothing_per_eval() {
    let circuit = testcases::vco1();
    let n = circuit.num_devices();
    let network = Network::default_config(3);
    let mut hook = PerfGradHook::new(&circuit, &network, 0.5, 20.0);

    let mut pts: Vec<(f64, f64)> = (0..n)
        .map(|i| (4.0 + 1.3 * i as f64, 3.0 + 0.7 * (i % 4) as f64))
        .collect();
    let mut grad = vec![0.0f64; 2 * n];

    // Warm-up: first call runs the one-time α normalisation.
    let mut sink = hook.eval(&pts, &mut grad);

    // The libtest harness's main thread occasionally allocates while this
    // test thread runs, so measure several windows and require one to be
    // perfectly clean: a real per-call allocation would taint every window
    // with ≥200 counts, while harness noise is transient.
    let mut cleanest = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..200 {
            for p in pts.iter_mut() {
                p.0 += 0.05;
                p.1 -= 0.025;
            }
            grad.iter_mut().for_each(|g| *g = 0.0);
            sink += hook.eval(&pts, &mut grad);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }

    assert_eq!(
        cleanest, 0,
        "PerfGradHook::eval allocated {cleanest} times in its cleanest 200-call window"
    );
    // Sanity: the hook produced a real Φ term and a nonzero gradient.
    assert!(sink.is_finite() && sink > 0.0);
    assert!(grad.iter().any(|&g| g != 0.0));
}
