//! Verifies the scratch-reusing GNN entry points' zero-allocation contract
//! with a counting global allocator: once the scratch workspaces exist,
//! CSR inference (`predict_with`), the input-gradient backward pass
//! (`position_gradient_with`), and the parameter-gradient backward pass
//! (`loss_gradients_with`) never touch the heap.
//!
//! This file must hold exactly one test: other tests running concurrently
//! in the same binary would bump the counters and produce false failures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use analog_netlist::{testcases, Placement};
use placer_gnn::{CircuitGraph, GradScratch, InferenceScratch, Network, ParamGrads, TrainScratch};

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
fn scratch_paths_allocate_nothing_after_construction() {
    let circuit = testcases::comp1();
    let n = circuit.num_devices();
    let mut placement = Placement::new(n);
    for i in 0..n {
        placement.positions[i] = (3.0 + 1.7 * i as f64, 2.0 + 0.9 * (i % 5) as f64);
    }
    let network = Network::default_config(11);
    let mut graph = CircuitGraph::new(&circuit, &placement, 20.0);

    let mut inf = InferenceScratch::new(&network, n);
    let mut grad = GradScratch::new(&network, n);
    let mut train = TrainScratch::new(&network, n);
    let mut pos_grads = vec![(0.0, 0.0); n];
    let mut param_grads = ParamGrads::zeros(&network);
    let mut positions = placement.positions.clone();

    // Warm-up: one pass through every path so lazily-touched state exists.
    let mut sink = network.predict_with(&graph, &mut inf);
    sink += network.position_gradient_with(&graph, &mut grad, &mut pos_grads);
    sink += network.loss_gradients_with(&graph, 1.0, &mut train, &mut param_grads);

    // The libtest harness's main thread occasionally allocates while this
    // test thread runs, so measure several windows and require one to be
    // perfectly clean: a real per-call allocation would taint every window
    // with ≥50 counts, while harness noise is transient.
    let mut cleanest = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for step in 0..50 {
            for p in positions.iter_mut() {
                p.0 += 0.25;
                p.1 -= 0.125;
            }
            graph.update_positions_from_slice(&positions);
            sink += network.predict_with(&graph, &mut inf);
            sink += network.position_gradient_with(&graph, &mut grad, &mut pos_grads);
            let label = f64::from(step % 2 == 0);
            sink += network.loss_gradients_with(&graph, label, &mut train, &mut param_grads);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }

    assert_eq!(
        cleanest, 0,
        "GNN scratch paths allocated {cleanest} times in their cleanest 50-round window"
    );
    // Sanity: every path produced finite, used output.
    assert!(sink.is_finite());
    assert!(pos_grads.iter().any(|g| g.0 != 0.0 || g.1 != 0.0));
}
