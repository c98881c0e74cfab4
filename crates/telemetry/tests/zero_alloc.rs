//! Verifies the telemetry primitives' allocation-free hot-path contract
//! with a counting global allocator: after the per-thread ring and the sink
//! line buffer are warmed up, `record`, `Counter::add`,
//! `Histogram::record`, span enter/exit, and `flush` never touch the heap.
//!
//! This file must hold exactly one test: other tests running concurrently
//! in the same binary would bump the counters and produce false failures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use placer_telemetry::{Counter, Histogram, SpanStat};

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

static MOVES: Counter = Counter::new("za_moves");
static COSTS: Histogram = Histogram::new("za_costs");
static LOOP_SPAN: SpanStat = SpanStat::new("za_loop");

#[test]
fn primitives_allocate_nothing_after_warm_up() {
    let path =
        std::env::temp_dir().join(format!("placer_telemetry_za_{}.jsonl", std::process::id()));
    placer_telemetry::install(&path).unwrap();

    // Warm up: first record grows the thread ring to capacity, first flush
    // sizes the sink's line buffer.
    for i in 0..32 {
        let _span = LOOP_SPAN.enter();
        placer_telemetry::record("za_iter", &[("i", i as f64), ("cost", 1.5 * i as f64)]);
        MOVES.add(1);
        COSTS.record(1.5 * i as f64);
    }
    placer_telemetry::flush();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..2000 {
        let _span = LOOP_SPAN.enter();
        placer_telemetry::record(
            "za_iter",
            &[
                ("i", i as f64),
                ("cost", 0.75 * i as f64),
                ("nan", f64::NAN),
            ],
        );
        MOVES.add(1);
        COSTS.record(0.75 * i as f64);
    }
    placer_telemetry::flush();
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    placer_telemetry::flush_stats();
    placer_telemetry::uninstall();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        after - before,
        0,
        "telemetry hot path allocated {} times across 2000 instrumented iterations",
        after - before
    );
    // Stats reset on install, not uninstall: the session's count survives
    // the teardown above.
    assert_eq!(MOVES.value(), 2032);
    assert_eq!(COSTS.count(), 2032);
    assert_eq!(LOOP_SPAN.calls(), 2032);
}
