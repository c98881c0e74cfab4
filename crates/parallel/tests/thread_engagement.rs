//! Verifies the fan-out actually reaches distinct OS worker threads when
//! threads are requested — guarding against a dispatch bug where every
//! helper silently runs serial (the failure mode behind a 1.00× "speedup"
//! in the benchmarks).
//!
//! Runs as its own binary: the thread-count override is process-global, so
//! sharing a binary with other tests that set it would race.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

#[test]
fn par_map_engages_distinct_worker_threads() {
    placer_parallel::set_max_threads(3);
    let seen = Mutex::new(HashSet::new());
    // Each task dwells long enough that one worker cannot drain the whole
    // queue before its siblings start, even on single-core hardware.
    let results = placer_parallel::par_map(9, |i| {
        seen.lock().unwrap().insert(thread::current().id());
        thread::sleep(Duration::from_millis(20));
        i * 2
    });
    placer_parallel::set_max_threads(0);
    assert_eq!(results, (0..9).map(|i| i * 2).collect::<Vec<_>>());
    let distinct = seen.lock().unwrap().len();
    assert!(
        distinct >= 2,
        "par_map with 3 requested threads ran on {distinct} distinct thread(s)"
    );
}
