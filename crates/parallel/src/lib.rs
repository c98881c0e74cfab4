//! Deterministic coarse-grained fan-out over scoped threads.
//!
//! This crate stands in for rayon (unavailable offline) with a much
//! smaller contract: threads only run coarse units of work — a whole
//! placement, annealing chain, job or sweep variant, or one block of a GNN
//! training mini-batch. [`par_map`] maps such units in parallel and
//! returns their results in index order, so a fixed seed produces an
//! identical result for any thread count (the determinism policy in
//! DESIGN.md). Every placement kernel (density, wirelength, the Poisson
//! solve) runs on its caller's thread.
//!
//! Threading is runtime-capped by [`set_max_threads`] / the
//! `PLACER_THREADS` environment variable; with one thread, or one unit of
//! work, [`par_map`] is a plain loop on the calling thread.
//!
//! [`fixed_blocks`] cuts a range into blocks whose boundaries depend only
//! on its length, for reductions whose order must not depend on the
//! thread count: the GNN trainer maps its gradient blocks with
//! [`par_map`] and sums the results in block order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runtime thread-count override: 0 = unset (use env / hardware).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the worker threads [`par_map`] uses.
///
/// `0` clears the override, falling back to `PLACER_THREADS` or the
/// hardware parallelism. Results are identical for every setting; only
/// wall-clock time changes.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads [`par_map`] may use right now.
///
/// Resolution order: [`set_max_threads`] override, then the
/// `PLACER_THREADS` environment variable, then
/// `std::thread::available_parallelism()`. A `PLACER_THREADS` value that
/// [`parse_threads`] refuses (after trimming whitespace) is ignored.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("PLACER_THREADS")
        .ok()
        .and_then(|v| parse_threads(v.trim()).ok())
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a worker-thread count: a positive integer. This is the one rule
/// for `PLACER_THREADS` and the binaries' `--threads` flags. Zero is
/// refused because [`set_max_threads`]`(0)` clears the override and runs
/// on every hardware thread.
///
/// # Errors
///
/// Returns a message quoting `v`.
pub fn parse_threads(v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("bad thread count `{v}` (want a positive integer)")),
    }
}

/// Splits `len` items into at most `max_blocks` contiguous ranges of
/// near-equal size. Block boundaries depend only on `len` and
/// `max_blocks`, never on thread availability.
pub fn fixed_blocks(len: usize, max_blocks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let blocks = max_blocks.clamp(1, len);
    let base = len / blocks;
    let extra = len % blocks;
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let size = base + usize::from(b < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Maps `0..len` through `f` in parallel, returning results in index
/// order. `f` runs exactly once per index.
pub fn par_map<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = max_threads().min(len.max(1));
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..len).map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let slots = &slots;
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("unpoisoned slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("unpoisoned slot")
                .expect("every index produced")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_blocks_cover_exactly() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for blocks in [1usize, 2, 7, 16] {
                let bs = fixed_blocks(len, blocks);
                let mut expect = 0;
                for b in &bs {
                    assert_eq!(b.start, expect);
                    expect = b.end;
                }
                assert_eq!(expect, len);
                if len > 0 {
                    assert!(bs.len() <= blocks.min(len));
                }
            }
        }
    }

    #[test]
    fn block_boundaries_ignore_thread_count() {
        set_max_threads(1);
        let a = fixed_blocks(1003, 8);
        set_max_threads(7);
        let b = fixed_blocks(1003, 8);
        set_max_threads(0);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1usize, 4] {
            set_max_threads(threads);
            let out = par_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        set_max_threads(0);
    }
}
