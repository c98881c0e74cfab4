//! Deterministic scoped-thread fan-out for the placement hot paths.
//!
//! This crate stands in for rayon (unavailable offline) with a much
//! smaller contract, designed around one hard requirement of the
//! workspace: **bit-identical results for any thread count**. Every
//! helper therefore
//!
//! 1. decomposes work into *fixed* contiguous blocks whose boundaries
//!    depend only on the problem size — never on the number of threads —
//!    and
//! 2. combines results in block-index order on the calling thread.
//!
//! Floating-point reductions consequently associate the same way whether
//! the work ran on 1 thread or 64, so a fixed seed produces an identical
//! placement regardless of parallelism (the determinism policy in
//! DESIGN.md).
//!
//! Threading is runtime-capped by [`set_max_threads`] / the
//! `PLACER_THREADS` environment variable; `PLACER_THREADS=1` runs every
//! helper inline on the calling thread. Spawning is skipped entirely when
//! the effective thread count is 1 or the work is a single block, so
//! small problems never pay spawn latency.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runtime thread-count override: 0 = unset (use env / hardware).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the worker threads used by every helper in this crate.
///
/// `0` clears the override, falling back to `PLACER_THREADS` or the
/// hardware parallelism. Results are identical for every setting; only
/// wall-clock time changes.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads helpers may use right now.
///
/// Resolution order: [`set_max_threads`] override, then the
/// `PLACER_THREADS` environment variable, then
/// `std::thread::available_parallelism()`.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("PLACER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

/// Runs `f(block_index, range)` for every fixed block of `0..len`,
/// fanning blocks out over the available threads.
///
/// `f` must be safe to call concurrently; block boundaries come from
/// [`fixed_blocks`]`(len, max_blocks)`.
pub fn for_each_block<F>(len: usize, max_blocks: usize, f: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    let blocks = fixed_blocks(len, max_blocks);
    let threads = max_threads().min(blocks.len());
    if threads <= 1 {
        for (i, r) in blocks.into_iter().enumerate() {
            f(i, r);
        }
        return;
    }
    // Deterministic cyclic assignment: worker w takes blocks w, w+T, …
    // (assignment affects only wall-clock, not results).
    std::thread::scope(|scope| {
        for w in 0..threads {
            let blocks = &blocks;
            let f = &f;
            scope.spawn(move || {
                let mut i = w;
                while i < blocks.len() {
                    f(i, blocks[i].clone());
                    i += threads;
                }
            });
        }
    });
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

/// Splits `data` — interpreted as rows of `row_len` elements — into at most
/// `max_blocks` row-aligned chunks and runs `f(block_index, first_row, chunk)`
/// on each disjoint chunk in parallel.
///
/// Chunk boundaries always fall on row boundaries and depend only on the row
/// count and `max_blocks` (see [`fixed_blocks`]), so per-row transforms are
/// deterministic for any thread count. Workers are capped at
/// [`max_threads`]; blocks are dealt to workers cyclically.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `row_len`.
pub fn for_each_row_chunk_mut<T, F>(data: &mut [T], row_len: usize, max_blocks: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row length must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "data length must be a whole number of rows"
    );
    let n_rows = data.len() / row_len;
    let blocks = fixed_blocks(n_rows, max_blocks);
    let threads = max_threads().min(blocks.len());
    if threads <= 1 {
        let mut rest = data;
        for (i, r) in blocks.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(r.len() * row_len);
            rest = tail;
            f(i, r.start, chunk);
        }
        return;
    }
    // Deal row-aligned chunks to a bounded set of workers up front
    // (worker w takes blocks w, w+T, …); assignment affects only wall-clock.
    let mut per_worker: Vec<Vec<(usize, usize, &mut [T])>> =
        (0..threads).map(|_| Vec::new()).collect();
    let mut rest = data;
    for (i, r) in blocks.iter().enumerate() {
        let (chunk, tail) = rest.split_at_mut(r.len() * row_len);
        rest = tail;
        per_worker[i % threads].push((i, r.start, chunk));
    }
    std::thread::scope(|scope| {
        for work in per_worker {
            let f = &f;
            scope.spawn(move || {
                for (i, first_row, chunk) in work {
                    f(i, first_row, chunk);
                }
            });
        }
    });
}

/// Splits `data` into its fixed blocks and runs `f(block_index, chunk)` on
/// each disjoint chunk in parallel.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], max_blocks: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let blocks = fixed_blocks(data.len(), max_blocks);
    let threads = max_threads().min(blocks.len());
    if threads <= 1 {
        let mut rest = data;
        let mut offset = 0usize;
        for (i, r) in blocks.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            offset += r.len();
            let _ = offset;
            f(i, chunk);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        for (i, r) in blocks.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let f = &f;
            scope.spawn(move || f(i, chunk));
        }
    });
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

    #[test]
    fn chunked_sum_is_identical_across_thread_counts() {
        // An intentionally ill-conditioned reduction: identical block
        // boundaries + in-order combine must give bit-identical sums.
        let data: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761usize) % 1000) as f64 * 1e-3 + 1e9 * ((i % 7) as f64))
            .collect();
        let sum_with = |threads: usize| {
            set_max_threads(threads);
            let blocks = fixed_blocks(data.len(), 16);
            let mut partials = vec![0.0f64; blocks.len()];
            for_each_chunk_mut(&mut partials.clone(), 16, |_, _| {});
            let partial_refs: Vec<std::sync::Mutex<f64>> =
                blocks.iter().map(|_| std::sync::Mutex::new(0.0)).collect();
            for_each_block(data.len(), 16, |b, r| {
                let mut acc = 0.0;
                for &v in &data[r] {
                    acc += v;
                }
                *partial_refs[b].lock().unwrap() = acc;
            });
            for (p, m) in partials.iter_mut().zip(&partial_refs) {
                *p = *m.lock().unwrap();
            }
            partials.iter().sum::<f64>().to_bits()
        };
        let one = sum_with(1);
        let many = sum_with(5);
        set_max_threads(0);
        assert_eq!(one, many);
    }

    #[test]
    fn row_chunks_align_to_rows_and_cover_once() {
        let row_len = 7;
        let n_rows = 23;
        for threads in [1usize, 4] {
            set_max_threads(threads);
            let mut data = vec![0u32; row_len * n_rows];
            for_each_row_chunk_mut(&mut data, row_len, 6, |_, first_row, chunk| {
                assert_eq!(chunk.len() % row_len, 0);
                for (r, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                    for v in row {
                        *v += (first_row + r) as u32 + 1;
                    }
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, (i / row_len) as u32 + 1);
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element_once() {
        let mut data = vec![0u32; 97];
        set_max_threads(3);
        for_each_chunk_mut(&mut data, 8, |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        set_max_threads(0);
        assert!(data.iter().all(|&v| v == 1));
    }
}
