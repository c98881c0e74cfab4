//! Execution backends: how the independent variant races are scheduled.
//!
//! [`SweepBackend`] is deliberately monomorphic (`dyn`-friendly): a
//! backend receives the group count and a group runner, and returns the
//! results **in group order** — the determinism contract every backend
//! must uphold. Two implementations ship:
//!
//! - [`SerialBackend`] — the reference: runs groups one after another.
//! - [`ParallelBackend`] — fans groups out over
//!   [`placer_parallel::par_map`], which preserves input order; with one
//!   worker it degrades gracefully to a serial loop, so results are
//!   identical either way.
//!
//! [`auto_backend`] picks the parallel backend when the worker pool has
//! more than one thread, the serial reference otherwise.

use crate::result::VariantResult;

/// Schedules independent variant races. Implementations must return
/// results in group order and must not reorder or drop groups.
pub trait SweepBackend {
    /// The backend's wire name (for reports and logs).
    fn name(&self) -> &'static str;

    /// Runs `count` groups through `run` and collects the results in
    /// group index order.
    fn run_groups(
        &self,
        count: usize,
        run: &(dyn Fn(usize) -> VariantResult + Sync),
    ) -> Vec<VariantResult>;
}

/// Reference backend: strictly sequential, no worker pool involved.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialBackend;

impl SweepBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run_groups(
        &self,
        count: usize,
        run: &(dyn Fn(usize) -> VariantResult + Sync),
    ) -> Vec<VariantResult> {
        (0..count).map(run).collect()
    }
}

/// Concurrent backend: one task per group on the shared worker pool.
/// `par_map` preserves order, so reports match the serial reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelBackend;

impl SweepBackend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn run_groups(
        &self,
        count: usize,
        run: &(dyn Fn(usize) -> VariantResult + Sync),
    ) -> Vec<VariantResult> {
        placer_parallel::par_map(count, run)
    }
}

/// Picks the backend for the current worker pool: parallel when more than
/// one thread is available, the serial reference otherwise.
pub fn auto_backend() -> &'static dyn SweepBackend {
    if placer_parallel::max_threads() > 1 {
        &ParallelBackend
    } else {
        &SerialBackend
    }
}
