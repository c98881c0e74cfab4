//! The unified placement front door: one trait, one outcome type.
//!
//! Every pipeline in the workspace — `EPlaceA`, `EPlaceAP` (this crate),
//! `SaPlacer` (`placer-sa`) and `Xu19Placer` (`placer-xu19`) — implements
//! [`Placer`], so job engines and benchmarks can hold a
//! `&dyn Placer` and not care which algorithm is behind it. The trait
//! methods take a [`RunBudget`](crate::RunBudget) and return a
//! [`PlaceOutcome`]:
//!
//! - [`Complete`](PlaceOutcome::Complete): the algorithm ran to its
//!   natural convergence.
//! - [`Exhausted`](PlaceOutcome::Exhausted): the budget expired; the
//!   solution is the best-so-far state, **legalized** — callers can always
//!   tape it out, it is just potentially worse than a full run.
//! - [`Cancelled`](PlaceOutcome::Cancelled): cooperative cancellation hit
//!   first; the payload is a [`Checkpoint`](crate::Checkpoint) from which
//!   [`Placer::resume`] reproduces the uninterrupted run bit-for-bit.

use crate::artifacts::CircuitArtifacts;
use crate::checkpoint::Checkpoint;
use crate::eco::{self, EcoConfig, EcoOutcome, EcoReplace};
use crate::error::PlaceError;
use crate::RunBudget;
use analog_netlist::{Circuit, NetlistDelta, Placement};
use std::time::Instant;

/// A deterministic best-so-far quality estimate read from a checkpoint,
/// used by portfolio racing to compare paused runs without resuming them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceProbe {
    /// Best-so-far half-perimeter wirelength.
    pub hpwl: f64,
    /// Best-so-far bounding-box area.
    pub area: f64,
}

impl RaceProbe {
    /// Scores a flat solver iterate `[x…, y…]` of device centers with the
    /// exact HPWL and area; `None` when it is sized for another circuit.
    /// The analytical placers' probes score their frozen iterate with it.
    pub fn of_iterate(circuit: &Circuit, flat: &[f64]) -> Option<Self> {
        let n = circuit.num_devices();
        if flat.len() != 2 * n {
            return None;
        }
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (flat[i], flat[n + i])).collect();
        Some(Self {
            hpwl: crate::wirelength::exact_hpwl(circuit, &pts),
            area: crate::exact_area(circuit, &pts),
        })
    }

    /// The scalar figure of merit the tournament compares: `hpwl × area`
    /// (the same product the restart ladders in this workspace rank by).
    pub fn fom(&self) -> f64 {
        self.hpwl * self.area
    }
}

/// A finished (complete or best-so-far) legalized placement plus its
/// quality metrics and timing breakdown.
#[derive(Debug, Clone)]
pub struct PlaceSolution {
    /// The legalized placement.
    pub placement: Placement,
    /// Half-perimeter wirelength of `placement`.
    pub hpwl: f64,
    /// Bounding-box area of `placement`.
    pub area: f64,
    /// Seconds spent in stage 1 (global placement / annealing).
    pub stage1_seconds: f64,
    /// Seconds spent in stage 2 (legalization / repair).
    pub stage2_seconds: f64,
    /// Optimizer iterations (Nesterov/CG iterations or SA moves).
    pub iterations: usize,
}

/// What a budgeted placement run produced.
#[derive(Debug, Clone)]
pub enum PlaceOutcome {
    /// Ran to natural convergence.
    Complete(PlaceSolution),
    /// Budget expired; best-so-far, still legalized.
    Exhausted(PlaceSolution),
    /// Cancelled; resume from the checkpoint to finish the run.
    Cancelled(Checkpoint),
}

impl PlaceOutcome {
    /// The solution, if the run produced one (complete or exhausted).
    pub fn solution(&self) -> Option<&PlaceSolution> {
        match self {
            PlaceOutcome::Complete(s) | PlaceOutcome::Exhausted(s) => Some(s),
            PlaceOutcome::Cancelled(_) => None,
        }
    }

    /// The solution by value, if the run produced one.
    pub fn into_solution(self) -> Option<PlaceSolution> {
        match self {
            PlaceOutcome::Complete(s) | PlaceOutcome::Exhausted(s) => Some(s),
            PlaceOutcome::Cancelled(_) => None,
        }
    }

    /// The checkpoint, if the run was cancelled.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            PlaceOutcome::Cancelled(ck) => Some(ck),
            _ => None,
        }
    }

    /// True for [`PlaceOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, PlaceOutcome::Complete(_))
    }

    /// True for [`PlaceOutcome::Exhausted`].
    pub fn is_exhausted(&self) -> bool {
        matches!(self, PlaceOutcome::Exhausted(_))
    }

    /// True for [`PlaceOutcome::Cancelled`].
    pub fn is_cancelled(&self) -> bool {
        matches!(self, PlaceOutcome::Cancelled(_))
    }

    /// Short status tag (`"complete"` / `"exhausted"` / `"cancelled"`)
    /// for logs and job reports.
    pub fn status(&self) -> &'static str {
        match self {
            PlaceOutcome::Complete(_) => "complete",
            PlaceOutcome::Exhausted(_) => "exhausted",
            PlaceOutcome::Cancelled(_) => "cancelled",
        }
    }
}

/// A budgeted, cancellable, resumable placement algorithm.
///
/// Implementations provide [`place_artifacts`](Self::place_artifacts) and
/// [`resume_artifacts`](Self::resume_artifacts); the cold
/// [`place`](Self::place) / [`resume`](Self::resume) build the circuit's
/// [`CircuitArtifacts`] and delegate, so every caller runs the one engine.
/// Cached ≡ cold therefore holds by construction, provided the engine's
/// result does not depend on which lazily-built parts of the bundle an
/// earlier run already filled in. Implementations must also uphold:
///
/// 1. **Exhausted is legal.** When the budget expires the placer
///    legalizes its best-so-far state before returning, so the
///    placement in [`PlaceOutcome::Exhausted`] satisfies the same
///    legality invariants as a complete run.
/// 2. **Resume is exact.** `place` until cancelled, then `resume` from
///    the returned checkpoint (any number of times, at any boundary),
///    yields the same final placement — bit-for-bit — as a single
///    uninterrupted `place`.
pub trait Placer: Sync {
    /// Stable machine-readable identifier (`"eplace-a"`, `"sa"`, ...);
    /// stamped into checkpoints and job reports.
    fn name(&self) -> &'static str;

    /// Runs placement under `budget` against pre-built shared artifacts.
    fn place_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError>;

    /// Continues a cancelled run from `checkpoint` under a fresh budget,
    /// against pre-built shared artifacts.
    fn resume_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError>;

    /// Runs placement under `budget`: builds `circuit`'s artifacts and
    /// calls [`place_artifacts`](Self::place_artifacts).
    fn place(&self, circuit: &Circuit, budget: &RunBudget) -> Result<PlaceOutcome, PlaceError> {
        self.place_artifacts(&CircuitArtifacts::build(circuit.clone()), budget)
    }

    /// Continues a cancelled run from `checkpoint` under a fresh budget:
    /// builds `circuit`'s artifacts and calls
    /// [`resume_artifacts`](Self::resume_artifacts).
    fn resume(
        &self,
        circuit: &Circuit,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.resume_artifacts(
            &CircuitArtifacts::build(circuit.clone()),
            checkpoint,
            budget,
        )
    }

    /// Incrementally re-places after an ECO delta.
    ///
    /// The default implementation is the full engine; pipelines customize
    /// it through [`eco_refine`](Self::eco_refine) rather than overriding
    /// this method:
    ///
    /// 1. apply `delta` and **patch** `artifacts` (no rebuild);
    /// 2. if the delta dirtied more than
    ///    [`EcoConfig::dirty_threshold`] of the devices, fall back to a
    ///    cold [`place_artifacts`](Self::place_artifacts) on the patched
    ///    bundle — bit-identical to placing the edited circuit from
    ///    scratch ([`EcoOutcome::FellBack`]);
    /// 3. otherwise map `warm_start` (an `"eco-warm"` checkpoint from
    ///    [`eco::warm_checkpoint`]) onto the edited circuit, run the
    ///    placer's short warm refinement, and re-legalize only the
    ///    affected region ([`EcoOutcome::Fast`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Delta`] when the delta fails to apply,
    /// [`PlaceError::BadCheckpoint`] when `warm_start` is not a usable
    /// warm carrier, or any error the fallback / refinement surfaces.
    fn replace(
        &self,
        artifacts: &CircuitArtifacts,
        delta: &NetlistDelta,
        warm_start: &Checkpoint,
        budget: &RunBudget,
        eco: &EcoConfig,
    ) -> Result<EcoReplace, PlaceError> {
        let (patched, applied) = eco::prepare(artifacts, delta)?;
        let dirty_fraction = applied.dirty_fraction();
        if dirty_fraction > eco.dirty_threshold {
            let outcome = self.place_artifacts(&patched, budget)?;
            return Ok(EcoReplace {
                artifacts: patched,
                dirty_fraction,
                outcome: EcoOutcome::FellBack(outcome),
            });
        }
        let t0 = Instant::now();
        let warm = eco::warm_placement(artifacts.circuit(), patched.circuit(), warm_start)?;
        let refined = self.eco_refine(&patched, &warm, &applied.dirty, eco)?;
        let (stage1, iterations) = match refined {
            Some((p, it)) => (p, it),
            None => (warm.clone(), 0),
        };
        let stage1_seconds = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let region = eco::region_mask(patched.circuit(), &warm, &applied.dirty, eco.margin);
        let placement =
            eco::finish_region(patched.circuit(), &stage1, &warm, &region, eco.pin_cost)?;
        let solution = eco::fast_solution(
            patched.circuit(),
            placement,
            stage1_seconds,
            t1.elapsed().as_secs_f64(),
            iterations,
        );
        Ok(EcoReplace {
            artifacts: patched,
            dirty_fraction,
            outcome: EcoOutcome::Fast(solution),
        })
    }

    /// Warm refinement hook of the ECO fast path: starting from the warm
    /// placement (already mapped onto the edited circuit behind
    /// `artifacts`), run a short placer-specific trust-region schedule
    /// and return the refined coordinates plus the iterations spent.
    ///
    /// The default returns `Ok(None)`: the engine then legalizes straight
    /// from the warm state, which is correct (region repair restores
    /// exact legality) but skips quality recovery. Pipelines override
    /// this with a warm-started, budget-capped run of their own
    /// optimizer.
    ///
    /// # Errors
    ///
    /// Implementations surface their optimizer's failures unchanged.
    fn eco_refine(
        &self,
        artifacts: &CircuitArtifacts,
        warm: &Placement,
        dirty: &[bool],
        eco: &EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        let _ = (artifacts, warm, dirty, eco);
        Ok(None)
    }

    /// Reads a deterministic best-so-far quality estimate out of one of
    /// this placer's checkpoints, without resuming it.
    ///
    /// Returns `None` when the checkpoint carries no comparable state yet
    /// (or the placer does not support probing); the tournament scheduler
    /// then treats the run as not-yet-rankable and keeps it alive. The
    /// probe must be a pure function of the checkpoint text so racing
    /// decisions are identical across thread counts.
    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<RaceProbe> {
        let _ = (circuit, checkpoint);
        None
    }
}

/// Verifies a checkpoint was written by `expected` before a resume
/// touches any of its fields; shared by all four [`Placer`]
/// implementations (including the ones in `placer-sa` / `placer-xu19`).
pub fn expect_placer(ck: &Checkpoint, expected: &str) -> Result<(), PlaceError> {
    if ck.placer() != expected {
        return Err(bad_checkpoint(format!(
            "checkpoint written by `{}`, cannot resume with `{expected}`",
            ck.placer()
        )));
    }
    Ok(())
}

/// Reads a checkpoint's device count (`n`) and refuses the checkpoint
/// unless it matches `circuit`; returns the count. Shared, like
/// [`expect_placer`], by all four [`Placer`] implementations.
pub fn expect_devices(ck: &Checkpoint, circuit: &Circuit) -> Result<usize, PlaceError> {
    let n = circuit.num_devices();
    let stored = ck.get_u64("n")? as usize;
    if stored != n {
        return Err(bad_checkpoint(format!(
            "checkpoint is for a {stored}-device circuit, got {n} devices"
        )));
    }
    Ok(n)
}

/// The [`PlaceError::BadCheckpoint`] a placer refuses a decoded but
/// unusable checkpoint with (not tied to a line of its text).
pub fn bad_checkpoint(message: String) -> PlaceError {
    PlaceError::BadCheckpoint(crate::CheckpointError { line: 0, message })
}
