//! End-to-end placement pipelines: ePlace-A and ePlace-AP.
//!
//! Both pipelines are reached only through the [`Placer`] trait: one
//! engine per pipeline runs against a [`CircuitArtifacts`] bundle under a
//! [`RunBudget`], with deadlines, cooperative cancellation and exact
//! resume. Cold callers go through [`Placer::place`], which builds the
//! bundle first.

use std::time::Instant;

use analog_netlist::{Circuit, Placement};
use placer_gnn::Network;

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::detailed::legalize;
use crate::global::{GlobalPlacer, GpCheckpoint, GpRun};
use crate::placer::{expect_placer, PlaceOutcome, PlaceSolution, Placer};
use crate::{CircuitArtifacts, PerfConfig, PerfGradHook, PlaceError, PlacerConfig, RunBudget};

fn bad_checkpoint(message: String) -> PlaceError {
    PlaceError::BadCheckpoint(CheckpointError { line: 0, message })
}

/// The attempt a checkpoint was cut in, refused when it lies past this
/// engine's `attempts` (a checkpoint cut under a profile with more
/// restarts).
fn get_attempt(ck: &Checkpoint, attempts: usize) -> Result<usize, PlaceError> {
    let attempt = ck.get_u64("attempt")?;
    if attempt >= attempts as u64 {
        return Err(bad_checkpoint(format!(
            "`attempt` {attempt} out of range for {attempts} restarts"
        )));
    }
    Ok(attempt as usize)
}

fn check_n(ck: &Checkpoint, circuit: &Circuit) -> Result<usize, PlaceError> {
    let n = circuit.num_devices();
    let stored = ck.get_u64("n")? as usize;
    if stored != n {
        return Err(bad_checkpoint(format!(
            "checkpoint is for a {stored}-device circuit, got {n} devices"
        )));
    }
    Ok(n)
}

fn put_placement(ck: &mut Checkpoint, prefix: &str, p: &Placement) {
    let xs: Vec<f64> = p.positions.iter().map(|&(x, _)| x).collect();
    let ys: Vec<f64> = p.positions.iter().map(|&(_, y)| y).collect();
    let fx: Vec<bool> = p.flips.iter().map(|&(fx, _)| fx).collect();
    let fy: Vec<bool> = p.flips.iter().map(|&(_, fy)| fy).collect();
    ck.put_f64s(&format!("{prefix}x"), &xs);
    ck.put_f64s(&format!("{prefix}y"), &ys);
    ck.put_bools(&format!("{prefix}fx"), &fx);
    ck.put_bools(&format!("{prefix}fy"), &fy);
}

fn get_placement(ck: &Checkpoint, prefix: &str, n: usize) -> Result<Placement, PlaceError> {
    let xs = ck.get_f64s(&format!("{prefix}x"))?;
    let ys = ck.get_f64s(&format!("{prefix}y"))?;
    let fx = ck.get_bools(&format!("{prefix}fx"))?;
    let fy = ck.get_bools(&format!("{prefix}fy"))?;
    if xs.len() != n || ys.len() != n || fx.len() != n || fy.len() != n {
        return Err(bad_checkpoint(format!(
            "placement `{prefix}*` sized for a different circuit"
        )));
    }
    Ok(Placement {
        positions: xs.iter().zip(ys).map(|(&x, &y)| (x, y)).collect(),
        flips: fx.iter().zip(fy).map(|(&a, &b)| (a, b)).collect(),
    })
}

// The key names predate `PlaceSolution` and stay as they are, so
// checkpoints on disk keep decoding.
fn put_result(ck: &mut Checkpoint, prefix: &str, r: &PlaceSolution) {
    put_placement(ck, prefix, &r.placement);
    ck.put_f64(&format!("{prefix}hpwl"), r.hpwl);
    ck.put_f64(&format!("{prefix}area"), r.area);
    ck.put_f64(&format!("{prefix}gp_seconds"), r.stage1_seconds);
    ck.put_f64(&format!("{prefix}dp_seconds"), r.stage2_seconds);
    ck.put_u64(&format!("{prefix}gp_iterations"), r.iterations as u64);
}

fn get_result(ck: &Checkpoint, prefix: &str, n: usize) -> Result<PlaceSolution, PlaceError> {
    Ok(PlaceSolution {
        placement: get_placement(ck, prefix, n)?,
        hpwl: ck.get_f64(&format!("{prefix}hpwl"))?,
        area: ck.get_f64(&format!("{prefix}area"))?,
        stage1_seconds: ck.get_f64(&format!("{prefix}gp_seconds"))?,
        stage2_seconds: ck.get_f64(&format!("{prefix}dp_seconds"))?,
        iterations: ck.get_u64(&format!("{prefix}gp_iterations"))? as usize,
    })
}

fn put_gp(ck: &mut Checkpoint, gp: &GpCheckpoint) {
    ck.put_u64("gp_iter", gp.iter as u64);
    ck.put_f64("gp_lambda", gp.lambda);
    ck.put_f64("gp_tau", gp.tau);
    ck.put_f64("gp_gamma", gp.gamma);
    ck.put_f64("gp_overflow", gp.overflow);
    let s = &gp.nesterov;
    ck.put_f64s("gp_u", &s.u);
    ck.put_f64s("gp_v", &s.v);
    ck.put_f64s("gp_v_prev", &s.v_prev);
    ck.put_f64s("gp_g_prev", &s.g_prev);
    ck.put_f64("gp_a", s.a);
    ck.put_f64("gp_initial_step", s.initial_step);
    ck.put_f64("gp_max_step", s.max_step);
    ck.put_f64("gp_shrink", s.shrink);
    ck.put_f64("gp_g_norm_prev", s.g_norm_prev);
    ck.put_u64("gp_iterations", s.iterations as u64);
    ck.put_u64("gp_safeguard_trips", s.safeguard_trips as u64);
}

fn get_gp(ck: &Checkpoint, n: usize) -> Result<GpCheckpoint, PlaceError> {
    let snapshot = placer_numeric::NesterovSnapshot {
        u: ck.get_f64s("gp_u")?.to_vec(),
        v: ck.get_f64s("gp_v")?.to_vec(),
        v_prev: ck.get_f64s("gp_v_prev")?.to_vec(),
        g_prev: ck.get_f64s("gp_g_prev")?.to_vec(),
        a: ck.get_f64("gp_a")?,
        initial_step: ck.get_f64("gp_initial_step")?,
        max_step: ck.get_f64("gp_max_step")?,
        shrink: ck.get_f64("gp_shrink")?,
        g_norm_prev: ck.get_f64("gp_g_norm_prev")?,
        iterations: ck.get_u64("gp_iterations")? as usize,
        safeguard_trips: ck.get_u64("gp_safeguard_trips")? as usize,
    };
    if snapshot.u.len() != 2 * n
        || snapshot.v.len() != 2 * n
        || snapshot.v_prev.len() != 2 * n
        || snapshot.g_prev.len() != 2 * n
    {
        return Err(bad_checkpoint(
            "optimizer vectors sized for a different circuit".to_string(),
        ));
    }
    Ok(GpCheckpoint {
        iter: ck.get_u64("gp_iter")? as usize,
        lambda: ck.get_f64("gp_lambda")?,
        tau: ck.get_f64("gp_tau")?,
        gamma: ck.get_f64("gp_gamma")?,
        overflow: ck.get_f64("gp_overflow")?,
        nesterov: snapshot,
    })
}

/// Warm trust-region refinement shared by both pipelines' `eco_refine`:
/// fabricates a [`GpCheckpoint`] whose Nesterov state sits at the warm
/// coordinates with a fresh (tight) step budget, then resumes the global
/// placer for the last [`EcoConfig::refine_iters`](crate::EcoConfig)
/// iterations of its schedule. The small `max_step` cap keeps the solver
/// from tearing up the warm layout: devices move at most a couple percent
/// of the region per iteration, and the convergence check exits as soon
/// as the (already near-legal) density overflow is under target.
fn warm_gp_refine(
    config: &PlacerConfig,
    artifacts: &CircuitArtifacts,
    warm: &Placement,
    eco: &crate::EcoConfig,
    hook: Option<&mut crate::global::ExtraGradientFn<'_>>,
) -> (Placement, usize) {
    let cfg = &config.global;
    let circuit = artifacts.circuit();
    let n = circuit.num_devices();
    let side = (circuit.total_device_area() / cfg.utilization).sqrt();
    let (side_x, side_y) = (side * cfg.aspect.sqrt(), side / cfg.aspect.sqrt());
    let density = artifacts.density_grid((0.0, 0.0), (side_x, side_y), cfg.grid);
    let (bin_x, _) = density.bin_size();
    let mut u = vec![0.0; 2 * n];
    for (i, d) in circuit.devices().iter().enumerate() {
        let hw = (d.width / 2.0).min(side_x / 2.0);
        let hh = (d.height / 2.0).min(side_y / 2.0);
        u[i] = warm.positions[i].0.clamp(hw, side_x - hw);
        u[n + i] = warm.positions[i].1.clamp(hh, side_y - hh);
    }
    let start_iter = cfg.max_iters.saturating_sub(eco.refine_iters.max(1));
    let ck = GpCheckpoint {
        iter: start_iter,
        // Conservative re-seeded weights: the schedule's λ/τ normalization
        // lives in the cold path's initial-gradient ratio, which a warm
        // resume cannot reproduce; unit weights with a tight step cap keep
        // the refinement a gentle polish (region repair restores exact
        // legality afterwards regardless).
        lambda: 1.0,
        tau: 1.0,
        gamma: 0.25 * bin_x,
        overflow: 1.0,
        nesterov: placer_numeric::NesterovSnapshot {
            u: u.clone(),
            v: u.clone(),
            v_prev: vec![0.0; 2 * n],
            g_prev: vec![0.0; 2 * n],
            a: 1.0,
            initial_step: bin_x * 0.05,
            max_step: side * 0.02,
            shrink: 1.0,
            g_norm_prev: 0.0,
            iterations: 0,
            safeguard_trips: 0,
        },
    };
    let run = GlobalPlacer::new(cfg.clone()).run_budgeted_with(
        circuit,
        hook,
        None,
        Some(&ck),
        Some(artifacts),
    );
    match run {
        GpRun::Complete(mut p, stats) | GpRun::Exhausted(mut p, stats) => {
            // The GP does not model flips; keep the warm flip states so
            // pinned devices' pins stay where the previous solution put
            // them.
            p.flips = warm.flips.clone();
            (p, stats.iterations.saturating_sub(start_iter))
        }
        GpRun::Cancelled(_) => unreachable!("no budget, cannot cancel"),
    }
}

/// Best-so-far probe shared by both pipelines' checkpoints: prefer the
/// completed-attempt metrics (`best_*`), else score the in-flight Nesterov
/// iterate (`gp_u`, solver layout `[x…, y…]`) with the exact HPWL/area
/// the restart ladder itself ranks by. Pure function of the checkpoint
/// text, as the racing contract requires.
fn probe_engine_checkpoint(
    circuit: &Circuit,
    ck: &Checkpoint,
    placer: &str,
) -> Option<crate::RaceProbe> {
    if ck.placer() != placer {
        return None;
    }
    if ck.get_u64("has_best").ok()? == 1 {
        return Some(crate::RaceProbe {
            hpwl: ck.get_f64("best_hpwl").ok()?,
            area: ck.get_f64("best_area").ok()?,
        });
    }
    let n = circuit.num_devices();
    let u = ck.get_f64s("gp_u").ok()?;
    if u.len() != 2 * n {
        return None;
    }
    let pts: Vec<(f64, f64)> = (0..n).map(|i| (u[i], u[n + i])).collect();
    Some(crate::RaceProbe {
        hpwl: crate::wirelength::exact_hpwl(circuit, &pts),
        area: crate::exact_area(circuit, &pts),
    })
}

/// The ePlace-A analog placer (conventional, performance-oblivious).
///
/// Its engine runs global then detailed placement, keeping the best of
/// `restarts` seeded attempts (by area·HPWL product); a single successful
/// restart suffices, and the legalization ILP's [`PlaceError`] surfaces
/// only when every restart fails.
///
/// # Examples
///
/// ```
/// use analog_netlist::testcases;
/// use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget};
///
/// # fn main() -> Result<(), eplace::PlaceError> {
/// let circuit = testcases::adder();
/// let placer = EPlaceA::new(PlacerConfig::default());
/// let outcome = placer.place(&circuit, &RunBudget::unlimited())?;
/// assert!(outcome.is_complete());
/// assert!(outcome.solution().unwrap().placement.is_legal(&circuit, 1e-6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EPlaceA {
    config: PlacerConfig,
}

impl EPlaceA {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    fn run_engine(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
        resume: Option<&Checkpoint>,
    ) -> Result<PlaceOutcome, PlaceError> {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("eplace_a_place");
        let _span = SPAN.enter();
        let circuit = artifacts.circuit();
        let n = circuit.num_devices();
        let mut best: Option<PlaceSolution> = None;
        let mut last_err: Option<PlaceError> = None;
        let attempts = self.config.restarts.max(1);
        // Restarts vary both the seed and the GP region utilization — the
        // best region density is circuit-dependent.
        let util_ladder = [1.0, 1.0, 1.0, 1.5];
        let mut start_k = 0usize;
        let mut gp_resume: Option<GpCheckpoint> = None;
        if let Some(ck) = resume {
            expect_placer(ck, "eplace-a")?;
            check_n(ck, circuit)?;
            start_k = get_attempt(ck, attempts)?;
            if ck.get_u64("has_best")? == 1 {
                best = Some(get_result(ck, "best_", n)?);
            }
            gp_resume = Some(get_gp(ck, n)?);
        }
        for k in start_k..attempts {
            let mut global_cfg = self.config.global.clone();
            global_cfg.seed = self.config.global.seed + k as u64;
            global_cfg.utilization =
                (global_cfg.utilization * util_ladder[k % util_ladder.len()]).min(0.8);
            let t0 = Instant::now();
            let gp_ck = gp_resume.take();
            let run = GlobalPlacer::new(global_cfg).run_budgeted_with(
                circuit,
                None,
                Some(budget),
                gp_ck.as_ref(),
                Some(artifacts),
            );
            let gp_seconds = t0.elapsed().as_secs_f64();
            let (gp, stats, gp_exhausted) = match run {
                GpRun::Cancelled(gpck) => {
                    let mut out = Checkpoint::new("eplace-a");
                    out.put_u64("n", n as u64);
                    out.put_u64("attempt", k as u64);
                    match &best {
                        Some(b) => {
                            out.put_u64("has_best", 1);
                            put_result(&mut out, "best_", b);
                        }
                        None => out.put_u64("has_best", 0),
                    }
                    put_gp(&mut out, &gpck);
                    return Ok(PlaceOutcome::Cancelled(out));
                }
                GpRun::Complete(gp, stats) => (gp, stats, false),
                GpRun::Exhausted(gp, stats) => (gp, stats, true),
            };
            if gp_exhausted {
                // Deadline hit mid-attempt. If an earlier attempt already
                // produced a legal best, return it without burning more
                // time legalizing the interrupted (inferior) state;
                // otherwise legalize the partial GP so the caller still
                // gets a legal placement.
                if let Some(b) = best {
                    return Ok(PlaceOutcome::Exhausted(b));
                }
                let t1 = Instant::now();
                let dp_result = if self.config.preserve_gp {
                    crate::DetailedPlacer::new(self.config.detailed.clone())
                        .run_preserving(circuit, &gp)
                } else {
                    legalize(circuit, &gp, &self.config.detailed)
                };
                let (placement, dstats) = dp_result?;
                return Ok(PlaceOutcome::Exhausted(PlaceSolution {
                    placement,
                    hpwl: dstats.hpwl,
                    area: dstats.area,
                    stage1_seconds: gp_seconds,
                    stage2_seconds: t1.elapsed().as_secs_f64(),
                    iterations: stats.iterations,
                }));
            }
            let t1 = Instant::now();
            let dp_result = if self.config.preserve_gp {
                crate::DetailedPlacer::new(self.config.detailed.clone())
                    .run_preserving(circuit, &gp)
            } else {
                legalize(circuit, &gp, &self.config.detailed)
            };
            match dp_result {
                Ok((placement, dstats)) => {
                    let candidate = PlaceSolution {
                        placement,
                        hpwl: dstats.hpwl,
                        area: dstats.area,
                        stage1_seconds: best.as_ref().map_or(0.0, |b| b.stage1_seconds)
                            + gp_seconds,
                        stage2_seconds: best.as_ref().map_or(0.0, |b| b.stage2_seconds)
                            + t1.elapsed().as_secs_f64(),
                        iterations: stats.iterations,
                    };
                    let score = |r: &PlaceSolution| r.area * r.hpwl;
                    best = match best {
                        Some(prev) if score(&prev) <= score(&candidate) => Some(PlaceSolution {
                            stage1_seconds: candidate.stage1_seconds,
                            stage2_seconds: candidate.stage2_seconds,
                            ..prev
                        }),
                        _ => Some(candidate),
                    };
                }
                Err(e) => last_err = Some(e),
            }
        }
        match best {
            Some(result) => Ok(PlaceOutcome::Complete(result)),
            None => Err(last_err.expect("at least one attempt ran")),
        }
    }

    /// Runs only global placement (for Table IV's shared-GP comparison).
    pub fn global_only(&self, circuit: &Circuit) -> Placement {
        GlobalPlacer::new(self.config.global.clone()).run(circuit).0
    }
}

impl Placer for EPlaceA {
    fn name(&self) -> &'static str {
        "eplace-a"
    }

    fn place_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts, budget, None)
    }

    fn resume_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts, budget, Some(checkpoint))
    }

    fn eco_refine(
        &self,
        artifacts: &CircuitArtifacts,
        warm: &Placement,
        _dirty: &[bool],
        eco: &crate::EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        Ok(Some(warm_gp_refine(
            &self.config,
            artifacts,
            warm,
            eco,
            None,
        )))
    }

    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<crate::RaceProbe> {
        probe_engine_checkpoint(circuit, checkpoint, "eplace-a")
    }
}

/// The ePlace-AP performance-driven placer: ePlace-A plus the GNN term.
///
/// Its engine runs performance-driven global placement then the
/// (identical) detailed placement of ePlace-A, keeping the best of
/// `restarts` seeded attempts. The selection score multiplies area·HPWL by
/// the model's predicted failure probability Φ of the final placement, so
/// the restart machinery optimizes the same blend as the objective.
#[derive(Debug, Clone)]
pub struct EPlaceAP {
    config: PlacerConfig,
    perf: PerfConfig,
    network: Network,
}

impl EPlaceAP {
    /// Creates a performance-driven placer around a trained model.
    pub fn new(config: PlacerConfig, perf: PerfConfig, network: Network) -> Self {
        Self {
            config,
            perf,
            network,
        }
    }

    fn run_engine(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
        resume: Option<&Checkpoint>,
    ) -> Result<PlaceOutcome, PlaceError> {
        static SPAN: placer_telemetry::SpanStat =
            placer_telemetry::SpanStat::new("eplace_ap_place");
        let _span = SPAN.enter();
        let circuit = artifacts.circuit();
        let n = circuit.num_devices();
        let mut best: Option<(f64, PlaceSolution)> = None;
        let mut last_err: Option<PlaceError> = None;
        let mut total_gp = 0.0;
        let mut total_dp = 0.0;
        let attempts = self.config.restarts.max(1);
        let util_ladder = [1.0, 1.0, 1.0, 1.5];
        // Restarts also sweep the GNN weight α: how hard to lean on the
        // performance model is itself a hyperparameter worth exploring. The
        // α = 0 attempt keeps the conventional solution in the candidate
        // pool, so a poorly-calibrated model cannot make things worse than
        // plain ePlace-A under the same selection score.
        let alpha_ladder = [1.0, 0.5, 2.0, 0.0];
        // Scoring graph + inference scratch, shared across restarts (the
        // topology is fixed; only the position features change).
        let mut graph: Option<placer_gnn::CircuitGraph> = None;
        let mut scratch = placer_gnn::InferenceScratch::new(&self.network, circuit.num_devices());
        let mut start_k = 0usize;
        let mut gp_resume: Option<GpCheckpoint> = None;
        let mut alpha_resume: Option<Option<f64>> = None;
        if let Some(ck) = resume {
            expect_placer(ck, "eplace-ap")?;
            check_n(ck, circuit)?;
            start_k = get_attempt(ck, attempts)?;
            if ck.get_u64("has_best")? == 1 {
                best = Some((ck.get_f64("best_score")?, get_result(ck, "best_", n)?));
            }
            total_gp = ck.get_f64("total_gp")?;
            total_dp = ck.get_f64("total_dp")?;
            gp_resume = Some(get_gp(ck, n)?);
            alpha_resume = Some(ck.opt_f64("ap_alpha_abs")?);
        }
        for k in start_k..attempts {
            let mut global_cfg = self.config.global.clone();
            global_cfg.seed = self.config.global.seed + k as u64;
            global_cfg.utilization =
                (global_cfg.utilization * util_ladder[k % util_ladder.len()]).min(0.8);
            let mut perf_cfg = self.perf.clone();
            perf_cfg.alpha *= alpha_ladder[k % alpha_ladder.len()];
            let t0 = Instant::now();
            // The GNN hook state is per-attempt (α re-normalizes on the
            // attempt's first gradient call); a resumed attempt inherits
            // the interrupted attempt's normalization from the checkpoint
            // so its stream continues exactly.
            let mut hook_state = PerfGradHook::with_topology(
                &artifacts.topology(),
                &self.network,
                perf_cfg.alpha,
                perf_cfg.scale,
            );
            if let Some(alpha_abs) = alpha_resume.take() {
                hook_state.set_alpha_abs(alpha_abs);
            }
            let mut hook =
                |pts: &[(f64, f64)], grad: &mut [f64]| -> f64 { hook_state.eval(pts, grad) };
            let gp_ck = gp_resume.take();
            let run = GlobalPlacer::new(global_cfg).run_budgeted_with(
                circuit,
                Some(&mut hook),
                Some(budget),
                gp_ck.as_ref(),
                Some(artifacts),
            );
            total_gp += t0.elapsed().as_secs_f64();
            let (gp, stats, gp_exhausted) = match run {
                GpRun::Cancelled(gpck) => {
                    let mut out = Checkpoint::new("eplace-ap");
                    out.put_u64("n", n as u64);
                    out.put_u64("attempt", k as u64);
                    match &best {
                        Some((score, b)) => {
                            out.put_u64("has_best", 1);
                            out.put_f64("best_score", *score);
                            put_result(&mut out, "best_", b);
                        }
                        None => out.put_u64("has_best", 0),
                    }
                    out.put_f64("total_gp", total_gp);
                    out.put_f64("total_dp", total_dp);
                    if let Some(alpha_abs) = hook_state.alpha_abs() {
                        out.put_f64("ap_alpha_abs", alpha_abs);
                    }
                    put_gp(&mut out, &gpck);
                    return Ok(PlaceOutcome::Cancelled(out));
                }
                GpRun::Complete(gp, stats) => (gp, stats, false),
                GpRun::Exhausted(gp, stats) => (gp, stats, true),
            };
            if gp_exhausted {
                if let Some((_, mut b)) = best {
                    b.stage1_seconds = total_gp;
                    b.stage2_seconds = total_dp;
                    return Ok(PlaceOutcome::Exhausted(b));
                }
                let t1 = Instant::now();
                let dp = crate::DetailedPlacer::new(self.config.detailed.clone());
                let (placement, dstats) = dp.run_preserving(circuit, &gp)?;
                total_dp += t1.elapsed().as_secs_f64();
                return Ok(PlaceOutcome::Exhausted(PlaceSolution {
                    placement,
                    hpwl: dstats.hpwl,
                    area: dstats.area,
                    stage1_seconds: total_gp,
                    stage2_seconds: total_dp,
                    iterations: stats.iterations,
                }));
            }
            let t1 = Instant::now();
            // Structure-preserving legalization: the GNN guidance lives in
            // the GP's relative ordering, which the reassignment passes of
            // the conventional flow would discard.
            let dp = crate::DetailedPlacer::new(self.config.detailed.clone());
            match dp.run_preserving(circuit, &gp) {
                Ok((placement, dstats)) => {
                    total_dp += t1.elapsed().as_secs_f64();
                    let g = match graph.as_mut() {
                        Some(g) => {
                            g.update_positions(&placement);
                            g
                        }
                        None => graph.insert(placer_gnn::CircuitGraph::from_topology(
                            &artifacts.topology(),
                            &placement.positions,
                            self.perf.scale,
                        )),
                    };
                    let phi = self.network.predict_with(g, &mut scratch);
                    let score = dstats.area * dstats.hpwl * (0.3 + phi);
                    let candidate = PlaceSolution {
                        placement,
                        hpwl: dstats.hpwl,
                        area: dstats.area,
                        stage1_seconds: total_gp,
                        stage2_seconds: total_dp,
                        iterations: stats.iterations,
                    };
                    best = match best {
                        Some((best_score, prev)) if best_score <= score => Some((best_score, prev)),
                        _ => Some((score, candidate)),
                    };
                }
                Err(e) => {
                    total_dp += t1.elapsed().as_secs_f64();
                    last_err = Some(e);
                }
            }
        }
        match best {
            Some((_, mut result)) => {
                result.stage1_seconds = total_gp;
                result.stage2_seconds = total_dp;
                Ok(PlaceOutcome::Complete(result))
            }
            None => Err(last_err.expect("at least one attempt ran")),
        }
    }
}

impl Placer for EPlaceAP {
    fn name(&self) -> &'static str {
        "eplace-ap"
    }

    fn place_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts, budget, None)
    }

    fn resume_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts, budget, Some(checkpoint))
    }

    fn eco_refine(
        &self,
        artifacts: &CircuitArtifacts,
        warm: &Placement,
        _dirty: &[bool],
        eco: &crate::EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        // The GNN term rides along through the same hook as a cold run,
        // evaluated on the patched topology.
        let mut hook_state = PerfGradHook::with_topology(
            &artifacts.topology(),
            &self.network,
            self.perf.alpha,
            self.perf.scale,
        );
        let mut hook = |pts: &[(f64, f64)], grad: &mut [f64]| -> f64 { hook_state.eval(pts, grad) };
        Ok(Some(warm_gp_refine(
            &self.config,
            artifacts,
            warm,
            eco,
            Some(&mut hook),
        )))
    }

    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<crate::RaceProbe> {
        probe_engine_checkpoint(circuit, checkpoint, "eplace-ap")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    /// Runs `placer` to completion through the cold front door.
    fn complete(placer: &dyn Placer, circuit: &Circuit) -> PlaceSolution {
        placer
            .place(circuit, &RunBudget::unlimited())
            .unwrap()
            .into_solution()
            .expect("an unlimited budget completes")
    }

    #[test]
    fn eplace_a_produces_legal_placements() {
        for circuit in [testcases::adder(), testcases::cc_ota()] {
            let result = complete(&EPlaceA::new(PlacerConfig::default()), &circuit);
            assert!(
                result.placement.is_legal(&circuit, 1e-6),
                "{} produced illegal placement",
                circuit.name()
            );
            assert!(result.area >= circuit.total_device_area() * 0.99);
            assert!(result.hpwl > 0.0);
        }
    }

    #[test]
    fn eplace_ap_produces_legal_placements() {
        let circuit = testcases::adder();
        let network = Network::default_config(2);
        let placer = EPlaceAP::new(PlacerConfig::default(), PerfConfig::new(0.5, 20.0), network);
        let result = complete(&placer, &circuit);
        assert!(result.placement.is_legal(&circuit, 1e-6));
    }

    fn small_config() -> PlacerConfig {
        PlacerConfig::builder()
            .restarts(2)
            .max_iters(80)
            .build()
            .unwrap()
    }

    #[test]
    fn eplace_a_cancel_resume_is_bit_identical() {
        let circuit = testcases::adder();
        let placer = EPlaceA::new(small_config());
        let reference = complete(&placer, &circuit);
        // Cancel inside the second attempt's GP as well as the first's.
        for cancel_at in [3, 95] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let outcome = Placer::place(&placer, &circuit, &budget).unwrap();
            let ck = outcome.checkpoint().expect("cancelled").clone();
            // Roundtrip through the text codec like the job engine does.
            let ck = Checkpoint::decode(&ck.encode()).unwrap();
            let resumed = placer
                .resume(&circuit, &ck, &RunBudget::unlimited())
                .unwrap();
            let sol = resumed.solution().expect("resume completes");
            assert!(resumed.is_complete());
            assert_eq!(
                sol.placement, reference.placement,
                "resume after cancel at check {cancel_at} diverged"
            );
            assert_eq!(sol.hpwl.to_bits(), reference.hpwl.to_bits());
        }
    }

    #[test]
    fn eplace_ap_cancel_resume_is_bit_identical() {
        let circuit = testcases::adder();
        let network = Network::default_config(2);
        let placer = EPlaceAP::new(small_config(), PerfConfig::new(0.5, 20.0), network);
        let reference = complete(&placer, &circuit);
        for cancel_at in [0, 11, 90] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let outcome = Placer::place(&placer, &circuit, &budget).unwrap();
            let ck = outcome.checkpoint().expect("cancelled").clone();
            let ck = Checkpoint::decode(&ck.encode()).unwrap();
            let resumed = placer
                .resume(&circuit, &ck, &RunBudget::unlimited())
                .unwrap();
            let sol = resumed.solution().expect("resume completes");
            assert_eq!(
                sol.placement, reference.placement,
                "resume after cancel at check {cancel_at} diverged"
            );
            assert_eq!(sol.hpwl.to_bits(), reference.hpwl.to_bits());
        }
    }

    /// Cancels `placer` on adder at each check in `cancel_at`, moves the
    /// checkpoint's `attempt` past the restart count and asserts that the
    /// resume refuses it.
    fn out_of_range_attempts_are_refused(placer: &dyn Placer, cancel_at: &[u64]) {
        let circuit = testcases::adder();
        for &at in cancel_at {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(at);
            let outcome = Placer::place(placer, &circuit, &budget).unwrap();
            let text = outcome.checkpoint().expect("cancelled").encode();
            let line = text
                .lines()
                .find(|l| l.starts_with("u attempt "))
                .expect("attempt field");
            let ck = Checkpoint::decode(&text.replace(line, "u attempt 7")).unwrap();
            let err = placer
                .resume(&circuit, &ck, &RunBudget::unlimited())
                .unwrap_err();
            assert!(
                matches!(err, PlaceError::BadCheckpoint(_)),
                "cancel at check {at}: {err}"
            );
        }
    }

    #[test]
    fn eplace_a_resume_refuses_an_out_of_range_attempt() {
        // Check 3 is in the first attempt (no best yet), check 95 in the
        // second (a stored best).
        out_of_range_attempts_are_refused(&EPlaceA::new(small_config()), &[3, 95]);
    }

    #[test]
    fn eplace_ap_resume_refuses_an_out_of_range_attempt() {
        let network = Network::default_config(2);
        let placer = EPlaceAP::new(small_config(), PerfConfig::new(0.5, 20.0), network);
        // As for ePlace-A: one check in each attempt.
        out_of_range_attempts_are_refused(&placer, &[11, 90]);
    }

    #[test]
    fn exhausted_runs_return_legal_placements() {
        let circuit = testcases::adder();
        let placer = EPlaceA::new(small_config());
        // Exhaust mid-first-attempt (forces partial-GP legalization) and
        // mid-second-attempt (returns the first attempt's best).
        for steps in [4, 95] {
            let outcome = Placer::place(&placer, &circuit, &RunBudget::steps(steps)).unwrap();
            assert!(outcome.is_exhausted(), "steps {steps}");
            let sol = outcome.solution().unwrap();
            assert!(
                sol.placement.is_legal(&circuit, 1e-6),
                "exhausted placement at {steps} steps must stay legal"
            );
        }
    }

    #[test]
    fn eco_replace_fast_path_is_legal_and_fallback_matches_cold() {
        let circuit = testcases::cc_ota();
        let placer = EPlaceA::new(small_config());
        let artifacts = CircuitArtifacts::build(circuit.clone());
        let cold = complete(&placer, &circuit);
        let warm = crate::eco::warm_checkpoint(&circuit, &cold.placement);
        let delta = analog_netlist::NetlistDelta::parse("resize RB 18k\n").unwrap();

        // Fast path: one dirty device out of 13 stays under the threshold.
        let rep = placer
            .replace(
                &artifacts,
                &delta,
                &warm,
                &RunBudget::unlimited(),
                &crate::EcoConfig::default(),
            )
            .unwrap();
        assert!(rep.outcome.is_fast());
        assert!(rep.dirty_fraction > 0.0 && rep.dirty_fraction < 0.25);
        let sol = rep.outcome.solution().unwrap();
        assert!(sol.placement.is_legal(rep.artifacts.circuit(), 1e-6));

        // Forced fallback is bit-identical to a cold run on the edited
        // circuit.
        let eco0 = crate::EcoConfig {
            dirty_threshold: 0.0,
            ..Default::default()
        };
        let rep2 = placer
            .replace(&artifacts, &delta, &warm, &RunBudget::unlimited(), &eco0)
            .unwrap();
        assert!(!rep2.outcome.is_fast());
        let applied = delta.apply(&circuit).unwrap();
        let cold_edit = complete(&placer, &applied.circuit);
        let fb = rep2.outcome.solution().unwrap();
        assert_eq!(fb.placement, cold_edit.placement);
        assert_eq!(fb.hpwl.to_bits(), cold_edit.hpwl.to_bits());
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let circuit = testcases::adder();
        let placer = EPlaceA::new(small_config());
        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(2);
        let outcome = Placer::place(&placer, &circuit, &budget).unwrap();
        let ck = outcome.checkpoint().unwrap();
        let network = Network::default_config(2);
        let ap = EPlaceAP::new(small_config(), PerfConfig::new(0.5, 20.0), network);
        let err = ap
            .resume(&circuit, ck, &RunBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, PlaceError::BadCheckpoint(_)));
    }
}
