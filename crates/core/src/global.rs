//! Global placement of ePlace-A (Eq. 3) and ePlace-AP (Eq. 5).
//!
//! Minimizes `W(v) + λN(v) + τSym(v) + ηArea(v) [+ αΦ(G)]` with Nesterov
//! accelerated gradient descent and Lipschitz step estimation, exactly the
//! solver structure of ePlace \[15\]: the density weight λ grows while the
//! overflow is above target, the WA smoothing γ anneals, and (for Table I's
//! hard-constraint variant) positions are projected onto the
//! symmetry-feasible set after every step.

use analog_netlist::{Circuit, Placement};
use placer_numeric::{NesterovSnapshot, NesterovState};

use crate::area::{area_term, AreaScratch};
use crate::budget::{BudgetStatus, RunBudget};
use crate::density::DensityGrid;
use crate::symmetry::{project_symmetry, symmetry_penalty};
use crate::wirelength::{exact_hpwl, smoothed_wirelength_with, WirelengthScratch};
use crate::{GlobalConfig, SymmetryMode};

/// Statistics of a global placement run.
#[derive(Debug, Clone)]
pub struct GlobalStats {
    /// Nesterov iterations executed.
    pub iterations: usize,
    /// Final density overflow.
    pub overflow: f64,
    /// Exact HPWL of the result (µm).
    pub hpwl: f64,
    /// Side length of the placement region (µm).
    pub region_side: f64,
}

/// Resumable snapshot of the global-placement loop, captured at an
/// iteration boundary (before any of that iteration's work). Everything
/// not stored here — region geometry, the density grid, the η constant —
/// is a deterministic function of circuit + config and is recomputed on
/// resume, so restarting from a checkpoint continues the optimization
/// bit-for-bit. λ and τ are stored, so a resume skips the density and
/// symmetry evaluations a fresh start normalizes them from.
#[derive(Debug, Clone, PartialEq)]
pub struct GpCheckpoint {
    /// Iteration the loop was about to execute.
    pub iter: usize,
    /// Current density weight λ.
    pub lambda: f64,
    /// Current symmetry weight τ.
    pub tau: f64,
    /// Current WA smoothing parameter γ.
    pub gamma: f64,
    /// Overflow of the last evaluated iteration.
    pub overflow: f64,
    /// Full optimizer state (positions, velocity, step estimate).
    pub nesterov: NesterovSnapshot,
}

/// Outcome of a budgeted global-placement run.
#[derive(Debug, Clone)]
pub enum GpRun {
    /// Converged (overflow target hit or `max_iters` spent).
    Complete(Placement, GlobalStats),
    /// Budget expired; best-so-far positions at the interruption boundary.
    Exhausted(Placement, GlobalStats),
    /// Cancelled; resume from the checkpoint to finish bit-for-bit.
    Cancelled(Box<GpCheckpoint>),
}

/// Extra objective hook: given positions, accumulate an additional gradient
/// (already weighted) into `grad` (`[dx…, dy…]`) and return the term value.
/// ePlace-AP plugs the GNN gradient in through this.
pub type ExtraGradientFn<'a> = dyn FnMut(&[(f64, f64)], &mut [f64]) -> f64 + 'a;

impl GpRun {
    /// The result of a run under a fresh [`RunBudget::unlimited`], which
    /// neither exhausts nor cancels.
    pub(crate) fn into_complete(self) -> (Placement, GlobalStats) {
        match self {
            GpRun::Complete(p, s) => (p, s),
            _ => unreachable!("a fresh unlimited budget neither exhausts nor cancels"),
        }
    }
}

/// The ePlace-A global placement engine.
#[derive(Debug, Clone)]
pub struct GlobalPlacer {
    config: GlobalConfig,
}

impl GlobalPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: GlobalConfig) -> Self {
        Self { config }
    }

    /// Runs global placement (conventional formulation, Eq. 3) to
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has no devices.
    pub fn run(&self, circuit: &Circuit) -> (Placement, GlobalStats) {
        self.run_budgeted(circuit, None, &RunBudget::unlimited(), None, None)
            .into_complete()
    }

    /// Runs global placement under a [`RunBudget`], with an optional extra
    /// gradient term (Eq. 5), optionally resuming from a [`GpCheckpoint`].
    ///
    /// The budget is checked once per Nesterov iteration, at the iteration
    /// boundary — which is also the checkpoint boundary, so a cancelled
    /// run's checkpoint resumes with no recomputed or skipped work.
    ///
    /// When `artifacts` is given, the density grid (DCT plans + Poisson
    /// eigenvalue tables) is cloned from the circuit's cached template
    /// instead of planned from scratch. Grid construction is
    /// deterministic, so results are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has no devices, or if `resume` carries
    /// optimizer vectors sized for a different circuit.
    pub fn run_budgeted(
        &self,
        circuit: &Circuit,
        mut extra: Option<&mut ExtraGradientFn<'_>>,
        budget: &RunBudget,
        resume: Option<&GpCheckpoint>,
        artifacts: Option<&crate::CircuitArtifacts>,
    ) -> GpRun {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("gp_run");
        let _span = SPAN.enter();
        let n = circuit.num_devices();
        assert!(n > 0, "cannot place an empty circuit");
        let cfg = &self.config;
        let total_area = circuit.total_device_area();
        let side = (total_area / cfg.utilization).sqrt();
        // The aspect splits the fixed region area into W×H; √1 = 1 makes
        // the default square region bit-identical to the pre-aspect path.
        let (side_x, side_y) = (side * cfg.aspect.sqrt(), side / cfg.aspect.sqrt());
        // Utilization enters through the region side above; see
        // `DensityGrid::new` on why it takes no target parameter.
        let mut density = match artifacts {
            Some(a) => a.density_grid((0.0, 0.0), (side_x, side_y), cfg.grid),
            None => DensityGrid::new((0.0, 0.0), (side_x, side_y), cfg.grid),
        };
        let (bin_x, _) = density.bin_size();

        // Deterministic golden-angle spiral seed around the region center.
        let mut v0 = vec![0.0; 2 * n];
        let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
        for i in 0..n {
            let rx = side_x * 0.18 * ((i as f64 + 0.5) / n as f64).sqrt();
            let ry = side_y * 0.18 * ((i as f64 + 0.5) / n as f64).sqrt();
            let theta = golden * (i as f64 + cfg.seed as f64);
            v0[i] = side_x / 2.0 + rx * theta.cos();
            v0[n + i] = side_y / 2.0 + ry * theta.sin();
        }
        let clamp_positions = |v: &mut [f64]| {
            for (i, d) in circuit.devices().iter().enumerate() {
                let hw = (d.width / 2.0).min(side_x / 2.0);
                let hh = (d.height / 2.0).min(side_y / 2.0);
                v[i] = v[i].clamp(hw, side_x - hw);
                v[n + i] = v[n + i].clamp(hh, side_y - hh);
            }
        };
        clamp_positions(&mut v0);
        // Point views of the flat iterate, kept for the whole run: `pts` is
        // each iteration's gradient-evaluation point, `projected` the
        // hard-symmetry projection of the stepped iterate.
        let mut pts = vec![(0.0, 0.0); n];
        let mut projected = vec![(0.0, 0.0); n];
        if cfg.symmetry == SymmetryMode::Hard {
            load_points(&v0, &mut projected);
            project_symmetry(circuit, &mut projected);
            from_points(&projected, &mut v0);
        }

        // --- Weight normalization from initial gradient magnitudes. -------
        // η is not checkpointed, so every run derives it from the WA and
        // area norms at the spiral seed. λ, τ and the overflow come from
        // the density and symmetry terms there on a fresh start only: a
        // resume overwrites all three from its checkpoint, so it skips
        // them (the density grid carries no state between evaluations).
        let mut gamma = cfg.gamma_bins * bin_x;
        load_points(&v0, &mut pts);
        let mut g_wl = vec![0.0; 2 * n];
        let mut wl_scratch = WirelengthScratch::new();
        smoothed_wirelength_with(
            circuit,
            &pts,
            gamma,
            &mut g_wl,
            cfg.smoothing,
            &mut wl_scratch,
        );
        let mut g_density = vec![0.0; 2 * n];
        let mut g_area = vec![0.0; 2 * n];
        let mut area_scratch = AreaScratch::new();
        area_term(circuit, &pts, gamma, 1.0, &mut g_area, &mut area_scratch);
        let mean_area = total_area / n as f64;
        let l1 = |g: &[f64]| g.iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
        let wl_norm = l1(&g_wl);
        let eta = cfg.eta_scale * wl_norm / l1(&g_area);

        // --- Nesterov loop. -------------------------------------------------
        // On resume, every value above (region, grid, η) was recomputed
        // deterministically; only the loop-carried state comes from the
        // checkpoint.
        let mut state;
        let mut lambda;
        let mut tau;
        let mut overflow;
        let mut iterations;
        let start_iter;
        match resume {
            Some(ck) => {
                assert_eq!(
                    ck.nesterov.u.len(),
                    2 * n,
                    "checkpoint optimizer state sized for a different circuit"
                );
                state = NesterovState::restore(ck.nesterov.clone());
                lambda = ck.lambda;
                tau = ck.tau;
                gamma = ck.gamma;
                overflow = ck.overflow;
                iterations = ck.iter;
                start_iter = ck.iter;
            }
            None => {
                let eval0 = density.evaluate(circuit, &pts, &mut g_density);
                let mut g_sym = vec![0.0; 2 * n];
                symmetry_penalty(circuit, &pts, 1.0, &mut g_sym);
                lambda = cfg.lambda_scale * wl_norm / l1(&g_density);
                tau = cfg.tau_scale * wl_norm / l1(&g_sym);
                state = NesterovState::new(v0, bin_x * 0.25);
                state.set_max_step(side * 0.1);
                overflow = eval0.overflow;
                iterations = 0;
                start_iter = 0;
            }
        }
        // Every buffer the loop touches was allocated above, so an
        // iteration performs no heap allocation.
        let mut grad = vec![0.0; 2 * n];
        let gamma_min = 0.25 * bin_x;
        let mut exhausted = false;
        for iter in start_iter..cfg.max_iters {
            match budget.check() {
                BudgetStatus::Continue => {}
                BudgetStatus::Exhausted => {
                    exhausted = true;
                    break;
                }
                BudgetStatus::Cancelled => {
                    return GpRun::Cancelled(Box::new(GpCheckpoint {
                        iter,
                        lambda,
                        tau,
                        gamma,
                        overflow,
                        nesterov: state.snapshot(),
                    }));
                }
            }
            iterations = iter + 1;
            load_points(state.reference(), &mut pts);
            grad.iter_mut().for_each(|g| *g = 0.0);
            smoothed_wirelength_with(
                circuit,
                &pts,
                gamma,
                &mut grad,
                cfg.smoothing,
                &mut wl_scratch,
            );
            let eval = density.evaluate(circuit, &pts, &mut g_density);
            placer_simd::axpy(&mut grad, lambda, &g_density);
            symmetry_penalty(circuit, &pts, tau, &mut grad);
            if eta > 0.0 {
                area_term(circuit, &pts, gamma, eta, &mut grad, &mut area_scratch);
            }
            if let Some(hook) = extra.as_deref_mut() {
                hook(&pts, &mut grad);
            }
            // Jacobi preconditioning (as in ePlace): normalize each
            // device's gradient by its charge (area), so large passives do
            // not dominate the step direction.
            for (i, d) in circuit.devices().iter().enumerate() {
                let q = (d.area() / mean_area).max(0.25);
                grad[i] /= q;
                grad[n + i] /= q;
            }
            let step_len = state.step(&grad);
            clamp_positions(state.reference_mut());
            if cfg.symmetry == SymmetryMode::Hard {
                load_points(state.reference(), &mut projected);
                project_symmetry(circuit, &mut projected);
                from_points(&projected, state.reference_mut());
            }
            overflow = eval.overflow;
            if overflow > cfg.overflow_target {
                lambda *= cfg.lambda_growth;
                state.notify_objective_change();
            }
            if placer_telemetry::active() {
                // `pts` is the gradient-evaluation point this iteration, so
                // the exact HPWL here costs one net sweep and no allocation.
                placer_telemetry::record(
                    "gp_iter",
                    &[
                        ("iter", iter as f64),
                        ("max_iters", cfg.max_iters as f64),
                        ("overflow", overflow),
                        ("hpwl", exact_hpwl(circuit, &pts)),
                        ("step", step_len),
                        ("lambda", lambda),
                        ("tau", tau),
                        ("gamma", gamma),
                        ("safeguard_trips", state.safeguard_trips() as f64),
                    ],
                );
            }
            // Anneal the soft symmetry penalty upward so the GP converges
            // to a near-feasible symmetric structure (legalization then
            // needs only small moves) while staying explorative early on.
            tau *= 1.02;
            gamma = (gamma * 0.995).max(gamma_min);
            if overflow < cfg.overflow_target && iter > 60 {
                break;
            }
        }

        let mut solution = state.solution().to_vec();
        clamp_positions(&mut solution);
        load_points(&solution, &mut pts);
        if cfg.symmetry == SymmetryMode::Hard {
            project_symmetry(circuit, &mut pts);
        }
        let hpwl = exact_hpwl(circuit, &pts);
        if placer_telemetry::active() {
            placer_telemetry::record(
                "gp_done",
                &[
                    ("iterations", iterations as f64),
                    ("overflow", overflow),
                    ("hpwl", hpwl),
                    ("safeguard_trips", state.safeguard_trips() as f64),
                ],
            );
            // Drain this thread's ring outside the iteration loop.
            placer_telemetry::flush();
        }
        let placement = Placement::from_positions(pts);
        let stats = GlobalStats {
            iterations,
            overflow,
            hpwl,
            region_side: side,
        };
        if exhausted {
            GpRun::Exhausted(placement, stats)
        } else {
            GpRun::Complete(placement, stats)
        }
    }
}

/// Loads the flat solver layout `[x…, y…]` into `points`.
fn load_points(flat: &[f64], points: &mut [(f64, f64)]) {
    let n = points.len();
    for (i, p) in points.iter_mut().enumerate() {
        *p = (flat[i], flat[n + i]);
    }
}

fn from_points(points: &[(f64, f64)], flat: &mut [f64]) {
    let n = points.len();
    for (i, &(x, y)) in points.iter().enumerate() {
        flat[i] = x;
        flat[n + i] = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    fn run(circuit: &Circuit, cfg: GlobalConfig) -> (Placement, GlobalStats) {
        GlobalPlacer::new(cfg).run(circuit)
    }

    #[test]
    fn global_placement_spreads_devices() {
        let c = testcases::cc_ota();
        let (p, stats) = run(&c, GlobalConfig::default());
        // Overlap should be far below the fully-stacked initial state.
        let stacked = Placement::new(c.num_devices());
        assert!(p.overlap_area(&c) < 0.5 * stacked.overlap_area(&c));
        assert!(stats.overflow < 0.5, "overflow {}", stats.overflow);
        assert!(stats.hpwl > 0.0);
    }

    #[test]
    fn devices_stay_inside_region() {
        let c = testcases::comp2();
        let (p, stats) = run(&c, GlobalConfig::default());
        for (i, d) in c.devices().iter().enumerate() {
            let (x, y) = p.positions[i];
            assert!(x >= d.width / 2.0 - 1e-6 && x <= stats.region_side - d.width / 2.0 + 1e-6);
            assert!(y >= d.height / 2.0 - 1e-6 && y <= stats.region_side - d.height / 2.0 + 1e-6);
        }
    }

    #[test]
    fn soft_symmetry_keeps_violation_small() {
        let c = testcases::cc_ota();
        let (p, _) = run(&c, GlobalConfig::default());
        let side = (c.total_device_area() / 0.35).sqrt();
        assert!(
            p.symmetry_violation(&c) < 0.25 * side,
            "violation {} vs side {side}",
            p.symmetry_violation(&c)
        );
    }

    #[test]
    fn hard_symmetry_is_exact() {
        let c = testcases::cc_ota();
        let cfg = GlobalConfig {
            symmetry: SymmetryMode::Hard,
            ..GlobalConfig::default()
        };
        let (p, _) = run(&c, cfg);
        assert!(p.symmetry_violation(&c) < 1e-9);
    }

    #[test]
    fn area_term_reduces_bounding_box() {
        let c = testcases::cm_ota1();
        let with_area = run(
            &c,
            GlobalConfig {
                seed: 3,
                ..GlobalConfig::default()
            },
        )
        .0;
        let without_area = run(
            &c,
            GlobalConfig {
                eta_scale: 0.0,
                seed: 3,
                ..GlobalConfig::default()
            },
        )
        .0;
        assert!(
            with_area.area(&c) < 1.3 * without_area.area(&c),
            "area term should not blow up the bounding box: {} vs {}",
            with_area.area(&c),
            without_area.area(&c)
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = testcases::adder();
        let a = run(&c, GlobalConfig::default()).0;
        let b = run(&c, GlobalConfig::default()).0;
        assert_eq!(a, b);
    }

    #[test]
    fn cancel_then_resume_is_bit_identical() {
        let c = testcases::cc_ota();
        let placer = GlobalPlacer::new(GlobalConfig {
            max_iters: 120,
            ..GlobalConfig::default()
        });
        let (baseline, base_stats) = placer.run(&c);
        // The run converges after 60-odd iterations, so stay below that.
        for cancel_at in [0, 1, 7, 45] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let GpRun::Cancelled(ck) = placer.run_budgeted(&c, None, &budget, None, None) else {
                panic!("expected cancellation at check {cancel_at}");
            };
            assert_eq!(ck.iter as u64, cancel_at);
            let resume_budget = RunBudget::unlimited();
            let GpRun::Complete(p, s) =
                placer.run_budgeted(&c, None, &resume_budget, Some(&ck), None)
            else {
                panic!("resume must complete");
            };
            assert_eq!(p, baseline, "resume from iter {cancel_at} diverged");
            assert_eq!(s.hpwl.to_bits(), base_stats.hpwl.to_bits());
            assert_eq!(s.iterations, base_stats.iterations);
        }
    }

    #[test]
    fn repeated_cancellation_still_converges_exactly() {
        let c = testcases::adder();
        let placer = GlobalPlacer::new(GlobalConfig {
            max_iters: 100,
            ..GlobalConfig::default()
        });
        let (baseline, _) = placer.run(&c);
        // Interrupt every 9 iterations until the run completes.
        let mut checkpoint: Option<GpCheckpoint> = None;
        let final_placement = loop {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(9);
            match placer.run_budgeted(&c, None, &budget, checkpoint.as_ref(), None) {
                GpRun::Complete(p, _) => break p,
                GpRun::Cancelled(ck) => checkpoint = Some(*ck),
                GpRun::Exhausted(..) => panic!("no deadline set"),
            }
        };
        assert_eq!(final_placement, baseline);
    }

    #[test]
    fn exhaustion_stops_at_the_step_budget() {
        let c = testcases::cc_ota();
        let placer = GlobalPlacer::new(GlobalConfig::default());
        let budget = RunBudget::steps(5);
        let GpRun::Exhausted(p, s) = placer.run_budgeted(&c, None, &budget, None, None) else {
            panic!("step budget must exhaust");
        };
        assert_eq!(s.iterations, 5);
        assert_eq!(p.len(), c.num_devices());
    }

    #[test]
    fn extra_gradient_hook_is_invoked() {
        let c = testcases::adder();
        let mut calls = 0usize;
        let mut hook = |_pts: &[(f64, f64)], _grad: &mut [f64]| -> f64 {
            calls += 1;
            0.0
        };
        let placer = GlobalPlacer::new(GlobalConfig {
            max_iters: 10,
            ..GlobalConfig::default()
        });
        let _ = placer.run_budgeted(&c, Some(&mut hook), &RunBudget::unlimited(), None, None);
        assert!(calls >= 10);
    }
}
