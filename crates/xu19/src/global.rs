//! Global placement of the ISPD'19 baseline \[11\]: LSE wirelength +
//! bell-shaped density + soft symmetry, **no area term**, solved with
//! nonlinear conjugate gradient (the NTUplace3 lineage).

use analog_netlist::{Circuit, Placement};
use placer_numeric::{minimize_cg, CgObjective, CgOptions};

use crate::bell::BellDensity;
use crate::lse::LseWirelength;
use eplace::{symmetry_penalty, symmetry_value, BudgetStatus, ConfigError, RunBudget};

/// Configuration of the baseline's global placement.
#[derive(Debug, Clone)]
pub struct Xu19GlobalConfig {
    /// Bin grid dimension per axis.
    pub bins: usize,
    /// Region utilization target.
    pub utilization: f64,
    /// Region aspect ratio W/H. W = side·√aspect, H = side/√aspect; 1.0 is
    /// the square region and is bit-identical to the pre-aspect behavior.
    pub aspect: f64,
    /// LSE smoothing γ as a multiple of the bin size.
    pub gamma_bins: f64,
    /// Density weight multiplier per outer round.
    pub beta_growth: f64,
    /// Outer rounds (density reweighting steps).
    pub rounds: usize,
    /// CG iterations per round.
    pub cg_iters: usize,
    /// Symmetry penalty scale.
    pub tau_scale: f64,
    /// Deterministic seed for the initial spread.
    pub seed: u64,
}

impl Default for Xu19GlobalConfig {
    fn default() -> Self {
        Self {
            bins: 24,
            utilization: 0.35,
            aspect: 1.0,
            gamma_bins: 2.0,
            beta_growth: 2.0,
            rounds: 8,
            cg_iters: 60,
            tau_scale: 0.6,
            seed: 1,
        }
    }
}

impl Xu19GlobalConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> Xu19GlobalConfigBuilder {
        Xu19GlobalConfigBuilder {
            config: Xu19GlobalConfig::default(),
        }
    }

    /// Checks every field; [`Xu19GlobalConfigBuilder::build`] calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bins < 2 {
            return Err(ConfigError::new("xu19.bins", "must be >= 2"));
        }
        eplace::require_fraction("xu19.utilization", self.utilization, 0.0, 1.0)?;
        eplace::require_positive("xu19.aspect", self.aspect)?;
        eplace::require_positive("xu19.gamma_bins", self.gamma_bins)?;
        if !self.beta_growth.is_finite() || self.beta_growth < 1.0 {
            return Err(ConfigError::new(
                "xu19.beta_growth",
                format!("must be finite and >= 1, got {}", self.beta_growth),
            ));
        }
        if self.rounds == 0 {
            return Err(ConfigError::new("xu19.rounds", "must be > 0"));
        }
        if self.cg_iters == 0 {
            return Err(ConfigError::new("xu19.cg_iters", "must be > 0"));
        }
        eplace::require_nonnegative("xu19.tau_scale", self.tau_scale)?;
        Ok(())
    }
}

/// Validating builder for [`Xu19GlobalConfig`]; see
/// [`Xu19GlobalConfig::builder`].
#[derive(Debug, Clone)]
pub struct Xu19GlobalConfigBuilder {
    config: Xu19GlobalConfig,
}

impl Xu19GlobalConfigBuilder {
    /// Sets the bin grid dimension per axis.
    pub fn bins(mut self, bins: usize) -> Self {
        self.config.bins = bins;
        self
    }

    /// Sets the region utilization target (must end up in `(0, 1]`).
    pub fn utilization(mut self, utilization: f64) -> Self {
        self.config.utilization = utilization;
        self
    }

    /// Sets the region aspect ratio W/H (must end up finite and positive).
    pub fn aspect(mut self, aspect: f64) -> Self {
        self.config.aspect = aspect;
        self
    }

    /// Sets the LSE smoothing γ as a multiple of the bin size.
    pub fn gamma_bins(mut self, gamma_bins: f64) -> Self {
        self.config.gamma_bins = gamma_bins;
        self
    }

    /// Sets the density weight multiplier per outer round.
    pub fn beta_growth(mut self, beta_growth: f64) -> Self {
        self.config.beta_growth = beta_growth;
        self
    }

    /// Sets the number of outer rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.rounds = rounds;
        self
    }

    /// Sets the CG iterations per round.
    pub fn cg_iters(mut self, cg_iters: usize) -> Self {
        self.config.cg_iters = cg_iters;
        self
    }

    /// Sets the symmetry penalty scale.
    pub fn tau_scale(mut self, tau_scale: f64) -> Self {
        self.config.tau_scale = tau_scale;
        self
    }

    /// Sets the deterministic seed for the initial spread.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the finished config.
    pub fn build(self) -> Result<Xu19GlobalConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Statistics of a baseline global placement run.
#[derive(Debug, Clone)]
pub struct Xu19GlobalStats {
    /// Total CG iterations across rounds.
    pub iterations: usize,
    /// Final density overflow.
    pub overflow: f64,
    /// Region side (µm).
    pub region_side: f64,
}

/// Runs the baseline's global placement.
///
/// # Panics
///
/// Panics if the circuit has no devices.
pub fn run_global(circuit: &Circuit, cfg: &Xu19GlobalConfig) -> (Placement, Xu19GlobalStats) {
    run_global_budgeted(circuit, cfg, None, &RunBudget::unlimited(), None).into_complete()
}

/// Extra gradient hook type (used by the Perf* extension of Table V/VII).
pub type ExtraGradientFn<'a> = dyn FnMut(&[(f64, f64)], &mut [f64]) -> f64 + 'a;

/// A baseline global placement frozen at an outer-round boundary.
///
/// The normalization pass (spiral spread, gradient-derived `tau`) is a pure
/// function of circuit and config, so only the evolving quantities are
/// stored; [`run_global_budgeted`] recomputes the rest deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Xu19Checkpoint {
    /// The next outer round to run.
    pub round: usize,
    /// Flat coordinates (`x[0..n]`, `y[n..2n]`) at the boundary.
    pub x: Vec<f64>,
    /// Density weight at the boundary.
    pub beta: f64,
    /// CG iterations spent so far.
    pub iterations: usize,
    /// Density overflow after the last finished round.
    pub overflow: f64,
}

/// What a budgeted baseline global placement produced.
#[derive(Debug, Clone)]
pub enum Xu19Run {
    /// Ran to convergence (overflow target or round limit).
    Complete(Placement, Xu19GlobalStats),
    /// Budget expired; coordinates as of the last finished round.
    Exhausted(Placement, Xu19GlobalStats),
    /// Cancelled at a round boundary; resume to finish bit-for-bit.
    Cancelled(Box<Xu19Checkpoint>),
}

impl Xu19Run {
    /// The result of a run under a fresh [`RunBudget::unlimited`], which
    /// neither exhausts nor cancels.
    pub(crate) fn into_complete(self) -> (Placement, Xu19GlobalStats) {
        match self {
            Xu19Run::Complete(p, s) => (p, s),
            _ => unreachable!("a fresh unlimited budget neither exhausts nor cancels"),
        }
    }
}

/// The L1 norm of a gradient, floored away from zero for the weight ratios.
fn l1(g: &[f64]) -> f64 {
    g.iter().map(|v| v.abs()).sum::<f64>().max(1e-12)
}

/// Xu19's global-placement terms, `WL + β·D + τ·Sym`, with every buffer
/// they touch: the bell grid and its kernel tables, the LSE pin table and
/// buffers, the point view of the flat iterate and the density gradient.
/// Built once per run, with the weights set per round; no pass allocates.
///
/// The value pass spreads the bell density and prices all three terms,
/// keeping the bell tables and the LSE exponentials; the gradient pass
/// builds each term's gradient from them.
struct Terms<'c> {
    circuit: &'c Circuit,
    bell: BellDensity,
    lse: LseWirelength,
    gamma: f64,
    pts: Vec<(f64, f64)>,
    g_bell: Vec<f64>,
    /// The density weight β of the running round.
    beta: f64,
    /// The symmetry weight τ.
    tau: f64,
}

impl<'c> Terms<'c> {
    fn new(circuit: &'c Circuit, bell: BellDensity, gamma: f64) -> Self {
        let n = circuit.num_devices();
        Self {
            circuit,
            bell,
            lse: LseWirelength::new(circuit),
            gamma,
            pts: vec![(0.0, 0.0); n],
            g_bell: vec![0.0; 2 * n],
            beta: 0.0,
            tau: 0.0,
        }
    }

    /// Loads the flat iterate `v` (`x[0..n]`, `y[n..2n]`) into `pts`.
    fn load(&mut self, v: &[f64]) {
        let n = self.pts.len();
        for (i, p) in self.pts.iter_mut().enumerate() {
            *p = (v[i], v[n + i]);
        }
    }

    /// Loads `v` and spreads the bell density there.
    fn spread(&mut self, v: &[f64]) {
        self.load(v);
        self.bell.spread(self.circuit, &self.pts);
    }

    /// The density overflow at `v`.
    fn overflow(&mut self, v: &[f64]) -> f64 {
        self.spread(v);
        self.bell.overflow(self.circuit)
    }

    /// L1 norms of the wirelength and symmetry gradients at `v`, each at
    /// unit weight: the scales τ and a fresh run's β start from.
    fn gradient_norms(&mut self, v: &[f64]) -> (f64, f64) {
        self.load(v);
        let mut g = vec![0.0; v.len()];
        self.lse.value(&self.pts, self.gamma);
        self.lse.gradient(&mut g);
        let wl = l1(&g);
        g.fill(0.0);
        symmetry_penalty(self.circuit, &self.pts, 1.0, &mut g);
        (wl, l1(&g))
    }

    /// L1 norm of the density gradient at `v` at unit weight. Only a fresh
    /// run reads it: a resume takes β from its checkpoint.
    fn density_norm(&mut self, v: &[f64]) -> f64 {
        self.spread(v);
        self.g_bell.fill(0.0);
        self.bell.gradient(1.0, &mut self.g_bell);
        l1(&self.g_bell)
    }

    /// The terms' value at `v`.
    fn value(&mut self, v: &[f64]) -> f64 {
        self.spread(v);
        let pen = self.bell.penalty();
        let wl = self.lse.value(&self.pts, self.gamma);
        let sym = symmetry_value(self.circuit, &self.pts);
        wl + self.beta * pen + self.tau * sym
    }

    /// Overwrites `grad` with the terms' gradient at the last
    /// [`value`](Self::value) point.
    fn gradient(&mut self, grad: &mut [f64]) {
        self.lse.gradient(grad);
        self.g_bell.fill(0.0);
        self.bell.gradient(self.beta, &mut self.g_bell);
        for (g, gb) in grad.iter_mut().zip(&self.g_bell) {
            *g += gb;
        }
        symmetry_penalty(self.circuit, &self.pts, self.tau, grad);
    }
}

/// The Perf* hook and the full gradient at the last value point, which it
/// extends.
struct Perf<'h, 'e> {
    hook: &'h mut ExtraGradientFn<'e>,
    grad: Vec<f64>,
}

/// The objective Xu19's CG minimizes: the [`Terms`], plus the Perf* hook
/// when there is one. The hook normalizes α on its first call against the
/// gradient accumulated before it, so with a hook the value pass takes the
/// full gradient as well.
struct Objective<'c, 'h, 'e> {
    terms: Terms<'c>,
    perf: Option<Perf<'h, 'e>>,
}

impl CgObjective for Objective<'_, '_, '_> {
    fn value(&mut self, v: &[f64]) -> f64 {
        let value = self.terms.value(v);
        let extra = match &mut self.perf {
            Some(perf) => {
                self.terms.gradient(&mut perf.grad);
                (perf.hook)(&self.terms.pts, &mut perf.grad)
            }
            None => 0.0,
        };
        value + extra
    }

    fn gradient(&mut self, grad: &mut [f64]) {
        match &self.perf {
            Some(perf) => grad.copy_from_slice(&perf.grad),
            None => self.terms.gradient(grad),
        }
    }
}

/// [`run_global`] under a [`RunBudget`], checked once per outer round (the
/// checkpoint granularity), with an optional extra gradient term (the
/// Perf* variant), optionally resuming a cancelled run.
pub fn run_global_budgeted(
    circuit: &Circuit,
    cfg: &Xu19GlobalConfig,
    extra: Option<&mut ExtraGradientFn<'_>>,
    budget: &RunBudget,
    resume: Option<&Xu19Checkpoint>,
) -> Xu19Run {
    static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("xu19_global");
    let _span = SPAN.enter();
    let n = circuit.num_devices();
    assert!(n > 0, "cannot place an empty circuit");
    let side = (circuit.total_device_area() / cfg.utilization).sqrt();
    let (side_x, side_y) = (side * cfg.aspect.sqrt(), side / cfg.aspect.sqrt());
    let bell = BellDensity::new(
        (0.0, 0.0),
        (side_x, side_y),
        cfg.bins,
        cfg.bins,
        cfg.utilization,
    );
    let gamma = cfg.gamma_bins * side / cfg.bins as f64;
    let mut objective = Objective {
        terms: Terms::new(circuit, bell, gamma),
        perf: extra.map(|hook| Perf {
            hook,
            grad: vec![0.0; 2 * n],
        }),
    };

    // Deterministic initial spread (same spiral as ePlace-A for fairness).
    let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
    let mut x = vec![0.0; 2 * n];
    for i in 0..n {
        let rx = side_x * 0.18 * ((i as f64 + 0.5) / n as f64).sqrt();
        let ry = side_y * 0.18 * ((i as f64 + 0.5) / n as f64).sqrt();
        let theta = golden * (i as f64 + cfg.seed as f64);
        x[i] = side_x / 2.0 + rx * theta.cos();
        x[n + i] = side_y / 2.0 + ry * theta.sin();
    }

    // Normalize weights from initial gradients.
    let (wl_norm, sym_norm) = objective.terms.gradient_norms(&x);
    objective.terms.tau = cfg.tau_scale * wl_norm / sym_norm;

    let mut beta;
    let mut iterations = 0;
    let mut overflow = 1.0;
    let start_round = match resume {
        Some(ck) => {
            assert_eq!(ck.x.len(), 2 * n, "checkpoint sized for another circuit");
            x.copy_from_slice(&ck.x);
            beta = ck.beta;
            iterations = ck.iterations;
            overflow = ck.overflow;
            ck.round
        }
        None => {
            beta = 0.2 * wl_norm / objective.terms.density_norm(&x);
            0
        }
    };
    let mut exhausted = false;
    for round in start_round..cfg.rounds {
        // Budget granularity == checkpoint granularity: one check per
        // outer round, never inside the CG solve.
        match budget.check() {
            BudgetStatus::Continue => {}
            BudgetStatus::Exhausted => {
                exhausted = true;
                break;
            }
            BudgetStatus::Cancelled => {
                return Xu19Run::Cancelled(Box::new(Xu19Checkpoint {
                    round,
                    x,
                    beta,
                    iterations,
                    overflow,
                }));
            }
        }
        let opts = CgOptions {
            max_iters: cfg.cg_iters,
            grad_tol: 1e-5,
            initial_step: side / cfg.bins as f64 * 0.5,
            ..CgOptions::default()
        };
        objective.terms.beta = beta;
        let result = minimize_cg(&mut objective, std::mem::take(&mut x), &opts);
        x = result.x;
        iterations += result.iterations;
        // Clamp into the region.
        for (i, d) in circuit.devices().iter().enumerate() {
            let hw = (d.width / 2.0).min(side_x / 2.0);
            let hh = (d.height / 2.0).min(side_y / 2.0);
            x[i] = x[i].clamp(hw, side_x - hw);
            x[n + i] = x[n + i].clamp(hh, side_y - hh);
        }
        overflow = objective.terms.overflow(&x);
        placer_telemetry::record(
            "xu_round",
            &[
                ("round", round as f64),
                ("rounds", cfg.rounds as f64),
                ("cg_iters", result.iterations as f64),
                ("cg_values", result.value_calls as f64),
                ("total_iters", iterations as f64),
                ("overflow", overflow),
                ("beta", beta),
                ("value", result.value),
            ],
        );
        if overflow < 0.08 {
            break;
        }
        beta *= cfg.beta_growth;
    }
    placer_telemetry::flush();

    let pts: Vec<(f64, f64)> = (0..n).map(|i| (x[i], x[n + i])).collect();
    let placement = Placement::from_positions(pts);
    let stats = Xu19GlobalStats {
        iterations,
        overflow,
        region_side: side,
    };
    if exhausted {
        Xu19Run::Exhausted(placement, stats)
    } else {
        Xu19Run::Complete(placement, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn baseline_global_reduces_overlap() {
        let c = testcases::cc_ota();
        let (p, stats) = run_global(&c, &Xu19GlobalConfig::default());
        let stacked = Placement::new(c.num_devices());
        assert!(p.overlap_area(&c) < 0.7 * stacked.overlap_area(&c));
        assert!(stats.overflow < 0.6, "overflow {}", stats.overflow);
    }

    #[test]
    fn devices_stay_in_region() {
        let c = testcases::comp1();
        let (p, stats) = run_global(&c, &Xu19GlobalConfig::default());
        for (i, d) in c.devices().iter().enumerate() {
            let (x, y) = p.positions[i];
            assert!(x >= d.width / 2.0 - 1e-6 && x <= stats.region_side - d.width / 2.0 + 1e-6);
            assert!(y >= d.height / 2.0 - 1e-6 && y <= stats.region_side - d.height / 2.0 + 1e-6);
        }
    }

    #[test]
    fn deterministic_runs() {
        let c = testcases::adder();
        let a = run_global(&c, &Xu19GlobalConfig::default()).0;
        let b = run_global(&c, &Xu19GlobalConfig::default()).0;
        assert_eq!(a, b);
    }

    #[test]
    fn cancel_then_resume_is_bit_identical() {
        let c = testcases::cc_ota();
        let cfg = Xu19GlobalConfig::default();
        let (reference, ref_stats) = run_global(&c, &cfg);

        for cancel_at in [0u64, 1, 3] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let Xu19Run::Cancelled(ck) = run_global_budgeted(&c, &cfg, None, &budget, None) else {
                panic!("expected cancellation at check {cancel_at}");
            };
            let Xu19Run::Complete(resumed, stats) =
                run_global_budgeted(&c, &cfg, None, &RunBudget::unlimited(), Some(&ck))
            else {
                panic!("resume must complete");
            };
            assert_eq!(reference, resumed, "cancel_at={cancel_at}");
            assert_eq!(ref_stats.iterations, stats.iterations);
            assert_eq!(ref_stats.overflow.to_bits(), stats.overflow.to_bits());
        }
    }

    #[test]
    fn exhaustion_stops_at_the_round_budget() {
        let c = testcases::cc_ota();
        let cfg = Xu19GlobalConfig::default();
        let Xu19Run::Exhausted(p, stats) =
            run_global_budgeted(&c, &cfg, None, &RunBudget::steps(2), None)
        else {
            panic!("a 2-round budget cannot finish 8 rounds");
        };
        assert_eq!(p.positions.len(), c.num_devices());
        // Two finished rounds cap the iteration count at 2 CG solves.
        assert!(stats.iterations <= 2 * cfg.cg_iters);
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = Xu19GlobalConfig::builder()
            .bins(16)
            .utilization(0.5)
            .rounds(4)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(cfg.bins, 16);
        assert_eq!(cfg.rounds, 4);

        assert!(Xu19GlobalConfig::builder().bins(1).build().is_err());
        assert!(Xu19GlobalConfig::builder()
            .utilization(0.0)
            .build()
            .is_err());
        assert!(Xu19GlobalConfig::builder()
            .utilization(f64::NAN)
            .build()
            .is_err());
        assert!(Xu19GlobalConfig::builder()
            .beta_growth(0.5)
            .build()
            .is_err());
        assert!(Xu19GlobalConfig::builder().rounds(0).build().is_err());
        assert!(Xu19GlobalConfig::builder().cg_iters(0).build().is_err());
        assert!(Xu19GlobalConfig::builder().tau_scale(-1.0).build().is_err());
    }
}
