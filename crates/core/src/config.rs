//! Configuration of the ePlace-A / ePlace-AP pipeline.
//!
//! [`PlacerConfig`] carries plain public fields (the paper's Table II
//! values as defaults) plus a validating [`builder`](PlacerConfig::builder)
//! that rejects NaN / zero / inverted bounds up front with a
//! [`ConfigError`] instead of letting a bad knob panic or silently clamp
//! hundreds of iterations into a run.

use placer_mathopt::MilpOptions;
use std::fmt;

/// A rejected configuration value.
///
/// Shared by every validating builder in the workspace
/// (`PlacerConfig::builder()` here, `SaConfig::builder()` in `placer-sa`,
/// `Xu19GlobalConfig::builder()` in `placer-xu19`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, e.g. `"global.utilization"`.
    pub field: &'static str,
    /// Why the value was rejected.
    pub message: String,
}

impl ConfigError {
    /// Creates a validation error for `field`.
    pub fn new(field: &'static str, message: impl Into<String>) -> Self {
        Self {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Checks that `v` is a finite, strictly positive float.
pub fn require_positive(field: &'static str, v: f64) -> Result<(), ConfigError> {
    if !v.is_finite() || v <= 0.0 {
        return Err(ConfigError::new(
            field,
            format!("must be finite and > 0, got {v}"),
        ));
    }
    Ok(())
}

/// Checks that `v` is a finite, nonnegative float.
pub fn require_nonnegative(field: &'static str, v: f64) -> Result<(), ConfigError> {
    if !v.is_finite() || v < 0.0 {
        return Err(ConfigError::new(
            field,
            format!("must be finite and >= 0, got {v}"),
        ));
    }
    Ok(())
}

/// Checks that `v` lies in the open/closed interval (`lo`, `hi`].
pub fn require_fraction(field: &'static str, v: f64, lo: f64, hi: f64) -> Result<(), ConfigError> {
    if !v.is_finite() || v <= lo || v > hi {
        return Err(ConfigError::new(
            field,
            format!("must lie in ({lo}, {hi}], got {v}"),
        ));
    }
    Ok(())
}

/// How symmetry constraints are treated during **global** placement
/// (Table I of the paper compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymmetryMode {
    /// Quadratic penalty term `τ·Sym(v)` (the paper's default).
    Soft,
    /// Exact projection onto the symmetry-feasible set after every step.
    Hard,
}

/// Which smooth HPWL approximation global placement uses. The paper
/// credits part of ePlace-A's quality to WA over LSE (§IV-C, reason 2);
/// this switch makes that ablatable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Smoothing {
    /// Weighted-average smoothing (Eq. 2; ePlace-A's default).
    Wa,
    /// Log-sum-exponential smoothing (NTUplace3 / \[11\]).
    Lse,
}

/// Global placement parameters (Eq. 3/5 of the paper).
#[derive(Debug, Clone)]
pub struct GlobalConfig {
    /// Density grid dimension (power of two).
    pub grid: usize,
    /// Target utilization of the placement region (device area / region area).
    pub utilization: f64,
    /// Placement-region aspect ratio (width / height). The region area is
    /// fixed by `utilization`; the aspect splits it as
    /// `W = side·√aspect`, `H = side/√aspect`. `1.0` (the default) is the
    /// square region and is bit-identical to the pre-aspect behavior.
    pub aspect: f64,
    /// Maximum Nesterov iterations.
    pub max_iters: usize,
    /// Stop when density overflow falls below this fraction.
    pub overflow_target: f64,
    /// Relative weight of the density term versus wirelength (λ scale; the
    /// absolute λ is normalized from the initial gradient ratio).
    pub lambda_scale: f64,
    /// Multiplier applied to λ while overflow exceeds the target.
    pub lambda_growth: f64,
    /// Relative weight of the symmetry penalty (τ scale).
    pub tau_scale: f64,
    /// Relative weight of the area term (η scale); set 0 to ablate (Fig. 2).
    pub eta_scale: f64,
    /// Symmetry handling mode (Table I).
    pub symmetry: SymmetryMode,
    /// WA smoothing parameter γ as a multiple of the bin size.
    pub gamma_bins: f64,
    /// HPWL smoothing function (WA default; LSE for the ablation).
    pub smoothing: Smoothing,
    /// Seed for the deterministic initial spread.
    pub seed: u64,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            grid: 32,
            utilization: 0.35,
            aspect: 1.0,
            max_iters: 500,
            overflow_target: 0.08,
            lambda_scale: 1.0,
            lambda_growth: 1.05,
            tau_scale: 0.6,
            eta_scale: 0.35,
            symmetry: SymmetryMode::Soft,
            gamma_bins: 2.0,
            smoothing: Smoothing::Wa,
            seed: 1,
        }
    }
}

/// Detailed placement (integrated legalization) parameters (Eq. 4).
#[derive(Debug, Clone)]
pub struct DetailedConfig {
    /// HPWL-vs-area weighting factor μ in Eq. 4a.
    pub mu: f64,
    /// Chip-area utilization factor ζ defining W̃ = H̃ = √(Σsᵢ/ζ).
    pub zeta: f64,
    /// Placement grid pitch in µm (coordinates become integers on this grid).
    pub grid_step: f64,
    /// Whether device flipping (binary fₓ/f_y variables) is enabled.
    pub flipping: bool,
    /// Branch-and-bound options per axis solve.
    pub milp: MilpOptions,
    /// Maximum cutting-plane rounds for residual-overlap separation.
    pub max_refinement_rounds: usize,
}

impl Default for DetailedConfig {
    fn default() -> Self {
        Self {
            mu: 2.0,
            zeta: 0.7,
            grid_step: 0.25,
            flipping: true,
            milp: MilpOptions {
                max_nodes: 10_000,
                absolute_gap: 1e-6,
                relative_gap: 0.001,
                max_pivots: Some(400_000),
            },
            max_refinement_rounds: 12,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PlacerConfig {
    /// Global placement stage.
    pub global: GlobalConfig,
    /// Detailed placement stage.
    pub detailed: DetailedConfig,
    /// Number of GP+DP restarts with different seeds; the best result by
    /// area·HPWL product is kept. Still far cheaper than annealing.
    pub restarts: usize,
    /// When true, detailed placement preserves the global placement's
    /// relative structure (no reassignment passes). Used by ePlace-AP and
    /// by ablation studies that measure global-placement effects.
    pub preserve_gp: bool,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            global: GlobalConfig::default(),
            detailed: DetailedConfig::default(),
            restarts: 4,
            preserve_gp: false,
        }
    }
}

impl PlacerConfig {
    /// Starts a validating builder preloaded with the paper's defaults.
    pub fn builder() -> PlacerConfigBuilder {
        PlacerConfigBuilder {
            config: PlacerConfig::default(),
        }
    }

    /// Validates every numeric field; [`builder`](Self::builder) calls this
    /// from `build()`, and hand-assembled configs can call it directly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let g = &self.global;
        if g.grid < 4 || !g.grid.is_power_of_two() {
            return Err(ConfigError::new(
                "global.grid",
                format!("must be a power of two >= 4, got {}", g.grid),
            ));
        }
        require_fraction("global.utilization", g.utilization, 0.0, 1.0)?;
        require_positive("global.aspect", g.aspect)?;
        if g.max_iters == 0 {
            return Err(ConfigError::new("global.max_iters", "must be > 0"));
        }
        require_fraction("global.overflow_target", g.overflow_target, 0.0, 1.0)?;
        require_positive("global.lambda_scale", g.lambda_scale)?;
        if !g.lambda_growth.is_finite() || g.lambda_growth < 1.0 {
            return Err(ConfigError::new(
                "global.lambda_growth",
                format!("must be finite and >= 1, got {}", g.lambda_growth),
            ));
        }
        require_nonnegative("global.tau_scale", g.tau_scale)?;
        require_nonnegative("global.eta_scale", g.eta_scale)?;
        require_positive("global.gamma_bins", g.gamma_bins)?;
        let d = &self.detailed;
        require_nonnegative("detailed.mu", d.mu)?;
        require_fraction("detailed.zeta", d.zeta, 0.0, 1.0)?;
        require_positive("detailed.grid_step", d.grid_step)?;
        if d.max_refinement_rounds == 0 {
            return Err(ConfigError::new(
                "detailed.max_refinement_rounds",
                "must be > 0",
            ));
        }
        if self.restarts == 0 {
            return Err(ConfigError::new("restarts", "must be > 0"));
        }
        Ok(())
    }
}

/// Validating builder for [`PlacerConfig`].
///
/// # Examples
///
/// ```
/// use eplace::PlacerConfig;
///
/// let config = PlacerConfig::builder()
///     .restarts(2)
///     .utilization(0.4)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert_eq!(config.restarts, 2);
///
/// // NaN / zero / inverted bounds are rejected up front.
/// assert!(PlacerConfig::builder().utilization(f64::NAN).build().is_err());
/// assert!(PlacerConfig::builder().restarts(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct PlacerConfigBuilder {
    config: PlacerConfig,
}

impl PlacerConfigBuilder {
    /// Density grid dimension (power of two).
    pub fn grid(mut self, grid: usize) -> Self {
        self.config.global.grid = grid;
        self
    }

    /// Placement-region aspect ratio (width / height), `> 0`.
    pub fn aspect(mut self, aspect: f64) -> Self {
        self.config.global.aspect = aspect;
        self
    }

    /// Target region utilization in (0, 1].
    pub fn utilization(mut self, utilization: f64) -> Self {
        self.config.global.utilization = utilization;
        self
    }

    /// Maximum Nesterov iterations.
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.config.global.max_iters = max_iters;
        self
    }

    /// Density overflow stopping threshold in (0, 1].
    pub fn overflow_target(mut self, target: f64) -> Self {
        self.config.global.overflow_target = target;
        self
    }

    /// Symmetry penalty weight (τ scale), >= 0.
    pub fn tau_scale(mut self, tau_scale: f64) -> Self {
        self.config.global.tau_scale = tau_scale;
        self
    }

    /// Area term weight (η scale), >= 0; 0 ablates the term.
    pub fn eta_scale(mut self, eta_scale: f64) -> Self {
        self.config.global.eta_scale = eta_scale;
        self
    }

    /// Symmetry handling mode (Table I).
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self {
        self.config.global.symmetry = mode;
        self
    }

    /// HPWL smoothing function.
    pub fn smoothing(mut self, smoothing: Smoothing) -> Self {
        self.config.global.smoothing = smoothing;
        self
    }

    /// Seed for the deterministic initial spread.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.global.seed = seed;
        self
    }

    /// Number of GP+DP restarts (best kept), > 0.
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.config.restarts = restarts;
        self
    }

    /// Preserve global-placement structure during legalization.
    pub fn preserve_gp(mut self, preserve: bool) -> Self {
        self.config.preserve_gp = preserve;
        self
    }

    /// Detailed-stage HPWL-vs-area weight μ, >= 0.
    pub fn mu(mut self, mu: f64) -> Self {
        self.config.detailed.mu = mu;
        self
    }

    /// Detailed-stage chip utilization ζ in (0, 1].
    pub fn zeta(mut self, zeta: f64) -> Self {
        self.config.detailed.zeta = zeta;
        self
    }

    /// Placement grid pitch in µm, > 0.
    pub fn grid_step(mut self, step: f64) -> Self {
        self.config.detailed.grid_step = step;
        self
    }

    /// Applies arbitrary edits to the full config (escape hatch for
    /// fields without a dedicated setter); still validated by `build`.
    pub fn tweak(mut self, f: impl FnOnce(&mut PlacerConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<PlacerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Performance-driven extension parameters (ePlace-AP, Eq. 5).
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Weight α of the GNN term Φ(G).
    pub alpha: f64,
    /// Coordinate normalization scale the model was trained with (µm).
    pub scale: f64,
}

impl PerfConfig {
    /// Creates a performance configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and `alpha` nonnegative.
    pub fn new(alpha: f64, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        assert!(alpha >= 0.0, "alpha must be nonnegative");
        Self { alpha, scale }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PlacerConfig::default();
        assert!(c.global.grid.is_power_of_two());
        assert!(c.global.utilization > 0.0 && c.global.utilization < 1.0);
        assert!(c.detailed.zeta > 0.0 && c.detailed.zeta <= 1.0);
        assert!(c.detailed.flipping);
        assert_eq!(c.global.symmetry, SymmetryMode::Soft);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn perf_config_validates_scale() {
        let _ = PerfConfig::new(1.0, 0.0);
    }

    #[test]
    fn builder_defaults_validate_and_match_table() {
        let built = PlacerConfig::builder().build().unwrap();
        let default = PlacerConfig::default();
        assert_eq!(built.global.grid, default.global.grid);
        assert_eq!(built.restarts, default.restarts);
        assert!(default.validate().is_ok());
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(PlacerConfig::builder().grid(33).build().is_err());
        assert!(PlacerConfig::builder().grid(0).build().is_err());
        assert!(PlacerConfig::builder().utilization(0.0).build().is_err());
        assert!(PlacerConfig::builder().utilization(1.5).build().is_err());
        assert!(PlacerConfig::builder()
            .utilization(f64::NAN)
            .build()
            .is_err());
        assert!(PlacerConfig::builder().max_iters(0).build().is_err());
        assert!(PlacerConfig::builder()
            .overflow_target(-0.1)
            .build()
            .is_err());
        assert!(PlacerConfig::builder().tau_scale(-1.0).build().is_err());
        assert!(PlacerConfig::builder()
            .eta_scale(f64::INFINITY)
            .build()
            .is_err());
        assert!(PlacerConfig::builder().restarts(0).build().is_err());
        assert!(PlacerConfig::builder().zeta(0.0).build().is_err());
        assert!(PlacerConfig::builder().grid_step(-0.25).build().is_err());
        assert!(PlacerConfig::builder().mu(f64::NAN).build().is_err());
        let err = PlacerConfig::builder()
            .tweak(|c| c.global.lambda_growth = 0.5)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "global.lambda_growth");
        assert!(err.to_string().contains("lambda_growth"));
    }
}
