//! # placer-sweep
//!
//! Batched sweep / Monte-Carlo engine over the DATE'22 placer suite:
//! expand one circuit into many variants (seed × utilization × aspect ×
//! relaxation × placer portfolio), execute them on a shared
//! compiled-artifact cache, and race the portfolio per variant so
//! dominated placers die early.
//!
//! The two pillars:
//!
//! - **Amortized artifacts** ([`eplace::ArtifactCache`]): the parsed
//!   netlist, CSR adjacency, GNN topology plans, density-grid templates
//!   and SA move-pricing tables are built once per distinct netlist
//!   content hash and shared read-only across every variant. Artifacts
//!   are pure functions of the circuit, so cached runs are bit-identical
//!   to cold ones (property-tested in `tests/sweep_props.rs`).
//! - **Portfolio racing** ([`race`]): every placer starts under a
//!   deterministic step quota; fixed comparison rounds compare
//!   best-so-far figures of merit and kill dominated runs via cooperative
//!   cancellation. Bit-identical across thread counts.
//!
//! # Examples
//!
//! ```
//! use placer_sweep::{SweepConfig, SweepEngine};
//!
//! let config = SweepConfig {
//!     circuit: "adder".into(),
//!     placers: vec!["sa".into(), "xu19".into()],
//!     seeds: vec![1, 2],
//!     ..SweepConfig::default()
//! };
//! let result = SweepEngine::new(config).run().unwrap();
//! assert_eq!(result.variants.len(), 2);
//! assert!(!result.pareto.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pareto;
mod race;
mod result;
mod spec;

use std::sync::Arc;

use analog_netlist::testcases;
use eplace::ArtifactCache;
use placer_jobs::{make_placer_variant, JobReport, JobStatus};
use placer_telemetry::Counter;

pub use pareto::{pareto_front, ParetoPoint};
pub use race::{race, RaceConfig, Racer, RacerEnd, RacerResult};
pub use result::{SweepResult, VariantResult};
pub use spec::{SweepConfig, Variant};

static VARIANTS_RUN: Counter = Counter::new("sweep_variants");

/// Runs batched sweeps: variant expansion → artifact-cached portfolio
/// races → Pareto reporting.
pub struct SweepEngine {
    /// The sweep request.
    pub config: SweepConfig,
    /// Shared compiled-artifact cache. A fresh engine owns a fresh cache;
    /// inject one with [`with_cache`](Self::with_cache) to amortize across
    /// sweeps (the jobs engine's cache is compatible).
    pub cache: Arc<ArtifactCache>,
}

impl SweepEngine {
    /// Creates an engine with a fresh cache.
    pub fn new(config: SweepConfig) -> Self {
        Self {
            config,
            cache: Arc::new(ArtifactCache::new()),
        }
    }

    /// Replaces the artifact cache (to share it across sweeps or with a
    /// [`placer_jobs::JobEngine`]).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Runs the sweep to completion. Variants race concurrently over
    /// [`placer_parallel::par_map`], which returns them in variant order,
    /// so the result is the same for any thread count.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid configs or an unknown circuit name.
    /// Per-racer errors never abort the sweep — they become `failed`
    /// report rows.
    pub fn run(&self) -> Result<SweepResult, String> {
        self.config.validate()?;
        // Prime the cache once so every variant's lookup below is a hit.
        self.cache
            .get_or_build_named(&self.config.circuit, || {
                testcases::testcase_by_name(&self.config.circuit)
            })
            .ok_or_else(|| format!("unknown circuit `{}`", self.config.circuit))?;

        let variants = self.config.variants();
        let results = placer_parallel::par_map(variants.len(), |i| self.run_variant(&variants[i]));
        let pareto = SweepResult::build_pareto(&results);
        Ok(SweepResult {
            variants: results,
            pareto,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        })
    }

    fn run_variant(&self, variant: &Variant) -> VariantResult {
        VARIANTS_RUN.add(1);
        let artifacts = self
            .cache
            .get_or_build_named(&self.config.circuit, || {
                testcases::testcase_by_name(&self.config.circuit)
            })
            .expect("circuit primed by run()");

        // Build the portfolio; config errors become failed rows so one bad
        // placer name cannot sink the whole sweep.
        let mut slots = Vec::new();
        let mut racers = Vec::new();
        let mut build_errors: Vec<(usize, String, String)> = Vec::new();
        for (slot, name) in self.config.placers.iter().enumerate() {
            match make_placer_variant(
                name,
                self.config.profile,
                Some(variant.seed),
                variant.overrides(),
            ) {
                Ok((placer, seed)) => {
                    slots.push(slot);
                    racers.push(Racer {
                        name: name.clone(),
                        placer,
                        seed,
                    });
                }
                Err(message) => build_errors.push((slot, name.clone(), message)),
            }
        }
        let id_prefix = variant.id_prefix(&self.config.circuit);
        // Racers within one race run on this thread, so one variant-level
        // scope labels every solver progress event with the variant id.
        let raced = {
            let _scope = placer_obs::progress::job_scope(&id_prefix, None);
            race(&artifacts, &racers, &self.config.race)
        };
        let simd = placer_simd::selected().name();

        let mut reports: Vec<Option<JobReport>> = vec![None; self.config.placers.len()];
        for ((&slot, racer), outcome) in slots.iter().zip(&racers).zip(&raced) {
            reports[slot] = Some(fold_report(
                &id_prefix,
                &self.config.circuit,
                racer,
                outcome,
                simd,
            ));
        }
        for (slot, name, message) in build_errors {
            reports[slot] = Some(JobReport {
                id: format!("{id_prefix}-{name}"),
                circuit: self.config.circuit.clone(),
                placer: name,
                status: JobStatus::Failed,
                seed: variant.seed,
                simd,
                retries: 0,
                wall_ms: 0.0,
                deadline_slack_ms: None,
                hpwl: None,
                area: None,
                legal: None,
                iterations: None,
                fom: None,
                checkpoint: None,
                eco: None,
                dirty_fraction: None,
                error: Some(message),
            });
        }
        let reports: Vec<JobReport> = reports
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
        for report in &reports {
            placer_obs::progress::job_done(
                &report.id,
                report.status.as_str(),
                report.wall_ms,
                report.hpwl,
            );
        }
        let winner = pick_winner(&reports);
        VariantResult {
            variant: *variant,
            reports,
            winner,
        }
    }
}

fn pick_winner(reports: &[JobReport]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, r) in reports.iter().enumerate() {
        if !matches!(r.status, JobStatus::Complete | JobStatus::Exhausted) {
            continue;
        }
        let Some(f) = r.fom else { continue };
        if best.is_none_or(|(b, _)| f < b) {
            best = Some((f, i));
        }
    }
    best.map(|(_, i)| i)
}

fn fold_report(
    id_prefix: &str,
    circuit: &str,
    racer: &Racer,
    outcome: &RacerResult,
    simd: &'static str,
) -> JobReport {
    let mut report = JobReport {
        id: format!("{id_prefix}-{}", racer.name),
        circuit: circuit.into(),
        placer: racer.name.clone(),
        status: JobStatus::Failed,
        seed: racer.seed,
        simd,
        retries: 0,
        wall_ms: outcome.wall_ms,
        deadline_slack_ms: None,
        hpwl: None,
        area: None,
        legal: None,
        iterations: None,
        fom: outcome.fom(),
        checkpoint: None,
        eco: None,
        dirty_fraction: None,
        error: None,
    };
    match &outcome.end {
        RacerEnd::Complete(_) | RacerEnd::Exhausted(_) => {
            let (RacerEnd::Complete(sol) | RacerEnd::Exhausted(sol)) = &outcome.end else {
                unreachable!()
            };
            report.status = if matches!(outcome.end, RacerEnd::Complete(_)) {
                JobStatus::Complete
            } else {
                JobStatus::Exhausted
            };
            report.hpwl = Some(sol.hpwl);
            report.area = Some(sol.area);
            report.iterations = Some(sol.iterations as u64);
        }
        RacerEnd::Killed { probe } => {
            report.status = JobStatus::Killed;
            if let Some(p) = probe {
                report.hpwl = Some(p.hpwl);
                report.area = Some(p.area);
            }
        }
        RacerEnd::Failed(message) => {
            report.error = Some(message.clone());
        }
    }
    report
}
