//! Sweep outcomes: per-variant report rows and the aggregate result.

use placer_jobs::{JobReport, JobStatus};

use crate::pareto::{pareto_front, ParetoPoint};
use crate::spec::Variant;

/// One variant's race, folded into the PR-5 job-report protocol: one
/// [`JobReport`] row per racer, in portfolio order.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The variant the group ran.
    pub variant: Variant,
    /// One report per racer (portfolio order). Killed racers report
    /// `status: "killed"` with their last probed HPWL/area; every row with
    /// a known figure of merit carries `fom`.
    pub reports: Vec<JobReport>,
    /// Index (into `reports`) of the best finished racer by FOM, ties to
    /// the lower index. `None` when every racer failed or was killed.
    pub winner: Option<usize>,
}

impl VariantResult {
    /// The winning report, when the race produced one.
    pub fn winning_report(&self) -> Option<&JobReport> {
        self.winner.map(|i| &self.reports[i])
    }
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-variant race results, in variant order.
    pub variants: Vec<VariantResult>,
    /// Non-dominated `(hpwl, area)` outcomes across every finished racer.
    pub pareto: Vec<ParetoPoint>,
    /// Artifact-cache hits observed by the sweep's cache.
    pub cache_hits: u64,
    /// Artifact-cache misses observed by the sweep's cache.
    pub cache_misses: u64,
}

impl SweepResult {
    /// Cache hit rate in `[0, 1]` (`0` before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Racers killed by the tournament, across all variants.
    pub fn killed(&self) -> usize {
        self.reports()
            .filter(|r| r.status == JobStatus::Killed)
            .count()
    }

    /// Iterates every report row in variant, then portfolio, order.
    pub fn reports(&self) -> impl Iterator<Item = &JobReport> {
        self.variants.iter().flat_map(|v| v.reports.iter())
    }

    /// Serializes every report row as JSONL (one line per racer, variant
    /// order), the same wire format the jobs engine emits.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for report in self.reports() {
            out.push_str(&report.to_line());
            out.push('\n');
        }
        out
    }

    /// Builds the Pareto front from the finished rows of `variants`.
    pub(crate) fn build_pareto(variants: &[VariantResult]) -> Vec<ParetoPoint> {
        let mut points = Vec::new();
        for v in variants {
            for r in &v.reports {
                if matches!(r.status, JobStatus::Complete | JobStatus::Exhausted) {
                    if let (Some(hpwl), Some(area)) = (r.hpwl, r.area) {
                        points.push(ParetoPoint {
                            variant: v.variant.index,
                            placer: r.placer.clone(),
                            hpwl,
                            area,
                        });
                    }
                }
            }
        }
        pareto_front(&points)
    }
}
