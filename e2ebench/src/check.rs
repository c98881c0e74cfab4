//! Output checks, run on every op's output outside its latency.
//!
//! Legality is `Placement::is_legal(…, 1e-6)` from `analog-netlist`,
//! independent of every legalizer; HPWL and area are recomputed on the
//! returned placement and must equal what the program reported; FOM
//! comes from `analog_perf::Evaluator`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use analog_netlist::{Circuit, Placement};
use analog_perf::Evaluator;

use crate::trace::Tracer;

/// `Placement::is_legal` tolerance.
pub const LEGAL_TOL: f64 = 1e-6;

/// What one op handed back: the placement, the circuit it places, and
/// the HPWL/area the program reported for it.
pub struct Output {
    pub circuit: Arc<Circuit>,
    pub placement: Placement,
    pub hpwl: f64,
    pub area: f64,
    /// Coordinates were read back from a `.place` file, which keeps six
    /// decimals; the comparison then allows that rounding.
    pub rounded: bool,
}

/// Quality of a legal output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub hpwl: f64,
    pub area: f64,
    pub fom: f64,
}

/// Result of one op after checking.
#[derive(Debug, Clone)]
pub struct Op {
    pub label: String,
    pub latency_ms: f64,
    /// The op's latency in each pass that ran it; `latency_ms` is the
    /// fastest untraced one (`service_mix` runs each op once).
    pub passes_ms: Vec<f64>,
    /// `Err` carries why the op did not end in a legal placement.
    pub outcome: Result<Quality, String>,
    /// MILP solves stopped by their time limit (traced run only).
    pub milp_capped: usize,
}

/// Checks outputs against evaluators calibrated in set-up.
#[derive(Default)]
pub struct Checker {
    evaluators: HashMap<u64, Evaluator>,
    /// Outputs that claimed success but failed a check: the program is
    /// wrong, not merely unsuccessful, so the run is not `correct`.
    pub problems: Vec<String>,
}

impl Checker {
    /// Calibrates (and keeps) the FOM evaluator for `circuit`.
    pub fn prepare(&mut self, circuit: &Circuit) {
        self.evaluators
            .entry(eplace::circuit_content_hash(circuit))
            .or_insert_with(|| Evaluator::new(circuit));
    }

    /// Checks one output; `op` tags the trace spans.
    pub fn check(
        &mut self,
        tracer: &Tracer,
        op: usize,
        label: &str,
        out: &Output,
    ) -> Result<Quality, String> {
        let c = &*out.circuit;
        let t0 = Instant::now();
        let legal = out.placement.is_legal(c, LEGAL_TOL);
        tracer.timed("netlist.legal", Some(op), None, t0, Instant::now());
        if !legal {
            let why = "illegal placement".to_string();
            self.problems.push(format!("{label}: {why}"));
            return Err(why);
        }
        let (hpwl, area) = (out.placement.hpwl(c), out.placement.area(c));
        let (hpwl_tol, area_tol) = if out.rounded {
            rounding_tolerance(c, &out.placement)
        } else {
            (1e-9 * hpwl.abs().max(1.0), 1e-9 * area.abs().max(1.0))
        };
        if (hpwl - out.hpwl).abs() > hpwl_tol || (area - out.area).abs() > area_tol {
            let why = format!(
                "reported hpwl/area {}/{} but the placement gives {hpwl}/{area}",
                out.hpwl, out.area
            );
            self.problems.push(format!("{label}: {why}"));
            return Err(why);
        }
        // Evaluators are kept only for circuits set-up prepared; an edited
        // circuit (one per ECO op) gets a throwaway one, so the cache does
        // not inflate the process's peak memory.
        let kept = self.evaluators.get(&eplace::circuit_content_hash(c));
        let fresh;
        let evaluator = match kept {
            Some(e) => e,
            None => {
                fresh = Evaluator::new(c);
                &fresh
            }
        };
        let t1 = Instant::now();
        let fom = evaluator.evaluate(c, &out.placement).fom();
        tracer.timed("perf.eval", Some(op), None, t1, Instant::now());
        Ok(Quality { hpwl, area, fom })
    }
}

/// HPWL/area error bounds when every coordinate is rounded to 1e-6:
/// each net's bounding box moves by at most 2e-6 per axis, the chip box
/// likewise.
fn rounding_tolerance(c: &Circuit, p: &Placement) -> (f64, f64) {
    let weights: f64 = c.nets().iter().map(|n| n.weight.abs()).sum();
    let (w, h) = p
        .bounding_box(c)
        .map_or((0.0, 0.0), |(x0, y0, x1, y1)| (x1 - x0, y1 - y0));
    (4e-6 * weights + 1e-9, 2e-6 * (w + h) + 1e-9)
}
