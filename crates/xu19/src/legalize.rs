//! Two-stage LP legalization + detailed placement of \[11\]:
//! LP #1 compacts area subject to separation constraints derived from the
//! global placement's relative order; LP #2 minimizes wirelength with the
//! chip outline fixed to LP #1's result. No device flipping — the paper
//! names flipping as one of ePlace-A's advantages (Table IV).

use analog_netlist::{Circuit, Placement};
use eplace::{axis, PlaceError, SepEdge, SeparationPlanner};
use placer_mathopt::{ConstraintOp, Model, SolveError, VarId};

/// Statistics from the two LP stages.
#[derive(Debug, Clone)]
pub struct LegalizeStats {
    /// Chip extent after the area-compaction stage (µm per axis).
    pub compacted: (f64, f64),
    /// Exact HPWL of the result.
    pub hpwl: f64,
    /// Bounding-box area of the result.
    pub area: f64,
    /// Refinement rounds used.
    pub rounds: usize,
}

/// Builds the rows shared by both LP stages for one axis: coordinate
/// columns, the chip rows, then the separation, symmetry and alignment
/// rows. Returns the coordinate columns.
fn add_axis_rows(
    model: &mut Model,
    circuit: &Circuit,
    axis: usize,
    seps: &[SepEdge],
    chip: VarId,
) -> Vec<VarId> {
    let half = axis::half_extents(circuit, axis);
    let xs: Vec<VarId> = (0..half.len())
        .map(|i| model.add_var(format!("c{axis}_{i}"), half[i], f64::INFINITY, 0.0))
        .collect();
    for (&x, &h) in xs.iter().zip(&half) {
        model.add_constraint(vec![(x, 1.0), (chip, -1.0)], ConstraintOp::Le, -h);
    }
    axis::add_constraint_rows(model, circuit, axis, &xs, &half, seps);
    xs
}

/// Stage 1: area compaction — minimize the chip extent per axis.
fn compact_axis(circuit: &Circuit, axis: usize, seps: &[SepEdge]) -> Result<f64, PlaceError> {
    static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("xu19_compact_axis");
    let _span = SPAN.enter();
    let mut model = Model::new();
    let chip = model.add_var("chip", 0.0, f64::INFINITY, 1.0);
    let _ = add_axis_rows(&mut model, circuit, axis, seps, chip);
    let sol = model
        .solve_lp()
        .inspect_err(|_| axis::log_failure(&model, &format!("xu19 compact axis {axis}")))?;
    Ok(sol.value(chip))
}

/// Stage 2: wirelength minimization with the chip extent fixed.
fn wirelength_axis(
    circuit: &Circuit,
    axis: usize,
    seps: &[SepEdge],
    chip_extent: f64,
) -> Result<Vec<f64>, PlaceError> {
    let mut model = Model::new();
    let chip = model.add_var("chip", 0.0, chip_extent, 0.0);
    let xs = add_axis_rows(&mut model, circuit, axis, seps, chip);
    axis::add_net_rows(&mut model, circuit, axis, &xs, &[], 1.0, None);
    let sol = model.solve_lp()?;
    Ok(xs.iter().map(|&x| sol.value(x)).collect())
}

/// Runs the baseline's two-stage legalization on a global placement.
///
/// # Errors
///
/// Returns [`PlaceError`] when an LP stage fails or refinement exhausts.
pub fn legalize_two_stage(
    circuit: &Circuit,
    global: &Placement,
) -> Result<(Placement, LegalizeStats), PlaceError> {
    // [11] freezes the relative order of *every* pair from global placement
    // (constraint-graph legalization). On rare inputs that full graph
    // contradicts the symmetry/ordering equalities through a chain the
    // planner's pairwise reasoning cannot see; fall back to the incremental
    // (overlapping-pairs-only) graph in that case.
    match legalize_with(circuit, global, true) {
        Err(PlaceError::Solve(SolveError::Infeasible)) => legalize_with(circuit, global, false),
        other => other,
    }
}

fn legalize_with(
    circuit: &Circuit,
    global: &Placement,
    all_pairs: bool,
) -> Result<(Placement, LegalizeStats), PlaceError> {
    let mut planner = SeparationPlanner::new(circuit);
    if all_pairs {
        planner.extend_all_pairs(circuit, global);
    } else {
        planner.extend_from(circuit, global);
    }
    let mut rounds = 0;
    loop {
        rounds += 1;
        if rounds > 12 {
            return Err(PlaceError::RefinementExhausted);
        }
        // Stage 1 per axis.
        let wx = compact_axis(circuit, 0, planner.x_edges())?;
        let wy = compact_axis(circuit, 1, planner.y_edges())?;
        // Stage 2 per axis: wirelength is minimized strictly within the
        // compacted outline, as in [11]'s area-then-wirelength ordering.
        let xs = wirelength_axis(circuit, 0, planner.x_edges(), wx)?;
        let ys = wirelength_axis(circuit, 1, planner.y_edges(), wy)?;
        let mut placement = Placement::new(circuit.num_devices());
        for i in 0..circuit.num_devices() {
            placement.positions[i] = (xs[i], ys[i]);
        }
        if placement.overlapping_pairs(circuit, 1e-6).is_empty() {
            let hpwl = placement.hpwl(circuit);
            let area = placement.area(circuit);
            return Ok((
                placement,
                LegalizeStats {
                    compacted: (wx, wy),
                    hpwl,
                    area,
                    rounds,
                },
            ));
        }
        if !planner.extend_from(circuit, &placement) {
            return Err(PlaceError::RefinementExhausted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_global, Xu19GlobalConfig};
    use analog_netlist::testcases;

    #[test]
    fn two_stage_legalization_is_legal() {
        for circuit in [testcases::adder(), testcases::cc_ota()] {
            let (gp, _) = run_global(&circuit, &Xu19GlobalConfig::default());
            let (p, stats) = legalize_two_stage(&circuit, &gp).unwrap();
            assert!(
                p.overlapping_pairs(&circuit, 1e-6).is_empty(),
                "{} has overlaps",
                circuit.name()
            );
            assert!(p.symmetry_violation(&circuit) < 1e-6);
            assert!(stats.hpwl > 0.0);
            assert!(stats.area > 0.0);
        }
    }

    #[test]
    fn no_flipping_in_result() {
        let circuit = testcases::cc_ota();
        let (gp, _) = run_global(&circuit, &Xu19GlobalConfig::default());
        let (p, _) = legalize_two_stage(&circuit, &gp).unwrap();
        assert!(p.flips.iter().all(|&(fx, fy)| !fx && !fy));
    }

    #[test]
    fn compaction_bounds_area() {
        let circuit = testcases::adder();
        let (gp, _) = run_global(&circuit, &Xu19GlobalConfig::default());
        let (_, stats) = legalize_two_stage(&circuit, &gp).unwrap();
        // The compacted outline (with 10% slack per axis) bounds the result.
        assert!(stats.area <= stats.compacted.0 * 1.1 * stats.compacted.1 * 1.1 + 1e-6);
    }
}
