//! One axis of a legalization model, shared by every LP/ILP legalizer.
//!
//! ePlace's detailed-placement ILP, the ECO region repair, SA's constraint
//! repair and Xu19's two LPs all solve one model per axis over device
//! center coordinates. They share the Eq. 4 rows built here: net bounding
//! boxes with optional flip binaries (4b/4d), pairwise separations (4e),
//! symmetry (4f) and alignment (4g/4h). Axis `0` is x and axis `1` is y.
//!
//! Each caller creates its own coordinate columns and its own extra rows
//! (chip bounds, displacement) and appends these rows at a fixed point of
//! its model. The order matters: the simplex picks pivots by column and
//! row index, so on a degenerate model the order decides which optimal
//! vertex, and so which placement, comes back. The functions take data
//! only: half-extents in the model's units, flip columns and a net pin
//! cap. None of them asks which legalizer is calling.

use analog_netlist::{AlignKind, Axis, Circuit, Device, Pin, Placement};
use placer_mathopt::{ConstraintOp, Model, VarId};

use crate::sepplan::{SepEdge, SeparationPlanner};
use crate::PlaceError;

/// Half of each device's extent along `axis`, in µm.
pub fn half_extents(circuit: &Circuit, axis: usize) -> Vec<f64> {
    let extent = |d: &Device| if axis == 0 { d.width } else { d.height };
    circuit.devices().iter().map(|d| extent(d) / 2.0).collect()
}

/// Offset of pin `p` of device `d` from the device center along `axis`
/// (µm).
fn pin_offset(d: &Device, p: &Pin, axis: usize) -> f64 {
    if axis == 0 {
        p.offset.0 - d.width / 2.0
    } else {
        p.offset.1 - d.height / 2.0
    }
}

/// Adds a flip binary (4d) for every device with an off-center pin on a
/// net of two or more pins, in device order. Other devices get `None`.
pub(crate) fn add_flips(model: &mut Model, circuit: &Circuit, axis: usize) -> Vec<Option<VarId>> {
    circuit
        .devices()
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let offset_pin = d
                .pins
                .iter()
                .any(|p| pin_offset(d, p, axis).abs() > 1e-9 && circuit.net(p.net).pins.len() >= 2);
            offset_pin.then(|| model.add_bin_var(format!("f{i}"), 0.0))
        })
        .collect()
}

/// Adds the net bounding-box rows (4b) and the wirelength objective
/// `Σ weight·(hi − lo)` for every net of at least two and at most
/// `max_pins` pins.
///
/// A pin sits at `x + c − 2c·f`, where `c` is its offset from the device
/// center in model units (µm divided by `unit`) and `f` the device's flip
/// column from `flips`, if it has one (an empty slice means no flips).
pub fn add_net_rows(
    model: &mut Model,
    circuit: &Circuit,
    axis: usize,
    xs: &[VarId],
    flips: &[Option<VarId>],
    unit: f64,
    max_pins: Option<usize>,
) {
    for net in circuit.nets() {
        if net.pins.len() < 2 || max_pins.is_some_and(|m| net.pins.len() > m) {
            continue;
        }
        // lo is pushed up by its cost but capped by the pin rows; hi is
        // pushed down by its cost.
        let lo = model.add_var(format!("lo_{}", net.name), 0.0, f64::INFINITY, -net.weight);
        let hi = model.add_var(format!("hi_{}", net.name), 0.0, f64::INFINITY, net.weight);
        for pin in &net.pins {
            let d = circuit.device(pin.device);
            let c = pin_offset(d, &d.pins[pin.pin.index()], axis) / unit;
            let x = xs[pin.device.index()];
            let mut terms_lo = vec![(lo, 1.0), (x, -1.0)];
            let mut terms_hi = vec![(x, 1.0), (hi, -1.0)];
            if let Some(f) = flips.get(pin.device.index()).copied().flatten() {
                terms_lo.push((f, 2.0 * c));
                terms_hi.push((f, -2.0 * c));
            }
            // lo ≤ x + c − 2cf  →  lo − x + 2cf ≤ c.
            model.add_constraint(terms_lo, ConstraintOp::Le, c);
            // x + c − 2cf ≤ hi  →  x − hi − 2cf ≤ −c.
            model.add_constraint(terms_hi, ConstraintOp::Le, -c);
        }
    }
}

/// Adds the separation (4e), symmetry (4f) and alignment (4g/4h) rows, in
/// that order, over the coordinate columns `xs`.
///
/// `half` holds the half-extents in model units. Each separation edge
/// `a → b` (ordering chains of 4i included) keeps `b` at least
/// `half[a] + half[b]` after `a`. A symmetry group acting on this axis
/// (vertical axis on x, horizontal on y) gets one free axis column; on the
/// other axis its pairs share the coordinate.
pub fn add_constraint_rows(
    model: &mut Model,
    circuit: &Circuit,
    axis: usize,
    xs: &[VarId],
    half: &[f64],
    seps: &[SepEdge],
) {
    let diff = |a: usize, b: usize| vec![(xs[a], 1.0), (xs[b], -1.0)];
    for &(a, b) in seps {
        let (i, j) = (a.index(), b.index());
        model.add_constraint(diff(i, j), ConstraintOp::Le, -(half[i] + half[j]));
    }
    for g in &circuit.constraints().symmetry_groups {
        let on_axis = matches!((g.axis, axis), (Axis::Vertical, 0) | (Axis::Horizontal, 1));
        if on_axis {
            let m = model.add_var(format!("m_{}", g.name), 0.0, f64::INFINITY, 0.0);
            for &(a, b) in &g.pairs {
                model.add_constraint(
                    vec![(xs[a.index()], 1.0), (xs[b.index()], 1.0), (m, -2.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
            for &s in &g.self_symmetric {
                model.add_constraint(vec![(xs[s.index()], 1.0), (m, -1.0)], ConstraintOp::Eq, 0.0);
            }
        } else {
            for &(a, b) in &g.pairs {
                model.add_constraint(diff(a.index(), b.index()), ConstraintOp::Eq, 0.0);
            }
        }
    }
    for al in &circuit.constraints().alignments {
        let (i, j) = (al.a.index(), al.b.index());
        match (al.kind, axis) {
            (AlignKind::Bottom, 1) => {
                model.add_constraint(diff(i, j), ConstraintOp::Eq, half[i] - half[j]);
            }
            (AlignKind::VerticalCenter, 0) => {
                model.add_constraint(diff(i, j), ConstraintOp::Eq, 0.0);
            }
            _ => {}
        }
    }
}

/// Minimal weighted displacement from `target` subject to the exact
/// constraints and the pairwise orders of `orders`: device `i` pays
/// `cost[i]` per µm it moves. Flips are kept from `target`.
///
/// SA's constraint repair is every device at cost 1; the ECO region repair
/// pins out-of-region devices with a large cost.
///
/// # Errors
///
/// Returns [`PlaceError::Solve`] when the constraints and orders admit no
/// layout.
pub fn repair(
    circuit: &Circuit,
    target: &Placement,
    orders: &Placement,
    cost: &[f64],
) -> Result<Placement, PlaceError> {
    let mut planner = SeparationPlanner::new(circuit);
    planner.extend_all_pairs(circuit, orders);
    let edges = [planner.x_edges(), planner.y_edges()];
    let mut coords = [Vec::new(), Vec::new()];
    for (axis, seps) in edges.into_iter().enumerate() {
        let half = half_extents(circuit, axis);
        let mut model = Model::new();
        let xs: Vec<VarId> = (0..half.len())
            .map(|i| model.add_var(format!("c{i}"), half[i], f64::INFINITY, 0.0))
            .collect();
        // Displacement |x − target| via two rows per device.
        for (i, (&x, p)) in xs.iter().zip(&target.positions).enumerate() {
            let t = if axis == 0 { p.0 } else { p.1 };
            let d = model.add_var(format!("d{i}"), 0.0, f64::INFINITY, cost[i]);
            model.add_constraint(vec![(d, 1.0), (x, -1.0)], ConstraintOp::Ge, -t);
            model.add_constraint(vec![(d, 1.0), (x, 1.0)], ConstraintOp::Ge, t);
        }
        add_constraint_rows(&mut model, circuit, axis, &xs, &half, seps);
        let sol = model.solve_lp()?;
        coords[axis] = xs.iter().map(|&x| sol.value(x)).collect();
    }
    let mut placement = target.clone();
    for (i, p) in placement.positions.iter_mut().enumerate() {
        *p = (coords[0][i], coords[1][i]);
    }
    Ok(placement)
}

/// Logs why `model` failed to solve: the elastic infeasibility diagnosis
/// at verbosity 1 and the whole model at verbosity 3.
pub fn log_failure(model: &Model, what: &str) {
    if placer_telemetry::verbose(1) {
        if let Ok((total, rows)) = model.diagnose_infeasibility() {
            placer_telemetry::vlog!(1, "{what}: infeasibility {total:.4}, rows {rows:?}");
        }
    }
    placer_telemetry::vlog!(3, "{what} model:\n{}", model.dump());
}
