//! The symmetry penalty `Sym(v)` and the hard-symmetry projection.
//!
//! For a vertical-axis group with axis position `x̂` (a free variable the
//! penalty eliminates analytically at its optimum), each pair contributes
//! `(y_i − y_j)² + (x_i + x_j − 2x̂)²` and each self-symmetric device
//! `(x_r − x̂)²` — exactly the form in §IV-A of the paper.

use analog_netlist::{Axis, Circuit, SymmetryGroup};

fn group_axis_optimum(g: &SymmetryGroup, positions: &[(f64, f64)]) -> f64 {
    // Minimizing Σ(mᵢ − x̂)² over pair midpoints and self centers gives the
    // weighted mean; pairs carry weight 4 on (x̂ − midpoint)² after expanding
    // (x_a + x_b − 2x̂)² = 4(mid − x̂)².
    let coord = |d: analog_netlist::DeviceId| match g.axis {
        Axis::Vertical => positions[d.index()].0,
        Axis::Horizontal => positions[d.index()].1,
    };
    let mut num = 0.0;
    let mut den = 0.0;
    for &(a, b) in &g.pairs {
        num += 4.0 * (coord(a) + coord(b)) / 2.0;
        den += 4.0;
    }
    for &s in &g.self_symmetric {
        num += coord(s);
        den += 1.0;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Evaluates `Sym(v)` and accumulates its gradient (scaled by `weight`)
/// into `grad` (layout `[dx…, dy…]`). Returns the penalty value.
///
/// The axis position of each group is set to its closed-form optimum; by the
/// envelope theorem the gradient w.r.t. device coordinates can then treat it
/// as constant.
///
/// # Panics
///
/// Panics on size mismatches.
pub fn symmetry_penalty(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    weight: f64,
    grad: &mut [f64],
) -> f64 {
    assert_eq!(
        grad.len(),
        2 * circuit.num_devices(),
        "gradient length mismatch"
    );
    penalty_terms(circuit, positions, Some((weight, grad)))
}

/// The value of `Sym(v)` alone: [`symmetry_penalty`]'s return value, bit
/// for bit, without the gradient.
///
/// # Panics
///
/// Panics if `positions` is sized for another circuit.
pub fn symmetry_value(circuit: &Circuit, positions: &[(f64, f64)]) -> f64 {
    penalty_terms(circuit, positions, None)
}

/// Sums `Sym(v)` and, given `(weight, grad)`, accumulates its weighted
/// gradient.
fn penalty_terms(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    mut grad: Option<(f64, &mut [f64])>,
) -> f64 {
    let n = circuit.num_devices();
    assert_eq!(positions.len(), n, "positions length mismatch");
    let mut value = 0.0;
    for g in &circuit.constraints().symmetry_groups {
        if g.is_empty() {
            continue;
        }
        let axis = group_axis_optimum(g, positions);
        // Index helpers: `a` = axis-aligned coordinate (x for vertical),
        // `o` = the other one.
        let (a_off, o_off) = match g.axis {
            Axis::Vertical => (0usize, n),
            Axis::Horizontal => (n, 0usize),
        };
        let ac = |i: usize| match g.axis {
            Axis::Vertical => positions[i].0,
            Axis::Horizontal => positions[i].1,
        };
        let oc = |i: usize| match g.axis {
            Axis::Vertical => positions[i].1,
            Axis::Horizontal => positions[i].0,
        };
        for &(p, q) in &g.pairs {
            let (i, j) = (p.index(), q.index());
            let dy = oc(i) - oc(j);
            let dx = ac(i) + ac(j) - 2.0 * axis;
            value += dy * dy + dx * dx;
            if let Some((weight, grad)) = grad.as_mut() {
                grad[o_off + i] += *weight * 2.0 * dy;
                grad[o_off + j] -= *weight * 2.0 * dy;
                grad[a_off + i] += *weight * 2.0 * dx;
                grad[a_off + j] += *weight * 2.0 * dx;
            }
        }
        for &s in &g.self_symmetric {
            let i = s.index();
            let d = ac(i) - axis;
            value += d * d;
            if let Some((weight, grad)) = grad.as_mut() {
                grad[a_off + i] += *weight * 2.0 * d;
            }
        }
    }
    value
}

/// Projects positions onto the symmetry-feasible set (hard constraints,
/// Table I): pairs are mirrored about the group's optimal axis with equal
/// off-axis coordinates; self-symmetric devices are centered on the axis.
pub fn project_symmetry(circuit: &Circuit, positions: &mut [(f64, f64)]) {
    for g in &circuit.constraints().symmetry_groups {
        if g.is_empty() {
            continue;
        }
        let axis = group_axis_optimum(g, positions);
        match g.axis {
            Axis::Vertical => {
                for &(p, q) in &g.pairs {
                    let (i, j) = (p.index(), q.index());
                    let y = (positions[i].1 + positions[j].1) / 2.0;
                    let half = (positions[j].0 - positions[i].0).abs() / 2.0;
                    positions[i] = (axis - half, y);
                    positions[j] = (axis + half, y);
                }
                for &s in &g.self_symmetric {
                    positions[s.index()].0 = axis;
                }
            }
            Axis::Horizontal => {
                for &(p, q) in &g.pairs {
                    let (i, j) = (p.index(), q.index());
                    let x = (positions[i].0 + positions[j].0) / 2.0;
                    let half = (positions[j].1 - positions[i].1).abs() / 2.0;
                    positions[i] = (x, axis - half);
                    positions[j] = (x, axis + half);
                }
                for &s in &g.self_symmetric {
                    positions[s.index()].1 = axis;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::{testcases, Placement};

    #[test]
    fn penalty_zero_for_perfectly_symmetric_pairs() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let mut positions = vec![(0.0, 0.0); n];
        // Mirror every pair about x = 5.
        for g in &c.constraints().symmetry_groups {
            for (k, &(a, b)) in g.pairs.iter().enumerate() {
                positions[a.index()] = (3.0, k as f64);
                positions[b.index()] = (7.0, k as f64);
            }
            for &s in &g.self_symmetric {
                positions[s.index()] = (5.0, 9.0);
            }
        }
        let mut grad = vec![0.0; 2 * n];
        let v = symmetry_penalty(&c, &positions, 1.0, &mut grad);
        assert!(v < 1e-18, "penalty {v}");
        assert!(grad.iter().all(|g| g.abs() < 1e-12));
    }

    #[test]
    fn penalty_gradient_matches_finite_differences() {
        let c = testcases::comp1();
        let n = c.num_devices();
        let mut positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i as f64 * 1.3) % 7.0, (i as f64 * 2.1) % 5.0))
            .collect();
        let mut grad = vec![0.0; 2 * n];
        symmetry_penalty(&c, &positions, 1.0, &mut grad);
        let eps = 1e-6;
        let mut scratch = vec![0.0; 2 * n];
        for dev in 0..n.min(6) {
            let orig = positions[dev];
            positions[dev] = (orig.0 + eps, orig.1);
            scratch.iter_mut().for_each(|g| *g = 0.0);
            let fp = symmetry_penalty(&c, &positions, 1.0, &mut scratch);
            positions[dev] = (orig.0 - eps, orig.1);
            scratch.iter_mut().for_each(|g| *g = 0.0);
            let fm = symmetry_penalty(&c, &positions, 1.0, &mut scratch);
            positions[dev] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[dev]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "dev {dev}: numeric {numeric} vs analytic {}",
                grad[dev]
            );
        }
    }

    #[test]
    fn value_alone_matches_the_penalty() {
        let c = testcases::comp1();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i as f64 * 1.3) % 7.0, (i as f64 * 2.1) % 5.0))
            .collect();
        let mut grad = vec![0.0; 2 * n];
        let with_gradient = symmetry_penalty(&c, &positions, 0.7, &mut grad);
        assert!(with_gradient > 0.0);
        assert_eq!(
            symmetry_value(&c, &positions).to_bits(),
            with_gradient.to_bits()
        );
    }

    #[test]
    fn projection_zeroes_the_violation() {
        let c = testcases::comp2();
        let n = c.num_devices();
        let mut positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i as f64 * 1.7) % 9.0, (i as f64 * 0.9) % 6.0))
            .collect();
        project_symmetry(&c, &mut positions);
        let p = Placement::from_positions(positions);
        assert!(p.symmetry_violation(&c) < 1e-9);
    }

    #[test]
    fn projection_is_idempotent() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let mut positions: Vec<(f64, f64)> =
            (0..n).map(|i| (i as f64, (i * i % 5) as f64)).collect();
        project_symmetry(&c, &mut positions);
        let once = positions.clone();
        project_symmetry(&c, &mut positions);
        for (a, b) in once.iter().zip(&positions) {
            assert!((a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn weight_scales_gradient_linearly() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i as f64).sin() * 3.0, (i as f64).cos() * 2.0))
            .collect();
        let mut g1 = vec![0.0; 2 * n];
        let mut g2 = vec![0.0; 2 * n];
        symmetry_penalty(&c, &positions, 1.0, &mut g1);
        symmetry_penalty(&c, &positions, 2.5, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.5 * a - b).abs() < 1e-9);
        }
    }
}
