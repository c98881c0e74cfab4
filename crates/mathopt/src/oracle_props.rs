//! Property tests of the bounded warm-started core against the dense
//! two-phase tableau oracle (`tableau.rs`) and against brute force.
//!
//! Models are random but placement-shaped: difference rows between device
//! coordinates, `|x − t|` displacement pairs, net bounding-box rows with
//! flip binaries, chip-extent rows and symmetry equalities, over boxed,
//! lower-only, upper-only and free columns. Some are made infeasible (a
//! positive cycle of separations) or unbounded (a column whose cost pulls
//! it away from every row).

#![cfg(test)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::simplex::Simplex;
use crate::tableau::solve_reference;
use crate::{ConstraintOp, MilpOptions, Model, Solution, SolveError, VarId};

/// A random placement-shaped LP/MILP drawn from `seed`.
fn placement_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new();
    let n = rng.gen_range(2..7usize);
    let xs: Vec<VarId> = (0..n)
        .map(|i| {
            let l = rng.gen_range(-5.0..5.0f64).round();
            let (lo, hi) = match rng.gen_range(0..4u32) {
                0 => (l, l + rng.gen_range(5.0..40.0f64).round()),
                1 => (l, f64::INFINITY),
                2 => (f64::NEG_INFINITY, l + rng.gen_range(10.0..40.0f64)),
                _ => (f64::NEG_INFINITY, f64::INFINITY),
            };
            if rng.gen_bool(0.3) {
                m.add_int_var(format!("x{i}"), lo, hi, 0.0)
            } else {
                m.add_var(format!("x{i}"), lo, hi, 0.0)
            }
        })
        .collect();
    // Displacement |x − t|: two Ge rows per device.
    for (i, &x) in xs.iter().enumerate() {
        if rng.gen_bool(0.7) {
            let t = rng.gen_range(-10.0..30.0f64);
            let d = m.add_var(format!("d{i}"), 0.0, f64::INFINITY, rng.gen_range(0.5..2.0));
            m.add_constraint(vec![(d, 1.0), (x, -1.0)], ConstraintOp::Ge, -t);
            m.add_constraint(vec![(d, 1.0), (x, 1.0)], ConstraintOp::Ge, t);
        }
    }
    // Separations x_a + gap ≤ x_b along a random order (acyclic).
    for _ in 0..rng.gen_range(0..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a < b {
            let gap = rng.gen_range(1.0..6.0f64).round();
            m.add_constraint(vec![(xs[a], 1.0), (xs[b], -1.0)], ConstraintOp::Le, -gap);
        }
    }
    // Nets: lo ≤ x + c − 2c·f ≤ hi per pin, cost w·(hi − lo).
    for k in 0..rng.gen_range(0..4usize) {
        let w = rng.gen_range(0.5..3.0f64);
        let lo = m.add_var(format!("lo{k}"), 0.0, f64::INFINITY, -w);
        let hi = m.add_var(format!("hi{k}"), 0.0, f64::INFINITY, w);
        for _ in 0..rng.gen_range(2..4usize) {
            let x = xs[rng.gen_range(0..n)];
            let c = rng.gen_range(-2.0..2.0f64);
            let mut terms_lo = vec![(lo, 1.0), (x, -1.0)];
            let mut terms_hi = vec![(x, 1.0), (hi, -1.0)];
            if rng.gen_bool(0.5) {
                let f = m.add_bin_var(format!("f{k}"), 0.0);
                terms_lo.push((f, 2.0 * c));
                terms_hi.push((f, -2.0 * c));
            }
            m.add_constraint(terms_lo, ConstraintOp::Le, c);
            m.add_constraint(terms_hi, ConstraintOp::Le, -c);
        }
    }
    // Chip extent: x_i + tail_i ≤ chip, chip cost μ.
    if rng.gen_bool(0.6) {
        let chip = m.add_var(
            "chip",
            0.0,
            rng.gen_range(20.0..80.0),
            rng.gen_range(0.1..2.0),
        );
        for &x in &xs {
            let tail = rng.gen_range(0.5..3.0f64);
            m.add_constraint(vec![(x, 1.0), (chip, -1.0)], ConstraintOp::Le, -tail);
        }
    }
    // Symmetry: x_a + x_b = 2·axis.
    if n >= 2 && rng.gen_bool(0.4) {
        let axis = m.add_var("axis", 0.0, f64::INFINITY, 0.0);
        m.add_constraint(
            vec![(xs[0], 1.0), (xs[1], 1.0), (axis, -2.0)],
            ConstraintOp::Eq,
            0.0,
        );
    }
    match rng.gen_range(0..8u32) {
        // A positive separation cycle: infeasible.
        0 if n >= 2 => {
            m.add_constraint(vec![(xs[0], 1.0), (xs[1], -1.0)], ConstraintOp::Le, -1.0);
            m.add_constraint(vec![(xs[1], 1.0), (xs[0], -1.0)], ConstraintOp::Le, -1.0);
        }
        // A column that only pushes a Ge row further: unbounded.
        1 => {
            let u = m.add_var("u", 0.0, f64::INFINITY, -1.0);
            m.add_constraint(vec![(u, 1.0), (xs[0], -1.0)], ConstraintOp::Ge, 0.0);
        }
        _ => {}
    }
    m
}

fn bounds(model: &Model) -> (Vec<f64>, Vec<f64>) {
    let lower = model.variables().iter().map(|v| v.lower).collect();
    let upper = model.variables().iter().map(|v| v.upper).collect();
    (lower, upper)
}

/// Same variant, and for solutions objectives within 1e-9 relative plus a
/// feasible point from the new core.
fn agree(
    model: &Model,
    got: &Result<Solution, SolveError>,
    want: &Result<Solution, SolveError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            let scale = 1.0f64.max(a.objective.abs()).max(b.objective.abs());
            if (a.objective - b.objective).abs() > 1e-9 * scale {
                return Err(format!("objective {} vs {}", a.objective, b.objective));
            }
            let viol = model.max_violation(&a.values);
            if viol > 1e-6 {
                return Err(format!("solution violates the model by {viol}"));
            }
            Ok(())
        }
        (Err(a), Err(b)) if a == b => Ok(()),
        _ => Err(format!(
            "{:?} vs {:?}",
            got.as_ref().map(|s| s.objective),
            want.as_ref().map(|s| s.objective)
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The bounded core and the two-phase tableau agree on every model.
    #[test]
    fn bounded_core_matches_the_tableau(seed in 0..u64::MAX) {
        let model = placement_model(seed);
        let (lower, upper) = bounds(&model);
        let got = model.solve_lp();
        let want = solve_reference(&model, &lower, &upper);
        if let Err(e) = agree(&model, &got, &want) {
            prop_assert!(false, "seed {seed}: {e}\n{}", model.dump());
        }
    }

    /// A warm re-solve after random bound tightenings and loosenings equals
    /// a cold solve of the same bounds.
    #[test]
    fn warm_resolves_equal_cold_solves(seed in 0..u64::MAX) {
        let model = placement_model(seed);
        let (lower0, upper0) = bounds(&model);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut lp = Simplex::new(&model);
        let (mut lower, mut upper) = (lower0.clone(), upper0.clone());
        for step in 0..12 {
            let j = rng.gen_range(0..model.num_vars());
            match rng.gen_range(0..4u32) {
                // Tighten around a point inside the original box.
                0 | 1 => {
                    let lo = if lower0[j].is_finite() { lower0[j] } else { -20.0 };
                    let hi = if upper0[j].is_finite() { upper0[j] } else { 40.0 };
                    let v = (lo + (hi - lo) * rng.gen_range(0.0..1.0f64)).round();
                    if rng.gen_bool(0.5) {
                        upper[j] = v.max(lower[j]);
                    } else {
                        lower[j] = v.min(upper[j]);
                    }
                }
                // Fix (a diving step).
                2 => {
                    let v = lower[j].max(-20.0).min(upper[j]);
                    lower[j] = v;
                    upper[j] = v;
                }
                // Loosen back to the model's box.
                _ => {
                    lower[j] = lower0[j];
                    upper[j] = upper0[j];
                }
            }
            let warm = lp.solve(&lower, &upper);
            let cold = Simplex::new(&model).solve(&lower, &upper);
            let oracle = solve_reference(&model, &lower, &upper);
            for (what, r) in [("cold", &cold), ("tableau", &oracle)] {
                if let Err(e) = agree(&model, &warm, r) {
                    prop_assert!(false, "seed {seed} step {step}: warm vs {what}: {e}");
                }
            }
        }
    }

    /// `solve_milp` finds the brute-force optimum of small integer programs.
    #[test]
    fn milp_matches_brute_force(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..9usize);
        let mut m = Model::new();
        let mut domains = Vec::new();
        for i in 0..n {
            let lo = rng.gen_range(-2..1i32) as f64;
            let hi = lo + rng.gen_range(1..3i32) as f64;
            m.add_int_var(format!("x{i}"), lo, hi, rng.gen_range(-5.0..5.0f64));
            domains.push((lo as i32, hi as i32));
        }
        let mut rows = Vec::new();
        for _ in 0..rng.gen_range(1..5usize) {
            let coefs: Vec<f64> = (0..n).map(|_| rng.gen_range(-3..4i32) as f64).collect();
            let op = match rng.gen_range(0..3u32) {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            let rhs = rng.gen_range(-4..5i32) as f64;
            let terms = coefs.iter().enumerate().map(|(i, &c)| (VarId(i), c)).collect();
            m.add_constraint(terms, op, rhs);
            rows.push((coefs, op, rhs));
        }
        // Enumerate every integer point of the box.
        let mut best: Option<f64> = None;
        let mut point: Vec<i32> = domains.iter().map(|d| d.0).collect();
        'enumerate: loop {
            let x: Vec<f64> = point.iter().map(|&v| v as f64).collect();
            let ok = rows.iter().all(|(coefs, op, rhs)| {
                let lhs: f64 = coefs.iter().zip(&x).map(|(a, b)| a * b).sum();
                match op {
                    ConstraintOp::Le => lhs <= rhs + 1e-9,
                    ConstraintOp::Ge => lhs >= rhs - 1e-9,
                    ConstraintOp::Eq => (lhs - rhs).abs() <= 1e-9,
                }
            });
            if ok {
                let obj = m.objective_value(&x);
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
            for k in 0..n {
                if point[k] < domains[k].1 {
                    point[k] += 1;
                    continue 'enumerate;
                }
                point[k] = domains[k].0;
            }
            break;
        }
        let got = m.solve_milp(&MilpOptions::default());
        match (best, got) {
            (Some(b), Ok(s)) => {
                prop_assert!((s.objective - b).abs() < 1e-6, "seed {seed}: {} vs {b}", s.objective);
                prop_assert!(m.max_violation(&s.values) < 1e-6);
            }
            (None, Err(SolveError::Infeasible)) => {}
            (b, got) => prop_assert!(false, "seed {seed}: brute force {b:?}, milp {:?}", got.map(|s| s.objective)),
        }
    }
}
