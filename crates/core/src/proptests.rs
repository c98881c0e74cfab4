//! Property-based tests for the placement engines' invariants.

#![cfg(test)]

use analog_netlist::{testcases, Placement};
use proptest::prelude::*;

use crate::sepplan::SeparationPlanner;
use crate::wirelength::{exact_hpwl, lse_spread_with_grad, wa_spread_with_grad, wa_wirelength};
use crate::{area_term, symmetry_penalty};

fn coords(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-20.0..20.0f64, n..=n)
}

proptest! {
    /// WA never exceeds the exact spread; LSE never undershoots it.
    #[test]
    fn smoothers_bracket_exact(xs in coords(6), gamma in 0.2..3.0f64) {
        let exact = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut g = vec![0.0; xs.len()];
        let wa = wa_spread_with_grad(&xs, gamma, &mut g);
        let lse = lse_spread_with_grad(&xs, gamma, &mut g);
        prop_assert!(wa <= exact + 1e-9, "WA {wa} exceeds exact {exact}");
        prop_assert!(lse >= exact - 1e-9, "LSE {lse} under exact {exact}");
    }

    /// Smoothed wirelength is translation invariant (like HPWL itself).
    #[test]
    fn wa_wirelength_translation_invariant(dx in -30.0..30.0f64, dy in -30.0..30.0f64) {
        let c = testcases::adder();
        let n = c.num_devices();
        let base: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 3) as f64 * 2.0, (i / 3) as f64 * 1.5))
            .collect();
        let shifted: Vec<(f64, f64)> = base.iter().map(|p| (p.0 + dx, p.1 + dy)).collect();
        let mut g = vec![0.0; 2 * n];
        let a = wa_wirelength(&c, &base, 1.0, &mut g);
        let b = wa_wirelength(&c, &shifted, 1.0, &mut g);
        prop_assert!((a - b).abs() < 1e-6);
    }

    /// The symmetry penalty is zero iff the placement satisfies the groups
    /// (up to the envelope axis), and is always nonnegative.
    #[test]
    fn symmetry_penalty_nonnegative(seed_x in -5.0..5.0f64, seed_y in -5.0..5.0f64) {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| (seed_x + i as f64, seed_y + (i * i % 7) as f64))
            .collect();
        let mut g = vec![0.0; 2 * n];
        let v = symmetry_penalty(&c, &positions, 1.0, &mut g);
        prop_assert!(v >= 0.0);
    }

    /// The smoothed area term is within a bounded factor of the exact
    /// bounding-box area at small gamma and never negative.
    #[test]
    fn area_term_tracks_exact(scale in 1.0..8.0f64) {
        let c = testcases::comp1();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 5) as f64 * scale, (i / 5) as f64 * scale))
            .collect();
        let mut g = vec![0.0; 2 * n];
        let smooth = area_term(&c, &positions, 0.1, 1.0, &mut g, &mut crate::AreaScratch::new());
        let exact = crate::exact_area(&c, &positions);
        prop_assert!(smooth >= 0.0);
        prop_assert!((smooth - exact).abs() / exact < 0.25);
    }

    /// The separation planner never emits an x edge that contradicts a
    /// y-cluster tie and always converges to a fixpoint.
    #[test]
    fn planner_reaches_fixpoint_on_random_placements(
        seed in 0u64..500,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let c = testcases::comp2();
        let n = c.num_devices();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Placement::new(n);
        for pos in &mut p.positions {
            *pos = (rng.gen_range(0.0..12.0), rng.gen_range(0.0..12.0));
        }
        let mut planner = SeparationPlanner::new(&c);
        let mut rounds = 0;
        while planner.extend_from(&c, &p) {
            rounds += 1;
            prop_assert!(rounds < 30, "planner failed to converge");
        }
        // Every y edge must respect symmetry pair ties: no edge directly
        // between a mirrored pair of a vertical group.
        for g in &c.constraints().symmetry_groups {
            if g.axis == analog_netlist::Axis::Vertical {
                for &(a, b) in &g.pairs {
                    for &(u, v) in planner.y_edges() {
                        prop_assert!(
                            !((u == a && v == b) || (u == b && v == a)),
                            "y edge between mirrored pair"
                        );
                    }
                }
            }
        }
    }

    /// Exact HPWL agrees between the wirelength module and Placement.
    #[test]
    fn hpwl_implementations_agree(scale in 0.5..6.0f64) {
        let c = testcases::vga();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 6) as f64 * scale, (i / 6) as f64 * scale))
            .collect();
        let a = exact_hpwl(&c, &positions);
        let p = Placement::from_positions(positions);
        let b = p.hpwl(&c);
        prop_assert!((a - b).abs() < 1e-9);
    }
}
