//! # placer-mathopt
//!
//! A self-contained linear and mixed-integer programming toolkit sized for
//! analog placement problems (hundreds of variables): a [`Model`] builder,
//! a bounded-variable simplex (`Model::solve_lp`), and a branch-and-bound
//! MILP solver (`Model::solve_milp`).
//!
//! Variable bounds stay column bounds and every row gets a logical
//! variable, so the slack basis is always a valid start. A dual simplex
//! with bound flipping re-optimizes after a bound change, which lets every
//! branch-and-bound node and diving fix re-solve from a basis instead of
//! from scratch. [`MilpOptions::max_pivots`] caps a MILP solve by work
//! done, so where a capped solve stops does not depend on the host.
//!
//! The paper's detailed placer (Eq. 4a–4j), the ECO region repair, the
//! annealer's constraint repair and the ISPD'19 baseline's two-stage LP
//! legalization are all built on this crate.
//!
//! # Examples
//!
//! ```
//! use placer_mathopt::{ConstraintOp, Model, MilpOptions};
//!
//! # fn main() -> Result<(), placer_mathopt::SolveError> {
//! // Choose at most one of two overlapping positions (a tiny ILP).
//! let mut m = Model::new();
//! let a = m.add_bin_var("a", -3.0);
//! let b = m.add_bin_var("b", -2.0);
//! m.add_constraint(vec![(a, 1.0), (b, 1.0)], ConstraintOp::Le, 1.0);
//! let s = m.solve_milp(&MilpOptions::default())?;
//! assert_eq!(s.value(a), 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod branch_bound;
mod diff_systems;
mod model;
mod oracle_props;
mod simplex;
mod tableau;

pub use branch_bound::MilpOptions;
pub use model::{Constraint, ConstraintOp, Model, Solution, SolveError, VarId, Variable};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every LP solution returned must be feasible and consistent.
        #[test]
        fn lp_solutions_are_feasible(
            costs in proptest::collection::vec(-5.0..5.0f64, 3),
            rows in proptest::collection::vec(
                (proptest::collection::vec(-3.0..3.0f64, 3), 0.0..8.0f64),
                1..5,
            ),
        ) {
            let mut m = Model::new();
            let vars: Vec<VarId> = costs
                .iter()
                .enumerate()
                .map(|(i, &c)| m.add_var(format!("x{i}"), 0.0, 10.0, c))
                .collect();
            for (coefs, rhs) in &rows {
                let terms: Vec<_> = vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect();
                m.add_constraint(terms, ConstraintOp::Le, *rhs);
            }
            // x = 0 is always feasible here (rhs ≥ 0), so a solution must exist.
            let s = m.solve_lp().unwrap();
            prop_assert!(m.max_violation(&s.values) < 1e-6);
            prop_assert!((s.objective - m.objective_value(&s.values)).abs() < 1e-6);
            // Optimality sanity: at least as good as the trivial feasible x=0.
            prop_assert!(s.objective <= 1e-9);
        }

        /// MILP solutions are integral on integer variables and feasible.
        #[test]
        fn milp_solutions_are_integral(
            costs in proptest::collection::vec(-4.0..4.0f64, 4),
            rhs in 1.0..6.0f64,
        ) {
            let mut m = Model::new();
            let vars: Vec<VarId> = costs
                .iter()
                .enumerate()
                .map(|(i, &c)| m.add_int_var(format!("x{i}"), 0.0, 3.0, c))
                .collect();
            let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(terms, ConstraintOp::Le, rhs);
            let s = m.solve_milp(&MilpOptions::default()).unwrap();
            prop_assert!(m.max_violation(&s.values) < 1e-6);
            for v in &s.values {
                prop_assert!((v - v.round()).abs() < 1e-9);
            }
            // MILP optimum cannot beat the LP relaxation.
            let lp = m.solve_lp().unwrap();
            prop_assert!(s.objective >= lp.objective - 1e-6);
        }
    }
}
