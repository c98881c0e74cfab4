//! Branch-and-bound mixed-integer solver on top of the simplex core.
//!
//! One [`Simplex`] serves a whole solve, because every node and diving
//! fix differs from the root only in its bounds: a node re-solves from its
//! parent's optimal basis, a diving fix from the basis the previous fix
//! left.

use std::rc::Rc;

use crate::simplex::Simplex;
use crate::{Model, Solution, SolveError};

/// Branch-and-bound nodes popped off the stack across all MILP solves.
static MILP_NODES: placer_telemetry::Counter = placer_telemetry::Counter::new("milp_nodes");
/// Nodes discarded by the incumbent bound without (or after) an LP solve.
static MILP_PRUNED: placer_telemetry::Counter = placer_telemetry::Counter::new("milp_pruned");

const INT_TOL: f64 = 1e-6;

/// Options controlling branch and bound.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of explored nodes.
    pub max_nodes: usize,
    /// Stop early once the incumbent is within this absolute gap of the
    /// best bound.
    pub absolute_gap: f64,
    /// Prune nodes whose bound is within this *fraction* of the incumbent
    /// (accepting slightly suboptimal solutions for large speedups).
    pub relative_gap: f64,
    /// Optional budget of simplex pivots over the whole solve (root,
    /// nodes and dives). Diving stops at half of it. A pivot count, unlike
    /// a wall-clock limit, stops a solve at the same point on every host.
    pub max_pivots: Option<u64>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            absolute_gap: 1e-6,
            relative_gap: 0.0,
            max_pivots: Some(4_000_000),
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// LP bound inherited from the parent (for pruning before solving).
    parent_bound: f64,
    /// The parent's optimal basis header, shared by both children; the
    /// node's re-solve starts from it (the root starts from slacks).
    basis: Option<Rc<[usize]>>,
}

/// Diving heuristic: repeatedly fixes the most fractional integer variable
/// to a rounded value and re-solves the LP, backtracking once per variable
/// to the other rounding when the fix is infeasible. Reliably produces an
/// integer-feasible incumbent on models whose continuous variables can
/// absorb the rounding (e.g. net bounding boxes).
fn diving_heuristic(
    model: &Model,
    lp: &mut Simplex,
    lower0: &[f64],
    upper0: &[f64],
    root: &Solution,
    max_pivots: Option<u64>,
) -> Option<Solution> {
    let mut lower = lower0.to_vec();
    let mut upper = upper0.to_vec();
    let mut current = root.clone();
    loop {
        if max_pivots.is_some_and(|cap| lp.pivots() > cap) {
            return None;
        }
        // Pick the next variable to fix: fractional binaries first (they
        // reshape the geometry), then the fractional integer with the
        // *smallest* LP value — monotone left-to-right diving dead-ends far
        // less often on difference-constraint systems than most-fractional.
        let mut pick: Option<(usize, f64)> = None;
        let mut best_score = f64::NEG_INFINITY;
        for (j, v) in model.variables().iter().enumerate() {
            if v.integer {
                let x = current.values[j];
                let frac = (x - x.round()).abs();
                if frac <= INT_TOL {
                    continue;
                }
                let binary = v.upper - v.lower <= 1.0 + 1e-9;
                let score = if binary { 1e18 + frac } else { -x };
                if score > best_score {
                    best_score = score;
                    pick = Some((j, x));
                }
            }
        }
        let Some((j, x)) = pick else {
            // All integral: snap and return.
            let mut values = current.values.clone();
            for (k, v) in model.variables().iter().enumerate() {
                if v.integer {
                    values[k] = values[k].round();
                }
            }
            if model.max_violation(&values) > 1e-6 {
                return None;
            }
            let objective = model.objective_value(&values);
            return Some(Solution { values, objective });
        };
        let rounded = x.round().clamp(lower[j], upper[j]);
        lower[j] = rounded;
        upper[j] = rounded;
        match lp.solve(&lower, &upper) {
            Ok(s) => current = s,
            Err(_) => {
                let alt = if rounded > x {
                    rounded - 1.0
                } else {
                    rounded + 1.0
                };
                if alt < lower0[j] || alt > upper0[j] {
                    return None;
                }
                lower[j] = alt;
                upper[j] = alt;
                match lp.solve(&lower, &upper) {
                    Ok(s) => current = s,
                    Err(_) => return None,
                }
            }
        }
    }
}

/// Tries to repair an LP-relaxation solution into an integer-feasible one by
/// rounding. Returns the repaired solution if it satisfies all constraints.
fn rounding_heuristic(model: &Model, relaxed: &Solution) -> Option<Solution> {
    let mut values = relaxed.values.clone();
    for (j, var) in model.variables().iter().enumerate() {
        if var.integer {
            values[j] = values[j].round().clamp(var.lower, var.upper);
        }
    }
    if model.max_violation(&values) <= 1e-6 {
        let objective = model.objective_value(&values);
        Some(Solution { values, objective })
    } else {
        None
    }
}

impl Model {
    /// Solves the model as a mixed-integer program with branch and bound.
    ///
    /// Continuous relaxations are solved by the bounded simplex, each node
    /// warm-started from its parent's optimal basis; branching
    /// is on the most fractional integer variable; a rounding heuristic seeds
    /// the incumbent. The search is depth-first (better-child first).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no integer-feasible point exists,
    /// [`SolveError::Unbounded`] when the relaxation is unbounded, and
    /// [`SolveError::NodeLimit`] when the node/pivot budget runs out before
    /// any integer solution was found. If the budget runs out *after* an
    /// incumbent was found, the incumbent is returned (best effort).
    pub fn solve_milp(&self, opts: &MilpOptions) -> Result<Solution, SolveError> {
        let mut lp = Simplex::new(self);
        let lower0: Vec<f64> = self.variables().iter().map(|v| v.lower).collect();
        let upper0: Vec<f64> = self.variables().iter().map(|v| v.upper).collect();

        // Integer bounds can be tightened to integral values immediately.
        let mut lower0 = lower0;
        let mut upper0 = upper0;
        for (j, v) in self.variables().iter().enumerate() {
            if v.integer {
                lower0[j] = lower0[j].ceil();
                upper0[j] = upper0[j].floor();
                if lower0[j] > upper0[j] {
                    return Err(SolveError::Infeasible);
                }
            }
        }

        let mut incumbent: Option<Solution> = None;
        let mut stack = vec![Node {
            lower: lower0,
            upper: upper0,
            parent_bound: f64::NEG_INFINITY,
            basis: None,
        }];
        let mut nodes = 0usize;
        let mut dives = 0usize;

        while let Some(node) = stack.pop() {
            nodes += 1;
            MILP_NODES.add(1);
            if nodes > opts.max_nodes || opts.max_pivots.is_some_and(|cap| lp.pivots() > cap) {
                placer_telemetry::vlog!(
                    1,
                    "milp: budget exhausted at {nodes} nodes ({} pivots), stack {}, incumbent {:?}",
                    lp.pivots(),
                    stack.len(),
                    incumbent.as_ref().map(|s| s.objective)
                );
                if incumbent.is_none() {
                    // Last resort: one budget-free dive from this node, so a
                    // capped solve still gets a feasible answer instead of a
                    // NodeLimit error.
                    if let Some(basis) = &node.basis {
                        lp.load_basis(basis);
                    }
                    if let Ok(relaxed) = lp.solve(&node.lower, &node.upper) {
                        incumbent = diving_heuristic(
                            self,
                            &mut lp,
                            &node.lower,
                            &node.upper,
                            &relaxed,
                            None,
                        );
                    }
                }
                return incumbent.ok_or(SolveError::NodeLimit);
            }
            if let Some(inc) = &incumbent {
                let cutoff =
                    inc.objective - opts.absolute_gap - opts.relative_gap * inc.objective.abs();
                if node.parent_bound >= cutoff {
                    MILP_PRUNED.add(1);
                    continue;
                }
            }
            if let Some(basis) = &node.basis {
                lp.load_basis(basis);
            }
            let relaxed = match lp.solve(&node.lower, &node.upper) {
                Ok(s) => s,
                Err(SolveError::Infeasible) => continue,
                Err(SolveError::Unbounded) if nodes == 1 => return Err(SolveError::Unbounded),
                Err(SolveError::Unbounded) => continue,
                Err(e @ SolveError::IterationLimit) => {
                    // Treat a stalled node pessimistically: drop it.
                    if nodes == 1 {
                        return Err(e);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if let Some(inc) = &incumbent {
                let cutoff =
                    inc.objective - opts.absolute_gap - opts.relative_gap * inc.objective.abs();
                if relaxed.objective >= cutoff {
                    MILP_PRUNED.add(1);
                    continue;
                }
            }

            // Most fractional integer variable; binaries (big-M selectors,
            // flips) get priority since fixing them simplifies the geometry.
            let mut branch_var: Option<(usize, f64)> = None;
            let mut best_score = INT_TOL;
            for (j, v) in self.variables().iter().enumerate() {
                if v.integer {
                    let x = relaxed.values[j];
                    let frac = (x - x.round()).abs();
                    if frac <= INT_TOL {
                        continue;
                    }
                    let binary = v.upper - v.lower <= 1.0 + 1e-9;
                    let score = if binary { frac + 1.0 } else { frac };
                    if score > best_score {
                        best_score = score;
                        branch_var = Some((j, x));
                    }
                }
            }

            match branch_var {
                None => {
                    // Integer feasible: snap and accept.
                    let mut values = relaxed.values.clone();
                    for (j, v) in self.variables().iter().enumerate() {
                        if v.integer {
                            values[j] = values[j].round();
                        }
                    }
                    let objective = self.objective_value(&values);
                    if incumbent
                        .as_ref()
                        .is_none_or(|inc| objective < inc.objective - 1e-12)
                    {
                        incumbent = Some(Solution { values, objective });
                    }
                }
                Some((j, x)) => {
                    let basis: Rc<[usize]> = lp.basis().into();
                    if incumbent.is_none() {
                        incumbent = rounding_heuristic(self, &relaxed);
                    }
                    if incumbent.is_none() && dives < 5 && nodes.is_power_of_two() {
                        dives += 1;
                        incumbent = diving_heuristic(
                            self,
                            &mut lp,
                            &node.lower,
                            &node.upper,
                            &relaxed,
                            opts.max_pivots.map(|cap| cap / 2),
                        );
                    }
                    let floor = x.floor();
                    let mut down = node.clone();
                    down.upper[j] = floor.min(down.upper[j]);
                    down.parent_bound = relaxed.objective;
                    down.basis = Some(Rc::clone(&basis));
                    let mut up = node;
                    up.lower[j] = (floor + 1.0).max(up.lower[j]);
                    up.parent_bound = relaxed.objective;
                    up.basis = Some(basis);
                    // Explore the child nearest the LP value first (LIFO).
                    if x - floor < 0.5 {
                        stack.push(up);
                        stack.push(down);
                    } else {
                        stack.push(down);
                        stack.push(up);
                    }
                }
            }
        }

        placer_telemetry::vlog!(
            2,
            "milp: explored {nodes} nodes, incumbent: {:?}",
            incumbent.as_ref().map(|s| s.objective)
        );
        incumbent.ok_or(SolveError::Infeasible)
    }
}

#[cfg(test)]
mod tests {
    use crate::ConstraintOp::{Eq, Ge, Le};
    use crate::{MilpOptions, Model, SolveError};

    fn opts() -> MilpOptions {
        MilpOptions::default()
    }

    #[test]
    fn knapsack_small() {
        // max 10a+6b+4c st 1a+1b+1c ≤ 2 binaries → a+b = 16.
        let mut m = Model::new();
        let a = m.add_bin_var("a", -10.0);
        let b = m.add_bin_var("b", -6.0);
        let c = m.add_bin_var("c", -4.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Le, 2.0);
        let s = m.solve_milp(&opts()).unwrap();
        assert!((s.objective - (-16.0)).abs() < 1e-6);
        assert!((s.value(a) - 1.0).abs() < 1e-9);
        assert!((s.value(b) - 1.0).abs() < 1e-9);
        assert!(s.value(c).abs() < 1e-9);
    }

    #[test]
    fn integer_rounding_is_not_enough() {
        // min y st y ≥ 0.3 x, y ≥ 0.3 (10 − x), x ∈ [0,10] integer, y integer.
        // LP optimum x=5, y=1.5 → ILP needs y=2.
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.0, 10.0, 0.0);
        let y = m.add_int_var("y", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(y, 1.0), (x, -0.3)], Ge, 0.0);
        m.add_constraint(vec![(y, 1.0), (x, 0.3)], Ge, 3.0);
        let s = m.solve_milp(&opts()).unwrap();
        assert!((s.value(y) - 2.0).abs() < 1e-6, "{:?}", s.values);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // min x + 2y, x continuous ≥ 0.5, y binary, x + y ≥ 1.6 → y=0, x=1.6.
        let mut m = Model::new();
        let x = m.add_var("x", 0.5, 10.0, 1.0);
        let y = m.add_bin_var("y", 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 1.6);
        let s = m.solve_milp(&opts()).unwrap();
        assert!(s.value(y).abs() < 1e-9);
        assert!((s.value(x) - 1.6).abs() < 1e-6);
        assert!((s.objective - 1.6).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x = 1 with x integer.
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Eq, 1.0);
        assert_eq!(m.solve_milp(&opts()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn empty_integer_domain_rejected() {
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.2, 0.8, 1.0);
        m.add_constraint(vec![(x, 1.0)], Ge, 0.0);
        assert_eq!(m.solve_milp(&opts()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn big_m_disjunction() {
        // Either x ≤ 2 or x ≥ 8 via binary b: x ≤ 2 + 10b, x ≥ 8b.
        // minimize |x−6|-ish: min t, t ≥ x−6, t ≥ 6−x → best is x=2 (t=4) vs x=8 (t=2).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, 0.0);
        let b = m.add_bin_var("b", 0.0);
        let t = m.add_var("t", 0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (b, -10.0)], Le, 2.0);
        m.add_constraint(vec![(x, 1.0), (b, -8.0)], Ge, 0.0);
        m.add_constraint(vec![(t, 1.0), (x, -1.0)], Ge, -6.0);
        m.add_constraint(vec![(t, 1.0), (x, 1.0)], Ge, 6.0);
        let s = m.solve_milp(&opts()).unwrap();
        assert!((s.value(x) - 8.0).abs() < 1e-6, "{:?}", s.values);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn matches_exhaustive_enumeration_on_random_binaries() {
        // 6 binaries, random costs, two random ≤ constraints; compare with
        // brute force over 64 assignments.
        let costs = [3.0, -5.0, 2.0, -1.0, 4.0, -2.5];
        let rows = [
            ([1.0, 2.0, 1.0, 0.0, 1.0, 1.0], 3.0),
            ([0.0, 1.0, 2.0, 1.0, 0.0, 1.0], 2.0),
        ];
        let mut m = Model::new();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_bin_var(format!("b{i}"), c))
            .collect();
        for (coefs, rhs) in &rows {
            let terms: Vec<_> = vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect();
            m.add_constraint(terms, Le, *rhs);
        }
        let s = m.solve_milp(&opts()).unwrap();

        let mut best = f64::INFINITY;
        for mask in 0..64u32 {
            let x: Vec<f64> = (0..6).map(|i| ((mask >> i) & 1) as f64).collect();
            let ok = rows.iter().all(|(coefs, rhs)| {
                x.iter().zip(coefs).map(|(a, b)| a * b).sum::<f64>() <= *rhs + 1e-9
            });
            if ok {
                let obj: f64 = x.iter().zip(&costs).map(|(a, b)| a * b).sum();
                best = best.min(obj);
            }
        }
        assert!(
            (s.objective - best).abs() < 1e-6,
            "{} vs {}",
            s.objective,
            best
        );
    }
}
