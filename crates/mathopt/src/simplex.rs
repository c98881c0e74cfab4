//! Bounded-variable simplex over a dense tableau, warm-started across
//! solves.
//!
//! Every constraint row `a·x op b` gets a logical variable `s = −a·x`
//! whose bounds encode the row (`Le`: `s ≥ −b`, `Ge`: `s ≤ −b`, `Eq`:
//! `s = −b`), so the model reads `[A | I]·(x, s) = 0` with a lower and an
//! upper bound on every column. Variable bounds stay column bounds and
//! never become rows, and the all-logical basis is always a valid start.
//!
//! [`Simplex`] keeps the tableau `B⁻¹[A | I]`, the basis header and the
//! current point between solves. A re-solve with different variable
//! bounds (a branch-and-bound child, a diving fix) starts from the basis
//! the previous solve ended in:
//!
//! - A bound change leaves the reduced costs alone, so the old optimal
//!   basis stays dual feasible and a **dual simplex** with a bound-flipping
//!   ratio test restores primal feasibility.
//! - When the start is neither primal nor dual feasible (a cold start with
//!   a negative-cost column that has no upper bound, or a nonbasic column
//!   whose bound was loosened away), the offending costs are shifted until
//!   the basis is dual feasible, the dual simplex runs, and after the costs
//!   are restored a **primal simplex** finishes from the feasible basis.
//!
//! Storage is dense: the models the legalizers build have a few hundred
//! rows, and their tableaux stay small enough that a dense row update with
//! a sparse pivot-row index beats maintaining a sparse LU.

use crate::{ConstraintOp, Model, Solution, SolveError};

/// Simplex pivots across all solves (dual, primal and refactorization).
static SIMPLEX_PIVOTS: placer_telemetry::Counter = placer_telemetry::Counter::new("simplex_pivots");
/// LP solves, cold or warm (`solve_lp` calls and every MILP re-solve).
static SIMPLEX_SOLVES: placer_telemetry::Counter = placer_telemetry::Counter::new("simplex_solves");

/// Smallest tableau entry accepted as a pivot.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const DUAL_TOL: f64 = 1e-9;
/// Primal feasibility tolerance on variable bounds.
const FEAS_TOL: f64 = 1e-9;
/// Pivots after which the next solve rebuilds the tableau from the model.
const REFACTOR_AFTER: u64 = 2000;
/// Consecutive degenerate iterations before switching to Bland's rule.
const STALL_LIMIT: usize = 200;
/// Marks a variable that is not basic in any row.
const NONBASIC: usize = usize::MAX;

/// A warm-startable LP over one model's rows and columns.
///
/// All solves of one instance share the constraint matrix and objective;
/// only the structural variables' bounds change between them.
pub(crate) struct Simplex {
    /// Rows.
    m: usize,
    /// Structural columns; logical `i` is column `n + i`.
    n: usize,
    /// Row-major `m × (n + m)` tableau `B⁻¹[A | I]`.
    t: Vec<f64>,
    /// Reduced costs under the current (possibly shifted) costs.
    d: Vec<f64>,
    /// Costs in use (the objective, plus any temporary shifts).
    cost: Vec<f64>,
    /// The model's objective (logicals cost nothing).
    obj: Vec<f64>,
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Current value of every column; nonbasic ones sit at a bound (or at
    /// zero when free).
    x: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    /// Row each column is basic in, or [`NONBASIC`].
    row_of: Vec<usize>,
    /// Dual Devex reference weights, one per row.
    weight: Vec<f64>,
    /// Sparse rows of `A`, for refactorization.
    rows: Vec<Vec<(usize, f64)>>,
    pivots: u64,
    since_refactor: u64,
    /// Scratch: nonzero columns of the pivot row.
    nz: Vec<usize>,
    /// Scratch: dual ratio-test candidates `(ratio, column)`.
    cand: Vec<(f64, usize)>,
}

/// Where a nonbasic column sits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum At {
    Lower,
    Upper,
    /// Both bounds infinite; the column rests at zero.
    Free,
    /// `lower == upper`: never enters.
    Fixed,
}

impl Simplex {
    /// Builds the slack-basis tableau for `model`.
    pub(crate) fn new(model: &Model) -> Self {
        let m = model.num_constraints();
        let n = model.num_vars();
        let w = n + m;
        let mut lo = vec![0.0; w];
        let mut up = vec![0.0; w];
        let mut obj = vec![0.0; w];
        for (j, v) in model.variables().iter().enumerate() {
            lo[j] = v.lower;
            up[j] = v.upper;
            obj[j] = v.objective;
        }
        let rows: Vec<Vec<(usize, f64)>> = model
            .constraints()
            .iter()
            .map(|c| c.terms.iter().map(|&(v, a)| (v.index(), a)).collect())
            .collect();
        for (i, c) in model.constraints().iter().enumerate() {
            let (l, u) = match c.op {
                ConstraintOp::Le => (-c.rhs, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, -c.rhs),
                ConstraintOp::Eq => (-c.rhs, -c.rhs),
            };
            lo[n + i] = l;
            up[n + i] = u;
        }
        let mut s = Self {
            m,
            n,
            t: vec![0.0; m * w],
            d: obj.clone(),
            cost: obj.clone(),
            obj,
            lo,
            up,
            x: vec![0.0; w],
            basis: Vec::new(),
            row_of: Vec::new(),
            weight: vec![1.0; m],
            rows,
            pivots: 0,
            since_refactor: 0,
            nz: Vec::new(),
            cand: Vec::new(),
        };
        s.load_slack_basis();
        s
    }

    /// Pivots performed by this instance so far, refactorizations
    /// included.
    pub(crate) fn pivots(&self) -> u64 {
        self.pivots
    }

    /// The basis header: the column basic in each row.
    pub(crate) fn basis(&self) -> &[usize] {
        &self.basis
    }

    /// Makes the columns of `header` (an earlier [`basis`](Self::basis)
    /// of this instance) basic again, pivoting in only the columns that
    /// differ from the current basis.
    pub(crate) fn load_basis(&mut self, header: &[usize]) {
        let w = self.n + self.m;
        let mut want = vec![false; w];
        for &j in header {
            want[j] = true;
        }
        let mut moved = false;
        for &q in header {
            if self.row_of[q] != NONBASIC {
                continue;
            }
            // Partial pivoting over rows whose basic column is unwanted.
            let mut best: Option<(usize, f64)> = None;
            for r in 0..self.m {
                let a = self.t[r * w + q].abs();
                if !want[self.basis[r]] && a > PIVOT_TOL && best.is_none_or(|(_, b)| a > b) {
                    best = Some((r, a));
                }
            }
            if let Some((r, _)) = best {
                self.pivot(r, q);
                moved = true;
            }
        }
        if moved {
            self.weight.fill(1.0);
        }
    }

    /// Resets the tableau to `[A | I]` with every logical basic.
    fn load_slack_basis(&mut self) {
        let (m, n, w) = (self.m, self.n, self.n + self.m);
        self.t.fill(0.0);
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, a) in row {
                self.t[i * w + j] = a;
            }
            self.t[i * w + n + i] = 1.0;
        }
        self.basis = (n..w).collect();
        self.row_of = vec![NONBASIC; w];
        for i in 0..m {
            self.row_of[n + i] = i;
        }
        self.weight.fill(1.0);
        self.since_refactor = 0;
    }

    /// Rebuilds the tableau from the model for the current basis, which
    /// sheds the rounding error that pivots accumulate. A column that can
    /// not re-enter (numerically dependent) stays nonbasic; the next solve
    /// places it at a bound.
    fn refactor(&mut self) {
        let header = self.basis.clone();
        self.load_slack_basis();
        self.load_basis(&header);
        self.recompute_duals();
    }

    /// Solves with the structural bounds `lower`/`upper`, starting from
    /// the basis the previous solve ended in.
    pub(crate) fn solve(&mut self, lower: &[f64], upper: &[f64]) -> Result<Solution, SolveError> {
        assert_eq!(lower.len(), self.n);
        assert_eq!(upper.len(), self.n);
        SIMPLEX_SOLVES.add(1);
        if lower.iter().zip(upper).any(|(l, u)| l > u) {
            return Err(SolveError::Infeasible);
        }
        self.lo[..self.n].copy_from_slice(lower);
        self.up[..self.n].copy_from_slice(upper);
        if self.since_refactor > REFACTOR_AFTER {
            self.refactor();
        }
        let w = self.n + self.m;
        let mut budget = 200 * (w + self.m + 10);
        self.place_nonbasics();
        self.recompute_primals();
        // Two rounds at most: the second only runs when recomputing the
        // basic values from scratch exposes drift the first round hid.
        for _ in 0..2 {
            if !self.primal_feasible() {
                let shifted = self.shift_costs();
                let repaired = self.dual(&mut budget);
                if shifted {
                    self.cost.copy_from_slice(&self.obj);
                    self.recompute_duals();
                }
                repaired?;
            }
            self.primal(&mut budget)?;
            self.recompute_primals();
            if self.primal_feasible() {
                break;
            }
        }
        let values = self.x[..self.n].to_vec();
        let objective = self.obj.iter().zip(&values).map(|(c, x)| c * x).sum();
        Ok(Solution { values, objective })
    }

    fn state(&self, j: usize) -> At {
        let (l, u, v) = (self.lo[j], self.up[j], self.x[j]);
        if l == u {
            At::Fixed
        } else if v == l {
            At::Lower
        } else if v == u {
            At::Upper
        } else {
            At::Free
        }
    }

    /// Puts every nonbasic column at a bound of its (new) box: the side
    /// its reduced cost prefers when both are finite (ties keep the side
    /// nearest the old value), else the finite one, else zero.
    fn place_nonbasics(&mut self) {
        for j in 0..self.n + self.m {
            if self.row_of[j] != NONBASIC {
                continue;
            }
            let (l, u) = (self.lo[j], self.up[j]);
            self.x[j] = match (l.is_finite(), u.is_finite()) {
                (true, true) if l == u => l,
                (true, true) => {
                    if self.d[j] > DUAL_TOL {
                        l
                    } else if self.d[j] < -DUAL_TOL || (self.x[j] - u).abs() < (self.x[j] - l).abs()
                    {
                        u
                    } else {
                        l
                    }
                }
                (true, false) => l,
                (false, true) => u,
                (false, false) => 0.0,
            };
        }
    }

    /// Basic values from the nonbasic ones: `x_B = −Σ_N T[:, j]·x_j`.
    fn recompute_primals(&mut self) {
        let w = self.n + self.m;
        self.nz.clear();
        for j in 0..w {
            if self.row_of[j] == NONBASIC && self.x[j] != 0.0 {
                self.nz.push(j);
            }
        }
        for r in 0..self.m {
            let row = &self.t[r * w..(r + 1) * w];
            let v: f64 = self.nz.iter().map(|&j| row[j] * self.x[j]).sum();
            self.x[self.basis[r]] = -v;
        }
    }

    /// Reduced costs from scratch: `d = c − c_B·T`.
    fn recompute_duals(&mut self) {
        let w = self.n + self.m;
        self.d.copy_from_slice(&self.cost);
        for r in 0..self.m {
            let cb = self.cost[self.basis[r]];
            if cb == 0.0 {
                continue;
            }
            let row = &self.t[r * w..(r + 1) * w];
            for (dj, &a) in self.d.iter_mut().zip(row) {
                *dj -= cb * a;
            }
        }
        for &j in &self.basis {
            self.d[j] = 0.0;
        }
    }

    /// How far basic row `r` lies outside its bounds: positive below the
    /// lower bound, negative above the upper, zero inside.
    fn infeasibility(&self, r: usize) -> f64 {
        let p = self.basis[r];
        let v = self.x[p];
        if v < self.lo[p] - FEAS_TOL {
            self.lo[p] - v
        } else if v > self.up[p] + FEAS_TOL {
            self.up[p] - v
        } else {
            0.0
        }
    }

    fn primal_feasible(&self) -> bool {
        (0..self.m).all(|r| self.infeasibility(r) == 0.0)
    }

    /// Shifts the cost of every dual-infeasible nonbasic column so its
    /// reduced cost is zero. Returns whether any cost moved.
    fn shift_costs(&mut self) -> bool {
        let mut shifted = false;
        for j in 0..self.n + self.m {
            if self.row_of[j] != NONBASIC {
                continue;
            }
            let dj = self.d[j];
            let bad = match self.state(j) {
                At::Lower => dj < -DUAL_TOL,
                At::Upper => dj > DUAL_TOL,
                At::Free => dj.abs() > DUAL_TOL,
                At::Fixed => false,
            };
            if bad {
                self.cost[j] -= dj;
                self.d[j] = 0.0;
                shifted = true;
            }
        }
        shifted
    }

    /// Dual simplex: keeps the reduced costs feasible and drives basic
    /// values into their bounds. Returns `Infeasible` when a row can not
    /// be repaired by any nonbasic column.
    fn dual(&mut self, budget: &mut usize) -> Result<(), SolveError> {
        let w = self.n + self.m;
        let mut stall = 0usize;
        loop {
            let bland = stall > STALL_LIMIT;
            // Leaving row: largest Devex-scaled infeasibility (Bland: the
            // infeasible row whose basic column has the smallest index).
            let mut leave: Option<(usize, f64)> = None;
            let mut best = 0.0;
            for r in 0..self.m {
                let delta = self.infeasibility(r);
                if delta == 0.0 {
                    continue;
                }
                if bland {
                    if leave.is_none_or(|(l, _)| self.basis[r] < self.basis[l]) {
                        leave = Some((r, delta));
                    }
                } else {
                    let score = delta * delta / self.weight[r];
                    if score > best {
                        best = score;
                        leave = Some((r, delta));
                    }
                }
            }
            let Some((r, delta)) = leave else {
                return Ok(());
            };
            if *budget == 0 {
                return Err(SolveError::IterationLimit);
            }
            *budget -= 1;
            // `delta > 0`: the leaving column must rise to its lower bound.
            let s = delta.signum();
            let row = &self.t[r * w..(r + 1) * w];
            self.cand.clear();
            for (j, &a) in row.iter().enumerate() {
                if a.abs() <= PIVOT_TOL || self.row_of[j] != NONBASIC {
                    continue;
                }
                let dj = self.d[j];
                // Moving x_j by Δ changes the leaving value by −a·Δ.
                let slack = match self.state(j) {
                    At::Lower if s * a < 0.0 => dj,
                    At::Upper if s * a > 0.0 => -dj,
                    At::Free => dj.abs(),
                    _ => continue,
                };
                self.cand.push((slack.max(0.0) / a.abs(), j));
            }
            if self.cand.is_empty() {
                return Err(SolveError::Infeasible);
            }
            self.cand
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Bound-flipping ratio test: pass breakpoints of boxed columns
            // while the leaving row stays infeasible after flipping them.
            let mut slope = delta.abs();
            let mut k = 0;
            if !bland {
                while k + 1 < self.cand.len() {
                    let j = self.cand[k].1;
                    let range = self.up[j] - self.lo[j];
                    let drop = row[j].abs() * range;
                    if !range.is_finite() || slope - drop <= FEAS_TOL {
                        break;
                    }
                    slope -= drop;
                    k += 1;
                }
            }
            // Harris pass: among the breakpoints tied with the stopping
            // one, take the largest pivot.
            let mut q = self.cand[k].1;
            if !bland {
                let limit = self.cand[k].0 + DUAL_TOL;
                let mut big = row[q].abs();
                for &(ratio, j) in &self.cand[k + 1..] {
                    if ratio > limit {
                        break;
                    }
                    if row[j].abs() > big {
                        big = row[j].abs();
                        q = j;
                    }
                }
            }
            let step = self.cand[k].0;
            stall = if step <= DUAL_TOL { stall + 1 } else { 0 };
            // Flip every passed column to its other bound.
            for idx in 0..k {
                let j = self.cand[idx].1;
                let to = if self.x[j] == self.lo[j] {
                    self.up[j]
                } else {
                    self.lo[j]
                };
                self.move_nonbasic(j, to - self.x[j]);
                self.x[j] = to;
            }
            let p = self.basis[r];
            let target = if delta > 0.0 { self.lo[p] } else { self.up[p] };
            let theta = (self.x[p] - target) / self.t[r * w + q];
            self.move_nonbasic(q, theta);
            self.x[p] = target;
            self.update_weights(r, q);
            self.pivot(r, q);
        }
    }

    /// Primal simplex from a primal feasible basis.
    fn primal(&mut self, budget: &mut usize) -> Result<(), SolveError> {
        let w = self.n + self.m;
        let mut stall = 0usize;
        loop {
            let bland = stall > STALL_LIMIT;
            // Entering column: largest reduced-cost violation (Bland: the
            // smallest eligible index). `dir` is its direction of travel.
            let mut enter: Option<(usize, f64)> = None;
            let mut best = DUAL_TOL;
            for j in 0..w {
                if self.row_of[j] != NONBASIC {
                    continue;
                }
                let dj = self.d[j];
                let dir = match self.state(j) {
                    At::Lower if dj < -DUAL_TOL => 1.0,
                    At::Upper if dj > DUAL_TOL => -1.0,
                    At::Free if dj.abs() > DUAL_TOL => -dj.signum(),
                    _ => continue,
                };
                if bland {
                    enter = Some((j, dir));
                    break;
                }
                if dj.abs() > best {
                    best = dj.abs();
                    enter = Some((j, dir));
                }
            }
            let Some((q, dir)) = enter else {
                return Ok(());
            };
            if *budget == 0 {
                return Err(SolveError::IterationLimit);
            }
            *budget -= 1;
            // Ratio test (Harris two-pass) over the basic columns; the
            // entering column's own box caps the step.
            let rate = |r: usize| -dir * self.t[r * w + q];
            let room = |r: usize, rt: f64| {
                let p = self.basis[r];
                if rt > 0.0 {
                    self.up[p] - self.x[p]
                } else {
                    self.x[p] - self.lo[p]
                }
            };
            let mut cap = f64::INFINITY;
            for r in 0..self.m {
                let rt = rate(r);
                if rt.abs() > PIVOT_TOL {
                    cap = cap.min((room(r, rt).max(0.0) + FEAS_TOL) / rt.abs());
                }
            }
            let mut leave: Option<usize> = None;
            let mut big = 0.0;
            for r in 0..self.m {
                let rt = rate(r);
                if rt.abs() <= PIVOT_TOL || room(r, rt).max(0.0) / rt.abs() > cap {
                    continue;
                }
                let better = if bland {
                    leave.is_none_or(|l| self.basis[r] < self.basis[l])
                } else {
                    rt.abs() > big
                };
                if better {
                    big = rt.abs();
                    leave = Some(r);
                }
            }
            let range = self.up[q] - self.lo[q];
            match leave {
                Some(r) if range > room(r, rate(r)).max(0.0) / rate(r).abs() => {
                    let rt = rate(r);
                    let theta = room(r, rt).max(0.0) / rt.abs();
                    stall = if theta <= FEAS_TOL { stall + 1 } else { 0 };
                    let p = self.basis[r];
                    let target = if rt > 0.0 { self.up[p] } else { self.lo[p] };
                    self.move_nonbasic(q, dir * theta);
                    self.x[p] = target;
                    self.update_weights(r, q);
                    self.pivot(r, q);
                }
                _ if range.is_finite() => {
                    // The entering column reaches its other bound first.
                    stall = 0;
                    self.move_nonbasic(q, dir * range);
                    self.x[q] = if dir > 0.0 { self.up[q] } else { self.lo[q] };
                }
                _ => return Err(SolveError::Unbounded),
            }
        }
    }

    /// Moves nonbasic column `j` by `delta` and the basic values with it.
    fn move_nonbasic(&mut self, j: usize, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let w = self.n + self.m;
        self.x[j] += delta;
        for r in 0..self.m {
            let a = self.t[r * w + j];
            if a != 0.0 {
                self.x[self.basis[r]] -= a * delta;
            }
        }
    }

    /// Dual Devex update for a pivot on `(r, q)` (before the pivot).
    fn update_weights(&mut self, r: usize, q: usize) {
        let w = self.n + self.m;
        let ar = self.t[r * w + q];
        let wr = self.weight[r];
        for i in 0..self.m {
            if i != r {
                let ratio = self.t[i * w + q] / ar;
                self.weight[i] = self.weight[i].max(ratio * ratio * wr);
            }
        }
        self.weight[r] = (wr / (ar * ar)).max(1.0);
    }

    /// Gauss–Jordan pivot on `(r, q)`: column `q` enters in row `r`. The
    /// reduced costs are updated as one more tableau row.
    fn pivot(&mut self, r: usize, q: usize) {
        SIMPLEX_PIVOTS.add(1);
        self.pivots += 1;
        self.since_refactor += 1;
        let w = self.n + self.m;
        let mut nz = std::mem::take(&mut self.nz);
        let (before, rest) = self.t.split_at_mut(r * w);
        let (prow, after) = rest.split_at_mut(w);
        let inv = 1.0 / prow[q];
        nz.clear();
        for (j, v) in prow.iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                nz.push(j);
            }
        }
        prow[q] = 1.0;
        // A pivot row with few nonzeros updates through its index list;
        // a dense one with a straight (vectorizable) sweep.
        let sparse = nz.len() * 4 < w;
        let eliminate = |row: &mut [f64]| {
            let f = row[q];
            if f == 0.0 {
                return;
            }
            if sparse {
                for &j in &nz {
                    row[j] -= f * prow[j];
                }
            } else {
                for (a, &b) in row.iter_mut().zip(prow.iter()) {
                    *a -= f * b;
                }
            }
            row[q] = 0.0;
        };
        before.chunks_exact_mut(w).for_each(eliminate);
        after.chunks_exact_mut(w).for_each(eliminate);
        eliminate(&mut self.d);
        self.nz = nz;
        let p = self.basis[r];
        self.row_of[p] = NONBASIC;
        self.basis[r] = q;
        self.row_of[q] = r;
    }
}

impl Model {
    /// Solves the model as a pure LP (integrality relaxed).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no point satisfies the constraints,
    /// [`SolveError::Unbounded`] when the objective diverges, and
    /// [`SolveError::IterationLimit`] if simplex stalls.
    pub fn solve_lp(&self) -> Result<Solution, SolveError> {
        let lower: Vec<f64> = self.variables.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = self.variables.iter().map(|v| v.upper).collect();
        Simplex::new(self).solve(&lower, &upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp::{Eq, Ge, Le};

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x+5y st x≤4, 2y≤12, 3x+2y≤18  (Dantzig) → x=2,y=6, obj=36.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
        m.add_constraint(vec![(x, 1.0)], Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Le, 18.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 2.0);
        assert_near(s.value(y), 6.0);
        assert_near(s.objective, -36.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x+y st x+y ≥ 2, x−y = 0 → x=y=1.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Eq, 0.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 1.0);
        assert_near(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_constraint(vec![(x, 1.0)], Ge, 2.0);
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, -1.0)], Le, 0.0);
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn free_variables_split() {
        // min |shape|: x free, minimize x st x ≥ −5 → −5.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0)], Ge, -5.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), -5.0);
    }

    #[test]
    fn upper_only_bound_mirrors() {
        // max x with x ≤ 7 (lower −inf) and x ≥ 3: min −x → 7.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, 7.0, -1.0);
        m.add_constraint(vec![(x, 1.0)], Ge, 3.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 7.0);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // min x st −x ≤ −3 (i.e. x ≥ 3).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, -1.0)], Le, -3.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 3.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the optimum.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -1.0);
        for k in 1..=6 {
            m.add_constraint(vec![(x, k as f64), (y, k as f64)], Le, 2.0 * k as f64);
        }
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x) + s.value(y), 2.0);
    }

    #[test]
    fn solution_is_feasible_and_matches_objective() {
        let mut m = Model::new();
        let x = m.add_var("x", -2.0, 8.0, 2.0);
        let y = m.add_var("y", 0.0, 5.0, -3.0);
        let z = m.add_var("z", 1.0, 4.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 2.0), (z, -1.0)], Le, 6.0);
        m.add_constraint(vec![(x, -1.0), (y, 1.0)], Ge, -3.0);
        m.add_constraint(vec![(y, 1.0), (z, 1.0)], Eq, 5.0);
        let s = m.solve_lp().unwrap();
        assert!(m.max_violation(&s.values) < 1e-6);
        assert_near(s.objective, m.objective_value(&s.values));
    }
}
