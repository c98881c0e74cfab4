//! Test oracle: a dense two-phase primal simplex.
//!
//! Handles general variable bounds by shifting/mirroring/splitting into
//! nonnegative columns; finite upper bounds become explicit rows. Phase 1
//! minimizes artificial infeasibility; phase 2 minimizes the user objective.
//! Largest-reduced-cost pivoting with a Bland's-rule fallback guards against
//! cycling. Every solve starts from scratch, so it shares no state with the
//! warm-started core it checks.

#![cfg(test)]

use crate::{ConstraintOp, Model, Solution, SolveError};

const PIVOT_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;

/// How each user variable maps onto nonnegative simplex columns:
/// `x = offset + Σ sign·col`.
#[derive(Debug, Clone)]
struct VarMap {
    offset: f64,
    cols: Vec<(usize, f64)>,
}

struct Tableau {
    m: usize,
    n: usize,
    /// (m+1) × (n+1); row m is the objective row, column n the rhs.
    a: Vec<f64>,
    basis: Vec<usize>,
    banned: Vec<bool>,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.n + 1) + c]
    }

    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r * (self.n + 1) + c]
    }

    fn pivot(&mut self, r: usize, c: usize) {
        let w = self.n + 1;
        let p = self.a[r * w + c];
        debug_assert!(p.abs() > PIVOT_TOL);
        let inv = 1.0 / p;
        for j in 0..w {
            self.a[r * w + j] *= inv;
        }
        for i in 0..=self.m {
            if i == r {
                continue;
            }
            let factor = self.a[i * w + c];
            if factor.abs() <= PIVOT_TOL {
                self.a[i * w + c] = 0.0;
                continue;
            }
            for j in 0..w {
                self.a[i * w + j] -= factor * self.a[r * w + j];
            }
            self.a[i * w + c] = 0.0;
        }
        self.basis[r] = c;
    }

    /// Runs simplex iterations until optimal/unbounded/limit.
    fn optimize(&mut self, max_iters: usize) -> Result<(), SolveError> {
        let bland_after = max_iters / 2;
        for iter in 0..max_iters {
            // Entering column.
            let mut enter: Option<usize> = None;
            if iter < bland_after {
                let mut best = -COST_TOL;
                for j in 0..self.n {
                    if self.banned[j] {
                        continue;
                    }
                    let rc = self.at(self.m, j);
                    if rc < best {
                        best = rc;
                        enter = Some(j);
                    }
                }
            } else {
                // Bland's rule: smallest index with negative reduced cost.
                for j in 0..self.n {
                    if !self.banned[j] && self.at(self.m, j) < -COST_TOL {
                        enter = Some(j);
                        break;
                    }
                }
            }
            let Some(c) = enter else {
                return Ok(());
            };
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.m {
                let a_rc = self.at(r, c);
                if a_rc > PIVOT_TOL {
                    let ratio = self.at(r, self.n) / a_rc;
                    if ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_some_and(|lr| self.basis[r] < self.basis[lr]))
                    {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(r) = leave else {
                return Err(SolveError::Unbounded);
            };
            self.pivot(r, c);
        }
        Err(SolveError::IterationLimit)
    }
}

/// Solves the LP relaxation of `model` with overridden variable bounds.
///
/// `lower`/`upper` must have one entry per model variable; integrality is
/// ignored.
pub(crate) fn solve_reference(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
) -> Result<Solution, SolveError> {
    assert_eq!(lower.len(), model.num_vars());
    assert_eq!(upper.len(), model.num_vars());
    for (l, u) in lower.iter().zip(upper) {
        if l > u {
            return Err(SolveError::Infeasible);
        }
    }

    // --- Variable transformation. -----------------------------------------
    let mut maps: Vec<VarMap> = Vec::with_capacity(model.num_vars());
    let mut n_struct = 0usize;
    // Extra rows for finite upper bounds of shifted columns.
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();
    for j in 0..model.num_vars() {
        let (l, u) = (lower[j], upper[j]);
        if l.is_finite() {
            let col = n_struct;
            n_struct += 1;
            maps.push(VarMap {
                offset: l,
                cols: vec![(col, 1.0)],
            });
            if u.is_finite() {
                ub_rows.push((col, u - l));
            }
        } else if u.is_finite() {
            // x = u − x', x' ≥ 0.
            let col = n_struct;
            n_struct += 1;
            maps.push(VarMap {
                offset: u,
                cols: vec![(col, -1.0)],
            });
        } else {
            // Free: x = x⁺ − x⁻.
            let cp = n_struct;
            let cm = n_struct + 1;
            n_struct += 2;
            maps.push(VarMap {
                offset: 0.0,
                cols: vec![(cp, 1.0), (cm, -1.0)],
            });
        }
    }

    // --- Row assembly. -----------------------------------------------------
    // Each row: dense structural coefficients, op, rhs.
    struct Row {
        coeffs: Vec<f64>,
        op: ConstraintOp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.num_constraints() + ub_rows.len());
    for c in model.constraints() {
        let mut coeffs = vec![0.0; n_struct];
        let mut shift = 0.0;
        for &(v, a) in &c.terms {
            let map = &maps[v.index()];
            shift += a * map.offset;
            for &(col, sign) in &map.cols {
                coeffs[col] += a * sign;
            }
        }
        rows.push(Row {
            coeffs,
            op: c.op,
            rhs: c.rhs - shift,
        });
    }
    for &(col, ub) in &ub_rows {
        let mut coeffs = vec![0.0; n_struct];
        coeffs[col] = 1.0;
        rows.push(Row {
            coeffs,
            op: ConstraintOp::Le,
            rhs: ub,
        });
    }

    // Normalize to rhs ≥ 0.
    for row in &mut rows {
        if row.rhs < 0.0 {
            row.rhs = -row.rhs;
            for c in &mut row.coeffs {
                *c = -*c;
            }
            row.op = match row.op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
        }
    }

    // Column layout: [structural | slacks/surplus | artificials].
    let m = rows.len();
    let n_slack = rows
        .iter()
        .filter(|r| matches!(r.op, ConstraintOp::Le | ConstraintOp::Ge))
        .count();
    let n_art = rows
        .iter()
        .filter(|r| matches!(r.op, ConstraintOp::Ge | ConstraintOp::Eq))
        .count();
    let n = n_struct + n_slack + n_art;
    let w = n + 1;
    let mut t = Tableau {
        m,
        n,
        a: vec![0.0; (m + 1) * w],
        basis: vec![usize::MAX; m],
        banned: vec![false; n],
    };
    let mut slack_idx = n_struct;
    let mut art_idx = n_struct + n_slack;
    let mut art_cols: Vec<usize> = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        for (j, &c) in row.coeffs.iter().enumerate() {
            *t.at_mut(r, j) = c;
        }
        *t.at_mut(r, n) = row.rhs;
        match row.op {
            ConstraintOp::Le => {
                *t.at_mut(r, slack_idx) = 1.0;
                t.basis[r] = slack_idx;
                slack_idx += 1;
            }
            ConstraintOp::Ge => {
                *t.at_mut(r, slack_idx) = -1.0;
                slack_idx += 1;
                *t.at_mut(r, art_idx) = 1.0;
                t.basis[r] = art_idx;
                art_cols.push(art_idx);
                art_idx += 1;
            }
            ConstraintOp::Eq => {
                *t.at_mut(r, art_idx) = 1.0;
                t.basis[r] = art_idx;
                art_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }

    let max_iters = 200 * (m + n + 10);

    // --- Phase 1. -----------------------------------------------------------
    if !art_cols.is_empty() {
        for &c in &art_cols {
            *t.at_mut(m, c) = 1.0;
        }
        // Canonicalize: zero reduced costs of basic artificials.
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                let factor = t.at(m, t.basis[r]);
                if factor != 0.0 {
                    for j in 0..w {
                        let v = t.at(r, j);
                        *t.at_mut(m, j) -= factor * v;
                    }
                }
            }
        }
        t.optimize(max_iters)?;
        let infeas = -t.at(m, n); // objective row rhs = −value
        if infeas > FEAS_TOL {
            placer_telemetry::vlog!(
                2,
                "simplex: phase-1 infeasibility {infeas:.3e} (m={m}, n={n})"
            );
            return Err(SolveError::Infeasible);
        }
        // Pivot remaining basic artificials out where possible.
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                if let Some(c) = (0..n_struct + n_slack).find(|&j| t.at(r, j).abs() > 1e-7) {
                    t.pivot(r, c);
                }
            }
        }
        for &c in &art_cols {
            t.banned[c] = true;
        }
    }

    // --- Phase 2. -----------------------------------------------------------
    for j in 0..w {
        *t.at_mut(m, j) = 0.0;
    }
    for (j, map) in maps.iter().enumerate() {
        let cost = model.variables()[j].objective;
        for &(col, sign) in &map.cols {
            *t.at_mut(m, col) += cost * sign;
        }
    }
    // Canonicalize against the current basis.
    for r in 0..m {
        let b = t.basis[r];
        if b < n {
            let factor = t.at(m, b);
            if factor != 0.0 {
                for j in 0..w {
                    let v = t.at(r, j);
                    *t.at_mut(m, j) -= factor * v;
                }
            }
        }
    }
    t.optimize(max_iters)?;

    // --- Extraction. ---------------------------------------------------------
    let mut col_values = vec![0.0; n];
    for r in 0..m {
        if t.basis[r] < n {
            col_values[t.basis[r]] = t.at(r, n);
        }
    }
    let values: Vec<f64> = maps
        .iter()
        .map(|map| {
            map.offset
                + map
                    .cols
                    .iter()
                    .map(|&(col, sign)| sign * col_values[col])
                    .sum::<f64>()
        })
        .collect();
    let objective = model.objective_value(&values);
    Ok(Solution { values, objective })
}
