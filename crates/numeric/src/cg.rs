//! Nonlinear conjugate gradient (Polak–Ribière+) with Armijo backtracking.
//!
//! This is the solver NTUplace3-style analytical placers use; in this
//! workspace it drives the ISPD'19 baseline's global placement. A run
//! allocates its five work vectors once; iterations swap them instead of
//! allocating.

/// Options for [`minimize_cg`].
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Maximum number of CG iterations.
    pub max_iters: usize,
    /// Convergence threshold on the gradient ∞-norm.
    pub grad_tol: f64,
    /// Initial trial step for the line search.
    pub initial_step: f64,
    /// Backtracking shrink factor in (0, 1).
    pub backtrack: f64,
    /// Armijo sufficient-decrease constant in (0, 1).
    pub armijo_c1: f64,
    /// Maximum backtracking steps per line search.
    pub max_backtracks: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            max_iters: 500,
            grad_tol: 1e-6,
            initial_step: 1.0,
            backtrack: 0.5,
            armijo_c1: 1e-4,
            max_backtracks: 40,
        }
    }
}

/// Result of a CG run.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub value: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Minimizes `f` starting from `x0` with Polak–Ribière+ nonlinear CG.
///
/// The objective closure returns the function value and must overwrite
/// every entry of `grad`: the buffer it gets holds an earlier gradient.
///
/// # Examples
///
/// ```
/// use placer_numeric::{minimize_cg, CgOptions};
///
/// // f(x, y) = (x-1)² + 10 (y+2)²
/// let result = minimize_cg(
///     |x, g| {
///         g[0] = 2.0 * (x[0] - 1.0);
///         g[1] = 20.0 * (x[1] + 2.0);
///         (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2)
///     },
///     vec![0.0, 0.0],
///     &CgOptions::default(),
/// );
/// assert!(result.converged);
/// assert!((result.x[0] - 1.0).abs() < 1e-4);
/// assert!((result.x[1] + 2.0).abs() < 1e-4);
/// ```
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn minimize_cg<F>(mut f: F, x0: Vec<f64>, opts: &CgOptions) -> CgResult
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    assert!(!x0.is_empty(), "cannot optimize an empty vector");
    let n = x0.len();
    let mut x = x0;
    let mut grad = vec![0.0; n];
    let mut value = f(&x, &mut grad);
    let mut dir: Vec<f64> = grad.iter().map(|g| -g).collect();
    let mut grad_prev = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    let mut grad_new = vec![0.0; n];
    let mut step = opts.initial_step;

    for iter in 0..opts.max_iters {
        if inf_norm(&grad) <= opts.grad_tol {
            return CgResult {
                x,
                value,
                iterations: iter,
                converged: true,
            };
        }
        // Ensure a descent direction.
        let mut slope = dot(&grad, &dir);
        if slope >= 0.0 {
            for (d, g) in dir.iter_mut().zip(&grad) {
                *d = -g;
            }
            slope = dot(&grad, &dir);
        }

        // Armijo backtracking line search.
        let mut t = step;
        let mut value_new = value;
        let mut accepted = false;
        for _ in 0..opts.max_backtracks {
            for i in 0..n {
                x_new[i] = x[i] + t * dir[i];
            }
            value_new = f(&x_new, &mut grad_new);
            if value_new <= value + opts.armijo_c1 * t * slope {
                accepted = true;
                break;
            }
            t *= opts.backtrack;
        }
        if !accepted {
            // Line search failed: gradient is as good as it gets.
            return CgResult {
                x,
                value,
                iterations: iter,
                converged: inf_norm(&grad) <= opts.grad_tol,
            };
        }
        // Mildly grow the next initial step so easy regions move fast.
        step = (t * 2.0).min(opts.initial_step * 16.0);

        // The accepted point becomes the iterate; the old gradient becomes
        // `grad_prev`, and the stale buffers become next round's trials.
        std::mem::swap(&mut grad_prev, &mut grad);
        std::mem::swap(&mut grad, &mut grad_new);
        std::mem::swap(&mut x, &mut x_new);
        value = value_new;

        // Polak–Ribière+ with automatic restart.
        let gg_prev = dot(&grad_prev, &grad_prev);
        let beta = if gg_prev > 0.0 {
            let mut num = 0.0;
            for i in 0..n {
                num += grad[i] * (grad[i] - grad_prev[i]);
            }
            (num / gg_prev).max(0.0)
        } else {
            0.0
        };
        for i in 0..n {
            dir[i] = -grad[i] + beta * dir[i];
        }
    }

    let converged = inf_norm(&grad) <= opts.grad_tol;
    CgResult {
        x,
        value,
        iterations: opts.max_iters,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_rosenbrock() {
        let opts = CgOptions {
            max_iters: 20_000,
            grad_tol: 1e-7,
            ..CgOptions::default()
        };
        let result = minimize_cg(
            |x, g| {
                let (a, b) = (x[0], x[1]);
                g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
                g[1] = 200.0 * (b - a * a);
                (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
            },
            vec![-1.2, 1.0],
            &opts,
        );
        assert!((result.x[0] - 1.0).abs() < 1e-3, "{:?}", result.x);
        assert!((result.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn already_optimal_converges_immediately() {
        let result = minimize_cg(
            |x, g| {
                g[0] = 2.0 * x[0];
                x[0] * x[0]
            },
            vec![0.0],
            &CgOptions::default(),
        );
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let opts = CgOptions {
            max_iters: 3,
            grad_tol: 0.0,
            ..CgOptions::default()
        };
        // Rosenbrock cannot be solved in 3 iterations.
        let result = minimize_cg(
            |x, g| {
                let (a, b) = (x[0], x[1]);
                g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
                g[1] = 200.0 * (b - a * a);
                (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
            },
            vec![-1.2, 1.0],
            &opts,
        );
        assert_eq!(result.iterations, 3);
        assert!(!result.converged);
    }

    #[test]
    fn decreases_nonconvex_objective() {
        let start = vec![2.0, -1.5];
        let objective = |x: &[f64], g: &mut [f64]| {
            g[0] = x[0].cos() + 0.2 * x[0];
            g[1] = 2.0 * x[1];
            x[0].sin() + 0.1 * x[0] * x[0] + x[1] * x[1]
        };
        let mut g0 = vec![0.0; 2];
        let v0 = objective(&start, &mut g0);
        let result = minimize_cg(objective, start, &CgOptions::default());
        assert!(result.value < v0);
    }
}
