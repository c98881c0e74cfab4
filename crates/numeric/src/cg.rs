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
    /// Number of iterations performed: the accepted line-search steps.
    pub iterations: usize,
    /// Calls of [`CgObjective::value`]: the start point and every
    /// line-search trial, accepted or not.
    pub value_calls: usize,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
}

/// An objective [`minimize_cg`] minimizes, split so that a line-search
/// trial pays for its value only.
///
/// The solver calls [`value`](Self::value) at the start point and at every
/// trial point, and [`gradient`](Self::gradient) once at the start and
/// once per accepted step, always right after the `value` call at that
/// point. An objective may therefore keep whatever its value pass computed
/// and finish the gradient from it.
pub trait CgObjective {
    /// The objective's value at `x`.
    fn value(&mut self, x: &[f64]) -> f64;

    /// Overwrites every entry of `grad` with the gradient at the last point
    /// passed to [`value`](Self::value). The buffer holds an earlier
    /// gradient.
    fn gradient(&mut self, grad: &mut [f64]);
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Minimizes `f` starting from `x0` with Polak–Ribière+ nonlinear CG.
///
/// The Armijo backtracking line search prices each trial by its value
/// alone; the gradient is taken only where a step is accepted (see
/// [`CgObjective`]).
///
/// # Examples
///
/// ```
/// use placer_numeric::{minimize_cg, CgObjective, CgOptions};
///
/// // f(x, y) = (x-1)² + 10 (y+2)², remembering the last point priced.
/// struct Bowl([f64; 2]);
///
/// impl CgObjective for Bowl {
///     fn value(&mut self, x: &[f64]) -> f64 {
///         self.0 = [x[0], x[1]];
///         (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2)
///     }
///
///     fn gradient(&mut self, g: &mut [f64]) {
///         let [x, y] = self.0;
///         g[0] = 2.0 * (x - 1.0);
///         g[1] = 20.0 * (y + 2.0);
///     }
/// }
///
/// let result = minimize_cg(&mut Bowl([0.0; 2]), vec![0.0, 0.0], &CgOptions::default());
/// assert!(result.converged);
/// assert!((result.x[0] - 1.0).abs() < 1e-4);
/// assert!((result.x[1] + 2.0).abs() < 1e-4);
/// ```
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn minimize_cg(f: &mut impl CgObjective, x0: Vec<f64>, opts: &CgOptions) -> CgResult {
    assert!(!x0.is_empty(), "cannot optimize an empty vector");
    let n = x0.len();
    let mut x = x0;
    let mut grad = vec![0.0; n];
    let mut value = f.value(&x);
    let mut value_calls = 1;
    f.gradient(&mut grad);
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
                value_calls,
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

        // Armijo backtracking line search, by value only.
        let mut t = step;
        let mut value_new = value;
        let mut accepted = false;
        for _ in 0..opts.max_backtracks {
            for i in 0..n {
                x_new[i] = x[i] + t * dir[i];
            }
            value_new = f.value(&x_new);
            value_calls += 1;
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
                value_calls,
                converged: inf_norm(&grad) <= opts.grad_tol,
            };
        }
        // The accepted trial was the last point priced.
        f.gradient(&mut grad_new);
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
        value_calls,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rosenbrock's function, counting the calls of each pass.
    #[derive(Default)]
    struct Rosenbrock {
        at: [f64; 2],
        values: usize,
        gradients: usize,
    }

    impl CgObjective for Rosenbrock {
        fn value(&mut self, x: &[f64]) -> f64 {
            self.values += 1;
            self.at = [x[0], x[1]];
            let (a, b) = (x[0], x[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        }

        fn gradient(&mut self, g: &mut [f64]) {
            self.gradients += 1;
            let [a, b] = self.at;
            g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
            g[1] = 200.0 * (b - a * a);
        }
    }

    /// An objective given as a value function and a gradient function.
    struct Smooth {
        at: Vec<f64>,
        f: fn(&[f64]) -> f64,
        df: fn(&[f64], &mut [f64]),
    }

    impl Smooth {
        fn new(f: fn(&[f64]) -> f64, df: fn(&[f64], &mut [f64])) -> Self {
            Self {
                at: Vec::new(),
                f,
                df,
            }
        }
    }

    impl CgObjective for Smooth {
        fn value(&mut self, x: &[f64]) -> f64 {
            self.at = x.to_vec();
            (self.f)(x)
        }

        fn gradient(&mut self, g: &mut [f64]) {
            (self.df)(&self.at, g);
        }
    }

    #[test]
    fn solves_rosenbrock() {
        let opts = CgOptions {
            max_iters: 20_000,
            grad_tol: 1e-7,
            ..CgOptions::default()
        };
        let result = minimize_cg(&mut Rosenbrock::default(), vec![-1.2, 1.0], &opts);
        assert!((result.x[0] - 1.0).abs() < 1e-3, "{:?}", result.x);
        assert!((result.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn trials_take_values_and_accepted_steps_take_gradients() {
        // Budget-bound, converged and line-search-failure exits alike: one
        // gradient at the start and one per accepted step, while rejected
        // trials cost a value each.
        for (max_iters, grad_tol) in [(3, 0.0), (200, 0.0), (20_000, 1e-7)] {
            let opts = CgOptions {
                max_iters,
                grad_tol,
                ..CgOptions::default()
            };
            let mut f = Rosenbrock::default();
            let result = minimize_cg(&mut f, vec![-1.2, 1.0], &opts);
            assert_eq!(f.gradients, result.iterations + 1, "{max_iters} iterations");
            assert_eq!(f.values, result.value_calls);
            assert!(
                f.gradients < f.values,
                "{} gradients against {} values",
                f.gradients,
                f.values
            );
        }
    }

    #[test]
    fn already_optimal_converges_immediately() {
        let mut f = Smooth::new(|x| x[0] * x[0], |x, g| g[0] = 2.0 * x[0]);
        let result = minimize_cg(&mut f, vec![0.0], &CgOptions::default());
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.value_calls, 1);
    }

    #[test]
    fn respects_iteration_budget() {
        let opts = CgOptions {
            max_iters: 3,
            grad_tol: 0.0,
            ..CgOptions::default()
        };
        // Rosenbrock cannot be solved in 3 iterations.
        let result = minimize_cg(&mut Rosenbrock::default(), vec![-1.2, 1.0], &opts);
        assert_eq!(result.iterations, 3);
        assert!(!result.converged);
    }

    #[test]
    fn decreases_nonconvex_objective() {
        let f = |x: &[f64]| x[0].sin() + 0.1 * x[0] * x[0] + x[1] * x[1];
        let df = |x: &[f64], g: &mut [f64]| {
            g[0] = x[0].cos() + 0.2 * x[0];
            g[1] = 2.0 * x[1];
        };
        let start = vec![2.0, -1.5];
        let v0 = f(&start);
        let result = minimize_cg(&mut Smooth::new(f, df), start, &CgOptions::default());
        assert!(result.value < v0);
    }
}
