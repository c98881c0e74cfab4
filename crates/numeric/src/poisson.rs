//! Spectral Poisson solver for ePlace-style electrostatic density forces.
//!
//! Solves the discrete Neumann problem `∇²ψ = −ρ̃` (where `ρ̃` is the
//! mean-free density) on an `nx × ny` grid. The Neumann boundary (zero
//! normal derivative — "charge cannot escape the placement region") is the
//! even half-sample symmetry of the DCT-II basis, so the solver expands the
//! density in that basis, divides each mode by the corresponding 5-point
//! Laplacian eigenvalue, and transforms back.
//!
//! Mathematically this is identical to mirror-extending the grid to
//! `2nx × 2ny` and using a periodic FFT (the seed implementation, kept as
//! [`PoissonSolver::solve_reference`]): the mirror extension's spectrum is
//! `E[k] = 2 e^{iπk/(2n)} X[k]` with `X` the DCT-II, and its Laplacian
//! eigenvalue `2cos(2πk/2n) − 2 = 2cos(πk/n) − 2` is exactly the DCT-II
//! eigenvalue. The DCT route just skips the 4× redundancy of the mirror
//! copies — real length-`n` transforms instead of complex length-`2n` ones.
//!
//! Construction precomputes the DCT plans, the `−1/λ(u,v)` eigenvalue
//! table, and all working buffers; [`PoissonSolver::solve_into`] then runs
//! without a single heap allocation (verified by an allocation-counting
//! test). Every pass runs on the calling thread.

use crate::dct::DctPlan;
use crate::{fft2, ifft2, is_power_of_two, Complex, Grid};

/// Spectral Poisson solver with precomputed plans, eigenvalue table, and
/// scratch buffers.
///
/// # Examples
///
/// ```
/// use placer_numeric::{Grid, PoissonSolver};
/// let solver = PoissonSolver::new(16, 16, 1.0, 1.0);
/// let mut rho = Grid::new(16, 16);
/// rho.set(8, 8, 1.0);
/// let psi = solver.solve(&rho);
/// // Potential peaks at the charge location.
/// assert!(psi.get(8, 8) > psi.get(0, 0));
/// ```
#[derive(Debug, Clone)]
pub struct PoissonSolver {
    nx: usize,
    ny: usize,
    hx: f64,
    hy: f64,
    dct_x: DctPlan,
    dct_y: DctPlan,
    /// `−1/λ(u,v)` in transposed (`u`-major) layout, `0` at the DC mode.
    inv_neg_lambda: Vec<f64>,
    bufs: SolveBufs,
}

/// Working storage for one solve; owned by the solver so repeated
/// [`PoissonSolver::solve_into`] calls never allocate.
#[derive(Debug, Clone)]
struct SolveBufs {
    /// `ny × nx` row-major real work grid.
    work: Vec<f64>,
    /// `nx × ny` transposed real work grid.
    tran: Vec<f64>,
    /// Complex row scratch for the DCT plans, `max(nx, ny)` long.
    cplx: Vec<Complex>,
}

impl SolveBufs {
    fn new(nx: usize, ny: usize) -> Self {
        Self {
            work: vec![0.0; nx * ny],
            tran: vec![0.0; nx * ny],
            cplx: vec![Complex::ZERO; nx.max(ny)],
        }
    }
}

impl PoissonSolver {
    /// Creates a solver for an `nx × ny` grid with cell sizes `hx × hy`.
    ///
    /// Precomputes the transform plans and the spectral eigenvalue table;
    /// construction is `O(nx·ny)` and every subsequent
    /// [`solve_into`](Self::solve_into) is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are powers of two and the spacings are
    /// positive.
    pub fn new(nx: usize, ny: usize, hx: f64, hy: f64) -> Self {
        assert!(
            is_power_of_two(nx) && is_power_of_two(ny),
            "grid dimensions must be powers of two"
        );
        assert!(hx > 0.0 && hy > 0.0, "cell sizes must be positive");
        // 5-point Laplacian eigenvalues in the DCT-II basis, per axis.
        let pi = std::f64::consts::PI;
        let lx: Vec<f64> = (0..nx)
            .map(|u| (2.0 * (pi * u as f64 / nx as f64).cos() - 2.0) / (hx * hx))
            .collect();
        let ly: Vec<f64> = (0..ny)
            .map(|v| (2.0 * (pi * v as f64 / ny as f64).cos() - 2.0) / (hy * hy))
            .collect();
        // Transposed (u-major) so the scale step runs on the transposed
        // work grid with unit stride.
        let mut inv_neg_lambda = vec![0.0; nx * ny];
        for (u, &lxu) in lx.iter().enumerate() {
            for (v, &lyv) in ly.iter().enumerate() {
                let lambda = lxu + lyv;
                // Only the DC mode (u = v = 0) is singular; it carries the
                // mean, which is subtracted up front.
                inv_neg_lambda[u * ny + v] = if lambda.abs() < 1e-30 {
                    0.0
                } else {
                    -1.0 / lambda
                };
            }
        }
        Self {
            nx,
            ny,
            hx,
            hy,
            dct_x: DctPlan::new(nx),
            dct_y: DctPlan::new(ny),
            inv_neg_lambda,
            bufs: SolveBufs::new(nx, ny),
        }
    }

    /// Grid size along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid size along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Solves `∇²ψ = −(ρ − mean(ρ))` and returns the potential ψ
    /// (zero-mean).
    ///
    /// Allocates the result and fresh working buffers; the hot path should
    /// use [`solve_into`](Self::solve_into), which is bit-identical (both
    /// run the same inner pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `rho` does not match the solver dimensions.
    pub fn solve(&self, rho: &Grid) -> Grid {
        let mut out = Grid::new(self.nx, self.ny);
        let mut bufs = SolveBufs::new(self.nx, self.ny);
        self.check_dims(rho);
        Self::solve_inner(
            &self.dct_x,
            &self.dct_y,
            &self.inv_neg_lambda,
            rho,
            &mut bufs,
            &mut out,
        );
        out
    }

    /// Solves into a caller-provided grid, reusing the solver's internal
    /// scratch: zero heap allocations per call.
    ///
    /// # Panics
    ///
    /// Panics if `rho` or `out` do not match the solver dimensions.
    pub fn solve_into(&mut self, rho: &Grid, out: &mut Grid) {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("poisson_solve");
        let _span = SPAN.enter();
        self.check_dims(rho);
        assert_eq!(out.nx(), self.nx, "output grid width mismatch");
        assert_eq!(out.ny(), self.ny, "output grid height mismatch");
        let Self {
            ref dct_x,
            ref dct_y,
            ref inv_neg_lambda,
            ref mut bufs,
            ..
        } = *self;
        Self::solve_inner(dct_x, dct_y, inv_neg_lambda, rho, bufs, out);
    }

    fn check_dims(&self, rho: &Grid) {
        assert_eq!(rho.nx(), self.nx, "density grid width mismatch");
        assert_eq!(rho.ny(), self.ny, "density grid height mismatch");
    }

    /// The shared solve pipeline. Every buffer element is written before it
    /// is read, so stale scratch contents cannot leak into the result —
    /// this is what makes `solve` and `solve_into` bit-identical.
    fn solve_inner(
        dct_x: &DctPlan,
        dct_y: &DctPlan,
        inv_neg_lambda: &[f64],
        rho: &Grid,
        bufs: &mut SolveBufs,
        out: &mut Grid,
    ) {
        let nx = dct_x.len();
        let ny = dct_y.len();
        let mean = rho.mean();
        for (w, &r) in bufs.work.iter_mut().zip(rho.as_slice()) {
            *w = r - mean;
        }
        // Forward DCT-II along x (rows of the ny × nx grid)…
        dct_rows(&mut bufs.work, nx, dct_x, true, &mut bufs.cplx);
        // …then along y, on the transposed grid so columns are contiguous.
        transpose_real(&bufs.work, ny, nx, &mut bufs.tran);
        dct_rows(&mut bufs.tran, ny, dct_y, true, &mut bufs.cplx);
        // ψ̂(u,v) = ρ̂(u,v) / (−λ(u,v)); the table is already transposed.
        for (t, &s) in bufs.tran.iter_mut().zip(inv_neg_lambda) {
            *t *= s;
        }
        // Inverse along y, transpose back, inverse along x.
        dct_rows(&mut bufs.tran, ny, dct_y, false, &mut bufs.cplx);
        transpose_real(&bufs.tran, nx, ny, out.as_mut_slice());
        dct_rows(out.as_mut_slice(), nx, dct_x, false, &mut bufs.cplx);
    }

    /// The seed implementation: mirror-extend to `2nx × 2ny`, periodic FFT,
    /// divide by eigenvalues, inverse FFT, restrict.
    ///
    /// Retained as the property-test oracle and benchmark baseline for
    /// [`solve`](Self::solve); agrees with it to floating-point roundoff.
    pub fn solve_reference(&self, rho: &Grid) -> Grid {
        self.check_dims(rho);
        let (nx, ny) = (self.nx, self.ny);
        let (mx, my) = (2 * nx, 2 * ny);
        let mean = rho.mean();

        // Mirror-extend the mean-free density.
        let mut ext = vec![Complex::ZERO; mx * my];
        for iy in 0..ny {
            for ix in 0..nx {
                let v = rho.get(ix, iy) - mean;
                let xs = [ix, mx - 1 - ix];
                let ys = [iy, my - 1 - iy];
                for &yy in &ys {
                    for &xx in &xs {
                        ext[yy * mx + xx] = Complex::new(v, 0.0);
                    }
                }
            }
        }

        fft2(&mut ext, my, mx);

        // Divide by −λ(u,v), the (negated) eigenvalues of the periodic
        // 5-point Laplacian; zero out the DC mode.
        let two_pi = 2.0 * std::f64::consts::PI;
        for v in 0..my {
            let wy = two_pi * v as f64 / my as f64;
            let ly = (2.0 * wy.cos() - 2.0) / (self.hy * self.hy);
            for u in 0..mx {
                let wx = two_pi * u as f64 / mx as f64;
                let lx = (2.0 * wx.cos() - 2.0) / (self.hx * self.hx);
                let lambda = lx + ly;
                let idx = v * mx + u;
                if lambda.abs() < 1e-30 {
                    ext[idx] = Complex::ZERO;
                } else {
                    // ∇²ψ = −ρ  ⇒  ψ̂ = ρ̂ / (−λ).
                    ext[idx] = ext[idx].scale(-1.0 / lambda);
                }
            }
        }

        ifft2(&mut ext, my, mx);

        let mut psi = Grid::new(nx, ny);
        for iy in 0..ny {
            for ix in 0..nx {
                psi.set(ix, iy, ext[iy * mx + ix].re);
            }
        }
        psi
    }

    /// Electric field `E = −∇ψ` by central differences with mirrored
    /// (Neumann) boundary handling. Returns `(ex, ey)` grids.
    pub fn field(&self, psi: &Grid) -> (Grid, Grid) {
        let mut ex = Grid::new(self.nx, self.ny);
        let mut ey = Grid::new(self.nx, self.ny);
        self.field_into(psi, &mut ex, &mut ey);
        (ex, ey)
    }

    /// Allocation-free variant of [`field`](Self::field), writing into
    /// caller-provided grids.
    ///
    /// # Panics
    ///
    /// Panics if any grid does not match the solver dimensions.
    pub fn field_into(&self, psi: &Grid, ex: &mut Grid, ey: &mut Grid) {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("poisson_field");
        let _span = SPAN.enter();
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(psi.nx(), nx, "potential grid width mismatch");
        assert_eq!(psi.ny(), ny, "potential grid height mismatch");
        assert_eq!(ex.nx(), nx, "field grid width mismatch");
        assert_eq!(ex.ny(), ny, "field grid height mismatch");
        assert_eq!(ey.nx(), nx, "field grid width mismatch");
        assert_eq!(ey.ny(), ny, "field grid height mismatch");
        let clamp = |i: isize, n: usize| -> usize { i.clamp(0, n as isize - 1) as usize };
        for iy in 0..ny {
            for ix in 0..nx {
                let xm = psi.get(clamp(ix as isize - 1, nx), iy);
                let xp = psi.get(clamp(ix as isize + 1, nx), iy);
                let ym = psi.get(ix, clamp(iy as isize - 1, ny));
                let yp = psi.get(ix, clamp(iy as isize + 1, ny));
                ex.set(ix, iy, -(xp - xm) / (2.0 * self.hx));
                ey.set(ix, iy, -(yp - ym) / (2.0 * self.hy));
            }
        }
    }

    /// Total electrostatic energy `½ Σ ρ·ψ · hx·hy` for a density grid.
    pub fn energy(&self, rho: &Grid, psi: &Grid) -> f64 {
        let mean = rho.mean();
        let mut e = 0.0;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                e += (rho.get(ix, iy) - mean) * psi.get(ix, iy);
            }
        }
        0.5 * e * self.hx * self.hy
    }
}

/// Runs the DCT plan over every `row_len` row of `data`, every row sharing
/// the solver's scratch.
fn dct_rows(data: &mut [f64], row_len: usize, plan: &DctPlan, forward: bool, cplx: &mut [Complex]) {
    let scratch = &mut cplx[..row_len];
    for row in data.chunks_exact_mut(row_len) {
        if forward {
            plan.dct_ii(row, scratch);
        } else {
            plan.dct_iii(row, scratch);
        }
    }
}

/// Transposes row-major `rows × cols` `src` into `cols × rows` `dst`.
fn transpose_real(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies the 5-point Laplacian with mirrored ghost cells.
    fn mirrored_laplacian(psi: &Grid, hx: f64, hy: f64) -> Grid {
        let (nx, ny) = (psi.nx(), psi.ny());
        let mut out = Grid::new(nx, ny);
        let gx = |i: isize| -> usize {
            if i < 0 {
                0
            } else if i >= nx as isize {
                nx - 1
            } else {
                i as usize
            }
        };
        let gy = |i: isize| -> usize {
            if i < 0 {
                0
            } else if i >= ny as isize {
                ny - 1
            } else {
                i as usize
            }
        };
        for iy in 0..ny {
            for ix in 0..nx {
                let c = psi.get(ix, iy);
                let xm = psi.get(gx(ix as isize - 1), iy);
                let xp = psi.get(gx(ix as isize + 1), iy);
                let ym = psi.get(ix, gy(iy as isize - 1));
                let yp = psi.get(ix, gy(iy as isize + 1));
                out.set(
                    ix,
                    iy,
                    (xm + xp - 2.0 * c) / (hx * hx) + (ym + yp - 2.0 * c) / (hy * hy),
                );
            }
        }
        out
    }

    #[test]
    fn solution_satisfies_discrete_poisson_equation() {
        let n = 16;
        let solver = PoissonSolver::new(n, n, 0.5, 0.5);
        let mut rho = Grid::new(n, n);
        for iy in 0..n {
            for ix in 0..n {
                rho.set(ix, iy, ((ix * 3 + iy * 7) % 11) as f64 * 0.1);
            }
        }
        let psi = solver.solve(&rho);
        let lap = mirrored_laplacian(&psi, 0.5, 0.5);
        let mean = rho.mean();
        for iy in 0..n {
            for ix in 0..n {
                let expected = -(rho.get(ix, iy) - mean);
                assert!(
                    (lap.get(ix, iy) - expected).abs() < 1e-8,
                    "residual too large at ({ix},{iy}): {} vs {}",
                    lap.get(ix, iy),
                    expected
                );
            }
        }
    }

    #[test]
    fn dct_solve_matches_mirror_extended_reference() {
        // Non-square grid with distinct spacings to exercise both axes.
        let solver = PoissonSolver::new(32, 16, 0.7, 1.3);
        let mut rho = Grid::new(32, 16);
        for iy in 0..16 {
            for ix in 0..32 {
                rho.set(ix, iy, ((ix * 5 + iy * 3) % 17) as f64 * 0.2 - 0.8);
            }
        }
        let fast = solver.solve(&rho);
        let reference = solver.solve_reference(&rho);
        let scale = reference.max().abs().max(1.0);
        for (a, b) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-9 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn solve_into_is_bit_identical_to_solve() {
        let mut solver = PoissonSolver::new(16, 32, 1.0, 0.5);
        let mut rho = Grid::new(16, 32);
        for iy in 0..32 {
            for ix in 0..16 {
                rho.set(ix, iy, ((ix * 7 + iy) % 5) as f64);
            }
        }
        let fresh = solver.solve(&rho);
        let mut reused = Grid::new(16, 32);
        // Twice, so the second call sees dirty scratch.
        solver.solve_into(&rho, &mut reused);
        solver.solve_into(&rho, &mut reused);
        for (a, b) in fresh.as_slice().iter().zip(reused.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn uniform_density_gives_flat_potential() {
        let solver = PoissonSolver::new(8, 8, 1.0, 1.0);
        let mut rho = Grid::new(8, 8);
        for iy in 0..8 {
            for ix in 0..8 {
                rho.set(ix, iy, 2.5);
            }
        }
        let psi = solver.solve(&rho);
        for v in psi.as_slice() {
            assert!(v.abs() < 1e-10);
        }
        let (ex, ey) = solver.field(&psi);
        assert!(ex.max().abs() < 1e-10 && ey.max().abs() < 1e-10);
    }

    #[test]
    fn field_points_away_from_charge_cluster() {
        let n = 16;
        let solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let mut rho = Grid::new(n, n);
        rho.set(8, 8, 10.0);
        let psi = solver.solve(&rho);
        let (ex, _ey) = solver.field(&psi);
        // Left of the charge the field pushes further left (negative),
        // right of it further right (positive).
        assert!(ex.get(5, 8) < 0.0);
        assert!(ex.get(11, 8) > 0.0);
    }

    #[test]
    fn energy_positive_for_nonuniform_density() {
        let n = 16;
        let solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let mut rho = Grid::new(n, n);
        rho.set(3, 3, 4.0);
        rho.set(12, 12, 4.0);
        let psi = solver.solve(&rho);
        assert!(solver.energy(&rho, &psi) > 0.0);
    }

    #[test]
    fn spreading_charge_lowers_energy() {
        let n = 16;
        let solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let mut tight = Grid::new(n, n);
        tight.set(8, 8, 4.0);
        let mut spread = Grid::new(n, n);
        for (ix, iy) in [(4, 4), (4, 12), (12, 4), (12, 12)] {
            spread.set(ix, iy, 1.0);
        }
        let e_tight = solver.energy(&tight, &solver.solve(&tight));
        let e_spread = solver.energy(&spread, &solver.solve(&spread));
        assert!(e_spread < e_tight);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_non_power_of_two() {
        let _ = PoissonSolver::new(12, 16, 1.0, 1.0);
    }
}
