//! Electrostatic density term `N(v)` (ePlace).
//!
//! Devices are modelled as positive charges whose magnitude equals their
//! footprint area, deposited onto a bin grid with area-proportional overlap.
//! The potential solves Poisson's equation via the spectral solver; the
//! density *energy* is `½Σqψ` and each device's force is its charge times
//! the local field, accumulated over the bins it covers.
//!
//! The grid owns all solver scratch (density, potential and field grids,
//! device spans) and [`DensityGrid::evaluate`] writes the gradient into the
//! caller's buffer, so repeated evaluations allocate nothing. Scatter and
//! gather run on the calling thread in device order, so results never
//! depend on the thread count.

use analog_netlist::Circuit;
use placer_numeric::{Grid, PoissonSolver};

/// Device span in bin coordinates: `(bx0, bx1, by0, by1)`, inclusive.
type Span = (u32, u32, u32, u32);

/// The bin lattice of a placement region, and the device-order scatter and
/// gather over it that both evaluation paths share.
#[derive(Debug, Clone, Copy)]
struct Lattice {
    /// Region origin (µm).
    origin: (f64, f64),
    /// Bin pitch (µm).
    bin: (f64, f64),
    /// Grid dimension.
    dim: usize,
}

impl Lattice {
    /// Rasterizes every device rectangle into the zeroed `rho` with
    /// area-proportional overlap, in device order, recording its bin span,
    /// and returns the overflow: the area packed above full bin occupancy,
    /// i.e. a physical-overlap proxy (density 1.0 = exactly filled). The
    /// utilization target shapes the *region*, not this metric.
    fn scatter(
        &self,
        circuit: &Circuit,
        positions: &[(f64, f64)],
        rho: &mut Grid,
        spans: &mut Vec<Span>,
    ) -> f64 {
        let n = circuit.num_devices();
        assert_eq!(positions.len(), n, "positions length mismatch");
        let Lattice { origin, bin, dim } = *self;
        let bin_area = bin.0 * bin.1;
        let clampi = |v: isize| v.clamp(0, dim as isize - 1) as usize;
        spans.clear();
        for (d, &(cx, cy)) in circuit.devices().iter().zip(positions) {
            let x0 = cx - d.width / 2.0 - origin.0;
            let x1 = cx + d.width / 2.0 - origin.0;
            let y0 = cy - d.height / 2.0 - origin.1;
            let y1 = cy + d.height / 2.0 - origin.1;
            let bx0 = clampi((x0 / bin.0).floor() as isize);
            let bx1 = clampi(((x1 / bin.0).ceil() as isize) - 1);
            let by0 = clampi((y0 / bin.1).floor() as isize);
            let by1 = clampi(((y1 / bin.1).ceil() as isize) - 1);
            // Rows are contiguous in the row-major grid, so each y-slab
            // hands one row slice to the dispatched kernel (bit-exact under
            // every backend: the per-cell charge is a pure elementwise map).
            let data = rho.as_mut_slice();
            for by in by0..=by1 {
                let cell_y0 = by as f64 * bin.1;
                let oy = (y1.min(cell_y0 + bin.1) - y0.max(cell_y0)).max(0.0);
                let row = &mut data[by * dim + bx0..=by * dim + bx1];
                placer_simd::scatter_row(row, bx0, bin.0, x0, x1, oy, bin_area);
            }
            spans.push((bx0 as u32, bx1 as u32, by0 as u32, by1 as u32));
        }
        let mut over = 0.0;
        for v in rho.as_slice() {
            over += (v - 1.0).max(0.0) * bin_area;
        }
        let total_area: f64 = circuit.total_device_area();
        if total_area > 0.0 {
            over / total_area
        } else {
            0.0
        }
    }

    /// Overwrites `grad` (`[dx…, dy…]`) with each device's density
    /// gradient: minus the charge-weighted field force, gathered over the
    /// span the device was scattered to.
    fn gather(
        &self,
        circuit: &Circuit,
        positions: &[(f64, f64)],
        (ex, ey): (&Grid, &Grid),
        spans: &[Span],
        grad: &mut [f64],
    ) {
        let n = circuit.num_devices();
        assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
        let Lattice { origin, bin, .. } = *self;
        let bin_area = bin.0 * bin.1;
        let dim = ex.nx();
        let (exs, eys) = (ex.as_slice(), ey.as_slice());
        for (i, d) in circuit.devices().iter().enumerate() {
            let (cx, cy) = positions[i];
            let (bx0, bx1, by0, by1) = spans[i];
            let x0 = cx - d.width / 2.0 - origin.0;
            let x1 = cx + d.width / 2.0 - origin.0;
            let y0 = cy - d.height / 2.0 - origin.1;
            let y1 = cy + d.height / 2.0 - origin.1;
            let mut fx = 0.0;
            let mut fy = 0.0;
            // The force accumulators thread across rows (seed order);
            // within a row the dispatched kernel may re-associate the sum
            // (bounded-ULP under SIMD backends, seed-exact under scalar).
            for by in by0 as usize..=by1 as usize {
                let cell_y0 = by as f64 * bin.1;
                let oy = (y1.min(cell_y0 + bin.1) - y0.max(cell_y0)).max(0.0);
                let r = by * dim + bx0 as usize..=by * dim + bx1 as usize;
                placer_simd::gather_row(
                    &exs[r.clone()],
                    &eys[r],
                    bx0 as usize,
                    bin.0,
                    x0,
                    x1,
                    oy,
                    bin_area,
                    &mut fx,
                    &mut fy,
                );
            }
            // Energy decreases along the force: ∂N/∂x = −fx.
            grad[i] = -fx;
            grad[n + i] = -fy;
        }
    }
}

/// The density engine for one placement region.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    solver: PoissonSolver,
    lattice: Lattice,
    /// Scatter target, reused across evaluations.
    rho: Grid,
    /// Potential, reused across evaluations.
    psi: Grid,
    /// Field components, reused across evaluations.
    ex: Grid,
    ey: Grid,
    /// Per-device bin spans, reused across evaluations.
    spans: Vec<Span>,
}

/// Result of one density evaluation; the gradient goes to the caller's
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct DensityEval {
    /// Electrostatic energy (the smooth penalty value `N(v)`).
    pub energy: f64,
    /// Density overflow: fraction of movable area above the target density.
    pub overflow: f64,
}

impl DensityGrid {
    /// Creates a density grid covering `[origin, origin + extent]` with a
    /// `dim × dim` bin lattice.
    ///
    /// The utilization target deliberately does **not** appear here: it is
    /// a *region sizing* input (the caller chooses `extent` so that
    /// `total_device_area / extent² = target`), while overflow is always
    /// measured against full bin occupancy (density 1.0), i.e. as a
    /// physical-overlap proxy. An earlier signature accepted the target
    /// and silently ignored it.
    ///
    /// # Panics
    ///
    /// Panics unless `dim` is a power of two and extents are positive.
    pub fn new(origin: (f64, f64), extent: (f64, f64), dim: usize) -> Self {
        assert!(
            extent.0 > 0.0 && extent.1 > 0.0,
            "region extent must be positive"
        );
        let bin = (extent.0 / dim as f64, extent.1 / dim as f64);
        Self {
            solver: PoissonSolver::new(dim, dim, bin.0, bin.1),
            lattice: Lattice { origin, bin, dim },
            rho: Grid::new(dim, dim),
            psi: Grid::new(dim, dim),
            ex: Grid::new(dim, dim),
            ey: Grid::new(dim, dim),
            spans: Vec::new(),
        }
    }

    /// Bin pitch (µm).
    pub fn bin_size(&self) -> (f64, f64) {
        self.lattice.bin
    }

    /// Evaluates energy and overflow for device centers, and overwrites
    /// `grad` with the per-device gradient `∂N/∂(x, y)` (layout
    /// `[dx…, dy…]`).
    ///
    /// Reuses the grid's internal scratch; a call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `positions` or `grad` is sized for another circuit.
    pub fn evaluate(
        &mut self,
        circuit: &Circuit,
        positions: &[(f64, f64)],
        grad: &mut [f64],
    ) -> DensityEval {
        self.rho.fill_zero();
        let overflow = self
            .lattice
            .scatter(circuit, positions, &mut self.rho, &mut self.spans);
        // Allocation-free spectral solve + field into owned scratch.
        self.solver.solve_into(&self.rho, &mut self.psi);
        self.solver
            .field_into(&self.psi, &mut self.ex, &mut self.ey);
        let energy = self.solver.energy(&self.rho, &self.psi);
        let field = (&self.ex, &self.ey);
        self.lattice
            .gather(circuit, positions, field, &self.spans, grad);
        DensityEval { energy, overflow }
    }

    /// The seed evaluation path: fresh grids every call, mirror-extended
    /// FFT solve. Retained as the benchmark baseline for
    /// [`evaluate`](Self::evaluate), with the same signature; agrees with
    /// it to solver roundoff.
    pub fn evaluate_reference(
        &self,
        circuit: &Circuit,
        positions: &[(f64, f64)],
        grad: &mut [f64],
    ) -> DensityEval {
        let dim = self.lattice.dim;
        let mut rho = Grid::new(dim, dim);
        let mut spans = Vec::with_capacity(circuit.num_devices());
        let overflow = self
            .lattice
            .scatter(circuit, positions, &mut rho, &mut spans);
        let psi = self.solver.solve_reference(&rho);
        let (ex, ey) = self.solver.field(&psi);
        let energy = self.solver.energy(&rho, &psi);
        self.lattice
            .gather(circuit, positions, (&ex, &ey), &spans, grad);
        DensityEval { energy, overflow }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    fn grid_for(circuit: &Circuit) -> DensityGrid {
        let side = (circuit.total_device_area() / 0.4).sqrt();
        DensityGrid::new((0.0, 0.0), (side, side), 16)
    }

    #[test]
    fn stacked_devices_have_high_energy_and_outward_forces() {
        let c = testcases::cc_ota();
        let mut g = grid_for(&c);
        let side = (c.total_device_area() / 0.4).sqrt();
        let stacked: Vec<(f64, f64)> = vec![(side / 2.0, side / 2.0); c.num_devices()];
        let spread: Vec<(f64, f64)> = (0..c.num_devices())
            .map(|i| {
                (
                    (i % 4) as f64 / 4.0 * side + side / 8.0,
                    (i / 4) as f64 / 4.0 * side + side / 8.0,
                )
            })
            .collect();
        let mut grad = vec![0.0; 2 * c.num_devices()];
        let e_stacked = g.evaluate(&c, &stacked, &mut grad);
        let e_spread = g.evaluate(&c, &spread, &mut grad);
        assert!(e_stacked.energy > e_spread.energy);
        assert!(e_stacked.overflow > e_spread.overflow);
    }

    #[test]
    fn forces_push_overlapping_devices_apart() {
        let c = testcases::adder();
        let mut g = grid_for(&c);
        let side = (c.total_device_area() / 0.4).sqrt();
        // Two clusters: everything at center except device 0 slightly left.
        let mut positions: Vec<(f64, f64)> = vec![(side / 2.0, side / 2.0); c.num_devices()];
        positions[0] = (side / 2.0 - 1.0, side / 2.0);
        let mut grad = vec![0.0; 2 * c.num_devices()];
        g.evaluate(&c, &positions, &mut grad);
        // Gradient on device 0 along +x (energy rises if it moves right,
        // back into the cluster): ∂N/∂x > 0 means descent moves it left.
        assert!(
            grad[0] > 0.0,
            "expected positive x-gradient, got {}",
            grad[0]
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let c = testcases::adder();
        let mut g = grid_for(&c);
        let side = (c.total_device_area() / 0.4).sqrt();
        let mut positions: Vec<(f64, f64)> = (0..c.num_devices())
            .map(|i| {
                (
                    side * 0.3 + (i % 3) as f64 * 1.1,
                    side * 0.3 + (i / 3) as f64 * 0.9,
                )
            })
            .collect();
        let mut grad = vec![0.0; 2 * c.num_devices()];
        g.evaluate(&c, &positions, &mut grad);
        let mut scratch = grad.clone();
        let eps = 0.05; // bin-scale probe: the rasterization is piecewise linear
        for dev in [0usize, 2] {
            let orig = positions[dev];
            positions[dev] = (orig.0 + eps, orig.1);
            let ep = g.evaluate(&c, &positions, &mut scratch).energy;
            positions[dev] = (orig.0 - eps, orig.1);
            let em = g.evaluate(&c, &positions, &mut scratch).energy;
            positions[dev] = orig;
            let numeric = (ep - em) / (2.0 * eps);
            let analytic = grad[dev];
            // The bin-field gradient is a coarse discretization of the true
            // energy derivative; demand agreement in sign and within a
            // factor of 4 when the signal is meaningful.
            if numeric.abs() > 1e-3 {
                assert!(
                    numeric.signum() == analytic.signum(),
                    "dev {dev}: sign mismatch {numeric} vs {analytic}"
                );
                let ratio =
                    numeric.abs().max(analytic.abs()) / numeric.abs().min(analytic.abs()).max(1e-9);
                assert!(
                    ratio < 4.0,
                    "dev {dev}: magnitudes too far apart {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn overflow_zero_when_perfectly_spread() {
        let c = testcases::adder();
        // Huge region: density everywhere below target.
        let mut g = DensityGrid::new((0.0, 0.0), (200.0, 200.0), 16);
        let positions: Vec<(f64, f64)> = (0..c.num_devices())
            .map(|i| ((i % 4) as f64 * 50.0 + 10.0, (i / 4) as f64 * 50.0 + 10.0))
            .collect();
        let mut grad = vec![0.0; 2 * c.num_devices()];
        let eval = g.evaluate(&c, &positions, &mut grad);
        assert!(eval.overflow < 0.05, "overflow {}", eval.overflow);
    }

    #[test]
    fn evaluate_matches_reference_path() {
        let c = testcases::cc_ota();
        let mut g = grid_for(&c);
        let side = (c.total_device_area() / 0.4).sqrt();
        let positions: Vec<(f64, f64)> = (0..c.num_devices())
            .map(|i| {
                (
                    side * 0.2 + (i % 5) as f64 * side * 0.15,
                    side * 0.2 + (i / 5) as f64 * side * 0.2,
                )
            })
            .collect();
        let n = c.num_devices();
        let (mut fast_grad, mut reference_grad) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
        let fast = g.evaluate(&c, &positions, &mut fast_grad);
        let reference = g.evaluate_reference(&c, &positions, &mut reference_grad);
        assert!((fast.energy - reference.energy).abs() < 1e-9 * reference.energy.abs().max(1.0));
        assert!((fast.overflow - reference.overflow).abs() < 1e-12);
        for (a, b) in fast_grad.iter().zip(&reference_grad) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
