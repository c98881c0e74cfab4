//! Bell-shaped density penalty (NTUplace3 \[10\]), used by the ISPD'19
//! analytical analog placer \[11\].
//!
//! Each device spreads its area into bins through a smooth bell-shaped
//! overlap kernel; the penalty is `Σ_b (D_b − D_target)²` with an analytic
//! gradient. This contrasts with ePlace's electrostatic formulation and is
//! one of the methodological differences the paper's comparison probes.

use analog_netlist::Circuit;

/// The bell-shaped overlap kernel of NTUplace3 between a device of
/// half-extent `hw` centered at distance `d` from a bin center, with bin
/// half-extent `hb`: smooth, 1 at `d = 0`, 0 beyond `hw + 3hb`.
///
/// Returns `(value, dvalue/dd)`.
pub fn bell_kernel(d: f64, hw: f64, hb: f64) -> (f64, f64) {
    Bell::new(hw, hb).at(d)
}

/// The kernel's constants for one device half-extent along one axis.
#[derive(Debug, Clone, Copy)]
struct Bell {
    r1: f64,
    r2: f64,
    a: f64,
    b: f64,
}

impl Bell {
    fn new(hw: f64, hb: f64) -> Self {
        let r1 = hw + hb;
        let r2 = hw + 3.0 * hb;
        // p(d) = 1 − a·d² on [0, r1], b·(d − r2)² on [r1, r2], 0 beyond, with
        // C¹ continuity: a = 1/(r1·r2), b = 1/(2·hb·r2).
        Self {
            r1,
            r2,
            a: 1.0 / (r1 * r2).max(1e-12),
            b: 1.0 / (2.0 * hb * r2).max(1e-12),
        }
    }

    fn at(&self, d: f64) -> (f64, f64) {
        let sign = if d < 0.0 { -1.0 } else { 1.0 };
        let d = d.abs();
        let (r1, r2, a, b) = (self.r1, self.r2, self.a, self.b);
        if d <= r1 {
            (1.0 - a * d * d, sign * (-2.0 * a * d))
        } else if d <= r2 {
            (b * (d - r2) * (d - r2), sign * (2.0 * b * (d - r2)))
        } else {
            (0.0, 0.0)
        }
    }
}

/// One device's bin window from the last evaluation: its first column and
/// row, its extent in bins, and its mass normalization. A device whose
/// kernel sums to zero gets an empty window.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    x0: usize,
    y0: usize,
    cols: usize,
    rows: usize,
    scale: f64,
}

/// First and one-past-last bin a kernel of reach `reach` around `c`
/// touches on an axis of `bins` bins of size `size` starting at `origin`.
fn bin_span(c: f64, reach: f64, origin: f64, size: f64, bins: usize) -> (usize, usize) {
    let lo = (((c - reach - origin) / size).floor().max(0.0)) as usize;
    let hi = (((c + reach - origin) / size).ceil()).min(bins as f64 - 1.0) as usize;
    (lo, if hi >= lo { hi + 1 } else { lo })
}

/// Bell-shaped density evaluator on a uniform bin grid.
///
/// The kernel is separable: a device's weight in bin `(gx, gy)` is
/// `px[gx] · py[gy]`. Each evaluation fills one row of 1-D kernel values
/// per device and axis, then runs the density and gradient passes over
/// those tables. The evaluator owns the tables and the bin grid, so an
/// evaluation allocates nothing once it has seen the circuit.
#[derive(Debug, Clone)]
pub struct BellDensity {
    origin: (f64, f64),
    bin: (f64, f64),
    dims: (usize, usize),
    target: f64,
    density: Vec<f64>,
    windows: Vec<Window>,
    /// `(px, dpx)` per device over its bin columns, `nx` slots a device.
    kx: Vec<(f64, f64)>,
    /// `(py, dpy)` per device over its bin rows, `ny` slots a device.
    ky: Vec<(f64, f64)>,
}

impl BellDensity {
    /// Creates an evaluator over `[origin, origin + extent]` with
    /// `nx × ny` bins and a target per-bin fill fraction.
    ///
    /// # Panics
    ///
    /// Panics unless dimensions and extents are positive.
    pub fn new(origin: (f64, f64), extent: (f64, f64), nx: usize, ny: usize, target: f64) -> Self {
        assert!(nx > 0 && ny > 0, "bin dimensions must be nonzero");
        assert!(extent.0 > 0.0 && extent.1 > 0.0, "extent must be positive");
        Self {
            origin,
            bin: (extent.0 / nx as f64, extent.1 / ny as f64),
            dims: (nx, ny),
            target: target.max(1e-6),
            density: vec![0.0; nx * ny],
            windows: Vec::new(),
            kx: Vec::new(),
            ky: Vec::new(),
        }
    }

    /// Evaluates the quadratic density penalty and accumulates its
    /// gradient (scaled by `weight`) into `grad` (`[dx…, dy…]`).
    /// Returns `(penalty, overflow)` where overflow is the fraction of
    /// device area in bins above full occupancy.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn evaluate(
        &mut self,
        circuit: &Circuit,
        positions: &[(f64, f64)],
        weight: f64,
        grad: &mut [f64],
    ) -> (f64, f64) {
        let n = circuit.num_devices();
        assert_eq!(positions.len(), n, "positions length mismatch");
        assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
        let (nx, ny) = self.dims;
        let (bx, by) = self.bin;
        let (hbx, hby) = (bx / 2.0, by / 2.0);
        let bin_area = bx * by;
        let (origin, target) = (self.origin, self.target);
        let Self {
            density,
            windows,
            kx,
            ky,
            ..
        } = self;
        density.fill(0.0);
        windows.resize(n, Window::default());
        kx.resize(n * nx, (0.0, 0.0));
        ky.resize(n * ny, (0.0, 0.0));

        // Pass 1: tabulate each device's kernel over its window and spread
        // its area, normalized so the total mass equals the device area.
        for (i, dev) in circuit.devices().iter().enumerate() {
            let (cx, cy) = positions[i];
            let hw = dev.width / 2.0;
            let hh = dev.height / 2.0;
            let (x0, x1) = bin_span(cx, hw + 3.0 * hbx, origin.0, bx, nx);
            let (y0, y1) = bin_span(cy, hh + 3.0 * hby, origin.1, by, ny);
            let tx = &mut kx[i * nx..][..x1 - x0];
            let bell_x = Bell::new(hw, hbx);
            for (gx, k) in (x0..x1).zip(tx.iter_mut()) {
                *k = bell_x.at(cx - (origin.0 + (gx as f64 + 0.5) * bx));
            }
            let ty = &mut ky[i * ny..][..y1 - y0];
            let bell_y = Bell::new(hh, hby);
            for (gy, k) in (y0..y1).zip(ty.iter_mut()) {
                *k = bell_y.at(cy - (origin.1 + (gy as f64 + 0.5) * by));
            }
            let mut ksum = 0.0;
            for &(py, _) in ty.iter() {
                for &(px, _) in tx.iter() {
                    ksum += px * py;
                }
            }
            if ksum <= 0.0 {
                windows[i] = Window::default();
                continue;
            }
            let scale = dev.area() / (ksum * bin_area);
            for (gy, &(py, _)) in (y0..).zip(ty.iter()) {
                let row = &mut density[gy * nx + x0..][..tx.len()];
                for (d, &(px, _)) in row.iter_mut().zip(tx.iter()) {
                    *d += scale * px * py;
                }
            }
            windows[i] = Window {
                x0,
                y0,
                cols: tx.len(),
                rows: ty.len(),
                scale,
            };
        }

        // Penalty and overflow.
        let mut penalty = 0.0;
        let mut over = 0.0;
        for &d in density.iter() {
            let excess = d - target;
            if excess > 0.0 {
                penalty += excess * excess;
            }
            over += (d - 1.0).max(0.0) * bin_area;
        }
        let total_area = circuit.total_device_area().max(1e-12);
        let overflow = over / total_area;

        // Gradient: dP/dx_i = Σ_b 2(D_b − t)+ · scale · dpx · py.
        for (i, w) in windows.iter().enumerate() {
            let tx = &kx[i * nx..][..w.cols];
            let ty = &ky[i * ny..][..w.rows];
            for (gy, &(py, dpy)) in (w.y0..).zip(ty) {
                let row = &density[gy * nx + w.x0..][..w.cols];
                for (&d, &(px, dpx)) in row.iter().zip(tx) {
                    let excess = d - target;
                    if excess > 0.0 {
                        let e = weight * 2.0 * excess * w.scale;
                        grad[i] += e * dpx * py;
                        grad[n + i] += e * px * dpy;
                    }
                }
            }
        }
        (penalty, overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn kernel_is_smooth_and_compact() {
        let (hw, hb) = (1.0, 0.25);
        let (v0, d0) = bell_kernel(0.0, hw, hb);
        assert!((v0 - 1.0).abs() < 1e-12);
        assert_eq!(d0, 0.0);
        let (v_far, d_far) = bell_kernel(hw + 3.0 * hb + 0.1, hw, hb);
        assert_eq!(v_far, 0.0);
        assert_eq!(d_far, 0.0);
        // Continuity at the knee r1.
        let r1 = hw + hb;
        let (va, _) = bell_kernel(r1 - 1e-9, hw, hb);
        let (vb, _) = bell_kernel(r1 + 1e-9, hw, hb);
        assert!((va - vb).abs() < 1e-6);
    }

    #[test]
    fn kernel_gradient_matches_finite_differences() {
        let (hw, hb) = (0.8, 0.3);
        for &d in &[0.1, 0.5, 1.0, 1.3, 1.6] {
            let (_, g) = bell_kernel(d, hw, hb);
            let eps = 1e-7;
            let (vp, _) = bell_kernel(d + eps, hw, hb);
            let (vm, _) = bell_kernel(d - eps, hw, hb);
            let numeric = (vp - vm) / (2.0 * eps);
            assert!((numeric - g).abs() < 1e-5, "d={d}: {numeric} vs {g}");
        }
    }

    #[test]
    fn stacked_devices_have_higher_penalty() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let side = (c.total_device_area() / 0.4).sqrt();
        let mut bell = BellDensity::new((0.0, 0.0), (side, side), 24, 24, 0.4);
        let stacked = vec![(side / 2.0, side / 2.0); n];
        let spread: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    (i % 4) as f64 / 4.0 * side + side / 8.0,
                    (i / 4) as f64 / 4.0 * side + side / 8.0,
                )
            })
            .collect();
        let mut g = vec![0.0; 2 * n];
        let (p_stacked, o_stacked) = bell.evaluate(&c, &stacked, 1.0, &mut g);
        g.iter_mut().for_each(|v| *v = 0.0);
        let (p_spread, o_spread) = bell.evaluate(&c, &spread, 1.0, &mut g);
        assert!(p_stacked > p_spread);
        assert!(o_stacked > o_spread);
    }

    #[test]
    fn reused_tables_match_a_fresh_evaluator() {
        // A device near the grid edge gets a clipped window, one outside it
        // an empty one: stale table rows from the first call must not leak.
        let c = testcases::vco2();
        let n = c.num_devices();
        let side = (c.total_device_area() / 0.4).sqrt();
        let spread: Vec<(f64, f64)> = (0..n)
            .map(|i| (side * (i as f64 + 0.5) / n as f64, side / 2.0))
            .collect();
        let mut edge = spread.clone();
        edge[0] = (0.0, side);
        edge[1] = (-3.0 * side, side / 2.0);
        let mut reused = BellDensity::new((0.0, 0.0), (side, side), 24, 24, 0.4);
        let mut fresh = reused.clone();
        let (mut g_reused, mut g_fresh) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
        reused.evaluate(&c, &spread, 1.0, &mut g_reused);
        g_reused.iter_mut().for_each(|g| *g = 0.0);
        let a = reused.evaluate(&c, &edge, 0.7, &mut g_reused);
        let b = fresh.evaluate(&c, &edge, 0.7, &mut g_fresh);
        assert_eq!(
            (a.0.to_bits(), a.1.to_bits()),
            (b.0.to_bits(), b.1.to_bits())
        );
        assert_eq!(g_reused, g_fresh);
    }

    #[test]
    fn density_gradient_matches_finite_differences() {
        let c = testcases::adder();
        let n = c.num_devices();
        let side = (c.total_device_area() / 0.4).sqrt();
        let mut bell = BellDensity::new((0.0, 0.0), (side, side), 16, 16, 0.4);
        let mut positions: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    side * 0.35 + (i % 3) as f64 * 0.9,
                    side * 0.35 + (i / 3) as f64 * 0.8,
                )
            })
            .collect();
        let mut grad = vec![0.0; 2 * n];
        bell.evaluate(&c, &positions, 1.0, &mut grad);
        let eps = 1e-6;
        let mut scratch = vec![0.0; 2 * n];
        for dev in [0usize, 3] {
            let orig = positions[dev];
            positions[dev] = (orig.0 + eps, orig.1);
            scratch.iter_mut().for_each(|v| *v = 0.0);
            let (fp, _) = bell.evaluate(&c, &positions, 1.0, &mut scratch);
            positions[dev] = (orig.0 - eps, orig.1);
            scratch.iter_mut().for_each(|v| *v = 0.0);
            let (fm, _) = bell.evaluate(&c, &positions, 1.0, &mut scratch);
            positions[dev] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            // The gradient freezes the per-device mass normalization (which
            // drifts slowly with position), so it is ~5%-accurate; require
            // agreement within 10%.
            assert!(
                (numeric - grad[dev]).abs() < 0.1 * (1.0 + numeric.abs()),
                "dev {dev}: numeric {numeric} vs analytic {}",
                grad[dev]
            );
        }
    }
}
