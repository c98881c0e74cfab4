//! The smoothed area term `Area(v) = WA_{V,x}(v) · WA_{V,y}(v)` (§IV-A).
//!
//! The spread in each axis is the WA-smoothed extent of all device
//! *outline edges* (left/right or bottom/top), so the term tracks the true
//! bounding-box area rather than the center spread.

use analog_netlist::Circuit;

use crate::wirelength::wa_spread_with_grad;

/// Reusable staging for [`area_term`]: the edge coordinates and their WA
/// gradients. The buffers grow on first use and are reused afterwards, so a
/// loop that keeps one scratch (ePlace's Nesterov loop) evaluates the area
/// term without allocating.
#[derive(Debug, Default)]
pub struct AreaScratch {
    /// Device outline edges `[x−w/2, x+w/2]` per device, same for y.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `∂WA/∂edge`, aligned with `xs` and `ys`.
    gx: Vec<f64>,
    gy: Vec<f64>,
}

impl AreaScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Evaluates the smoothed area and accumulates its gradient (scaled by
/// `weight`) into `grad` (`[dx…, dy…]`). Returns the smoothed area value.
///
/// # Panics
///
/// Panics on size mismatches.
pub fn area_term(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    weight: f64,
    grad: &mut [f64],
    scratch: &mut AreaScratch,
) -> f64 {
    let n = circuit.num_devices();
    assert_eq!(positions.len(), n, "positions length mismatch");
    assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
    if n == 0 {
        return 0.0;
    }

    let AreaScratch { xs, ys, gx, gy } = scratch;
    xs.clear();
    ys.clear();
    for (i, d) in circuit.devices().iter().enumerate() {
        let (cx, cy) = positions[i];
        xs.push(cx - d.width / 2.0);
        xs.push(cx + d.width / 2.0);
        ys.push(cy - d.height / 2.0);
        ys.push(cy + d.height / 2.0);
    }
    // `wa_spread_with_grad` overwrites every entry, so stale values from
    // an earlier call never leak through.
    gx.resize(2 * n, 0.0);
    gy.resize(2 * n, 0.0);
    let wx = wa_spread_with_grad(xs, gamma, gx);
    let wy = wa_spread_with_grad(ys, gamma, gy);
    let area = wx * wy;

    // d(wx·wy)/dx_i = wy · (gx[2i] + gx[2i+1]); both edges move with x_i.
    for i in 0..n {
        grad[i] += weight * wy * (gx[2 * i] + gx[2 * i + 1]);
        grad[n + i] += weight * wx * (gy[2 * i] + gy[2 * i + 1]);
    }
    area
}

/// Exact bounding-box area with the same outline model (for tests).
pub fn exact_area(circuit: &Circuit, positions: &[(f64, f64)]) -> f64 {
    let mut x0 = f64::INFINITY;
    let mut x1 = f64::NEG_INFINITY;
    let mut y0 = f64::INFINITY;
    let mut y1 = f64::NEG_INFINITY;
    for (i, d) in circuit.devices().iter().enumerate() {
        let (cx, cy) = positions[i];
        x0 = x0.min(cx - d.width / 2.0);
        x1 = x1.max(cx + d.width / 2.0);
        y0 = y0.min(cy - d.height / 2.0);
        y1 = y1.max(cy + d.height / 2.0);
    }
    if x1 > x0 && y1 > y0 {
        (x1 - x0) * (y1 - y0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn smoothed_area_tracks_exact_area() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 4) as f64 * 5.0, (i / 4) as f64 * 4.0))
            .collect();
        let mut grad = vec![0.0; 2 * n];
        let smooth = area_term(
            &c,
            &positions,
            0.05,
            1.0,
            &mut grad,
            &mut AreaScratch::new(),
        );
        let exact = exact_area(&c, &positions);
        assert!(
            (smooth - exact).abs() / exact < 0.05,
            "smooth {smooth} vs exact {exact}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let c = testcases::adder();
        let n = c.num_devices();
        let mut positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i as f64 * 1.9) % 8.0, (i as f64 * 1.3) % 6.0))
            .collect();
        let gamma = 1.0;
        let mut grad = vec![0.0; 2 * n];
        let mut area = AreaScratch::new();
        area_term(&c, &positions, gamma, 1.0, &mut grad, &mut area);
        let eps = 1e-6;
        let mut scratch = vec![0.0; 2 * n];
        for dev in [0usize, n / 2, n - 1] {
            let orig = positions[dev];
            positions[dev] = (orig.0 + eps, orig.1);
            scratch.iter_mut().for_each(|g| *g = 0.0);
            let fp = area_term(&c, &positions, gamma, 1.0, &mut scratch, &mut area);
            positions[dev] = (orig.0 - eps, orig.1);
            scratch.iter_mut().for_each(|g| *g = 0.0);
            let fm = area_term(&c, &positions, gamma, 1.0, &mut scratch, &mut area);
            positions[dev] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[dev]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "dev {dev}: numeric {numeric} vs analytic {}",
                grad[dev]
            );
        }
    }

    #[test]
    fn shrinking_spread_reduces_area_term() {
        let c = testcases::comp1();
        let n = c.num_devices();
        let wide: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 * 6.0, i as f64 * 4.0)).collect();
        let tight: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 5) as f64 * 2.0, (i / 5) as f64 * 1.5))
            .collect();
        let mut g = vec![0.0; 2 * n];
        let mut area = AreaScratch::new();
        let a_wide = area_term(&c, &wide, 1.0, 1.0, &mut g, &mut area);
        g.iter_mut().for_each(|v| *v = 0.0);
        let a_tight = area_term(&c, &tight, 1.0, 1.0, &mut g, &mut area);
        assert!(a_tight < a_wide);
    }
}
