//! Log-sum-exponential (LSE) wirelength smoothing, as in NTUplace3 \[10\] and
//! the ISPD'19 analytical analog placer \[11\].
//!
//! `LSE_e(x) = γ·ln Σe^{xᵢ/γ} + γ·ln Σe^{−xᵢ/γ}` over-approximates
//! `max xᵢ − min xᵢ`; the paper credits part of ePlace-A's quality edge to
//! using the WA function instead (reason 2 in §IV-C).

use std::ops::Range;

use analog_netlist::Circuit;

/// The value pass of one axis of LSE smoothing: fills `hi` with
/// `e^{(xᵢ − max)/γ}` and `lo` with `e^{(min − xᵢ)/γ}` and returns the
/// smoothed spread with the two sums, `(value, Σhi, Σlo)`. The gradient is
/// `hi/Σhi − lo/Σlo`, so keeping the exponentials finishes it without
/// computing any of them again.
fn lse_axis(coords: &[f64], gamma: f64, hi: &mut [f64], lo: &mut [f64]) -> (f64, f64, f64) {
    let xmax = coords.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let xmin = coords.iter().copied().fold(f64::INFINITY, f64::min);
    let mut s_max = 0.0;
    let mut s_min = 0.0;
    for ((&x, h), l) in coords.iter().zip(hi.iter_mut()).zip(lo.iter_mut()) {
        *h = ((x - xmax) / gamma).exp();
        *l = ((xmin - x) / gamma).exp();
        s_max += *h;
        s_min += *l;
    }
    let value = xmax + gamma * s_max.ln() + (-(xmin) + gamma * s_min.ln());
    (value, s_max, s_min)
}

/// A pin as the LSE pass reads it: its device, the device's half extents
/// and the pin's offset from the device's lower-left corner, kept apart so
/// the coordinate is still summed as `center − half + offset`.
#[derive(Debug, Clone, Copy)]
struct PinRef {
    device: usize,
    half: (f64, f64),
    offset: (f64, f64),
}

/// Smoothed total wirelength with LSE over one circuit's nets, same layout
/// conventions as `eplace::wirelength::wa_wirelength` (`[dx…, dy…]`
/// gradient).
///
/// [`value`](Self::value) prices a placement and keeps every pin's
/// exponentials and every net's sums; [`gradient`](Self::gradient) builds
/// the gradient at that placement from them. The pin table is built once
/// from the circuit and every buffer is owned and reused, so neither pass
/// allocates.
#[derive(Debug, Clone)]
pub struct LseWirelength {
    n: usize,
    /// Nets with at least two pins: their range in `pins` and weight.
    nets: Vec<(Range<usize>, f64)>,
    pins: Vec<PinRef>,
    /// Per pin, the last value pass's max-side exponentials on x and on y.
    hi: [Vec<f64>; 2],
    /// Per pin, its min-side exponentials on x and on y.
    lo: [Vec<f64>; 2],
    /// Per net, the last value pass's sums `(Σhi, Σlo)` on x and on y.
    sums: Vec<[(f64, f64); 2]>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LseWirelength {
    /// Builds the pin table of `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let mut nets = Vec::new();
        let mut pins = Vec::new();
        let mut widest = 0;
        for net in circuit.nets() {
            if net.pins.len() < 2 {
                continue;
            }
            let start = pins.len();
            for p in &net.pins {
                let d = circuit.device(p.device);
                pins.push(PinRef {
                    device: p.device.index(),
                    half: (d.width / 2.0, d.height / 2.0),
                    offset: d.pins[p.pin.index()].offset,
                });
            }
            widest = widest.max(net.pins.len());
            nets.push((start..pins.len(), net.weight));
        }
        let per_pin = || [vec![0.0; pins.len()], vec![0.0; pins.len()]];
        Self {
            n: circuit.num_devices(),
            hi: per_pin(),
            lo: per_pin(),
            sums: vec![[(0.0, 0.0); 2]; nets.len()],
            nets,
            pins,
            xs: vec![0.0; widest],
            ys: vec![0.0; widest],
        }
    }

    /// The smoothed wirelength at `positions`, keeping what
    /// [`gradient`](Self::gradient) needs.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is sized for another circuit.
    pub fn value(&mut self, positions: &[(f64, f64)], gamma: f64) -> f64 {
        assert_eq!(positions.len(), self.n, "positions length mismatch");
        let ([hi_x, hi_y], [lo_x, lo_y]) = (&mut self.hi, &mut self.lo);
        let mut total = 0.0;
        for ((range, weight), sums) in self.nets.iter().zip(&mut self.sums) {
            let pins = &self.pins[range.clone()];
            let m = pins.len();
            let (xs, ys) = (&mut self.xs[..m], &mut self.ys[..m]);
            for ((x, y), p) in xs.iter_mut().zip(ys.iter_mut()).zip(pins) {
                let (cx, cy) = positions[p.device];
                *x = cx - p.half.0 + p.offset.0;
                *y = cy - p.half.1 + p.offset.1;
            }
            let r = range.clone();
            let (wx, sx_hi, sx_lo) =
                lse_axis(xs, gamma, &mut hi_x[r.clone()], &mut lo_x[r.clone()]);
            let (wy, sy_hi, sy_lo) = lse_axis(ys, gamma, &mut hi_y[r.clone()], &mut lo_y[r]);
            *sums = [(sx_hi, sx_lo), (sy_hi, sy_lo)];
            total += weight * (wx + wy);
        }
        total
    }

    /// Overwrites `grad` with the gradient at the placement of the last
    /// [`value`](Self::value) call.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is sized for another circuit.
    pub fn gradient(&self, grad: &mut [f64]) {
        let n = self.n;
        assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
        let ([hi_x, hi_y], [lo_x, lo_y]) = (&self.hi, &self.lo);
        grad.fill(0.0);
        for ((range, weight), sums) in self.nets.iter().zip(&self.sums) {
            let [(sx_hi, sx_lo), (sy_hi, sy_lo)] = *sums;
            for (j, p) in range.clone().zip(&self.pins[range.clone()]) {
                let dx = hi_x[j] / sx_hi - lo_x[j] / sx_lo;
                let dy = hi_y[j] / sy_hi - lo_y[j] / sy_lo;
                grad[p.device] += weight * dx;
                grad[n + p.device] += weight * dy;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    /// One axis's smoothed spread, its gradient into `grads`.
    fn spread(coords: &[f64], gamma: f64, grads: &mut [f64]) -> f64 {
        let mut lo = vec![0.0; coords.len()];
        let (value, s_hi, s_lo) = lse_axis(coords, gamma, grads, &mut lo);
        for (g, l) in grads.iter_mut().zip(lo) {
            *g = *g / s_hi - l / s_lo;
        }
        value
    }

    #[test]
    fn lse_overestimates_exact_spread() {
        let coords = [0.0, 2.0, 5.0];
        let mut g = vec![0.0; 3];
        let v = spread(&coords, 1.0, &mut g);
        assert!(v >= 5.0, "LSE {v} should over-approximate 5.0");
    }

    #[test]
    fn lse_converges_to_exact_as_gamma_shrinks() {
        let coords = [1.0, -2.0, 4.5, 0.3];
        let mut g = vec![0.0; 4];
        let tight = spread(&coords, 0.01, &mut g);
        assert!((tight - 6.5).abs() < 1e-6);
    }

    #[test]
    fn lse_and_wa_bracket_the_exact_spread() {
        // LSE over-approximates the spread while WA under-approximates it;
        // the paper's reason 2 (smaller WA error, [23]) builds on these
        // opposite biases.
        let sets: [&[f64]; 3] = [
            &[0.0, 0.7, 1.1, 2.9, 3.0, 6.2],
            &[-1.0, 4.0],
            &[0.0, 0.1, 0.2, 5.0, 9.9, 10.0],
        ];
        for coords in sets {
            let exact = coords.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - coords.iter().cloned().fold(f64::INFINITY, f64::min);
            let mut g = vec![0.0; coords.len()];
            let lse = spread(coords, 1.0, &mut g);
            let wa = eplace::wirelength::wa_spread_with_grad(coords, 1.0, &mut g);
            assert!(lse >= exact - 1e-9, "LSE {lse} under exact {exact}");
            assert!(wa <= exact + 1e-9, "WA {wa} over exact {exact}");
        }
    }

    #[test]
    fn both_smoothers_converge_with_gamma() {
        // Errors of both estimators vanish as γ → 0 (their comparison at a
        // fixed γ depends on normalization conventions, see [23]).
        let coords = [0.0, 0.7, 1.1, 2.9, 3.0, 6.2];
        let mut g = vec![0.0; coords.len()];
        for (loose, tight) in [(2.0, 0.2), (1.0, 0.1)] {
            let e_loose = (spread(&coords, loose, &mut g) - 6.2).abs();
            let e_tight = (spread(&coords, tight, &mut g) - 6.2).abs();
            assert!(e_tight < e_loose);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let coords = vec![0.5, 3.1, -2.0, 4.4];
        let gamma = 0.7;
        let mut g = vec![0.0; 4];
        spread(&coords, gamma, &mut g);
        let eps = 1e-6;
        let mut scratch = vec![0.0; 4];
        for i in 0..4 {
            let mut p = coords.clone();
            p[i] += eps;
            let mut m = coords.clone();
            m[i] -= eps;
            let fp = spread(&p, gamma, &mut scratch);
            let fm = spread(&m, gamma, &mut scratch);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - g[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn circuit_lse_positive_on_spread_placement() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 * 2.0, 0.0)).collect();
        let mut grad = vec![0.0; 2 * n];
        let mut lse = LseWirelength::new(&c);
        let v = lse.value(&positions, 1.0);
        lse.gradient(&mut grad);
        assert!(v > 0.0);
        assert!(grad.iter().any(|g| g.abs() > 0.0));
    }

    #[test]
    fn reused_buffers_match_a_fresh_evaluator() {
        let c = testcases::vco2();
        let n = c.num_devices();
        let a: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 * 2.0, 1.0)).collect();
        let b: Vec<(f64, f64)> = (0..n).map(|i| (3.0, i as f64 * 0.7)).collect();
        let mut reused = LseWirelength::new(&c);
        let mut fresh = LseWirelength::new(&c);
        let (mut g_reused, mut g_fresh) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
        reused.value(&a, 1.5);
        reused.gradient(&mut g_reused);
        let v_reused = reused.value(&b, 1.5);
        reused.gradient(&mut g_reused);
        let v_fresh = fresh.value(&b, 1.5);
        fresh.gradient(&mut g_fresh);
        assert_eq!(v_reused.to_bits(), v_fresh.to_bits());
        assert_eq!(g_reused, g_fresh);
    }
}
