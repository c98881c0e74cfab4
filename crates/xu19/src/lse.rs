//! Log-sum-exponential (LSE) wirelength smoothing, as in NTUplace3 \[10\] and
//! the ISPD'19 analytical analog placer \[11\].
//!
//! `LSE_e(x) = γ·ln Σe^{xᵢ/γ} + γ·ln Σe^{−xᵢ/γ}` over-approximates
//! `max xᵢ − min xᵢ`; the paper credits part of ePlace-A's quality edge to
//! using the WA function instead (reason 2 in §IV-C).

use std::ops::Range;

use analog_netlist::Circuit;

/// One axis of LSE smoothing: smoothed spread plus gradient.
///
/// `exps` is scratch as long as `coords`; it keeps the min-side
/// exponentials for the gradient pass, so every exponential is computed
/// once.
pub fn lse_spread_with_grad(
    coords: &[f64],
    gamma: f64,
    grads: &mut [f64],
    exps: &mut [f64],
) -> f64 {
    debug_assert_eq!(coords.len(), grads.len());
    debug_assert_eq!(coords.len(), exps.len());
    if coords.len() < 2 {
        grads.iter_mut().for_each(|g| *g = 0.0);
        return 0.0;
    }
    let xmax = coords.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let xmin = coords.iter().copied().fold(f64::INFINITY, f64::min);
    let mut s_max = 0.0;
    let mut s_min = 0.0;
    for ((&x, g), e) in coords.iter().zip(grads.iter_mut()).zip(exps.iter_mut()) {
        *g = ((x - xmax) / gamma).exp();
        *e = ((xmin - x) / gamma).exp();
        s_max += *g;
        s_min += *e;
    }
    let value = xmax + gamma * s_max.ln() + (-(xmin) + gamma * s_min.ln());
    for (g, &e) in grads.iter_mut().zip(exps.iter()) {
        *g = *g / s_max - e / s_min;
    }
    value
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
/// The pin table is built once from the circuit; the per-pin coordinate,
/// gradient and exponential buffers are owned and reused, so an evaluation
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct LseWirelength {
    n: usize,
    /// Nets with at least two pins: their range in `pins` and weight.
    nets: Vec<(Range<usize>, f64)>,
    pins: Vec<PinRef>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    gx: Vec<f64>,
    gy: Vec<f64>,
    exps: Vec<f64>,
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
        Self {
            n: circuit.num_devices(),
            nets,
            pins,
            xs: vec![0.0; widest],
            ys: vec![0.0; widest],
            gx: vec![0.0; widest],
            gy: vec![0.0; widest],
            exps: vec![0.0; widest],
        }
    }

    /// Evaluates the smoothed wirelength at `positions` and overwrites
    /// `grad` with its gradient.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn evaluate(&mut self, positions: &[(f64, f64)], gamma: f64, grad: &mut [f64]) -> f64 {
        let n = self.n;
        assert_eq!(positions.len(), n, "positions length mismatch");
        assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
        grad.fill(0.0);
        let mut total = 0.0;
        for (range, weight) in &self.nets {
            let pins = &self.pins[range.clone()];
            let m = pins.len();
            let (xs, ys) = (&mut self.xs[..m], &mut self.ys[..m]);
            for ((x, y), p) in xs.iter_mut().zip(ys.iter_mut()).zip(pins) {
                let (cx, cy) = positions[p.device];
                *x = cx - p.half.0 + p.offset.0;
                *y = cy - p.half.1 + p.offset.1;
            }
            let (gx, gy) = (&mut self.gx[..m], &mut self.gy[..m]);
            let exps = &mut self.exps[..m];
            let wx = lse_spread_with_grad(xs, gamma, gx, exps);
            let wy = lse_spread_with_grad(ys, gamma, gy, exps);
            total += weight * (wx + wy);
            for ((p, &dx), &dy) in pins.iter().zip(gx.iter()).zip(gy.iter()) {
                grad[p.device] += weight * dx;
                grad[n + p.device] += weight * dy;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    fn spread(coords: &[f64], gamma: f64, grads: &mut [f64]) -> f64 {
        lse_spread_with_grad(coords, gamma, grads, &mut vec![0.0; coords.len()])
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
        let v = LseWirelength::new(&c).evaluate(&positions, 1.0, &mut grad);
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
        let (mut g_reused, mut g_fresh) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
        reused.evaluate(&a, 1.5, &mut g_reused);
        let v_reused = reused.evaluate(&b, 1.5, &mut g_reused);
        let v_fresh = LseWirelength::new(&c).evaluate(&b, 1.5, &mut g_fresh);
        assert_eq!(v_reused.to_bits(), v_fresh.to_bits());
        assert_eq!(g_reused, g_fresh);
    }
}
