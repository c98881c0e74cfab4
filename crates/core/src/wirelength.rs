//! Weighted-average (WA) wirelength smoothing (Eq. 2 of the paper).
//!
//! `WA_e(x) = Σxᵢ·e^{xᵢ/γ}/Σe^{xᵢ/γ} − Σxᵢ·e^{−xᵢ/γ}/Σe^{−xᵢ/γ}` smoothly
//! approximates `max xᵢ − min xᵢ`; the paper adopts it over the LSE function
//! for its smaller estimation error \[23\].

use analog_netlist::Circuit;

/// Reusable flat staging for [`smoothed_wirelength_with`]: every multi-pin
/// net contributes its pin coordinates and stabilized exponent arguments
/// to these arrays, so the exponentials run as a handful of long
/// [`placer_simd::exp_slice`] sweeps instead of one tiny kernel call per
/// 2–10-pin analog net (per-net dispatch overhead dwarfed the work).
///
/// The arrays grow on first use and are reused afterwards, so a loop that
/// keeps one scratch (ePlace's Nesterov loop) evaluates the wirelength
/// without allocating.
#[derive(Debug, Default)]
pub struct WirelengthScratch {
    /// Pin x/y coordinates, concatenated in net order.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Exponent arguments, overwritten in place with their exponentials:
    /// `e^{(x−xmax)/γ}` (max side) and `e^{(xmin−x)/γ}` (min side).
    ep_x: Vec<f64>,
    em_x: Vec<f64>,
    ep_y: Vec<f64>,
    em_y: Vec<f64>,
    /// Flat-array start offset of each staged net, plus a final sentinel.
    starts: Vec<u32>,
    /// Net index (into `circuit.nets()`) of each staged net.
    nets: Vec<u32>,
    /// Per-net coordinate extremes `(xmin, xmax, ymin, ymax)`.
    ext: Vec<(f64, f64, f64, f64)>,
}

impl WirelengthScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One axis of WA smoothing over a coordinate set: returns the smoothed
/// spread and fills `grads` (∂WA/∂xᵢ aligned with `coords`).
///
/// Numerically stabilized by subtracting the max/min before exponentiation.
pub fn wa_spread_with_grad(coords: &[f64], gamma: f64, grads: &mut [f64]) -> f64 {
    debug_assert_eq!(coords.len(), grads.len());
    if coords.len() < 2 {
        grads.iter_mut().for_each(|g| *g = 0.0);
        return 0.0;
    }
    let xmax = coords.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let xmin = coords.iter().copied().fold(f64::INFINITY, f64::min);

    // Max-side: weights e^{(x−xmax)/γ}.
    let mut s1 = 0.0; // Σ e
    let mut s1x = 0.0; // Σ x·e
                       // Min-side: weights e^{(xmin−x)/γ}.
    let mut s2 = 0.0;
    let mut s2x = 0.0;
    for &x in coords {
        let ep = ((x - xmax) / gamma).exp();
        let em = ((xmin - x) / gamma).exp();
        s1 += ep;
        s1x += x * ep;
        s2 += em;
        s2x += x * em;
    }
    let wa_max = s1x / s1;
    let wa_min = s2x / s2;

    for (g, &x) in grads.iter_mut().zip(coords) {
        let ep = ((x - xmax) / gamma).exp();
        let em = ((xmin - x) / gamma).exp();
        // d(wa_max)/dx = e/s1 · (1 + (x − wa_max)/γ)
        let dmax = ep / s1 * (1.0 + (x - wa_max) / gamma);
        // d(wa_min)/dx = e/s2 · (1 − (x − wa_min)/γ)
        let dmin = em / s2 * (1.0 - (x - wa_min) / gamma);
        *g = dmax - dmin;
    }
    wa_max - wa_min
}

/// Smoothed total wirelength `W(v)` and its gradient over device centers.
///
/// Pin offsets are honored (unflipped orientation — flips are a detailed
/// placement decision); each pin's gradient accumulates onto its device.
///
/// Returns the smoothed HPWL; `grad` receives `(∂W/∂x, ∂W/∂y)` interleaved
/// as `[dx0, …, dxn−1, dy0, …, dyn−1]`.
///
/// # Panics
///
/// Panics if `positions`/`grad` sizes do not match the circuit.
pub fn wa_wirelength(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    grad: &mut [f64],
) -> f64 {
    smoothed_wirelength(circuit, positions, gamma, grad, crate::Smoothing::Wa)
}

/// The seed single-pass WA accumulation, retained as the benchmark
/// baseline for [`wa_wirelength`].
pub fn wa_wirelength_reference(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    grad: &mut [f64],
) -> f64 {
    let n = circuit.num_devices();
    assert_eq!(positions.len(), n, "positions length mismatch");
    assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
    grad.iter_mut().for_each(|g| *g = 0.0);
    accumulate_nets(circuit, positions, gamma, wa_spread_with_grad, grad)
}

/// One axis of log-sum-exponential (LSE) smoothing (NTUplace3 \[10\]):
/// `γ·lnΣe^{xᵢ/γ} + γ·lnΣe^{−xᵢ/γ}` over-approximates the spread. Kept
/// alongside WA so the smoothing choice (§IV-C reason 2) can be ablated.
pub fn lse_spread_with_grad(coords: &[f64], gamma: f64, grads: &mut [f64]) -> f64 {
    debug_assert_eq!(coords.len(), grads.len());
    if coords.len() < 2 {
        grads.iter_mut().for_each(|g| *g = 0.0);
        return 0.0;
    }
    let xmax = coords.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let xmin = coords.iter().copied().fold(f64::INFINITY, f64::min);
    let mut s_max = 0.0;
    let mut s_min = 0.0;
    for &x in coords {
        s_max += ((x - xmax) / gamma).exp();
        s_min += ((xmin - x) / gamma).exp();
    }
    let value = xmax + gamma * s_max.ln() - xmin + gamma * s_min.ln();
    for (g, &x) in grads.iter_mut().zip(coords) {
        let p_max = ((x - xmax) / gamma).exp() / s_max;
        let p_min = ((xmin - x) / gamma).exp() / s_min;
        *g = p_max - p_min;
    }
    value
}

/// Adds each net's weighted spread gradient into `grad` (assumed zeroed)
/// and returns the circuit's smoothed wirelength.
fn accumulate_nets<F: FnMut(&[f64], f64, &mut [f64]) -> f64>(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    mut spread: F,
    grad: &mut [f64],
) -> f64 {
    let n = circuit.num_devices();
    let mut total = 0.0;
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut gx: Vec<f64> = Vec::new();
    let mut gy: Vec<f64> = Vec::new();
    for net in circuit.nets() {
        if net.pins.len() < 2 {
            continue;
        }
        xs.clear();
        ys.clear();
        for p in &net.pins {
            let d = circuit.device(p.device);
            let (cx, cy) = positions[p.device.index()];
            let (ox, oy) = d.pins[p.pin.index()].offset;
            xs.push(cx - d.width / 2.0 + ox);
            ys.push(cy - d.height / 2.0 + oy);
        }
        gx.resize(xs.len(), 0.0);
        gy.resize(ys.len(), 0.0);
        let wx = spread(&xs, gamma, &mut gx);
        let wy = spread(&ys, gamma, &mut gy);
        total += net.weight * (wx + wy);
        for (k, p) in net.pins.iter().enumerate() {
            grad[p.device.index()] += net.weight * gx[k];
            grad[n + p.device.index()] += net.weight * gy[k];
        }
    }
    total
}

/// Accumulates every net with batched exponentials into the flat staging
/// scratch `sc`.
///
/// Four phases: (1) gather every multi-pin net's pin coordinates
/// into flat arrays; (2) per net, fold the coordinate extremes and write
/// the stabilized exponent arguments `(x−xmax)/γ` / `(xmin−x)/γ` — the
/// seed's exact expressions; (3) exponentiate all four argument arrays
/// with [`placer_simd::exp_slice`], the only dispatched step — one long
/// sweep per array instead of a kernel call per tiny net; (4) per net,
/// accumulate the weight sums, value and gradient in the seed's op order,
/// reusing the stored exponentials for the gradient (same expressions on
/// the same inputs, so the reuse is bit-identical to the seed's
/// recomputation — and halves the exp count).
///
/// Under the forced-scalar backend every phase is bit-identical to the
/// seed accumulation ([`accumulate_nets`] over [`wa_spread_with_grad`] /
/// [`lse_spread_with_grad`]): the gather, folds, sums and scatter are the
/// same scalar sequences per accumulator, and scalar `exp_slice` is
/// `f64::exp` per element in order. Under AVX2/AVX-512 only the
/// exponentials differ (≤ 2-ULP vector polynomial), so results are
/// bounded-ULP (see the contract table in `placer_simd`).
fn accumulate_nets_simd(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    smoothing: crate::Smoothing,
    grad: &mut [f64],
    sc: &mut WirelengthScratch,
) -> f64 {
    let n = circuit.num_devices();
    let nets = circuit.nets();
    sc.xs.clear();
    sc.ys.clear();
    sc.starts.clear();
    sc.nets.clear();
    sc.ext.clear();

    // Phase 1: gather pin coordinates of every multi-pin net.
    for (ni, net) in nets.iter().enumerate() {
        if net.pins.len() < 2 {
            continue;
        }
        sc.starts.push(sc.xs.len() as u32);
        sc.nets.push(ni as u32);
        for p in &net.pins {
            let d = circuit.device(p.device);
            let (cx, cy) = positions[p.device.index()];
            let (ox, oy) = d.pins[p.pin.index()].offset;
            sc.xs.push(cx - d.width / 2.0 + ox);
            sc.ys.push(cy - d.height / 2.0 + oy);
        }
    }
    sc.starts.push(sc.xs.len() as u32);
    let m = sc.xs.len();
    sc.ep_x.resize(m, 0.0);
    sc.em_x.resize(m, 0.0);
    sc.ep_y.resize(m, 0.0);
    sc.em_y.resize(m, 0.0);

    // Phase 2: per-net extremes (the seed's separate max/min folds, fused
    // — per-accumulator sequences unchanged) and exponent arguments.
    for k in 0..sc.nets.len() {
        let (s, e) = (sc.starts[k] as usize, sc.starts[k + 1] as usize);
        let mut xmax = f64::NEG_INFINITY;
        let mut xmin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        for j in s..e {
            xmax = xmax.max(sc.xs[j]);
            xmin = xmin.min(sc.xs[j]);
            ymax = ymax.max(sc.ys[j]);
            ymin = ymin.min(sc.ys[j]);
        }
        sc.ext.push((xmin, xmax, ymin, ymax));
        for j in s..e {
            sc.ep_x[j] = (sc.xs[j] - xmax) / gamma;
            sc.em_x[j] = (xmin - sc.xs[j]) / gamma;
            sc.ep_y[j] = (sc.ys[j] - ymax) / gamma;
            sc.em_y[j] = (ymin - sc.ys[j]) / gamma;
        }
    }

    // Phase 3: one vectorized exponential sweep per argument array — the
    // circuit's entire exp workload, batched so the SIMD lanes stay full.
    placer_simd::exp_slice(&mut sc.ep_x);
    placer_simd::exp_slice(&mut sc.em_x);
    placer_simd::exp_slice(&mut sc.ep_y);
    placer_simd::exp_slice(&mut sc.em_y);

    // Phase 4: per-net sums, value and gradient scatter, in net order.
    let mut total = 0.0;
    for k in 0..sc.nets.len() {
        let net = &nets[sc.nets[k] as usize];
        let (s, e) = (sc.starts[k] as usize, sc.starts[k + 1] as usize);
        let (xmin, xmax, ymin, ymax) = sc.ext[k];
        let (wx, wy) = match smoothing {
            crate::Smoothing::Wa => {
                let wx = wa_finish(
                    &sc.xs[s..e],
                    &sc.ep_x[s..e],
                    &sc.em_x[s..e],
                    gamma,
                    net,
                    &mut grad[..n],
                );
                let wy = wa_finish(
                    &sc.ys[s..e],
                    &sc.ep_y[s..e],
                    &sc.em_y[s..e],
                    gamma,
                    net,
                    &mut grad[n..],
                );
                (wx, wy)
            }
            crate::Smoothing::Lse => {
                let wx = lse_finish(
                    &sc.ep_x[s..e],
                    &sc.em_x[s..e],
                    gamma,
                    xmin,
                    xmax,
                    net,
                    &mut grad[..n],
                );
                let wy = lse_finish(
                    &sc.ep_y[s..e],
                    &sc.em_y[s..e],
                    gamma,
                    ymin,
                    ymax,
                    net,
                    &mut grad[n..],
                );
                (wx, wy)
            }
        };
        total += net.weight * (wx + wy);
    }
    total
}

/// One axis of the WA finish for one net: weight sums, value and gradient
/// scatter from the stored exponentials — the seed's accumulation and
/// gradient passes, op for op (the `x`/`y` halves of `grad` are disjoint,
/// so scattering the axes in separate calls keeps every accumulator's
/// add sequence identical to the seed's fused scatter loop).
fn wa_finish(
    coords: &[f64],
    ep: &[f64],
    em: &[f64],
    gamma: f64,
    net: &analog_netlist::Net,
    grad_axis: &mut [f64],
) -> f64 {
    let mut s1 = 0.0;
    let mut s1x = 0.0;
    let mut s2 = 0.0;
    let mut s2x = 0.0;
    for j in 0..coords.len() {
        let x = coords[j];
        s1 += ep[j];
        s1x += x * ep[j];
        s2 += em[j];
        s2x += x * em[j];
    }
    let wa_max = s1x / s1;
    let wa_min = s2x / s2;
    for (j, p) in net.pins.iter().enumerate() {
        let x = coords[j];
        let dmax = ep[j] / s1 * (1.0 + (x - wa_max) / gamma);
        let dmin = em[j] / s2 * (1.0 - (x - wa_min) / gamma);
        grad_axis[p.device.index()] += net.weight * (dmax - dmin);
    }
    wa_max - wa_min
}

/// One axis of the LSE finish for one net (see [`wa_finish`]).
fn lse_finish(
    ep: &[f64],
    em: &[f64],
    gamma: f64,
    xmin: f64,
    xmax: f64,
    net: &analog_netlist::Net,
    grad_axis: &mut [f64],
) -> f64 {
    let mut s_max = 0.0;
    let mut s_min = 0.0;
    for j in 0..ep.len() {
        s_max += ep[j];
        s_min += em[j];
    }
    let value = xmax + gamma * s_max.ln() - xmin + gamma * s_min.ln();
    for (j, p) in net.pins.iter().enumerate() {
        grad_axis[p.device.index()] += net.weight * (ep[j] / s_max - em[j] / s_min);
    }
    value
}

/// Smoothed total wirelength with a selectable smoother.
///
/// Allocates its staging; see [`smoothed_wirelength_with`] for the
/// allocation-free entry point.
///
/// # Panics
///
/// Panics on size mismatches (see [`wa_wirelength`]).
pub fn smoothed_wirelength(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    grad: &mut [f64],
    smoothing: crate::Smoothing,
) -> f64 {
    let mut scratch = WirelengthScratch::new();
    smoothed_wirelength_with(circuit, positions, gamma, grad, smoothing, &mut scratch)
}

/// [`smoothed_wirelength`] over caller-owned staging: with a warm
/// `scratch` the call performs no heap allocation.
///
/// # Panics
///
/// Panics on size mismatches (see [`wa_wirelength`]).
pub fn smoothed_wirelength_with(
    circuit: &Circuit,
    positions: &[(f64, f64)],
    gamma: f64,
    grad: &mut [f64],
    smoothing: crate::Smoothing,
    scratch: &mut WirelengthScratch,
) -> f64 {
    let n = circuit.num_devices();
    assert_eq!(positions.len(), n, "positions length mismatch");
    assert_eq!(grad.len(), 2 * n, "gradient length mismatch");
    grad.iter_mut().for_each(|g| *g = 0.0);
    accumulate_nets_simd(circuit, positions, gamma, smoothing, grad, scratch)
}

/// Exact HPWL with the same pin model as [`wa_wirelength`] (for tests and
/// convergence reporting).
pub fn exact_hpwl(circuit: &Circuit, positions: &[(f64, f64)]) -> f64 {
    let mut total = 0.0;
    for net in circuit.nets() {
        if net.pins.len() < 2 {
            continue;
        }
        let mut xmin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for p in &net.pins {
            let d = circuit.device(p.device);
            let (cx, cy) = positions[p.device.index()];
            let (ox, oy) = d.pins[p.pin.index()].offset;
            let x = cx - d.width / 2.0 + ox;
            let y = cy - d.height / 2.0 + oy;
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        total += net.weight * ((xmax - xmin) + (ymax - ymin));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn wa_spread_approaches_exact_as_gamma_shrinks() {
        let coords = [0.0, 3.0, 7.5, 1.2];
        let exact = 7.5;
        let mut grads = vec![0.0; 4];
        let loose = wa_spread_with_grad(&coords, 5.0, &mut grads);
        let tight = wa_spread_with_grad(&coords, 0.05, &mut grads);
        assert!((tight - exact).abs() < 1e-3);
        assert!((tight - exact).abs() < (loose - exact).abs());
    }

    #[test]
    fn wa_spread_underestimates_exact() {
        // The WA max underestimates max and the WA min overestimates min.
        let coords = [0.0, 1.0, 2.0, 10.0];
        let mut grads = vec![0.0; 4];
        let wa = wa_spread_with_grad(&coords, 1.0, &mut grads);
        assert!(wa <= 10.0 + 1e-12);
        assert!(wa > 0.0);
    }

    #[test]
    fn wa_gradient_matches_finite_differences() {
        let coords = vec![0.3, 2.7, -1.2, 5.0, 4.9];
        let gamma = 0.8;
        let mut grads = vec![0.0; coords.len()];
        wa_spread_with_grad(&coords, gamma, &mut grads);
        let eps = 1e-6;
        for i in 0..coords.len() {
            let mut plus = coords.clone();
            plus[i] += eps;
            let mut minus = coords.clone();
            minus[i] -= eps;
            let mut scratch = vec![0.0; coords.len()];
            let fp = wa_spread_with_grad(&plus, gamma, &mut scratch);
            let fm = wa_spread_with_grad(&minus, gamma, &mut scratch);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 1e-5,
                "coord {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    #[test]
    fn circuit_wirelength_gradient_matches_finite_differences() {
        let c = testcases::adder();
        let n = c.num_devices();
        let mut positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 3) as f64 * 2.3, (i / 3) as f64 * 1.7))
            .collect();
        let gamma = 1.0;
        let mut grad = vec![0.0; 2 * n];
        wa_wirelength(&c, &positions, gamma, &mut grad);
        let eps = 1e-6;
        let mut scratch = vec![0.0; 2 * n];
        for dev in [0usize, n / 2, n - 1] {
            let orig = positions[dev];
            positions[dev] = (orig.0 + eps, orig.1);
            let fp = wa_wirelength(&c, &positions, gamma, &mut scratch);
            positions[dev] = (orig.0 - eps, orig.1);
            let fm = wa_wirelength(&c, &positions, gamma, &mut scratch);
            positions[dev] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[dev]).abs() < 1e-4,
                "device {dev}: numeric {numeric} vs analytic {}",
                grad[dev]
            );
        }
    }

    #[test]
    fn wa_upper_bounds_track_exact_hpwl() {
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 4) as f64 * 4.0, (i / 4) as f64 * 3.0))
            .collect();
        let exact = exact_hpwl(&c, &positions);
        let mut grad = vec![0.0; 2 * n];
        let smooth = wa_wirelength(&c, &positions, 0.05, &mut grad);
        assert!(
            (smooth - exact).abs() / exact < 0.02,
            "smooth {smooth} vs exact {exact}"
        );
    }

    #[test]
    fn simd_wirelength_tracks_seed_reference() {
        // The dispatched path re-associates lane sums and uses the vector
        // exp, so it is bounded-ULP (not bit-exact) against the seed
        // single-pass accumulation under SIMD backends — and bit-identical
        // under PLACER_SIMD=scalar, which the forced-scalar CI lane pins.
        let c = testcases::cc_ota();
        let n = c.num_devices();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 4) as f64 * 4.0, (i / 4) as f64 * 3.0))
            .collect();
        for gamma in [0.1, 1.0, 8.0] {
            let mut grad = vec![0.0; 2 * n];
            let mut grad_ref = vec![0.0; 2 * n];
            let w = wa_wirelength(&c, &positions, gamma, &mut grad);
            let w_ref = wa_wirelength_reference(&c, &positions, gamma, &mut grad_ref);
            assert!(
                (w - w_ref).abs() <= 1e-9 * w_ref.abs(),
                "gamma {gamma}: simd {w} vs reference {w_ref}"
            );
            for (i, (g, gr)) in grad.iter().zip(&grad_ref).enumerate() {
                assert!((g - gr).abs() < 1e-9, "grad[{i}]: {g} vs {gr}");
            }

            let mut grad_lse = vec![0.0; 2 * n];
            let mut grad_lse_ref = vec![0.0; 2 * n];
            let l =
                smoothed_wirelength(&c, &positions, gamma, &mut grad_lse, crate::Smoothing::Lse);
            let l_ref = accumulate_nets(
                &c,
                &positions,
                gamma,
                lse_spread_with_grad,
                &mut grad_lse_ref,
            );
            assert!(
                (l - l_ref).abs() <= 1e-9 * l_ref.abs(),
                "gamma {gamma}: lse simd {l} vs reference {l_ref}"
            );
            for (i, (g, gr)) in grad_lse.iter().zip(&grad_lse_ref).enumerate() {
                assert!((g - gr).abs() < 1e-9, "lse grad[{i}]: {g} vs {gr}");
            }
        }
    }

    #[test]
    fn single_pin_nets_contribute_nothing() {
        let coords = [4.2];
        let mut grads = [1.0];
        assert_eq!(wa_spread_with_grad(&coords, 1.0, &mut grads), 0.0);
        assert_eq!(grads[0], 0.0);
    }
}
