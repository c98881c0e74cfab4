//! Iterative radix-2 fast Fourier transform.
//!
//! Two interfaces are provided:
//!
//! * the free functions [`fft`] / [`ifft`] / [`fft2`] / [`ifft2`], which
//!   recompute twiddle factors on every call — convenient for one-off
//!   transforms and tests; and
//! * [`FftPlan`] / [`Fft2Plan`], which precompute the bit-reversal swap
//!   schedule and per-stage twiddle tables once and reuse them for every
//!   transform of the same size. The planned path is what the hot loops
//!   (the Poisson solve inside density evaluation) use: it performs no
//!   heap allocation.

use crate::Complex;

/// Returns `true` when `n` is a power of two (and nonzero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(is_power_of_two(n), "fft length must be a power of two");
    bit_reverse_permute(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

/// Forward DFT, in place.
///
/// Uses the engineering convention `X_k = Σ x_n e^{-2πikn/N}`.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [Complex]) {
    fft_in_place(data, false);
}

/// Inverse DFT, in place (scaled by `1/N` so `ifft(fft(x)) = x`).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    fft_in_place(data, true);
}

/// Forward 2-D DFT of a row-major `rows × cols` grid, in place.
///
/// # Panics
///
/// Panics if either dimension is not a power of two or the buffer length
/// does not equal `rows * cols`.
pub fn fft2(data: &mut [Complex], rows: usize, cols: usize) {
    fft2_impl(data, rows, cols, false);
}

/// Inverse 2-D DFT (scaled), in place.
///
/// # Panics
///
/// Same conditions as [`fft2`].
pub fn ifft2(data: &mut [Complex], rows: usize, cols: usize) {
    fft2_impl(data, rows, cols, true);
}

fn fft2_impl(data: &mut [Complex], rows: usize, cols: usize, inverse: bool) {
    assert_eq!(data.len(), rows * cols, "grid buffer size mismatch");
    // Transform rows.
    for r in 0..rows {
        fft_in_place(&mut data[r * cols..(r + 1) * cols], inverse);
    }
    // Transform columns through a scratch buffer.
    let mut col = vec![Complex::ZERO; rows];
    for c in 0..cols {
        for r in 0..rows {
            col[r] = data[r * cols + c];
        }
        fft_in_place(&mut col, inverse);
        for r in 0..rows {
            data[r * cols + c] = col[r];
        }
    }
}

/// A precomputed radix-2 FFT for one transform length.
///
/// Construction builds the bit-reversal swap schedule and the per-stage
/// twiddle tables (forward and inverse signs); [`forward`](Self::forward)
/// and [`inverse`](Self::inverse) then run entirely on the caller's buffer
/// with no heap allocation and no trigonometry. Twiddles are evaluated
/// directly per angle rather than by the repeated-multiplication recurrence
/// the free functions use, which is slightly *more* accurate; results agree
/// with [`fft`] / [`ifft`] to normal FFT roundoff (≪ 1e-9 for the sizes
/// used here).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    swaps: Vec<(u32, u32)>,
    fwd: Vec<Complex>,
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Plans transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_power_of_two(n), "fft length must be a power of two");
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        // Stage-major twiddle tables: len = 2, 4, …, n contribute len/2
        // entries each, n − 1 in total.
        let mut fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut inv = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            for k in 0..len / 2 {
                let ang = 2.0 * std::f64::consts::PI * k as f64 / len as f64;
                fwd.push(Complex::from_angle(-ang));
                inv.push(Complex::from_angle(ang));
            }
            len <<= 1;
        }
        Self { n, swaps, fwd, inv }
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: plans are only constructible for lengths ≥ 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward DFT in place (`X_k = Σ x_n e^{-2πikn/N}`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn forward(&self, data: &mut [Complex]) {
        self.process(data, false);
    }

    /// Inverse DFT in place, scaled by `1/N` so `inverse(forward(x)) = x`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.process(data, true);
    }

    fn process(&self, data: &mut [Complex], inverse: bool) {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("fft_1d");
        let _span = SPAN.enter();
        assert_eq!(data.len(), self.n, "buffer length must match the plan");
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let table = if inverse { &self.inv } else { &self.fwd };
        let mut base = 0usize;
        let mut len = 2usize;
        while len <= self.n {
            let half = len / 2;
            let tw = &table[base..base + half];
            for start in (0..self.n).step_by(len) {
                for (k, &w) in tw.iter().enumerate() {
                    let u = data[start + k];
                    let v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                }
            }
            base += half;
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(scale);
            }
        }
    }
}

/// A precomputed 2-D FFT over row-major `rows × cols` grids.
///
/// Shares one [`FftPlan`] per axis across all rows/columns. The column
/// pass works on a transposed copy in caller-provided scratch so every 1-D
/// transform runs on contiguous memory. The transform allocates nothing.
#[derive(Debug, Clone)]
pub struct Fft2Plan {
    rows: usize,
    cols: usize,
    row_plan: FftPlan,
    col_plan: FftPlan,
}

impl Fft2Plan {
    /// Plans 2-D transforms of `rows × cols` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_plan: FftPlan::new(cols),
            col_plan: FftPlan::new(rows),
        }
    }

    /// Planned row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Planned column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Required length of the scratch buffer: `rows * cols`.
    pub fn scratch_len(&self) -> usize {
        self.rows * self.cols
    }

    /// Forward 2-D DFT in place; `scratch` holds the transposed
    /// intermediate and must have length [`scratch_len`](Self::scratch_len).
    ///
    /// # Panics
    ///
    /// Panics if `data` or `scratch` have the wrong length.
    pub fn forward(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        self.process(data, scratch, false);
    }

    /// Inverse 2-D DFT in place (scaled so it exactly undoes
    /// [`forward`](Self::forward)).
    ///
    /// # Panics
    ///
    /// Panics if `data` or `scratch` have the wrong length.
    pub fn inverse(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        self.process(data, scratch, true);
    }

    fn process(&self, data: &mut [Complex], scratch: &mut [Complex], inverse: bool) {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("fft_2d");
        let _span = SPAN.enter();
        assert_eq!(
            data.len(),
            self.rows * self.cols,
            "grid buffer size mismatch"
        );
        assert_eq!(
            scratch.len(),
            self.rows * self.cols,
            "scratch size mismatch"
        );
        plan_rows(data, self.cols, &self.row_plan, inverse);
        transpose(data, self.rows, self.cols, scratch);
        plan_rows(scratch, self.rows, &self.col_plan, inverse);
        transpose(scratch, self.cols, self.rows, data);
    }
}

/// Runs `plan` over every contiguous `row_len` row of `data`.
fn plan_rows(data: &mut [Complex], row_len: usize, plan: &FftPlan, inverse: bool) {
    for row in data.chunks_exact_mut(row_len) {
        if inverse {
            plan.inverse(row);
        } else {
            plan.forward(row);
        }
    }
}

/// Transposes row-major `rows × cols` `src` into `cols × rows` `dst`.
fn transpose(src: &[Complex], rows: usize, cols: usize, dst: &mut [Complex]) {
    let src = &src[..rows * cols];
    for (c, out_row) in dst.chunks_exact_mut(rows).enumerate() {
        for (r, slot) in out_row.iter_mut().enumerate() {
            *slot = src[r * cols + c];
        }
    }
}

/// Naive `O(N²)` DFT used as a test oracle.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (i, &x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                acc += x * Complex::from_angle(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn fft_matches_naive_dft() {
        let input: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let expected = dft_naive(&input);
        let mut data = input.clone();
        fft(&mut data);
        for (a, b) in data.iter().zip(&expected) {
            assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fft_roundtrip() {
        let input: Vec<Complex> = (0..64)
            .map(|i| Complex::new(i as f64 * 0.1 - 3.0, (i * i % 7) as f64))
            .collect();
        let mut data = input.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&input) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft(&mut data);
        for z in data {
            assert!(close(z, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let input: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 1.7).sin(), 0.0))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut data = input;
        fft(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 12];
        fft(&mut data);
    }

    #[test]
    fn fft2_roundtrip() {
        let rows = 8;
        let cols = 16;
        let input: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new((i as f64 * 0.37).cos(), 0.0))
            .collect();
        let mut data = input.clone();
        fft2(&mut data, rows, cols);
        ifft2(&mut data, rows, cols);
        for (a, b) in data.iter().zip(&input) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn planned_fft_matches_free_functions() {
        for n in [1usize, 2, 8, 64] {
            let plan = FftPlan::new(n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.71).sin(), (i as f64 * 0.23).cos()))
                .collect();
            let mut planned = input.clone();
            plan.forward(&mut planned);
            let mut free = input.clone();
            fft(&mut free);
            for (a, b) in planned.iter().zip(&free) {
                assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
            }
            plan.inverse(&mut planned);
            for (a, b) in planned.iter().zip(&input) {
                assert!(close(*a, *b, 1e-9));
            }
        }
    }

    #[test]
    fn planned_fft2_matches_free_functions() {
        let (rows, cols) = (8usize, 32usize);
        let plan = Fft2Plan::new(rows, cols);
        let input: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        let mut planned = input.clone();
        plan.forward(&mut planned, &mut scratch);
        let mut free = input.clone();
        fft2(&mut free, rows, cols);
        for (a, b) in planned.iter().zip(&free) {
            assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
        }
        plan.inverse(&mut planned, &mut scratch);
        for (a, b) in planned.iter().zip(&input) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    fn fft2_separable_against_naive() {
        // A rank-1 grid f(r,c) = g(r)h(c) has FFT2 = FFT(g) ⊗ FFT(h).
        let rows = 4;
        let cols = 8;
        let g: Vec<Complex> = (0..rows)
            .map(|i| Complex::new(i as f64 + 1.0, 0.0))
            .collect();
        let h: Vec<Complex> = (0..cols)
            .map(|i| Complex::new((i as f64).cos(), 0.0))
            .collect();
        let mut grid: Vec<Complex> = (0..rows * cols)
            .map(|i| g[i / cols] * h[i % cols])
            .collect();
        fft2(&mut grid, rows, cols);
        let gf = dft_naive(&g);
        let hf = dft_naive(&h);
        for r in 0..rows {
            for c in 0..cols {
                let expected = gf[r] * hf[c];
                assert!(close(grid[r * cols + c], expected, 1e-9));
            }
        }
    }
}
