//! Density-grid row kernels: area-proportional scatter and field gather.
//!
//! The density engine rasterizes each device rectangle one grid row at a
//! time (rows are contiguous in the row-major grid). [`scatter_row`] adds
//! the per-cell overlap charge into a row slice — purely elementwise, so
//! **bit-exact** under every backend. [`gather_row`] folds the
//! charge-weighted field along a row into running force accumulators —
//! the SIMD variants re-associate the sum across lanes, so the kernel is
//! **bounded-ULP**; the scalar backend keeps the seed's sequential
//! accumulation chain (the accumulators thread *across* rows, which is
//! why they are `&mut` parameters rather than a return value).

use crate::Backend;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Adds one device's overlap charge to a grid row:
/// `row[j] += ox·oy/bin_area` with
/// `ox = (x1.min(cell + bin_w) − x0.max(cell)).max(0)` and
/// `cell = (first_bx + j)·bin_w` — the seed `scatter_one` inner loop, op
/// for op. Elementwise, so **bit-exact** under every backend.
#[allow(clippy::too_many_arguments)]
pub fn scatter_row(
    row: &mut [f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
) {
    match crate::selected() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected()` never exceeds `detected()`, which reports
        // Avx512 only when the CPU has AVX-512F (and AVX2 + FMA); that is
        // the kernel's one requirement.
        Backend::Avx512 => unsafe {
            scatter_row_avx512(row, first_bx, bin_w, x0, x1, oy, bin_area)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected()` never exceeds `detected()`, which reports
        // Avx2 or above only when the CPU has AVX2 and FMA; that is the
        // kernel's one requirement.
        Backend::Avx2 => unsafe { scatter_row_avx2(row, first_bx, bin_w, x0, x1, oy, bin_area) },
        _ => scatter_row_reference(row, first_bx, bin_w, x0, x1, oy, bin_area),
    }
}

/// Scalar twin of [`scatter_row`].
#[allow(clippy::too_many_arguments)]
pub fn scatter_row_reference(
    row: &mut [f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
) {
    for (j, cell) in row.iter_mut().enumerate() {
        let cell_x0 = (first_bx + j) as f64 * bin_w;
        let ox = (x1.min(cell_x0 + bin_w) - x0.max(cell_x0)).max(0.0);
        *cell += ox * oy / bin_area;
    }
}

/// AVX2 lanes of [`scatter_row`].
///
/// # Safety
///
/// The CPU must support AVX2 and FMA (dispatch checks this through
/// [`crate::selected`]). Every load and store stays inside the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn scatter_row_avx2(
    row: &mut [f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
) {
    let n = row.len();
    let vw = _mm256_set1_pd(bin_w);
    let vx0 = _mm256_set1_pd(x0);
    let vx1 = _mm256_set1_pd(x1);
    let voy = _mm256_set1_pd(oy);
    let vba = _mm256_set1_pd(bin_area);
    let vzero = _mm256_setzero_pd();
    let lane = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    let mut i = 0;
    while i + 4 <= n {
        // (first_bx + i + lane) is an exact integer in f64 (bin counts are
        // far below 2^52), so this matches the scalar `as f64` conversion.
        let j = _mm256_add_pd(_mm256_set1_pd((first_bx + i) as f64), lane);
        let cell = _mm256_mul_pd(j, vw);
        let hi = _mm256_min_pd(vx1, _mm256_add_pd(cell, vw));
        let lo = _mm256_max_pd(vx0, cell);
        let ox = _mm256_max_pd(_mm256_sub_pd(hi, lo), vzero);
        let q = _mm256_div_pd(_mm256_mul_pd(ox, voy), vba);
        let r = _mm256_loadu_pd(row.as_ptr().add(i));
        _mm256_storeu_pd(row.as_mut_ptr().add(i), _mm256_add_pd(r, q));
        i += 4;
    }
    scatter_row_reference(&mut row[i..], first_bx + i, bin_w, x0, x1, oy, bin_area);
}

/// AVX-512 lanes of [`scatter_row`].
///
/// # Safety
///
/// The CPU must support AVX-512F (dispatch checks this through
/// [`crate::selected`]). Every load and store stays inside the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn scatter_row_avx512(
    row: &mut [f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
) {
    let n = row.len();
    let vw = _mm512_set1_pd(bin_w);
    let vx0 = _mm512_set1_pd(x0);
    let vx1 = _mm512_set1_pd(x1);
    let voy = _mm512_set1_pd(oy);
    let vba = _mm512_set1_pd(bin_area);
    let vzero = _mm512_setzero_pd();
    let lane = _mm512_set_pd(7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0);
    let mut i = 0;
    while i + 8 <= n {
        let j = _mm512_add_pd(_mm512_set1_pd((first_bx + i) as f64), lane);
        let cell = _mm512_mul_pd(j, vw);
        let hi = _mm512_min_pd(vx1, _mm512_add_pd(cell, vw));
        let lo = _mm512_max_pd(vx0, cell);
        let ox = _mm512_max_pd(_mm512_sub_pd(hi, lo), vzero);
        let q = _mm512_div_pd(_mm512_mul_pd(ox, voy), vba);
        let r = _mm512_loadu_pd(row.as_ptr().add(i));
        _mm512_storeu_pd(row.as_mut_ptr().add(i), _mm512_add_pd(r, q));
        i += 8;
    }
    scatter_row_reference(&mut row[i..], first_bx + i, bin_w, x0, x1, oy, bin_area);
}

/// Accumulates one device's charge-weighted field force along a grid row:
/// `fx += q·ex[j]`, `fy += q·ey[j]` with the same overlap charge `q` as
/// [`scatter_row`]. **Bounded-ULP** under SIMD backends (lane sums
/// re-associate); the scalar backend keeps the seed `gather_one` chain op
/// for op.
///
/// # Panics
///
/// Panics if the field rows differ in length.
#[allow(clippy::too_many_arguments)]
pub fn gather_row(
    ex_row: &[f64],
    ey_row: &[f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
    fx: &mut f64,
    fy: &mut f64,
) {
    assert_eq!(
        ex_row.len(),
        ey_row.len(),
        "gather_row field-row length mismatch"
    );
    match crate::selected() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected()` never exceeds `detected()`, which reports
        // Avx512 only when the CPU has AVX-512F (and AVX2 + FMA); that is
        // the kernel's one requirement.
        Backend::Avx512 => unsafe {
            gather_row_avx512(
                ex_row, ey_row, first_bx, bin_w, x0, x1, oy, bin_area, fx, fy,
            )
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected()` never exceeds `detected()`, which reports
        // Avx2 or above only when the CPU has AVX2 and FMA; that is the
        // kernel's one requirement.
        Backend::Avx2 => unsafe {
            gather_row_avx2(
                ex_row, ey_row, first_bx, bin_w, x0, x1, oy, bin_area, fx, fy,
            )
        },
        _ => gather_row_reference(
            ex_row, ey_row, first_bx, bin_w, x0, x1, oy, bin_area, fx, fy,
        ),
    }
}

/// Scalar twin of [`gather_row`].
#[allow(clippy::too_many_arguments)]
pub fn gather_row_reference(
    ex_row: &[f64],
    ey_row: &[f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
    fx: &mut f64,
    fy: &mut f64,
) {
    for j in 0..ex_row.len() {
        let cell_x0 = (first_bx + j) as f64 * bin_w;
        let ox = (x1.min(cell_x0 + bin_w) - x0.max(cell_x0)).max(0.0);
        let q = ox * oy / bin_area;
        *fx += q * ex_row[j];
        *fy += q * ey_row[j];
    }
}

/// AVX2 lanes of [`gather_row`].
///
/// # Safety
///
/// The CPU must support AVX2 and FMA (dispatch checks this through
/// [`crate::selected`]). Every load and store stays inside the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gather_row_avx2(
    ex_row: &[f64],
    ey_row: &[f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
    fx: &mut f64,
    fy: &mut f64,
) {
    let n = ex_row.len();
    let vw = _mm256_set1_pd(bin_w);
    let vx0 = _mm256_set1_pd(x0);
    let vx1 = _mm256_set1_pd(x1);
    let voy = _mm256_set1_pd(oy);
    let vba = _mm256_set1_pd(bin_area);
    let vzero = _mm256_setzero_pd();
    let lane = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    let mut vfx = _mm256_setzero_pd();
    let mut vfy = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let j = _mm256_add_pd(_mm256_set1_pd((first_bx + i) as f64), lane);
        let cell = _mm256_mul_pd(j, vw);
        let hi = _mm256_min_pd(vx1, _mm256_add_pd(cell, vw));
        let lo = _mm256_max_pd(vx0, cell);
        let ox = _mm256_max_pd(_mm256_sub_pd(hi, lo), vzero);
        let q = _mm256_div_pd(_mm256_mul_pd(ox, voy), vba);
        vfx = _mm256_fmadd_pd(q, _mm256_loadu_pd(ex_row.as_ptr().add(i)), vfx);
        vfy = _mm256_fmadd_pd(q, _mm256_loadu_pd(ey_row.as_ptr().add(i)), vfy);
        i += 4;
    }
    let mut l = [0.0f64; 4];
    _mm256_storeu_pd(l.as_mut_ptr(), vfx);
    *fx += ((l[0] + l[1]) + l[2]) + l[3];
    _mm256_storeu_pd(l.as_mut_ptr(), vfy);
    *fy += ((l[0] + l[1]) + l[2]) + l[3];
    gather_row_reference(
        &ex_row[i..],
        &ey_row[i..],
        first_bx + i,
        bin_w,
        x0,
        x1,
        oy,
        bin_area,
        fx,
        fy,
    );
}

/// AVX-512 lanes of [`gather_row`].
///
/// # Safety
///
/// The CPU must support AVX-512F (dispatch checks this through
/// [`crate::selected`]). Every load and store stays inside the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gather_row_avx512(
    ex_row: &[f64],
    ey_row: &[f64],
    first_bx: usize,
    bin_w: f64,
    x0: f64,
    x1: f64,
    oy: f64,
    bin_area: f64,
    fx: &mut f64,
    fy: &mut f64,
) {
    let n = ex_row.len();
    let vw = _mm512_set1_pd(bin_w);
    let vx0 = _mm512_set1_pd(x0);
    let vx1 = _mm512_set1_pd(x1);
    let voy = _mm512_set1_pd(oy);
    let vba = _mm512_set1_pd(bin_area);
    let vzero = _mm512_setzero_pd();
    let lane = _mm512_set_pd(7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0);
    let mut vfx = _mm512_setzero_pd();
    let mut vfy = _mm512_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let j = _mm512_add_pd(_mm512_set1_pd((first_bx + i) as f64), lane);
        let cell = _mm512_mul_pd(j, vw);
        let hi = _mm512_min_pd(vx1, _mm512_add_pd(cell, vw));
        let lo = _mm512_max_pd(vx0, cell);
        let ox = _mm512_max_pd(_mm512_sub_pd(hi, lo), vzero);
        let q = _mm512_div_pd(_mm512_mul_pd(ox, voy), vba);
        vfx = _mm512_fmadd_pd(q, _mm512_loadu_pd(ex_row.as_ptr().add(i)), vfx);
        vfy = _mm512_fmadd_pd(q, _mm512_loadu_pd(ey_row.as_ptr().add(i)), vfy);
        i += 8;
    }
    let mut l = [0.0f64; 8];
    _mm512_storeu_pd(l.as_mut_ptr(), vfx);
    *fx += l.iter().skip(1).fold(l[0], |a, &b| a + b);
    _mm512_storeu_pd(l.as_mut_ptr(), vfy);
    *fy += l.iter().skip(1).fold(l[0], |a, &b| a + b);
    gather_row_reference(
        &ex_row[i..],
        &ey_row[i..],
        first_bx + i,
        bin_w,
        x0,
        x1,
        oy,
        bin_area,
        fx,
        fy,
    );
}
