//! The WA / LSE smoothing exponentials, batched into one sweep.

use crate::Backend;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// In-place elementwise exponential over a flat argument array:
/// `xs[i] ← e^{xs[i]}`.
///
/// This is the batch form of the smoothing exponentials: the WA/LSE
/// gradient gathers every net's stabilized arguments for the whole circuit
/// into one flat array and exponentiates them in a single sweep, so the
/// vector lanes stay full even though analog nets average only a handful
/// of pins each. **Bounded-ULP** under SIMD backends (the ≤ 2-ULP vector
/// polynomial of the crate's `exp` module, scalar `f64::exp` on the tail);
/// the scalar backend applies `f64::exp` per element in index order, which
/// is bit-identical to the seed's per-coordinate exponentials.
pub fn exp_slice(xs: &mut [f64]) {
    match crate::selected() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected()` never exceeds `detected()`, which reports
        // Avx512 only when the CPU has AVX-512F (and AVX2 + FMA); that is
        // the kernel's one requirement.
        Backend::Avx512 => unsafe { exp_slice_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected()` never exceeds `detected()`, which reports
        // Avx2 or above only when the CPU has AVX2 and FMA; that is the
        // kernel's one requirement.
        Backend::Avx2 => unsafe { exp_slice_avx2(xs) },
        _ => exp_slice_reference(xs),
    }
}

/// Scalar twin of [`exp_slice`]: `f64::exp` per element in index order.
pub fn exp_slice_reference(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = x.exp();
    }
}

/// AVX2 lanes of [`exp_slice`].
///
/// # Safety
///
/// The CPU must support AVX2 and FMA (dispatch checks this through
/// [`crate::selected`]). Every load and store stays inside the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn exp_slice_avx2(xs: &mut [f64]) {
    let n = xs.len();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_loadu_pd(xs.as_ptr().add(i));
        _mm256_storeu_pd(xs.as_mut_ptr().add(i), crate::exp::exp_pd_avx2(v));
        i += 4;
    }
    while i < n {
        xs[i] = xs[i].exp();
        i += 1;
    }
}

/// AVX-512 lanes of [`exp_slice`].
///
/// # Safety
///
/// The CPU must support AVX-512F (dispatch checks this through
/// [`crate::selected`]). Every load and store stays inside the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn exp_slice_avx512(xs: &mut [f64]) {
    let n = xs.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm512_loadu_pd(xs.as_ptr().add(i));
        _mm512_storeu_pd(xs.as_mut_ptr().add(i), crate::exp::exp_pd_avx512(v));
        i += 8;
    }
    while i < n {
        xs[i] = xs[i].exp();
        i += 1;
    }
}
