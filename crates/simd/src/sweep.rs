//! The uncontracted `axpy` sweep.
//!
//! [`axpy`] is **bit-exact** against its `_reference` twin: each element
//! takes the reference's multiply, then its add, in every lane.

use crate::Backend;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `acc[i] += a * x[i]` over `min(acc.len(), x.len())` elements.
///
/// Multiply **then** add — deliberately never contracted to an FMA — so
/// every backend is bit-identical to the seed loops in the CSR SpMM row
/// accumulation and the Nesterov gradient mix.
pub fn axpy(acc: &mut [f64], a: f64, x: &[f64]) {
    match crate::selected() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { axpy_avx512(acc, a, x) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { axpy_avx2(acc, a, x) },
        _ => axpy_reference(acc, a, x),
    }
}

/// Scalar twin of [`axpy`] (the seed accumulation loop, op for op).
pub fn axpy_reference(acc: &mut [f64], a: f64, x: &[f64]) {
    for (o, &r) in acc.iter_mut().zip(x) {
        *o += a * r;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn axpy_avx2(acc: &mut [f64], a: f64, x: &[f64]) {
    let n = acc.len().min(x.len());
    let va = _mm256_set1_pd(a);
    let mut i = 0;
    while i + 4 <= n {
        let vx = _mm256_loadu_pd(x.as_ptr().add(i));
        let vo = _mm256_loadu_pd(acc.as_ptr().add(i));
        // mul + add, not fmadd: bit-exact contract.
        let vo = _mm256_add_pd(vo, _mm256_mul_pd(va, vx));
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), vo);
        i += 4;
    }
    axpy_reference(&mut acc[i..n], a, &x[i..n]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn axpy_avx512(acc: &mut [f64], a: f64, x: &[f64]) {
    let n = acc.len().min(x.len());
    let va = _mm512_set1_pd(a);
    let mut i = 0;
    while i + 8 <= n {
        let vx = _mm512_loadu_pd(x.as_ptr().add(i));
        let vo = _mm512_loadu_pd(acc.as_ptr().add(i));
        let vo = _mm512_add_pd(vo, _mm512_mul_pd(va, vx));
        _mm512_storeu_pd(acc.as_mut_ptr().add(i), vo);
        i += 8;
    }
    axpy_reference(&mut acc[i..n], a, &x[i..n]);
}
