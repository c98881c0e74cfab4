//! Property tests pinning every SIMD kernel against its scalar reference
//! at the documented contract: `to_bits` equality for the elementwise maps,
//! bounded relative error for the re-associated sums and the vector `exp`.
//!
//! Per-ISA kernels are exercised directly (guarded by [`crate::detected`])
//! so every backend the host supports is tested regardless of which one
//! dispatch selected — no global backend forcing, so these tests cannot
//! race the dispatch tests in `lib.rs`.

use proptest::prelude::*;

fn unzip2(v: Vec<(f64, f64)>) -> (Vec<f64>, Vec<f64>) {
    v.into_iter().unzip()
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    /// The public wrapper honors the bit-exact contract under whatever
    /// backend is currently selected.
    #[test]
    fn dispatch_axpy_bit_exact_any_backend(
        pairs in prop::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..70),
        a in -3.0..3.0f64,
    ) {
        let (mut got, xs) = unzip2(pairs);
        let mut want = got.clone();
        crate::axpy_reference(&mut want, a, &xs);
        crate::axpy(&mut got, a, &xs);
        prop_assert!(bits_eq(&got, &want));
    }
}

#[cfg(target_arch = "x86_64")]
mod isa {
    use super::{bits_eq, unzip2};
    use crate::{detected, grid, sweep, wa, Backend};
    use proptest::prelude::*;
    use std::arch::x86_64::*;

    fn have_avx2() -> bool {
        detected() >= Backend::Avx2
    }

    fn have_avx512() -> bool {
        detected() >= Backend::Avx512
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: [f64; 4]) -> [f64; 4] {
        let v = crate::exp::exp_pd_avx2(_mm256_loadu_pd(x.as_ptr()));
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), v);
        out
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn exp8(x: [f64; 8]) -> [f64; 8] {
        let v = crate::exp::exp_pd_avx512(_mm512_loadu_pd(x.as_ptr()));
        let mut out = [0.0; 8];
        _mm512_storeu_pd(out.as_mut_ptr(), v);
        out
    }

    #[test]
    fn vector_exp_saturates_extremes_and_nails_zero() {
        if have_avx2() {
            let got = unsafe { exp4([710.0, 1000.0, -746.0, 0.0]) };
            assert_eq!(got[0], f64::INFINITY);
            assert_eq!(got[1], f64::INFINITY);
            assert_eq!(got[2], 0.0);
            assert_eq!(got[3], 1.0);
        }
        if have_avx512() {
            let got = unsafe { exp8([710.0, -746.0, 0.0, 1.0, -1.0, 700.0, -700.0, 0.5]) };
            assert_eq!(got[0], f64::INFINITY);
            assert_eq!(got[1], 0.0);
            assert_eq!(got[2], 1.0);
        }
    }

    proptest! {
        /// Vector `exp` stays within the documented ULP bound of
        /// `f64::exp` over the full finite range.
        #[test]
        fn vector_exp_matches_std(xs in prop::collection::vec(-708.0..709.0f64, 8)) {
            let want: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
            if have_avx2() {
                for c in 0..2 {
                    let mut chunk = [0.0; 4];
                    chunk.copy_from_slice(&xs[4 * c..4 * c + 4]);
                    let got = unsafe { exp4(chunk) };
                    for k in 0..4 {
                        let w = want[4 * c + k];
                        prop_assert!(
                            (got[k] - w).abs() <= 1e-13 * w.abs() + 1e-300,
                            "exp({}) = {} want {}", chunk[k], got[k], w
                        );
                    }
                }
            }
            if have_avx512() {
                let mut chunk = [0.0; 8];
                chunk.copy_from_slice(&xs);
                let got = unsafe { exp8(chunk) };
                for k in 0..8 {
                    let w = want[k];
                    prop_assert!(
                        (got[k] - w).abs() <= 1e-13 * w.abs() + 1e-300,
                        "exp({}) = {} want {}", chunk[k], got[k], w
                    );
                }
            }
        }

        /// The batch exponential stays within the vector polynomial's
        /// documented tolerance of `f64::exp` on every supported ISA, for
        /// every slice length (tails run scalar and are bit-exact).
        #[test]
        fn exp_slice_isa_bounded_ulp(
            xs in prop::collection::vec(-700.0..700.0f64, 0..70),
        ) {
            let mut want = xs.clone();
            wa::exp_slice_reference(&mut want);
            prop_assert!(bits_eq(
                &want,
                &xs.iter().map(|x| x.exp()).collect::<Vec<_>>()
            ));
            if have_avx2() {
                let mut got = xs.clone();
                unsafe { wa::exp_slice_avx2(&mut got) };
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(
                        (g - w).abs() <= 1e-13 * w.abs() + 1e-300,
                        "avx2 exp {g} vs {w}"
                    );
                }
            }
            if have_avx512() {
                let mut got = xs.clone();
                unsafe { wa::exp_slice_avx512(&mut got) };
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(
                        (g - w).abs() <= 1e-13 * w.abs() + 1e-300,
                        "avx512 exp {g} vs {w}"
                    );
                }
            }
        }

        #[test]
        fn axpy_isa_bit_exact(
            pairs in prop::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..70),
            a in -3.0..3.0f64,
        ) {
            let (base, xs) = unzip2(pairs);
            let mut want = base.clone();
            sweep::axpy_reference(&mut want, a, &xs);
            if have_avx2() {
                let mut got = base.clone();
                unsafe { sweep::axpy_avx2(&mut got, a, &xs) };
                prop_assert!(bits_eq(&got, &want));
            }
            if have_avx512() {
                let mut got = base.clone();
                unsafe { sweep::axpy_avx512(&mut got, a, &xs) };
                prop_assert!(bits_eq(&got, &want));
            }
        }

        #[test]
        fn scatter_row_isa_bit_exact(
            row in prop::collection::vec(-10.0..10.0f64, 0..40),
            first_bx in 0..64usize,
            bin_w in 0.1..2.0f64,
            span in (-20.0..20.0f64, 0.1..30.0f64),
            oy in 0.0..2.0f64,
        ) {
            let (x0, width) = span;
            let x1 = x0 + width;
            let bin_area = bin_w * bin_w;
            let mut want = row.clone();
            grid::scatter_row_reference(&mut want, first_bx, bin_w, x0, x1, oy, bin_area);
            if have_avx2() {
                let mut got = row.clone();
                unsafe { grid::scatter_row_avx2(&mut got, first_bx, bin_w, x0, x1, oy, bin_area) };
                prop_assert!(bits_eq(&got, &want));
            }
            if have_avx512() {
                let mut got = row.clone();
                unsafe { grid::scatter_row_avx512(&mut got, first_bx, bin_w, x0, x1, oy, bin_area) };
                prop_assert!(bits_eq(&got, &want));
            }
        }

        #[test]
        fn gather_row_isa_bounded_ulp(
            cells in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 0..40),
            first_bx in 0..64usize,
            bin_w in 0.1..2.0f64,
            span in (-20.0..20.0f64, 0.1..30.0f64),
            oy in 0.0..2.0f64,
        ) {
            let (ex, ey) = unzip2(cells);
            let (x0, width) = span;
            let x1 = x0 + width;
            let bin_area = bin_w * bin_w;
            let (mut wfx, mut wfy) = (0.25, -0.5);
            grid::gather_row_reference(
                &ex, &ey, first_bx, bin_w, x0, x1, oy, bin_area, &mut wfx, &mut wfy,
            );
            let mut scale = 1.0;
            for j in 0..ex.len() {
                let cell_x0 = (first_bx + j) as f64 * bin_w;
                let ox = (x1.min(cell_x0 + bin_w) - x0.max(cell_x0)).max(0.0);
                let q = ox * oy / bin_area;
                scale += (q * ex[j]).abs() + (q * ey[j]).abs();
            }
            if have_avx2() {
                let (mut fx, mut fy) = (0.25, -0.5);
                unsafe {
                    grid::gather_row_avx2(
                        &ex, &ey, first_bx, bin_w, x0, x1, oy, bin_area, &mut fx, &mut fy,
                    )
                };
                prop_assert!((fx - wfx).abs() <= 1e-12 * scale, "{fx} vs {wfx}");
                prop_assert!((fy - wfy).abs() <= 1e-12 * scale, "{fy} vs {wfy}");
            }
            if have_avx512() {
                let (mut fx, mut fy) = (0.25, -0.5);
                unsafe {
                    grid::gather_row_avx512(
                        &ex, &ey, first_bx, bin_w, x0, x1, oy, bin_area, &mut fx, &mut fy,
                    )
                };
                prop_assert!((fx - wfx).abs() <= 1e-12 * scale, "{fx} vs {wfx}");
                prop_assert!((fy - wfy).abs() <= 1e-12 * scale, "{fy} vs {wfy}");
            }
        }
    }
}
