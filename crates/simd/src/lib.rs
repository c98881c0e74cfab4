//! Runtime-dispatched SIMD kernels for ePlace's global placement and the
//! GNN.
//!
//! Four f64 kernels, each called from a hot loop that runs on the paper's
//! circuits, sit behind **one-time runtime CPU dispatch**:
//!
//! - [`exp_slice`]: the WA/LSE smoothing exponentials, batched over the
//!   whole circuit (ePlace's wirelength gradient);
//! - [`scatter_row`] and [`gather_row`]: the density grid's per-row charge
//!   scatter and field gather (ePlace's density term);
//! - [`axpy`]: the GNN's dense and CSR matrix-product row accumulations
//!   (inference and training) and ePlace's Nesterov gradient mix.
//!
//! The backends are:
//!
//! - **AVX-512F** (8 lanes) when the host supports it,
//! - **AVX2 + FMA** (4 lanes) otherwise,
//! - **scalar** as the universal fallback *and* the bit-exactness
//!   reference.
//!
//! The backend is picked once per process (first kernel call) from
//! [`std::arch::is_x86_feature_detected!`] and can be overridden with the
//! `PLACER_SIMD=scalar|avx2|avx512` environment variable (clamped to what
//! the host actually supports) or programmatically with [`force`] for
//! benchmarks and tests.
//!
//! # Determinism contract, per kernel
//!
//! Every kernel documents one of two numeric contracts against its scalar
//! reference (`*_reference` twins, which replicate the seed arithmetic of
//! the call sites operation for operation):
//!
//! - **bit-exact**: the SIMD variant performs the same floating-point
//!   operations per element, so its result cannot differ. [`axpy`] and
//!   [`scatter_row`] are purely elementwise maps.
//! - **bounded-ULP**: the SIMD variant re-associates a floating-point
//!   *sum* across lanes ([`gather_row`]) or evaluates `exp` with a vector
//!   polynomial (≤ 2 ULP of `f64::exp`; [`exp_slice`]). Results differ
//!   from scalar in the last bits; the property tests in this crate
//!   document and pin the tolerance.
//!
//! Within one process the selected backend never changes, so every kernel
//! is deterministic: bit-identity contracts that quantify over *runs*
//! (checkpoint/resume identity, traced ≡ untraced) hold under every
//! backend. Contracts that quantify over *machines* are pinned against the
//! forced-scalar backend, which is bit-identical to the pre-SIMD seed
//! paths.
//!
//! Inputs must be NaN-free: `f64::min`/`max` and the vector min/max
//! instructions differ on NaN, so [`scatter_row`]'s bit-exact guarantee
//! excludes it. Placement coordinates, densities and weights are finite by
//! construction in every caller.
//!
//! # Adding a kernel
//!
//! Add one only for a loop that a placement of a paper circuit runs, and
//! judge it end to end: a kernel that wins its own lane but no placement
//! is code to delete.
//!
//! 1. Write the scalar reference replicating the call site's exact
//!    arithmetic (op order included) and name it `*_reference`.
//! 2. Write `unsafe fn *_avx2` / `*_avx512` under
//!    `#[target_feature(enable = …)]`, choosing lane decompositions that
//!    keep the contract you can afford (elementwise → bit-exact;
//!    re-associated sums → bounded-ULP, documented).
//! 3. Dispatch in the public wrapper via [`selected`], falling through to
//!    the reference.
//! 4. Add a proptest pinning SIMD against the reference at the documented
//!    tolerance, and extend `tests/zero_alloc.rs` — kernels never allocate.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod exp;
mod grid;
mod sweep;
mod wa;

pub use grid::{gather_row, gather_row_reference, scatter_row, scatter_row_reference};
pub use sweep::{axpy, axpy_reference};
pub use wa::{exp_slice, exp_slice_reference};

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set backend a kernel call runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Portable scalar Rust — the bit-exactness reference.
    Scalar,
    /// 4-lane f64 via AVX2 + FMA.
    Avx2,
    /// 8-lane f64 via AVX-512F.
    Avx512,
}

impl Backend {
    /// Stable lowercase name (`scalar` / `avx2` / `avx512`), as accepted by
    /// the `PLACER_SIMD` environment variable and recorded in run
    /// manifests and bench fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parses a `PLACER_SIMD` value. Unknown strings are `None`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            _ => None,
        }
    }
}

/// The best backend this host supports, ignoring every override.
pub fn detected() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // Avx512 implies the Avx2 kernels stay usable (gather-heavy
            // kernels run 4-wide under either backend).
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// Atomic encoding of the selected backend: 0 = not yet resolved,
/// otherwise `Backend as u8 + 1`.
static SELECTED: AtomicU8 = AtomicU8::new(0);

fn decode(v: u8) -> Option<Backend> {
    match v {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Avx2),
        3 => Some(Backend::Avx512),
        _ => None,
    }
}

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
        Backend::Avx512 => 3,
    }
}

/// The backend every kernel in this crate dispatches to.
///
/// Resolved once per process: the `PLACER_SIMD` environment variable if
/// set (clamped to [`detected`] with a one-time stderr warning when the
/// host cannot honor the request), otherwise [`detected`]. [`force`]
/// overrides both until cleared.
///
/// Invariant: `selected() <= detected()`. Every store to the selection
/// goes through a clamp to [`detected`] (in `resolve` and [`force`]), and
/// every dispatch's `unsafe` call into an AVX kernel relies on it.
pub fn selected() -> Backend {
    if let Some(b) = decode(SELECTED.load(Ordering::Relaxed)) {
        return b;
    }
    let b = resolve();
    // Racing first calls resolve identically (env + cpuid are stable), so
    // a plain store is fine.
    SELECTED.store(encode(b), Ordering::Relaxed);
    b
}

/// The environment's backend, clamped to [`detected`] (the
/// `selected() <= detected()` invariant).
fn resolve() -> Backend {
    let best = detected();
    match std::env::var("PLACER_SIMD") {
        Ok(v) => match Backend::parse(&v) {
            Some(req) if req <= best => req,
            Some(req) => {
                eprintln!(
                    "placer-simd: PLACER_SIMD={} not supported on this host, using {}",
                    req.name(),
                    best.name()
                );
                best
            }
            None => {
                eprintln!(
                    "placer-simd: unknown PLACER_SIMD value {v:?} (want scalar|avx2|avx512), \
                     using {}",
                    best.name()
                );
                best
            }
        },
        Err(_) => best,
    }
}

/// Forces the backend for this process (benchmarks measuring per-ISA
/// lanes, tests pinning SIMD against scalar). `None` re-resolves from the
/// environment on the next [`selected`] call. Requests above [`detected`]
/// are clamped, which keeps `selected() <= detected()`. Returns the
/// backend now in effect (or `None` when cleared).
pub fn force(backend: Option<Backend>) -> Option<Backend> {
    match backend {
        Some(b) => {
            // The clamp is what makes the dispatch blocks sound.
            let eff = b.min(detected());
            SELECTED.store(encode(eff), Ordering::Relaxed);
            Some(eff)
        }
        None => {
            SELECTED.store(0, Ordering::Relaxed);
            None
        }
    }
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("AVX2"), Some(Backend::Avx2));
        assert_eq!(Backend::parse("neon"), None);
    }

    #[test]
    fn force_clamps_to_detected_and_clears() {
        let prev = selected();
        let eff = force(Some(Backend::Avx512)).expect("forced");
        assert!(eff <= detected());
        assert_eq!(selected(), eff);
        assert_eq!(force(Some(Backend::Scalar)), Some(Backend::Scalar));
        assert_eq!(selected(), Backend::Scalar);
        force(None);
        assert_eq!(selected(), prev.max(selected().min(detected())));
        // After clearing, selection falls back to env/detection.
        assert!(selected() <= detected());
    }
}
