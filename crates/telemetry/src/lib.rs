//! Instrumentation for the placement workspace.
//!
//! The crate provides scoped timing spans with thread-aware nesting,
//! monotonic counters, log-scale histograms, and a buffered JSONL event
//! sink. The hot path is allocation-free after warm-up: events go to
//! per-thread fixed-capacity buffers that instrumented code drains with
//! [`flush`] *outside* its move/iteration loops, counters and span
//! statistics are plain atomics registered on an intrusive static list,
//! and the sink serialises into a reusable line buffer.
//!
//! Instrumented code never pays for a sink that is not installed: every
//! recording entry point first checks [`active`], one relaxed atomic load
//! that is only true between [`install`] / [`install_observer`] and their
//! uninstall. Inactive, a span reads no clock and a counter writes
//! nothing.
//!
//! The verbosity gate ([`verbose`] / [`vlog!`]) is independent of the
//! sink: diagnostic prints stay reachable via `PLACER_VERBOSE=<level>`
//! but default to silent. The sites are cold paths, so the single relaxed
//! atomic load they cost is irrelevant.
//!
//! # Event model
//!
//! Everything written to the sink is one JSON object per line:
//!
//! * `{"type":"event","kind":"gp_iter","t_us":...,"thread":...,<fields>}` —
//!   a point sample from a solver loop; field values are `f64` (non-finite
//!   values serialise as `null`).
//! * `{"type":"counter","name":...,"value":...}` — monotonic count since
//!   [`install`] (stats are reset when a sink is installed).
//! * `{"type":"span","name":...,"calls":...,"total_ns":...,"self_ns":...}`
//!   — aggregate of a scoped timer; `self_ns` excludes enclosed spans.
//! * `{"type":"histogram","name":...,"count":...,"b<i>":...}` — log-scale
//!   buckets; bucket `i` (1..=63) covers values in `[2^(i-33), 2^(i-32))`,
//!   bucket 0 collects non-positive and non-finite samples.
//! * `{"type":"manifest",...}` / `{"type":"phase",...}` — run metadata
//!   written directly by the harness via [`manifest`] / [`emit_meta`].
//!
//! [`push_escaped`] / [`push_f64`] are the workspace's one JSON value
//! writer: the sink here, `placer-obs` and the job protocol all format
//! strings and numbers through them.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// A typed value for [`manifest`] / [`emit_meta`] metadata lines.
///
/// Metadata is written off the hot path, so strings are allowed here even
/// though [`record`] restricts event payloads to `f64`.
pub enum Field<'a> {
    /// Floating-point value (non-finite serialises as `null`).
    F(f64),
    /// Unsigned integer value.
    U(u64),
    /// Signed integer value.
    I(i64),
    /// Boolean value.
    B(bool),
    /// String value (JSON-escaped).
    S(&'a str),
}

/// Number of buckets in every [`Histogram`] (and in the `b<i>` keys of
/// serialized histogram lines).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// `[lower, upper)` value bounds of histogram bucket `i`, matching the
/// exponent-derived bucketing: bucket `i` in `1..=63` covers
/// `[2^(i-33), 2^(i-32))`; bucket 0 collects non-positive and non-finite
/// samples and reports `(-inf, 0)`. Report tooling uses it to interpret
/// buckets without a live registry.
pub fn histogram_bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        return (f64::NEG_INFINITY, 0.0);
    }
    let i = i.min(HISTOGRAM_BUCKETS - 1) as i32;
    (2f64.powi(i - 33), 2f64.powi(i - 32))
}

/// Appends `s` to `line` with JSON string escaping (no surrounding
/// quotes).
pub fn push_escaped(line: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
}

/// Appends `value` as a JSON number, or `null` when non-finite.
pub fn push_f64(line: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(line, "{value}");
    } else {
        line.push_str("null");
    }
}

// u8::MAX marks "not yet initialised from PLACER_VERBOSE".
static VERBOSITY: AtomicU8 = AtomicU8::new(u8::MAX);

#[cold]
fn init_verbosity() -> u8 {
    let level = std::env::var("PLACER_VERBOSE")
        .ok()
        .and_then(|s| s.trim().parse::<u8>().ok())
        .unwrap_or(0)
        .min(u8::MAX - 1);
    VERBOSITY.store(level, Ordering::Relaxed);
    level
}

/// True when diagnostic output at `level` is enabled. Level 1 is "notable
/// anomalies" (solver gave up, model infeasible), level 2 is per-round
/// progress, level 3 also prints a failed solve's model text to stderr.
/// Defaults to 0 (silent); set via `PLACER_VERBOSE` or [`set_verbosity`].
#[inline]
pub fn verbose(level: u8) -> bool {
    let v = VERBOSITY.load(Ordering::Relaxed);
    let v = if v == u8::MAX { init_verbosity() } else { v };
    level <= v
}

/// Overrides the `PLACER_VERBOSE`-derived verbosity for this process.
pub fn set_verbosity(level: u8) {
    VERBOSITY.store(level.min(u8::MAX - 1), Ordering::Relaxed);
}

/// Prints a diagnostic line to stderr when [`verbose`]`(level)` holds.
/// The format arguments are not evaluated otherwise.
#[macro_export]
macro_rules! vlog {
    ($level:expr, $($arg:tt)*) => {
        if $crate::verbose($level) {
            eprintln!("[placer] {}", format_args!($($arg)*));
        }
    };
}

mod real;
pub use real::*;

#[cfg(test)]
mod tests {
    #[test]
    fn verbosity_defaults_to_silent() {
        // Not set in the test environment; levels above 0 must be off.
        if std::env::var("PLACER_VERBOSE").is_err() {
            assert!(!crate::verbose(1));
            assert!(!crate::verbose(2));
        }
        crate::set_verbosity(2);
        assert!(crate::verbose(2));
        assert!(!crate::verbose(3));
        crate::set_verbosity(0);
        assert!(!crate::verbose(1));
    }
}
