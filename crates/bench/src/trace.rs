//! Convergence-trace capture for the benchmark binaries.
//!
//! A traced run installs one JSONL sink per `(circuit, placer)` pair under
//! [`TRACE_DIR`], stamps it with a run manifest (seed, thread count, SIMD
//! backend, build profile), runs the placer, then drains the per-thread
//! event rings and the counter/span/histogram snapshots into the file. The
//! `trace_report` binary folds such a file back into a summary table using
//! [`placer_obs::json::parse_object`].

use std::path::{Path, PathBuf};
use std::time::Instant;

use placer_obs::progress::ProgressMode;
use placer_telemetry::Field;

/// Where traced bench runs write their JSONL files.
pub const TRACE_DIR: &str = "results/traces";

/// Extracts a `--trace` / `--trace=CIRCUIT` flag from the argument list.
///
/// Returns `None` when absent, `Some(None)` for a bare `--trace`, and
/// `Some(Some(name))` for `--trace=name`.
pub fn trace_flag(args: &[String]) -> Option<Option<String>> {
    for a in args {
        if a == "--trace" {
            return Some(None);
        }
        if let Some(name) = a.strip_prefix("--trace=") {
            return Some(Some(name.to_string()));
        }
    }
    None
}

/// Parses a `--progress` / `--progress=jsonl|human` argument value.
///
/// `None` (a bare `--progress`) defaults to human-readable lines.
///
/// # Errors
///
/// Returns a message for unknown mode names.
pub fn parse_progress_mode(value: Option<&str>) -> Result<ProgressMode, String> {
    match value {
        None => Ok(ProgressMode::Human),
        Some(v) => ProgressMode::parse(v).ok_or_else(|| format!("unknown progress mode `{v}`")),
    }
}

/// The trace file path for one `(circuit, placer)` pair.
pub fn trace_path(circuit: &str, placer: &str) -> PathBuf {
    Path::new(TRACE_DIR).join(format!("{circuit}_{placer}.jsonl"))
}

/// Runs `f` with a trace sink installed at `results/traces/<circuit>_<placer>.jsonl`.
///
/// Emits the run manifest before `f` and a `{"type":"phase",...}` total
/// wall-time line plus all stat snapshots after it. Per-phase wall times
/// live in the span lines (`gp_run`, `dp_run`, `sa_chain`, `sa_repair`,
/// `xu19_global`, ...) that `flush_stats` writes.
///
/// # Panics
///
/// Panics if the sink file cannot be created.
pub fn with_trace<T>(circuit: &str, placer: &str, seed: u64, f: impl FnOnce() -> T) -> T {
    let path = trace_path(circuit, placer);
    placer_telemetry::install(&path)
        .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
    placer_telemetry::manifest(&[
        ("circuit", Field::S(circuit)),
        ("placer", Field::S(placer)),
        ("seed", Field::U(seed)),
        ("threads", Field::U(placer_parallel::max_threads() as u64)),
        ("simd", Field::S(placer_simd::selected().name())),
        (
            "profile",
            Field::S(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("os", Field::S(std::env::consts::OS)),
        ("arch", Field::S(std::env::consts::ARCH)),
    ]);
    let t0 = Instant::now();
    let out = f();
    placer_telemetry::emit_meta(
        "phase",
        &[
            ("name", Field::S("total")),
            ("seconds", Field::F(t0.elapsed().as_secs_f64())),
        ],
    );
    // Worker threads drain their own rings at the end of each chain/run;
    // this drains the main thread's ring plus the stat registries.
    placer_telemetry::flush();
    placer_telemetry::flush_stats();
    placer_telemetry::uninstall();
    placer_telemetry::vlog!(1, "trace: wrote {}", path.display());
    out
}

/// Installs a trace sink for a whole batch binary run (the `jobs` / `sweep`
/// equivalent of the per-`(circuit, placer)` [`with_trace`]), stamping a
/// command-level manifest. Close it with [`finish_batch_trace`].
///
/// # Panics
///
/// Panics if the sink file cannot be created.
pub fn install_batch_trace(cmd: &str, path: &Path) {
    placer_telemetry::install(path)
        .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
    placer_telemetry::manifest(&[
        ("cmd", Field::S(cmd)),
        ("threads", Field::U(placer_parallel::max_threads() as u64)),
        ("simd", Field::S(placer_simd::selected().name())),
        (
            "profile",
            Field::S(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("os", Field::S(std::env::consts::OS)),
        ("arch", Field::S(std::env::consts::ARCH)),
    ]);
}

/// Emits the total-wall phase line, drains every ring and stat registry,
/// and uninstalls the sink installed by [`install_batch_trace`].
pub fn finish_batch_trace(path: &Path, t0: Instant) {
    placer_telemetry::emit_meta(
        "phase",
        &[
            ("name", Field::S("total")),
            ("seconds", Field::F(t0.elapsed().as_secs_f64())),
        ],
    );
    placer_telemetry::flush();
    placer_telemetry::flush_stats();
    placer_telemetry::uninstall();
    placer_telemetry::vlog!(1, "trace: wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_flag_variants() {
        let none: Vec<String> = vec!["--quick".into()];
        assert_eq!(trace_flag(&none), None);
        let bare: Vec<String> = vec!["--trace".into()];
        assert_eq!(trace_flag(&bare), Some(None));
        let named: Vec<String> = vec!["--trace=cc_ota".into()];
        assert_eq!(trace_flag(&named), Some(Some("cc_ota".into())));
    }

    #[test]
    fn progress_mode_parsing() {
        assert_eq!(parse_progress_mode(None), Ok(ProgressMode::Human));
        assert_eq!(parse_progress_mode(Some("jsonl")), Ok(ProgressMode::Jsonl));
        assert!(parse_progress_mode(Some("xml")).is_err());
    }

    #[test]
    fn trace_path_shape() {
        let p = trace_path("cc_ota", "eplace_a");
        assert!(p.ends_with("cc_ota_eplace_a.jsonl"));
        assert!(p.starts_with(TRACE_DIR));
    }
}
