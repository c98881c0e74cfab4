//! The command-line surface shared by the batch binaries.
//!
//! `jobs`, `sweep`, `serve`, `submit` and `bench_hotpaths` all grew the
//! same operational flags — output file, worker threads, ECO threshold,
//! progress streaming, trace capture, run ledger — and each used to parse
//! them locally. [`CommonOpts::take`] is the single parser: a binary's
//! argument loop offers every token to it first and only matches its own
//! flags when `take` declines, so the flags spell, validate and error
//! identically everywhere. [`CommonOpts::new`] refuses a malformed
//! `PLACER_THREADS` the same way.
//!
//! [`ObsSession`] is the matching runtime bracket: it installs the trace
//! sink and progress observer a `--trace`/`--progress` run asked for
//! (in that order — the trace install resets the stat registries) and
//! tears both down around a metrics snapshot at the end.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use placer_jobs::JobStatus;
use placer_obs::metrics::MetricsSnapshot;
use placer_obs::progress::{self, ProgressMode};
use placer_parallel::parse_threads;

use crate::trace::{finish_batch_trace, install_batch_trace, parse_progress_mode, TRACE_DIR};

/// Takes the next argument as `flag`'s value.
///
/// # Errors
///
/// Returns a message when the argument list ends first.
pub fn value(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("`{flag}` needs a value"))
}

/// Checks a `PLACER_THREADS` value (`None` when unset) by the `--threads`
/// rule, [`parse_threads`].
fn thread_env_value(value: Option<&OsStr>) -> Result<(), String> {
    match value {
        None => Ok(()),
        Some(v) => parse_threads(v.to_string_lossy().trim())
            .map(drop)
            .map_err(|e| format!("PLACER_THREADS: {e}")),
    }
}

/// Parses a `--expect STATUS` value through the wire names.
///
/// # Errors
///
/// Returns a message naming the unknown status.
pub fn parse_status(s: &str) -> Result<JobStatus, String> {
    JobStatus::parse(s).ok_or_else(|| format!("unknown status `{s}`"))
}

/// Parses a seed list (`1,2,7`) or inclusive range (`1-64`).
///
/// # Errors
///
/// Returns a message for unparseable numbers or an empty range.
pub fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    if let Some((lo, hi)) = text.split_once('-') {
        let lo: u64 = lo.trim().parse().map_err(|_| format!("bad seed `{lo}`"))?;
        let hi: u64 = hi.trim().parse().map_err(|_| format!("bad seed `{hi}`"))?;
        if lo > hi {
            return Err(format!("empty seed range `{text}`"));
        }
        return Ok((lo..=hi).collect());
    }
    text.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad seed `{}`", s.trim()))
        })
        .collect()
}

/// Parses a comma list of floats, naming `what` in errors.
///
/// # Errors
///
/// Returns a message for unparseable numbers.
pub fn parse_floats(text: &str, what: &str) -> Result<Vec<f64>, String> {
    text.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad {what} `{}`", s.trim()))
        })
        .collect()
}

/// The operational flags every batch binary accepts.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// `--out FILE`: mirror stdout reports to a file.
    pub out: Option<PathBuf>,
    /// `--threads N`: pin the worker pool size.
    pub threads: Option<usize>,
    /// `--eco-threshold F`: dirtied-device fraction above which ECO jobs
    /// fall back to cold re-placement (validated to `[0, 1]`).
    pub eco_threshold: Option<f64>,
    /// `--progress[=human|jsonl]`: stream per-job status to stderr.
    pub progress: Option<ProgressMode>,
    /// `--trace[=FILE]`: capture a telemetry trace of the run.
    pub trace: Option<Option<String>>,
    /// `--ledger none|PATH`: run-ledger destination.
    pub ledger: Option<String>,
}

/// The usage fragment for the shared flags (append after the
/// binary-specific ones).
pub const COMMON_USAGE: &str = "[--out FILE] [--threads N] [--eco-threshold F] \
     [--progress[=human|jsonl]] [--trace[=FILE]] [--ledger none|PATH]";

impl CommonOpts {
    /// Starts a binary's option set, refusing a set `PLACER_THREADS` that
    /// is not a positive integer, which `placer_parallel::max_threads`
    /// would ignore in favour of every hardware thread.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable and its value.
    pub fn new() -> Result<CommonOpts, String> {
        thread_env_value(std::env::var_os("PLACER_THREADS").as_deref())?;
        Ok(CommonOpts::default())
    }

    /// Offers `arg` to the shared parser. Returns `true` when the flag
    /// was consumed (possibly advancing `it` for its value), `false` when
    /// the binary should match it itself.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or invalid flag value.
    pub fn take(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match arg {
            "--out" => self.out = Some(PathBuf::from(value("--out", it)?)),
            "--threads" => self.threads = Some(parse_threads(&value("--threads", it)?)?),
            "--eco-threshold" => {
                let v = value("--eco-threshold", it)?;
                let t: f64 = v.parse().map_err(|_| format!("bad threshold `{v}`"))?;
                if !(0.0..=1.0).contains(&t) {
                    return Err(format!("`--eco-threshold` must lie in [0, 1], got {v}"));
                }
                self.eco_threshold = Some(t);
            }
            "--progress" => self.progress = Some(parse_progress_mode(None)?),
            "--trace" => self.trace = Some(None),
            "--ledger" => self.ledger = Some(value("--ledger", it)?),
            flag if flag.starts_with("--progress=") => {
                self.progress = Some(parse_progress_mode(flag.strip_prefix("--progress="))?);
            }
            flag if flag.starts_with("--trace=") => {
                self.trace = Some(flag.strip_prefix("--trace=").map(str::to_string));
            }
            flag if flag.starts_with("--ledger=") => {
                self.ledger = flag.strip_prefix("--ledger=").map(str::to_string);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies `--threads` to the worker pool (no-op when unset).
    pub fn apply_threads(&self) {
        if let Some(n) = self.threads {
            placer_parallel::set_max_threads(n);
        }
    }

    /// Writes the report text to `--out` when one was given.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on I/O failure.
    pub fn write_out(&self, lines: &str) -> Result<(), String> {
        if let Some(path) = &self.out {
            std::fs::write(path, lines).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// The observability bracket around one batch run: trace sink and
/// progress observer installed up front, metrics snapshot and teardown at
/// the end.
pub struct ObsSession {
    t0: Instant,
    trace_path: Option<PathBuf>,
}

impl ObsSession {
    /// Installs the requested observers. The trace default is
    /// `results/traces/<cmd>.jsonl`.
    ///
    /// # Errors
    ///
    /// Returns a message when the progress observer cannot install.
    pub fn start(cmd: &str, opts: &CommonOpts) -> Result<ObsSession, String> {
        let trace_path = opts.trace.as_ref().map(|p| {
            PathBuf::from(
                p.clone()
                    .unwrap_or_else(|| format!("{TRACE_DIR}/{cmd}.jsonl")),
            )
        });
        let t0 = Instant::now();
        // Trace sink first (its install resets the stat registries),
        // progress observer second so the counters keep accumulating
        // across both.
        if let Some(path) = &trace_path {
            install_batch_trace(cmd, path);
        }
        if let Some(mode) = opts.progress {
            progress::install(mode).map_err(|e| format!("installing progress reporter: {e}"))?;
        }
        Ok(ObsSession { t0, trace_path })
    }

    /// The resolved trace file, when tracing.
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace_path.as_deref()
    }

    /// Elapsed wall-clock since [`start`](Self::start), in ms.
    pub fn wall_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    /// Tears the observers down and returns the run's metrics snapshot
    /// plus total wall-clock (ms).
    pub fn finish(self) -> (MetricsSnapshot, f64) {
        progress::uninstall();
        let metrics = MetricsSnapshot::capture();
        if let Some(path) = &self.trace_path {
            finish_batch_trace(path, self.t0);
        }
        (metrics, self.wall_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn common_flags_parse_in_both_spellings() {
        let a = args(&[
            "--out",
            "r.jsonl",
            "--threads",
            "4",
            "--eco-threshold",
            "0.25",
            "--ledger=none",
            "--trace=t.jsonl",
        ]);
        let mut it = a.iter();
        let mut opts = CommonOpts::default();
        while let Some(arg) = it.next() {
            assert!(opts.take(arg, &mut it).unwrap(), "unconsumed `{arg}`");
        }
        assert_eq!(opts.out.as_deref(), Some(Path::new("r.jsonl")));
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.eco_threshold, Some(0.25));
        assert_eq!(opts.ledger.as_deref(), Some("none"));
        assert_eq!(opts.trace, Some(Some("t.jsonl".into())));
    }

    #[test]
    fn unknown_flags_are_declined_not_errors() {
        let a = args(&["--pareto"]);
        let mut it = a.iter();
        let mut opts = CommonOpts::default();
        assert_eq!(opts.take(it.next().unwrap(), &mut it), Ok(false));
    }

    #[test]
    fn bad_values_are_rejected_with_the_flag_name() {
        let a = args(&["--eco-threshold", "1.5"]);
        let mut it = a.iter();
        let mut opts = CommonOpts::default();
        let err = opts.take(it.next().unwrap(), &mut it).unwrap_err();
        assert!(err.contains("--eco-threshold"), "{err}");
        assert!(CommonOpts::default()
            .take("--ledger", &mut args(&[]).iter())
            .unwrap_err()
            .contains("--ledger"));
    }

    #[test]
    fn thread_counts_must_be_positive_integers() {
        for bad in ["0", "abc", "-1", ""] {
            let a = args(&["--threads", bad]);
            let mut it = a.iter();
            let err = CommonOpts::default()
                .take(it.next().unwrap(), &mut it)
                .unwrap_err();
            assert!(err.contains("bad thread count"), "{bad}: {err}");
        }
        assert_eq!(parse_threads("3"), Ok(3));
    }

    #[test]
    fn placer_threads_env_is_checked_like_the_flag() {
        assert_eq!(thread_env_value(None), Ok(()));
        assert_eq!(thread_env_value(Some(OsStr::new(" 2 "))), Ok(()));
        for bad in ["0", "abc", ""] {
            let err = thread_env_value(Some(OsStr::new(bad))).unwrap_err();
            assert!(err.starts_with("PLACER_THREADS: bad thread count"), "{err}");
        }
    }

    #[test]
    fn status_seed_and_float_parsers() {
        assert_eq!(parse_status("complete"), Ok(JobStatus::Complete));
        assert!(parse_status("eaten").is_err());
        assert_eq!(parse_seeds("1,2,7"), Ok(vec![1, 2, 7]));
        assert_eq!(parse_seeds("3-5"), Ok(vec![3, 4, 5]));
        assert!(parse_seeds("5-3").is_err());
        assert_eq!(parse_floats("0.5,0.7", "utilization"), Ok(vec![0.5, 0.7]));
        assert!(parse_floats("x", "aspect").unwrap_err().contains("aspect"));
    }
}
