//! The run ledger: an append-only JSONL manifest of every invocation.
//!
//! Each jobs/sweep/bench run appends one flat JSON record to
//! [`DEFAULT_LEDGER_PATH`] (override with `--ledger PATH`, disable with
//! `--ledger none`). A record carries the provenance (`git describe`,
//! OS/arch, timestamp), the run shape (command, wall time, outcome
//! counts), and a flattened [`MetricsSnapshot`], so `results/ledger.jsonl`
//! becomes a machine-readable history of what ran on this checkout —
//! `trace_report` summarizes it, `trace_diff` compares entries.
//!
//! The provenance stamp is taken once per process ([`git_describe`]), and
//! [`RunLedger::record`] builds a record only when the ledger is enabled,
//! so a daemon that logs every report spawns `git` at most once, and a
//! disabled ledger (`--ledger none`) never does.
//!
//! Appends are a single `write` on a file opened with `O_APPEND`, so
//! concurrent invocations interleave whole records, never partial lines.

use std::fmt::Write as FmtWrite;
use std::fs::OpenOptions;
use std::io::{self, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{push_escaped, push_f64};
use crate::metrics::MetricsSnapshot;

/// Where ledger records go unless overridden.
pub const DEFAULT_LEDGER_PATH: &str = "results/ledger.jsonl";

/// Ledger record schema version, bumped on breaking key changes.
pub const LEDGER_SCHEMA: u64 = 1;

/// `git describe --always --dirty --tags` for the working directory, or
/// `"unknown"` when git (or a repository) is unavailable.
///
/// `git` runs at the first call only; later calls return the same stamp.
/// The running binary does not change after it starts, so one stamp per
/// process is also the truer provenance.
pub fn git_describe() -> &'static str {
    static STAMP: OnceLock<String> = OnceLock::new();
    STAMP.get_or_init(run_git_describe)
}

#[cfg(test)]
static GIT_RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn run_git_describe() -> String {
    #[cfg(test)]
    GIT_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Destination for ledger appends; construct with [`RunLedger::from_flag`].
#[derive(Debug, Clone)]
pub struct RunLedger {
    path: Option<PathBuf>,
}

impl RunLedger {
    /// Maps a `--ledger` flag value to a destination: absent means
    /// [`DEFAULT_LEDGER_PATH`], `none`/`off` disables, anything else is a
    /// path.
    pub fn from_flag(flag: Option<&str>) -> Self {
        let path = match flag {
            Some("none") | Some("off") => None,
            Some(path) => Some(PathBuf::from(path)),
            None => Some(PathBuf::from(DEFAULT_LEDGER_PATH)),
        };
        RunLedger { path }
    }

    /// A ledger that drops every record.
    pub fn disabled() -> Self {
        RunLedger { path: None }
    }

    /// The destination path, if appends are enabled.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Builds one record for command `cmd` with `fill` and appends it
    /// (creating parent directories and the file on first use). A
    /// disabled ledger builds nothing: neither `fill` nor the record's
    /// provenance stamp runs, and the call returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the open or write.
    pub fn record(&self, cmd: &str, fill: impl FnOnce(&mut LedgerRecord)) -> io::Result<bool> {
        if self.path.is_none() {
            return Ok(false);
        }
        let mut record = LedgerRecord::new(cmd);
        fill(&mut record);
        self.append(&record)
    }

    /// Appends one record (creating parent directories and the file on
    /// first use). Returns `Ok(false)` when the ledger is disabled.
    fn append(&self, record: &LedgerRecord) -> io::Result<bool> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(record.to_line().as_bytes())?;
        Ok(true)
    }
}

/// One ledger record under construction: a flat JSON object that always
/// starts with the provenance stamp.
#[derive(Debug, Clone)]
pub struct LedgerRecord {
    line: String,
}

impl LedgerRecord {
    /// Starts a record for command `cmd`, stamped with the schema
    /// version, Unix timestamp, `git describe`, and OS/arch.
    pub fn new(cmd: &str) -> Self {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut record = LedgerRecord {
            line: String::with_capacity(1024),
        };
        record.line.push_str("{\"type\":\"ledger\"");
        record.uint("schema", LEDGER_SCHEMA);
        record.str_field("cmd", cmd);
        record.uint("ts_ms", ts_ms);
        record.str_field("git", git_describe());
        record.str_field("os", std::env::consts::OS);
        record.str_field("arch", std::env::consts::ARCH);
        record
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.line.push('"');
        push_escaped(&mut self.line, value);
        self.line.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.line, "{value}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        push_f64(&mut self.line, value);
        self
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.line.push_str(if value { "true" } else { "false" });
        self
    }

    /// Flattens a metrics snapshot into the record (dotted `counter.*`,
    /// `span.*`, `hist.*` keys).
    pub fn metrics(&mut self, snapshot: &MetricsSnapshot) -> &mut Self {
        snapshot.append_flat(&mut self.line);
        self
    }

    fn key(&mut self, key: &str) {
        self.line.push_str(",\"");
        push_escaped(&mut self.line, key);
        self.line.push_str("\":");
    }

    /// The finished record as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        let mut line = self.line.clone();
        line.push_str("}\n");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_object, Json};

    fn temp_ledger(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("placer_ledger_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn records_append_and_parse() {
        let path = temp_ledger("basic");
        std::fs::remove_file(&path).ok();
        let ledger = RunLedger::from_flag(Some(path.to_str().unwrap()));
        let mut record = LedgerRecord::new("jobs");
        record
            .uint("jobs", 3)
            .num("wall_ms", 41.5)
            .flag("resume", false)
            .str_field("note", "quote\" here");
        assert!(ledger.append(&record).unwrap());
        assert!(ledger.append(&record).unwrap());

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let kv = parse_object(line).unwrap();
            assert_eq!(kv[0].1, Json::Str("ledger".into()));
            let get = |k: &str| kv.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
            assert_eq!(get("schema").unwrap().as_num(), Some(LEDGER_SCHEMA as f64));
            assert_eq!(get("cmd").unwrap().as_str(), Some("jobs"));
            assert_eq!(get("jobs").unwrap().as_num(), Some(3.0));
            assert_eq!(get("wall_ms").unwrap().as_num(), Some(41.5));
            assert_eq!(get("note").unwrap().as_str(), Some("quote\" here"));
            assert!(get("git").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn none_flag_disables() {
        let ledger = RunLedger::from_flag(Some("none"));
        assert!(ledger.path().is_none());
        let record = LedgerRecord::new("bench");
        assert!(!ledger.append(&record).unwrap());
        assert!(RunLedger::disabled().path().is_none());
    }

    #[test]
    fn disabled_ledger_builds_no_record() {
        for ledger in [RunLedger::disabled(), RunLedger::from_flag(Some("off"))] {
            let mut built = false;
            assert!(!ledger.record("serve", |_| built = true).unwrap());
            assert!(!built, "a disabled ledger ran the record's fill");
        }
        let path = temp_ledger("record");
        std::fs::remove_file(&path).ok();
        let ledger = RunLedger::from_flag(Some(path.to_str().unwrap()));
        assert!(ledger
            .record("serve", |r| {
                r.str_field("event", "report");
            })
            .unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains(r#""cmd":"serve""#) && text.contains(r#""event":"report""#));
    }

    #[test]
    fn git_runs_at_most_once_per_process() {
        let stamps: Vec<&'static str> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(git_describe)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for _ in 0..3 {
            LedgerRecord::new("serve");
        }
        assert!(stamps.iter().all(|&s| s == git_describe() && !s.is_empty()));
        assert_eq!(
            GIT_RUNS.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "git describe ran more than once in one process"
        );
    }

    #[test]
    fn default_flag_points_at_results() {
        let ledger = RunLedger::from_flag(None);
        assert_eq!(ledger.path().unwrap(), Path::new(DEFAULT_LEDGER_PATH));
    }

    #[test]
    fn metrics_flatten_into_record() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(crate::metrics::CounterSnapshot {
            name: "jobs_completed".into(),
            value: 7,
        });
        let mut record = LedgerRecord::new("sweep");
        record.metrics(&snap);
        let line = record.to_line();
        let kv = parse_object(&line).unwrap();
        assert!(kv
            .iter()
            .any(|(k, v)| k == "counter.jobs_completed" && v.as_num() == Some(7.0)));
    }
}
