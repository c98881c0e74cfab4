//! The JSONL job protocol: [`JobSpec`] in, [`JobReport`] out.
//!
//! One JSON object per line. Input:
//!
//! ```text
//! {"id": "ota-fast", "circuit": "cc_ota", "placer": "eplace-a", "deadline_ms": 2000}
//! {"id": "ota-sa", "circuit": "cc_ota", "placer": "sa", "seed": 11, "max_retries": 2}
//! ```
//!
//! Output (one report per job, same order):
//!
//! ```text
//! {"id": "ota-fast", "circuit": "cc_ota", "placer": "eplace-a", "status": "exhausted", ...}
//! ```

use placer_obs::json::{escape, number, parse_object, Json};
use std::fmt;
use std::fmt::Write as _;

/// Version of the JSONL wire protocol this build speaks.
///
/// Every line this crate emits — specs, reports, and the daemon frames
/// built on them — carries a leading `"v"` field with this value. Parsers
/// accept lines without a `v` field and treat them as version 1 (the
/// protocol was identical before it was versioned), and reject *future*
/// versions with a structured [`SpecError`] instead of tripping over an
/// unknown key.
pub const PROTOCOL_VERSION: u64 = 1;

/// Validates a `v` field against [`PROTOCOL_VERSION`].
///
/// Shared by the spec parser and the daemon's frame parser so both sides
/// reject future versions with the same message shape.
pub fn check_protocol_version(line: usize, value: &Json) -> Result<u64, SpecError> {
    let v = as_u64(line, "v", value)?;
    if v == 0 || v > PROTOCOL_VERSION {
        return Err(spec_err(
            line,
            format!("unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"),
        ));
    }
    Ok(v)
}

/// Error produced when reading a JSONL job file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Which configuration profile a job runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// The paper's Table II settings (each placer's `Default` config).
    #[default]
    Default,
    /// Reduced iteration counts for smoke tests and CI.
    Small,
}

impl Profile {
    /// The wire name (`"default"` / `"small"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Default => "default",
            Profile::Small => "small",
        }
    }
}

/// One placement job: which circuit, which placer, and its budget/retry
/// policy. Parsed from a JSONL line by [`parse_jobs`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job identifier; names the checkpoint/placement files.
    pub id: String,
    /// Testcase name resolved via `analog_netlist::testcases`.
    pub circuit: String,
    /// Placer name: `eplace-a`, `eplace-ap`, `sa`, or `xu19`.
    pub placer: String,
    /// Configuration profile.
    pub profile: Profile,
    /// Wall-clock deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<f64>,
    /// Deterministic budget: at most this many budget checks pass.
    pub step_limit: Option<u64>,
    /// Seed override (`None` = the placer's default seed).
    pub seed: Option<u64>,
    /// How many times to retry a *failed* run with a rotated seed.
    pub max_retries: u32,
    /// Deterministic cancellation trigger for tests/CI: cancel the run
    /// after this many budget checks.
    pub cancel_after_checks: Option<u64>,
    /// Path of an `.eco` delta deck: the job re-places incrementally via
    /// [`Placer::replace`](eplace::Placer::replace) instead of placing
    /// from scratch. Requires `warm_start`.
    pub eco: Option<String>,
    /// Path of the `.place` file the ECO fast path warm-starts from
    /// (written by a previous run of the same circuit). Required when
    /// `eco` is set, ignored otherwise.
    pub warm_start: Option<String>,
}

impl JobSpec {
    /// A job with no deadline, no retries and default profile/seed.
    pub fn new(
        id: impl Into<String>,
        circuit: impl Into<String>,
        placer: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            circuit: circuit.into(),
            placer: placer.into(),
            profile: Profile::Default,
            deadline_ms: None,
            step_limit: None,
            seed: None,
            max_retries: 0,
            cancel_after_checks: None,
            eco: None,
            warm_start: None,
        }
    }

    /// Serializes the spec as one JSONL line (inverse of [`parse_jobs`]).
    pub fn to_line(&self) -> String {
        let mut out = format!(
            r#"{{"v": {PROTOCOL_VERSION}, "id": "{}", "circuit": "{}", "placer": "{}""#,
            escape(&self.id),
            escape(&self.circuit),
            escape(&self.placer)
        );
        if self.profile != Profile::Default {
            let _ = write!(out, r#", "profile": "{}""#, self.profile.as_str());
        }
        if let Some(d) = self.deadline_ms {
            let _ = write!(out, r#", "deadline_ms": {}"#, number(d));
        }
        if let Some(s) = self.step_limit {
            let _ = write!(out, r#", "step_limit": {s}"#);
        }
        if let Some(s) = self.seed {
            let _ = write!(out, r#", "seed": {s}"#);
        }
        if self.max_retries != 0 {
            let _ = write!(out, r#", "max_retries": {}"#, self.max_retries);
        }
        if let Some(n) = self.cancel_after_checks {
            let _ = write!(out, r#", "cancel_after_checks": {n}"#);
        }
        if let Some(p) = &self.eco {
            let _ = write!(out, r#", "eco": "{}""#, escape(p));
        }
        if let Some(p) = &self.warm_start {
            let _ = write!(out, r#", "warm_start": "{}""#, escape(p));
        }
        out.push('}');
        out
    }
}

fn spec_err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

fn as_str(line: usize, key: &str, v: &Json) -> Result<String, SpecError> {
    match v {
        Json::Str(s) => Ok(s.clone()),
        other => Err(spec_err(
            line,
            format!("`{key}` must be a string, got {other:?}"),
        )),
    }
}

fn as_u64(line: usize, key: &str, v: &Json) -> Result<u64, SpecError> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Ok(*n as u64),
        other => Err(spec_err(
            line,
            format!("`{key}` must be a non-negative integer, got {other:?}"),
        )),
    }
}

/// Parses a JSONL job file. Blank lines and `#` comment lines are skipped.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the line for malformed JSON, unknown or
/// repeated keys, missing required fields, or invalid values.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, SpecError> {
    let mut jobs = Vec::new();
    let mut seen_ids = std::collections::HashSet::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let pairs = parse_object(line).map_err(|m| spec_err(lineno, m))?;
        let spec = spec_from_pairs(lineno, &pairs)?;
        if !seen_ids.insert(spec.id.clone()) {
            return Err(spec_err(lineno, format!("duplicate job id `{}`", spec.id)));
        }
        jobs.push(spec);
    }
    Ok(jobs)
}

/// Builds one [`JobSpec`] from an already-parsed flat JSON object.
///
/// This is the per-line half of [`parse_jobs`] (which adds the
/// cross-line duplicate-id check); the daemon's `submit` frames reuse it
/// after stripping their frame-level keys.
pub fn spec_from_pairs(lineno: usize, pairs: &[(String, Json)]) -> Result<JobSpec, SpecError> {
    let mut id = None;
    let mut circuit = None;
    let mut placer = None;
    let mut spec = JobSpec::new("", "", "");
    for (key, value) in pairs {
        match key.as_str() {
            "v" => {
                check_protocol_version(lineno, value)?;
            }
            "id" => id = Some(as_str(lineno, key, value)?),
            "circuit" => circuit = Some(as_str(lineno, key, value)?),
            "placer" => placer = Some(as_str(lineno, key, value)?),
            "profile" => {
                spec.profile = match as_str(lineno, key, value)?.as_str() {
                    "default" => Profile::Default,
                    "small" => Profile::Small,
                    other => return Err(spec_err(lineno, format!("unknown profile `{other}`"))),
                }
            }
            "deadline_ms" => match value {
                Json::Num(n) if n.is_finite() && *n > 0.0 => spec.deadline_ms = Some(*n),
                other => {
                    return Err(spec_err(
                        lineno,
                        format!("`deadline_ms` must be a positive number, got {other:?}"),
                    ))
                }
            },
            "step_limit" => spec.step_limit = Some(as_u64(lineno, key, value)?),
            "seed" => spec.seed = Some(as_u64(lineno, key, value)?),
            "max_retries" => {
                let n = as_u64(lineno, key, value)?;
                spec.max_retries = u32::try_from(n)
                    .map_err(|_| spec_err(lineno, "`max_retries` is out of range"))?;
            }
            "cancel_after_checks" => spec.cancel_after_checks = Some(as_u64(lineno, key, value)?),
            "eco" => spec.eco = Some(as_str(lineno, key, value)?),
            "warm_start" => spec.warm_start = Some(as_str(lineno, key, value)?),
            other => return Err(spec_err(lineno, format!("unknown key `{other}`"))),
        }
    }
    spec.id = id.ok_or_else(|| spec_err(lineno, "missing required key `id`"))?;
    spec.circuit = circuit.ok_or_else(|| spec_err(lineno, "missing required key `circuit`"))?;
    spec.placer = placer.ok_or_else(|| spec_err(lineno, "missing required key `placer`"))?;
    if spec.id.is_empty()
        || !spec
            .id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
    {
        return Err(spec_err(
            lineno,
            format!("`id` `{}` must be non-empty [A-Za-z0-9._-]", spec.id),
        ));
    }
    if spec.eco.is_some() && spec.warm_start.is_none() {
        return Err(spec_err(
            lineno,
            "`eco` requires `warm_start` (the .place file to warm-start from)",
        ));
    }
    if spec.warm_start.is_some() && spec.eco.is_none() {
        return Err(spec_err(
            lineno,
            "`warm_start` is only meaningful with `eco`",
        ));
    }
    Ok(spec)
}

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The placer ran to natural convergence.
    Complete,
    /// The budget expired; the solution is legal best-so-far.
    Exhausted,
    /// Cancelled; a checkpoint was captured for resume.
    Cancelled,
    /// Killed by a portfolio race: another placer dominated its
    /// best-so-far figure of merit, so the run was cancelled for good.
    Killed,
    /// Every attempt returned an error.
    Failed,
}

impl JobStatus {
    /// The wire name (`"complete"` / `"exhausted"` / ...).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Complete => "complete",
            JobStatus::Exhausted => "exhausted",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Killed => "killed",
            JobStatus::Failed => "failed",
        }
    }

    /// Inverse of [`as_str`](Self::as_str): `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "complete" => JobStatus::Complete,
            "exhausted" => JobStatus::Exhausted,
            "cancelled" => JobStatus::Cancelled,
            "killed" => JobStatus::Killed,
            "failed" => JobStatus::Failed,
            _ => return None,
        })
    }
}

/// Zeroes the timing fields (`wall_ms`, `deadline_slack_ms`) of every
/// report line so two runs of the same specs can be compared
/// byte-for-byte: all other report fields are deterministic, wall-clock
/// measurements are not. Used by the sweep binary's `--stable` mode, the
/// daemon integration tests, and the CI byte-identity checks.
pub fn normalize_timing(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        let mut rest = line;
        loop {
            let wall = rest.find("\"wall_ms\": ");
            let slack = rest.find("\"deadline_slack_ms\": ");
            let (pos, keylen) = match (wall, slack) {
                (Some(w), Some(s)) if w < s => (w, "\"wall_ms\": ".len()),
                (_, Some(s)) => (s, "\"deadline_slack_ms\": ".len()),
                (Some(w), None) => (w, "\"wall_ms\": ".len()),
                (None, None) => break,
            };
            let value_start = pos + keylen;
            out.push_str(&rest[..value_start]);
            out.push('0');
            let tail = &rest[value_start..];
            let value_len = tail.find([',', '}']).unwrap_or(tail.len());
            rest = &tail[value_len..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// What one job produced; serialized as one JSONL line by
/// [`JobReport::to_line`].
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The spec's job id.
    pub id: String,
    /// The spec's circuit name.
    pub circuit: String,
    /// The spec's placer name.
    pub placer: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Seed the final attempt ran with.
    pub seed: u64,
    /// SIMD backend the placer kernels dispatched to (`scalar` / `avx2` /
    /// `avx512`, after any `PLACER_SIMD` override).
    pub simd: &'static str,
    /// Failed attempts that were retried before the final one.
    pub retries: u32,
    /// Wall-clock time of the final attempt (ms).
    pub wall_ms: f64,
    /// `deadline_ms - wall_ms` when the spec had a deadline.
    pub deadline_slack_ms: Option<f64>,
    /// HPWL of the solution (complete/exhausted only).
    pub hpwl: Option<f64>,
    /// Bounding-box area of the solution (complete/exhausted only).
    pub area: Option<f64>,
    /// Whether the solution passed the legality check.
    pub legal: Option<bool>,
    /// Optimizer iterations of the solution.
    pub iterations: Option<u64>,
    /// Racing figure of merit (`hpwl * area`), reported by sweep runs
    /// only; plain job batches leave it unset so their lines are
    /// byte-identical to the pre-sweep protocol.
    pub fom: Option<f64>,
    /// Path of the checkpoint file written on cancellation.
    pub checkpoint: Option<String>,
    /// How an ECO job was answered: `"fast"` (incremental re-place) or
    /// `"fallback"` (delta too large, cold re-place). Unset for plain
    /// jobs, so their lines are byte-identical to the pre-ECO protocol.
    pub eco: Option<&'static str>,
    /// Fraction of devices the ECO delta dirtied (ECO jobs only).
    pub dirty_fraction: Option<f64>,
    /// Error message of the last attempt (failed only).
    pub error: Option<String>,
}

impl JobReport {
    /// Serializes the report as one JSONL line.
    pub fn to_line(&self) -> String {
        let mut out = format!(
            r#"{{"v": {PROTOCOL_VERSION}, "id": "{}", "circuit": "{}", "placer": "{}", "status": "{}", "seed": {}, "simd": "{}", "retries": {}, "wall_ms": {}"#,
            escape(&self.id),
            escape(&self.circuit),
            escape(&self.placer),
            self.status.as_str(),
            self.seed,
            self.simd,
            self.retries,
            number(self.wall_ms),
        );
        if let Some(s) = self.deadline_slack_ms {
            let _ = write!(out, r#", "deadline_slack_ms": {}"#, number(s));
        }
        if let Some(h) = self.hpwl {
            let _ = write!(out, r#", "hpwl": {}"#, number(h));
        }
        if let Some(a) = self.area {
            let _ = write!(out, r#", "area": {}"#, number(a));
        }
        if let Some(l) = self.legal {
            let _ = write!(out, r#", "legal": {l}"#);
        }
        if let Some(i) = self.iterations {
            let _ = write!(out, r#", "iterations": {i}"#);
        }
        if let Some(f) = self.fom {
            let _ = write!(out, r#", "fom": {}"#, number(f));
        }
        if let Some(c) = &self.checkpoint {
            let _ = write!(out, r#", "checkpoint": "{}""#, escape(c));
        }
        if let Some(m) = self.eco {
            let _ = write!(out, r#", "eco": "{m}""#);
        }
        if let Some(d) = self.dirty_fraction {
            let _ = write!(out, r#", "dirty_fraction": {}"#, number(d));
        }
        if let Some(e) = &self.error {
            let _ = write!(out, r#", "error": "{}""#, escape(e));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_roundtrip_through_jsonl() {
        let mut spec = JobSpec::new("ota-1", "cc_ota", "sa");
        spec.profile = Profile::Small;
        spec.deadline_ms = Some(2000.0);
        spec.seed = Some(11);
        spec.max_retries = 2;
        spec.eco = Some("decks/edit.eco".into());
        spec.warm_start = Some("out/ota-1.place".into());
        let text = format!("# jobs\n\n{}\n", spec.to_line());
        let parsed = parse_jobs(&text).unwrap();
        assert_eq!(parsed, vec![spec]);
    }

    #[test]
    fn versioned_and_legacy_lines_both_parse() {
        // Emitted lines carry the current version up front.
        let spec = JobSpec::new("a", "adder", "sa");
        assert!(spec
            .to_line()
            .starts_with(&format!("{{\"v\": {PROTOCOL_VERSION}, ")));
        // Legacy unversioned lines default to version 1.
        let legacy = parse_jobs("{\"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\"}");
        assert_eq!(legacy.unwrap(), vec![spec.clone()]);
        // An explicit current version parses identically.
        let versioned =
            parse_jobs("{\"v\": 1, \"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\"}");
        assert_eq!(versioned.unwrap(), vec![spec]);
    }

    #[test]
    fn future_versions_are_rejected_structurally() {
        let e =
            parse_jobs("{\"v\": 99, \"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\"}")
                .unwrap_err();
        assert_eq!(e.line, 1);
        assert!(
            e.message.contains("unsupported protocol version 99"),
            "{}",
            e.message
        );
        let e = parse_jobs("{\"v\": 0, \"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\"}")
            .unwrap_err();
        assert!(e.message.contains("unsupported"), "{}", e.message);
    }

    #[test]
    fn status_names_roundtrip() {
        for s in [
            JobStatus::Complete,
            JobStatus::Exhausted,
            JobStatus::Cancelled,
            JobStatus::Killed,
            JobStatus::Failed,
        ] {
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobStatus::parse("nope"), None);
    }

    #[test]
    fn normalize_timing_zeroes_both_clock_fields() {
        let line =
            r#"{"v": 1, "id": "a", "wall_ms": 12.75, "deadline_slack_ms": -3.5, "hpwl": 42}"#;
        assert_eq!(
            normalize_timing(line),
            "{\"v\": 1, \"id\": \"a\", \"wall_ms\": 0, \"deadline_slack_ms\": 0, \"hpwl\": 42}\n"
        );
    }

    #[test]
    fn eco_requires_a_warm_start_and_vice_versa() {
        let e = parse_jobs(
            "{\"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\", \"eco\": \"d.eco\"}",
        )
        .unwrap_err();
        assert!(e.message.contains("warm_start"), "{}", e.message);

        let e = parse_jobs(
            "{\"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\", \"warm_start\": \"a.place\"}",
        )
        .unwrap_err();
        assert!(e.message.contains("eco"), "{}", e.message);
    }

    #[test]
    fn rejects_bad_specs_with_line_numbers() {
        let e = parse_jobs("{\"id\": \"a\"}").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("circuit"), "{}", e.message);

        let e = parse_jobs(
            "\n{\"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\", \"nope\": 1}",
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown key"), "{}", e.message);

        let e = parse_jobs("{\"id\": \"a/b\", \"circuit\": \"adder\", \"placer\": \"sa\"}")
            .unwrap_err();
        assert!(e.message.contains("A-Za-z0-9"), "{}", e.message);

        let two = "{\"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\"}\n";
        let e = parse_jobs(&format!("{two}{two}")).unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);

        let e = parse_jobs(
            "{\"id\": \"a\", \"circuit\": \"adder\", \"placer\": \"sa\", \"deadline_ms\": -3}",
        )
        .unwrap_err();
        assert!(e.message.contains("deadline_ms"), "{}", e.message);
    }

    #[test]
    fn reports_serialize_to_parseable_json() {
        let r = JobReport {
            id: "j1".into(),
            circuit: "adder".into(),
            placer: "xu19".into(),
            status: JobStatus::Exhausted,
            seed: 1,
            simd: "scalar",
            retries: 0,
            wall_ms: 12.5,
            deadline_slack_ms: Some(-2.5),
            hpwl: Some(42.0),
            area: Some(10.0),
            legal: Some(true),
            iterations: Some(120),
            fom: None,
            checkpoint: None,
            eco: None,
            dirty_fraction: None,
            error: None,
        };
        let kv = placer_obs::json::parse_object(&r.to_line()).unwrap();
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
        assert_eq!(get("status"), Some(Json::Str("exhausted".into())));
        assert_eq!(get("deadline_slack_ms"), Some(Json::Num(-2.5)));
        assert_eq!(get("legal"), Some(Json::Bool(true)));
        assert_eq!(get("checkpoint"), None);
    }
}
