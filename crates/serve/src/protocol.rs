//! The daemon's line-framed wire protocol.
//!
//! Everything on the socket is one flat JSON object per line, in both
//! directions — the same JSONL dialect as job files, parsed by the same
//! `placer_obs::json` parser. Frames are discriminated by a `"type"`
//! key and versioned by the `"v"` field shared with
//! [`placer_jobs::PROTOCOL_VERSION`]; unversioned frames are accepted as
//! version 1 and future versions are answered with a structured
//! [`ErrorCode::UnsupportedVersion`] frame instead of a parse panic.
//!
//! Client → server:
//!
//! | type       | fields                          | meaning |
//! |------------|---------------------------------|---------|
//! | `hello`    | `tenant`, `stream`              | open a session (optionally with progress streaming) |
//! | `submit`   | the [`JobSpec`] fields          | enqueue one placement (or ECO) job |
//! | `sweep`    | `id`, `circuit`, `placers`, `seeds`, `race` | enqueue a batched sweep as one admission unit |
//! | `stats`    |                                 | request a server stats frame |
//! | `ping`     |                                 | liveness check |
//! | `shutdown` |                                 | drain the queue, then stop the server |
//! | `bye`      |                                 | close this connection |
//!
//! Server → client: `welcome`, `accepted`, `error`, `stats`, `pong`,
//! `done`, `bye` frames, `{"type":"progress",...}` frames re-emitted from
//! the `placer-obs` observer tap — and, crucially, **job report lines
//! verbatim**: a finished job is answered with the exact
//! [`JobReport::to_line`](placer_jobs::JobReport::to_line) bytes the
//! offline `jobs` binary would have written, so daemon and batch output
//! compare byte-for-byte. Report lines are the only unframed lines on the
//! wire; clients classify them by the absence of a `"type"` key.
//!
//! Both ends send every line through `write_frame` on a `TCP_NODELAY`
//! socket, so each frame leaves as soon as it is written.

use std::io::{self, Write};

use placer_jobs::{check_protocol_version, spec_from_pairs, JobSpec, SpecError, PROTOCOL_VERSION};
use placer_obs::json::{escape, field, parse_object, Json};

/// Structured reason carried by an `error` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame's `v` is newer than this build speaks.
    UnsupportedVersion,
    /// The line was not a valid flat JSON object.
    BadFrame,
    /// The `type` value names no known frame.
    UnknownType,
    /// The submit frame's job spec failed validation.
    BadSpec,
    /// The admission queue is at capacity.
    QueueFull,
    /// The tenant already has `quota` jobs queued or running.
    QuotaExceeded,
    /// The server is draining; no new work is admitted.
    Draining,
    /// A duplicate job id is still in flight on this connection.
    DuplicateId,
}

impl ErrorCode {
    /// The wire name (`"queue_full"`, `"quota_exceeded"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::BadSpec => "bad_spec",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Draining => "draining",
            ErrorCode::DuplicateId => "duplicate_id",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "bad_frame" => ErrorCode::BadFrame,
            "unknown_type" => ErrorCode::UnknownType,
            "bad_spec" => ErrorCode::BadSpec,
            "queue_full" => ErrorCode::QueueFull,
            "quota_exceeded" => ErrorCode::QuotaExceeded,
            "draining" => ErrorCode::Draining,
            "duplicate_id" => ErrorCode::DuplicateId,
            _ => return None,
        })
    }
}

/// A structured protocol failure: what to put in an `error` frame (or
/// what an `error` frame said).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// Machine-readable reason.
    pub code: ErrorCode,
    /// The job id the error refers to, when there is one.
    pub id: Option<String>,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error with no job id.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            id: None,
            message: message.into(),
        }
    }

    /// Builds an error about a specific job id.
    pub fn for_job(code: ErrorCode, id: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            id: Some(id.into()),
            message: message.into(),
        }
    }

    /// Renders the `error` frame line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!(
            r#"{{"type": "error", "v": {PROTOCOL_VERSION}, "code": "{}""#,
            self.code.as_str()
        );
        if let Some(id) = &self.id {
            out.push_str(&format!(r#", "id": "{}""#, escape(id)));
        }
        out.push_str(&format!(r#", "message": "{}"}}"#, escape(&self.message)));
        out
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.id {
            Some(id) => write!(f, "{} ({}): {}", self.code.as_str(), id, self.message),
            None => write!(f, "{}: {}", self.code.as_str(), self.message),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A sweep request: one admission unit that expands into a variant grid
/// server-side (through `placer_sweep::SweepEngine`, sharing the daemon's
/// artifact cache).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Request id (used in the `done` frame and the ledger).
    pub id: String,
    /// Circuit name.
    pub circuit: String,
    /// Comma-separated placer portfolio (empty = sweep default).
    pub placers: Vec<String>,
    /// Seeds to expand.
    pub seeds: Vec<u64>,
    /// Whether to race the portfolio (kill dominated variants).
    pub race: bool,
}

/// One parsed client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session opener.
    Hello {
        /// Tenant name for quota accounting (`"anon"` when omitted).
        tenant: String,
        /// Whether to stream progress frames for this connection's jobs.
        stream: bool,
    },
    /// One job submission.
    Submit(Box<JobSpec>),
    /// One sweep submission.
    Sweep(SweepRequest),
    /// Stats request.
    Stats,
    /// Liveness check.
    Ping,
    /// Drain the queue, then stop the server.
    Shutdown,
    /// Close this connection.
    Bye,
}

fn bad_frame(e: SpecError) -> ProtocolError {
    let code = if e.message.contains("unsupported protocol version") {
        ErrorCode::UnsupportedVersion
    } else {
        ErrorCode::BadSpec
    };
    ProtocolError::new(code, e.message)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] ready to ship back as an `error` frame:
/// malformed JSON ([`ErrorCode::BadFrame`]), a future protocol version
/// ([`ErrorCode::UnsupportedVersion`]), an unknown frame type
/// ([`ErrorCode::UnknownType`]), or an invalid job spec
/// ([`ErrorCode::BadSpec`]).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let pairs = parse_object(line).map_err(|m| ProtocolError::new(ErrorCode::BadFrame, m))?;
    let text = |key| {
        field(&pairs, key)
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let flag = |key| field(&pairs, key).and_then(Json::as_bool).unwrap_or(false);
    if let Some(v) = field(&pairs, "v") {
        check_protocol_version(0, v)
            .map_err(|e| ProtocolError::new(ErrorCode::UnsupportedVersion, e.message))?;
    }
    let Some(kind) = text("type") else {
        return Err(ProtocolError::new(
            ErrorCode::BadFrame,
            "missing `type` key",
        ));
    };
    match kind.as_str() {
        "hello" => Ok(Request::Hello {
            tenant: text("tenant").unwrap_or_else(|| "anon".into()),
            stream: flag("stream"),
        }),
        "submit" => {
            let spec_pairs: Vec<(String, Json)> =
                pairs.iter().filter(|(k, _)| k != "type").cloned().collect();
            let spec = spec_from_pairs(0, &spec_pairs).map_err(bad_frame)?;
            Ok(Request::Submit(Box::new(spec)))
        }
        "sweep" => {
            let id = text("id").unwrap_or_else(|| "sweep".into());
            let circuit = text("circuit").ok_or_else(|| {
                ProtocolError::for_job(ErrorCode::BadSpec, &id, "sweep needs a `circuit`")
            })?;
            let placers = text("placers")
                .map(|s| {
                    s.split(',')
                        .map(|p| p.trim().to_string())
                        .filter(|p| !p.is_empty())
                        .collect()
                })
                .unwrap_or_default();
            let seeds = match text("seeds") {
                Some(s) => {
                    let mut seeds = Vec::new();
                    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                        let seed = part.parse::<u64>().map_err(|_| {
                            ProtocolError::for_job(
                                ErrorCode::BadSpec,
                                &id,
                                format!("bad seed `{part}`"),
                            )
                        })?;
                        seeds.push(seed);
                    }
                    seeds
                }
                None => Vec::new(),
            };
            Ok(Request::Sweep(SweepRequest {
                id,
                circuit,
                placers,
                seeds,
                race: flag("race"),
            }))
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "bye" => Ok(Request::Bye),
        other => Err(ProtocolError::new(
            ErrorCode::UnknownType,
            format!("unknown frame type `{other}`"),
        )),
    }
}

/// Renders a `hello` frame.
pub fn hello_frame(tenant: &str, stream: bool) -> String {
    format!(
        r#"{{"type": "hello", "v": {PROTOCOL_VERSION}, "tenant": "{}", "stream": {stream}}}"#,
        escape(tenant)
    )
}

/// Renders the server's `welcome` frame.
pub fn welcome_frame(simd: &str) -> String {
    format!(
        r#"{{"type": "welcome", "v": {PROTOCOL_VERSION}, "server": "placer-serve", "simd": "{}"}}"#,
        escape(simd)
    )
}

/// Renders an `accepted` frame: the job was admitted with `queued` jobs
/// ahead of it (0 = it can start immediately).
pub fn accepted_frame(id: &str, queued: usize) -> String {
    format!(
        r#"{{"type": "accepted", "v": {PROTOCOL_VERSION}, "id": "{}", "queued": {queued}}}"#,
        escape(id)
    )
}

/// Renders a sweep's terminal `done` frame.
pub fn done_frame(id: &str, reports: usize) -> String {
    format!(
        r#"{{"type": "done", "v": {PROTOCOL_VERSION}, "id": "{}", "reports": {reports}}}"#,
        escape(id)
    )
}

/// Renders a `submit` frame from a spec: the spec line with the frame
/// type spliced in after the version field.
pub fn submit_frame(spec: &JobSpec) -> String {
    let line = spec.to_line();
    let body = line
        .strip_prefix(&format!("{{\"v\": {PROTOCOL_VERSION}, "))
        .unwrap_or(&line[1..]);
    format!(r#"{{"type": "submit", "v": {PROTOCOL_VERSION}, {body}"#)
}

/// Renders a sweep request frame.
pub fn sweep_frame(req: &SweepRequest) -> String {
    let mut out = format!(
        r#"{{"type": "sweep", "v": {PROTOCOL_VERSION}, "id": "{}", "circuit": "{}""#,
        escape(&req.id),
        escape(&req.circuit)
    );
    if !req.placers.is_empty() {
        out.push_str(&format!(
            r#", "placers": "{}""#,
            escape(&req.placers.join(","))
        ));
    }
    if !req.seeds.is_empty() {
        let seeds: Vec<String> = req.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!(r#", "seeds": "{}""#, escape(&seeds.join(","))));
    }
    if req.race {
        out.push_str(r#", "race": true"#);
    }
    out.push('}');
    out
}

/// Renders a bare typed frame (`ping` / `pong` / `stats` / `shutdown` /
/// `bye`).
pub fn bare_frame(kind: &str) -> String {
    format!(r#"{{"type": "{kind}", "v": {PROTOCOL_VERSION}}}"#)
}

/// Writes one frame: `line` and its terminating `\n` in a single
/// `write_all`, then flushes. A frame split over two writes (line, then
/// newline) lets Nagle's algorithm hold the second part until the peer's
/// delayed ACK, about 40 ms per frame.
///
/// # Errors
///
/// Whatever the writer returns.
pub(crate) fn write_frame<W: Write>(w: &mut W, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// True when an incoming line is a job report rather than a typed frame:
/// report lines pass through the daemon verbatim and are the only lines
/// without a `type` key.
pub fn is_report_line(pairs: &[(String, Json)]) -> bool {
    !pairs.iter().any(|(k, _)| k == "type")
        && pairs.iter().any(|(k, _)| k == "status")
        && pairs.iter().any(|(k, _)| k == "id")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_frames_roundtrip_the_spec() {
        let mut spec = JobSpec::new("j1", "cc_ota", "eplace-a");
        spec.deadline_ms = Some(1500.0);
        spec.seed = Some(3);
        let frame = submit_frame(&spec);
        match parse_request(&frame).unwrap() {
            Request::Submit(parsed) => assert_eq!(*parsed, spec),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn legacy_unversioned_submit_parses() {
        let line = r#"{"type": "submit", "id": "a", "circuit": "adder", "placer": "sa"}"#;
        assert!(matches!(
            parse_request(line).unwrap(),
            Request::Submit(spec) if spec.id == "a"
        ));
    }

    #[test]
    fn future_version_is_a_structured_error_not_a_panic() {
        let line = r#"{"type": "submit", "v": 2, "id": "a", "circuit": "adder", "placer": "sa"}"#;
        let e = parse_request(line).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnsupportedVersion);
        assert!(e.message.contains("unsupported protocol version 2"));
        // And the error frame itself parses as flat JSON.
        let kv = parse_object(&e.to_line()).unwrap();
        assert!(kv
            .iter()
            .any(|(k, v)| k == "code" && *v == Json::Str("unsupported_version".into())));
    }

    #[test]
    fn sweep_frames_roundtrip() {
        let req = SweepRequest {
            id: "s1".into(),
            circuit: "cc_ota".into(),
            placers: vec!["sa".into(), "xu19".into()],
            seeds: vec![1, 2, 3],
            race: true,
        };
        match parse_request(&sweep_frame(&req)).unwrap() {
            Request::Sweep(parsed) => assert_eq!(parsed, req),
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn hello_defaults_and_unknown_types() {
        match parse_request(r#"{"type": "hello"}"#).unwrap() {
            Request::Hello { tenant, stream } => {
                assert_eq!(tenant, "anon");
                assert!(!stream);
            }
            other => panic!("{other:?}"),
        }
        let e = parse_request(r#"{"type": "frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownType);
        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadFrame);
    }

    #[test]
    fn report_lines_are_recognized_by_shape() {
        let report = r#"{"v": 1, "id": "a", "circuit": "adder", "placer": "sa", "status": "complete", "seed": 7, "simd": "scalar", "retries": 0, "wall_ms": 1.5}"#;
        assert!(is_report_line(&parse_object(report).unwrap()));
        let frame = accepted_frame("a", 0);
        assert!(!is_report_line(&parse_object(&frame).unwrap()));
    }

    /// A writer that keeps every `write` call's bytes apart.
    #[derive(Default)]
    struct WriteCalls(Vec<Vec<u8>>);

    impl Write for WriteCalls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        let report = r#"{"v": 1, "id": "a", "circuit": "adder", "placer": "sa", "status": "complete", "seed": 7, "simd": "scalar", "retries": 0, "wall_ms": 1.5}"#;
        let error =
            ProtocolError::for_job(ErrorCode::QueueFull, "j2", "admission queue is at capacity")
                .to_line();
        for line in [report.to_string(), accepted_frame("j1", 0), error] {
            let mut w = WriteCalls::default();
            write_frame(&mut w, &line).unwrap();
            assert_eq!(w.0, vec![format!("{line}\n").into_bytes()], "{line}");
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::UnsupportedVersion,
            ErrorCode::BadFrame,
            ErrorCode::UnknownType,
            ErrorCode::BadSpec,
            ErrorCode::QueueFull,
            ErrorCode::QuotaExceeded,
            ErrorCode::Draining,
            ErrorCode::DuplicateId,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
