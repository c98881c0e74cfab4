//! A blocking line-protocol client for the daemon.
//!
//! The client owns one socket and demultiplexes the server's frames:
//! admission answers (`accepted` / `error`), verbatim job report lines,
//! streamed `progress` frames and sweep `done` markers can interleave on
//! the wire (workers write completions concurrently with the handler's
//! inline replies), so every receive path funnels through
//! [`next_reply`](Client::next_reply) and out-of-turn frames are held in
//! a backlog instead of dropped.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use placer_jobs::JobSpec;
use placer_obs::json::{field, parse_object, Json};

use crate::protocol::{
    bare_frame, hello_frame, is_report_line, submit_frame, sweep_frame, write_frame, ErrorCode,
    ProtocolError, SweepRequest,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with a structured `error` frame.
    Protocol(ProtocolError),
    /// The server closed the connection mid-exchange.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "server error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One server → client line, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Session opener's answer; carries the server's SIMD backend name.
    Welcome(String),
    /// A job was admitted with `queued` entries ahead of it.
    Accepted {
        /// The admitted job id.
        id: String,
        /// Pending entries with earlier priority at admission time.
        queued: usize,
    },
    /// A verbatim [`JobReport`](placer_jobs::JobReport) line — byte-equal
    /// to what the offline `jobs` binary writes for the same spec.
    Report(String),
    /// A streamed progress frame (`{"type": "progress", ...}`).
    Progress(String),
    /// A sweep finished; `reports` report lines preceded this frame.
    Done {
        /// The sweep request id.
        id: String,
        /// Number of report lines the sweep produced.
        reports: usize,
    },
    /// A structured error frame.
    Error(ProtocolError),
    /// A stats frame, raw (flat JSON line).
    Stats(String),
    /// Liveness answer.
    Pong,
    /// Connection (or server) is closing.
    Bye,
}

/// Pulls the `id` out of a verbatim report line (for re-ordering a
/// concurrent batch back into submission order).
pub fn report_id(line: &str) -> Option<String> {
    let pairs = parse_object(line).ok()?;
    field(&pairs, "id")?.as_str().map(str::to_string)
}

fn classify(line: &str) -> Reply {
    let Ok(pairs) = parse_object(line) else {
        // Not flat JSON: surface it as an opaque error so callers see
        // what the server actually sent instead of hanging.
        return Reply::Error(ProtocolError::new(ErrorCode::BadFrame, line));
    };
    if is_report_line(&pairs) {
        return Reply::Report(line.to_string());
    }
    let text = |key| field(&pairs, key).and_then(Json::as_str);
    let count = |key| {
        field(&pairs, key)
            .and_then(Json::as_num)
            .map_or(0, |n| n as usize)
    };
    match text("type") {
        Some("welcome") => Reply::Welcome(text("simd").unwrap_or_default().to_string()),
        Some("accepted") => Reply::Accepted {
            id: text("id").unwrap_or_default().to_string(),
            queued: count("queued"),
        },
        Some("progress") => Reply::Progress(line.to_string()),
        Some("done") => Reply::Done {
            id: text("id").unwrap_or_default().to_string(),
            reports: count("reports"),
        },
        Some("error") => {
            let code = text("code")
                .and_then(ErrorCode::parse)
                .unwrap_or(ErrorCode::BadFrame);
            let mut e = ProtocolError::new(code, text("message").unwrap_or_default());
            e.id = text("id").map(str::to_string);
            Reply::Error(e)
        }
        Some("stats") => Reply::Stats(line.to_string()),
        Some("pong") => Reply::Pong,
        Some("bye") => Reply::Bye,
        _ => Reply::Error(ProtocolError::new(ErrorCode::UnknownType, line)),
    }
}

/// A connected session with the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    backlog: VecDeque<Reply>,
    /// Progress frames received while waiting for something else; kept
    /// for callers that want the stream after the fact.
    progress: Vec<String>,
}

impl Client {
    /// Connects and completes the `hello` → `welcome` handshake.
    /// `stream: true` asks the server to forward progress frames for this
    /// connection's jobs. An error frame in place of the welcome is
    /// returned here, not deferred.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connect/handshake failure.
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: &str,
        stream: bool,
    ) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            reader,
            writer,
            backlog: VecDeque::new(),
            progress: Vec::new(),
        };
        client.send_line(&hello_frame(tenant, stream))?;
        loop {
            match client.next_reply()? {
                Reply::Welcome(_) => return Ok(client),
                Reply::Error(e) => return Err(ClientError::Protocol(e)),
                other => client.backlog.push_back(other),
            }
        }
    }

    /// Sets (or clears, with `None`) the socket read timeout; with one
    /// set, a quiet wire surfaces as [`ClientError::Io`] instead of
    /// blocking forever.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        write_frame(&mut self.writer, line)?;
        Ok(())
    }

    /// The next server line, classified — from the backlog first, then
    /// the socket. Progress frames are also copied into
    /// [`progress_lines`](Self::progress_lines).
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF, [`ClientError::Io`] on socket
    /// failure.
    pub fn next_reply(&mut self) -> Result<Reply, ClientError> {
        if let Some(reply) = self.backlog.pop_front() {
            return Ok(reply);
        }
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line)? {
                0 => return Err(ClientError::Closed),
                _ => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let reply = classify(trimmed);
                    if let Reply::Progress(p) = &reply {
                        self.progress.push(p.clone());
                    }
                    return Ok(reply);
                }
            }
        }
    }

    /// Submits one job; returns how many entries were queued ahead of it.
    /// Report/progress/done frames that arrive while waiting for the
    /// admission answer are backlogged, not lost.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] carrying the server's structured
    /// rejection (queue full, quota, draining, duplicate id, bad spec).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<usize, ClientError> {
        self.send_line(&submit_frame(spec))?;
        self.wait_admission(&spec.id)
    }

    /// Submits one sweep request (one admission unit).
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn sweep(&mut self, req: &SweepRequest) -> Result<usize, ClientError> {
        self.send_line(&sweep_frame(req))?;
        self.wait_admission(&req.id)
    }

    fn wait_admission(&mut self, id: &str) -> Result<usize, ClientError> {
        let mut held = Vec::new();
        let outcome = loop {
            match self.next_reply()? {
                Reply::Accepted { id: got, queued } if got == id => break Ok(queued),
                Reply::Error(e) if e.id.as_deref() == Some(id) => {
                    break Err(ClientError::Protocol(e))
                }
                other => held.push(other),
            }
        };
        // Preserve arrival order for everything we skipped past.
        for reply in held.into_iter().rev() {
            self.backlog.push_front(reply);
        }
        outcome
    }

    /// Collects `n` verbatim report lines (completions of previously
    /// accepted jobs), in arrival order. Progress and `done` frames seen
    /// along the way are absorbed (progress into
    /// [`progress_lines`](Self::progress_lines)); a structured error
    /// aborts the wait.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] if the server reports an error first,
    /// [`ClientError::Closed`] / [`ClientError::Io`] on transport
    /// failure.
    pub fn collect_reports(&mut self, n: usize) -> Result<Vec<String>, ClientError> {
        let mut reports = Vec::with_capacity(n);
        while reports.len() < n {
            match self.next_reply()? {
                Reply::Report(line) => reports.push(line),
                Reply::Error(e) => return Err(ClientError::Protocol(e)),
                _ => {}
            }
        }
        Ok(reports)
    }

    /// Requests and returns the raw stats frame.
    ///
    /// # Errors
    ///
    /// Transport failures, or a structured error frame.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.send_line(&bare_frame("stats"))?;
        let mut held = Vec::new();
        let outcome = loop {
            match self.next_reply()? {
                Reply::Stats(line) => break Ok(line),
                Reply::Error(e) => break Err(ClientError::Protocol(e)),
                other => held.push(other),
            }
        };
        for reply in held.into_iter().rev() {
            self.backlog.push_front(reply);
        }
        outcome
    }

    /// Asks the server to drain and stop; returns once the server's
    /// `bye` confirms the queue emptied.
    ///
    /// # Errors
    ///
    /// Transport failures while waiting for the confirmation.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send_line(&bare_frame("shutdown"))?;
        loop {
            match self.next_reply() {
                Ok(Reply::Bye) | Err(ClientError::Closed) => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Closes the session politely (`bye` exchange). Dropping the client
    /// without calling this is also fine — the server treats EOF as bye.
    ///
    /// # Errors
    ///
    /// Transport failures during the exchange.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send_line(&bare_frame("bye"))?;
        loop {
            match self.next_reply() {
                Ok(Reply::Bye) | Err(ClientError::Closed) => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Every progress frame received so far, in arrival order.
    pub fn progress_lines(&self) -> &[String] {
        &self.progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::accepted_frame;

    #[test]
    fn classification_covers_every_frame_kind() {
        assert!(matches!(
            classify(&accepted_frame("j1", 2)),
            Reply::Accepted { id, queued: 2 } if id == "j1"
        ));
        assert!(matches!(
            classify(r#"{"type": "progress", "v": 1, "job": "j1"}"#),
            Reply::Progress(_)
        ));
        assert!(matches!(
            classify(r#"{"v": 1, "id": "j1", "status": "complete"}"#),
            Reply::Report(_)
        ));
        assert!(matches!(
            classify(r#"{"type": "done", "v": 1, "id": "s1", "reports": 4}"#),
            Reply::Done { reports: 4, .. }
        ));
        let Reply::Error(e) = classify(
            r#"{"type": "error", "v": 1, "code": "queue_full", "id": "j9", "message": "full"}"#,
        ) else {
            panic!("expected error reply");
        };
        assert_eq!(e.code, ErrorCode::QueueFull);
        assert_eq!(e.id.as_deref(), Some("j9"));
        assert!(matches!(
            classify(r#"{"type": "pong", "v": 1}"#),
            Reply::Pong
        ));
        assert!(matches!(classify("garbage"), Reply::Error(_)));
    }

    #[test]
    fn report_ids_extract() {
        assert_eq!(
            report_id(r#"{"v": 1, "id": "a7", "status": "complete"}"#).as_deref(),
            Some("a7")
        );
        assert_eq!(report_id("nope"), None);
    }
}
