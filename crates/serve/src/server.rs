//! The resident placement daemon: TCP front end, worker pool, shared
//! artifact cache, per-connection progress fan-out.
//!
//! Thread model (hand-rolled, no async runtime — consistent with the
//! workspace's vendored-shim policy):
//!
//! * one **accept loop** blocked in `accept`; shutdown sets the stop
//!   flag and wakes it with a connection to its own listener, so no timer
//!   sits on the connect, request or shutdown path;
//! * one **handler thread per connection**, reading request frames and
//!   answering admission results inline; completions arrive on the same
//!   socket from worker threads through a shared locked writer. Every
//!   socket is `TCP_NODELAY` and every frame one write
//!   (`protocol::write_frame`), so a frame leaves as soon as it is
//!   written;
//! * `workers` **worker threads** looping on
//!   [`AdmissionQueue::take`](crate::queue::AdmissionQueue::take), each
//!   running jobs through a [`JobEngine`] clone that shares the
//!   process-wide [`ArtifactCache`] (keyed by netlist content hash, so
//!   repeat circuits skip compilation) and carries the lease's
//!   [`CancelFlag`](eplace::CancelFlag) for preemption;
//! * optionally one **forwarder thread per streaming connection**,
//!   pumping `placer-obs` progress frames for that connection's jobs.
//!
//! Preemption reuses the checkpoint machinery wholesale: the engine runs
//! with `resume: true` and a spool checkpoint directory, so a preempted
//! job writes `<id>.ckpt`, is silently re-queued, and its next lease
//! picks the checkpoint up and finishes bit-identically to an
//! uninterrupted run (the PR-5 contract). The client only ever sees the
//! final report — verbatim `JobReport::to_line` bytes, identical to the
//! offline `jobs` binary.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use eplace::{ArtifactCache, EcoConfig};
use placer_jobs::{JobEngine, JobSpec, JobStatus, Profile};
use placer_obs::ledger::{LedgerRecord, RunLedger};
use placer_obs::progress;
use placer_sweep::{RaceConfig, SweepConfig, SweepEngine};

use crate::protocol::{
    accepted_frame, bare_frame, done_frame, parse_request, welcome_frame, write_frame, ErrorCode,
    ProtocolError, Request, SweepRequest,
};
use crate::queue::{AdmissionQueue, AdmitError, Lease, QueueConfig, QueueStats};

/// Longest request frame a connection may send, newline included. The
/// largest frame the protocol defines is a few hundred bytes. A longer
/// line gets one `bad_frame` error naming this limit and the connection
/// closes, so a peer that never sends `\n` cannot grow its buffer
/// without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads running placements.
    pub workers: usize,
    /// Admission queue capacity (pending entries).
    pub queue_capacity: usize,
    /// Per-tenant queued+running quota.
    pub tenant_quota: usize,
    /// Spool directory: `ckpt/` for preemption checkpoints, `place/` for
    /// result placements (warm-start inputs for ECO requests).
    pub spool: PathBuf,
    /// ECO fast-path dirty threshold override (`None` = default).
    pub eco_threshold: Option<f64>,
    /// Ledger flag as on the CLI (`None` = default path, `"none"` = off).
    pub ledger: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            tenant_quota: 16,
            spool: std::env::temp_dir().join("placer-serve-spool"),
            eco_threshold: None,
            ledger: Some("none".into()),
        }
    }
}

/// Serialized write half of one connection, shared between its handler
/// thread, the workers delivering its reports, and its progress
/// forwarder. The lock keeps concurrent frames whole; [`write_frame`]
/// sends each in one write on the `TCP_NODELAY` socket.
struct Outbound {
    stream: Mutex<TcpStream>,
}

impl Outbound {
    fn send_line(&self, line: &str) {
        let mut w = self.stream.lock().unwrap();
        let _ = write_frame(&mut *w, line);
    }
}

/// What a queue entry does when a worker leases it.
enum Work {
    /// One placement (or ECO) job; the spec is the lease's.
    Place,
    /// A batched sweep, run as one admission unit.
    Sweep(SweepRequest),
}

/// Completion context attached to every queue entry.
struct JobCtx {
    out: Arc<Outbound>,
    work: Work,
}

struct Shared {
    queue: AdmissionQueue<JobCtx>,
    cache: Arc<ArtifactCache>,
    engine: JobEngine,
    ledger: RunLedger,
    /// Set once the daemon stops; the accept loop exits on its next
    /// accept, which [`stop_accepting`] causes by connecting to `wake`.
    stop: AtomicBool,
    wake: SocketAddr,
    connections: AtomicU64,
    requests: AtomicU64,
    /// Job ids admitted but not yet delivered: the spool namespace is
    /// process-wide, so in-flight ids must be unique across connections.
    inflight: Mutex<HashSet<String>>,
}

impl Shared {
    /// Logs one `serve` record; `fill` runs only when the ledger is
    /// enabled, so `--ledger none` costs the daemon nothing per event.
    fn log(&self, fill: impl FnOnce(&mut LedgerRecord)) {
        let _ = self.ledger.record("serve", fill);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Server::shutdown) (graceful) or let a client send a
/// `shutdown` frame.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the spool
    /// directories.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let ckpt_dir = config.spool.join("ckpt");
        let place_dir = config.spool.join("place");
        std::fs::create_dir_all(&ckpt_dir)?;
        std::fs::create_dir_all(&place_dir)?;

        let cache = Arc::new(ArtifactCache::new());
        let mut eco = EcoConfig::default();
        if let Some(t) = config.eco_threshold {
            eco.dirty_threshold = t;
        }
        let engine = JobEngine {
            checkpoint_dir: Some(ckpt_dir),
            placement_dir: Some(place_dir),
            resume: true, // preempted jobs leave a checkpoint; pick it up
            cache: cache.clone(),
            eco,
            preempt: None, // per-lease flag attached by the worker
        };

        // The fan-out needs a live reporter thread. Respect a sink the
        // embedding binary already installed (e.g. `serve --progress`);
        // otherwise run silent so the daemon doesn't spam stderr.
        if !progress::installed() {
            let _ = progress::install_silent();
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(QueueConfig {
                capacity: config.queue_capacity,
                tenant_quota: config.tenant_quota,
                workers: config.workers,
            }),
            cache,
            engine,
            ledger: RunLedger::from_flag(config.ledger.as_deref()),
            stop: AtomicBool::new(false),
            wake: wake_addr(addr),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            inflight: Mutex::new(HashSet::new()),
        });

        let mut worker_threads = Vec::new();
        for i in 0..config.workers.max(1) {
            let shared = shared.clone();
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Artifact-cache hits so far (shared across every request).
    pub fn cache_hits(&self) -> u64 {
        self.shared.cache.hits()
    }

    /// Artifact-cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.shared.cache.misses()
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.queue.stats()
    }

    /// Blocks until the daemon stops — i.e. until a client sends a
    /// `shutdown` frame — joining every worker and the accept loop. This
    /// is what the `serve` binary parks on.
    pub fn wait(mut self) {
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stop admitting, drain the queue, join every
    /// worker and the accept loop.
    pub fn shutdown(mut self) {
        self.shared.queue.drain();
        self.shared.queue.wait_idle();
        stop_accepting(&self.shared);
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Pause after an accept error that would recur at once, such as running
/// out of file descriptors.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match conn {
            Ok(stream) => {
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) => {
                if let Some(pause) = accept_backoff(&e) {
                    std::thread::sleep(pause);
                }
            }
        }
    }
}

/// What the accept loop does after a failed `accept`; no error ends the
/// loop, only `stop` does. An error that belongs to one pending
/// connection (the peer aborted or reset it, a firewall refused it, a
/// network error was pending on it) is skipped at once: `None`. Any other
/// error, chiefly running out of descriptors (`EMFILE`, `ENFILE`), would
/// fail again immediately, so the loop pauses before retrying instead of
/// spinning.
fn accept_backoff(e: &std::io::Error) -> Option<Duration> {
    use std::io::ErrorKind as K;
    match e.kind() {
        K::ConnectionAborted
        | K::ConnectionReset
        | K::PermissionDenied
        | K::NetworkDown
        | K::NetworkUnreachable
        | K::HostUnreachable => None,
        _ => Some(ACCEPT_BACKOFF),
    }
}

/// Where [`stop_accepting`] connects: the bound address, with an
/// unspecified IP (`0.0.0.0`, `[::]`) replaced by loopback, on which such
/// a listener also accepts.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Sets `stop` and wakes the accept loop out of its blocking `accept`
/// with a connection it drops unread. If the connect fails (say, no
/// descriptors left), the loop is in its error back-off and sees `stop`
/// on its next try.
fn stop_accepting(shared: &Shared) {
    shared.stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(shared.wake);
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Frames are single writes, so Nagle's algorithm only delays them.
    let _ = stream.set_nodelay(true);
    let out = Arc::new(Outbound {
        stream: Mutex::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        }),
    });
    let mut reader = BufReader::new(stream);
    shared.connections.fetch_add(1, Ordering::Relaxed);

    let mut tenant = "anon".to_string();
    let mut streaming = false;
    let mut subscription: Option<Arc<progress::ProgressSubscription>> = None;
    let mut forwarder: Option<(Arc<AtomicBool>, JoinHandle<()>)> = None;
    // A client that disconnects leaves its admitted jobs queued: each
    // worker removes the job's id from the in-flight set when it delivers
    // the report (a write to the closed socket just fails), so the
    // handler has nothing to undo when the loop ends.

    let mut frame = Vec::new();
    loop {
        frame.clear();
        let limit = MAX_FRAME_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut frame) {
            Ok(0) | Err(_) => break, // peer closed, or the socket failed
            Ok(n) if n > MAX_FRAME_BYTES => {
                let message = format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit");
                out.send_line(&ProtocolError::new(ErrorCode::BadFrame, message).to_line());
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                break;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&frame) else {
            break; // not UTF-8: the peer is not speaking the protocol
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match parse_request(trimmed) {
            Ok(r) => r,
            Err(e) => {
                out.send_line(&e.to_line());
                continue;
            }
        };
        match request {
            Request::Hello { tenant: t, stream } => {
                tenant = t;
                if stream {
                    streaming = true;
                    let sub = Arc::new(progress::subscribe());
                    let stop = Arc::new(AtomicBool::new(false));
                    let fwd_sub = sub.clone();
                    let fwd_out = out.clone();
                    let fwd_stop = stop.clone();
                    let handle = std::thread::Builder::new()
                        .name("serve-progress".into())
                        .spawn(move || {
                            while !fwd_stop.load(Ordering::Acquire) {
                                if let Some(frame) =
                                    fwd_sub.recv_timeout(Duration::from_millis(100))
                                {
                                    fwd_out.send_line(&frame);
                                }
                            }
                        });
                    if let Ok(handle) = handle {
                        subscription = Some(sub);
                        forwarder = Some((stop, handle));
                    }
                }
                out.send_line(&welcome_frame(placer_simd::selected().name()));
                shared.log(|rec| {
                    rec.str_field("event", "connect")
                        .str_field("tenant", &tenant)
                        .flag("stream", streaming);
                });
            }
            Request::Submit(spec) => {
                submit_work(shared, &out, &tenant, *spec, Work::Place, &subscription);
            }
            Request::Sweep(req) => {
                // Priority and quota accounting ride on a synthetic spec;
                // the sweep itself lives in the payload.
                let spec = synthetic_sweep_spec(&req);
                submit_work(shared, &out, &tenant, spec, Work::Sweep(req), &subscription);
            }
            Request::Stats => {
                out.send_line(&stats_frame(shared));
            }
            Request::Ping => {
                out.send_line(&bare_frame("pong"));
            }
            Request::Shutdown => {
                shared.queue.drain();
                shared.queue.wait_idle();
                shared.log(|rec| {
                    rec.str_field("event", "shutdown")
                        .uint("completed", shared.queue.stats().completed);
                });
                out.send_line(&bare_frame("bye"));
                // Last: once the accept loop ends, `Server::wait` returns
                // and a `serve` process exits, taking this thread with it.
                stop_accepting(shared);
                break;
            }
            Request::Bye => {
                out.send_line(&bare_frame("bye"));
                break;
            }
        }
    }

    if let Some((stop, handle)) = forwarder {
        stop.store(true, Ordering::Release);
        let _ = handle.join();
    }
    shared.connections.fetch_sub(1, Ordering::Relaxed);
}

/// A spec standing in for a sweep in the queue: carries the sweep's id
/// and circuit so priority, quotas and the in-flight namespace all apply.
fn synthetic_sweep_spec(req: &SweepRequest) -> JobSpec {
    let mut spec = JobSpec::new(req.id.clone(), req.circuit.clone(), "sweep");
    spec.profile = Profile::Small;
    spec
}

fn submit_work(
    shared: &Arc<Shared>,
    out: &Arc<Outbound>,
    tenant: &str,
    spec: JobSpec,
    work: Work,
    subscription: &Option<Arc<progress::ProgressSubscription>>,
) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let id = spec.id.clone();
    {
        let mut inflight = shared.inflight.lock().unwrap();
        if !inflight.insert(id.clone()) {
            out.send_line(
                &ProtocolError::for_job(
                    ErrorCode::DuplicateId,
                    &id,
                    "a job with this id is already in flight",
                )
                .to_line(),
            );
            return;
        }
    }
    let ctx = JobCtx {
        out: out.clone(),
        work,
    };
    // Watch before admission so no progress frame can beat the filter.
    if let Some(sub) = subscription {
        sub.watch(&id);
    }
    match shared.queue.submit(tenant, spec, ctx) {
        Ok(ahead) => {
            out.send_line(&accepted_frame(&id, ahead));
        }
        Err(e) => {
            shared.inflight.lock().unwrap().remove(&id);
            let err = match e {
                AdmitError::QueueFull { capacity } => ProtocolError::for_job(
                    ErrorCode::QueueFull,
                    &id,
                    format!("admission queue is at capacity ({capacity})"),
                ),
                AdmitError::QuotaExceeded { tenant, quota } => ProtocolError::for_job(
                    ErrorCode::QuotaExceeded,
                    &id,
                    format!("tenant `{tenant}` is at its quota ({quota} queued or running)"),
                ),
                AdmitError::Draining => {
                    ProtocolError::for_job(ErrorCode::Draining, &id, "server is draining")
                }
            };
            out.send_line(&err.to_line());
        }
    }
}

fn stats_frame(shared: &Arc<Shared>) -> String {
    let q = shared.queue.stats();
    let hits = shared.cache.hits();
    let misses = shared.cache.misses();
    let total = hits + misses;
    let hit_rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    format!(
        concat!(
            r#"{{"type": "stats", "v": 1, "pending": {}, "running": {}, "completed": {}, "#,
            r#""preempted": {}, "cache_hits": {}, "cache_misses": {}, "cache_hit_rate": {:.4}, "#,
            r#""connections": {}, "requests": {}}}"#
        ),
        q.pending,
        q.running,
        q.completed,
        q.preempted,
        hits,
        misses,
        hit_rate,
        shared.connections.load(Ordering::Relaxed),
        shared.requests.load(Ordering::Relaxed),
    )
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(lease) = shared.queue.take() {
        match &lease.payload.work {
            Work::Place => run_place_lease(shared, lease),
            Work::Sweep(_) => run_sweep_lease(shared, lease),
        }
    }
}

fn run_place_lease(shared: &Arc<Shared>, lease: Lease<JobCtx>) {
    let engine = JobEngine {
        preempt: Some(lease.flag.clone()),
        ..shared.engine.clone()
    };
    let report = engine.run_job(&lease.spec);
    // A cancelled status caused by OUR preemption flag is internal: the
    // checkpoint is spooled, the entry re-queues, and the client sees
    // only the final (resumed) report. A cancellation the client itself
    // requested via `cancel_after_checks` is delivered like any report.
    if report.status == JobStatus::Cancelled && lease.flag.is_cancelled() {
        shared.queue.finish(lease, true);
        return;
    }
    shared.log(|rec| {
        rec.str_field("event", "report")
            .str_field("tenant", &lease.tenant)
            .str_field("id", &report.id)
            .str_field("status", report.status.as_str())
            .uint("preemptions", u64::from(lease.preemptions))
            .num("wall_ms", report.wall_ms);
    });
    lease.payload.out.send_line(&report.to_line());
    shared.inflight.lock().unwrap().remove(&report.id);
    shared.queue.finish(lease, false);
}

fn run_sweep_lease(shared: &Arc<Shared>, lease: Lease<JobCtx>) {
    let Work::Sweep(req) = &lease.payload.work else {
        unreachable!("sweep lease carries sweep work");
    };
    let mut config = SweepConfig {
        circuit: req.circuit.clone(),
        ..SweepConfig::default()
    };
    if !req.placers.is_empty() {
        config.placers = req.placers.clone();
    }
    if !req.seeds.is_empty() {
        config.seeds = req.seeds.clone();
    }
    if !req.race {
        config.race = RaceConfig {
            rounds: 0,
            ..RaceConfig::default()
        };
    }
    let outcome = SweepEngine::new(config)
        .with_cache(shared.cache.clone())
        .run();
    let (reports, error) = match outcome {
        Ok(result) => {
            let jsonl = result.to_jsonl();
            let n = jsonl.lines().count();
            for line in jsonl.lines() {
                lease.payload.out.send_line(line);
            }
            lease.payload.out.send_line(&done_frame(&req.id, n));
            (n, None)
        }
        Err(message) => {
            lease.payload.out.send_line(
                &ProtocolError::for_job(ErrorCode::BadSpec, &req.id, &message).to_line(),
            );
            (0, Some(message))
        }
    };
    shared.log(|rec| {
        rec.str_field("event", "sweep_done")
            .str_field("tenant", &lease.tenant)
            .str_field("id", &req.id)
            .uint("reports", reports as u64)
            .flag("failed", error.is_some());
    });
    shared.inflight.lock().unwrap().remove(&lease.spec.id);
    shared.queue.finish(lease, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    #[test]
    fn accept_errors_skip_or_back_off_but_never_stop_the_loop() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::PermissionDenied,
            ErrorKind::NetworkUnreachable,
        ] {
            assert_eq!(accept_backoff(&Error::from(kind)), None, "{kind:?}");
        }
        // errno values of ENFILE and EMFILE on Linux and the BSDs.
        for errno in [23, 24] {
            assert_eq!(
                accept_backoff(&Error::from_raw_os_error(errno)),
                Some(ACCEPT_BACKOFF),
                "errno {errno}"
            );
        }
        assert_eq!(
            accept_backoff(&Error::from(ErrorKind::OutOfMemory)),
            Some(ACCEPT_BACKOFF)
        );
    }

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7000"), "127.0.0.1:7000");
        assert_eq!(wake("[::]:7000"), "[::1]:7000");
        assert_eq!(wake("10.1.2.3:7000"), "10.1.2.3:7000");
    }
}
