//! Live progress streaming from solver instrumentation points.
//!
//! With a progress sink installed ([`install`] and its siblings), the
//! telemetry observer hook taps the per-placer loop events — Nesterov
//! iteration (`gp_iter`), SA temperature level (`sa_temp`), Xu19 round
//! (`xu_round`), GNN epoch (`gnn_epoch`) — rate-limits them per recording
//! thread, and pushes fixed-size event slots into a bounded ring. A
//! dedicated reporter thread drains the ring every few tens of
//! milliseconds and writes one status line per event, as human text or
//! machine-clean JSONL, to stderr or a file.
//!
//! The recording side keeps the PR-3 hot-loop contracts:
//!
//! * **allocation-free** — slots are `Copy` with inline label bytes; the
//!   push formats nothing.
//! * **non-blocking** — the ring mutex is only ever `try_lock`ed by
//!   producers; contention or a full ring drops the event (counted in
//!   [`dropped`]), it never stalls a solver.
//! * **observation-only** — nothing here feeds back into solver state, so
//!   observed and unobserved runs stay bit-identical.
//!
//! Per-job context comes from [`job_scope`]: the job engine (or sweep
//! racer) wraps each unit of work in a scope guard carrying a label and
//! optional deadline, and every event recorded on that thread inside the
//! scope gets the label, remaining budget slack, and an ETA extrapolated
//! from the loop's progress fraction. [`job_done`] emits the terminal
//! per-job status line directly (not rate-limited).

use std::cell::Cell;
use std::fmt::Write as FmtWrite;
use std::fs::File;
use std::io::{self, Write as IoWrite};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::{push_escaped, push_f64};

/// Output flavor of a progress stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// One readable status line per event.
    Human,
    /// One flat JSON object per event (`{"type":"progress",...}`).
    Jsonl,
}

impl ProgressMode {
    /// Parses a `--progress=` flag value.
    pub fn parse(s: &str) -> Option<ProgressMode> {
        match s {
            "human" => Some(ProgressMode::Human),
            "jsonl" => Some(ProgressMode::Jsonl),
            _ => None,
        }
    }
}

/// Maximum label bytes carried inline by a progress event; longer job
/// labels are truncated at a character boundary.
pub const LABEL_CAP: usize = 48;

/// Bounded ring capacity between the recording threads and the reporter.
pub const RING_CAPACITY: usize = 1024;

/// Per-thread minimum spacing between streamed loop events. Terminal
/// events ([`job_done`], scope starts) bypass this.
pub const MIN_EVENT_INTERVAL_US: u64 = 20_000;

const STATUS_CAP: usize = 16;
const DRAIN_INTERVAL_MS: u64 = 25;

/// One fixed-size progress record; `f64::NAN` marks "unknown" for
/// every numeric field.
#[derive(Clone, Copy)]
struct Slot {
    label: [u8; LABEL_CAP],
    label_len: u8,
    status: [u8; STATUS_CAP],
    status_len: u8,
    phase: &'static str,
    t_us: u64,
    iter: f64,
    total: f64,
    cost: f64,
    hpwl: f64,
    wall_ms: f64,
    slack_ms: f64,
    eta_ms: f64,
}

const EMPTY_SLOT: Slot = Slot {
    label: [0; LABEL_CAP],
    label_len: 0,
    status: [0; STATUS_CAP],
    status_len: 0,
    phase: "",
    t_us: 0,
    iter: f64::NAN,
    total: f64::NAN,
    cost: f64::NAN,
    hpwl: f64::NAN,
    wall_ms: f64::NAN,
    slack_ms: f64::NAN,
    eta_ms: f64::NAN,
};

fn copy_str(dst: &mut [u8], s: &str) -> u8 {
    let mut n = s.len().min(dst.len());
    while n > 0 && !s.is_char_boundary(n) {
        n -= 1;
    }
    dst[..n].copy_from_slice(&s.as_bytes()[..n]);
    n as u8
}

fn slot_str(bytes: &[u8], len: u8) -> &str {
    std::str::from_utf8(&bytes[..len as usize]).unwrap_or("")
}

struct Ring {
    slots: Vec<Slot>,
    len: usize,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    slots: Vec::new(),
    len: 0,
});
static INSTALLED: AtomicBool = AtomicBool::new(false);
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Bumped by every install, so the per-thread rate limit starts afresh
/// under a new sink.
static SESSION: AtomicU64 = AtomicU64::new(0);
static REPORTER: Mutex<Option<JoinHandle<()>>> = Mutex::new(None);

#[derive(Clone, Copy)]
struct Scope {
    label: [u8; LABEL_CAP],
    label_len: u8,
    start_us: u64,
    deadline_ms: f64,
}

const NO_SCOPE: Scope = Scope {
    label: [0; LABEL_CAP],
    label_len: 0,
    start_us: 0,
    deadline_ms: f64::NAN,
};

thread_local! {
    static SCOPE: Cell<Scope> = const { Cell::new(NO_SCOPE) };
    /// `(install session, time)` of this thread's last pushed event.
    static LAST_PUSH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// RAII guard from [`job_scope`]; restores the previous scope (for
/// nesting) when dropped. Not `Send`: it manipulates thread-locals.
pub struct JobScope {
    prev: Scope,
    _not_send: PhantomData<*const ()>,
}

impl Drop for JobScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Tags the current thread with a job label (and optional deadline in
/// milliseconds) until the returned guard drops. Emits a `job_start`
/// status line when a sink is live.
pub fn job_scope(label: &str, deadline_ms: Option<f64>) -> JobScope {
    let mut scope = NO_SCOPE;
    scope.label_len = copy_str(&mut scope.label, label);
    scope.start_us = placer_telemetry::now_us();
    scope.deadline_ms = deadline_ms.unwrap_or(f64::NAN);
    let prev = SCOPE.with(|s| s.replace(scope));
    if INSTALLED.load(Ordering::Acquire) {
        let mut slot = EMPTY_SLOT;
        slot.phase = "job_start";
        slot.t_us = scope.start_us;
        slot.label = scope.label;
        slot.label_len = scope.label_len;
        slot.slack_ms = scope.deadline_ms;
        push(&slot);
    }
    JobScope {
        prev,
        _not_send: PhantomData,
    }
}

/// Emits the terminal status line for a finished job/racer. Not
/// rate-limited; a no-op without an installed sink.
pub fn job_done(label: &str, status: &str, wall_ms: f64, hpwl: Option<f64>) {
    if !INSTALLED.load(Ordering::Acquire) {
        return;
    }
    let mut slot = EMPTY_SLOT;
    slot.phase = "job_done";
    slot.t_us = placer_telemetry::now_us();
    slot.label_len = copy_str(&mut slot.label, label);
    slot.status_len = copy_str(&mut slot.status, status);
    slot.wall_ms = wall_ms;
    slot.hpwl = hpwl.unwrap_or(f64::NAN);
    push(&slot);
}

fn push(slot: &Slot) -> bool {
    // try_lock only: producers must never block behind the reporter.
    let Ok(mut ring) = RING.try_lock() else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    if ring.len == ring.slots.len() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    let len = ring.len;
    ring.slots[len] = *slot;
    ring.len = len + 1;
    true
}

/// The telemetry observer: maps known solver loop kinds onto progress
/// slots. Runs on the recording thread — allocation-free, and bails
/// in a few branches for unmapped kinds.
fn observe(kind: &'static str, t_us: u64, fields: &[(&'static str, f64)]) {
    let (iter_key, total_key, cost_key, hpwl_key) = match kind {
        "gp_iter" => ("iter", "max_iters", "", "hpwl"),
        "sa_temp" => ("level", "levels", "cost", ""),
        "xu_round" => ("round", "rounds", "value", ""),
        "gnn_epoch" => ("epoch", "epochs", "loss", ""),
        _ => return,
    };
    if !INSTALLED.load(Ordering::Acquire) {
        return;
    }
    // The first event a thread records under a freshly installed sink
    // always streams, even right after the epoch is pinned.
    let session = SESSION.load(Ordering::Relaxed);
    let (seen, last) = LAST_PUSH.with(|c| c.get());
    if seen == session && t_us.saturating_sub(last) < MIN_EVENT_INTERVAL_US {
        return;
    }
    let mut slot = EMPTY_SLOT;
    slot.phase = kind;
    slot.t_us = t_us;
    for &(name, value) in fields {
        if name == iter_key {
            slot.iter = value;
        } else if name == total_key {
            slot.total = value;
        } else if !cost_key.is_empty() && name == cost_key {
            slot.cost = value;
        } else if !hpwl_key.is_empty() && name == hpwl_key {
            slot.hpwl = value;
        }
    }
    let scope = SCOPE.with(|s| s.get());
    if scope.label_len > 0 {
        slot.label = scope.label;
        slot.label_len = scope.label_len;
        let elapsed_ms = t_us.saturating_sub(scope.start_us) as f64 / 1e3;
        slot.slack_ms = scope.deadline_ms - elapsed_ms;
        // ETA from the loop's progress fraction: remaining iterations
        // scaled by the per-iteration pace so far.
        if slot.iter > 0.0 && slot.total >= slot.iter {
            slot.eta_ms = elapsed_ms * (slot.total - slot.iter) / slot.iter;
        }
    }
    if push(&slot) {
        LAST_PUSH.with(|c| c.set((session, t_us)));
    }
}

enum Output {
    Stderr,
    File(File),
    /// Fan-out-only sink: the reporter drains the ring for
    /// subscribers without writing anywhere itself (the daemon's
    /// mode — each connection gets its own subscription instead of a
    /// process-wide stream).
    Null,
}

impl Output {
    fn write_line(&mut self, line: &str) {
        match self {
            Output::Stderr => {
                let _ = io::stderr().lock().write_all(line.as_bytes());
            }
            Output::File(f) => {
                let _ = f.write_all(line.as_bytes());
            }
            Output::Null => {}
        }
    }
}

// ---- per-connection fan-out -------------------------------------
//
// Subscribers receive the JSONL rendering of every event whose job
// label is in their watch set. A fresh subscription watches nothing, so a
// daemon connection never sees frames of jobs it did not submit.
// Registration is rare and guarded by a mutex; the reporter checks a
// single atomic before doing any fan-out work, so the no-subscriber
// path (every CLI run, the zero-alloc telemetry test) is unchanged.

struct Subscriber {
    id: u64,
    jobs: std::sync::Arc<Mutex<std::collections::HashSet<String>>>,
    tx: std::sync::mpsc::Sender<String>,
}

static SUBSCRIBERS: Mutex<Vec<Subscriber>> = Mutex::new(Vec::new());
static SUBSCRIBER_COUNT: AtomicU64 = AtomicU64::new(0);
static NEXT_SUBSCRIBER: AtomicU64 = AtomicU64::new(1);

/// A live progress feed for one consumer (one daemon connection).
///
/// Receives the JSONL line of every event whose job label is in the
/// watch set ([`watch`](Self::watch)); a fresh subscription watches
/// nothing. Unregisters on drop. Lines only flow while a sink is
/// installed ([`install`], [`install_to_file`] or — the daemon's
/// choice — [`install_silent`]), because the reporter thread is what
/// drains the ring.
pub struct ProgressSubscription {
    id: u64,
    jobs: std::sync::Arc<Mutex<std::collections::HashSet<String>>>,
    // Behind a lock so the subscription is `Sync`: the daemon shares
    // it between a connection handler (watch) and a forwarder thread
    // (recv).
    rx: Mutex<std::sync::mpsc::Receiver<String>>,
}

impl ProgressSubscription {
    /// Adds a job id to the watch set. Events for unwatched jobs are
    /// filtered out at the fan-out point, not delivered and dropped.
    pub fn watch(&self, job_id: &str) {
        self.jobs.lock().unwrap().insert(job_id.to_string());
    }

    /// Blocks up to `timeout` for the next line (without its trailing
    /// newline). `None` on timeout or after [`uninstall`] tore the
    /// fan-out down.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<String> {
        self.rx.lock().unwrap().recv_timeout(timeout).ok()
    }

    /// Drains every line already queued, without blocking.
    pub fn drain(&self) -> Vec<String> {
        self.rx.lock().unwrap().try_iter().collect()
    }
}

impl Drop for ProgressSubscription {
    fn drop(&mut self) {
        let mut subs = SUBSCRIBERS.lock().unwrap();
        subs.retain(|s| s.id != self.id);
        SUBSCRIBER_COUNT.store(subs.len() as u64, Ordering::Release);
    }
}

/// Registers a progress subscriber; see [`ProgressSubscription`].
pub fn subscribe() -> ProgressSubscription {
    let (tx, rx) = std::sync::mpsc::channel();
    let jobs = std::sync::Arc::new(Mutex::new(std::collections::HashSet::new()));
    let id = NEXT_SUBSCRIBER.fetch_add(1, Ordering::Relaxed);
    let mut subs = SUBSCRIBERS.lock().unwrap();
    subs.push(Subscriber {
        id,
        jobs: jobs.clone(),
        tx,
    });
    SUBSCRIBER_COUNT.store(subs.len() as u64, Ordering::Release);
    drop(subs);
    ProgressSubscription {
        id,
        jobs,
        rx: Mutex::new(rx),
    }
}

/// Sends `slot` to every subscriber watching its label. Runs on the
/// reporter thread, only when at least one subscriber exists.
fn fan_out(slot: &Slot, line: &mut String) {
    let label = slot_str(&slot.label, slot.label_len);
    let mut rendered = false;
    let subs = SUBSCRIBERS.lock().unwrap();
    for sub in subs.iter() {
        {
            let jobs = sub.jobs.lock().unwrap();
            if !jobs.contains(label) {
                continue;
            }
        }
        if !rendered {
            format_jsonl(slot, line);
            rendered = true;
        }
        // Trailing newline stripped: the consumer frames lines itself.
        let _ = sub.tx.send(line.trim_end().to_string());
    }
}

/// Renders one slot as a flat JSONL progress frame
/// (`{"type":"progress","v":1,...}`), shared by the stream writer and
/// the subscriber fan-out. `v` matches `placer_jobs::PROTOCOL_VERSION`
/// (hardcoded here — the dependency points the other way).
fn format_jsonl(slot: &Slot, line: &mut String) {
    line.clear();
    let label = slot_str(&slot.label, slot.label_len);
    let status = slot_str(&slot.status, slot.status_len);
    let _ = write!(
        line,
        "{{\"type\":\"progress\",\"v\":1,\"t_us\":{}",
        slot.t_us
    );
    line.push_str(",\"phase\":\"");
    push_escaped(line, slot.phase);
    line.push('"');
    if !label.is_empty() {
        line.push_str(",\"job\":\"");
        push_escaped(line, label);
        line.push('"');
    }
    if !status.is_empty() {
        line.push_str(",\"status\":\"");
        push_escaped(line, status);
        line.push('"');
    }
    for (key, value) in [
        ("iter", slot.iter),
        ("total", slot.total),
        ("cost", slot.cost),
        ("hpwl", slot.hpwl),
        ("wall_ms", slot.wall_ms),
        ("slack_ms", slot.slack_ms),
        ("eta_ms", slot.eta_ms),
    ] {
        if value.is_finite() {
            let _ = write!(line, ",\"{key}\":");
            push_f64(line, value);
        }
    }
    line.push_str("}\n");
}

fn emit(slot: &Slot, mode: ProgressMode, line: &mut String, out: &mut Output) {
    line.clear();
    let label = slot_str(&slot.label, slot.label_len);
    let status = slot_str(&slot.status, slot.status_len);
    match mode {
        ProgressMode::Jsonl => {
            format_jsonl(slot, line);
        }
        ProgressMode::Human => {
            line.push_str("[placer] ");
            if !label.is_empty() {
                line.push_str(label);
                line.push_str(": ");
            }
            line.push_str(slot.phase);
            if !status.is_empty() {
                let _ = write!(line, " status={status}");
            }
            if slot.iter.is_finite() {
                let _ = write!(line, " {}", slot.iter);
                if slot.total.is_finite() {
                    let _ = write!(line, "/{}", slot.total);
                }
            }
            if slot.cost.is_finite() {
                let _ = write!(line, " cost={:.4}", slot.cost);
            }
            if slot.hpwl.is_finite() {
                let _ = write!(line, " hpwl={:.4}", slot.hpwl);
            }
            if slot.wall_ms.is_finite() {
                let _ = write!(line, " wall={:.0}ms", slot.wall_ms);
            }
            if slot.slack_ms.is_finite() {
                let _ = write!(line, " slack={:.0}ms", slot.slack_ms);
            }
            if slot.eta_ms.is_finite() {
                let _ = write!(line, " eta={:.0}ms", slot.eta_ms);
            }
            line.push('\n');
        }
    }
    out.write_line(line);
}

fn reporter(mode: ProgressMode, mut out: Output) {
    // Preallocated so the steady-state drain loop never allocates —
    // the zero-alloc counting-allocator test watches every thread.
    let mut scratch: Vec<Slot> = Vec::with_capacity(RING_CAPACITY);
    let mut line = String::with_capacity(2048);
    loop {
        let stop = SHUTDOWN.load(Ordering::Acquire);
        scratch.clear();
        {
            let mut ring = RING.lock().unwrap();
            let len = ring.len;
            scratch.extend_from_slice(&ring.slots[..len]);
            ring.len = 0;
        }
        let subscribed = SUBSCRIBER_COUNT.load(Ordering::Acquire) > 0;
        for slot in &scratch {
            emit(slot, mode, &mut line, &mut out);
            if subscribed {
                fan_out(slot, &mut line);
            }
        }
        if let Output::File(f) = &mut out {
            let _ = f.flush();
        }
        if stop {
            break;
        }
        std::thread::sleep(Duration::from_millis(DRAIN_INTERVAL_MS));
    }
}

fn install_inner(mode: ProgressMode, out: Output) -> io::Result<()> {
    // One guard across stop-and-restart: an uninstall on another
    // thread must not see this install re-arm `SHUTDOWN` while it
    // joins the old reporter, or that join never returns.
    let mut reporter_slot = REPORTER.lock().unwrap();
    stop_reporter(&mut reporter_slot);
    {
        let mut ring = RING.lock().unwrap();
        ring.slots.clear();
        ring.slots.resize(RING_CAPACITY, EMPTY_SLOT);
        ring.len = 0;
    }
    DROPPED.store(0, Ordering::Relaxed);
    SESSION.fetch_add(1, Ordering::Relaxed);
    SHUTDOWN.store(false, Ordering::Release);
    let handle = std::thread::Builder::new()
        .name("obs-progress".into())
        .spawn(move || reporter(mode, out))?;
    *reporter_slot = Some(handle);
    INSTALLED.store(true, Ordering::Release);
    placer_telemetry::install_observer(observe);
    Ok(())
}

/// Installs a progress sink writing to stderr (replacing any existing
/// one) and registers the telemetry observer.
///
/// # Errors
///
/// Fails only if the reporter thread cannot be spawned.
pub fn install(mode: ProgressMode) -> io::Result<()> {
    install_inner(mode, Output::Stderr)
}

/// Installs a fan-out-only sink: the reporter thread runs (so
/// [`subscribe`]rs receive events) but no process-wide stream is
/// written. The daemon's mode.
///
/// # Errors
///
/// Fails only if the reporter thread cannot be spawned.
pub fn install_silent() -> io::Result<()> {
    install_inner(ProgressMode::Jsonl, Output::Null)
}

/// Like [`install`], but writing to a file (parents created).
///
/// # Errors
///
/// Propagates file-creation and thread-spawn errors.
pub fn install_to_file(path: &Path, mode: ProgressMode) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = File::create(path)?;
    install_inner(mode, Output::File(file))
}

/// Unregisters the observer, drains outstanding events, and joins the
/// reporter thread. Idempotent.
pub fn uninstall() {
    stop_reporter(&mut REPORTER.lock().unwrap());
}

fn stop_reporter(reporter: &mut Option<JoinHandle<()>>) {
    if !INSTALLED.swap(false, Ordering::AcqRel) {
        return;
    }
    placer_telemetry::uninstall_observer();
    SHUTDOWN.store(true, Ordering::Release);
    if let Some(handle) = reporter.take() {
        let _ = handle.join();
    }
}

/// True while a progress sink is installed.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Acquire)
}

/// Events dropped by rate-ring overflow or contention since install.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses() {
        assert_eq!(ProgressMode::parse("human"), Some(ProgressMode::Human));
        assert_eq!(ProgressMode::parse("jsonl"), Some(ProgressMode::Jsonl));
        assert_eq!(ProgressMode::parse("xml"), None);
    }

    // Progress state is process-global (ring, observer, reporter thread),
    // so everything that installs a sink lives in this one test.
    #[test]
    fn end_to_end_stream_scope_and_rate_limit() {
        use crate::json::{parse_object, Json};

        let path =
            std::env::temp_dir().join(format!("placer_obs_progress_{}.jsonl", std::process::id()));
        install_to_file(&path, ProgressMode::Jsonl).unwrap();
        assert!(installed());
        assert!(placer_telemetry::active());

        {
            let _scope = job_scope("unit-a", Some(5_000.0));
            // First mapped event streams; the immediate repeat is
            // rate-limited away.
            placer_telemetry::record(
                "gp_iter",
                &[("iter", 10.0), ("max_iters", 40.0), ("hpwl", 123.5)],
            );
            placer_telemetry::record(
                "gp_iter",
                &[("iter", 11.0), ("max_iters", 40.0), ("hpwl", 123.4)],
            );
            // Unmapped kinds never stream.
            placer_telemetry::record("dp_round", &[("round", 1.0)]);
            job_done("unit-a", "complete", 41.5, Some(123.4));
        }
        uninstall();
        assert!(!installed());

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        // job_start + one gp_iter + job_done.
        assert_eq!(lines.len(), 3, "got: {text}");
        for line in &lines {
            let kv = parse_object(line).unwrap();
            assert_eq!(kv[0].1, Json::Str("progress".into()));
        }
        let get = |line: &str, k: &str| -> Option<Json> {
            parse_object(line)
                .unwrap()
                .into_iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
        };
        assert_eq!(get(lines[0], "phase").unwrap().as_str(), Some("job_start"));
        assert_eq!(get(lines[1], "phase").unwrap().as_str(), Some("gp_iter"));
        assert_eq!(get(lines[1], "job").unwrap().as_str(), Some("unit-a"));
        assert_eq!(get(lines[1], "iter").unwrap().as_num(), Some(10.0));
        assert_eq!(get(lines[1], "total").unwrap().as_num(), Some(40.0));
        assert!(get(lines[1], "eta_ms").unwrap().as_num().unwrap() >= 0.0);
        assert!(get(lines[1], "slack_ms").unwrap().as_num().unwrap() <= 5_000.0);
        assert_eq!(get(lines[2], "phase").unwrap().as_str(), Some("job_done"));
        assert_eq!(get(lines[2], "status").unwrap().as_str(), Some("complete"));
        assert_eq!(get(lines[2], "wall_ms").unwrap().as_num(), Some(41.5));

        // Metrics snapshots are capturable mid-run; with the observer
        // gone, recording deactivates again (no sink in this test).
        let snap = crate::metrics::MetricsSnapshot::capture();
        let _ = snap.to_flat_json();
        assert!(!placer_telemetry::active());

        // Human mode formats without panicking and honors the scope label.
        let path2 = std::env::temp_dir().join(format!(
            "placer_obs_progress_human_{}.txt",
            std::process::id()
        ));
        install_to_file(&path2, ProgressMode::Human).unwrap();
        {
            let _scope = job_scope("unit-b", None);
            placer_telemetry::record(
                "sa_temp",
                &[("level", 3.0), ("levels", 9.0), ("cost", 7.25)],
            );
        }
        uninstall();
        let text2 = std::fs::read_to_string(&path2).unwrap();
        std::fs::remove_file(&path2).ok();
        assert!(text2.contains("[placer] unit-b: sa_temp 3/9"), "{text2}");
        assert!(text2.contains("cost=7.2500"), "{text2}");

        // Fan-out: a silent sink delivers filtered frames to subscribers
        // without writing a process-wide stream anywhere.
        install_silent().unwrap();
        let both = subscribe();
        both.watch("unit-c");
        both.watch("unit-d");
        let only_c = subscribe();
        only_c.watch("unit-c");
        let none = subscribe();
        {
            let _scope = job_scope("unit-c", None);
            job_done("unit-c", "complete", 1.0, Some(9.0));
        }
        {
            let _scope = job_scope("unit-d", None);
            job_done("unit-d", "complete", 2.0, None);
        }
        // Collect until both terminal frames arrive (the reporter drains
        // every 25ms); cap the wait so a regression fails, not hangs.
        let mut seen = Vec::new();
        for _ in 0..200 {
            seen.extend(both.drain());
            if seen.iter().filter(|l| l.contains("job_done")).count() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        uninstall();
        seen.extend(both.drain());
        let done: Vec<&String> = seen.iter().filter(|l| l.contains("job_done")).collect();
        assert_eq!(
            done.len(),
            2,
            "a subscriber watching both sees both: {seen:?}"
        );
        assert!(
            none.drain().is_empty(),
            "an empty watch set receives nothing"
        );
        for line in &seen {
            let kv = parse_object(line).unwrap();
            assert_eq!(kv[0].1, Json::Str("progress".into()));
            assert_eq!(kv[1].0, "v", "frames are versioned: {line}");
            assert_eq!(kv[1].1, Json::Num(1.0));
        }
        let filtered = only_c.drain();
        assert!(!filtered.is_empty(), "watched job streamed");
        for line in &filtered {
            assert!(line.contains("\"job\":\"unit-c\""), "filter leak: {line}");
        }
    }
}
