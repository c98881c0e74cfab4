//! The daemon's wire contracts on a live loopback socket: a request
//! round trip costs no fixed stall, served reports equal the batch
//! engine's, an oversized frame is rejected without ending the service,
//! and shutdown needs no timer to leave its blocking accept but still
//! logs a client's `shutdown` before the daemon stops.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use placer_jobs::{normalize_timing, JobEngine, JobSpec, Profile};
use placer_obs::json::{field, parse_object, Json};
use placer_serve::{Client, Server, ServerConfig, MAX_FRAME_BYTES};

fn spool_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("daemon-wire-{}-{tag}", std::process::id()))
}

fn start_server(tag: &str, addr: &str) -> Server {
    Server::start(ServerConfig {
        addr: addr.into(),
        workers: 1,
        spool: spool_dir(tag),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Shuts the server down on another thread, so a shutdown that never
/// returns fails the test instead of hanging the suite.
fn shut_down_within_a_second(server: Server) {
    let (done, finished) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    assert!(
        !matches!(
            finished.recv_timeout(Duration::from_secs(1)),
            Err(RecvTimeoutError::Timeout)
        ),
        "Server::shutdown did not return within 1 s"
    );
    shutdown.join().expect("Server::shutdown panicked");
}

/// A frame written as line then newline, without `TCP_NODELAY`, waits for
/// the peer's delayed ACK: ~40 ms a frame, over 4 s for these exchanges.
#[test]
fn stats_round_trips_pay_no_per_frame_stall() {
    let server = start_server("stats", "127.0.0.1:0");
    let mut client = Client::connect(server.addr(), "wire", false).expect("connect");
    let t0 = Instant::now();
    for _ in 0..50 {
        client.stats().expect("stats frame");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 stats round trips took {elapsed:?}"
    );
    client.close().expect("clean close");
    shut_down_within_a_second(server);
}

#[test]
fn served_reports_equal_the_batch_engine() {
    let server = start_server("batch", "127.0.0.1:0");
    let mut specs = Vec::new();
    for placer in ["sa", "xu19"] {
        for seed in [1, 2] {
            let mut spec = JobSpec::new(format!("{placer}-{seed}"), "cc_ota", placer);
            spec.profile = Profile::Small;
            spec.seed = Some(seed);
            specs.push(spec);
        }
    }
    let mut client = Client::connect(server.addr(), "wire", false).expect("connect");
    let engine = JobEngine::default();
    for spec in &specs {
        client.submit(spec).expect("admitted");
        let served = client.collect_reports(1).expect("report").remove(0);
        assert_eq!(
            normalize_timing(&served),
            normalize_timing(&engine.run_job(spec).to_line()),
            "job `{}`",
            spec.id
        );
    }
    client.close().expect("clean close");
    shut_down_within_a_second(server);
}

/// A peer that never sends `\n` gets one `bad_frame` error once its line
/// passes the limit, then EOF; other clients are still served.
#[test]
fn oversized_frames_get_one_error_then_eof() {
    let server = start_server("oversized", "127.0.0.1:0");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    // An unbounded reader waits for a newline forever; the timeout turns
    // that into a failure instead of a hung suite.
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    raw.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("oversized line sent");
    let mut reply = String::new();
    raw.read_to_string(&mut reply)
        .expect("an error frame, then EOF");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "expected exactly one frame: {reply:?}");
    let frame = parse_object(lines[0]).expect("a flat JSON frame");
    assert_eq!(field(&frame, "code"), Some(&Json::Str("bad_frame".into())));
    let message = field(&frame, "message").and_then(Json::as_str);
    assert!(
        message.is_some_and(|m| m.contains(&MAX_FRAME_BYTES.to_string())),
        "the error names the limit: {reply}"
    );

    let mut client = Client::connect(server.addr(), "wire", false).expect("connect");
    client.stats().expect("stats frame");
    client.close().expect("clean close");
    shut_down_within_a_second(server);
}

#[test]
fn shutdown_wakes_an_unspecified_address_listener_with_a_client_connected() {
    let server = start_server("wake", "0.0.0.0:0");
    let loopback = ("127.0.0.1", server.addr().port());
    let _idle = Client::connect(loopback, "idle", false).expect("connect");
    shut_down_within_a_second(server);
}

/// The `serve` binary exits as soon as `Server::wait` returns, so a
/// client's `shutdown` frame must reach the ledger before the accept loop
/// is told to stop.
#[test]
fn shutdown_frame_is_logged_before_wait_returns() {
    let spool = spool_dir("ledger");
    let ledger = spool.join("ledger.jsonl");
    // A reused process id must not leave an earlier run's record behind.
    let _ = std::fs::remove_file(&ledger);
    let server = Server::start(ServerConfig {
        workers: 1,
        spool,
        ledger: Some(ledger.display().to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "ops", false).expect("connect");
    let (done, finished) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = done.send(std::fs::read_to_string(&ledger).unwrap_or_default());
    });
    client.shutdown_server().expect("shutdown answered");
    let logged = finished
        .recv_timeout(Duration::from_secs(1))
        .expect("Server::wait returns within 1 s");
    waiter.join().expect("waiter thread");
    assert!(logged.contains(r#""event":"shutdown""#), "{logged}");
}
