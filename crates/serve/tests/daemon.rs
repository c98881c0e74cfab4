//! End-to-end daemon tests: concurrent clients against a live socket,
//! byte-compared with the offline batch engine.
//!
//! The central claim under test is the service contract: putting the job
//! engine behind a resident daemon — with admission control, preemption
//! and a shared artifact cache in the path — changes *when* work runs,
//! never *what* it produces. Every report a client receives must be
//! byte-identical (modulo wall-clock fields) to what the same spec
//! produces through a plain offline [`JobEngine`].

use std::path::PathBuf;
use std::time::{Duration, Instant};

use placer_jobs::{normalize_timing, JobEngine, JobSpec, Profile};
use placer_serve::{Client, ClientError, ErrorCode, Server, ServerConfig, SweepRequest};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("placer-serve-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

fn start_server(tag: &str, workers: usize, capacity: usize, quota: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: capacity,
        tenant_quota: quota,
        spool: tempdir(tag),
        eco_threshold: None,
        ledger: Some("none".into()),
    })
    .expect("server starts")
}

fn spec(id: &str, circuit: &str, placer: &str) -> JobSpec {
    let mut spec = JobSpec::new(id, circuit, placer);
    spec.profile = Profile::Small;
    spec.seed = Some(1);
    spec
}

/// A spec slow enough (~2.5 s optimized) to still be on a worker when
/// the test's next submission arrives.
fn slow_spec(id: &str) -> JobSpec {
    let mut spec = JobSpec::new(id, "scf", "eplace-a");
    spec.profile = Profile::Default;
    spec.seed = Some(1);
    spec
}

/// Runs the same specs through an offline engine and returns the exact
/// lines the batch binary would write, keyed by submission order.
fn offline_reference(specs: &[JobSpec]) -> Vec<String> {
    let engine = JobEngine::default();
    specs.iter().map(|s| engine.run_job(s).to_line()).collect()
}

fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Reports arrive in completion order; put them back in submission order
/// for comparison against the offline reference.
fn in_submission_order(reports: Vec<String>, specs: &[JobSpec]) -> Vec<String> {
    let mut ordered = Vec::with_capacity(specs.len());
    for spec in specs {
        let line = reports
            .iter()
            .find(|r| placer_serve::report_id(r).as_deref() == Some(spec.id.as_str()))
            .unwrap_or_else(|| panic!("no report for job `{}`", spec.id))
            .clone();
        ordered.push(line);
    }
    ordered
}

#[test]
fn concurrent_clients_match_the_offline_batch_byte_for_byte() {
    let server = start_server("concurrent", 2, 64, 32);
    let addr = server.addr();

    // Three tenants, overlapping circuits (so the shared cache is hit),
    // all submitting at once from their own connections.
    let batches: Vec<Vec<JobSpec>> = (0..3)
        .map(|c| {
            vec![
                spec(&format!("c{c}-a"), "adder", "sa"),
                spec(&format!("c{c}-b"), "cc_ota", "eplace-a"),
                spec(&format!("c{c}-c"), "cm_ota1", "xu19"),
            ]
        })
        .collect();

    let handles: Vec<_> = batches
        .iter()
        .cloned()
        .enumerate()
        .map(|(c, specs)| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, &format!("tenant-{c}"), false).expect("connect");
                for s in &specs {
                    client.submit(s).expect("admitted");
                }
                let reports = client.collect_reports(specs.len()).expect("reports");
                client.close().expect("clean close");
                in_submission_order(reports, &specs)
            })
        })
        .collect();
    let served: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (specs, got) in batches.iter().zip(&served) {
        let want = offline_reference(specs);
        for (w, g) in want.iter().zip(got) {
            assert_eq!(
                normalize_timing(g),
                normalize_timing(w),
                "daemon report differs from offline batch"
            );
        }
    }

    // Nine jobs over three distinct circuits: the resident cache built
    // each circuit once and served the other six requests from memory.
    assert!(
        server.cache_hits() >= 6,
        "expected ≥6 artifact-cache hits, got {}",
        server.cache_hits()
    );
    server.shutdown();
}

#[test]
fn structured_rejections_for_quota_queue_full_and_duplicates() {
    let server = start_server("reject", 1, 2, 2);
    let addr = server.addr();
    let mut a = Client::connect(addr, "tenant-a", false).expect("connect a");
    let mut b = Client::connect(addr, "tenant-b", false).expect("connect b");
    let mut c = Client::connect(addr, "tenant-c", false).expect("connect c");

    // Occupy the single worker, then fill the two pending slots.
    a.submit(&slow_spec("busy")).expect("admitted");
    assert!(
        wait_until(Duration::from_secs(10), || server.queue_stats().running
            == 1),
        "worker never picked the job up"
    );
    a.submit(&spec("a2", "adder", "sa")).expect("admitted");

    // Tenant a is now at its quota of 2 (queued + running).
    match a.submit(&spec("a3", "adder", "sa")) {
        Err(ClientError::Protocol(e)) => {
            assert_eq!(e.code, ErrorCode::QuotaExceeded);
            assert_eq!(e.id.as_deref(), Some("a3"));
            assert!(e.message.contains("tenant-a"), "message: {}", e.message);
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }

    // Another tenant still gets the last pending slot...
    b.submit(&spec("b1", "adder", "sa")).expect("admitted");
    // ...which leaves the queue full for everyone.
    match c.submit(&spec("c1", "adder", "sa")) {
        Err(ClientError::Protocol(e)) => {
            assert_eq!(e.code, ErrorCode::QueueFull);
            assert_eq!(e.id.as_deref(), Some("c1"));
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }

    // An id still in flight is rejected no matter who submits it.
    match c.submit(&spec("b1", "adder", "sa")) {
        Err(ClientError::Protocol(e)) => assert_eq!(e.code, ErrorCode::DuplicateId),
        other => panic!("expected duplicate-id rejection, got {other:?}"),
    }

    // The admitted work still completes and is correct.
    let a_reports = a.collect_reports(2).expect("a reports");
    assert_eq!(a_reports.len(), 2);
    let b_reports = b.collect_reports(1).expect("b reports");
    assert_eq!(
        normalize_timing(&b_reports[0]),
        normalize_timing(&offline_reference(&[spec("b1", "adder", "sa")])[0]),
    );
    server.shutdown();
}

#[test]
fn preemption_resumes_bit_identically_through_the_daemon() {
    let server = start_server("preempt", 1, 16, 16);
    let addr = server.addr();
    let mut client = Client::connect(addr, "tenant", false).expect("connect");

    // The victim: slow, with a (generous) deadline so an urgent request
    // outranks it. The deadline is a priority signal here, not a budget
    // it could actually exhaust.
    let mut victim = slow_spec("victim");
    victim.deadline_ms = Some(600_000.0);
    let mut urgent = spec("urgent", "adder", "sa");
    urgent.deadline_ms = Some(60_000.0);

    client.submit(&victim).expect("victim admitted");
    assert!(
        wait_until(Duration::from_secs(10), || server.queue_stats().running
            == 1),
        "victim never started"
    );
    client.submit(&urgent).expect("urgent admitted");

    let reports = client.collect_reports(2).expect("both reports");
    assert_eq!(
        server.queue_stats().preempted,
        1,
        "the urgent submission should have preempted the running victim"
    );

    // The urgent job overtook the victim on the single worker.
    assert_eq!(
        placer_serve::report_id(&reports[0]).as_deref(),
        Some("urgent"),
        "urgent job should finish first: {reports:?}"
    );

    // And the preempted victim's final report — checkpoint, re-queue,
    // resume and all — is bit-identical to an uninterrupted offline run.
    let reference = offline_reference(&[victim.clone(), urgent.clone()]);
    let got = in_submission_order(reports, &[victim, urgent]);
    assert_eq!(normalize_timing(&got[0]), normalize_timing(&reference[0]));
    assert_eq!(normalize_timing(&got[1]), normalize_timing(&reference[1]));
    server.shutdown();
}

#[test]
fn eco_jobs_reuse_the_resident_cache() {
    let dir = tempdir("eco-client");
    let server = start_server("eco", 1, 16, 16);
    let addr = server.addr();
    let mut client = Client::connect(addr, "tenant", false).expect("connect");

    // Cold job: produces the warm-start placement in the daemon's spool.
    let cold = spec("cold", "cc_ota", "eplace-a");
    client.submit(&cold).expect("cold admitted");
    let cold_report = client.collect_reports(1).expect("cold report");
    assert!(cold_report[0].contains(r#""status": "complete""#));

    // ECO job against the artifact the daemon already has resident.
    let deck = dir.join("edit.eco");
    std::fs::write(&deck, "resize RB 18k\n").unwrap();
    let warm = tempdir("eco").join("place").join("cold.place");
    assert!(warm.exists(), "daemon should have spooled the placement");
    let mut eco = spec("eco-fast", "cc_ota", "eplace-a");
    eco.eco = Some(deck.display().to_string());
    eco.warm_start = Some(warm.display().to_string());
    let misses_before = server.cache_misses();
    client.submit(&eco).expect("eco admitted");
    let eco_report = client.collect_reports(1).expect("eco report");
    assert!(
        eco_report[0].contains(r#""eco": "fast""#),
        "single-device resize should take the incremental path: {}",
        eco_report[0]
    );
    assert_eq!(
        server.cache_misses(),
        misses_before,
        "the ECO job should not have rebuilt the base artifacts"
    );
    let _ = std::fs::remove_dir_all(dir);
    server.shutdown();
}

#[test]
fn sweeps_run_as_one_admission_unit() {
    let server = start_server("sweep", 2, 16, 16);
    let addr = server.addr();
    let mut client = Client::connect(addr, "tenant", false).expect("connect");
    let req = SweepRequest {
        id: "s1".into(),
        circuit: "adder".into(),
        placers: vec!["sa".into(), "xu19".into()],
        seeds: vec![1, 2],
        race: false,
    };
    client.sweep(&req).expect("sweep admitted");
    // 2 placers × 2 seeds = 4 report lines, then the done frame.
    let mut reports = Vec::new();
    loop {
        match client.next_reply().expect("reply") {
            placer_serve::Reply::Report(line) => reports.push(line),
            placer_serve::Reply::Done { id, reports: n } => {
                assert_eq!(id, "s1");
                assert_eq!(n, 4);
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(reports.len(), 4);
    for line in &reports {
        assert!(line.contains(r#""circuit": "adder""#), "line: {line}");
    }
    server.shutdown();
}

#[test]
fn drain_shutdown_delivers_every_admitted_job_first() {
    let server = start_server("drain", 1, 16, 16);
    let addr = server.addr();
    let mut worker_client = Client::connect(addr, "tenant", false).expect("connect");
    let specs = [spec("d1", "adder", "sa"), spec("d2", "adder", "xu19")];
    for s in &specs {
        worker_client.submit(s).expect("admitted");
    }

    // A second connection asks the server to stop: the reply only comes
    // back after the queue drains, so the first client's reports must
    // already be on the wire by then.
    let mut admin = Client::connect(addr, "admin", false).expect("connect admin");
    admin.shutdown_server().expect("drained shutdown");

    let reports = worker_client.collect_reports(2).expect("reports");
    let want = offline_reference(&specs);
    let got = in_submission_order(reports, &specs);
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(normalize_timing(g), normalize_timing(w));
    }

    // And nothing new is admitted.
    match worker_client.submit(&spec("late", "adder", "sa")) {
        Err(ClientError::Protocol(e)) => assert_eq!(e.code, ErrorCode::Draining),
        Err(ClientError::Closed | ClientError::Io(_)) => {} // server already gone
        Ok(_) => panic!("submission after drain should fail"),
    }
    server.shutdown();
}

#[test]
fn streaming_connections_receive_progress_for_their_jobs_only() {
    let server = start_server("stream", 1, 16, 16);
    let addr = server.addr();
    let mut client = Client::connect(addr, "tenant", true).expect("connect streaming");
    client
        .submit(&spec("streamed", "adder", "sa"))
        .expect("admitted");
    let _ = client.collect_reports(1).expect("report");
    // Progress frames trail the report (reporter tick + forwarder poll);
    // poll with a short read timeout instead of blocking on a quiet wire.
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout set");
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.progress_lines().is_empty() && Instant::now() < deadline {
        let _ = client.next_reply(); // timeouts surface as ignorable Io errors
    }
    assert!(
        !client.progress_lines().is_empty(),
        "no progress frames arrived on a streaming connection"
    );
    for frame in client.progress_lines() {
        assert!(
            frame.contains(r#""job":"streamed""#) || !frame.contains(r#""job":"#),
            "streamed frame for a foreign job: {frame}"
        );
    }
    server.shutdown();
}
