//! `service_mix`: an in-process `placer_serve::Server` with one worker and
//! two tenants. Each tenant is a `Client` on its own thread with one
//! request outstanding, submitting seeded SA and Xu19 jobs at paper
//! settings across the ten paper circuits. An op is one submit → report.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use analog_netlist::{parser::parse_placement, testcases, Circuit};
use placer_jobs::json::{parse_object, Json};
use placer_jobs::{normalize_timing, JobEngine, JobSpec, Profile};
use placer_serve::{Client, ClientError, Server, ServerConfig};

use crate::check::Output;
use crate::jobs::{self, CIRCUITS};
use crate::trace::Tracer;
use crate::util::{median, Rng};
use crate::{Config, Run, WORK_DIR};

const TENANTS: usize = 2;
const PLACERS: [&str; 2] = ["sa", "xu19"];
/// Jobs a run submits per second of `--seconds` (≈ what one worker
/// completes on the reference host), rounded to whole rounds of the
/// twenty (circuit, placer) pairs.
const JOBS_PER_SECOND: f64 = 17.0;
/// Server starts (with prewarm) per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The traced run replays every `REPLAY_STRIDE`-th job in-process to
/// split its execution into placer stages, which the wire does not carry.
const REPLAY_STRIDE: usize = 5;

/// One submit → report exchange, as the client saw it.
struct Exchange {
    spec: JobSpec,
    submit: Instant,
    accepted: Option<(Instant, usize)>,
    report: Result<(Instant, String), String>,
    rejected: bool,
}

fn field_num(pairs: &[(String, Json)], key: &str) -> Option<f64> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Json::Num(n) => Some(*n),
            _ => None,
        })
}

fn field_str<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

fn start_server(spool: &Path) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 64,
        tenant_quota: 16,
        spool: spool.to_path_buf(),
        eco_threshold: None,
        ledger: Some("none".into()),
    })
    .expect("server starts")
}

/// Fills the daemon's artifact cache (and SA's per-circuit tables, which
/// live in it) with one short SA job per circuit.
fn prewarm(server: &Server) {
    let mut client = Client::connect(server.addr(), "prewarm", false).expect("prewarm connects");
    for circuit in CIRCUITS {
        let mut spec = JobSpec::new(format!("warm-{circuit}"), circuit, "sa");
        spec.profile = Profile::Small;
        client.submit(&spec).expect("prewarm admitted");
        client.collect_reports(1).expect("prewarm report");
    }
    let _ = client.close();
}

/// Runs one tenant's closed loop.
fn tenant(addr: std::net::SocketAddr, name: &str, specs: Vec<JobSpec>) -> Vec<Exchange> {
    let mut out = Vec::with_capacity(specs.len());
    let mut client = match Client::connect(addr, name, false) {
        Ok(c) => c,
        Err(e) => {
            return specs
                .into_iter()
                .map(|spec| Exchange {
                    spec,
                    submit: Instant::now(),
                    accepted: None,
                    report: Err(format!("connect: {e}")),
                    rejected: false,
                })
                .collect()
        }
    };
    let _ = client.set_read_timeout(Some(Duration::from_secs(120)));
    for spec in specs {
        let submit = Instant::now();
        let (accepted, report, rejected) = match client.submit(&spec) {
            Ok(queued) => {
                let acc = Instant::now();
                let report = match client.collect_reports(1) {
                    Ok(mut lines) => Ok((Instant::now(), lines.remove(0))),
                    Err(e) => Err(e.to_string()),
                };
                (Some((acc, queued)), report, false)
            }
            Err(e @ ClientError::Protocol(_)) => (None, Err(format!("rejected: {e}")), true),
            Err(e) => (None, Err(e.to_string()), false),
        };
        out.push(Exchange {
            spec,
            submit,
            accepted,
            report,
            rejected,
        });
    }
    let _ = client.close();
    out
}

/// The seeded job lists, one per tenant: every (circuit, placer) pair
/// equally often, in a seeded order, each job with a seeded placer seed.
fn job_lists(seed: u64, rounds: usize, prefix: &str) -> Vec<Vec<JobSpec>> {
    let mut rng = Rng::new(seed);
    let mut pairs: Vec<(&str, &str)> = (0..rounds)
        .flat_map(|_| CIRCUITS.iter().flat_map(|&c| PLACERS.map(|p| (c, p))))
        .collect();
    rng.shuffle(&mut pairs);
    let mut lists = vec![Vec::new(); TENANTS];
    for (k, (circuit, placer)) in pairs.into_iter().enumerate() {
        let t = k % TENANTS;
        let mut spec = JobSpec::new(format!("{prefix}-t{t}-{}", k / TENANTS), circuit, placer);
        spec.seed = Some(rng.next_u64() % 1_000_000);
        lists[t].push(spec);
    }
    lists
}

/// One timed phase: both tenants run their lists to completion.
fn phase(server: &Server, lists: &[Vec<JobSpec>]) -> (f64, Vec<Exchange>) {
    let addr = server.addr();
    let t0 = Instant::now();
    let exchanges = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(t, specs)| {
                let specs = specs.clone();
                s.spawn(move || tenant(addr, &format!("tenant{t}"), specs))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread"))
            .collect::<Vec<_>>()
    });
    (t0.elapsed().as_secs_f64(), exchanges)
}

/// Records an exchange's spans: the op, split into queue wait (op −
/// report `wall_ms`) and execution (`wall_ms`), plus admission
/// (submit → accepted). Admission is kept out of the op's tree: the
/// worker may start the job before the accepted frame reaches the
/// client, so it overlaps both halves.
fn trace_exchange(tracer: &Tracer, op: usize, ex: &Exchange, wall_ms: f64) {
    let Ok((done, _)) = &ex.report else {
        return;
    };
    let root = tracer.timed("op", Some(op), None, ex.submit, *done);
    let op_ms = (*done - ex.submit).as_secs_f64() * 1e3;
    tracer.derived("serve.queue", root, op_ms - wall_ms, false);
    tracer.derived("serve.exec", root, wall_ms, true);
    if let Some((acc, _)) = ex.accepted {
        tracer.timed("serve.admit", Some(op), None, ex.submit, acc);
    }
}

pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let tracer = Tracer::new(cfg.trace);
    let spool_root = Path::new(WORK_DIR).join(format!("spool-{}", std::process::id()));

    let mut setups = Vec::new();
    let mut server = None;
    for r in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t0 = Instant::now();
        let s = start_server(&spool_root.join(r.to_string()));
        prewarm(&s);
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    run.setup_s = median(&setups);
    let server = server.expect("server");
    let place_dir = spool_root
        .join((SETUP_REPEATS - 1).to_string())
        .join("place");

    let rounds = ((cfg.seconds * JOBS_PER_SECOND / 20.0).round() as usize).max(1);
    let (hits0, misses0) = (server.cache_hits(), server.cache_misses());
    let preempted0 = server.queue_stats().preempted;

    let (wall_s, exchanges) = if cfg.trace {
        let (base_wall, base) = phase(&server, &job_lists(cfg.seed, rounds, "u"));
        let (wall, traced) = phase(&server, &job_lists(cfg.seed, rounds, "t"));
        run.layers
            .set("trace.overhead_ms", (wall - base_wall) * 1e3);
        for (a, b) in base.iter().zip(&traced) {
            let norm = |ex: &Exchange| {
                ex.report
                    .as_ref()
                    .map(|(_, line)| normalize_timing(&line.replace(&ex.spec.id, "")))
                    .map_err(Clone::clone)
            };
            if norm(a) != norm(b) {
                run.problems
                    .push(format!("{}: report differs between passes", b.spec.id));
            }
        }
        (wall, traced)
    } else {
        phase(&server, &job_lists(cfg.seed, rounds, "u"))
    };
    run.wall_s = wall_s;

    let (hits, misses) = (server.cache_hits() - hits0, server.cache_misses() - misses0);
    run.layers.set(
        "artifacts.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let preempted = server.queue_stats().preempted - preempted0;
    if preempted > 0 {
        run.problems.push(format!("{preempted} job(s) preempted"));
    }
    Server::shutdown(server);

    let circuits: HashMap<&str, Arc<Circuit>> = CIRCUITS
        .iter()
        .map(|&n| {
            let c = testcases::testcase_by_name(n).expect("paper circuit");
            run.checker.prepare(&c);
            (n, Arc::new(c))
        })
        .collect();
    let mut queued = Vec::new();
    let mut rejected = 0;
    for (op, ex) in exchanges.iter().enumerate() {
        let label = format!("{}/{}", ex.spec.circuit, ex.spec.placer);
        rejected += usize::from(ex.rejected);
        if let Some((_, q)) = ex.accepted {
            queued.push(q as f64);
        }
        let (latency_ms, output) = match &ex.report {
            Ok((done, line)) => {
                let ms = (*done - ex.submit).as_secs_f64() * 1e3;
                let pairs = parse_object(line).unwrap_or_default();
                let wall_ms = field_num(&pairs, "wall_ms").unwrap_or(0.0);
                trace_exchange(&tracer, op, ex, wall_ms);
                (ms, report_output(&pairs, &place_dir, &ex.spec, &circuits))
            }
            Err(e) => (
                (Instant::now() - ex.submit).as_secs_f64() * 1e3,
                Err(e.clone()),
            ),
        };
        run.push_op(&tracer, op, label, latency_ms, output, 0);
    }
    run.layers
        .set("serve.queued_ahead", crate::util::mean(&queued));
    run.layers.set("serve.rejected", rejected as f64);

    if cfg.trace {
        replay(&mut run, &tracer, &exchanges);
    }
    let _ = std::fs::remove_dir_all(&spool_root);
    run.spans = tracer.take();
    run
}

/// Reads the spooled placement a report points at.
fn report_output(
    pairs: &[(String, Json)],
    place_dir: &Path,
    spec: &JobSpec,
    circuits: &HashMap<&str, Arc<Circuit>>,
) -> Result<Output, String> {
    let status = field_str(pairs, "status").unwrap_or("?");
    if !matches!(status, "complete" | "exhausted") {
        return Err(field_str(pairs, "error").unwrap_or(status).to_string());
    }
    let (Some(hpwl), Some(area)) = (field_num(pairs, "hpwl"), field_num(pairs, "area")) else {
        return Err("report without hpwl/area".into());
    };
    let circuit = circuits[spec.circuit.as_str()].clone();
    let path = place_dir.join(format!("{}.place", spec.id));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let placement =
        parse_placement(&circuit, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Output {
        circuit,
        placement,
        hpwl,
        area,
        rounded: true,
    })
}

/// Replays a stride of the traced jobs through an in-process engine —
/// the batch twin of the daemon — to split execution into placer stages.
/// The replayed report must equal the daemon's (timing aside).
fn replay(run: &mut Run, tracer: &Tracer, exchanges: &[Exchange]) {
    let engine = JobEngine::default();
    for name in CIRCUITS {
        engine
            .cache
            .get_or_build_named(name, || testcases::testcase_by_name(name));
    }
    let base = exchanges.len();
    let (mut stages_ms, mut exec_ms) = (0.0, 0.0);
    for (k, ex) in exchanges.iter().step_by(REPLAY_STRIDE).enumerate() {
        let job = jobs::run_job(&engine, &ex.spec);
        let op = base + k;
        stages_ms += jobs::trace_job(tracer, op, &job);
        exec_ms += (job.end - job.start).as_secs_f64() * 1e3;
        if let Some(c) = &job.capture {
            run.layers.add(
                &format!("stage1.{}_iters", job.report.placer),
                c.iterations as f64,
            );
        }
        if let Ok((_, line)) = &ex.report {
            if normalize_timing(&job.report.to_line()) != normalize_timing(line) {
                run.problems.push(format!(
                    "{}: daemon report differs from the batch engine's",
                    ex.spec.id
                ));
            }
        }
    }
    run.layers
        .set("share.exec_stage12", stages_ms / exec_ms.max(1e-9));
}
