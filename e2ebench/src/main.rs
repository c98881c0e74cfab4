//! End-to-end benchmark of the analog placement workspace.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload service_mix|eco_session --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process with one placement
//! thread, checks every op's output, and prints one JSON object as the
//! last line of stdout: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A run's ops, spans and notes are also written to
//! `.e2ebench/<workload>-seed<N>-trace<T>.jsonl`. See `README.md`.

mod check;
mod eco;
mod jobs;
mod service;
mod trace;
mod util;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use placer_jobs::json::{escape, number};

use check::{Checker, Op, Output};
use trace::{Layers, Span, Tracer, MIN_COVERAGE};
use util::{geomean, mean, median, tail};

/// What one invocation was asked to do.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Working files, relative to where the benchmark runs: spool, stderr
/// log, run records.
pub const WORK_DIR: &str = ".e2ebench";

/// A workload's measurements, before reporting.
#[derive(Default)]
pub struct Run {
    pub setup_s: f64,
    pub wall_s: f64,
    pub ops: Vec<Op>,
    /// Per-layer values the workload measured directly (counts,
    /// fractions); timings come from the spans.
    pub layers: Layers,
    pub spans: Vec<Span>,
    /// Checks the program's outputs failed: the run is not `correct`.
    pub problems: Vec<String>,
    /// Observations worth recording that are not failures.
    pub notes: Vec<String>,
    pub checker: Checker,
}

impl Run {
    /// Checks an op's output (after the timed phase) and records the op.
    pub fn push_op(
        &mut self,
        tracer: &Tracer,
        op: usize,
        label: String,
        latency_ms: f64,
        output: Result<Output, String>,
        milp_capped: usize,
    ) {
        let outcome = output.and_then(|o| self.checker.check(tracer, op, &label, &o));
        self.ops.push(Op {
            label,
            latency_ms,
            passes_ms: vec![latency_ms],
            outcome,
            milp_capped,
        });
    }
}

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("lat_geomean_ms", "ms"),
    ("hpwl_geomean", "um"),
    ("area_geomean", "um2"),
    ("fom_mean", "1"),
    ("ok_frac", "1"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer timings; each reports `<name>_ms` (busy sum),
/// `<name>_p50_ms` and `<name>_calls`.
const LAYER_TIMINGS: [&str; 20] = [
    "stage1.eplace-a",
    "stage1.eplace-ap",
    "stage1.sa",
    "stage1.xu19",
    "stage2.eplace-a",
    "stage2.eplace-ap",
    "stage2.sa",
    "stage2.xu19",
    "artifacts.build",
    "jobs.overhead",
    "netlist.legal",
    "perf.eval",
    "netlist.delta",
    "eco.prepare",
    "eco.refine",
    "eco.region",
    "eco.fallback",
    "serve.admit",
    "serve.queue",
    "serve.exec",
];

/// Per-layer plain values: name, unit.
const LAYER_VALUES: [(&str, &str); 15] = [
    ("stage2.milp_capped", "count"),
    ("stage1.eplace-a_iters", "count"),
    ("stage1.eplace-ap_iters", "count"),
    ("stage1.sa_iters", "count"),
    ("stage1.xu19_iters", "count"),
    ("artifacts.hit_frac", "1"),
    ("eco.fast_frac", "1"),
    ("eco.infeasible", "count"),
    ("serve.queued_ahead", "count"),
    ("serve.rejected", "count"),
    ("share.eplace_stage2", "1"),
    ("share.exec_stage12", "1"),
    ("share.eco_region", "1"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage_min", "1"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload service_mix|eco_session --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Config> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return None,
        }
    }
    let workload = workload.filter(|w| matches!(w.as_str(), "service_mix" | "eco_session"))?;
    Some(Config {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// The traced run needs its own stderr as a file (the MILP time-cap
/// diagnostics are counted from it), so it re-runs itself with stderr
/// redirected, waits, and passes the log on.
fn run_traced_child() -> ExitCode {
    let log = Path::new(WORK_DIR).join(format!("stderr-{}.log", std::process::id()));
    let spawned = std::fs::File::create(&log).and_then(|file| {
        Command::new(std::env::current_exe()?)
            .args(std::env::args_os().skip(1))
            .env("E2EBENCH_STDERR", &log)
            .stderr(Stdio::from(file))
            .status()
    });
    if let Ok(text) = std::fs::read_to_string(&log) {
        eprint!("{text}");
    }
    let _ = std::fs::remove_file(&log);
    match spawned {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => ExitCode::from(status.code().unwrap_or(1).clamp(1, 255) as u8),
        Err(e) => {
            eprintln!("e2ebench: cannot start the traced run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let Some(cfg) = parse_args() else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("e2ebench: {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    if cfg.trace && std::env::var_os("E2EBENCH_STDERR").is_none() {
        return run_traced_child();
    }
    // One placement thread: the host has two cores and the harness (or
    // the daemon's clients) needs the other.
    std::env::set_var("PLACER_THREADS", "1");
    placer_parallel::set_max_threads(1);
    eprintln!(
        "e2ebench: {} seed={} seconds={} trace={} {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        util::fingerprint()
    );

    let mut run = match cfg.workload.as_str() {
        "service_mix" => service::run(&cfg),
        _ => eco::run(&cfg),
    };
    let problems = std::mem::take(&mut run.checker.problems);
    run.problems.extend(problems);
    report(&cfg, run)
}

/// Computes the metrics, writes the record file, prints the result line.
fn report(cfg: &Config, mut run: Run) -> ExitCode {
    let latencies: Vec<f64> = run.ops.iter().map(|o| o.latency_ms).collect();
    let good: Vec<_> = run
        .ops
        .iter()
        .filter_map(|o| o.outcome.as_ref().ok())
        .collect();
    let attempted = run.ops.len();
    let failed = attempted - good.len();
    let (lat_tail, tail_pct) = tail(&latencies);
    let e2e = [
        run.setup_s,
        run.wall_s,
        median(&latencies),
        lat_tail,
        geomean(&latencies),
        geomean(&good.iter().map(|q| q.hpwl).collect::<Vec<_>>()),
        geomean(&good.iter().map(|q| q.area).collect::<Vec<_>>()),
        mean(&good.iter().map(|q| q.fom).collect::<Vec<_>>()),
        good.len() as f64 / attempted.max(1) as f64,
        util::peak_rss_mb(),
    ];

    let coverage = trace::coverage(&run.spans);
    let coverage_min = coverage.values().copied().fold(1.0_f64, f64::min);
    if cfg.trace {
        if coverage.is_empty() {
            run.problems.push("traced run recorded no op spans".into());
        }
        for (op, share) in &coverage {
            if *share < MIN_COVERAGE {
                run.problems.push(format!(
                    "op {op}: layer spans cover {:.1}% of its latency (< {:.0}%)",
                    share * 100.0,
                    MIN_COVERAGE * 100.0
                ));
            }
        }
    }
    run.layers.add_spans(&run.spans);
    run.layers.set("trace.coverage_min", coverage_min);

    let mut metrics = Vec::new();
    if cfg.trace {
        for base in LAYER_TIMINGS {
            for (suffix, unit) in [("_ms", "ms"), ("_p50_ms", "ms"), ("_calls", "count")] {
                let name = format!("{base}{suffix}");
                metrics.push((name.clone(), run.layers.metric(&name), unit));
            }
        }
        for (name, unit) in LAYER_VALUES {
            metrics.push((name.to_string(), run.layers.metric(name), unit));
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            metrics.push((name.to_string(), v, unit));
        }
    }

    write_record(cfg, &run, &e2e, tail_pct, &coverage);
    let correct = run.problems.is_empty();
    eprintln!(
        "e2ebench: {} ops, {failed} failed, lat_tail = p{tail_pct:.1} of {attempted}, setup {:.3} s, wall {:.3} s, correct={correct}",
        attempted, run.setup_s, run.wall_s
    );
    for p in run.problems.iter().take(20) {
        eprintln!("e2ebench: problem: {p}");
    }
    for n in run.notes.iter().take(20) {
        eprintln!("e2ebench: note: {n}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, number(*v))
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the run's record: a header, one line per op, one per span.
fn write_record(
    cfg: &Config,
    run: &Run,
    e2e: &[f64],
    tail_pct: f64,
    coverage: &std::collections::BTreeMap<usize, f64>,
) {
    use std::fmt::Write as _;
    let own = trace::self_times(&run.spans);
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "host": "{}", "lat_tail_percentile": {}, "ops": {}"#,
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        escape(&util::fingerprint()),
        number(tail_pct),
        run.ops.len()
    );
    for ((name, _), v) in END_TO_END.iter().zip(e2e) {
        let _ = write!(out, r#", "{name}": {}"#, number(*v));
    }
    let _ = writeln!(
        out,
        r#", "problems": {}, "notes": {}}}"#,
        run.problems.len(),
        run.notes.len()
    );
    for (i, op) in run.ops.iter().enumerate() {
        let (ok, detail) = match &op.outcome {
            Ok(q) => (
                true,
                format!(
                    r#""hpwl": {}, "area": {}, "fom": {}"#,
                    number(q.hpwl),
                    number(q.area),
                    number(q.fom)
                ),
            ),
            Err(e) => (false, format!(r#""error": "{}""#, escape(e))),
        };
        let cov = coverage.get(&i).map_or("null".into(), |c| number(*c));
        let _ = writeln!(
            out,
            r#"{{"op": {i}, "label": "{}", "latency_ms": {}, "passes_ms": [{}], "ok": {ok}, {detail}, "milp_capped": {}, "coverage": {cov}}}"#,
            escape(&op.label),
            number(op.latency_ms),
            op.passes_ms
                .iter()
                .map(|v| number(*v))
                .collect::<Vec<_>>()
                .join(", "),
            op.milp_capped
        );
    }
    for (i, s) in run.spans.iter().enumerate() {
        let _ = writeln!(out, "{}", trace::span_line(i, s, own[i]));
    }
    for p in &run.problems {
        let _ = writeln!(out, r#"{{"problem": "{}"}}"#, escape(p));
    }
    for n in &run.notes {
        let _ = writeln!(out, r#"{{"note": "{}"}}"#, escape(n));
    }
    let path = Path::new(WORK_DIR).join(format!(
        "{}-seed{}-trace{}.jsonl",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("e2ebench: {}: {e}", path.display());
    }
}
