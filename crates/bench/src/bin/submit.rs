//! Submits a batch of placement jobs to a running `serve` daemon and
//! prints the report lines the daemon sends back — the client half of the
//! wire protocol, shaped so `submit` against a daemon is a drop-in for
//! `jobs` against the local engine.
//!
//! ```text
//! submit SPECS.jsonl [--addr HOST:PORT] [--tenant NAME] [--expect STATUS]
//!                    [--expect-hit-rate PCT] [--stats] [--shutdown]
//!                    [--out REPORTS.jsonl] [--progress[=human|jsonl]]
//!                    [--ledger none|PATH]
//! ```
//!
//! - Reads one [`placer_jobs::JobSpec`] JSON object per line from the
//!   input file (or stdin when the path is `-`), submits them all on one
//!   connection, and prints one verbatim report line per job **in input
//!   order** — byte-identical (modulo wall-clock fields) to what `jobs`
//!   would print for the same specs.
//! - A structured rejection (queue full, quota, draining, duplicate id)
//!   is printed to stderr and exits `2`; nothing is silently dropped.
//! - `--expect STATUS` asserts every report's terminal status, like
//!   `jobs --expect`.
//! - `--stats` appends the daemon's `stats` frame to stdout after the
//!   reports; `--expect-hit-rate PCT` additionally exits `2` unless the
//!   daemon-wide artifact-cache hit rate is above PCT percent.
//! - `--progress` asks the daemon to stream progress frames for this
//!   connection's jobs and echoes them to stderr as they arrive
//!   (requires a `telemetry` daemon build).
//! - `--shutdown` asks the daemon to drain and exit after this batch.
//!
//! Exit code is `0` on success, `1` on bad usage or connection failure,
//! `2` on a rejection or a violated `--expect*` assertion.

use std::io::Read as _;
use std::process::ExitCode;

use placer_bench::cli::{parse_status, value, CommonOpts, COMMON_USAGE};
use placer_jobs::{parse_jobs, JobStatus};
use placer_obs::json::{field, parse_object};
use placer_obs::ledger::RunLedger;
use placer_serve::{report_id, Client, ClientError};

struct Options {
    specs_path: String,
    addr: String,
    tenant: String,
    expect: Option<JobStatus>,
    expect_hit_rate: Option<f64>,
    stats: bool,
    shutdown: bool,
    common: CommonOpts,
}

fn usage() -> String {
    format!(
        "usage: submit SPECS.jsonl [--addr HOST:PORT] [--tenant NAME] [--expect STATUS] \
         [--expect-hit-rate PCT] [--stats] [--shutdown] {COMMON_USAGE}"
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        specs_path: String::new(),
        addr: "127.0.0.1:7421".to_string(),
        tenant: "cli".to_string(),
        expect: None,
        expect_hit_rate: None,
        stats: false,
        shutdown: false,
        common: CommonOpts::new()?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.take(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr", &mut it)?,
            "--tenant" => opts.tenant = value("--tenant", &mut it)?,
            "--expect" => opts.expect = Some(parse_status(&value("--expect", &mut it)?)?),
            "--expect-hit-rate" => {
                let v = value("--expect-hit-rate", &mut it)?;
                opts.expect_hit_rate = Some(v.parse().map_err(|_| format!("bad percent `{v}`"))?);
            }
            "--stats" => opts.stats = true,
            "--shutdown" => opts.shutdown = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if opts.specs_path.is_empty() => opts.specs_path = path.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if opts.specs_path.is_empty() && !(opts.stats || opts.shutdown) {
        return Err("missing spec file".into());
    }
    // These knobs live on the daemon; refusing beats silently ignoring.
    if opts.common.threads.is_some() {
        return Err("`--threads` is daemon-side; pass it to `serve`".into());
    }
    if opts.common.eco_threshold.is_some() {
        return Err("`--eco-threshold` is daemon-side; pass it to `serve`".into());
    }
    if opts.common.trace.is_some() {
        return Err("`--trace` is daemon-side; pass it to `serve`".into());
    }
    Ok(opts)
}

fn read_specs(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// The `status` field of a verbatim report line (for `--expect`).
fn report_status(line: &str) -> Option<JobStatus> {
    let pairs = parse_object(line).ok()?;
    JobStatus::parse(field(&pairs, "status")?.as_str()?)
}

/// The `cache_hit_rate` field of a `stats` frame, as a percentage.
fn stats_hit_rate(frame: &str) -> Option<f64> {
    let pairs = parse_object(frame).ok()?;
    Some(100.0 * field(&pairs, "cache_hit_rate")?.as_num()?)
}

fn fail(e: &ClientError) -> ExitCode {
    eprintln!("submit: {e}");
    match e {
        ClientError::Protocol(_) => ExitCode::from(2),
        _ => ExitCode::from(1),
    }
}

fn main() -> ExitCode {
    let t0 = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("submit: {e}\n{}", usage());
            return ExitCode::from(1);
        }
    };
    let specs = if opts.specs_path.is_empty() {
        Vec::new()
    } else {
        match read_specs(&opts.specs_path)
            .and_then(|t| parse_jobs(&t).map_err(|e| format!("{}: {e}", opts.specs_path)))
        {
            Ok(specs) => specs,
            Err(e) => {
                eprintln!("submit: {e}");
                return ExitCode::from(1);
            }
        }
    };

    let stream = opts.common.progress.is_some();
    let mut client = match Client::connect(&opts.addr, &opts.tenant, stream) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("submit: connecting to {}: {e}", opts.addr);
            return ExitCode::from(match e {
                ClientError::Protocol(_) => 2,
                _ => 1,
            });
        }
    };

    for spec in &specs {
        if let Err(e) = client.submit(spec) {
            return fail(&e);
        }
    }
    let arrived = match client.collect_reports(specs.len()) {
        Ok(lines) => lines,
        Err(e) => return fail(&e),
    };
    for frame in client.progress_lines() {
        eprintln!("{frame}");
    }
    // Completion order is scheduling order (deadlines, preemption);
    // reports are re-keyed back to input order like `jobs` prints them.
    let mut lines = String::new();
    for spec in &specs {
        let line = arrived
            .iter()
            .find(|l| report_id(l).as_deref() == Some(spec.id.as_str()));
        match line {
            Some(line) => {
                lines.push_str(line);
                lines.push('\n');
            }
            None => {
                eprintln!("submit: no report for job `{}`", spec.id);
                return ExitCode::from(2);
            }
        }
    }
    print!("{lines}");
    if let Err(e) = opts.common.write_out(&lines) {
        eprintln!("submit: {e}");
        return ExitCode::from(1);
    }

    let mut ok = true;
    let stats_frame = if opts.stats || opts.expect_hit_rate.is_some() {
        match client.stats() {
            Ok(frame) => Some(frame),
            Err(e) => return fail(&e),
        }
    } else {
        None
    };
    if let Some(frame) = &stats_frame {
        if opts.stats {
            println!("{frame}");
        }
        if let Some(want) = opts.expect_hit_rate {
            match stats_hit_rate(frame) {
                Some(got) if got > want => {}
                Some(got) => {
                    eprintln!("submit: expected cache hit rate above {want}%, got {got:.1}%");
                    ok = false;
                }
                None => {
                    eprintln!("submit: stats frame carried no cache_hit_rate: {frame}");
                    ok = false;
                }
            }
        }
    }

    if opts.shutdown {
        if let Err(e) = client.shutdown_server() {
            return fail(&e);
        }
    } else if let Err(e) = client.close() {
        return fail(&e);
    }

    let ledger = RunLedger::from_flag(opts.common.ledger.as_deref());
    let logged = ledger.record("submit", |record| {
        record
            .str_field("addr", &opts.addr)
            .str_field("tenant", &opts.tenant)
            .uint("jobs", specs.len() as u64)
            .flag("stream", stream)
            .flag("shutdown", opts.shutdown)
            .num("wall_ms", t0.elapsed().as_secs_f64() * 1e3);
    });
    if let Err(e) = logged {
        eprintln!("submit: appending run ledger: {e}");
    }

    for line in lines.lines() {
        match (opts.expect, report_status(line)) {
            (Some(expected), Some(got)) if got != expected => {
                eprintln!(
                    "submit: job `{}` ended {} (expected {})",
                    report_id(line).unwrap_or_default(),
                    got.as_str(),
                    expected.as_str()
                );
                ok = false;
            }
            (Some(_), None) => {
                eprintln!("submit: report line carried no status: {line}");
                ok = false;
            }
            (None, Some(JobStatus::Failed)) => {
                eprintln!(
                    "submit: job `{}` failed",
                    report_id(line).unwrap_or_default()
                );
                ok = false;
            }
            _ => {}
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
