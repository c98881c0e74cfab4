//! Runs a batch of placement jobs described as JSONL
//! [`JobSpec`](placer_jobs::JobSpec)s.
//!
//! Reads one JSON object per line from the input file (or stdin when the
//! path is `-`), fans the jobs out over the worker pool, and prints one
//! [`JobReport`](placer_jobs::JobReport) JSON object per job, in input
//! order.
//!
//! ```text
//! jobs SPECS.jsonl [--checkpoint-dir DIR] [--placements-dir DIR]
//!                  [--resume] [--cancel-after-checks N] [--expect STATUS]
//!                  [--out REPORTS.jsonl] [--threads N] [--eco-threshold F]
//!                  [--progress[=human|jsonl]] [--trace[=FILE]]
//!                  [--ledger none|PATH]
//! ```
//!
//! - `--checkpoint-dir DIR`: cancelled jobs write `<id>.ckpt` here;
//!   with `--resume`, jobs whose checkpoint exists continue from it.
//! - `--placements-dir DIR`: solved jobs write `<id>.place` here.
//! - `--cancel-after-checks N`: overrides every spec's cancellation point
//!   (the kill half of a kill-and-resume smoke test).
//! - `--expect STATUS`: exit nonzero unless every job ends in STATUS
//!   with a legal placement where one is produced — the CI assertion hook.
//! - The shared flags (`--out`, `--threads`, `--eco-threshold`,
//!   `--progress`, `--trace`, `--ledger`) are documented in
//!   [`placer_bench::cli`]; they spell the same on every batch binary.
//!
//! Exit code is `0` on success, `1` on bad usage or unparseable specs,
//! `2` when `--expect` is violated or any job fails unexpectedly.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::ExitCode;

use placer_bench::cli::{parse_status, value, CommonOpts, ObsSession, COMMON_USAGE};
use placer_jobs::{parse_jobs, JobEngine, JobStatus};
use placer_obs::ledger::{LedgerRecord, RunLedger};
use placer_obs::progress;

struct Options {
    specs_path: String,
    engine: JobEngine,
    cancel_after_checks: Option<u64>,
    expect: Option<JobStatus>,
    common: CommonOpts,
}

fn usage() -> String {
    format!(
        "usage: jobs SPECS.jsonl [--checkpoint-dir DIR] [--placements-dir DIR] \
         [--resume] [--cancel-after-checks N] [--expect STATUS] {COMMON_USAGE}"
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        specs_path: String::new(),
        engine: JobEngine::default(),
        cancel_after_checks: None,
        expect: None,
        common: CommonOpts::new()?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.take(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--checkpoint-dir" => {
                opts.engine.checkpoint_dir =
                    Some(PathBuf::from(value("--checkpoint-dir", &mut it)?));
            }
            "--placements-dir" => {
                opts.engine.placement_dir =
                    Some(PathBuf::from(value("--placements-dir", &mut it)?));
            }
            "--resume" => opts.engine.resume = true,
            "--cancel-after-checks" => {
                let v = value("--cancel-after-checks", &mut it)?;
                opts.cancel_after_checks =
                    Some(v.parse().map_err(|_| format!("bad check count `{v}`"))?);
            }
            "--expect" => opts.expect = Some(parse_status(&value("--expect", &mut it)?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if opts.specs_path.is_empty() => opts.specs_path = path.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if opts.specs_path.is_empty() {
        return Err("missing spec file".into());
    }
    if let Some(t) = opts.common.eco_threshold {
        opts.engine.eco.dirty_threshold = t;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("jobs: {e}\n{}", usage());
            return ExitCode::from(1);
        }
    };
    let mut specs = match read_specs(&opts.specs_path)
        .and_then(|t| parse_jobs(&t).map_err(|e| format!("{}: {e}", opts.specs_path)))
    {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("jobs: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(n) = opts.cancel_after_checks {
        for spec in &mut specs {
            spec.cancel_after_checks = Some(n);
        }
    }
    for dir in [&opts.engine.checkpoint_dir, &opts.engine.placement_dir]
        .into_iter()
        .flatten()
    {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("jobs: creating {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }

    opts.common.apply_threads();
    let session = match ObsSession::start("jobs", &opts.common) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("jobs: {e}");
            return ExitCode::from(1);
        }
    };

    let reports = opts.engine.run(&specs);

    let (metrics, wall_ms) = session.finish();

    let mut lines = String::new();
    for report in &reports {
        lines.push_str(&report.to_line());
        lines.push('\n');
    }
    print!("{lines}");
    if let Err(e) = opts.common.write_out(&lines) {
        eprintln!("jobs: {e}");
        return ExitCode::from(1);
    }

    let ledger = RunLedger::from_flag(opts.common.ledger.as_deref());
    let mut record = LedgerRecord::new("jobs");
    record
        .str_field("specs", &opts.specs_path)
        .uint("jobs", reports.len() as u64)
        .num("wall_ms", wall_ms)
        .str_field("simd", placer_simd::selected().name())
        .uint("threads", placer_parallel::max_threads() as u64)
        .flag("resume", opts.engine.resume)
        .uint("progress_dropped", progress::dropped());
    for (key, status) in [
        ("complete", JobStatus::Complete),
        ("exhausted", JobStatus::Exhausted),
        ("cancelled", JobStatus::Cancelled),
        ("killed", JobStatus::Killed),
        ("failed", JobStatus::Failed),
    ] {
        let n = reports.iter().filter(|r| r.status == status).count();
        record.uint(key, n as u64);
    }
    for (key, mode) in [("eco_fast", "fast"), ("eco_fallback", "fallback")] {
        let n = reports.iter().filter(|r| r.eco == Some(mode)).count();
        record.uint(key, n as u64);
    }
    record.metrics(&metrics);
    if let Err(e) = ledger.append(&record) {
        eprintln!("jobs: appending run ledger: {e}");
    }

    let mut ok = true;
    for report in &reports {
        if let Some(expected) = opts.expect {
            if report.status != expected {
                eprintln!(
                    "jobs: job `{}` ended {} (expected {})",
                    report.id,
                    report.status.as_str(),
                    expected.as_str()
                );
                ok = false;
            }
        } else if report.status == JobStatus::Failed {
            eprintln!(
                "jobs: job `{}` failed: {}",
                report.id,
                report.error.as_deref().unwrap_or("unknown error")
            );
            ok = false;
        }
        if report.legal == Some(false) {
            eprintln!("jobs: job `{}` produced an illegal placement", report.id);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
