//! Runs the placement daemon: a resident `JobEngine` behind a TCP line
//! protocol, sharing one artifact cache across every connection.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue-capacity N] [--quota N]
//!       [--spool DIR] [--threads N] [--eco-threshold F]
//!       [--progress[=human|jsonl]] [--trace[=FILE]] [--ledger none|PATH]
//! ```
//!
//! - `--addr` is the listen address (default `127.0.0.1:7421`; port `0`
//!   picks a free one). The bound address is announced on stdout as a
//!   `{"type": "listening", ...}` frame so scripts can scrape the port.
//! - `--workers N` sizes the execution pool (concurrent jobs), distinct
//!   from `--threads N` which sizes the per-job solver pool.
//! - `--queue-capacity N` / `--quota N` bound admission: total queued
//!   entries, and queued-or-running entries per tenant.
//! - `--spool DIR` holds checkpoints and placements (default a fresh
//!   temp directory); preempted jobs park their state here and resume
//!   bit-identically.
//! - `--progress` mirrors the daemon's own progress stream to stderr
//!   (clients that ask `stream: true` get their frames over the wire
//!   either way); `--trace` captures a telemetry trace of the daemon
//!   process. Both require a `telemetry` build, like everywhere else.
//! - `--ledger` is the daemon-side run ledger: one `serve` record per
//!   connection, delivered report and shutdown (default
//!   `results/ledger.jsonl`).
//!
//! The process parks until a client sends a `shutdown` frame (see
//! `submit --shutdown`), then drains admitted work and exits `0`.

use std::process::ExitCode;

use placer_bench::cli::{value, CommonOpts, ObsSession};
use placer_serve::{Server, ServerConfig};

struct Options {
    config: ServerConfig,
    common: CommonOpts,
}

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--queue-capacity N] \
     [--quota N] [--spool DIR] [--threads N] [--eco-threshold F] \
     [--progress[=human|jsonl]] [--trace[=FILE]] [--ledger none|PATH]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: ServerConfig {
            addr: "127.0.0.1:7421".to_string(),
            ledger: None,
            ..ServerConfig::default()
        },
        common: CommonOpts::new()?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.take(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--addr" => opts.config.addr = value("--addr", &mut it)?,
            "--workers" => {
                let v = value("--workers", &mut it)?;
                opts.config.workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--queue-capacity" => {
                let v = value("--queue-capacity", &mut it)?;
                opts.config.queue_capacity =
                    v.parse().map_err(|_| format!("bad capacity `{v}`"))?;
            }
            "--quota" => {
                let v = value("--quota", &mut it)?;
                opts.config.tenant_quota = v.parse().map_err(|_| format!("bad quota `{v}`"))?;
            }
            "--spool" => opts.config.spool = value("--spool", &mut it)?.into(),
            flag => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if opts.common.out.is_some() {
        return Err("`--out` does not apply to the daemon (reports go to clients)".into());
    }
    opts.config.eco_threshold = opts.common.eco_threshold;
    opts.config.ledger = opts.common.ledger.clone();
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("serve: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };

    opts.common.apply_threads();
    // Install the local observers first: `Server::start` respects an
    // already-installed progress sink instead of its silent default.
    let session = match ObsSession::start("serve", &opts.common) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(1);
        }
    };

    let server = match Server::start(opts.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: starting daemon: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        r#"{{"type": "listening", "v": 1, "addr": "{}", "simd": "{}"}}"#,
        server.addr(),
        placer_simd::selected().name()
    );
    // Scripts block on this frame to learn the port; stdout is fully
    // buffered when piped, so push it out before parking.
    let _ = std::io::Write::flush(&mut std::io::stdout());

    server.wait();
    session.finish();
    ExitCode::SUCCESS
}
