//! Runs a batched placer sweep: one circuit expanded over seed ×
//! utilization × aspect × relaxation variants, the full placer portfolio
//! raced per variant on a shared artifact cache, one JSONL report row per
//! racer.
//!
//! ```text
//! sweep [--circuit NAME] [--placers A,B,...] [--seeds LIST|LO-HI]
//!       [--utils U,...] [--aspects A,...] [--relax R,...]
//!       [--profile default|small]
//!       [--rounds N] [--round-checks N] [--kill-ratio X] [--min-survivors N]
//!       [--pareto] [--stable] [--expect-killed N]
//!       [--expect-pareto N] [--expect-hit-rate PCT]
//!       [--out REPORTS.jsonl] [--threads N] [--progress[=human|jsonl]]
//!       [--trace[=FILE]] [--ledger none|PATH]
//! ```
//!
//! - `--seeds` takes a comma list (`1,2,7`) or an inclusive range
//!   (`1-64`); `--utils` a comma list of densities in `(0, 1]`;
//!   `--aspects` a comma list of region W/H ratios (finite, positive);
//!   `--relax` a comma list of constraint relaxations in `[0, 1)` (each
//!   scales the symmetry penalty by `1 - relax`).
//! - `--rounds`/`--round-checks`/`--kill-ratio`/`--min-survivors` tune
//!   the racing policy (see `placer_sweep::RaceConfig`).
//! - `--stable` runs the whole sweep twice — on one thread, then on
//!   four — and fails unless reports (modulo wall-clock) and the Pareto
//!   front are identical: the racing determinism contract.
//! - `--expect-killed N` / `--expect-pareto N` / `--expect-hit-rate PCT`
//!   are the CI assertion hooks: at least N racers killed by the
//!   tournament, at least N Pareto points, cache hit rate above PCT
//!   percent.
//! - The shared flags (`--out`, `--threads`, `--progress`, `--trace`,
//!   `--ledger`) are documented in [`placer_bench::cli`]; they spell the
//!   same on every batch binary.
//!
//! Stdout carries only report JSONL (and `--pareto` lines); the human
//! summary goes through `vlog!` (set `PLACER_VERBOSE=1`).
//!
//! Exit code is `0` on success, `1` on bad usage, `2` when an assertion
//! (`--stable` or any `--expect-*`) is violated.

use std::process::ExitCode;

use placer_bench::cli::{parse_floats, parse_seeds, value, CommonOpts, ObsSession, COMMON_USAGE};
use placer_jobs::{normalize_timing, Profile};
use placer_obs::ledger::RunLedger;
use placer_obs::progress;
use placer_sweep::{SweepConfig, SweepEngine, SweepResult};
use placer_telemetry::vlog;

struct Options {
    config: SweepConfig,
    pareto: bool,
    stable: bool,
    expect_killed: Option<usize>,
    expect_pareto: Option<usize>,
    expect_hit_rate: Option<f64>,
    common: CommonOpts,
}

fn usage() -> String {
    format!(
        "usage: sweep [--circuit NAME] [--placers A,B,...] [--seeds LIST|LO-HI] \
         [--utils U,...] [--aspects A,...] [--relax R,...] \
         [--profile default|small] [--rounds N] [--round-checks N] \
         [--kill-ratio X] [--min-survivors N] [--pareto] [--stable] \
         [--expect-killed N] [--expect-pareto N] [--expect-hit-rate PCT] {COMMON_USAGE}"
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: SweepConfig::default(),
        pareto: false,
        stable: false,
        expect_killed: None,
        expect_pareto: None,
        expect_hit_rate: None,
        common: CommonOpts::new()?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.take(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--circuit" => opts.config.circuit = value("--circuit", &mut it)?,
            "--placers" => {
                opts.config.placers = value("--placers", &mut it)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--seeds" => opts.config.seeds = parse_seeds(&value("--seeds", &mut it)?)?,
            "--utils" => {
                opts.config.utilizations =
                    parse_floats(&value("--utils", &mut it)?, "utilization")?;
            }
            "--aspects" => {
                opts.config.aspects = parse_floats(&value("--aspects", &mut it)?, "aspect")?;
            }
            "--relax" => {
                opts.config.relaxations = parse_floats(&value("--relax", &mut it)?, "relaxation")?;
            }
            "--profile" => {
                opts.config.profile = match value("--profile", &mut it)?.as_str() {
                    "default" => Profile::Default,
                    "small" => Profile::Small,
                    other => return Err(format!("unknown profile `{other}`")),
                };
            }
            "--rounds" => {
                let v = value("--rounds", &mut it)?;
                opts.config.race.rounds = v.parse().map_err(|_| format!("bad rounds `{v}`"))?;
            }
            "--round-checks" => {
                let v = value("--round-checks", &mut it)?;
                opts.config.race.round_checks =
                    v.parse().map_err(|_| format!("bad round checks `{v}`"))?;
            }
            "--kill-ratio" => {
                let v = value("--kill-ratio", &mut it)?;
                opts.config.race.kill_ratio =
                    v.parse().map_err(|_| format!("bad kill ratio `{v}`"))?;
            }
            "--min-survivors" => {
                let v = value("--min-survivors", &mut it)?;
                opts.config.race.min_survivors =
                    v.parse().map_err(|_| format!("bad survivor count `{v}`"))?;
            }
            "--pareto" => opts.pareto = true,
            "--stable" => opts.stable = true,
            "--expect-killed" => {
                let v = value("--expect-killed", &mut it)?;
                opts.expect_killed = Some(v.parse().map_err(|_| format!("bad count `{v}`"))?);
            }
            "--expect-pareto" => {
                let v = value("--expect-pareto", &mut it)?;
                opts.expect_pareto = Some(v.parse().map_err(|_| format!("bad count `{v}`"))?);
            }
            "--expect-hit-rate" => {
                let v = value("--expect-hit-rate", &mut it)?;
                opts.expect_hit_rate = Some(v.parse().map_err(|_| format!("bad percent `{v}`"))?);
            }
            flag => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if opts.common.eco_threshold.is_some() {
        return Err(
            "`--eco-threshold` does not apply to sweeps (ECO decks ride on job specs)".into(),
        );
    }
    Ok(opts)
}

/// The Pareto front in a canonical text form (for `--pareto` output and
/// the `--stable` comparison).
fn pareto_lines(result: &SweepResult) -> String {
    let mut out = String::new();
    for p in &result.pareto {
        out.push_str(&format!(
            "pareto: variant={} placer={} hpwl={:.6} area={:.6} fom={:.6}\n",
            p.variant,
            p.placer,
            p.hpwl,
            p.area,
            p.fom()
        ));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("sweep: {e}\n{}", usage());
            return ExitCode::from(1);
        }
    };

    let session = match ObsSession::start("sweep", &opts.common) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(1);
        }
    };

    let run = || SweepEngine::new(opts.config.clone()).run();
    let result = if opts.stable {
        // The determinism contract, exercised end to end: a one-thread
        // sweep and a four-thread one must produce identical reports
        // (modulo wall-clock) and an identical Pareto front.
        placer_parallel::set_max_threads(1);
        let one = run();
        let four = one.as_ref().ok().map(|_| {
            placer_parallel::set_max_threads(4);
            run()
        });
        placer_parallel::set_max_threads(opts.common.threads.unwrap_or(0));
        match (one, four) {
            (Ok(a), Some(Ok(b))) => {
                let left = normalize_timing(&a.to_jsonl());
                let right = normalize_timing(&b.to_jsonl());
                if left != right || pareto_lines(&a) != pareto_lines(&b) {
                    eprintln!("sweep: --stable violated: 1-thread and 4-thread runs disagree");
                    for (l, r) in left.lines().zip(right.lines()) {
                        if l != r {
                            eprintln!("sweep:   1 thread:  {l}");
                            eprintln!("sweep:   4 threads: {r}");
                        }
                    }
                    return ExitCode::from(2);
                }
                vlog!(1, "stable: 1-thread and 4-thread runs identical");
                a
            }
            (Err(e), _) | (_, Some(Err(e))) => {
                eprintln!("sweep: {e}");
                return ExitCode::from(1);
            }
            (_, None) => unreachable!("4-thread leg runs when the 1-thread leg succeeded"),
        }
    } else {
        opts.common.apply_threads();
        match run() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("sweep: {e}");
                return ExitCode::from(1);
            }
        }
    };

    let (metrics, wall_ms) = session.finish();

    let lines = result.to_jsonl();
    print!("{lines}");
    if let Err(e) = opts.common.write_out(&lines) {
        eprintln!("sweep: {e}");
        return ExitCode::from(1);
    }
    if opts.pareto {
        print!("{}", pareto_lines(&result));
    }
    // The human summary stays off stdout (reports only) and off the
    // `--progress` stderr stream: verbosity-gated like every other
    // diagnostic line.
    vlog!(
        1,
        "sweep: {} variants on {}, {} killed, {} pareto points, \
         cache {}/{} ({:.1}% hits)",
        result.variants.len(),
        opts.config.circuit,
        result.killed(),
        result.pareto.len(),
        result.cache_hits,
        result.cache_hits + result.cache_misses,
        100.0 * result.cache_hit_rate()
    );

    let ledger = RunLedger::from_flag(opts.common.ledger.as_deref());
    let logged = ledger.record("sweep", |record| {
        record
            .str_field("circuit", &opts.config.circuit)
            .uint("variants", result.variants.len() as u64)
            .uint(
                "racers",
                result.variants.iter().map(|v| v.reports.len() as u64).sum(),
            )
            .uint("killed", result.killed() as u64)
            .uint("pareto", result.pareto.len() as u64)
            .uint("cache_hits", result.cache_hits)
            .uint("cache_misses", result.cache_misses)
            .num("cache_hit_rate", result.cache_hit_rate())
            .num("wall_ms", wall_ms)
            .str_field("simd", placer_simd::selected().name())
            .uint("threads", placer_parallel::max_threads() as u64)
            .flag("stable", opts.stable)
            .uint("progress_dropped", progress::dropped())
            .metrics(&metrics);
    });
    if let Err(e) = logged {
        eprintln!("sweep: appending run ledger: {e}");
    }

    let mut ok = true;
    if let Some(want) = opts.expect_killed {
        let got = result.killed();
        if got < want {
            eprintln!("sweep: expected at least {want} killed racers, got {got}");
            ok = false;
        }
    }
    if let Some(want) = opts.expect_pareto {
        let got = result.pareto.len();
        if got < want {
            eprintln!("sweep: expected at least {want} Pareto points, got {got}");
            ok = false;
        }
    }
    if let Some(want) = opts.expect_hit_rate {
        let got = 100.0 * result.cache_hit_rate();
        if got <= want {
            eprintln!("sweep: expected cache hit rate above {want}%, got {got:.1}%");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
