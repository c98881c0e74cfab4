//! Bit-identity of traced vs. untraced runs: instrumentation is
//! observation-only, so installing a telemetry sink must not change a
//! single bit of any solver's output — same seeds, with and without the
//! GNN Φ term.
//!
//! The traced leg carries the full observability stack, not just the file
//! sink: a live JSONL [`placer_obs::progress`] sink taps the same events
//! through the observer hook, and a [`MetricsSnapshot`] is captured while
//! the stats registries are hot. Neither may perturb a single output bit.

use analog_netlist::{testcases, Placement};
use eplace::{run_perf_global, GlobalPlacer, PlacerConfig};
use placer_gnn::Network;
use placer_obs::metrics::MetricsSnapshot;
use placer_obs::progress::{self, ProgressMode};
use placer_sa::{anneal, AnnealResult, PerfCost, SaConfig};

fn with_sink<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "placer_identity_{}_{name}.jsonl",
        std::process::id()
    ));
    let progress_path = dir.join(format!(
        "placer_identity_{}_{name}_progress.jsonl",
        std::process::id()
    ));
    placer_telemetry::install(&path).expect("install sink");
    progress::install_to_file(&progress_path, ProgressMode::Jsonl).expect("install progress");
    let out = {
        let _scope = progress::job_scope(name, Some(60_000.0));
        f()
    };
    // Snapshot while counters and spans are still hot: capture must be a
    // pure read, so taking it mid-run cannot influence the comparison.
    let snapshot = MetricsSnapshot::capture();
    let json = snapshot.to_flat_json();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "snapshot JSON malformed"
    );
    placer_telemetry::flush();
    placer_telemetry::flush_stats();
    progress::uninstall();
    placer_telemetry::uninstall();
    let stream = std::fs::read_to_string(&progress_path).expect("read progress stream");
    for line in stream.lines() {
        let kv = placer_obs::json::parse_object(line)
            .unwrap_or_else(|e| panic!("progress line {line:?}: {e}"));
        assert_eq!(
            kv.iter()
                .find(|(k, _)| k == "type")
                .and_then(|(_, v)| v.as_str()),
            Some("progress"),
            "progress stream emitted a non-progress line"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&progress_path).ok();
    out
}

fn assert_same_placement(a: &Placement, b: &Placement, what: &str) {
    assert_eq!(a.positions, b.positions, "{what}: positions diverged");
    assert_eq!(a.flips, b.flips, "{what}: flips diverged");
}

fn assert_same_anneal(a: &AnnealResult, b: &AnnealResult, what: &str) {
    assert_same_placement(&a.placement, &b.placement, what);
    assert_eq!(a.moves, b.moves, "{what}: move counts diverged");
    assert!(
        a.cost.total == b.cost.total && a.cost.phi == b.cost.phi,
        "{what}: costs diverged ({:?} vs {:?})",
        a.cost,
        b.cost
    );
}

#[test]
fn anneal_is_bit_identical_with_and_without_tracing() {
    placer_parallel::set_max_threads(1);
    let circuit = testcases::adder();
    let cfg = SaConfig {
        temperatures: 30,
        moves_per_temperature: 40,
        ..SaConfig::default()
    };

    let untraced = anneal(&circuit, &cfg, None);
    let traced = with_sink("sa", || anneal(&circuit, &cfg, None));
    assert_same_anneal(&traced, &untraced, "anneal (no Φ)");

    let network = Network::default_config(5);
    let perf = || PerfCost {
        network: &network,
        weight: 30.0,
        scale: 20.0,
    };
    let untraced = anneal(&circuit, &cfg, Some(perf()));
    let traced = with_sink("sa_perf", || anneal(&circuit, &cfg, Some(perf())));
    assert_same_anneal(&traced, &untraced, "anneal (with Φ)");
    placer_parallel::set_max_threads(0);
}

#[test]
fn global_place_is_bit_identical_with_and_without_tracing() {
    let circuit = testcases::cc_ota();
    let config = PlacerConfig::default();

    let (untraced, ustats) = GlobalPlacer::new(config.global.clone()).run(&circuit);
    let (traced, tstats) = with_sink("gp", || {
        GlobalPlacer::new(config.global.clone()).run(&circuit)
    });
    assert_same_placement(&traced, &untraced, "global place (no Φ)");
    assert_eq!(
        tstats.iterations, ustats.iterations,
        "global place: iteration counts diverged"
    );

    let network = Network::default_config(9);
    let perf = eplace::PerfConfig::new(0.5, 20.0);
    let (untraced, _) = run_perf_global(&circuit, &config.global, &perf, &network);
    let (traced, _) = with_sink("gp_perf", || {
        run_perf_global(&circuit, &config.global, &perf, &network)
    });
    assert_same_placement(&traced, &untraced, "global place (with Φ)");
}
