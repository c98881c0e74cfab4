//! # placer-bench
//!
//! Shared harness for regenerating every table and figure of the DATE'22
//! paper. Each `src/bin/tableN.rs` / `src/bin/figureN.rs` binary prints one
//! experiment; this library holds the common runners, configurations, and
//! table formatting.
//!
//! Absolute numbers differ from the paper (synthetic circuits, a different
//! machine, a surrogate evaluation stack); the *shapes* — who wins, by
//! roughly what factor, where the tradeoffs lie — are the reproduction
//! target (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod trace;

use analog_netlist::{testcases, Circuit, Placement};
use analog_perf::{DatasetOptions, Evaluator, GeneratedDataset};
use eplace::{
    EPlaceA, EPlaceAP, PerfConfig, PlaceError, PlaceSolution, Placer, PlacerConfig, RunBudget,
};
use placer_gnn::{Network, TrainOptions};
use placer_sa::{SaConfig, SaPlacer};
use placer_xu19::Xu19Placer;

/// One placer run reduced to the paper's reporting metrics.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Bounding-box area (µm²).
    pub area: f64,
    /// Exact HPWL (µm).
    pub hpwl: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// The placement itself (for FOM evaluation).
    pub placement: Placement,
}

impl From<PlaceSolution> for RunMetrics {
    fn from(s: PlaceSolution) -> Self {
        RunMetrics {
            area: s.area,
            hpwl: s.hpwl,
            seconds: s.stage1_seconds + s.stage2_seconds,
            placement: s.placement,
        }
    }
}

/// The paper's ten testcases in Table III order.
pub fn paper_circuits() -> Vec<Circuit> {
    testcases::all_testcases()
}

/// A deterministic synthetic circuit for hot-path benchmarking.
///
/// The paper's ten testcases top out at a few dozen devices, too small to
/// exercise the scatter/gather and per-net gradient kernels at the grid
/// sizes the benches time. This builds `devices` MOS devices on a chain of
/// local nets plus shared medium-fan-out bus nets, so net sizes span the
/// realistic 2–20 pin range.
///
/// # Panics
///
/// Panics if `devices < 2`.
pub fn synthetic_circuit(devices: usize, seed: u64) -> Circuit {
    use analog_netlist::{CircuitBuilder, CircuitClass, DeviceKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(devices >= 2, "need at least two devices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(format!("synthetic_{devices}"), CircuitClass::Ota);
    let buses: Vec<_> = (0..devices / 12 + 2)
        .map(|i| b.net(format!("bus{i}")))
        .collect();
    let mut prev = b.net("chain0");
    for i in 0..devices {
        let next = b.net(format!("chain{}", i + 1));
        let bus = buses[rng.gen_range(0..buses.len())];
        let kind = if i % 2 == 0 {
            DeviceKind::Nmos
        } else {
            DeviceKind::Pmos
        };
        let w = 1.0 + 3.0 * rng.gen::<f64>();
        let h = 0.8 + 2.0 * rng.gen::<f64>();
        b.mos(
            format!("m{i}"),
            kind,
            w,
            h,
            &[("g", prev), ("d", next), ("s", bus)],
        );
        prev = next;
    }
    b.build().expect("synthetic circuit is valid")
}

/// Deterministic spread-out positions on a `side × side` region — the same
/// golden-angle spiral the global placer seeds with, centered and clamped.
pub fn spiral_positions(circuit: &Circuit, side: f64) -> Vec<(f64, f64)> {
    let n = circuit.num_devices();
    let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
    (0..n)
        .map(|i| {
            let r = side * 0.45 * ((i as f64 + 0.5) / n as f64).sqrt();
            let theta = golden * i as f64;
            (
                (side / 2.0 + r * theta.cos()).clamp(0.0, side),
                (side / 2.0 + r * theta.sin()).clamp(0.0, side),
            )
        })
        .collect()
}

/// The SA budget used throughout (footnote 1: practical limits). Scales
/// with circuit size, as annealing budgets do in practice.
pub fn sa_config(circuit: &Circuit) -> SaConfig {
    SaConfig {
        temperatures: 540,
        moves_per_temperature: 360 * circuit.num_devices(),
        ..SaConfig::default()
    }
}

/// The (smaller) SA budget for performance-driven runs: each move costs a
/// GNN inference, which is what erodes the analytical runtime advantage in
/// the paper's Table VII.
pub fn sa_perf_config(circuit: &Circuit) -> SaConfig {
    SaConfig {
        temperatures: 70,
        moves_per_temperature: 25 * circuit.num_devices(),
        ..SaConfig::default()
    }
}

/// Runs `placer` on `circuit` to completion (unlimited budget).
///
/// # Errors
///
/// Returns the placer's [`PlaceError`].
pub fn run_placer(placer: &dyn Placer, circuit: &Circuit) -> Result<RunMetrics, PlaceError> {
    let outcome = placer.place(circuit, &RunBudget::unlimited())?;
    Ok(outcome
        .into_solution()
        .expect("an unlimited budget runs to completion")
        .into())
}

/// Runs the SA baseline.
///
/// # Panics
///
/// Panics if the placer fails (the harness treats failures as fatal).
pub fn run_sa(circuit: &Circuit) -> RunMetrics {
    run_placer(&SaPlacer::new(sa_config(circuit)), circuit).expect("SA placement failed")
}

/// Runs the ISPD'19 baseline \[11\].
///
/// # Panics
///
/// Panics if the placer fails.
pub fn run_xu19(circuit: &Circuit) -> RunMetrics {
    run_placer(&Xu19Placer::default(), circuit).expect("xu19 placement failed")
}

/// Runs ePlace-A with the default configuration.
///
/// # Panics
///
/// Panics if the placer fails.
pub fn run_eplace_a(circuit: &Circuit) -> RunMetrics {
    run_eplace_a_with(circuit, PlacerConfig::default())
}

/// Runs ePlace-A with an explicit configuration.
///
/// # Panics
///
/// Panics if the placer fails.
pub fn run_eplace_a_with(circuit: &Circuit, config: PlacerConfig) -> RunMetrics {
    run_placer(&EPlaceA::new(config), circuit).expect("ePlace-A failed")
}

/// A trained performance model plus its calibration, shared by the
/// performance-driven experiments.
pub struct PerfModel {
    /// The trained network.
    pub network: Network,
    /// The evaluator that labeled its training set.
    pub evaluator: Evaluator,
    /// Dataset metadata (threshold, scale).
    pub dataset: GeneratedDataset,
}

/// Trains the GNN performance model for a circuit (deterministic).
///
/// Follows the paper's data recipe: training samples are generated "by
/// varying parameters" — here, scatter/grid samples from the generic
/// generator **plus** jittered variants of actual placer outputs, so the
/// classifier is sharp in the regime optimized placements live in. The
/// threshold is the 85th percentile of the combined FOMs (the "performance
/// requirement" in Eq. 6's terms).
pub fn train_model(circuit: &Circuit) -> PerfModel {
    use analog_perf::generate_dataset;
    use placer_gnn::{CircuitGraph, Trainer, TrainingSample};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let evaluator = Evaluator::new(circuit);
    let mut dataset = generate_dataset(
        circuit,
        &evaluator,
        &DatasetOptions {
            samples: 900,
            seed: 2022,
            threshold_quantile: 0.5, // recomputed below over the full set
        },
    );

    // Placer-output family: a legal layout plus jittered variants.
    let mut rng = StdRng::seed_from_u64(77);
    let mut extra: Vec<(analog_netlist::Placement, f64)> = Vec::new();
    let cfg = PlacerConfig {
        restarts: 1,
        ..PlacerConfig::default()
    };
    if let Ok(result) = run_placer(&EPlaceA::new(cfg), circuit) {
        for _ in 0..300 {
            let sigma = rng.gen_range(0.05..2.5);
            let mut p = result.placement.clone();
            for pos in &mut p.positions {
                pos.0 += rng.gen_range(-sigma..sigma);
                pos.1 += rng.gen_range(-sigma..sigma);
            }
            let fom = evaluator.fom(circuit, &p);
            extra.push((p, fom));
        }
    }

    // Recompute the pass/fail threshold over the placer-output family. The
    // generic dataset stores labels, not FOMs, and its FOMs sit below this
    // family anyway; the new samples are labeled below at the new
    // threshold.
    let mut foms: Vec<f64> = extra.iter().map(|(_, f)| *f).collect();
    foms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let threshold = if foms.is_empty() {
        dataset.threshold
    } else {
        foms[(foms.len() as f64 * 0.4) as usize]
    };
    dataset.threshold = dataset.threshold.max(threshold);

    // Append the placer-output family with labels at the new threshold.
    for (p, fom) in extra {
        dataset.samples.push(TrainingSample {
            graph: CircuitGraph::new(circuit, &p, dataset.scale),
            label: if fom < dataset.threshold { 1.0 } else { 0.0 },
        });
    }

    let mut network = placer_gnn::Network::default_config(2022 ^ 0x5eed);
    let mut trainer = Trainer::new();
    trainer.fit(
        &mut network,
        &dataset.samples,
        &TrainOptions {
            epochs: 30,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 17,
        },
    );
    PerfModel {
        network,
        evaluator,
        dataset,
    }
}

/// Default α weight for the GNN term in analytical perf-driven runs.
pub const PERF_ALPHA: f64 = 0.6;
/// Default Φ weight (area units) for the SA perf-driven cost.
pub const PERF_SA_WEIGHT: f64 = 60.0;

/// Runs ePlace-AP with a trained model.
///
/// # Panics
///
/// Panics if the placer fails.
pub fn run_eplace_ap(circuit: &Circuit, model: &PerfModel) -> RunMetrics {
    let placer = EPlaceAP::new(
        PlacerConfig::default(),
        PerfConfig::new(PERF_ALPHA, model.dataset.scale),
        model.network.clone(),
    );
    run_placer(&placer, circuit).expect("ePlace-AP failed")
}

/// Runs the Perf* extension of \[11\].
///
/// # Panics
///
/// Panics if the placer fails.
pub fn run_xu19_perf(circuit: &Circuit, model: &PerfModel) -> RunMetrics {
    Xu19Placer::default()
        .place_perf(circuit, &model.network, PERF_ALPHA, model.dataset.scale)
        .expect("xu19 perf placement failed")
        .into()
}

/// Runs performance-driven SA (\[19\]).
///
/// # Panics
///
/// Panics if the placer fails.
pub fn run_sa_perf(circuit: &Circuit, model: &PerfModel) -> RunMetrics {
    SaPlacer::new(sa_perf_config(circuit))
        .place_perf(circuit, &model.network, PERF_SA_WEIGHT, model.dataset.scale)
        .expect("SA perf placement failed")
        .into()
}

/// FOM of a run under the circuit's evaluator.
pub fn fom_of(circuit: &Circuit, evaluator: &Evaluator, run: &RunMetrics) -> f64 {
    evaluator.fom(circuit, &run.placement)
}

/// Geometric mean of ratios `a[i] / b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length or contain non-positive values.
pub fn geomean_ratio(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "ratio series length mismatch");
    assert!(!a.is_empty(), "ratio series must not be empty");
    let log_sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            assert!(x > 0.0 && y > 0.0, "ratios need positive values");
            (x / y).ln()
        })
        .sum();
    (log_sum / a.len() as f64).exp()
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Extracts `(name, speedup)` pairs from a `BENCH_hotpaths.json` body: the
/// one reader behind `bench_hotpaths --check` and `trace_diff`'s bench
/// comparison.
///
/// # Examples
///
/// ```
/// let json = r#"{ "name": "wa_wirelength", "speedup": 3.25, "ms": 1.0 },"#;
/// let rows = placer_bench::parse_speedups(json);
/// assert_eq!(rows, vec![("wa_wirelength".to_string(), 3.25)]);
/// ```
pub fn parse_speedups(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else {
            continue;
        };
        let name = rest[..nend].to_string();
        let Some(spos) = line.find("\"speedup\": ") else {
            continue;
        };
        let num: String = line[spos + 11..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_series_is_one() {
        let a = [2.0, 3.0, 4.0];
        assert!((geomean_ratio(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_scale_consistent() {
        let a = [2.0, 8.0];
        let b = [1.0, 4.0];
        assert!((geomean_ratio(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn runners_produce_legal_placements_on_adder() {
        let c = testcases::adder();
        for run in [run_sa(&c), run_xu19(&c), run_eplace_a(&c)] {
            assert!(run.placement.overlapping_pairs(&c, 1e-6).is_empty());
            assert!(run.area > 0.0 && run.hpwl > 0.0);
        }
    }
}
