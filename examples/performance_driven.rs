//! Performance-driven placement end to end: train the GNN performance
//! model on surrogate-labeled samples, then compare ePlace-A (conventional)
//! against ePlace-AP (GNN-gradient-guided) on circuit performance.
//!
//! ```sh
//! cargo run --release --example performance_driven
//! ```

use analog_netlist::testcases;
use analog_perf::{train_performance_model, DatasetOptions, Evaluator};
use eplace::{EPlaceA, EPlaceAP, PerfConfig, Placer, PlacerConfig, RunBudget};
use placer_gnn::{TrainOptions, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = testcases::cm_ota1();
    let evaluator = Evaluator::new(&circuit);

    println!("training the GNN performance model ({} samples)…", 1200);
    let (network, dataset) = train_performance_model(
        &circuit,
        &evaluator,
        &DatasetOptions::default(),
        &TrainOptions::default(),
    );
    let accuracy = Trainer::accuracy(&network, &dataset.samples);
    println!(
        "training accuracy {:.1}% at FOM threshold {:.3}\n",
        100.0 * accuracy,
        dataset.threshold
    );

    let complete = |placer: &dyn Placer| {
        placer
            .place(&circuit, &RunBudget::unlimited())
            .map(|outcome| outcome.into_solution().expect("unlimited budget"))
    };
    let conventional = complete(&EPlaceA::new(PlacerConfig::default()))?;
    let report_a = evaluator.evaluate(&circuit, &conventional.placement);

    let perf_placer = EPlaceAP::new(
        PlacerConfig::default(),
        PerfConfig::new(0.6, dataset.scale),
        network,
    );
    let performance_driven = complete(&perf_placer)?;
    let report_ap = evaluator.evaluate(&circuit, &performance_driven.placement);

    println!("{:<20} {:>12} {:>12}", "metric", "ePlace-A", "ePlace-AP");
    for (a, ap) in report_a.metrics.iter().zip(&report_ap.metrics) {
        println!(
            "{:<20} {:>12.2} {:>12.2}   (spec {:.2})",
            a.name, a.value, ap.value, a.spec
        );
    }
    println!(
        "{:<20} {:>12.3} {:>12.3}",
        "FOM",
        report_a.fom(),
        report_ap.fom()
    );
    println!(
        "{:<20} {:>11.1}µm² {:>11.1}µm²",
        "area", conventional.area, performance_driven.area
    );
    Ok(())
}
