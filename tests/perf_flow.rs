//! Integration tests for the performance-driven flow: GNN training on
//! surrogate labels, gradient-guided placement, and FOM accounting.

use analog_netlist::testcases;
use analog_perf::{generate_dataset, train_performance_model, DatasetOptions, Evaluator};
use eplace::{EPlaceA, EPlaceAP, PerfConfig, Placer, PlacerConfig, RunBudget};
use placer_gnn::{TrainOptions, Trainer};

fn fast_dataset() -> DatasetOptions {
    DatasetOptions {
        samples: 300,
        seed: 11,
        threshold_quantile: 0.5,
    }
}

fn fast_training() -> TrainOptions {
    TrainOptions {
        epochs: 20,
        ..TrainOptions::default()
    }
}

#[test]
fn model_learns_the_surrogate_labels() {
    let circuit = testcases::cc_ota();
    let evaluator = Evaluator::new(&circuit);
    let (network, dataset) =
        train_performance_model(&circuit, &evaluator, &fast_dataset(), &fast_training());
    let accuracy = Trainer::accuracy(&network, &dataset.samples);
    assert!(accuracy > 0.7, "accuracy {accuracy} too low");
}

#[test]
fn eplace_ap_fom_not_worse_than_eplace_a() {
    // The paper's central performance-driven claim, at reduced budgets:
    // guiding placement by the GNN must not lose FOM (it should gain).
    let circuit = testcases::cm_ota1();
    let evaluator = Evaluator::new(&circuit);
    let (network, dataset) =
        train_performance_model(&circuit, &evaluator, &fast_dataset(), &fast_training());

    let complete = |placer: &dyn Placer| {
        placer
            .place(&circuit, &RunBudget::unlimited())
            .unwrap_or_else(|e| panic!("{}: {e}", placer.name()))
            .into_solution()
            .expect("an unlimited budget runs to completion")
    };
    let conventional = complete(&EPlaceA::new(PlacerConfig::default()));
    let perf = complete(&EPlaceAP::new(
        PlacerConfig::default(),
        PerfConfig::new(0.6, dataset.scale),
        network,
    ));

    let fom_a = evaluator.fom(&circuit, &conventional.placement);
    let fom_ap = evaluator.fom(&circuit, &perf.placement);
    assert!(
        fom_ap >= fom_a - 0.03,
        "perf-driven FOM {fom_ap} clearly below conventional {fom_a}"
    );
    assert!(perf.placement.is_legal(&circuit, 1e-6));
}

#[test]
fn dataset_threshold_separates_labels() {
    let circuit = testcases::adder();
    let evaluator = Evaluator::new(&circuit);
    let dataset = generate_dataset(&circuit, &evaluator, &fast_dataset());
    let positives = dataset.samples.iter().filter(|s| s.label > 0.5).count();
    assert!(positives > 0 && positives < dataset.samples.len());
}
