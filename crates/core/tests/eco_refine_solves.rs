//! Counts the Poisson solves of ePlace-A's warm refine under a live trace
//! sink: a refine of k global-placement iterations solves k times, one
//! density evaluation per iteration. The resumed run takes λ, τ and the
//! overflow from its checkpoint, so it evaluates no density to normalize
//! them.
//!
//! This file must hold exactly one test: span counters are process-wide,
//! so other tests running concurrently in the same binary would add their
//! solves.

use analog_netlist::testcases;
use eplace::{CircuitArtifacts, EPlaceA, EcoConfig, Placer, PlacerConfig, RunBudget};

#[test]
fn an_eco_refine_of_k_iterations_solves_k_times() {
    let sink = std::env::temp_dir().join(format!(
        "eplace_eco_refine_solves_{}.jsonl",
        std::process::id()
    ));
    let placer = EPlaceA::new(PlacerConfig::default());
    let mut refines = Vec::new();
    for circuit in [testcases::cc_ota(), testcases::cm_ota1()] {
        let artifacts = CircuitArtifacts::build(circuit);
        let warm = placer
            .place_artifacts(&artifacts, &RunBudget::unlimited())
            .unwrap()
            .into_solution()
            .expect("an unlimited budget completes")
            .placement;
        let dirty = vec![false; warm.len()];

        placer_telemetry::install(&sink).expect("install sink");
        let (_, iterations) = placer
            .eco_refine(&artifacts, &warm, &dirty, &EcoConfig::default())
            .unwrap()
            .expect("ePlace-A refines");
        let solves = placer_telemetry::span_calls("poisson_solve").unwrap_or(0);
        placer_telemetry::uninstall();
        refines.push((artifacts.circuit().name().to_string(), iterations, solves));
    }
    std::fs::remove_file(&sink).ok();
    for (name, iterations, solves) in refines {
        assert!(iterations > 0, "{name}: the refine ran no iteration");
        assert_eq!(
            solves, iterations as u64,
            "{name}: {solves} Poisson solves for {iterations} GP iterations"
        );
    }
}
