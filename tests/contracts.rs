//! The `Placer` contracts, checked on the smallest paper circuit for every
//! placer the job engine can build: cached ≡ cold, resume ≡ uninterrupted,
//! "Exhausted is legal", and ECO fallback ≡ cold.

use analog_netlist::{testcases, NetlistDelta};
use eplace::{eco, Checkpoint, CircuitArtifacts, EcoConfig, PlaceSolution, Placer, RunBudget};
use placer_jobs::{make_placer, Profile};

const PLACERS: [&str; 4] = ["eplace-a", "eplace-ap", "sa", "xu19"];

fn placer(name: &str) -> Box<dyn Placer> {
    make_placer(name, Profile::Small, None)
        .expect("known placer")
        .0
}

fn solution(outcome: eplace::PlaceOutcome, what: &str) -> PlaceSolution {
    assert!(outcome.is_complete(), "{what}: {}", outcome.status());
    outcome.into_solution().expect("complete")
}

fn assert_same(a: &PlaceSolution, b: &PlaceSolution, what: &str) {
    assert_eq!(a.placement, b.placement, "{what}: placements differ");
    assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits(), "{what}: hpwl differs");
    assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area differs");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations differ");
}

#[test]
fn cold_fresh_and_warmed_bundles_agree() {
    let circuit = testcases::adder();
    let unlimited = RunBudget::unlimited();
    for name in PLACERS {
        let p = placer(name);
        let cold = solution(p.place(&circuit, &unlimited).unwrap(), name);
        let bundle = CircuitArtifacts::build(circuit.clone());
        let fresh = solution(p.place_artifacts(&bundle, &unlimited).unwrap(), name);
        let warmed = solution(p.place_artifacts(&bundle, &unlimited).unwrap(), name);
        assert_same(&cold, &fresh, &format!("{name}: cold vs fresh bundle"));
        assert_same(&fresh, &warmed, &format!("{name}: fresh vs warmed bundle"));
    }
}

#[test]
fn resume_through_the_codec_matches_the_uninterrupted_run() {
    let circuit = testcases::adder();
    let bundle = CircuitArtifacts::build(circuit);
    for name in PLACERS {
        let p = placer(name);
        let whole = solution(
            p.place_artifacts(&bundle, &RunBudget::unlimited()).unwrap(),
            name,
        );
        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(3);
        let outcome = p.place_artifacts(&bundle, &budget).unwrap();
        let ck = outcome
            .checkpoint()
            .unwrap_or_else(|| panic!("{name}: not cancelled ({})", outcome.status()));
        let ck = Checkpoint::decode(&ck.encode()).expect("checkpoint decodes");
        let resumed = p
            .resume_artifacts(&bundle, &ck, &RunBudget::unlimited())
            .unwrap();
        assert_same(&whole, &solution(resumed, name), &format!("{name}: resume"));
    }
}

#[test]
fn an_exhausted_run_is_legal() {
    let circuit = testcases::adder();
    for name in PLACERS {
        let outcome = placer(name).place(&circuit, &RunBudget::steps(1)).unwrap();
        assert!(outcome.is_exhausted(), "{name}: {}", outcome.status());
        let placement = &outcome.solution().unwrap().placement;
        assert!(placement.is_legal(&circuit, 1e-6), "{name}: illegal");
    }
}

#[test]
fn eco_fallback_matches_a_cold_run_on_the_edited_circuit() {
    let circuit = testcases::adder();
    let delta = NetlistDelta::parse("resize RB 18k\n").expect("delta parses");
    let edited = delta.apply(&circuit).expect("delta applies").circuit;
    let forced = EcoConfig {
        dirty_threshold: 0.0,
        ..EcoConfig::default()
    };
    let bundle = CircuitArtifacts::build(circuit.clone());
    let unlimited = RunBudget::unlimited();
    for name in PLACERS {
        let p = placer(name);
        let base = solution(p.place_artifacts(&bundle, &unlimited).unwrap(), name);
        let warm = eco::warm_checkpoint(&circuit, &base.placement);
        let rep = p
            .replace(&bundle, &delta, &warm, &unlimited, &forced)
            .unwrap();
        assert!(!rep.outcome.is_fast(), "{name}: took the fast path");
        let cold = p
            .place_artifacts(&CircuitArtifacts::build(edited.clone()), &unlimited)
            .unwrap();
        assert_same(
            rep.outcome.solution().expect("fallback completes"),
            &solution(cold, name),
            &format!("{name}: ECO fallback"),
        );
    }
}
