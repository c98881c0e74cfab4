//! The `Placer` contracts, checked on the smallest paper circuit for every
//! placer the job engine can build: cached ≡ cold, resume ≡ uninterrupted,
//! "Exhausted is legal", ECO fallback ≡ cold, and one thread ≡ many (also
//! for a sweep race).

use analog_netlist::{testcases, NetlistDelta};
use eplace::{eco, Checkpoint, CircuitArtifacts, EcoConfig, PlaceSolution, Placer, RunBudget};
use placer_jobs::{make_placer, normalize_timing, Profile};
use placer_sa::{SaConfig, SaPlacer};
use placer_sweep::{RaceConfig, SweepConfig, SweepEngine};

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

#[test]
fn one_thread_and_four_threads_place_identically() {
    // At one thread `par_map` is a plain loop on the calling thread. SA
    // runs short chains inline at any thread count, so its four chains get
    // enough moves (24 × 1,900 × 11 devices) to fan out. Under seed 2 a
    // later chain wins, so a fan-out that runs chain 0 or 1 in place of
    // another changes the placement.
    let bundle = CircuitArtifacts::build(testcases::adder());
    let chains = SaConfig::builder()
        .temperatures(24)
        .moves_per_level(1_900)
        .chains(4)
        .seed(2)
        .build()
        .expect("valid SA config");
    let mut placers: Vec<(&str, Box<dyn Placer>)> =
        PLACERS.iter().map(|&name| (name, placer(name))).collect();
    placers.push(("sa, 4 chains", Box::new(SaPlacer::new(chains))));
    let unlimited = RunBudget::unlimited();
    for (name, p) in &placers {
        placer_parallel::set_max_threads(1);
        let one = solution(p.place_artifacts(&bundle, &unlimited).unwrap(), name);
        placer_parallel::set_max_threads(4);
        let four = solution(p.place_artifacts(&bundle, &unlimited).unwrap(), name);
        assert_same(&one, &four, &format!("{name}: 1 vs 4 threads"));
    }

    // A small sweep race: its variants fan out over `par_map`, the sweep's
    // only scheduling path.
    let race = SweepConfig {
        circuit: "adder".into(),
        placers: vec!["sa".into(), "xu19".into(), "eplace-a".into()],
        seeds: vec![1, 2],
        profile: Profile::Small,
        race: RaceConfig {
            rounds: 2,
            ..RaceConfig::default()
        },
        ..SweepConfig::default()
    };
    let mut sweeps = Vec::new();
    for threads in [1, 4] {
        placer_parallel::set_max_threads(threads);
        let result = SweepEngine::new(race.clone()).run().expect("sweep runs");
        sweeps.push((normalize_timing(&result.to_jsonl()), result.pareto));
    }
    placer_parallel::set_max_threads(0);
    assert_eq!(sweeps[0], sweeps[1], "sweep race: 1 vs 4 threads");
}
