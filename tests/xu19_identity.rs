//! Pins Xu19's global placement and its callers bit for bit on the ten
//! paper circuits: the objective (LSE wirelength, bell density, soft
//! symmetry) and the CG solver under it may change how they compute, never
//! what they compute.
//!
//! Four kinds of run are hashed:
//! - `run_global` at seeds 1, 17 and 4242: every coordinate, the CG
//!   iteration count and the final overflow;
//! - the placer's `place_artifacts` at `Profile::Default`: the legal
//!   placement, HPWL, area and iterations;
//! - one warm `eco_refine` round from a placed `cc_ota`;
//! - `place_perf` (the GNN gradient hook) on `adder`.
//!
//! A change to any float operation's order in the objective moves a CG
//! line search and shows up here as a different hash.

mod common;

use analog_netlist::testcases;
use common::{pinned_row, Fnv};
use eplace::{CircuitArtifacts, EcoConfig, PlaceSolution, Placer, RunBudget};
use placer_jobs::{make_placer, Profile};
use placer_xu19::{run_global, Xu19GlobalConfig, Xu19Placer};

/// Expected hashes per circuit: `run_global` over the three seeds, then
/// `place_artifacts`.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 2]); 10] = [
    ("adder", [0x6209f07d9560b1cf, 0xc866748c01fe0b89]),
    ("cc_ota", [0x6bbda644617f54b8, 0xe2d31c4ffa1ac01d]),
    ("comp1", [0x454bb758b4148512, 0xca5272aec73af663]),
    ("comp2", [0xf561dcf275e592cd, 0xba3841c8da2cfd62]),
    ("cm_ota1", [0x1f31f16fe52f1e71, 0xa6c83fab0442c6dc]),
    ("cm_ota2", [0xa2729f818535e014, 0xda7b6f6fe0503028]),
    ("scf", [0x55386a32d22ac6e0, 0x5c96149682869f47]),
    ("vga", [0x133692fbb4020a4c, 0xf6e5a9c51e8d175e]),
    ("vco1", [0x8ebad46a1f8f0172, 0x2e3316d19eb2ebad]),
    ("vco2", [0x6224962e8202e32a, 0x7bbef6c5fc1ea1c7]),
];

/// `eco_refine` on a placed `cc_ota`.
const PINNED_ECO: u64 = 0xf2bc327e8d2af1c4;
/// `place_perf` on `adder`.
const PINNED_PERF: u64 = 0xb6da48c5b51e593d;

const SEEDS: [u64; 3] = [1, 17, 4242];

fn default_xu19() -> Box<dyn Placer> {
    make_placer("xu19", Profile::Default, None)
        .expect("xu19 builds")
        .0
}

fn complete(outcome: eplace::PlaceOutcome, what: &str) -> PlaceSolution {
    assert!(outcome.is_complete(), "{what}: {}", outcome.status());
    outcome.into_solution().expect("complete")
}

#[test]
fn xu19_reproduces_its_pinned_runs() {
    let placer = default_xu19();
    let unlimited = RunBudget::unlimited();
    let mut mismatches = Vec::new();
    for (name, expected) in &PINNED {
        let c = testcases::testcase_by_name(name).expect("paper circuit");
        let mut global = Fnv::new();
        for seed in SEEDS {
            let cfg = Xu19GlobalConfig {
                seed,
                ..Xu19GlobalConfig::default()
            };
            let (p, stats) = run_global(&c, &cfg);
            global.placement(&p);
            global.eat(stats.iterations as u64);
            global.eat(stats.overflow.to_bits());
        }
        let mut placed = Fnv::new();
        let bundle = CircuitArtifacts::build(c);
        placed.solution(&complete(
            placer.place_artifacts(&bundle, &unlimited).unwrap(),
            name,
        ));
        let got = [global.0, placed.0];
        if &got != expected {
            mismatches.push(pinned_row(name, got));
        }
    }

    // One warm CG round from a placed cc_ota: the ECO fast path's refine.
    let bundle = CircuitArtifacts::build(testcases::cc_ota());
    let base = complete(
        placer.place_artifacts(&bundle, &unlimited).unwrap(),
        "cc_ota",
    );
    let mut dirty = vec![false; bundle.circuit().num_devices()];
    dirty[0] = true;
    let (refined, iterations) = placer
        .eco_refine(&bundle, &base.placement, &dirty, &EcoConfig::default())
        .unwrap()
        .expect("xu19 refines warm placements");
    let mut eco = Fnv::new();
    eco.placement(&refined);
    eco.eat(iterations as u64);
    if eco.0 != PINNED_ECO {
        mismatches.push(format!("PINNED_ECO = 0x{:016x}", eco.0));
    }

    // Perf*: the GNN gradient hook inside the CG objective.
    let adder = testcases::adder();
    let network = placer_gnn::Network::default_config(6);
    let mut perf = Fnv::new();
    perf.solution(
        &Xu19Placer::default()
            .place_perf(&adder, &network, 0.5, 20.0)
            .unwrap(),
    );
    if perf.0 != PINNED_PERF {
        mismatches.push(format!("PINNED_PERF = 0x{:016x}", perf.0));
    }

    assert!(
        mismatches.is_empty(),
        "Xu19 outputs moved:\n{}",
        mismatches.join("\n")
    );
}
