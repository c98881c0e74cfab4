//! Pins SA bit for bit. The move evaluator and the sequence-pair pack may
//! change how they price a move, never what the move costs, so the
//! accepted sequence, and with it every hashed bit, must stay put at every
//! size and under every SIMD backend.
//!
//! Two kinds of run are hashed:
//! - a short `placer_sa::anneal` on a paper circuit (13 devices) and on a
//!   22-stage scaling array (134 devices, 492 net pins), well above the
//!   largest paper circuit: the best placement's coordinates and flips,
//!   the cost's total, HPWL and area, and the move count;
//! - SA's `place_artifacts` at `Profile::Default` on the ten paper
//!   circuits (4-24 blocks) at two seeds: the repaired placement, HPWL,
//!   area and move count. This is the run the daemon and the job engine
//!   make.

mod common;

use analog_netlist::{testcases, Circuit};
use common::{pinned_row, Fnv};
use eplace::{CircuitArtifacts, RunBudget};
use placer_jobs::{make_placer, Profile};
use placer_sa::{anneal, SaConfig};

/// Expected hash per circuit.
#[rustfmt::skip]
const PINNED: [(&str, u64); 2] = [
    ("cc_ota", 0x5d143259f170b2f7),
    ("scalable_array(22)", 0x5f8f1e8a94ae7c9b),
];

/// Seeds of the default-profile runs.
const DEFAULT_SEEDS: [u64; 2] = [1, 2];

/// Expected default-profile hashes per paper circuit, one per seed in
/// [`DEFAULT_SEEDS`].
#[rustfmt::skip]
const PINNED_DEFAULT: [(&str, [u64; 2]); 10] = [
    ("adder", [0xdbb9d7f7fba4ed2f, 0x55abd5c1659456e3]),
    ("cc_ota", [0xfe6b55b214fa43b9, 0x1e38dd7f5a9f1387]),
    ("comp1", [0xc7fab2d1fa41ab27, 0x81941726b7dabe5d]),
    ("comp2", [0x4f870d8a86921cc1, 0x49c49086155a2027]),
    ("cm_ota1", [0xe0dbe689854d2ea4, 0xe4173647238eb542]),
    ("cm_ota2", [0x2fa6cf3ea26d71e7, 0x06356dd1d7dc8b9a]),
    ("scf", [0xe0f19ef56bfe5a69, 0x7dcddd0d25d4c7d9]),
    ("vga", [0x1c6d587aeb63d417, 0x1def21f7f0584af8]),
    ("vco1", [0xb2d1d070b01534d6, 0x3c7ff08052f9ef03]),
    ("vco2", [0x287c36c80c7340b0, 0x1d7b67cb27d34358]),
];

fn anneal_hash(circuit: &Circuit) -> u64 {
    let config = SaConfig {
        temperatures: 12,
        moves_per_temperature: 400,
        seed: 5,
        chains: 1,
        ..SaConfig::default()
    };
    let r = anneal(circuit, &config, None);
    let mut h = Fnv::new();
    h.placement(&r.placement);
    h.eat(r.cost.total.to_bits());
    h.eat(r.cost.hpwl.to_bits());
    h.eat(r.cost.area.to_bits());
    h.eat(r.moves as u64);
    h.0
}

#[test]
fn anneal_reproduces_its_pinned_runs() {
    let circuits = [testcases::cc_ota(), testcases::scalable_array(22)];
    let mut mismatches = Vec::new();
    for ((name, expected), circuit) in PINNED.iter().zip(&circuits) {
        let got = anneal_hash(circuit);
        if got != *expected {
            mismatches.push(format!("(\"{name}\", 0x{got:016x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "SA anneals moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn default_profile_places_reproduce_their_pins() {
    let unlimited = RunBudget::unlimited();
    let mut mismatches = Vec::new();
    for (name, expected) in &PINNED_DEFAULT {
        let c = testcases::testcase_by_name(name).expect("paper circuit");
        let bundle = CircuitArtifacts::build(c);
        let mut got = [0u64; 2];
        for (slot, &seed) in got.iter_mut().zip(&DEFAULT_SEEDS) {
            let (placer, _) = make_placer("sa", Profile::Default, Some(seed)).expect("sa");
            let outcome = placer.place_artifacts(&bundle, &unlimited).unwrap();
            assert!(outcome.is_complete(), "{name}: {}", outcome.status());
            let mut h = Fnv::new();
            h.solution(&outcome.into_solution().expect("complete"));
            *slot = h.0;
        }
        if &got != expected {
            mismatches.push(pinned_row(name, got));
        }
    }
    assert!(
        mismatches.is_empty(),
        "SA default-profile places moved:\n{}",
        mismatches.join("\n")
    );
}
