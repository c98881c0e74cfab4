//! Pins the exact output of every LP/ILP legalizer on the ten paper
//! circuits: ePlace-A's detailed placement (`legalize`), the ECO region
//! repair, SA's constraint repair and Xu19's two-stage LP.
//!
//! Each legalizer starts from a seeded uniform scatter of the devices in a
//! square of side √(2·device area). No SIMD kernel touches that input, so
//! the forced-scalar build hashes the same bits. A change to how any of
//! the four builds its model (row or column order, bounds, costs) can move
//! a simplex pivot and then shows up here as a different hash.

mod common;

use analog_netlist::{testcases, Circuit, Placement};
use common::Fnv;
use eplace::{eco, DetailedConfig, EcoConfig, PlaceError};
use placer_mathopt::SolveError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(PartialEq)]
enum Outcome {
    /// FNV-1a over every coordinate's and flip's bit pattern.
    Hash(u64),
    Infeasible,
}
use Outcome::{Hash, Infeasible};

impl std::fmt::Debug for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hash(h) => write!(f, "Hash(0x{h:016x})"),
            Infeasible => write!(f, "Infeasible"),
        }
    }
}

/// Expected outcomes per circuit: DP, ECO region repair, SA repair, Xu19.
///
/// comp2 and vga: SA's and ECO's repairs freeze the scatter's order of
/// every device pair with `SeparationPlanner::extend_all_pairs`, which can
/// plan orders that no symmetric layout satisfies, so both LPs are
/// infeasible. That is a planner fault, pinned here as it stands.
#[rustfmt::skip]
const PINNED: [(&str, [Outcome; 4]); 10] = [
    ("adder", [Hash(0xbef449b4b6522847), Hash(0x4bcf43d345f9b20f), Hash(0x3964fe7ad107aa68), Hash(0x42d3ad3710e6c061)]),
    ("cc_ota", [Hash(0xebdd2e8f1bd5263a), Hash(0xb54769310a4a8f15), Hash(0x2ae7113928c2e822), Hash(0xdec2875f0148579a)]),
    ("comp1", [Hash(0xcb29a96751dc87c5), Hash(0xdbf83701489f06f3), Hash(0xb778056831cdb612), Hash(0x65de1d74588879ed)]),
    ("comp2", [Hash(0xab9374c516b7bf9b), Infeasible, Infeasible, Hash(0x4b4be549bca1b1bb)]),
    ("cm_ota1", [Hash(0x2028367c732dc12f), Hash(0xef511871fbf10a38), Hash(0xd32aa0b650efbf6f), Hash(0x58cb9cdff48e22c1)]),
    ("cm_ota2", [Hash(0xc2ade6c3534039a5), Hash(0xde90b44ada6e4b8a), Hash(0xacd7dd9503f9716b), Hash(0xe424f5acefe35830)]),
    ("scf", [Hash(0x35e056f3bba5d9d3), Hash(0xbc61fd4ca480fcbb), Hash(0xcb0bae443016e087), Hash(0xac2a12902c1e730b)]),
    ("vga", [Hash(0x053cc8b95d002f68), Infeasible, Infeasible, Hash(0x2691057b28f08abb)]),
    ("vco1", [Hash(0x0ea1d949add67c0d), Hash(0xdcba9cf9378032c5), Hash(0xdcba9cf9378032c5), Hash(0xfc478ab543236423)]),
    ("vco2", [Hash(0xaf9ad1b56bbff93d), Hash(0x26f54daade1e8b23), Hash(0x26f54daade1e8b23), Hash(0xc8ef92e927913365)]),
];

fn scatter(circuit: &Circuit) -> Placement {
    let side = (2.0 * circuit.total_device_area()).sqrt();
    let mut rng = StdRng::seed_from_u64(18);
    let mut p = Placement::new(circuit.num_devices());
    for pos in &mut p.positions {
        *pos = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    }
    p
}

fn outcome(result: Result<Placement, PlaceError>, circuit: &Circuit, what: &str) -> Outcome {
    let p = match result {
        Ok(p) => p,
        Err(PlaceError::Solve(SolveError::Infeasible)) => return Infeasible,
        Err(e) => panic!("{} {what}: {e}", circuit.name()),
    };
    assert!(
        p.is_legal(circuit, 1e-6),
        "{} {what}: illegal",
        circuit.name()
    );
    let mut h = Fnv::new();
    h.placement(&p);
    Hash(h.0)
}

#[test]
fn legalizers_reproduce_their_pinned_placements() {
    let eco_cfg = EcoConfig::default();
    let mut mismatches = Vec::new();
    for (name, expected) in &PINNED {
        let c = testcases::testcase_by_name(name).expect("paper circuit");
        let n = c.num_devices();
        let target = scatter(&c);
        let mut dirty = vec![false; n];
        dirty[0] = true;
        let region = eco::region_mask(&c, &target, &dirty, eco_cfg.margin);
        let got = [
            outcome(
                eplace::legalize(&c, &target, &DetailedConfig::default()).map(|r| r.0),
                &c,
                "dp",
            ),
            outcome(
                eco::region_repair(&c, &target, &region, eco_cfg.pin_cost),
                &c,
                "eco",
            ),
            // SA's repair: every device in the region, at cost 1.
            outcome(
                eco::region_repair(&c, &target, &vec![true; n], 1.0),
                &c,
                "sa",
            ),
            outcome(
                placer_xu19::legalize_two_stage(&c, &target).map(|r| r.0),
                &c,
                "xu19",
            ),
        ];
        if &got != expected {
            mismatches.push(format!("(\"{name}\", {got:?}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "legalizer outputs moved:\n{}",
        mismatches.join("\n")
    );
}
