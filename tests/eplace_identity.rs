//! Pins ePlace-A, ePlace-AP and GNN training bit for bit: the density,
//! wirelength and Poisson kernels under ePlace's global placement, and the
//! gradient reduction inside `Trainer::fit`, may change how they compute,
//! never what they compute.
//!
//! Two kinds of run are hashed:
//! - ePlace-A's and ePlace-AP's `place_artifacts` at `Profile::Default` on
//!   the ten paper circuits: the legal placement, HPWL, area and
//!   iterations;
//! - `Network::to_text()` and the final loss after a small, fixed
//!   `Trainer::fit` over mixed-size circuits.
//!
//! A change to any float operation's order in the trainer moves an Adam
//! update and shows up here as a different hash. A last-bit change in an
//! ePlace kernel moves the global placement, but legalization snaps it to
//! the grid and can absorb the change. The global placement's own bits are
//! not pinned: the WA exponentials and density gather rows are bounded-ULP
//! under the AVX backends, so those bits differ between hosts.

mod common;

use analog_netlist::{testcases, Placement};
use common::{pinned_row, Fnv};
use eplace::{CircuitArtifacts, Placer, RunBudget};
use placer_gnn::{CircuitGraph, Network, TrainOptions, Trainer, TrainingSample};
use placer_jobs::{make_placer, Profile};

/// Expected hashes per circuit: ePlace-A, then ePlace-AP.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 2]); 10] = [
    ("adder", [0xb32a3b624c945a25, 0xb32a3b624c945a25]),
    ("cc_ota", [0x227b0436f45ebb1f, 0xf1da46e19b7f1274]),
    ("comp1", [0x69f7617231c57b13, 0x866360116d8e3f86]),
    ("comp2", [0x72ce2972ab0d09ab, 0x986457b3524975d1]),
    ("cm_ota1", [0x8f822f639777a83a, 0x651e9f380a83b10b]),
    ("cm_ota2", [0x853c51589c9a57ae, 0x4b008744ede09ccd]),
    ("scf", [0x77eddfec937eacf5, 0x3da2e819c331dc43]),
    ("vga", [0xf80330ff4660659f, 0xf80330ff4660659f]),
    ("vco1", [0xede9d189d478250b, 0x3130b0367376cda5]),
    ("vco2", [0xa8ef34887af12daa, 0x6b6d58355b5a1043]),
];

/// The trained network's text and final loss.
const PINNED_FIT: u64 = 0xee138ba7ec024a02;

fn default_placer(name: &str) -> Box<dyn Placer> {
    make_placer(name, Profile::Default, None)
        .expect("known placer")
        .0
}

#[test]
fn eplace_reproduces_its_pinned_placements() {
    let placers = [default_placer("eplace-a"), default_placer("eplace-ap")];
    let unlimited = RunBudget::unlimited();
    let mut mismatches = Vec::new();
    for (name, expected) in &PINNED {
        let c = testcases::testcase_by_name(name).expect("paper circuit");
        let bundle = CircuitArtifacts::build(c);
        let mut got = [0u64; 2];
        for (slot, placer) in got.iter_mut().zip(&placers) {
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
        "ePlace outputs moved:\n{}",
        mismatches.join("\n")
    );
}

/// Forty labelled graphs over two circuit sizes: even samples are tight
/// placements (label 0), odd ones scattered (label 1). Positions come
/// from a fixed integer hash, so the set is the same on every host.
fn training_set() -> Vec<TrainingSample> {
    let circuits = [testcases::cc_ota(), testcases::adder()];
    (0..40u64)
        .map(|i| {
            let circuit = &circuits[(i % 4 / 2) as usize];
            let spread = if i % 2 == 1 { 9.0 } else { 1.5 };
            let mut p = Placement::new(circuit.num_devices());
            for (d, pos) in p.positions.iter_mut().enumerate() {
                let h = (i * 1_000 + d as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = |shift: u32| ((h >> shift) & 0xffff) as f64 / 65_536.0;
                *pos = (u(8) * spread, u(32) * spread);
            }
            TrainingSample {
                graph: CircuitGraph::new(circuit, &p, 10.0),
                label: (i % 2) as f64,
            }
        })
        .collect()
}

#[test]
fn gnn_fit_reproduces_its_pinned_weights() {
    let samples = training_set();
    let mut network = Network::default_config(5);
    let loss = Trainer::new().fit(
        &mut network,
        &samples,
        &TrainOptions {
            epochs: 4,
            ..TrainOptions::default()
        },
    );
    let mut h = Fnv::new();
    h.bytes(network.to_text().as_bytes());
    h.eat(loss.to_bits());
    assert_eq!(
        h.0, PINNED_FIT,
        "trained weights moved: PINNED_FIT = 0x{:016x}",
        h.0
    );
}
