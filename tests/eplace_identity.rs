//! Pins ePlace-A, ePlace-AP and GNN training bit for bit: the density,
//! wirelength and Poisson kernels under ePlace's global placement, and the
//! gradient reduction inside `Trainer::fit`, may change how they compute,
//! never what they compute.
//!
//! These runs are hashed:
//! - ePlace-A's and ePlace-AP's `place_artifacts` at `Profile::Default` on
//!   the ten paper circuits: the legal placement, HPWL, area and
//!   iterations;
//! - the same for ePlace-A with structure-preserving legalization
//!   (`preserve_gp`), the setting `table1`, `figure2` and `scaling` run;
//! - both placers' `Exhausted` outcomes at `Profile::Small` under step
//!   budgets that stop the first and the second restart;
//! - ePlace-AP's checkpoint at a cancel point in each restart: every field
//!   name in order, and every value but the wall-clock ones;
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
use eplace::{
    Checkpoint, CircuitArtifacts, EPlaceA, PlaceError, PlaceOutcome, Placer, PlacerConfig,
    RunBudget,
};
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

/// Expected hashes per circuit: ePlace-A at the default settings with
/// `preserve_gp` set.
#[rustfmt::skip]
const PINNED_PRESERVE_GP: [(&str, [u64; 1]); 10] = [
    ("adder", [0xb32a3b624c945a25]),
    ("cc_ota", [0x933fb3ae2e893669]),
    ("comp1", [0x712d7c2157094447]),
    ("comp2", [0x72ce2972ab0d09ab]),
    ("cm_ota1", [0x976a92ced9fd4ece]),
    ("cm_ota2", [0x4b008744ede09ccd]),
    ("scf", [0x442367ce4cd771de]),
    ("vga", [0xf80330ff4660659f]),
    ("vco1", [0xcc5e92e3ab2839cc]),
    ("vco2", [0x63e151b0a26a79d4]),
];

/// Expected hashes of `Exhausted` runs at `Profile::Small` (2 restarts of
/// at most 80 iterations): ePlace-A after 4 and after 95 budget checks,
/// then ePlace-AP after 4 and 95. Four checks stop the first restart's
/// global placement, which is legalized as it stands; 95 stop the second,
/// which returns the first restart's result.
#[rustfmt::skip]
const PINNED_EXHAUSTED: [(&str, [u64; 4]); 2] = [
    ("adder", [0x9a3facfd24d2d732, 0x8279e957edb5c6f1, 0xbbf81b6d557f98be, 0x5b9f6432d7883443]),
    ("cc_ota", [0x7e4966edc6231e3c, 0xdcf43a5efad6af04, 0x9dc5271a98aeaac0, 0x57fbf51e282de5f5]),
];

/// Budget checks after which the `Exhausted` runs stop.
const EXHAUST_STEPS: [u64; 2] = [4, 95];

/// Expected hashes of ePlace-AP's checkpoint on adder at `Profile::Small`,
/// cancelled after 11 checks (first restart, no best yet) and after 90
/// (second restart, a stored best), one row per SIMD backend: the
/// checkpoint holds the global placement's optimizer vectors, whose last
/// bits differ between backends.
#[rustfmt::skip]
const PINNED_AP_CHECKPOINT: [(&str, [u64; 2]); 3] = [
    ("scalar", [0x4b8072462fd56f81, 0x99e4c363bcd54da9]),
    ("avx2", [0x1d7ed3ea8fa5a361, 0x3d593afc2c585223]),
    ("avx512", [0x0202651aed1a8694, 0xaf9c9d9a23428a7a]),
];

/// Budget checks after which the checkpointed runs are cancelled.
const CANCEL_CHECKS: [u64; 2] = [11, 90];

/// Checkpoint fields that hold wall-clock seconds; only their names and
/// types are hashed.
const TIMING_FIELDS: [&str; 4] = ["total_gp", "total_dp", "best_gp_seconds", "best_dp_seconds"];

/// The trained network's text and final loss.
const PINNED_FIT: u64 = 0xee138ba7ec024a02;

fn default_placer(name: &str) -> Box<dyn Placer> {
    make_placer(name, Profile::Default, None)
        .expect("known placer")
        .0
}

fn small_placer(name: &str) -> Box<dyn Placer> {
    make_placer(name, Profile::Small, None)
        .expect("known placer")
        .0
}

/// Hashes a checkpoint's encoded text line by line, keeping only the type
/// and name of a [`TIMING_FIELDS`] line.
fn checkpoint_hash(ck: &Checkpoint) -> u64 {
    let mut h = Fnv::new();
    for line in ck.encode().lines() {
        let timing = line
            .split(' ')
            .nth(1)
            .is_some_and(|name| TIMING_FIELDS.contains(&name));
        let kept = match line.rsplit_once(' ') {
            Some((head, _)) if timing => head,
            _ => line,
        };
        h.bytes(kept.as_bytes());
        h.bytes(b"\n");
    }
    h.0
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

/// The `pinned_row`s of the circuits in `pins` whose hashes `run` no
/// longer reproduces.
fn moved_rows<const N: usize>(
    pins: &[(&str, [u64; N])],
    mut run: impl FnMut(&CircuitArtifacts) -> [u64; N],
) -> Vec<String> {
    pins.iter()
        .filter_map(|&(name, expected)| {
            let c = testcases::testcase_by_name(name).expect("paper circuit");
            let got = run(&CircuitArtifacts::build(c));
            (got != expected).then(|| pinned_row(name, got))
        })
        .collect()
}

/// The solution hash of a run that ended with `status`.
fn solution_hash(outcome: Result<PlaceOutcome, PlaceError>, status: &str) -> u64 {
    let outcome = outcome.unwrap();
    assert_eq!(outcome.status(), status);
    let mut h = Fnv::new();
    h.solution(outcome.solution().expect("a solution"));
    h.0
}

#[test]
fn eplace_a_preserving_gp_reproduces_its_pinned_placements() {
    let placer = EPlaceA::new(PlacerConfig {
        preserve_gp: true,
        ..PlacerConfig::default()
    });
    let moved = moved_rows(&PINNED_PRESERVE_GP, |bundle| {
        let outcome = placer.place_artifacts(bundle, &RunBudget::unlimited());
        [solution_hash(outcome, "complete")]
    });
    assert!(moved.is_empty(), "outputs moved:\n{}", moved.join("\n"));
}

#[test]
fn exhausted_eplace_runs_reproduce_their_pins() {
    let placers = [small_placer("eplace-a"), small_placer("eplace-ap")];
    let moved = moved_rows(&PINNED_EXHAUSTED, |bundle| {
        let mut runs = placers.iter().flat_map(|placer| {
            EXHAUST_STEPS.map(|steps| placer.place_artifacts(bundle, &RunBudget::steps(steps)))
        });
        std::array::from_fn(|_| solution_hash(runs.next().expect("four runs"), "exhausted"))
    });
    assert!(moved.is_empty(), "outputs moved:\n{}", moved.join("\n"));
}

#[test]
fn eplace_ap_checkpoints_reproduce_their_pins() {
    let placer = small_placer("eplace-ap");
    let bundle = CircuitArtifacts::build(testcases::adder());
    let mut got = [0u64; 2];
    for (slot, checks) in got.iter_mut().zip(CANCEL_CHECKS) {
        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(checks);
        let outcome = placer.place_artifacts(&bundle, &budget).unwrap();
        *slot = checkpoint_hash(outcome.checkpoint().expect("cancelled"));
    }
    let backend = placer_simd::selected().name();
    let expected = PINNED_AP_CHECKPOINT
        .iter()
        .find(|(name, _)| *name == backend)
        .map(|(_, hashes)| hashes);
    assert_eq!(
        expected,
        Some(&got),
        "ePlace-AP checkpoints moved:\n{}",
        pinned_row(backend, got)
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
