//! Property-based tests for the sequence-pair floorplanner, islands, and
//! the incremental move evaluator.

#![cfg(test)]

use analog_netlist::testcases;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::anneal::{evaluate, random_move, SaConfig, SaState};
use crate::evaluator::MoveEvaluator;
use crate::island::BlockModel;
use crate::seqpair::{PackScratch, SequencePair};

fn permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
}

fn cc_ota_size() -> usize {
    testcases::cc_ota().num_devices()
}

fn adder_size() -> usize {
    testcases::adder().num_devices()
}

proptest! {
    /// Any sequence pair packs without overlap (the representation's core
    /// guarantee), for arbitrary permutations.
    #[test]
    fn arbitrary_sequence_pairs_pack_legally(
        s1 in permutation(cc_ota_size()),
        s2 in permutation(cc_ota_size()),
    ) {
        let circuit = testcases::cc_ota();
        let n = circuit.num_devices();
        let sp = SequencePair {
            s1,
            s2,
            flips: vec![(false, false); n],
        };
        let p = sp.pack(&circuit);
        prop_assert!(p.overlapping_pairs(&circuit, 1e-9).is_empty());
        // Lower-left compaction: nothing below/left of the origin.
        for (id, d) in circuit.device_ids() {
            let (x, y) = p.position(id);
            prop_assert!(x >= d.width / 2.0 - 1e-9);
            prop_assert!(y >= d.height / 2.0 - 1e-9);
        }
    }

    /// Packing area is invariant under relabeling both sequences with the
    /// same permutation of identical-size items... weaker but useful:
    /// swapping the two sequences transposes left-of/below relations, so
    /// the bounding box of the transpose equals the original's transpose
    /// for identical squares. Here we assert the general sanity bound: the
    /// packed bounding box never exceeds the serial row/column bounds.
    #[test]
    fn packing_is_bounded_by_serial_layouts(
        s1 in permutation(adder_size()),
        s2 in permutation(adder_size()),
    ) {
        let circuit = testcases::adder();
        let n = circuit.num_devices();
        let sp = SequencePair {
            s1,
            s2,
            flips: vec![(false, false); n],
        };
        let p = sp.pack(&circuit);
        let bb = p.bounding_box(&circuit).unwrap();
        let total_w: f64 = circuit.devices().iter().map(|d| d.width).sum();
        let total_h: f64 = circuit.devices().iter().map(|d| d.height).sum();
        prop_assert!(bb.2 - bb.0 <= total_w + 1e-9);
        prop_assert!(bb.3 - bb.1 <= total_h + 1e-9);
    }

    /// Islands expanded at arbitrary origins preserve exact symmetry.
    #[test]
    fn island_symmetry_invariant_under_origins(
        xs in proptest::collection::vec(0.0..200.0f64, 12),
        ys in proptest::collection::vec(0.0..200.0f64, 12),
    ) {
        let circuit = testcases::cc_ota();
        let model = BlockModel::new(&circuit);
        prop_assume!(model.len() <= 12);
        let origins: Vec<(f64, f64)> = (0..model.len())
            .map(|i| (xs[i] * 3.0, ys[i])) // spread x to avoid overlaps mattering
            .collect();
        let flips = vec![(false, false); circuit.num_devices()];
        let placement = model.expand(&circuit, &origins, &flips);
        prop_assert!(placement.symmetry_violation(&circuit) < 1e-9);
    }

    /// Random move/accept/reject sequences keep the incremental cost
    /// within 1e-9 of the full-recompute oracle (it is in fact
    /// bit-identical; the tolerance assertion documents the ISSUE's
    /// contract, the bit check enforces the stronger one).
    #[test]
    fn incremental_cost_tracks_oracle_over_move_sequences(
        seed in 0u64..1u64 << 48,
        accepts in proptest::collection::vec(proptest::bool::ANY, 40),
    ) {
        let circuit = testcases::cc_ota();
        let model = BlockModel::new(&circuit);
        let config = SaConfig::default();
        let n = circuit.num_devices();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SaState {
            seq_pair: SequencePair::identity(model.len()),
            flips: vec![(false, false); n],
        };
        for _ in 0..2 * model.len() {
            random_move(&mut state, n, &mut rng);
        }
        let mut engine = MoveEvaluator::new(&circuit, &model, &config, &state, None);
        let mut trial = state.clone();
        for (step, &accept) in accepts.iter().enumerate() {
            trial.copy_from(&state);
            random_move(&mut trial, n, &mut rng);
            let got = engine.eval_trial(&trial);
            let (_, want) = evaluate(&circuit, &model, &trial, &config, None);
            prop_assert!((got.total - want.total).abs() <= 1e-9, "step {}", step);
            prop_assert_eq!(got.total.to_bits(), want.total.to_bits(), "step {}", step);
            prop_assert_eq!(got.hpwl.to_bits(), want.hpwl.to_bits(), "step {}", step);
            prop_assert_eq!(
                got.violation.to_bits(),
                want.violation.to_bits(),
                "step {}",
                step
            );
            if accept {
                engine.accept();
                std::mem::swap(&mut state, &mut trial);
            }
        }
    }
}

proptest! {
    // Cheap cases (n <= 64), so enough of them to hit every size.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Fenwick packing is bit-identical to the O(n²) longest-path
    /// reference on arbitrary sequence pairs of 1-64 items, the paper
    /// circuits' 4-24 blocks included. Half the cases use small integer
    /// dimensions, so equal ends tie.
    #[test]
    fn packing_matches_reference_at_every_size(
        n in 1usize..=64,
        keys in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 64),
        dims in proptest::collection::vec((0.1..50.0f64, 0.1..50.0f64), 64),
        integer in proptest::bool::ANY,
    ) {
        let order = |key: fn(&(u64, u64)) -> u64| {
            let mut seq: Vec<usize> = (0..n).collect();
            seq.sort_by_key(|&i| key(&keys[i]));
            seq
        };
        let sp = SequencePair {
            s1: order(|k| k.0),
            s2: order(|k| k.1),
            flips: vec![(false, false); n],
        };
        let dim = |d: f64| if integer { (d / 10.0).ceil() } else { d };
        let widths: Vec<f64> = dims[..n].iter().map(|d| dim(d.0)).collect();
        let heights: Vec<f64> = dims[..n].iter().map(|d| dim(d.1)).collect();
        let want = sp.pack_dims_reference(&widths, &heights);
        let mut scratch = PackScratch::new();
        let mut got = Vec::new();
        sp.pack_dims_with(&widths, &heights, &mut scratch, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.0.to_bits(), w.0.to_bits(), "x of block {}", i);
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "y of block {}", i);
        }
    }
}
