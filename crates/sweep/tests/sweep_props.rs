//! Property tests for the artifact-cache and racing contracts the sweep
//! engine leans on:
//!
//! 1. placing on cached [`CircuitArtifacts`] is bit-identical to a
//!    cold-built run, for every placer of the portfolio;
//! 2. a netlist edit changes the content hash, and an invalidated cache
//!    entry rebuilds (no stale artifacts survive an edit);
//! 3. a portfolio race is bit-identical across worker-pool sizes.

use analog_netlist::{parser, testcases, Circuit};
use eplace::{ArtifactCache, PlaceOutcome, Placer, RunBudget};
use placer_jobs::{make_placer, normalize_timing, Profile};
use placer_sweep::{SweepConfig, SweepEngine};
use proptest::prelude::*;

const PLACERS: [&str; 4] = ["eplace-a", "eplace-ap", "sa", "xu19"];

fn build(placer: usize) -> Box<dyn Placer> {
    make_placer(PLACERS[placer], Profile::Small, None)
        .expect("small-profile config is valid")
        .0
}

fn three_smallest() -> Vec<Circuit> {
    let mut all = testcases::all_testcases();
    all.sort_by_key(Circuit::num_devices);
    all.truncate(3);
    all
}

fn assert_bit_identical(a: &PlaceOutcome, b: &PlaceOutcome, what: &str) {
    let (a, b) = (a.solution().expect(what), b.solution().expect(what));
    assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits(), "{what}: hpwl differs");
    assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area differs");
    assert_eq!(a.placement.positions.len(), b.placement.positions.len());
    for (i, (pa, pb)) in a
        .placement
        .positions
        .iter()
        .zip(&b.placement.positions)
        .enumerate()
    {
        assert_eq!(
            (pa.0.to_bits(), pa.1.to_bits()),
            (pb.0.to_bits(), pb.1.to_bits()),
            "{what}: device {i} position differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cache contract: `place_artifacts` on a cached bundle reproduces a
    /// cold `place` bit-for-bit — the shared state (device→net index, GNN
    /// topology, density templates, SA tables) is exactly what the cold
    /// path would have computed. Checked for every placer on the three
    /// smallest paper circuits, through a cache warmed by a prior run so
    /// the second lookup exercises the hit path.
    #[test]
    fn cached_artifacts_place_bit_identically_to_cold(placer in 0usize..4) {
        let cache = ArtifactCache::new();
        for circuit in three_smallest() {
            let p = build(placer);
            let cold = p
                .place(&circuit, &RunBudget::unlimited())
                .expect("cold run succeeds");

            let artifacts = cache.get_or_build(&circuit);
            let warm = p
                .place_artifacts(&artifacts, &RunBudget::unlimited())
                .expect("cached run succeeds");
            assert_bit_identical(&warm, &cold, PLACERS[placer]);

            // Second lookup must hit, and hit-path artifacts must behave
            // identically to the ones the miss path built.
            let hits_before = cache.hits();
            let again = cache.get_or_build(&circuit);
            prop_assert!(cache.hits() > hits_before, "second lookup must hit");
            let rewarm = p
                .place_artifacts(&again, &RunBudget::unlimited())
                .expect("hit-path run succeeds");
            assert_bit_identical(&rewarm, &cold, PLACERS[placer]);
        }
    }

    /// Eviction contract: editing the netlist text changes the content
    /// hash (so edited circuits never alias a stale entry), and after
    /// `invalidate` the next lookup rebuilds a fresh bundle that still
    /// hashes identically.
    #[test]
    fn netlist_edit_changes_hash_and_invalidate_rebuilds(width in 5u32..12) {
        let circuit = testcases::cc_ota();
        let deck = parser::write_spice(&circuit);
        let cons = parser::write_constraints(&circuit);
        let cache = ArtifactCache::new();

        let original = cache.get_or_parse(&deck, Some(&cons)).expect("parse deck");
        let mut parsed = parser::parse_spice(&deck).expect("parse deck");
        parser::parse_constraints(&mut parsed, &cons).expect("parse constraints");
        prop_assert_eq!(original.content_hash(), eplace::circuit_content_hash(&parsed));

        // Any width edit must move the hash.
        let edited_deck = deck.replace("W=4.0000", &format!("W={width}.0000"));
        prop_assert!(edited_deck != deck, "testcase must contain the edited width");
        let edited = cache.get_or_parse(&edited_deck, Some(&cons)).expect("parse edited deck");
        prop_assert!(edited.content_hash() != original.content_hash(),
            "netlist edit must change the content hash");

        // Invalidate the original; the rebuilt bundle is new but equal.
        prop_assert!(cache.invalidate(original.content_hash()));
        let rebuilt = cache.get_or_parse(&deck, Some(&cons)).expect("reparse deck");
        prop_assert!(!std::sync::Arc::ptr_eq(&original, &rebuilt), "eviction must rebuild");
        prop_assert_eq!(rebuilt.content_hash(), original.content_hash());
    }
}

/// Racing determinism across thread counts: the same aggressive sweep run
/// on one worker and on four produces byte-identical reports (modulo wall-clock) and an identical Pareto front, with at
/// least one racer early-killed so the kill path itself is covered.
#[test]
fn racing_is_bit_identical_across_thread_counts() {
    let config = SweepConfig {
        circuit: "cc_ota".into(),
        placers: vec!["eplace-a".into(), "sa".into(), "xu19".into()],
        seeds: vec![1, 2, 3, 4],
        race: placer_sweep::RaceConfig {
            rounds: 4,
            round_checks: 2,
            kill_ratio: 1.0,
            min_survivors: 1,
        },
        ..SweepConfig::default()
    };

    placer_parallel::set_max_threads(1);
    let one = SweepEngine::new(config.clone())
        .run()
        .expect("1-thread sweep succeeds");
    placer_parallel::set_max_threads(4);
    let four = SweepEngine::new(config)
        .run()
        .expect("4-thread sweep succeeds");
    placer_parallel::set_max_threads(0);

    assert!(one.killed() >= 1, "aggressive policy must kill a racer");
    assert!(!one.pareto.is_empty(), "finished racers imply a front");
    assert_eq!(
        normalize_timing(&one.to_jsonl()),
        normalize_timing(&four.to_jsonl()),
        "reports must not depend on the worker-pool size"
    );
    assert_eq!(one.pareto, four.pareto);
}

/// The aspect/relax axes preserve both determinism contracts: a one-worker
/// sweep and a four-worker sweep over the expanded variant grid agree
/// byte-for-byte, and the neutral point of each axis
/// (aspect 1.0, relax 0.0) reports figures bit-identical to a sweep that
/// never mentions the axes.
#[test]
fn aspect_and_relax_axes_stay_deterministic() {
    let base = SweepConfig {
        circuit: "cc_ota".into(),
        placers: vec!["eplace-a".into(), "sa".into(), "xu19".into()],
        seeds: vec![1],
        ..SweepConfig::default()
    };
    let config = SweepConfig {
        aspects: vec![1.0, 2.0],
        relaxations: vec![0.0, 0.3],
        ..base.clone()
    };

    placer_parallel::set_max_threads(1);
    let one = SweepEngine::new(config.clone())
        .run()
        .expect("1-thread sweep succeeds");
    placer_parallel::set_max_threads(4);
    let four = SweepEngine::new(config)
        .run()
        .expect("4-thread sweep succeeds");
    placer_parallel::set_max_threads(0);

    assert_eq!(one.variants.len(), 4, "2 aspects × 2 relaxations");
    assert_eq!(
        normalize_timing(&one.to_jsonl()),
        normalize_timing(&four.to_jsonl()),
        "axis expansion must not depend on the worker-pool size"
    );
    assert_eq!(one.pareto, four.pareto);

    // Variant 0 is (aspect 1.0, relax 0.0): the neutral overrides must be
    // bit-identical to the axis-free baseline (√1 = 1 and ×1.0 scaling
    // are exact), so turning the axes on cannot perturb existing sweeps.
    let baseline = SweepEngine::new(base).run().expect("baseline succeeds");
    let neutral = &one.variants[0];
    assert_eq!(
        (neutral.variant.aspect, neutral.variant.relax),
        (Some(1.0), Some(0.0))
    );
    for (a, b) in neutral.reports.iter().zip(&baseline.variants[0].reports) {
        assert_eq!(a.placer, b.placer);
        assert_eq!(a.status, b.status);
        assert_eq!(a.hpwl.map(f64::to_bits), b.hpwl.map(f64::to_bits));
        assert_eq!(a.area.map(f64::to_bits), b.area.map(f64::to_bits));
        assert_eq!(a.iterations, b.iterations);
    }
}
