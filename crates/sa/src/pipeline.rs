//! End-to-end SA placer: anneal, then repair constraints exactly with one
//! minimal-displacement LP per axis ([`eplace::axis::repair`]), preserving
//! the packed topology. This mirrors how practical SA analog placers post-process the
//! best annealed floorplan into an exactly-symmetric layout.

use std::time::Instant;

use analog_netlist::{Circuit, Placement};
use eplace::{
    bad_checkpoint, expect_devices, expect_placer, Checkpoint, CircuitArtifacts, PlaceError,
    PlaceOutcome, PlaceSolution, Placer, RunBudget,
};
use placer_gnn::Network;

use crate::anneal::{
    anneal, anneal_budgeted, AnnealRun, ChainCheckpoint, ChainEntry, PerfCost, SaCheckpoint,
    SaConfig, SaCost, SaState,
};
use crate::seqpair::SequencePair;
use crate::shared::SaShared;

/// The simulated-annealing analog placer baseline.
///
/// # Examples
///
/// ```
/// use analog_netlist::testcases;
/// use eplace::{Placer, RunBudget};
/// use placer_sa::{SaConfig, SaPlacer};
///
/// # fn main() -> Result<(), eplace::PlaceError> {
/// let circuit = testcases::adder();
/// let config = SaConfig { temperatures: 20, moves_per_temperature: 30, ..SaConfig::default() };
/// let outcome = SaPlacer::new(config).place(&circuit, &RunBudget::unlimited())?;
/// assert!(outcome.solution().unwrap().placement.is_legal(&circuit, 1e-6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SaPlacer {
    /// Annealing configuration.
    pub config: SaConfig,
}

impl SaPlacer {
    /// Creates a placer with the given annealing configuration.
    pub fn new(config: SaConfig) -> Self {
        Self { config }
    }

    /// Repairs the annealed floorplan into the legal solution: annealing
    /// is stage 1, LP repair stage 2, and moves are the iteration count.
    fn finish(
        &self,
        circuit: &Circuit,
        annealed: crate::anneal::AnnealResult,
        anneal_seconds: f64,
    ) -> Result<PlaceSolution, PlaceError> {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("sa_repair");
        let _span = SPAN.enter();
        let t1 = Instant::now();
        // The annealed packing is overlap-free but its symmetry, alignment
        // and ordering are only penalty-tight. One LP per axis minimizes
        // the total displacement (every device at cost 1) subject to the
        // exact constraints and the packing's relative orders. It snaps the
        // constraints without re-optimizing wirelength, which would credit
        // SA with an analytical post-pass.
        let cost = vec![1.0; circuit.num_devices()];
        let p = &annealed.placement;
        let placement = eplace::axis::repair(circuit, p, p, &cost)?;
        let stage2_seconds = t1.elapsed().as_secs_f64();
        Ok(PlaceSolution {
            hpwl: placement.hpwl(circuit),
            area: placement.area(circuit),
            placement,
            stage1_seconds: anneal_seconds,
            stage2_seconds,
            iterations: annealed.moves,
        })
    }

    /// Runs the performance-driven flow: Φ inference inside the SA cost,
    /// as in the ICCAD'20 baseline \[19\].
    ///
    /// # Errors
    ///
    /// Propagates the LP solver error from the repair pass.
    pub fn place_perf(
        &self,
        circuit: &Circuit,
        network: &Network,
        weight: f64,
        scale: f64,
    ) -> Result<PlaceSolution, PlaceError> {
        let t0 = Instant::now();
        let annealed = anneal(
            circuit,
            &self.config,
            Some(PerfCost {
                network,
                weight,
                scale,
            }),
        );
        let anneal_seconds = t0.elapsed().as_secs_f64();
        self.finish(circuit, annealed, anneal_seconds)
    }

    fn run_engine(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
        resume: Option<&Checkpoint>,
    ) -> Result<PlaceOutcome, PlaceError> {
        let circuit = artifacts.circuit();
        let shared = artifacts.ext_or_build(SaShared::new);
        let sack = match resume {
            Some(ck) => {
                expect_placer(ck, self.name())?;
                Some(decode_checkpoint(
                    ck,
                    circuit,
                    &self.config,
                    shared.model.len(),
                )?)
            }
            None => None,
        };
        let t0 = Instant::now();
        let run = anneal_budgeted(
            circuit,
            &self.config,
            None,
            budget,
            sack.as_ref(),
            Some(&shared),
        );
        let anneal_seconds = t0.elapsed().as_secs_f64();
        match run {
            AnnealRun::Complete(annealed) => Ok(PlaceOutcome::Complete(self.finish(
                circuit,
                annealed,
                anneal_seconds,
            )?)),
            // Best-so-far is still a packed floorplan; the same LP repair
            // pass legalizes it, so Exhausted upholds the trait's "always
            // legal" contract.
            AnnealRun::Exhausted(annealed) => Ok(PlaceOutcome::Exhausted(self.finish(
                circuit,
                annealed,
                anneal_seconds,
            )?)),
            AnnealRun::Cancelled(sack) => {
                Ok(PlaceOutcome::Cancelled(encode_checkpoint(circuit, &sack)))
            }
        }
    }
}

impl Placer for SaPlacer {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn place_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts, budget, None)
    }

    fn resume_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts, budget, Some(checkpoint))
    }

    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<eplace::RaceProbe> {
        probe_checkpoint(circuit, checkpoint)
    }

    fn eco_refine(
        &self,
        artifacts: &CircuitArtifacts,
        warm: &Placement,
        dirty: &[bool],
        eco: &eplace::EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        // The annealer cannot resume from coordinates, so the warm
        // placement is mapped back into a sequence pair and polished with
        // a deterministic greedy sweep scoped to the dirtied blocks; the
        // engine's region repair restores exact legality afterwards.
        let shared = artifacts.ext_or_build(SaShared::new);
        let (placement, moves) = crate::eco::polish(
            artifacts.circuit(),
            &shared.model,
            &self.config,
            warm,
            dirty,
            eco.refine_iters,
        );
        Ok(Some((placement, moves)))
    }
}

/// Best-so-far quality frozen in an SA checkpoint: scan every chain's
/// committed (`done`) or best-pending cost group and report the lowest
/// total. Pure function of the checkpoint text — no annealing state is
/// touched, so racing probes stay bit-identical across thread counts.
fn probe_checkpoint(circuit: &Circuit, ck: &Checkpoint) -> Option<eplace::RaceProbe> {
    if ck.placer() != "sa" || ck.get_u64("n").ok()? as usize != circuit.num_devices() {
        return None;
    }
    let chains = ck.get_u64("chains").ok()? as usize;
    let mut best: Option<(f64, eplace::RaceProbe)> = None;
    for i in 0..chains {
        let p = format!("c{i}_");
        let cost_prefix = match ck.get_str(&format!("{p}kind")).ok()? {
            "done" => format!("{p}cost_"),
            _ => format!("{p}best_cost_"),
        };
        let total = ck.get_f64(&format!("{cost_prefix}total")).ok()?;
        let probe = eplace::RaceProbe {
            hpwl: ck.get_f64(&format!("{cost_prefix}hpwl")).ok()?,
            area: ck.get_f64(&format!("{cost_prefix}area")).ok()?,
        };
        if best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, probe));
        }
    }
    best.map(|(_, probe)| probe)
}

fn put_state(ck: &mut Checkpoint, prefix: &str, state: &SaState) {
    let s1: Vec<u64> = state.seq_pair.s1.iter().map(|&d| d as u64).collect();
    let s2: Vec<u64> = state.seq_pair.s2.iter().map(|&d| d as u64).collect();
    let bfx: Vec<bool> = state.seq_pair.flips.iter().map(|f| f.0).collect();
    let bfy: Vec<bool> = state.seq_pair.flips.iter().map(|f| f.1).collect();
    let fx: Vec<bool> = state.flips.iter().map(|f| f.0).collect();
    let fy: Vec<bool> = state.flips.iter().map(|f| f.1).collect();
    ck.put_u64s(&format!("{prefix}s1"), &s1);
    ck.put_u64s(&format!("{prefix}s2"), &s2);
    ck.put_bools(&format!("{prefix}bfx"), &bfx);
    ck.put_bools(&format!("{prefix}bfy"), &bfy);
    ck.put_bools(&format!("{prefix}fx"), &fx);
    ck.put_bools(&format!("{prefix}fy"), &fy);
}

fn get_state(
    ck: &Checkpoint,
    prefix: &str,
    blocks: usize,
    n: usize,
) -> Result<SaState, PlaceError> {
    let s1 = ck.get_u64s(&format!("{prefix}s1"))?;
    let s2 = ck.get_u64s(&format!("{prefix}s2"))?;
    let bfx = ck.get_bools(&format!("{prefix}bfx"))?;
    let bfy = ck.get_bools(&format!("{prefix}bfy"))?;
    let fx = ck.get_bools(&format!("{prefix}fx"))?;
    let fy = ck.get_bools(&format!("{prefix}fy"))?;
    if s1.len() != blocks || s2.len() != blocks || bfx.len() != blocks || bfy.len() != blocks {
        return Err(bad_checkpoint(format!(
            "`{prefix}` sequence pair sized for {} blocks, circuit has {blocks}",
            s1.len()
        )));
    }
    if fx.len() != n || fy.len() != n {
        return Err(bad_checkpoint(format!(
            "`{prefix}` flips sized for {} devices, circuit has {n}",
            fx.len()
        )));
    }
    for seq in [&s1, &s2] {
        let mut seen = vec![false; blocks];
        for &d in seq.iter() {
            let d = d as usize;
            if d >= blocks || seen[d] {
                return Err(bad_checkpoint(format!(
                    "`{prefix}` sequence is not a permutation of 0..{blocks}"
                )));
            }
            seen[d] = true;
        }
    }
    Ok(SaState {
        seq_pair: SequencePair {
            s1: s1.iter().map(|&d| d as usize).collect(),
            s2: s2.iter().map(|&d| d as usize).collect(),
            flips: bfx.iter().copied().zip(bfy.iter().copied()).collect(),
        },
        flips: fx.iter().copied().zip(fy.iter().copied()).collect(),
    })
}

fn put_cost(ck: &mut Checkpoint, prefix: &str, cost: &SaCost) {
    ck.put_f64(&format!("{prefix}area"), cost.area);
    ck.put_f64(&format!("{prefix}hpwl"), cost.hpwl);
    ck.put_f64(&format!("{prefix}violation"), cost.violation);
    ck.put_f64(&format!("{prefix}phi"), cost.phi);
    ck.put_f64(&format!("{prefix}total"), cost.total);
}

fn get_cost(ck: &Checkpoint, prefix: &str) -> Result<SaCost, PlaceError> {
    Ok(SaCost {
        area: ck.get_f64(&format!("{prefix}area"))?,
        hpwl: ck.get_f64(&format!("{prefix}hpwl"))?,
        violation: ck.get_f64(&format!("{prefix}violation"))?,
        phi: ck.get_f64(&format!("{prefix}phi"))?,
        total: ck.get_f64(&format!("{prefix}total"))?,
    })
}

/// Serializes a cancelled annealing run into the portable checkpoint
/// format (one `c{i}_`-prefixed field group per chain).
fn encode_checkpoint(circuit: &Circuit, sack: &SaCheckpoint) -> Checkpoint {
    let mut ck = Checkpoint::new("sa");
    ck.put_u64("n", circuit.num_devices() as u64);
    ck.put_u64("chains", sack.chains.len() as u64);
    for (i, entry) in sack.chains.iter().enumerate() {
        let p = format!("c{i}_");
        match entry {
            ChainEntry::Done {
                state,
                cost,
                moves,
                exhausted,
            } => {
                ck.put_str(&format!("{p}kind"), "done");
                put_state(&mut ck, &p, state);
                put_cost(&mut ck, &format!("{p}cost_"), cost);
                ck.put_u64(&format!("{p}moves"), *moves as u64);
                ck.put_u64(&format!("{p}exhausted"), u64::from(*exhausted));
            }
            ChainEntry::Pending(c) => {
                ck.put_str(&format!("{p}kind"), "pending");
                ck.put_u64(&format!("{p}level"), c.level as u64);
                ck.put_f64(&format!("{p}temperature"), c.temperature);
                put_state(&mut ck, &p, &c.state);
                put_cost(&mut ck, &format!("{p}cost_"), &c.cost);
                put_state(&mut ck, &format!("{p}best_"), &c.best_state);
                put_cost(&mut ck, &format!("{p}best_cost_"), &c.best_cost);
                ck.put_u64(&format!("{p}moves"), c.moves as u64);
                ck.put_u64(&format!("{p}accepts"), c.accepts);
                ck.put_u64s(&format!("{p}rng"), &c.rng);
            }
        }
    }
    ck
}

fn decode_checkpoint(
    ck: &Checkpoint,
    circuit: &Circuit,
    config: &SaConfig,
    blocks: usize,
) -> Result<SaCheckpoint, PlaceError> {
    let n = expect_devices(ck, circuit)?;
    let chains = ck.get_u64("chains")? as usize;
    if chains != config.chains.max(1) {
        return Err(bad_checkpoint(format!(
            "checkpoint has {chains} chains, config wants {}",
            config.chains.max(1)
        )));
    }
    let mut entries = Vec::with_capacity(chains);
    for i in 0..chains {
        let p = format!("c{i}_");
        let kind = ck.get_str(&format!("{p}kind"))?;
        match kind {
            "done" => entries.push(ChainEntry::Done {
                state: get_state(ck, &p, blocks, n)?,
                cost: get_cost(ck, &format!("{p}cost_"))?,
                moves: ck.get_u64(&format!("{p}moves"))? as usize,
                exhausted: ck.get_u64(&format!("{p}exhausted"))? != 0,
            }),
            "pending" => {
                let rng_words = ck.get_u64s(&format!("{p}rng"))?;
                if rng_words.len() != 4 {
                    return Err(bad_checkpoint(format!(
                        "`{p}rng` holds {} words, expected 4",
                        rng_words.len()
                    )));
                }
                let level = ck.get_u64(&format!("{p}level"))? as usize;
                if level >= config.temperatures {
                    return Err(bad_checkpoint(format!(
                        "`{p}level` {level} out of range for {} temperatures",
                        config.temperatures
                    )));
                }
                entries.push(ChainEntry::Pending(ChainCheckpoint {
                    level,
                    temperature: ck.get_f64(&format!("{p}temperature"))?,
                    state: get_state(ck, &p, blocks, n)?,
                    cost: get_cost(ck, &format!("{p}cost_"))?,
                    best_state: get_state(ck, &format!("{p}best_"), blocks, n)?,
                    best_cost: get_cost(ck, &format!("{p}best_cost_"))?,
                    moves: ck.get_u64(&format!("{p}moves"))? as usize,
                    accepts: ck.get_u64(&format!("{p}accepts"))?,
                    rng: [rng_words[0], rng_words[1], rng_words[2], rng_words[3]],
                }))
            }
            other => {
                return Err(bad_checkpoint(format!(
                    "`{p}kind` is `{other}`, expected `done` or `pending`"
                )))
            }
        }
    }
    Ok(SaCheckpoint { chains: entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    /// Runs `placer` to completion through the cold front door.
    fn complete(placer: &SaPlacer, circuit: &Circuit) -> PlaceSolution {
        placer
            .place(circuit, &RunBudget::unlimited())
            .unwrap()
            .into_solution()
            .expect("an unlimited budget completes")
    }

    fn quick() -> SaPlacer {
        SaPlacer::new(SaConfig {
            temperatures: 25,
            moves_per_temperature: 40,
            ..SaConfig::default()
        })
    }

    #[test]
    fn repair_produces_exact_constraints() {
        let c = testcases::cc_ota();
        let result = anneal(
            &c,
            &SaConfig {
                temperatures: 20,
                moves_per_temperature: 30,
                ..SaConfig::default()
            },
            None,
        );
        let p = &result.placement;
        let repaired = eplace::axis::repair(&c, p, p, &vec![1.0; c.num_devices()]).unwrap();
        assert!(repaired.overlapping_pairs(&c, 1e-6).is_empty());
        assert!(repaired.symmetry_violation(&c) < 1e-6);
        assert!(repaired.alignment_violation(&c) < 1e-6);
        assert!(repaired.ordering_violation(&c) < 1e-6);
    }

    #[test]
    fn repair_moves_devices_minimally_when_already_legal() {
        // A placement that already satisfies everything should barely move.
        let c = testcases::adder();
        let result = anneal(
            &c,
            &SaConfig {
                temperatures: 40,
                moves_per_temperature: 60,
                penalty_weight: 500.0,
                ..SaConfig::default()
            },
            None,
        );
        let p = &result.placement;
        let repaired = eplace::axis::repair(&c, p, p, &vec![1.0; c.num_devices()]).unwrap();
        let displacement: f64 = result
            .placement
            .positions
            .iter()
            .zip(&repaired.positions)
            .map(|(a, b)| (a.0 - b.0).abs() + (a.1 - b.1).abs())
            .sum();
        // Heavy penalties drive the annealed violation near zero, so the
        // repair displacement should be small relative to the layout size.
        let side = c.total_device_area().sqrt();
        assert!(
            displacement < 4.0 * side,
            "displacement {displacement} too large vs side {side}"
        );
    }

    #[test]
    fn sa_pipeline_produces_legal_placement() {
        for circuit in [testcases::adder(), testcases::cc_ota()] {
            let result = complete(&quick(), &circuit);
            assert!(
                result
                    .placement
                    .overlapping_pairs(&circuit, 1e-6)
                    .is_empty(),
                "{}: overlaps",
                circuit.name()
            );
            assert!(result.placement.symmetry_violation(&circuit) < 1e-6);
            assert!(result.hpwl > 0.0 && result.area > 0.0);
        }
    }

    #[test]
    fn perf_flow_is_legal() {
        let circuit = testcases::adder();
        let network = placer_gnn::Network::default_config(5);
        let result = quick().place_perf(&circuit, &network, 30.0, 20.0).unwrap();
        assert!(result.placement.is_legal(&circuit, 1e-6));
    }

    #[test]
    fn more_moves_do_not_hurt_quality_much() {
        // A long run should be at least roughly as good as a short one
        // (cost is stochastic; allow 25% slack).
        let circuit = testcases::cc_ota();
        let short = SaPlacer::new(SaConfig {
            temperatures: 10,
            moves_per_temperature: 20,
            ..SaConfig::default()
        });
        let long = SaPlacer::new(SaConfig {
            temperatures: 60,
            moves_per_temperature: 100,
            ..SaConfig::default()
        });
        let (short, long) = (complete(&short, &circuit), complete(&long, &circuit));
        let score = |r: &PlaceSolution| r.area + r.hpwl;
        assert!(score(&long) < score(&short) * 1.25);
    }

    #[test]
    fn cancel_resume_roundtrips_through_the_text_codec() {
        let circuit = testcases::adder();
        let placer = quick();
        let reference = Placer::place(&placer, &circuit, &RunBudget::unlimited()).unwrap();

        for cancel_at in [0u64, 4, 20] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let outcome = Placer::place(&placer, &circuit, &budget).unwrap();
            let ck = outcome.checkpoint().expect("cancelled");
            // Through the codec, like the jobs engine does on disk.
            let decoded = Checkpoint::decode(&ck.encode()).unwrap();
            let resumed = placer
                .resume(&circuit, &decoded, &RunBudget::unlimited())
                .unwrap();
            let a = reference.solution().unwrap();
            let b = resumed.solution().expect("complete after resume");
            assert_eq!(a.placement, b.placement, "cancel_at={cancel_at}");
            assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
            assert_eq!(a.iterations, b.iterations, "moves must match");
        }
    }

    #[test]
    fn multi_chain_cancel_resume_is_bit_identical() {
        let circuit = testcases::adder();
        let placer = SaPlacer::new(SaConfig {
            temperatures: 20,
            moves_per_temperature: 30,
            chains: 3,
            ..SaConfig::default()
        });
        let reference = Placer::place(&placer, &circuit, &RunBudget::unlimited()).unwrap();

        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(8);
        let outcome = Placer::place(&placer, &circuit, &budget).unwrap();
        let ck = outcome.checkpoint().expect("cancelled");
        let resumed = placer
            .resume(&circuit, ck, &RunBudget::unlimited())
            .unwrap();
        let a = reference.solution().unwrap();
        let b = resumed.solution().expect("complete");
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn exhausted_runs_return_legal_placements() {
        let circuit = testcases::cc_ota();
        let placer = quick();
        for steps in [1u64, 10] {
            let outcome = Placer::place(&placer, &circuit, &RunBudget::steps(steps)).unwrap();
            assert!(outcome.is_exhausted(), "steps={steps}");
            let s = outcome.solution().unwrap();
            assert!(
                s.placement.is_legal(&circuit, 1e-6),
                "steps={steps}: exhausted placement must stay legal"
            );
        }
    }

    #[test]
    fn eco_replace_fast_path_is_legal() {
        let circuit = testcases::cc_ota();
        let placer = quick();
        let cold = complete(&placer, &circuit);
        let artifacts = CircuitArtifacts::build(circuit.clone());
        let warm = eplace::eco::warm_checkpoint(&circuit, &cold.placement);
        let delta = analog_netlist::NetlistDelta::parse("resize RB 18k\n").unwrap();
        let rep = placer
            .replace(
                &artifacts,
                &delta,
                &warm,
                &RunBudget::unlimited(),
                &eplace::EcoConfig::default(),
            )
            .unwrap();
        assert!(rep.outcome.is_fast());
        let sol = rep.outcome.solution().unwrap();
        assert!(sol.placement.is_legal(rep.artifacts.circuit(), 1e-6));
    }

    #[test]
    fn resume_rejects_mismatched_configs() {
        let circuit = testcases::adder();
        let placer = SaPlacer::new(SaConfig {
            temperatures: 20,
            moves_per_temperature: 30,
            chains: 2,
            ..SaConfig::default()
        });
        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(3);
        let outcome = Placer::place(&placer, &circuit, &budget).unwrap();
        let ck = outcome.checkpoint().expect("cancelled");
        // A single-chain placer cannot consume a two-chain checkpoint.
        let other = quick();
        let err = other
            .resume(&circuit, ck, &RunBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, PlaceError::BadCheckpoint(_)));
    }
}
