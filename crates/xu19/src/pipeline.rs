//! End-to-end baseline pipeline: \[11\]'s global placement plus two-stage LP
//! legalization, and its "Perf*" extension (Table V/VII).

use std::time::Instant;

use analog_netlist::{Circuit, Placement};
use eplace::{
    bad_checkpoint, expect_devices, expect_placer, Checkpoint, PlaceError, PlaceOutcome,
    PlaceSolution, Placer, RunBudget,
};
use placer_gnn::Network;

use crate::global::{run_global_budgeted, Xu19Checkpoint, Xu19GlobalConfig, Xu19Run};
use crate::legalize::legalize_two_stage;

/// The ISPD'19 analytical analog placer (our reimplementation of \[11\]).
///
/// # Examples
///
/// ```
/// use analog_netlist::testcases;
/// use eplace::{Placer, RunBudget};
/// use placer_xu19::Xu19Placer;
///
/// # fn main() -> Result<(), eplace::PlaceError> {
/// let circuit = testcases::adder();
/// let outcome = Xu19Placer::default().place(&circuit, &RunBudget::unlimited())?;
/// let placement = &outcome.solution().unwrap().placement;
/// assert!(placement.overlapping_pairs(&circuit, 1e-6).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Xu19Placer {
    /// Global placement configuration.
    pub global: Xu19GlobalConfig,
}

impl Xu19Placer {
    /// Creates a placer with the given global configuration.
    pub fn new(global: Xu19GlobalConfig) -> Self {
        Self { global }
    }

    /// Runs the "Perf*" performance-driven extension: the same GNN gradient
    /// term ePlace-AP uses, grafted onto this baseline's global placement.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError`] from the LP stages.
    pub fn place_perf(
        &self,
        circuit: &Circuit,
        network: &Network,
        alpha: f64,
        scale: f64,
    ) -> Result<PlaceSolution, PlaceError> {
        let t0 = Instant::now();
        // Same zero-allocation gradient hook state ePlace-AP uses.
        let mut state = eplace::PerfGradHook::new(circuit, network, alpha, scale);
        let mut hook = move |pts: &[(f64, f64)], grad: &mut [f64]| -> f64 { state.eval(pts, grad) };
        let budget = RunBudget::unlimited();
        let run = run_global_budgeted(circuit, &self.global, Some(&mut hook), &budget, None);
        let (gp, stats) = run.into_complete();
        self.legalize_outcome(circuit, gp, stats.iterations, t0.elapsed().as_secs_f64())
    }

    fn legalize_outcome(
        &self,
        circuit: &Circuit,
        gp: Placement,
        iterations: usize,
        gp_seconds: f64,
    ) -> Result<PlaceSolution, PlaceError> {
        let t1 = Instant::now();
        let (placement, stats) = legalize_two_stage(circuit, &gp)?;
        Ok(PlaceSolution {
            placement,
            hpwl: stats.hpwl,
            area: stats.area,
            stage1_seconds: gp_seconds,
            stage2_seconds: t1.elapsed().as_secs_f64(),
            iterations,
        })
    }

    fn run_engine(
        &self,
        circuit: &Circuit,
        budget: &RunBudget,
        resume: Option<&Checkpoint>,
    ) -> Result<PlaceOutcome, PlaceError> {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("xu19_place");
        let _span = SPAN.enter();
        let resume = match resume {
            Some(ck) => {
                expect_placer(ck, self.name())?;
                Some(decode_checkpoint(ck, circuit, &self.global)?)
            }
            None => None,
        };
        let t0 = Instant::now();
        let run = run_global_budgeted(circuit, &self.global, None, budget, resume.as_ref());
        let gp_seconds = t0.elapsed().as_secs_f64();
        match run {
            Xu19Run::Complete(gp, stats) => Ok(PlaceOutcome::Complete(self.legalize_outcome(
                circuit,
                gp,
                stats.iterations,
                gp_seconds,
            )?)),
            // The expired run's coordinates still legalize: the same LP
            // stages that finish a full run also repair a partial one.
            Xu19Run::Exhausted(gp, stats) => Ok(PlaceOutcome::Exhausted(self.legalize_outcome(
                circuit,
                gp,
                stats.iterations,
                gp_seconds,
            )?)),
            Xu19Run::Cancelled(ck) => Ok(PlaceOutcome::Cancelled(encode_checkpoint(circuit, &ck))),
        }
    }
}

impl Placer for Xu19Placer {
    fn name(&self) -> &'static str {
        "xu19"
    }

    // Each global pass builds its objective's state once from the circuit:
    // one bell evaluator (bin grid, windows, kernel tables) and the LSE pin
    // table with its buffers. That costs little next to the CG run, so the
    // shared parsed circuit is the whole artifact win here.
    fn place_artifacts(
        &self,
        artifacts: &eplace::CircuitArtifacts,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts.circuit(), budget, None)
    }

    fn resume_artifacts(
        &self,
        artifacts: &eplace::CircuitArtifacts,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.run_engine(artifacts.circuit(), budget, Some(checkpoint))
    }

    fn eco_refine(
        &self,
        artifacts: &eplace::CircuitArtifacts,
        warm: &Placement,
        _dirty: &[bool],
        _eco: &eplace::EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        // Warm CG: resume the outer loop at its final round with the warm
        // coordinates as the frozen iterate. One round of CG polishes the
        // edit's surroundings; the ECO engine's region repair afterwards
        // pins everything outside the edit region, which realizes the
        // frozen-coordinate contract exactly.
        let circuit = artifacts.circuit();
        let n = circuit.num_devices();
        let mut x = vec![0.0; 2 * n];
        for (i, &(px, py)) in warm.positions.iter().enumerate() {
            x[i] = px;
            x[n + i] = py;
        }
        let ck = Xu19Checkpoint {
            round: self.global.rounds.saturating_sub(1),
            x,
            beta: 1.0,
            iterations: 0,
            overflow: 1.0,
        };
        let budget = RunBudget::unlimited();
        let run = run_global_budgeted(circuit, &self.global, None, &budget, Some(&ck));
        let (mut p, stats) = run.into_complete();
        // The CG stage does not model flips; keep the warm states.
        p.flips = warm.flips.clone();
        Ok(Some((p, stats.iterations)))
    }

    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<eplace::RaceProbe> {
        // Best-so-far quality from the frozen solver coordinates — a pure
        // function of the checkpoint text (racing determinism contract).
        if checkpoint.placer() != "xu19" {
            return None;
        }
        eplace::RaceProbe::of_iterate(circuit, checkpoint.get_f64s("x").ok()?)
    }
}

fn encode_checkpoint(circuit: &Circuit, ck: &Xu19Checkpoint) -> Checkpoint {
    let mut out = Checkpoint::new("xu19");
    out.put_u64("n", circuit.num_devices() as u64);
    out.put_u64("round", ck.round as u64);
    out.put_f64("beta", ck.beta);
    out.put_u64("iterations", ck.iterations as u64);
    out.put_f64("overflow", ck.overflow);
    out.put_f64s("x", &ck.x);
    out
}

fn decode_checkpoint(
    ck: &Checkpoint,
    circuit: &Circuit,
    cfg: &Xu19GlobalConfig,
) -> Result<Xu19Checkpoint, PlaceError> {
    let n = expect_devices(ck, circuit)?;
    let x = ck.get_f64s("x")?;
    if x.len() != 2 * n {
        return Err(bad_checkpoint(format!(
            "`x` holds {} coordinates, expected {}",
            x.len(),
            2 * n
        )));
    }
    let round = ck.get_u64("round")? as usize;
    if round >= cfg.rounds {
        return Err(bad_checkpoint(format!(
            "`round` {round} out of range for {} rounds",
            cfg.rounds
        )));
    }
    Ok(Xu19Checkpoint {
        round,
        x: x.to_vec(),
        beta: ck.get_f64("beta")?,
        iterations: ck.get_u64("iterations")? as usize,
        overflow: ck.get_f64("overflow")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;
    use placer_gnn::Network;

    /// Runs the default placer to completion through the cold front door.
    fn complete(c: &Circuit) -> PlaceSolution {
        Xu19Placer::default()
            .place(c, &RunBudget::unlimited())
            .unwrap()
            .into_solution()
            .expect("an unlimited budget completes")
    }

    #[test]
    fn baseline_pipeline_is_legal() {
        let c = testcases::cc_ota();
        let r = complete(&c);
        assert!(r.placement.overlapping_pairs(&c, 1e-6).is_empty());
        assert!(r.placement.symmetry_violation(&c) < 1e-6);
        assert!(r.hpwl > 0.0 && r.area > 0.0);
    }

    #[test]
    fn perf_variant_runs() {
        let c = testcases::adder();
        let network = Network::default_config(6);
        let r = Xu19Placer::default()
            .place_perf(&c, &network, 0.5, 20.0)
            .unwrap();
        assert!(r.placement.overlapping_pairs(&c, 1e-6).is_empty());
    }

    #[test]
    fn cancel_resume_roundtrips_through_the_text_codec() {
        let c = testcases::cc_ota();
        let placer = Xu19Placer::default();
        let reference = Placer::place(&placer, &c, &RunBudget::unlimited()).unwrap();

        for cancel_at in [0u64, 2] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let outcome = Placer::place(&placer, &c, &budget).unwrap();
            let ck = outcome.checkpoint().expect("cancelled");
            let decoded = Checkpoint::decode(&ck.encode()).unwrap();
            let resumed = placer
                .resume(&c, &decoded, &RunBudget::unlimited())
                .unwrap();
            let a = reference.solution().unwrap();
            let b = resumed.solution().expect("complete after resume");
            assert_eq!(a.placement, b.placement, "cancel_at={cancel_at}");
            assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn exhausted_runs_return_legal_placements() {
        let c = testcases::cc_ota();
        let placer = Xu19Placer::default();
        for steps in [1u64, 2] {
            let outcome = Placer::place(&placer, &c, &RunBudget::steps(steps)).unwrap();
            assert!(outcome.is_exhausted(), "steps={steps}");
            let s = outcome.solution().unwrap();
            assert!(
                s.placement.is_legal(&c, 1e-6),
                "steps={steps}: exhausted placement must stay legal"
            );
        }
    }

    #[test]
    fn eco_replace_fast_path_is_legal() {
        let c = testcases::cc_ota();
        let placer = Xu19Placer::default();
        let cold = complete(&c);
        let artifacts = eplace::CircuitArtifacts::build(c.clone());
        let warm = eplace::eco::warm_checkpoint(&c, &cold.placement);
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
    fn resume_rejects_foreign_checkpoints() {
        let c = testcases::adder();
        let placer = Xu19Placer::default();
        let mut foreign = Checkpoint::new("sa");
        foreign.put_u64("n", c.num_devices() as u64);
        let err = placer
            .resume(&c, &foreign, &RunBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, PlaceError::BadCheckpoint(_)));
    }
}
