//! Jobs through `JobEngine::run_job`, timed from outside: the paper's
//! circuits and placers, and a delegating placer that keeps the stage
//! times the job report does not carry.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use analog_netlist::{Circuit, Placement};
use eplace::{
    Checkpoint, CircuitArtifacts, EcoConfig, PlaceError, PlaceOutcome, Placer, RaceProbe, RunBudget,
};
use placer_jobs::{make_placer, JobEngine, JobReport, JobSpec};

use crate::trace::Tracer;

pub const PLACERS: [&str; 4] = ["eplace-a", "eplace-ap", "sa", "xu19"];
pub const CIRCUITS: [&str; 10] = [
    "adder", "cc_ota", "comp1", "comp2", "cm_ota1", "cm_ota2", "scf", "vga", "vco1", "vco2",
];

/// What a placer call returned, captured by [`Recorded`].
pub struct Capture {
    pub start: Instant,
    pub end: Instant,
    pub stage1_s: f64,
    pub stage2_s: f64,
    pub iterations: usize,
}

/// Delegating placer that keeps the timing of the wrapped placer's
/// `place_artifacts`: the job engine reports only the total.
pub struct Recorded {
    pub inner: Box<dyn Placer>,
    pub slot: Arc<Mutex<Option<Capture>>>,
}

impl Placer for Recorded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&self, circuit: &Circuit, budget: &RunBudget) -> Result<PlaceOutcome, PlaceError> {
        self.inner.place(circuit, budget)
    }

    fn resume(
        &self,
        circuit: &Circuit,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.inner.resume(circuit, checkpoint, budget)
    }

    fn place_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        let start = Instant::now();
        let result = self.inner.place_artifacts(artifacts, budget);
        let end = Instant::now();
        if let Some(sol) = result.as_ref().ok().and_then(PlaceOutcome::solution) {
            *self.slot.lock().expect("capture slot poisoned") = Some(Capture {
                start,
                end,
                stage1_s: sol.stage1_seconds,
                stage2_s: sol.stage2_seconds,
                iterations: sol.iterations,
            });
        }
        result
    }

    fn resume_artifacts(
        &self,
        artifacts: &CircuitArtifacts,
        checkpoint: &Checkpoint,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        self.inner.resume_artifacts(artifacts, checkpoint, budget)
    }

    fn eco_refine(
        &self,
        artifacts: &CircuitArtifacts,
        warm: &Placement,
        dirty: &[bool],
        eco: &EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        self.inner.eco_refine(artifacts, warm, dirty, eco)
    }

    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<RaceProbe> {
        self.inner.probe(circuit, checkpoint)
    }
}

/// One job run through `JobEngine::run_job_with` with a [`Recorded`]
/// placer — the same path `run_job` takes.
pub struct JobRun {
    pub report: JobReport,
    pub capture: Option<Capture>,
    pub start: Instant,
    pub end: Instant,
}

pub fn run_job(engine: &JobEngine, spec: &JobSpec) -> JobRun {
    let slot = Arc::new(Mutex::new(None));
    let factory = |seed: Option<u64>| {
        make_placer(&spec.placer, spec.profile, seed).map(|(inner, s)| {
            let placer: Box<dyn Placer> = Box::new(Recorded {
                inner,
                slot: slot.clone(),
            });
            (placer, s)
        })
    };
    let start = Instant::now();
    let report = engine.run_job_with(spec, &factory);
    let end = Instant::now();
    let capture = slot.lock().expect("capture slot poisoned").take();
    JobRun {
        report,
        capture,
        start,
        end,
    }
}

/// Records a job's spans: the op, the engine's own time around the
/// placer (`jobs.overhead` = op − report `wall_ms`), the placer call and
/// its two stages. Returns stage 1 + stage 2 in ms.
pub fn trace_job(tracer: &Tracer, op: usize, run: &JobRun) -> f64 {
    let root = tracer.timed("op", Some(op), None, run.start, run.end);
    let op_ms = (run.end - run.start).as_secs_f64() * 1e3;
    tracer.derived("jobs.overhead", root, op_ms - run.report.wall_ms, false);
    let Some(c) = &run.capture else {
        return 0.0;
    };
    let placer = &run.report.placer;
    let place = tracer.timed(&format!("place.{placer}"), Some(op), root, c.start, c.end);
    tracer.derived(&format!("stage1.{placer}"), place, c.stage1_s * 1e3, false);
    tracer.derived(&format!("stage2.{placer}"), place, c.stage2_s * 1e3, true);
    (c.stage1_s + c.stage2_s) * 1e3
}
