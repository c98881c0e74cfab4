//! `eco_session`: chained ECO sessions, one per (circuit, placer). A
//! session opens with a decap add/remove pair on the circuit's first
//! signal net — both touch the `vss` rail, dirty more than
//! `EcoConfig::dirty_threshold` of the devices and fall back to a cold
//! place — then runs chains of seeded single-MOS resizes, each chain
//! from where the pair left the session, with a weight bump on a local
//! net in the middle of every chain (a resize where the circuit has no
//! net that small). `Placer::replace` with `EcoConfig::default()`
//! answers each edit and its answer is the next warm start. An op is one
//! edit → legal placement; a rejected edit leaves the session where it
//! was.
//!
//! The fallbacks are the workload's costly minority; opening every
//! session with them keeps their work the same whatever the seed, so the
//! seed moves only the fast-path stream.
//!
//! A run replays the same seeded sessions in passes. Each pass starts by
//! building every session's base placement — the workload's set-up, so
//! `setup_s`, the median over the passes, samples the host over the
//! whole run — and must answer every edit exactly as the first pass did.
//! An op's latency is the fastest of its untraced passes: the host's
//! contention only ever adds time, and on the reference host it moves
//! the same edit's latency by a third from one pass to the next.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use analog_netlist::{testcases, Circuit, DeviceKind, NetlistDelta, Placement};
use eplace::{
    eco, Checkpoint, CircuitArtifacts, EcoConfig, EcoOutcome, PlaceError, PlaceOutcome, Placer,
    RunBudget,
};
use placer_jobs::{make_placer, Profile};

use crate::check::{Checker, Op, Output};
use crate::jobs::PLACERS;
use crate::trace::{milp_capped, StderrLog, Tracer};
use crate::util::{median, Rng};
use crate::{Config, Run};

/// Session circuits and the placers run on each. ePlace runs only on the
/// two circuits whose base placements and cold fallbacks stay under a
/// second or two; `comp2`, where the fast path's LP rejects edits a cold
/// place accepts, runs with SA and Xu19.
const SESSIONS: [(&str, &[&str]); 3] = [
    ("cc_ota", &PLACERS),
    ("cm_ota1", &PLACERS),
    ("comp2", &["sa", "xu19"]),
];
/// Edits per session: the decap pair, then chains of `CHAIN` edits.
const EDITS: usize = 2 + 4 * CHAIN;
/// Edits per chain. Every chain starts from where the decap pair left
/// the session, so a session's chains are independent trajectories.
const CHAIN: usize = 12;
/// A run makes `round(seconds / PASS_SECONDS)` passes, at least one (two
/// when traced). On the reference host a pass's timed part takes about
/// 4.3 s and its set-up about 2 s, so a run takes about half as long
/// again as `seconds`.
const PASS_SECONDS: f64 = 4.0;
/// Name of the decap each session adds and removes.
const DECAP: &str = "XDCAP";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Resize,
    AddDecap,
    RemoveDecap,
    Weight,
}

/// A session's starting point, built in set-up.
struct Base {
    circuit: &'static str,
    placer_name: &'static str,
    artifacts: Arc<CircuitArtifacts>,
    warm_ck: Checkpoint,
}

/// A session's live state: the edited circuit's artifacts and the warm
/// start for its next edit.
struct Session {
    circuit: &'static str,
    placer_name: &'static str,
    placer: Box<dyn Placer>,
    artifacts: Arc<CircuitArtifacts>,
    warm_ck: Checkpoint,
    rng: Rng,
    /// Shuffle bags of resize targets (indices into the circuit's MOS
    /// devices) and gate widths (indices into `WIDTHS`): every device and
    /// every width comes up once per bag, in a seeded order, so the seed
    /// changes a session's stream without skewing its mix.
    devices: Vec<usize>,
    widths: Vec<usize>,
}

/// Gate widths (µm) a resize picks from.
const WIDTHS: [f64; 7] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];

/// Draws from a shuffle bag of `0..n`, refilling it when empty.
fn draw(bag: &mut Vec<usize>, n: usize, rng: &mut Rng) -> usize {
    if bag.is_empty() {
        bag.extend(0..n);
        rng.shuffle(bag);
    }
    bag.pop().expect("refilled bag")
}

impl Session {
    fn new(base: &Base, seed: u64, index: usize) -> Self {
        let (placer, _) = make_placer(base.placer_name, Profile::Default, None).expect("placer");
        Session {
            circuit: base.circuit,
            placer_name: base.placer_name,
            placer,
            artifacts: base.artifacts.clone(),
            warm_ck: base.warm_ck.clone(),
            rng: Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)),
            devices: Vec::new(),
            widths: Vec::new(),
        }
    }
}

/// Nets whose weight change dirties at most `threshold` of the devices
/// (the devices on the net), so a bump stays on the fast path.
fn local_nets(c: &Circuit, threshold: f64) -> Vec<&str> {
    c.nets()
        .iter()
        .filter(|n| {
            let mut devices: Vec<usize> = n.pins.iter().map(|p| p.device.index()).collect();
            devices.sort_unstable();
            devices.dedup();
            devices.len() >= 2 && devices.len() as f64 <= threshold * c.num_devices() as f64
        })
        .map(|n| n.name.as_str())
        .collect()
}

/// The `i`-th edit of a session (a function of its RNG and circuit).
fn next_edit(s: &mut Session, i: usize) -> (Kind, String) {
    let c = s.artifacts.circuit();
    let signal_nets: Vec<&str> = c
        .nets()
        .iter()
        .filter(|n| n.name != "vdd" && n.name != "vss" && n.pins.len() >= 2)
        .map(|n| n.name.as_str())
        .collect();
    let local = local_nets(c, EcoConfig::default().dirty_threshold);
    match i {
        0 => (
            Kind::AddDecap,
            format!("add {DECAP} cap 1p {} vss\n", signal_nets[0]),
        ),
        1 => (Kind::RemoveDecap, format!("remove {DECAP}\n")),
        _ if (i - 2) % CHAIN == CHAIN / 2 && !local.is_empty() => {
            let net = local[s.rng.below(local.len())];
            let w = [0.5, 2.0][s.rng.below(2)];
            (Kind::Weight, format!("weight {net} {w}\n"))
        }
        _ => {
            let mos: Vec<&str> = c
                .devices()
                .iter()
                .filter(|d| matches!(d.kind, DeviceKind::Nmos | DeviceKind::Pmos))
                .map(|d| d.name.as_str())
                .collect();
            let dev = mos[draw(&mut s.devices, mos.len(), &mut s.rng)];
            let width = WIDTHS[draw(&mut s.widths, WIDTHS.len(), &mut s.rng)];
            (Kind::Resize, format!("resize {dev} {width}\n"))
        }
    }
}

/// What one edit produced: the output as the check takes it (the edited
/// circuit, not its artifact bundle, which the session carries on) and
/// whether the fast path made it.
struct Answer {
    output: Output,
    fast: bool,
}

/// An edit's answer plus the edited circuit's artifacts.
type Answered = Result<(Arc<CircuitArtifacts>, Answer), PlaceError>;

fn answered(
    artifacts: Arc<CircuitArtifacts>,
    placement: Placement,
    hpwl: f64,
    area: f64,
    fast: bool,
) -> Answered {
    let output = Output {
        circuit: artifacts.circuit_arc(),
        placement,
        hpwl,
        area,
        rounded: false,
    };
    Ok((artifacts, Answer { output, fast }))
}

/// The edit as a user makes it: parse the deck, call `Placer::replace`.
fn answer(s: &Session, deck: &str, cfg: &EcoConfig) -> Answered {
    let delta = NetlistDelta::parse(deck).map_err(|e| PlaceError::Delta(e.to_string()))?;
    let rep = s.placer.replace(
        &s.artifacts,
        &delta,
        &s.warm_ck,
        &RunBudget::unlimited(),
        cfg,
    )?;
    let (sol, fast) = match rep.outcome {
        EcoOutcome::Fast(sol) => (sol, true),
        EcoOutcome::FellBack(PlaceOutcome::Complete(sol) | PlaceOutcome::Exhausted(sol)) => {
            (sol, false)
        }
        EcoOutcome::FellBack(PlaceOutcome::Cancelled(_)) => {
            return Err(PlaceError::Delta("fallback cancelled".into()))
        }
    };
    answered(rep.artifacts, sol.placement, sol.hpwl, sol.area, fast)
}

/// The layer steps of one traced edit: name, start, end.
type Steps = Vec<(&'static str, Instant, Instant)>;

/// The same edit through the public steps `Placer::replace` is made of,
/// each timed: `netlist.delta` (parse), `eco.prepare` (apply + patch),
/// then `eco.fallback` (cold place of the edited circuit) or `eco.refine`
/// (warm map + refinement) and `eco.region` (region mask +
/// region-bounded LP). The caller records the steps as spans once the
/// op has ended, so recording costs the op nothing; a fallback also
/// hands back its placer's stage 1 / stage 2 seconds and iterations.
fn answer_traced(
    s: &Session,
    deck: &str,
    cfg: &EcoConfig,
    steps: &mut Steps,
    fallback_stages: &mut Option<(f64, f64, usize)>,
) -> Answered {
    let mut t = Instant::now();
    let mut step = |name: &'static str| {
        let now = Instant::now();
        steps.push((name, t, now));
        t = now;
    };
    let delta = NetlistDelta::parse(deck).map_err(|e| PlaceError::Delta(e.to_string()));
    step("netlist.delta");
    let delta = delta?;
    let prepared = eco::prepare(&s.artifacts, &delta);
    step("eco.prepare");
    let (patched, applied) = prepared?;
    // Each step ends once its intermediates are dropped, so no time
    // falls between steps.
    if applied.dirty_fraction() > cfg.dirty_threshold {
        let outcome = s.placer.place_artifacts(&patched, &RunBudget::unlimited());
        let answer = match outcome {
            Ok(PlaceOutcome::Complete(sol) | PlaceOutcome::Exhausted(sol)) => {
                *fallback_stages = Some((sol.stage1_seconds, sol.stage2_seconds, sol.iterations));
                answered(patched, sol.placement, sol.hpwl, sol.area, false)
            }
            Ok(PlaceOutcome::Cancelled(_)) => Err(PlaceError::Delta("fallback cancelled".into())),
            Err(e) => Err(e),
        };
        drop((applied, delta));
        step("eco.fallback");
        return answer;
    }
    let c = patched.circuit();
    let refined = eco::warm_placement(s.artifacts.circuit(), c, &s.warm_ck).and_then(|warm| {
        let refined = s.placer.eco_refine(&patched, &warm, &applied.dirty, cfg)?;
        Ok((refined.map_or_else(|| warm.clone(), |(p, _)| p), warm))
    });
    step("eco.refine");
    let (stage1, warm) = refined?;
    let region = eco::region_mask(c, &warm, &applied.dirty, cfg.margin);
    let answer = eco::finish_region(c, &stage1, &warm, &region, cfg.pin_cost).and_then(|p| {
        let (hpwl, area) = (p.hpwl(c), p.area(c));
        answered(patched.clone(), p, hpwl, area, true)
    });
    drop((applied, delta, stage1, warm, region, patched));
    step("eco.region");
    answer
}

/// Builds every session's base placement (cold artifacts + a full place).
fn bases(tracer: &Tracer) -> Vec<Base> {
    let mut out = Vec::new();
    for (circuit, placers) in SESSIONS {
        let t = Instant::now();
        let artifacts =
            CircuitArtifacts::build(testcases::testcase_by_name(circuit).expect("paper circuit"));
        tracer.timed("artifacts.build", None, None, t, Instant::now());
        for &placer_name in placers {
            let (placer, _) = make_placer(placer_name, Profile::Default, None).expect("placer");
            let base = placer
                .place_artifacts(&artifacts, &RunBudget::unlimited())
                .expect("base placement");
            let warm = &base.solution().expect("complete base placement").placement;
            out.push(Base {
                circuit,
                placer_name,
                warm_ck: eco::warm_checkpoint(artifacts.circuit(), warm),
                artifacts: artifacts.clone(),
            });
        }
    }
    out
}

/// A fingerprint of a placement's exact coordinates and flips.
fn fingerprint(p: &Placement) -> u64 {
    let mut h = DefaultHasher::new();
    for &(x, y) in &p.positions {
        (x.to_bits(), y.to_bits()).hash(&mut h);
    }
    p.flips.hash(&mut h);
    h.finish()
}

/// One edit, checked as soon as its latency was taken.
struct Edit {
    op: Op,
    placer: &'static str,
    /// What the program answered, to compare passes: the placement's
    /// fingerprint and whether the fast path made it, or the error.
    answer: Result<(u64, bool), String>,
    infeasible: bool,
    /// Stage 1 / stage 2 seconds and iterations of the cold fallback,
    /// when a traced pass made one.
    stages: Option<(f64, f64, usize)>,
    /// Which session the edit belongs to.
    session: usize,
}

/// Runs every session's edit stream once, sessions back to back in
/// `order`, from `bases`. Each edit is checked once its latency is taken;
/// only the verdict is kept. Returns the edits in op order.
fn pass(
    bases: &[Base],
    order: &[usize],
    seed: u64,
    tracer: &Tracer,
    checker: &mut Checker,
    mut log: Option<&mut StderrLog>,
) -> Vec<Edit> {
    let cfg = EcoConfig::default();
    let mut out = Vec::with_capacity(bases.len() * EDITS);
    let mut steps = Steps::with_capacity(4);
    for &si in order {
        let mut s = Session::new(&bases[si], seed, si);
        let mut opened = None;
        for i in 0..EDITS {
            if i >= 2 && (i - 2) % CHAIN == 0 {
                let (a, w) = opened.get_or_insert_with(|| (s.artifacts.clone(), s.warm_ck.clone()));
                s.artifacts = a.clone();
                s.warm_ck = w.clone();
            }
            let (kind, deck) = next_edit(&mut s, i);
            let op = out.len();
            steps.clear();
            let mut stages = None;
            let start = Instant::now();
            let result = if tracer.enabled() {
                answer_traced(&s, &deck, &cfg, &mut steps, &mut stages)
            } else {
                answer(&s, &deck, &cfg)
            };
            let end = Instant::now();
            let latency_ms = (end - start).as_secs_f64() * 1e3;
            let root = tracer.timed("op", Some(op), None, start, end);
            for &(name, a, b) in &steps {
                let span = tracer.timed(name, Some(op), root, a, b);
                if let (Some((s1, s2, _)), "eco.fallback") = (stages, name) {
                    let p = s.placer_name;
                    tracer.derived(&format!("stage1.{p}"), span, s1 * 1e3, false);
                    tracer.derived(&format!("stage2.{p}"), span, s2 * 1e3, true);
                }
            }
            let capped = log
                .as_deref_mut()
                .map_or(0, |l| milp_capped(&l.new_lines()));
            let label = format!("{}/{}", s.circuit, s.placer_name);
            let result = result.map(|(artifacts, a)| {
                // The answer is the next edit's warm start.
                s.warm_ck = eco::warm_checkpoint(artifacts.circuit(), &a.output.placement);
                s.artifacts = artifacts;
                a
            });
            let infeasible = matches!(result, Err(PlaceError::Solve(_)));
            let (answer, outcome) = match result {
                Ok(a) => (
                    Ok((fingerprint(&a.output.placement), a.fast)),
                    checker.check(tracer, op, &label, &a.output),
                ),
                Err(err) => (
                    Err(err.to_string()),
                    Err(format!("{kind:?} edit rejected: {err}")),
                ),
            };
            out.push(Edit {
                op: Op {
                    label,
                    latency_ms,
                    passes_ms: vec![latency_ms],
                    outcome,
                    milp_capped: capped,
                },
                placer: s.placer_name,
                answer,
                infeasible,
                stages,
                session: si,
            });
        }
    }
    out
}

/// Records where a pass answered differently from the first: a problem,
/// unless a time-capped MILP in the session explains it. (A traced pass
/// answers through `replace`'s public steps, an untraced one through
/// `replace` itself; the two must agree bit for bit.)
fn compare_passes(run: &mut Run, passes: &[Vec<Edit>]) {
    let capped_sessions: std::collections::HashSet<usize> = passes
        .iter()
        .flatten()
        .filter(|e| e.op.milp_capped > 0)
        .map(|e| e.session)
        .collect();
    for (k, edits) in passes.iter().enumerate().skip(1) {
        for (x, y) in passes[0].iter().zip(edits) {
            if x.answer == y.answer {
                continue;
            }
            let what = format!("{}: pass {k} answered differently from pass 0", y.op.label);
            if capped_sessions.contains(&y.session) {
                run.notes.push(format!("{what} after a time-capped MILP"));
            } else {
                run.problems.push(what);
            }
        }
    }
}

pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let tracer = Tracer::new(cfg.trace);
    let untraced = Tracer::new(false);
    // Traced runs count time-capped MILP solves in every pass, so a
    // difference one explains is told apart from a determinism bug.
    let mut log = StderrLog::from_env();
    if cfg.trace {
        placer_telemetry::set_verbosity(1);
    }

    // A traced run alternates untraced and traced passes, so the fastest
    // of each kind gives the tracing overhead.
    let min_passes = if cfg.trace { 2 } else { 1 };
    let n_passes = ((cfg.seconds / PASS_SECONDS).round() as usize).max(min_passes);
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..SESSIONS.iter().map(|(_, p)| p.len()).sum()).collect();
    rng.shuffle(&mut order);
    let mut setups = Vec::with_capacity(n_passes);
    let mut passes: Vec<Vec<Edit>> = Vec::with_capacity(n_passes);
    let mut traced = Vec::with_capacity(n_passes);
    for k in 0..n_passes {
        let t0 = Instant::now();
        let bases = bases(&tracer);
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(l) = log.as_mut() {
            // Set-up's diagnostics belong to no op.
            l.new_lines();
        }
        let is_traced = cfg.trace && k % 2 == 1;
        let t = if is_traced { &tracer } else { &untraced };
        passes.push(pass(
            &bases,
            &order,
            cfg.seed,
            t,
            &mut run.checker,
            log.as_mut(),
        ));
        traced.push(is_traced);
    }
    placer_telemetry::set_verbosity(0);
    compare_passes(&mut run, &passes);
    run.setup_s = median(&setups);

    // An op's latency is its fastest untraced pass; its outcome the first
    // failure of any pass, else the first pass's quality.
    let fastest = |want_traced: bool, i: usize| {
        passes
            .iter()
            .zip(&traced)
            .filter(|(_, &t)| t == want_traced)
            .map(|(p, _)| p[i].op.latency_ms)
            .fold(f64::INFINITY, f64::min)
    };
    let n_ops = passes[0].len();
    let mut ops = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        let runs: Vec<&Edit> = passes.iter().map(|p| &p[i]).collect();
        let outcome = runs
            .iter()
            .find(|e| e.op.outcome.is_err())
            .unwrap_or(&runs[0])
            .op
            .outcome
            .clone();
        ops.push(Op {
            label: runs[0].op.label.clone(),
            latency_ms: fastest(false, i),
            passes_ms: runs.iter().map(|e| e.op.latency_ms).collect(),
            outcome,
            milp_capped: runs.iter().map(|e| e.op.milp_capped).sum(),
        });
    }
    run.wall_s = ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3;
    if cfg.trace {
        let traced_s: f64 = (0..n_ops).map(|i| fastest(true, i)).sum::<f64>() / 1e3;
        run.layers
            .set("trace.overhead_ms", (traced_s - run.wall_s) * 1e3);
    }

    // The passes answered alike (or `compare_passes` said otherwise), so
    // the first pass's answers stand for the run.
    let first = &passes[0];
    let fast = first
        .iter()
        .filter(|e| matches!(e.answer, Ok((_, true))))
        .count();
    let infeasible = first.iter().filter(|e| e.infeasible).count();
    run.layers
        .set("eco.fast_frac", fast as f64 / n_ops.max(1) as f64);
    run.layers.set("eco.infeasible", infeasible as f64);
    run.layers.set(
        "stage2.milp_capped",
        ops.iter().map(|o| o.milp_capped).sum::<usize>() as f64,
    );
    // Layer shares are over the traced passes, whose spans they divide.
    let (mut fast_ms, mut eplace_ms, mut eplace_stage2_ms) = (0.0, 0.0, 0.0);
    for e in passes
        .iter()
        .zip(&traced)
        .filter(|(_, &t)| t)
        .flat_map(|(p, _)| p)
    {
        if let Ok((_, true)) = e.answer {
            fast_ms += e.op.latency_ms;
        }
        if let Some((_, stage2_s, iters)) = e.stages {
            run.layers
                .add(&format!("stage1.{}_iters", e.placer), iters as f64);
            if e.placer.starts_with("eplace") {
                eplace_ms += e.op.latency_ms;
                eplace_stage2_ms += stage2_s * 1e3;
            }
        }
    }
    run.layers.set(
        "share.eplace_stage2",
        eplace_stage2_ms / eplace_ms.max(1e-9),
    );
    run.ops = ops;
    run.spans = tracer.take();
    let region_ms: f64 = run
        .spans
        .iter()
        .filter(|s| s.name == "eco.region")
        .map(|s| s.ms())
        .sum();
    run.layers
        .set("share.eco_region", region_ms / fast_ms.max(1e-9));
    run
}
