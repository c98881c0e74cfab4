//! The simulated-annealing engine over symmetry-island sequence pairs.
//!
//! State = a sequence pair over the circuit's [`BlockModel`] blocks (each
//! symmetry group is one rigid island; see [`crate::island`]) plus
//! per-device flip bits. Cost = packed area + w·HPWL + alignment/ordering
//! penalties (+ optional GNN performance term Φ, as in the ICCAD'20 SA
//! flow \[19\]; symmetry is exact by construction). Moves: swaps in Γ⁺, Γ⁻
//! or both, segment relocation, and device flips. Geometric cooling with a
//! move-sampled initial temperature; footnote 1 of the paper applies —
//! practical budgets, no optimality claim.

use analog_netlist::{Circuit, Placement};
use eplace::{BudgetStatus, ConfigError, RunBudget};
use placer_gnn::{CircuitGraph, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::evaluator::{EvalTables, MoveEvaluator};
use crate::island::BlockModel;
use crate::seqpair::SequencePair;
use crate::shared::SaShared;

use placer_telemetry::Counter;

// Whole-run work counters, bumped once per chain (not per move).
static SA_MOVES: Counter = Counter::new("sa_moves");
static SA_ACCEPTS: Counter = Counter::new("sa_accepts");
static SA_PACK_SKIPS: Counter = Counter::new("sa_pack_skips");
static SA_DENSE_SWEEPS: Counter = Counter::new("sa_dense_sweeps");
static SA_SPARSE_REPRICES: Counter = Counter::new("sa_sparse_reprices");

/// Annealing parameters.
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// Number of temperature levels.
    pub temperatures: usize,
    /// Moves attempted per temperature level.
    pub moves_per_temperature: usize,
    /// Geometric cooling factor in (0, 1).
    pub cooling: f64,
    /// HPWL weight relative to area in the cost.
    pub hpwl_weight: f64,
    /// Constraint-violation penalty weight (area units per µm).
    pub penalty_weight: f64,
    /// RNG seed.
    pub seed: u64,
    /// Independent annealing chains to run (best result wins).
    ///
    /// Chains execute concurrently when threads are available, each with
    /// its own RNG stream derived from `seed` and the chain index. The
    /// winner is picked in chain order, so a fixed seed yields an
    /// identical placement for any thread count.
    pub chains: usize,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            temperatures: 120,
            moves_per_temperature: 160,
            cooling: 0.94,
            hpwl_weight: 1.0,
            penalty_weight: 40.0,
            seed: 7,
            chains: 1,
        }
    }
}

impl SaConfig {
    /// Starts a validating builder seeded with [`SaConfig::default`].
    pub fn builder() -> SaConfigBuilder {
        SaConfigBuilder {
            config: SaConfig::default(),
        }
    }

    /// Checks every field; [`SaConfigBuilder::build`] calls this, and
    /// hand-rolled configs can too.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.temperatures == 0 {
            return Err(ConfigError::new("sa.temperatures", "must be > 0"));
        }
        if self.moves_per_temperature == 0 {
            return Err(ConfigError::new("sa.moves_per_temperature", "must be > 0"));
        }
        if !(self.cooling > 0.0 && self.cooling < 1.0) {
            return Err(ConfigError::new(
                "sa.cooling",
                format!("must lie in (0, 1), got {}", self.cooling),
            ));
        }
        eplace::require_nonnegative("sa.hpwl_weight", self.hpwl_weight)?;
        eplace::require_nonnegative("sa.penalty_weight", self.penalty_weight)?;
        if self.chains == 0 {
            return Err(ConfigError::new("sa.chains", "must be > 0"));
        }
        Ok(())
    }
}

/// Validating builder for [`SaConfig`]; see [`SaConfig::builder`].
#[derive(Debug, Clone)]
pub struct SaConfigBuilder {
    config: SaConfig,
}

impl SaConfigBuilder {
    /// Sets the number of temperature levels.
    pub fn temperatures(mut self, temperatures: usize) -> Self {
        self.config.temperatures = temperatures;
        self
    }

    /// Sets the moves attempted per temperature level.
    pub fn moves_per_temperature(mut self, moves: usize) -> Self {
        self.config.moves_per_temperature = moves;
        self
    }

    /// Alias for [`SaConfigBuilder::moves_per_temperature`] — "level" and
    /// "temperature" name the same cooling step.
    pub fn moves_per_level(self, moves: usize) -> Self {
        self.moves_per_temperature(moves)
    }

    /// Sets the geometric cooling factor (must end up in `(0, 1)`).
    pub fn cooling(mut self, cooling: f64) -> Self {
        self.config.cooling = cooling;
        self
    }

    /// Sets the HPWL weight in the cost.
    pub fn hpwl_weight(mut self, weight: f64) -> Self {
        self.config.hpwl_weight = weight;
        self
    }

    /// Sets the constraint-violation penalty weight.
    pub fn penalty_weight(mut self, weight: f64) -> Self {
        self.config.penalty_weight = weight;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of independent annealing chains.
    pub fn chains(mut self, chains: usize) -> Self {
        self.config.chains = chains;
        self
    }

    /// Validates and returns the finished config.
    pub fn build(self) -> Result<SaConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// An optional performance term for the cost function.
pub struct PerfCost<'a> {
    /// The trained model.
    pub network: &'a Network,
    /// Weight of Φ in the cost (area units).
    pub weight: f64,
    /// Graph coordinate scale the model was trained with.
    pub scale: f64,
}

/// The cost breakdown of an annealing state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaCost {
    /// Bounding-box area of the packing (µm²).
    pub area: f64,
    /// Exact HPWL (µm).
    pub hpwl: f64,
    /// Constraint violation (µm; alignment + ordering, symmetry is exact).
    pub violation: f64,
    /// GNN performance probability (0 when no perf term).
    pub phi: f64,
    /// The combined scalar cost.
    pub total: f64,
}

/// One annealing state: island sequence pair + device flips.
#[derive(Debug, Clone, PartialEq)]
pub struct SaState {
    /// Sequence pair over the blocks.
    pub seq_pair: SequencePair,
    /// Per-device flips.
    pub flips: Vec<(bool, bool)>,
}

impl SaState {
    /// Copies another state of the same shape into `self` without
    /// allocating (the annealer's per-move trial reset).
    ///
    /// # Panics
    ///
    /// Panics if the states disagree on block or device count.
    pub fn copy_from(&mut self, other: &SaState) {
        self.seq_pair.copy_from(&other.seq_pair);
        self.flips.copy_from_slice(&other.flips);
    }
}

/// Evaluates the SA cost of a state.
pub fn evaluate(
    circuit: &Circuit,
    model: &BlockModel,
    state: &SaState,
    config: &SaConfig,
    perf: Option<&mut (PerfCost<'_>, CircuitGraph)>,
) -> (Placement, SaCost) {
    let widths: Vec<f64> = model.blocks.iter().map(|b| b.width).collect();
    let heights: Vec<f64> = model.blocks.iter().map(|b| b.height).collect();
    let origins = state.seq_pair.pack_dims(&widths, &heights);
    let placement = model.expand(circuit, &origins, &state.flips);
    let area = placement.area(circuit);
    let hpwl = placement.hpwl(circuit);
    let violation = placement.alignment_violation(circuit) + placement.ordering_violation(circuit);
    let phi = match perf {
        Some((cost, graph)) => {
            graph.update_positions(&placement);
            cost.network.predict(graph)
        }
        None => 0.0,
    };
    let total = area + config.hpwl_weight * hpwl + config.penalty_weight * violation;
    (
        placement,
        SaCost {
            area,
            hpwl,
            violation,
            phi,
            total,
        },
    )
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best state found.
    pub state: SaState,
    /// Its packed placement.
    pub placement: Placement,
    /// Its cost breakdown.
    pub cost: SaCost,
    /// Total moves attempted.
    pub moves: usize,
}

/// A reversible record of one [`apply_move`] mutation, letting a rejected
/// trial roll back in O(1) instead of recopying the committed state.
#[derive(Debug, Clone, Copy)]
enum MoveRec {
    /// Positions swapped in Γ⁺.
    SwapS1(usize, usize),
    /// Positions swapped in Γ⁻.
    SwapS2(usize, usize),
    /// Positions swapped in both sequences (same two blocks).
    SwapBoth {
        /// Swapped positions in Γ⁺.
        s1: (usize, usize),
        /// Swapped positions in Γ⁻.
        s2: (usize, usize),
    },
    /// Block removed at `.0` and reinserted at `.1` in Γ⁺.
    Relocate(usize, usize),
    /// Device x-flip toggled.
    FlipX(usize),
    /// Device y-flip toggled.
    FlipY(usize),
}

/// Applies one random move in place and returns its undo record.
///
/// This is the annealer's single source of move truth — the RNG draw
/// pattern here defines the chain's stream, and [`random_move`] is a thin
/// wrapper that discards the record.
fn apply_move(state: &mut SaState, num_devices: usize, rng: &mut StdRng) -> MoveRec {
    let sp = &mut state.seq_pair;
    let m = sp.s1.len();
    match rng.gen_range(0..5) {
        0 if m >= 2 => {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            sp.s1.swap(i, j);
            MoveRec::SwapS1(i, j)
        }
        1 if m >= 2 => {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            sp.s2.swap(i, j);
            MoveRec::SwapS2(i, j)
        }
        2 if m >= 2 => {
            // Swap the same two blocks in both sequences.
            let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
            let (pa1, pb1) = (
                sp.s1.iter().position(|&d| d == a).expect("present"),
                sp.s1.iter().position(|&d| d == b).expect("present"),
            );
            sp.s1.swap(pa1, pb1);
            let (pa2, pb2) = (
                sp.s2.iter().position(|&d| d == a).expect("present"),
                sp.s2.iter().position(|&d| d == b).expect("present"),
            );
            sp.s2.swap(pa2, pb2);
            MoveRec::SwapBoth {
                s1: (pa1, pb1),
                s2: (pa2, pb2),
            }
        }
        3 if m >= 2 => {
            // Relocate one block within Γ⁺.
            let i = rng.gen_range(0..m);
            let j = rng.gen_range(0..m);
            let d = sp.s1.remove(i);
            sp.s1.insert(j, d);
            MoveRec::Relocate(i, j)
        }
        _ => {
            let d = rng.gen_range(0..num_devices);
            if rng.gen_bool(0.5) {
                state.flips[d].0 = !state.flips[d].0;
                MoveRec::FlipX(d)
            } else {
                state.flips[d].1 = !state.flips[d].1;
                MoveRec::FlipY(d)
            }
        }
    }
}

/// Reverts the mutation recorded by [`apply_move`].
fn undo_move(state: &mut SaState, rec: MoveRec) {
    let sp = &mut state.seq_pair;
    match rec {
        MoveRec::SwapS1(i, j) => sp.s1.swap(i, j),
        MoveRec::SwapS2(i, j) => sp.s2.swap(i, j),
        MoveRec::SwapBoth {
            s1: (a1, b1),
            s2: (a2, b2),
        } => {
            sp.s1.swap(a1, b1);
            sp.s2.swap(a2, b2);
        }
        MoveRec::Relocate(i, j) => {
            let d = sp.s1.remove(j);
            sp.s1.insert(i, d);
        }
        MoveRec::FlipX(d) => state.flips[d].0 = !state.flips[d].0,
        MoveRec::FlipY(d) => state.flips[d].1 = !state.flips[d].1,
    }
}

pub(crate) fn random_move(state: &mut SaState, num_devices: usize, rng: &mut StdRng) {
    let _ = apply_move(state, num_devices, rng);
}

/// Derives the RNG seed of one chain from the base seed.
///
/// Chain 0 keeps the base seed so a single-chain run reproduces the
/// historical sequence exactly; later chains go through a SplitMix64-style
/// finalizer so chains sharing a base seed are decorrelated.
fn chain_seed(seed: u64, chain: usize) -> u64 {
    if chain == 0 {
        return seed;
    }
    let mut z = seed ^ (chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A paused annealing chain, frozen at a temperature-level boundary.
///
/// At a level boundary the trial state equals the committed state, so one
/// [`SaState`] plus the RNG words and the running scalars reproduce the
/// chain exactly: resume rebuilds the [`MoveEvaluator`] from `state`
/// (packing is a pure function of the state, so the rebuilt committed
/// caches are bitwise identical) and replays the remaining levels on the
/// restored RNG stream.
#[derive(Debug, Clone)]
pub struct ChainCheckpoint {
    /// The next temperature level to run.
    pub level: usize,
    /// Temperature at that level.
    pub temperature: f64,
    /// Committed annealing state.
    pub state: SaState,
    /// Cost of `state` (restored bit-for-bit, never recomputed).
    pub cost: SaCost,
    /// Best state seen so far.
    pub best_state: SaState,
    /// Cost of `best_state`.
    pub best_cost: SaCost,
    /// Moves attempted so far.
    pub moves: usize,
    /// Moves accepted so far.
    pub accepts: u64,
    /// xoshiro256++ RNG words at the boundary.
    pub rng: [u64; 4],
}

/// One chain's slot in an [`SaCheckpoint`].
#[derive(Debug, Clone)]
pub enum ChainEntry {
    /// The chain finished (all levels, or its budget expired) before the
    /// run as a whole was cancelled; its result rides along so resume can
    /// still pick the winner across every chain.
    Done {
        /// Best state the finished chain found.
        state: SaState,
        /// Its cost.
        cost: SaCost,
        /// Moves the chain attempted.
        moves: usize,
        /// Whether the chain stopped on budget exhaustion.
        exhausted: bool,
    },
    /// The chain was cancelled mid-run and resumes from here.
    Pending(ChainCheckpoint),
}

/// A cancelled multi-chain annealing run: one entry per chain.
#[derive(Debug, Clone)]
pub struct SaCheckpoint {
    /// Per-chain progress, indexed by chain number.
    pub chains: Vec<ChainEntry>,
}

/// What a budgeted annealing run produced.
#[derive(Debug, Clone)]
pub enum AnnealRun {
    /// Every chain ran all its temperature levels.
    Complete(AnnealResult),
    /// The budget expired; best-so-far across chains (states are packings,
    /// so the placement is overlap-free and symmetric like any SA output).
    Exhausted(AnnealResult),
    /// Cancelled; feed the checkpoint back to [`anneal_budgeted`] to
    /// finish the run bit-for-bit.
    Cancelled(SaCheckpoint),
}

impl AnnealRun {
    /// The result of a run under a fresh [`RunBudget::unlimited`], which
    /// neither exhausts nor cancels.
    fn into_complete(self) -> AnnealResult {
        match self {
            AnnealRun::Complete(r) => r,
            _ => unreachable!("a fresh unlimited budget neither exhausts nor cancels"),
        }
    }
}

/// How one chain segment ended (crate-internal).
enum ChainRun {
    /// Chain finished its levels (or exhausted its budget).
    Done {
        result: AnnealResult,
        exhausted: bool,
    },
    Cancelled(ChainCheckpoint),
}

type ChainFn = fn(
    &Circuit,
    &SaConfig,
    Option<PerfCost<'_>>,
    u64,
    &RunBudget,
    Option<&ChainCheckpoint>,
    Option<&SaShared>,
) -> ChainRun;

/// Runs simulated annealing over the circuit's symmetry-island blocks.
///
/// The perf term (when provided) is *inferred* each evaluation, matching
/// the paper's SA baseline where Φ(G) is part of the cost, not a gradient.
///
/// With `config.chains > 1` the independent chains run concurrently (see
/// [`SaConfig::chains`]); `moves` in the result counts attempts across
/// *all* chains.
pub fn anneal(circuit: &Circuit, config: &SaConfig, perf: Option<PerfCost<'_>>) -> AnnealResult {
    let budget = RunBudget::unlimited();
    anneal_multi(circuit, config, perf, &budget, None, None, anneal_chain).into_complete()
}

/// [`anneal`] under a [`RunBudget`], optionally resuming a cancelled run.
///
/// The budget is checked once per temperature level per chain — the same
/// granularity the checkpoints are cut at — never per move.
///
/// With `shared` present the chains use its
/// [`BlockModel`]/[`EvalTables`](crate::EvalTables) instead of rebuilding
/// them — the amortized path for batched sweeps. Both are pure functions of
/// the circuit, so the run is bit-identical either way (`shared` must have
/// been built for this circuit).
pub fn anneal_budgeted(
    circuit: &Circuit,
    config: &SaConfig,
    perf: Option<PerfCost<'_>>,
    budget: &RunBudget,
    resume: Option<&SaCheckpoint>,
    shared: Option<&SaShared>,
) -> AnnealRun {
    anneal_multi(circuit, config, perf, budget, resume, shared, anneal_chain)
}

/// Full-recompute annealer kept as the oracle for the incremental engine.
///
/// Runs the exact same chain (identical RNG stream, identical
/// floating-point evaluation order) but prices every trial move with the
/// whole-circuit [`evaluate`] instead of [`MoveEvaluator`]. Fixed seeds
/// produce bit-identical results to [`anneal`]; the property tests and the
/// `sa_sweep` benchmark lean on that.
pub fn anneal_reference(
    circuit: &Circuit,
    config: &SaConfig,
    perf: Option<PerfCost<'_>>,
) -> AnnealResult {
    let budget = RunBudget::unlimited();
    let chain = anneal_chain_reference;
    anneal_multi(circuit, config, perf, &budget, None, None, chain).into_complete()
}

/// [`anneal_reference`] under a [`RunBudget`] — the budgeted oracle.
///
/// Checkpoints are interchangeable with [`anneal_budgeted`]'s: a chain
/// frozen by one engine resumes bit-identically on the other, because both
/// store only the committed state and the RNG words.
pub fn anneal_reference_budgeted(
    circuit: &Circuit,
    config: &SaConfig,
    perf: Option<PerfCost<'_>>,
    budget: &RunBudget,
    resume: Option<&SaCheckpoint>,
) -> AnnealRun {
    let chain = anneal_chain_reference;
    anneal_multi(circuit, config, perf, budget, resume, None, chain)
}

/// Multi-chain dispatch shared by every entry point.
fn anneal_multi(
    circuit: &Circuit,
    config: &SaConfig,
    mut perf: Option<PerfCost<'_>>,
    budget: &RunBudget,
    resume: Option<&SaCheckpoint>,
    shared: Option<&SaShared>,
    chain: ChainFn,
) -> AnnealRun {
    let chains = config.chains.max(1);
    if let Some(ck) = resume {
        assert_eq!(
            ck.chains.len(),
            chains,
            "checkpoint has {} chains, config wants {chains}",
            ck.chains.len()
        );
    }
    // PerfCost borrows the network immutably, so every chain can share it;
    // each chain rebuilds its own CircuitGraph scratch internally.
    let perf_parts = perf.take().map(|p| (p.network, p.weight, p.scale));
    let run_one = |index: usize| -> ChainRun {
        let chain_perf = perf_parts.map(|(network, weight, scale)| PerfCost {
            network,
            weight,
            scale,
        });
        match resume.map(|ck| &ck.chains[index]) {
            Some(ChainEntry::Done {
                state,
                cost,
                moves,
                exhausted,
            }) => {
                // Finished before the cancellation: rebuild its placement
                // (a pure function of the state) and pass it through.
                let owned;
                let model = match shared {
                    Some(s) => &*s.model,
                    None => {
                        owned = BlockModel::new(circuit);
                        &owned
                    }
                };
                let placement = evaluate(circuit, model, state, config, None).0;
                ChainRun::Done {
                    result: AnnealResult {
                        state: state.clone(),
                        placement,
                        cost: *cost,
                        moves: *moves,
                    },
                    exhausted: *exhausted,
                }
            }
            Some(ChainEntry::Pending(ck)) => chain(
                circuit,
                config,
                chain_perf,
                chain_seed(config.seed, index),
                budget,
                Some(ck),
                shared,
            ),
            None => chain(
                circuit,
                config,
                chain_perf,
                chain_seed(config.seed, index),
                budget,
                None,
                shared,
            ),
        }
    };
    // Thread fan-out only pays once each chain carries real work: below
    // this many device-moves per chain (schedule length × moves × devices),
    // spawn/join overhead exceeds the chain runtime and the bench showed a
    // net regression (sa_chains 0.92× at ~44k device-moves). Chains are
    // fully independent and each owns its RNG stream, so serial and
    // threaded execution are bit-identical — the threshold only moves the
    // crossover point.
    const CHAIN_WORK_THRESHOLD: u64 = 500_000;
    let chain_work = config.temperatures as u64
        * config.moves_per_temperature as u64
        * circuit.num_devices().max(1) as u64;
    let outcomes = if chains == 1 || chain_work < CHAIN_WORK_THRESHOLD {
        (0..chains).map(run_one).collect()
    } else {
        placer_parallel::par_map(chains, run_one)
    };

    if outcomes.iter().any(|o| matches!(o, ChainRun::Cancelled(_))) {
        let entries = outcomes
            .into_iter()
            .map(|o| match o {
                ChainRun::Done { result, exhausted } => ChainEntry::Done {
                    state: result.state,
                    cost: result.cost,
                    moves: result.moves,
                    exhausted,
                },
                ChainRun::Cancelled(ck) => ChainEntry::Pending(ck),
            })
            .collect();
        return AnnealRun::Cancelled(SaCheckpoint { chains: entries });
    }

    // Pick the winner in chain order (strict `<`, so ties break toward the
    // lowest chain index) — deterministic for any thread count.
    let mut total_moves = 0;
    let mut any_exhausted = false;
    let mut best: Option<AnnealResult> = None;
    for o in outcomes {
        let ChainRun::Done { result, exhausted } = o else {
            unreachable!("cancelled runs returned above");
        };
        total_moves += result.moves;
        any_exhausted |= exhausted;
        if best
            .as_ref()
            .is_none_or(|b| result.cost.total < b.cost.total)
        {
            best = Some(result);
        }
    }
    let mut best = best.expect("at least one chain ran");
    best.moves = total_moves;
    if any_exhausted {
        AnnealRun::Exhausted(best)
    } else {
        AnnealRun::Complete(best)
    }
}

/// One annealing chain with an explicit RNG seed, priced incrementally.
///
/// Same move/acceptance/RNG structure as [`anneal_chain_reference`], but a
/// [`MoveEvaluator`] owns all scratch, so the inner loop does O(changed
/// work) per trial and never allocates.
fn anneal_chain(
    circuit: &Circuit,
    config: &SaConfig,
    mut perf: Option<PerfCost<'_>>,
    seed: u64,
    budget: &RunBudget,
    resume: Option<&ChainCheckpoint>,
    shared: Option<&SaShared>,
) -> ChainRun {
    static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("sa_chain");
    let _span = SPAN.enter();
    let n = circuit.num_devices();
    let owned_model;
    let model: &BlockModel = match shared {
        Some(s) => &s.model,
        None => {
            owned_model = BlockModel::new(circuit);
            &owned_model
        }
    };

    // Committed state + RNG: fresh deterministic shuffle, or the exact
    // words frozen at the checkpoint's level boundary.
    let mut rng;
    let state;
    match resume {
        Some(ck) => {
            rng = StdRng::from_state(ck.rng);
            state = ck.state.clone();
        }
        None => {
            rng = StdRng::seed_from_u64(seed);
            let mut fresh = SaState {
                seq_pair: SequencePair::identity(model.len()),
                flips: vec![(false, false); n],
            };
            // Shuffle the start deterministically.
            for _ in 0..4 * model.len() {
                random_move(&mut fresh, n, &mut rng);
            }
            state = fresh;
        }
    }

    let perf_parts = perf.take().map(|p| (p.network, p.weight, p.scale));
    let perf_weight = perf_parts.map(|(_, weight, _)| weight).unwrap_or(0.0);
    let tables = match shared {
        Some(s) => std::sync::Arc::clone(&s.tables),
        None => std::sync::Arc::new(EvalTables::new(circuit, model)),
    };
    let mut evaluator = MoveEvaluator::with_tables(
        circuit,
        model,
        config,
        &state,
        perf_parts.map(|(network, _, scale)| (network, scale)),
        tables,
    );
    // `MoveEvaluator` reports the oracle cost (Φ unweighted in the total);
    // fold the perf weight in exactly where the reference chain does.
    let with_perf = |mut cost: SaCost| -> SaCost {
        cost.total += perf_weight * cost.phi;
        cost
    };

    let mut trial = state.clone();
    let mut cost;
    let mut temperature;
    let mut best_state;
    let mut best_placement;
    let mut best_cost;
    let mut moves;
    let mut accepts;
    let start_level;
    match resume {
        Some(ck) => {
            // Scalars come back bit-for-bit from the checkpoint; only the
            // best placement is rebuilt (packing is a pure function of the
            // state, so the rebuild is bitwise exact). The init shuffle and
            // temperature probe already happened before the boundary —
            // their RNG draws live inside `ck.rng`.
            cost = ck.cost;
            temperature = ck.temperature;
            best_state = ck.best_state.clone();
            best_placement = evaluate(circuit, model, &best_state, config, None).0;
            best_cost = ck.best_cost;
            moves = ck.moves;
            accepts = ck.accepts;
            start_level = ck.level;
        }
        None => {
            cost = with_perf(evaluator.cost());

            // Sample uphill deltas for the initial temperature. The probe
            // drifts several moves from the committed state without
            // accepting; the evaluator diffs each trial against the
            // committed packing, so stacked moves are priced correctly.
            let mut deltas = Vec::new();
            for _ in 0..30 {
                random_move(&mut trial, n, &mut rng);
                let c = with_perf(evaluator.eval_trial(&trial));
                let d = c.total - cost.total;
                if d > 0.0 {
                    deltas.push(d);
                }
            }
            temperature = if deltas.is_empty() {
                cost.total.abs() * 0.05 + 1.0
            } else {
                deltas.iter().sum::<f64>() / deltas.len() as f64 * 2.0
            };

            best_state = state.clone();
            best_placement = evaluator.placement().clone();
            best_cost = cost;
            moves = 0usize;

            // Re-sync the trial after the probe drift; from here it
            // mirrors the evaluator's committed state between moves, so a
            // rejected trial rolls back with an O(1) undo instead of a
            // full state copy.
            trial.copy_from(&state);
            accepts = 0u64;
            start_level = 0;
        }
    }
    let mut exhausted = false;
    let mut stats_prev = evaluator.stats();
    for level in start_level..config.temperatures {
        // Budget granularity == checkpoint granularity: one check per
        // temperature level, at the boundary where trial == committed.
        match budget.check() {
            BudgetStatus::Continue => {}
            BudgetStatus::Exhausted => {
                exhausted = true;
                break;
            }
            BudgetStatus::Cancelled => {
                return ChainRun::Cancelled(ChainCheckpoint {
                    level,
                    temperature,
                    state: trial.clone(),
                    cost,
                    best_state,
                    best_cost,
                    moves,
                    accepts,
                    rng: rng.state(),
                });
            }
        }
        let level_accepts_before = accepts;
        for _ in 0..config.moves_per_temperature {
            moves += 1;
            let rec = apply_move(&mut trial, n, &mut rng);
            let cand_cost = with_perf(evaluator.eval_trial(&trial));
            let delta = cand_cost.total - cost.total;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                evaluator.accept();
                accepts += 1;
                cost = cand_cost;
                if cost.total < best_cost.total {
                    best_state.copy_from(&trial);
                    best_placement
                        .positions
                        .copy_from_slice(&evaluator.placement().positions);
                    best_placement
                        .flips
                        .copy_from_slice(&evaluator.placement().flips);
                    best_cost = cost;
                }
            } else {
                undo_move(&mut trial, rec);
            }
        }
        if placer_telemetry::active() {
            // One buffered event per temperature level, outside the move
            // loop; evaluator counters are emitted as per-level deltas.
            let stats = evaluator.stats();
            let level_moves = config.moves_per_temperature.max(1) as f64;
            placer_telemetry::record(
                "sa_temp",
                &[
                    ("seed", seed as f64),
                    ("level", level as f64),
                    ("levels", config.temperatures as f64),
                    ("temperature", temperature),
                    (
                        "acceptance",
                        (accepts - level_accepts_before) as f64 / level_moves,
                    ),
                    ("cost", cost.total),
                    ("best_cost", best_cost.total),
                    (
                        "pack_skips",
                        (stats.pack_skips - stats_prev.pack_skips) as f64,
                    ),
                    (
                        "dense_sweeps",
                        (stats.dense_sweeps - stats_prev.dense_sweeps) as f64,
                    ),
                    (
                        "sparse_reprices",
                        (stats.sparse_reprices - stats_prev.sparse_reprices) as f64,
                    ),
                    (
                        "dirty_devices",
                        (stats.dirty_devices - stats_prev.dirty_devices) as f64,
                    ),
                ],
            );
            stats_prev = stats;
        }
        temperature *= config.cooling;
    }
    if placer_telemetry::active() {
        SA_MOVES.add(moves as u64);
        SA_ACCEPTS.add(accepts);
        let stats = evaluator.stats();
        SA_PACK_SKIPS.add(stats.pack_skips);
        SA_DENSE_SWEEPS.add(stats.dense_sweeps);
        SA_SPARSE_REPRICES.add(stats.sparse_reprices);
        placer_telemetry::record(
            "sa_chain_done",
            &[
                ("seed", seed as f64),
                ("moves", moves as f64),
                ("accepts", accepts as f64),
                ("best_cost", best_cost.total),
                ("best_hpwl", best_cost.hpwl),
                ("best_area", best_cost.area),
            ],
        );
        // Chains may run on worker threads: drain this thread's ring while
        // the chain still owns it.
        placer_telemetry::flush();
    }
    ChainRun::Done {
        result: AnnealResult {
            state: best_state,
            placement: best_placement,
            cost: best_cost,
            moves,
        },
        exhausted,
    }
}

/// One annealing chain priced by full recomputation (the seed behavior).
fn anneal_chain_reference(
    circuit: &Circuit,
    config: &SaConfig,
    mut perf: Option<PerfCost<'_>>,
    seed: u64,
    budget: &RunBudget,
    resume: Option<&ChainCheckpoint>,
    shared: Option<&SaShared>,
) -> ChainRun {
    let n = circuit.num_devices();
    let owned_model;
    let model: &BlockModel = match shared {
        Some(s) => &s.model,
        None => {
            owned_model = BlockModel::new(circuit);
            &owned_model
        }
    };

    let mut perf_state = perf.take().map(|p| {
        let graph = CircuitGraph::new(circuit, &Placement::new(n), p.scale);
        (p, graph)
    });
    let perf_weight = perf_state.as_ref().map(|(p, _)| p.weight).unwrap_or(0.0);
    let cost_of = |state: &SaState,
                   perf_state: &mut Option<(PerfCost<'_>, CircuitGraph)>|
     -> (Placement, SaCost) {
        let (placement, mut cost) = evaluate(circuit, model, state, config, perf_state.as_mut());
        cost.total += perf_weight * cost.phi;
        (placement, cost)
    };

    let mut rng;
    let mut state;
    let mut placement;
    let mut cost;
    let mut temperature;
    let mut best_state;
    let mut best_placement;
    let mut best_cost;
    let mut moves;
    let mut accepts;
    let start_level;
    match resume {
        Some(ck) => {
            // Same restore discipline as the incremental chain: scalars
            // come back bit-for-bit, placements are rebuilt from states.
            rng = StdRng::from_state(ck.rng);
            state = ck.state.clone();
            placement = cost_of(&state, &mut perf_state).0;
            cost = ck.cost;
            temperature = ck.temperature;
            best_state = ck.best_state.clone();
            best_placement = cost_of(&best_state, &mut perf_state).0;
            best_cost = ck.best_cost;
            moves = ck.moves;
            accepts = ck.accepts;
            start_level = ck.level;
        }
        None => {
            rng = StdRng::seed_from_u64(seed);
            state = SaState {
                seq_pair: SequencePair::identity(model.len()),
                flips: vec![(false, false); n],
            };
            // Shuffle the start deterministically.
            for _ in 0..4 * model.len() {
                random_move(&mut state, n, &mut rng);
            }

            let (p0, c0) = cost_of(&state, &mut perf_state);
            placement = p0;
            cost = c0;

            // Sample uphill deltas for the initial temperature.
            let mut deltas = Vec::new();
            {
                let mut probe = state.clone();
                for _ in 0..30 {
                    random_move(&mut probe, n, &mut rng);
                    let (_, c) = cost_of(&probe, &mut perf_state);
                    let d = c.total - cost.total;
                    if d > 0.0 {
                        deltas.push(d);
                    }
                }
            }
            temperature = if deltas.is_empty() {
                cost.total.abs() * 0.05 + 1.0
            } else {
                deltas.iter().sum::<f64>() / deltas.len() as f64 * 2.0
            };

            best_state = state.clone();
            best_placement = placement.clone();
            best_cost = cost;
            moves = 0usize;
            accepts = 0u64;
            start_level = 0;
        }
    }

    let mut exhausted = false;
    for level in start_level..config.temperatures {
        match budget.check() {
            BudgetStatus::Continue => {}
            BudgetStatus::Exhausted => {
                exhausted = true;
                break;
            }
            BudgetStatus::Cancelled => {
                return ChainRun::Cancelled(ChainCheckpoint {
                    level,
                    temperature,
                    state: state.clone(),
                    cost,
                    best_state,
                    best_cost,
                    moves,
                    accepts,
                    rng: rng.state(),
                });
            }
        }
        for _ in 0..config.moves_per_temperature {
            moves += 1;
            let mut candidate = state.clone();
            random_move(&mut candidate, n, &mut rng);
            let (cand_placement, cand_cost) = cost_of(&candidate, &mut perf_state);
            let delta = cand_cost.total - cost.total;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                state = candidate;
                placement = cand_placement;
                cost = cand_cost;
                accepts += 1;
                if cost.total < best_cost.total {
                    best_state = state.clone();
                    best_placement = placement.clone();
                    best_cost = cost;
                }
            }
        }
        temperature *= config.cooling;
    }
    let _ = placement;
    ChainRun::Done {
        result: AnnealResult {
            state: best_state,
            placement: best_placement,
            cost: best_cost,
            moves,
        },
        exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    fn quick_config() -> SaConfig {
        SaConfig {
            temperatures: 30,
            moves_per_temperature: 40,
            ..SaConfig::default()
        }
    }

    #[test]
    fn annealing_improves_over_initial_state() {
        let c = testcases::cc_ota();
        let config = quick_config();
        let model = BlockModel::new(&c);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut state = SaState {
            seq_pair: SequencePair::identity(model.len()),
            flips: vec![(false, false); c.num_devices()],
        };
        for _ in 0..4 * model.len() {
            random_move(&mut state, c.num_devices(), &mut rng);
        }
        let (_, initial) = evaluate(&c, &model, &state, &config, None);
        let result = anneal(&c, &config, None);
        assert!(
            result.cost.total < initial.total,
            "SA failed to improve: {} -> {}",
            initial.total,
            result.cost.total
        );
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let c = testcases::adder();
        let a = anneal(&c, &quick_config(), None);
        let b = anneal(&c, &quick_config(), None);
        assert_eq!(a.cost.total, b.cost.total);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn result_placement_is_overlap_free_and_symmetric() {
        let c = testcases::comp1();
        let result = anneal(&c, &quick_config(), None);
        assert!(result.placement.overlapping_pairs(&c, 1e-9).is_empty());
        // Islands make symmetry exact by construction.
        assert!(result.placement.symmetry_violation(&c) < 1e-9);
    }

    #[test]
    fn perf_term_is_evaluated() {
        let c = testcases::adder();
        let network = Network::default_config(3);
        let result = anneal(
            &c,
            &quick_config(),
            Some(PerfCost {
                network: &network,
                weight: 50.0,
                scale: 20.0,
            }),
        );
        assert!(result.cost.phi > 0.0 && result.cost.phi < 1.0);
    }

    #[test]
    fn moves_counter_matches_budget() {
        let c = testcases::adder();
        let cfg = quick_config();
        let result = anneal(&c, &cfg, None);
        assert_eq!(result.moves, cfg.temperatures * cfg.moves_per_temperature);
    }

    #[test]
    fn multi_chain_counts_moves_across_all_chains() {
        let c = testcases::adder();
        let cfg = SaConfig {
            chains: 3,
            ..quick_config()
        };
        let result = anneal(&c, &cfg, None);
        assert_eq!(
            result.moves,
            3 * cfg.temperatures * cfg.moves_per_temperature
        );
    }

    #[test]
    fn multi_chain_is_never_worse_than_chain_zero() {
        let c = testcases::comp1();
        let single = anneal(&c, &quick_config(), None);
        let multi = anneal(
            &c,
            &SaConfig {
                chains: 4,
                ..quick_config()
            },
            None,
        );
        assert!(multi.cost.total <= single.cost.total);
    }

    #[test]
    fn chains_are_deterministic_across_thread_counts() {
        let c = testcases::cc_ota();
        let cfg = SaConfig {
            chains: 4,
            ..quick_config()
        };
        placer_parallel::set_max_threads(1);
        let serial = anneal(&c, &cfg, None);
        placer_parallel::set_max_threads(4);
        let threaded = anneal(&c, &cfg, None);
        placer_parallel::set_max_threads(0);
        assert_eq!(serial.cost.total.to_bits(), threaded.cost.total.to_bits());
        assert_eq!(serial.placement, threaded.placement);
        assert_eq!(serial.state, threaded.state);
        assert_eq!(serial.moves, threaded.moves);
    }

    #[test]
    fn incremental_annealer_matches_full_recompute_reference() {
        // The tentpole claim: switching to the incremental engine changes
        // wall time, not placements. Same seed → bit-identical results.
        for circuit in [testcases::adder(), testcases::cc_ota()] {
            let cfg = SaConfig {
                chains: 2,
                ..quick_config()
            };
            let fast = anneal(&circuit, &cfg, None);
            let slow = anneal_reference(&circuit, &cfg, None);
            assert_eq!(
                fast.cost.total.to_bits(),
                slow.cost.total.to_bits(),
                "{}: cost diverged",
                circuit.name()
            );
            assert_eq!(fast.placement, slow.placement, "{}", circuit.name());
            assert_eq!(fast.state, slow.state, "{}", circuit.name());
            assert_eq!(fast.moves, slow.moves, "{}", circuit.name());
        }
    }

    #[test]
    fn incremental_annealer_matches_reference_with_perf_term() {
        let c = testcases::adder();
        let network = Network::default_config(3);
        let perf = || PerfCost {
            network: &network,
            weight: 50.0,
            scale: 20.0,
        };
        let fast = anneal(&c, &quick_config(), Some(perf()));
        let slow = anneal_reference(&c, &quick_config(), Some(perf()));
        assert_eq!(fast.cost.total.to_bits(), slow.cost.total.to_bits());
        assert_eq!(fast.cost.phi.to_bits(), slow.cost.phi.to_bits());
        assert_eq!(fast.placement, slow.placement);

        // Re-verify on an asymmetric circuit now that Φ inference runs on
        // the CSR plan: same contract, different sparsity pattern.
        let c = testcases::comp1();
        let fast = anneal(&c, &quick_config(), Some(perf()));
        let slow = anneal_reference(&c, &quick_config(), Some(perf()));
        assert_eq!(fast.cost.total.to_bits(), slow.cost.total.to_bits());
        assert_eq!(fast.cost.phi.to_bits(), slow.cost.phi.to_bits());
        assert_eq!(fast.placement, slow.placement);
    }

    #[test]
    fn reference_engine_resumes_incremental_checkpoints() {
        // The two engines share the checkpoint format: freeze the fast
        // chain, thaw it on the oracle, and land on the same placement the
        // uninterrupted fast run reaches.
        let c = testcases::adder();
        let cfg = quick_config();
        let reference = anneal(&c, &cfg, None);

        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(11);
        let AnnealRun::Cancelled(ck) = anneal_budgeted(&c, &cfg, None, &budget, None, None) else {
            panic!("expected cancellation at check 11");
        };
        let AnnealRun::Complete(resumed) =
            anneal_reference_budgeted(&c, &cfg, None, &RunBudget::unlimited(), Some(&ck))
        else {
            panic!("resume must complete");
        };
        assert_eq!(reference.cost.total.to_bits(), resumed.cost.total.to_bits());
        assert_eq!(reference.placement, resumed.placement);
        assert_eq!(reference.state, resumed.state);
        assert_eq!(reference.moves, resumed.moves);
    }

    #[test]
    fn repeated_cancellation_still_converges_exactly() {
        let c = testcases::adder();
        let cfg = quick_config();
        let reference = anneal(&c, &cfg, None);

        let mut resume: Option<SaCheckpoint> = None;
        let mut final_result = None;
        for _ in 0..64 {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(4);
            match anneal_budgeted(&c, &cfg, None, &budget, resume.as_ref(), None) {
                AnnealRun::Cancelled(ck) => resume = Some(ck),
                AnnealRun::Complete(r) => {
                    final_result = Some(r);
                    break;
                }
                AnnealRun::Exhausted(_) => panic!("no step budget set"),
            }
        }
        let r = final_result.expect("run must converge within the interrupt loop");
        assert_eq!(reference.cost.total.to_bits(), r.cost.total.to_bits());
        assert_eq!(reference.placement, r.placement);
        assert_eq!(reference.moves, r.moves);
    }

    #[test]
    fn exhausted_budget_returns_best_so_far() {
        let c = testcases::adder();
        let cfg = quick_config();
        let AnnealRun::Exhausted(r) =
            anneal_budgeted(&c, &cfg, None, &RunBudget::steps(5), None, None)
        else {
            panic!("a 5-level budget cannot finish 30 levels");
        };
        // States are packings: even an early stop is overlap-free.
        assert!(r.placement.overlapping_pairs(&c, 1e-9).is_empty());
        assert!(r.cost.total.is_finite());
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = SaConfig::builder()
            .temperatures(50)
            .moves_per_level(80)
            .cooling(0.9)
            .seed(11)
            .chains(2)
            .build()
            .unwrap();
        assert_eq!(cfg.temperatures, 50);
        assert_eq!(cfg.moves_per_temperature, 80);
        assert_eq!(cfg.chains, 2);

        assert!(SaConfig::builder().cooling(1.0).build().is_err());
        assert!(SaConfig::builder().cooling(f64::NAN).build().is_err());
        assert!(SaConfig::builder().temperatures(0).build().is_err());
        assert!(SaConfig::builder().moves_per_level(0).build().is_err());
        assert!(SaConfig::builder().hpwl_weight(-1.0).build().is_err());
        assert!(SaConfig::builder().chains(0).build().is_err());
    }

    #[test]
    fn chain_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..8).map(|c| chain_seed(7, c)).collect();
        assert_eq!(seeds[0], 7, "chain 0 must keep the base seed");
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }
}
