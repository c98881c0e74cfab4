//! Incremental SA move evaluation: amortized O(changed work) per trial.
//!
//! The seed annealer re-ran the full cost pipeline on every trial move —
//! O(n²) sequence-pair packing, a whole-circuit HPWL scan, a fresh
//! [`Placement`] and (for perf-SA) an allocating GNN forward pass.
//! [`MoveEvaluator`] owns every buffer that pipeline needs and updates only
//! what a move invalidates:
//!
//! - packing runs the O(n log n) Fenwick path into a reused origin buffer
//!   ([`SequencePair::pack_dims_with`]);
//! - block origins are diffed bit-wise against the committed packing; only
//!   devices of moved blocks (plus devices whose flips changed) are dirty;
//! - per-net HPWL terms are cached and recomputed for dirty nets only (via
//!   the [`DeviceNets`] incidence index), then re-summed in net order so
//!   the total is **bit-identical** to [`Placement::hpwl`] — caches never
//!   drift;
//! - per-constraint (alignment / ordering-window) violations are cached the
//!   same way;
//! - Φ inference reuses a [`placer_gnn::InferenceScratch`] and runs both
//!   Â-products on the graph's CSR plan ([`placer_gnn::CsrAdjacency`]), so
//!   perf-SA's dominant term stops allocating per move and scales with the
//!   circuit's nonzeros instead of n².
//!
//! The full-recompute [`crate::evaluate`] stays in-tree as the oracle: a
//! property test drives random move/accept/reject sequences and asserts
//! the incremental cost stays bit-identical to it, and
//! `crates/sa/tests/zero_alloc.rs` pins the no-allocation contract with a
//! counting global allocator.

use analog_netlist::{AlignKind, Circuit, DeviceNets, OrderDirection, Placement};
use placer_gnn::{CircuitGraph, InferenceScratch, Network};

use crate::anneal::{SaConfig, SaCost, SaState};
use crate::island::BlockModel;
use crate::seqpair::PackScratch;

/// One net pin flattened for the per-net HPWL fold: the device index,
/// the device's outline half-dims and both flip-resolved offsets
/// ([`analog_netlist::Device::pin_offset_flipped`]'s unflipped and flipped
/// branches, evaluated once), so re-pricing a net never chases a `Device`
/// pointer.
#[derive(Debug, Clone, Copy)]
struct FlatPin {
    dev: u32,
    halfw: f64,
    halfh: f64,
    off: (f64, f64),
    off_flip: (f64, f64),
}

/// One alignment constraint with the devices' half-heights baked in.
#[derive(Debug, Clone, Copy)]
struct FlatAlign {
    a: u32,
    b: u32,
    ha: f64,
    hb: f64,
    kind: AlignKind,
}

/// One ordering-chain window `(predecessor, successor)` with the two
/// half-extents along the ordering axis baked in.
#[derive(Debug, Clone, Copy)]
struct FlatWindow {
    a: u32,
    b: u32,
    ea: f64,
    eb: f64,
    direction: OrderDirection,
}

/// GNN state for the performance term Φ.
struct PerfEngine<'a> {
    network: &'a Network,
    graph: CircuitGraph,
    scratch: InferenceScratch,
}

impl std::fmt::Debug for PerfEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfEngine")
            .field("nodes", &self.graph.num_nodes())
            .finish()
    }
}

/// Work counters maintained by [`MoveEvaluator::eval_trial`]: how trials
/// split between the flip-only pack skip, the dense full-sweep reprice, and
/// the sparse dirty-device path. Plain integer tallies, always on — they
/// cost a few increments per trial and feed the telemetry layer's
/// per-temperature events when tracing is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvaluatorStats {
    /// Trials priced.
    pub trials: u64,
    /// Trials whose sequences matched the committed pair (packing reused).
    pub pack_skips: u64,
    /// Trials identical to the committed state (no dirty device).
    pub noop_trials: u64,
    /// Trials priced by the dense full-cache sweep.
    pub dense_sweeps: u64,
    /// Trials priced by sparse per-device invalidation.
    pub sparse_reprices: u64,
    /// Total dirty devices across all trials.
    pub dirty_devices: u64,
}

/// The immutable per-circuit structure the move evaluator reads: packed
/// block dims, device outline half-dims, the device→net incidence index,
/// the flattened pins and constraints. Everything here is a pure function
/// of `(circuit, model)` — independent of the SA config, seed, and chain —
/// so one instance, wrapped in an `Arc`, serves every chain and every
/// variant of a circuit (the batched-sweep amortization).
///
/// Shared tables change where the bytes live, not what they are:
/// evaluators constructed over a shared instance price moves bit-identically
/// to cold-built ones.
#[derive(Debug)]
pub struct EvalTables {
    widths: Vec<f64>,
    heights: Vec<f64>,
    /// Per-device outline half-dims (exact halves, so the area bounding
    /// box matches [`Placement::bounding_box`] bit-for-bit).
    halfw: Vec<f64>,
    halfh: Vec<f64>,
    device_nets: DeviceNets,
    /// Routable net indices in net order (the HPWL sum order).
    routable: Vec<u32>,
    /// CSR offsets into `pins`, one row per net.
    net_pin_start: Vec<u32>,
    /// Net pins flattened in CSR order.
    pins: Vec<FlatPin>,
    net_weight: Vec<f64>,
    /// Flattened alignment constraints.
    aligns: Vec<FlatAlign>,
    /// Flattened ordering-chain windows.
    windows: Vec<FlatWindow>,
    /// Device → alignment-constraint indices.
    dev_aligns: Vec<Vec<u32>>,
    /// Device → window indices.
    dev_windows: Vec<Vec<u32>>,
}

impl EvalTables {
    /// Builds the shared tables for a circuit and its block model.
    pub fn new(circuit: &Circuit, model: &BlockModel) -> Self {
        let n = circuit.num_devices();
        let widths: Vec<f64> = model.blocks.iter().map(|b| b.width).collect();
        let heights: Vec<f64> = model.blocks.iter().map(|b| b.height).collect();
        let routable: Vec<u32> = circuit
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, net)| net.is_routable())
            .map(|(i, _)| i as u32)
            .collect();
        let halfw: Vec<f64> = circuit.devices().iter().map(|d| d.width / 2.0).collect();
        let halfh: Vec<f64> = circuit.devices().iter().map(|d| d.height / 2.0).collect();
        let mut net_pin_start = Vec::with_capacity(circuit.num_nets() + 1);
        let mut pins = Vec::new();
        let mut net_weight = Vec::with_capacity(circuit.num_nets());
        net_pin_start.push(0u32);
        for net in circuit.nets() {
            for p in &net.pins {
                let d = circuit.device(p.device);
                pins.push(FlatPin {
                    dev: p.device.index() as u32,
                    halfw: d.width / 2.0,
                    halfh: d.height / 2.0,
                    off: d.pin_offset_flipped(p.pin.index(), false, false),
                    off_flip: d.pin_offset_flipped(p.pin.index(), true, true),
                });
            }
            net_pin_start.push(pins.len() as u32);
            net_weight.push(net.weight);
        }
        let aligns: Vec<FlatAlign> = circuit
            .constraints()
            .alignments
            .iter()
            .map(|a| FlatAlign {
                a: a.a.index() as u32,
                b: a.b.index() as u32,
                ha: circuit.device(a.a).height / 2.0,
                hb: circuit.device(a.b).height / 2.0,
                kind: a.kind,
            })
            .collect();
        let mut windows = Vec::new();
        for o in &circuit.constraints().orderings {
            for w in o.devices.windows(2) {
                let da = circuit.device(w[0]);
                let db = circuit.device(w[1]);
                let (ea, eb) = match o.direction {
                    OrderDirection::Horizontal => (da.width / 2.0, db.width / 2.0),
                    OrderDirection::Vertical => (da.height / 2.0, db.height / 2.0),
                };
                windows.push(FlatWindow {
                    a: w[0].index() as u32,
                    b: w[1].index() as u32,
                    ea,
                    eb,
                    direction: o.direction,
                });
            }
        }
        let mut dev_aligns = vec![Vec::new(); n];
        for (i, a) in aligns.iter().enumerate() {
            dev_aligns[a.a as usize].push(i as u32);
            dev_aligns[a.b as usize].push(i as u32);
        }
        let mut dev_windows = vec![Vec::new(); n];
        for (i, w) in windows.iter().enumerate() {
            dev_windows[w.a as usize].push(i as u32);
            dev_windows[w.b as usize].push(i as u32);
        }
        Self {
            widths,
            heights,
            halfw,
            halfh,
            device_nets: DeviceNets::new(circuit),
            routable,
            net_pin_start,
            pins,
            net_weight,
            aligns,
            windows,
            dev_aligns,
            dev_windows,
        }
    }

    /// One net's weighted HPWL under `placement` — the arithmetic of
    /// [`Placement::net_hpwl`] term for term: each pin resolves to its
    /// device center minus the half-dims plus the flip-selected offset,
    /// and the extrema fold in pin order ([`fold_min`]/[`fold_max`]).
    #[inline]
    fn net_hpwl(&self, net: usize, placement: &Placement) -> f64 {
        let s = self.net_pin_start[net] as usize;
        let e = self.net_pin_start[net + 1] as usize;
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &self.pins[s..e] {
            let d = p.dev as usize;
            let (cx, cy) = placement.positions[d];
            let (fx, fy) = placement.flips[d];
            let x = cx - p.halfw + if fx { p.off_flip.0 } else { p.off.0 };
            let y = cy - p.halfh + if fy { p.off_flip.1 } else { p.off.1 };
            xmin = fold_min(x, xmin);
            xmax = fold_max(x, xmax);
            ymin = fold_min(y, ymin);
            ymax = fold_max(y, ymax);
        }
        self.net_weight[net] * ((xmax - xmin) + (ymax - ymin))
    }

    /// Re-prices every routable net under `placement`, in net order.
    fn price_all_nets(&self, placement: &Placement, net_vals: &mut [f64]) {
        for &ni in &self.routable {
            net_vals[ni as usize] = self.net_hpwl(ni as usize, placement);
        }
    }
}

/// The incremental cost engine for one annealing chain.
///
/// Holds a *committed* evaluation (state caches + [`SaCost`]) and a trial
/// buffer set. [`eval_trial`](Self::eval_trial) prices any candidate state
/// against the committed one without touching it;
/// [`accept`](Self::accept) promotes the last trial by buffer swap. After
/// construction the trial/accept cycle performs **no heap allocation**.
///
/// Costs are bit-identical to the full-recompute oracle
/// [`crate::evaluate`] (same floating-point evaluation order everywhere),
/// so switching the annealer to this engine changes wall time, not
/// placements.
#[derive(Debug)]
pub struct MoveEvaluator<'a> {
    model: &'a BlockModel,
    hpwl_weight: f64,
    penalty_weight: f64,

    /// Static per-circuit structure, shareable across chains and variants.
    tables: std::sync::Arc<EvalTables>,

    // Committed evaluation.
    /// Committed sequence pair (detects flip-only candidates, whose
    /// packing is reusable bit-for-bit).
    c_s1: Vec<usize>,
    c_s2: Vec<usize>,
    origins: Vec<(f64, f64)>,
    placement: Placement,
    net_vals: Vec<f64>,
    align_vals: Vec<f64>,
    window_vals: Vec<f64>,
    cost: SaCost,

    // Trial buffers.
    t_s1: Vec<usize>,
    t_s2: Vec<usize>,
    t_origins: Vec<(f64, f64)>,
    t_placement: Placement,
    t_net_vals: Vec<f64>,
    t_align_vals: Vec<f64>,
    t_window_vals: Vec<f64>,
    t_cost: SaCost,

    // Scratch.
    pack: PackScratch,
    dirty: Vec<u32>,
    net_mark: Vec<u64>,
    align_mark: Vec<u64>,
    window_mark: Vec<u64>,
    epoch: u64,
    stats: EvaluatorStats,

    perf: Option<PerfEngine<'a>>,
}

impl<'a> MoveEvaluator<'a> {
    /// Builds the engine and fully evaluates (commits) `state`.
    ///
    /// `perf` is `(network, scale)` for the Φ term; the *weight* of Φ in
    /// the annealer's acceptance total is applied by the caller, keeping
    /// [`cost`](Self::cost) comparable with [`crate::evaluate`].
    pub fn new(
        circuit: &'a Circuit,
        model: &'a BlockModel,
        config: &SaConfig,
        state: &SaState,
        perf: Option<(&'a Network, f64)>,
    ) -> Self {
        let tables = std::sync::Arc::new(EvalTables::new(circuit, model));
        Self::with_tables(circuit, model, config, state, perf, tables)
    }

    /// [`new`](Self::new) over pre-built shared tables — the amortized
    /// construction path for batched sweeps. `tables` must have been built
    /// for this `(circuit, model)` pair; prices moves bit-identically to a
    /// cold-built evaluator (the tables are exactly what `new` computes).
    pub fn with_tables(
        circuit: &'a Circuit,
        model: &'a BlockModel,
        config: &SaConfig,
        state: &SaState,
        perf: Option<(&'a Network, f64)>,
        tables: std::sync::Arc<EvalTables>,
    ) -> Self {
        let n = circuit.num_devices();
        let m = model.len();
        let perf = perf.map(|(network, scale)| PerfEngine {
            network,
            graph: CircuitGraph::new(circuit, &Placement::new(n), scale),
            scratch: InferenceScratch::new(network, n),
        });
        let num_aligns = tables.aligns.len();
        let num_windows = tables.windows.len();
        let mut engine = Self {
            model,
            hpwl_weight: config.hpwl_weight,
            penalty_weight: config.penalty_weight,
            tables,
            c_s1: vec![0; m],
            c_s2: vec![0; m],
            origins: Vec::with_capacity(m),
            placement: Placement::new(n),
            net_vals: vec![0.0; circuit.num_nets()],
            align_vals: vec![0.0; num_aligns],
            window_vals: vec![0.0; num_windows],
            cost: SaCost {
                area: 0.0,
                hpwl: 0.0,
                violation: 0.0,
                phi: 0.0,
                total: 0.0,
            },
            t_s1: vec![0; m],
            t_s2: vec![0; m],
            t_origins: Vec::with_capacity(m),
            t_placement: Placement::new(n),
            t_net_vals: vec![0.0; circuit.num_nets()],
            t_align_vals: vec![0.0; num_aligns],
            t_window_vals: vec![0.0; num_windows],
            t_cost: SaCost {
                area: 0.0,
                hpwl: 0.0,
                violation: 0.0,
                phi: 0.0,
                total: 0.0,
            },
            pack: PackScratch::new(),
            dirty: Vec::with_capacity(2 * n),
            net_mark: vec![0; circuit.num_nets()],
            align_mark: vec![0; num_aligns],
            window_mark: vec![0; num_windows],
            epoch: 0,
            stats: EvaluatorStats::default(),
            perf,
        };
        engine.reset(state);
        engine
    }

    /// Fully re-evaluates `state` and commits it (used at construction and
    /// whenever the caller replaces the state wholesale).
    pub fn reset(&mut self, state: &SaState) {
        self.c_s1.copy_from_slice(&state.seq_pair.s1);
        self.c_s2.copy_from_slice(&state.seq_pair.s2);
        state.seq_pair.pack_dims_with(
            &self.tables.widths,
            &self.tables.heights,
            &mut self.pack,
            &mut self.origins,
        );
        for (block, &(bx, by)) in self.model.blocks.iter().zip(&self.origins) {
            for &(dev, ox, oy) in &block.devices {
                let i = dev.index();
                self.placement.positions[i] = (bx + ox, by + oy);
                self.placement.flips[i] = state.flips[i];
            }
        }
        self.tables
            .price_all_nets(&self.placement, &mut self.net_vals);
        for (i, v) in self.align_vals.iter_mut().enumerate() {
            *v = flat_align_value(&self.tables.aligns[i], &self.placement.positions);
        }
        for (i, v) in self.window_vals.iter_mut().enumerate() {
            *v = flat_window_value(&self.tables.windows[i], &self.placement.positions);
        }
        self.cost = Self::assemble(
            &self.tables,
            &self.placement,
            &self.net_vals,
            &self.align_vals,
            &self.window_vals,
            self.hpwl_weight,
            self.penalty_weight,
            self.perf.as_mut(),
        );
    }

    /// The committed cost breakdown.
    pub fn cost(&self) -> SaCost {
        self.cost
    }

    /// The committed placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Work counters accumulated since construction (see [`EvaluatorStats`]).
    pub fn stats(&self) -> EvaluatorStats {
        self.stats
    }

    /// Prices a candidate state against the committed one.
    ///
    /// The candidate may differ from the committed state by any number of
    /// moves (the annealer's temperature probe stacks several); cost is
    /// recomputed only for blocks whose packed origin changed and devices
    /// whose flips changed. Does not modify the committed evaluation; call
    /// [`accept`](Self::accept) to promote this trial.
    pub fn eval_trial(&mut self, trial: &SaState) -> SaCost {
        // Packing depends only on the sequences, so a flip-only candidate
        // (the annealer's most common cheap move) reuses the committed
        // origins bit-for-bit and skips the pack and the block diff.
        let same_seqs = trial.seq_pair.s1 == self.c_s1 && trial.seq_pair.s2 == self.c_s2;
        self.stats.trials += 1;
        if same_seqs {
            self.stats.pack_skips += 1;
        }
        if same_seqs {
            self.t_origins.clear();
            self.t_origins.extend_from_slice(&self.origins);
        } else {
            trial.seq_pair.pack_dims_with(
                &self.tables.widths,
                &self.tables.heights,
                &mut self.pack,
                &mut self.t_origins,
            );
        }
        self.t_s1.copy_from_slice(&trial.seq_pair.s1);
        self.t_s2.copy_from_slice(&trial.seq_pair.s2);
        self.t_placement
            .positions
            .copy_from_slice(&self.placement.positions);
        self.t_placement
            .flips
            .copy_from_slice(&self.placement.flips);
        self.epoch += 1;
        self.dirty.clear();
        if !same_seqs {
            // Devices of blocks whose packed origin moved (bit-wise diff:
            // the packing is deterministic, so bit-equal origins imply
            // bit-equal downstream values).
            for (b, (block, &(bx, by))) in self.model.blocks.iter().zip(&self.t_origins).enumerate()
            {
                let (cx, cy) = self.origins[b];
                if bx.to_bits() == cx.to_bits() && by.to_bits() == cy.to_bits() {
                    continue;
                }
                for &(dev, ox, oy) in &block.devices {
                    let i = dev.index();
                    self.t_placement.positions[i] = (bx + ox, by + oy);
                    self.dirty.push(i as u32);
                }
            }
        }
        // Devices whose flips changed (pin positions move, outline doesn't).
        for (d, (&tf, &cf)) in trial.flips.iter().zip(&self.placement.flips).enumerate() {
            if tf != cf {
                self.t_placement.flips[d] = tf;
                self.dirty.push(d as u32);
            }
        }
        self.stats.dirty_devices += self.dirty.len() as u64;
        if self.dirty.is_empty() {
            self.stats.noop_trials += 1;
            // Candidate is identical to the committed state (the move
            // repertoire includes self-inverse no-ops); every cache entry
            // already matches, so the committed cost is the answer.
            self.t_net_vals.copy_from_slice(&self.net_vals);
            self.t_align_vals.copy_from_slice(&self.align_vals);
            self.t_window_vals.copy_from_slice(&self.window_vals);
            self.t_cost = self.cost;
            return self.t_cost;
        }
        if 2 * self.dirty.len() >= self.t_placement.positions.len() {
            self.stats.dense_sweeps += 1;
            // Most devices moved (a sequence move reshuffles most of the
            // packing): a straight sweep over every cache row beats
            // per-device invalidation marking. Non-routable rows stay at
            // their initial zeros in both buffer sets, so skipping the
            // committed-value copies is sound.
            self.tables
                .price_all_nets(&self.t_placement, &mut self.t_net_vals);
            for (i, a) in self.tables.aligns.iter().enumerate() {
                self.t_align_vals[i] = flat_align_value(a, &self.t_placement.positions);
            }
            for (i, w) in self.tables.windows.iter().enumerate() {
                self.t_window_vals[i] = flat_window_value(w, &self.t_placement.positions);
            }
        } else {
            self.stats.sparse_reprices += 1;
            // Recompute exactly the invalidated cache entries.
            self.t_net_vals.copy_from_slice(&self.net_vals);
            self.t_align_vals.copy_from_slice(&self.align_vals);
            self.t_window_vals.copy_from_slice(&self.window_vals);
            for i in 0..self.dirty.len() {
                let d = self.dirty[i] as usize;
                for &ni in self
                    .tables
                    .device_nets
                    .nets_of(analog_netlist::DeviceId::new(d))
                {
                    if self.net_mark[ni as usize] != self.epoch {
                        self.net_mark[ni as usize] = self.epoch;
                        self.t_net_vals[ni as usize] =
                            self.tables.net_hpwl(ni as usize, &self.t_placement);
                    }
                }
                for &ai in &self.tables.dev_aligns[d] {
                    if self.align_mark[ai as usize] != self.epoch {
                        self.align_mark[ai as usize] = self.epoch;
                        self.t_align_vals[ai as usize] = flat_align_value(
                            &self.tables.aligns[ai as usize],
                            &self.t_placement.positions,
                        );
                    }
                }
                for &wi in &self.tables.dev_windows[d] {
                    if self.window_mark[wi as usize] != self.epoch {
                        self.window_mark[wi as usize] = self.epoch;
                        self.t_window_vals[wi as usize] = flat_window_value(
                            &self.tables.windows[wi as usize],
                            &self.t_placement.positions,
                        );
                    }
                }
            }
        }
        self.t_cost = Self::assemble(
            &self.tables,
            &self.t_placement,
            &self.t_net_vals,
            &self.t_align_vals,
            &self.t_window_vals,
            self.hpwl_weight,
            self.penalty_weight,
            self.perf.as_mut(),
        );
        self.t_cost
    }

    /// Promotes the trial evaluated by the last [`eval_trial`](Self::eval_trial)
    /// call to the committed evaluation (O(1) buffer swaps).
    pub fn accept(&mut self) {
        std::mem::swap(&mut self.c_s1, &mut self.t_s1);
        std::mem::swap(&mut self.c_s2, &mut self.t_s2);
        std::mem::swap(&mut self.origins, &mut self.t_origins);
        std::mem::swap(&mut self.placement, &mut self.t_placement);
        std::mem::swap(&mut self.net_vals, &mut self.t_net_vals);
        std::mem::swap(&mut self.align_vals, &mut self.t_align_vals);
        std::mem::swap(&mut self.window_vals, &mut self.t_window_vals);
        self.cost = self.t_cost;
    }

    /// Assembles a [`SaCost`] from the cache arrays, in the exact
    /// floating-point order of the full-recompute oracle
    /// ([`crate::evaluate`]): bounding box over devices in id order, HPWL
    /// summed over routable nets in net order, violation maxima folded in
    /// constraint order.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        tables: &EvalTables,
        placement: &Placement,
        net_vals: &[f64],
        align_vals: &[f64],
        window_vals: &[f64],
        hpwl_weight: f64,
        penalty_weight: f64,
        perf: Option<&mut PerfEngine<'_>>,
    ) -> SaCost {
        // Bounding box over device outlines in id order — the same folds
        // as [`Placement::bounding_box`], reading precomputed half-dims.
        let area = if placement.positions.is_empty() {
            0.0
        } else {
            let mut bb = (
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
            );
            for (i, &(x, y)) in placement.positions.iter().enumerate() {
                bb.0 = fold_min(x - tables.halfw[i], bb.0);
                bb.1 = fold_min(y - tables.halfh[i], bb.1);
                bb.2 = fold_max(x + tables.halfw[i], bb.2);
                bb.3 = fold_max(y + tables.halfh[i], bb.3);
            }
            (bb.2 - bb.0) * (bb.3 - bb.1)
        };
        let mut hpwl = 0.0;
        for &ni in &tables.routable {
            hpwl += net_vals[ni as usize];
        }
        let mut align_worst: f64 = 0.0;
        for &v in align_vals {
            align_worst = align_worst.max(v);
        }
        let mut order_worst: f64 = 0.0;
        for &v in window_vals {
            order_worst = order_worst.max(v);
        }
        let violation = align_worst + order_worst;
        let phi = match perf {
            Some(engine) => {
                engine.graph.update_positions(placement);
                engine
                    .network
                    .predict_with(&engine.graph, &mut engine.scratch)
            }
            None => 0.0,
        };
        let total = area + hpwl_weight * hpwl + penalty_weight * violation;
        SaCost {
            area,
            hpwl,
            violation,
            phi,
            total,
        }
    }
}

/// `f64::min` for the extrema folds: a compare-select, without
/// `f64::min`'s NaN handling. Pin and outline coordinates are finite sums
/// of non-negative terms, never NaN or `-0.0`, so the result's bits equal
/// the oracle's ([`Placement::hpwl`], [`Placement::area`]).
#[inline]
fn fold_min(x: f64, m: f64) -> f64 {
    if x < m {
        x
    } else {
        m
    }
}

/// The `f64::max` counterpart of [`fold_min`].
#[inline]
fn fold_max(x: f64, m: f64) -> f64 {
    if x > m {
        x
    } else {
        m
    }
}

/// One alignment constraint's violation, exactly as
/// [`Placement::alignment_violation`] prices it.
#[inline]
fn flat_align_value(a: &FlatAlign, positions: &[(f64, f64)]) -> f64 {
    let (xa, ya) = positions[a.a as usize];
    let (xb, yb) = positions[a.b as usize];
    match a.kind {
        AlignKind::Bottom => ((ya - a.ha) - (yb - a.hb)).abs(),
        AlignKind::VerticalCenter => (xa - xb).abs(),
    }
}

/// One ordering window's clamped gap, exactly as
/// [`Placement::ordering_violation`] prices it.
#[inline]
fn flat_window_value(w: &FlatWindow, positions: &[(f64, f64)]) -> f64 {
    let (xa, ya) = positions[w.a as usize];
    let (xb, yb) = positions[w.b as usize];
    let gap = match w.direction {
        OrderDirection::Horizontal => (xa + w.ea) - (xb - w.eb),
        OrderDirection::Vertical => (ya + w.ea) - (yb - w.eb),
    };
    gap.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::evaluate;
    use crate::seqpair::SequencePair;
    use analog_netlist::testcases;
    use placer_gnn::Network;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_state(model_len: usize, n: usize, rng: &mut StdRng) -> SaState {
        let mut s1: Vec<usize> = (0..model_len).collect();
        let mut s2: Vec<usize> = (0..model_len).collect();
        for i in (1..model_len).rev() {
            let j = rng.gen_range(0..=i);
            s1.swap(i, j);
            let k = rng.gen_range(0..=i);
            s2.swap(i, k);
        }
        SaState {
            seq_pair: SequencePair {
                s1,
                s2,
                flips: vec![(false, false); n],
            },
            flips: (0..n)
                .map(|_| (rng.gen_bool(0.5), rng.gen_bool(0.5)))
                .collect(),
        }
    }

    fn assert_costs_bit_equal(a: SaCost, b: SaCost, context: &str) {
        assert_eq!(a.area.to_bits(), b.area.to_bits(), "{context}: area");
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits(), "{context}: hpwl");
        assert_eq!(
            a.violation.to_bits(),
            b.violation.to_bits(),
            "{context}: violation"
        );
        assert_eq!(a.phi.to_bits(), b.phi.to_bits(), "{context}: phi");
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "{context}: total");
    }

    #[test]
    fn committed_cost_matches_oracle_at_construction() {
        for circuit in [testcases::adder(), testcases::cc_ota(), testcases::comp1()] {
            let model = BlockModel::new(&circuit);
            let config = SaConfig::default();
            let mut rng = StdRng::seed_from_u64(3);
            let state = random_state(model.len(), circuit.num_devices(), &mut rng);
            let engine = MoveEvaluator::new(&circuit, &model, &config, &state, None);
            let (oracle_placement, oracle_cost) = evaluate(&circuit, &model, &state, &config, None);
            assert_costs_bit_equal(engine.cost(), oracle_cost, circuit.name());
            assert_eq!(engine.placement(), &oracle_placement);
        }
    }

    #[test]
    fn trial_costs_match_oracle_through_accept_reject_sequences() {
        let circuit = testcases::cc_ota();
        let model = BlockModel::new(&circuit);
        let config = SaConfig::default();
        let n = circuit.num_devices();
        let mut rng = StdRng::seed_from_u64(11);
        let mut state = random_state(model.len(), n, &mut rng);
        let mut engine = MoveEvaluator::new(&circuit, &model, &config, &state, None);
        let mut trial = state.clone();
        for step in 0..200 {
            trial.copy_from(&state);
            crate::anneal::random_move(&mut trial, n, &mut rng);
            let got = engine.eval_trial(&trial);
            let (_, want) = evaluate(&circuit, &model, &trial, &config, None);
            assert_costs_bit_equal(got, want, &format!("step {step}"));
            if rng.gen_bool(0.5) {
                engine.accept();
                std::mem::swap(&mut state, &mut trial);
            }
        }
    }

    #[test]
    fn perf_phi_matches_oracle() {
        let circuit = testcases::adder();
        let model = BlockModel::new(&circuit);
        let config = SaConfig::default();
        let n = circuit.num_devices();
        let network = Network::default_config(9);
        let scale = 20.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = random_state(model.len(), n, &mut rng);
        let mut engine =
            MoveEvaluator::new(&circuit, &model, &config, &state, Some((&network, scale)));
        let mut oracle_graph = CircuitGraph::new(&circuit, &Placement::new(n), scale);
        let mut trial = state.clone();
        for step in 0..60 {
            trial.copy_from(&state);
            crate::anneal::random_move(&mut trial, n, &mut rng);
            let got = engine.eval_trial(&trial);
            let mut perf = (
                crate::anneal::PerfCost {
                    network: &network,
                    weight: 1.0,
                    scale,
                },
                oracle_graph.clone(),
            );
            let (_, want) = evaluate(&circuit, &model, &trial, &config, Some(&mut perf));
            oracle_graph = perf.1;
            assert_costs_bit_equal(got, want, &format!("step {step}"));
            if step % 3 == 0 {
                engine.accept();
                std::mem::swap(&mut state, &mut trial);
            }
        }
    }

    #[test]
    fn stacked_unaccepted_trials_stay_consistent() {
        // The temperature probe evaluates a trial that drifts several moves
        // away from the committed state without ever accepting.
        let circuit = testcases::comp1();
        let model = BlockModel::new(&circuit);
        let config = SaConfig::default();
        let n = circuit.num_devices();
        let mut rng = StdRng::seed_from_u64(17);
        let state = random_state(model.len(), n, &mut rng);
        let mut engine = MoveEvaluator::new(&circuit, &model, &config, &state, None);
        let mut probe = state.clone();
        for step in 0..30 {
            crate::anneal::random_move(&mut probe, n, &mut rng);
            let got = engine.eval_trial(&probe);
            let (_, want) = evaluate(&circuit, &model, &probe, &config, None);
            assert_costs_bit_equal(got, want, &format!("probe step {step}"));
        }
        // The committed evaluation never moved.
        let (_, base) = evaluate(&circuit, &model, &state, &config, None);
        assert_costs_bit_equal(engine.cost(), base, "committed");
    }
}
