//! Adam trainer for the performance model.
//!
//! [`Trainer::fit`] accumulates each mini-batch's gradients data-parallel
//! over `placer_parallel::par_map`: the batch is cut into [`GRAD_BLOCKS`]
//! fixed blocks (boundaries depend only on the batch size, never on thread
//! availability), each block sums its samples' [`ParamGrads`] in index
//! order, and the caller thread reduces the block sums in block order —
//! so training is **bit-identical for any thread count**. This is the
//! finest fan-out in the workspace; it pays because each `par_map` call
//! covers a whole mini-batch, a few hundred microseconds of
//! backpropagation on a paper circuit. The Adam update then walks the
//! `(parameter, gradient)` pairs in place; no flat gradient vector is
//! materialized per batch.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::network::ParamGrads;
use crate::{CircuitGraph, Network, TrainScratch};

/// Fixed number of gradient-accumulation blocks per mini-batch. A constant
/// (not the thread count) so block boundaries — and therefore the
/// floating-point reduction order — never depend on available parallelism.
const GRAD_BLOCKS: usize = 8;

/// One gradient block's reusable state, handed from batch to batch.
struct BlockAcc {
    /// Forward/backward scratch, rebuilt only when the node count changes.
    scratch: Option<TrainScratch>,
    /// Per-sample gradient target (overwritten by each sample).
    sample: ParamGrads,
    /// The block's gradient sum.
    sum: ParamGrads,
    /// The block's loss sum.
    loss: f64,
}

impl BlockAcc {
    fn new(network: &Network) -> Self {
        BlockAcc {
            scratch: None,
            sample: ParamGrads::zeros(network),
            sum: ParamGrads::zeros(network),
            loss: 0.0,
        }
    }

    /// Sums the loss gradients of `block`'s samples in index order.
    fn sum_block(&mut self, network: &Network, samples: &[TrainingSample], block: &[usize]) {
        self.sum.zero();
        self.loss = 0.0;
        for &i in block {
            let sample = &samples[i];
            let n = sample.graph.num_nodes();
            if !matches!(&self.scratch, Some(s) if s.num_nodes() == n) {
                self.scratch = Some(TrainScratch::new(network, n));
            }
            let scratch = self.scratch.as_mut().expect("scratch just ensured");
            self.loss +=
                network.loss_gradients_with(&sample.graph, sample.label, scratch, &mut self.sample);
            self.sum.accumulate(&self.sample);
        }
    }
}

/// One labeled training sample: a circuit graph and whether its FOM fell
/// below the specification threshold (label 1 = unsatisfactory, as in the
/// paper).
#[derive(Debug, Clone)]
pub struct TrainingSample {
    /// The circuit graph (features frozen at sample creation).
    pub graph: CircuitGraph,
    /// Target probability (0.0 = satisfactory performance, 1.0 = not).
    pub label: f64,
}

/// Options for [`Trainer::fit`].
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 42,
        }
    }
}

/// Adam state (first/second moments per parameter).
#[derive(Debug, Clone)]
pub struct Trainer {
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
    beta1: f64,
    beta2: f64,
    eps: f64,
}

impl Trainer {
    /// Creates a fresh Adam state.
    pub fn new() -> Self {
        Self {
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    fn adam_step(&mut self, network: &mut Network, grad: &[f64], lr: f64) {
        if self.m.is_empty() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut params = network.params_mut();
        assert_eq!(params.len(), grad.len(), "parameter count changed");
        for i in 0..grad.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            *params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    /// In-place Adam update: walks the `(parameter, gradient)` pairs in
    /// flatten order, updating moments and parameters without building a
    /// flat gradient vector. Returns the batch's `Σg²` (accumulated in the
    /// same order the flattened reference sums it) for the grad-norm
    /// telemetry.
    fn adam_step_in_place(&mut self, network: &mut Network, grads: &ParamGrads, lr: f64) -> f64 {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let (m, v) = (&mut self.m, &mut self.v);
        let mut i = 0usize;
        let mut grad_sq = 0.0;
        network.for_each_param_mut(grads, |p, g| {
            if i == m.len() {
                // First batch: moments grow to the parameter count.
                m.push(0.0);
                v.push(0.0);
            }
            grad_sq += g * g;
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
            i += 1;
        });
        assert_eq!(i, m.len(), "parameter count changed");
        grad_sq
    }

    /// Trains the network with mini-batch Adam on cross-entropy loss.
    /// Returns the mean loss of the final epoch.
    ///
    /// Gradients are accumulated data-parallel over a fixed number of
    /// blocks per batch (`GRAD_BLOCKS`) and reduced in block order, so the
    /// trained network is bit-identical for any thread count (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `batch_size` is zero.
    pub fn fit(
        &mut self,
        network: &mut Network,
        samples: &[TrainingSample],
        opts: &TrainOptions,
    ) -> f64 {
        self.fit_interruptible(network, samples, opts, &mut |_| false)
    }

    /// [`fit`](Self::fit) with a cooperative stop hook, polled once per
    /// epoch (never inside the batch loop) with the index of the epoch
    /// about to run. Returning `true` stops training at that boundary, so
    /// a run stopped before epoch `k` leaves the network bit-identical to
    /// a fresh `fit` with `opts.epochs == k`. This is how the job engine's
    /// `RunBudget`-style cancellation reaches training without this
    /// crate depending on the placer stack (the budget lives above us in
    /// the dependency DAG; callers adapt it to a closure).
    ///
    /// Returns the mean loss of the last *finished* epoch (infinity when
    /// stopped before the first).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `batch_size` is zero.
    pub fn fit_interruptible(
        &mut self,
        network: &mut Network,
        samples: &[TrainingSample],
        opts: &TrainOptions,
        should_stop: &mut dyn FnMut(usize) -> bool,
    ) -> f64 {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("gnn_fit");
        let _span = SPAN.enter();
        assert!(!samples.is_empty(), "training set must not be empty");
        assert!(opts.batch_size > 0, "batch size must be nonzero");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        // Block states live for the whole fit: each batch takes them from
        // the pool and hands them back, so the hot path reuses them.
        let mut pool = Mutex::new(Vec::new());
        let mut total = ParamGrads::zeros(network);
        let mut last_epoch_loss = f64::INFINITY;
        for epoch in 0..opts.epochs {
            if should_stop(epoch) {
                break;
            }
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut grad_sq = 0.0;
            for chunk in order.chunks(opts.batch_size) {
                let blocks = placer_parallel::fixed_blocks(chunk.len(), GRAD_BLOCKS);
                let net: &Network = network;
                let accs = placer_parallel::par_map(blocks.len(), |b| {
                    let taken = pool.lock().expect("unpoisoned pool").pop();
                    let mut acc = taken.unwrap_or_else(|| BlockAcc::new(net));
                    acc.sum_block(net, samples, &chunk[blocks[b].clone()]);
                    acc
                });
                // In-order reduce on the caller thread: block boundaries and
                // this loop fix the summation order for every thread count.
                total.zero();
                for acc in &accs {
                    total.accumulate(&acc.sum);
                    epoch_loss += acc.loss;
                }
                pool.get_mut().expect("unpoisoned pool").extend(accs);
                total.scale(1.0 / chunk.len() as f64);
                grad_sq += self.adam_step_in_place(network, &total, opts.learning_rate);
            }
            last_epoch_loss = epoch_loss / samples.len() as f64;
            if placer_telemetry::active() {
                placer_telemetry::record(
                    "gnn_epoch",
                    &[
                        ("epoch", epoch as f64),
                        ("epochs", opts.epochs as f64),
                        ("loss", last_epoch_loss),
                        ("grad_norm", grad_sq.sqrt()),
                    ],
                );
            }
        }
        if placer_telemetry::active() {
            placer_telemetry::flush();
        }
        last_epoch_loss
    }

    /// Retained sequential reference of [`fit`](Self::fit): per-sample
    /// dense-path gradient accumulation in shuffle order and a flattening
    /// Adam step, exactly the pre-CSR trainer. Kept as the bench "before"
    /// leg; its per-batch summation order differs from `fit`, so the two
    /// converge to (slightly) different parameters.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `batch_size` is zero.
    pub fn fit_reference(
        &mut self,
        network: &mut Network,
        samples: &[TrainingSample],
        opts: &TrainOptions,
    ) -> f64 {
        assert!(!samples.is_empty(), "training set must not be empty");
        assert!(opts.batch_size > 0, "batch size must be nonzero");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last_epoch_loss = f64::INFINITY;
        for _epoch in 0..opts.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(opts.batch_size) {
                let mut acc: Option<ParamGrads> = None;
                for &i in chunk {
                    let (loss, grads) = network.loss_gradients(&samples[i].graph, samples[i].label);
                    epoch_loss += loss;
                    match &mut acc {
                        None => acc = Some(grads),
                        Some(a) => a.accumulate(&grads),
                    }
                }
                if let Some(mut a) = acc {
                    a.scale(1.0 / chunk.len() as f64);
                    let flat = a.flatten();
                    self.adam_step(network, &flat, opts.learning_rate);
                }
            }
            last_epoch_loss = epoch_loss / samples.len() as f64;
        }
        last_epoch_loss
    }

    /// Classification accuracy at threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn accuracy(network: &Network, samples: &[TrainingSample]) -> f64 {
        assert!(!samples.is_empty(), "evaluation set must not be empty");
        let correct = samples
            .iter()
            .filter(|s| (network.predict(&s.graph) > 0.5) == (s.label > 0.5))
            .count();
        correct as f64 / samples.len() as f64
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::{testcases, Placement};
    use rand::Rng;

    /// Builds a toy dataset where the label is determined by how spread the
    /// placement is: tight placements (small coordinates) are "good" (0),
    /// scattered ones "bad" (1). The GNN must learn this from positions.
    fn toy_dataset(n: usize, seed: u64) -> Vec<TrainingSample> {
        let circuit = testcases::cc_ota();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let bad = i % 2 == 1;
                let spread = if bad { 9.0 } else { 1.5 };
                let mut p = Placement::new(circuit.num_devices());
                for pos in &mut p.positions {
                    *pos = (rng.gen_range(0.0..spread), rng.gen_range(0.0..spread));
                }
                TrainingSample {
                    graph: CircuitGraph::new(&circuit, &p, 10.0),
                    label: if bad { 1.0 } else { 0.0 },
                }
            })
            .collect()
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let train = toy_dataset(120, 1);
        let test = toy_dataset(40, 2);
        let mut net = Network::default_config(3);
        let mut trainer = Trainer::new();
        let loss = trainer.fit(
            &mut net,
            &train,
            &TrainOptions {
                epochs: 60,
                ..TrainOptions::default()
            },
        );
        assert!(loss < 0.4, "final loss too high: {loss}");
        let acc = Trainer::accuracy(&net, &test);
        assert!(acc > 0.85, "test accuracy too low: {acc}");
    }

    #[test]
    fn trained_gradient_points_toward_lower_phi_for_tightening() {
        // After training "spread = bad", moving an outlier device inward
        // should reduce Φ, i.e. the position gradient must point outward.
        let train = toy_dataset(120, 5);
        let mut net = Network::default_config(9);
        let mut trainer = Trainer::new();
        trainer.fit(&mut net, &train, &TrainOptions::default());

        let circuit = testcases::cc_ota();
        let mut p = Placement::new(circuit.num_devices());
        for pos in &mut p.positions {
            *pos = (1.0, 1.0);
        }
        p.positions[0] = (9.5, 9.5); // one outlier
        let g = CircuitGraph::new(&circuit, &p, 10.0);
        let (phi, grads) = net.position_gradient(&g);
        // Gradient descent direction −∂Φ/∂v on the outlier should pull it
        // back toward the cluster (negative x step), i.e. gradient positive.
        assert!(phi > 0.0);
        assert!(
            grads[0].0 > 0.0 || grads[0].1 > 0.0,
            "outlier gradient should point outward: {:?}",
            grads[0]
        );
    }

    #[test]
    fn accuracy_of_constant_predictor_is_half() {
        let samples = toy_dataset(40, 7);
        let net = Network::default_config(1);
        let acc = Trainer::accuracy(&net, &samples);
        // Untrained net predicts near 0.5; accuracy should be 0/0.5/1-ish
        // but on a balanced set it cannot exceed the majority by much.
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_set_rejected() {
        let mut net = Network::default_config(1);
        let mut t = Trainer::new();
        let _ = t.fit(&mut net, &[], &TrainOptions::default());
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let train = toy_dataset(60, 11);
        let opts = TrainOptions {
            epochs: 5,
            ..TrainOptions::default()
        };
        let run = |threads: usize| {
            placer_parallel::set_max_threads(threads);
            let mut net = Network::default_config(5);
            let mut trainer = Trainer::new();
            let loss = trainer.fit(&mut net, &train, &opts);
            placer_parallel::set_max_threads(0);
            (loss, net.to_text())
        };
        let (loss_one, net_one) = run(1);
        let (loss_many, net_many) = run(4);
        assert_eq!(loss_one.to_bits(), loss_many.to_bits());
        assert_eq!(net_one, net_many, "trained parameters diverged");
    }

    #[test]
    fn fit_handles_mixed_circuit_sizes() {
        // Two circuits with different node counts in one batch force the
        // per-block scratch to resize mid-stream.
        let small = testcases::cc_ota();
        let large = testcases::adder();
        let mut samples = Vec::new();
        for i in 0..12 {
            let circuit = if i % 2 == 0 { &small } else { &large };
            let mut p = Placement::new(circuit.num_devices());
            for (d, pos) in p.positions.iter_mut().enumerate() {
                *pos = ((d % 3) as f64 + i as f64 * 0.1, (d / 3) as f64);
            }
            samples.push(TrainingSample {
                graph: CircuitGraph::new(circuit, &p, 10.0),
                label: (i % 2) as f64,
            });
        }
        let mut net = Network::default_config(2);
        let mut trainer = Trainer::new();
        let loss = trainer.fit(
            &mut net,
            &samples,
            &TrainOptions {
                epochs: 3,
                batch_size: 4,
                ..TrainOptions::default()
            },
        );
        assert!(loss.is_finite(), "loss diverged: {loss}");
    }

    #[test]
    fn interrupted_fit_matches_shorter_fit_bit_for_bit() {
        let train = toy_dataset(40, 17);
        let full_opts = TrainOptions {
            epochs: 12,
            ..TrainOptions::default()
        };
        for stop_at in [0usize, 1, 5] {
            let mut net_stopped = Network::default_config(4);
            let mut stopped_loss = Trainer::new().fit_interruptible(
                &mut net_stopped,
                &train,
                &full_opts,
                &mut |epoch| epoch >= stop_at,
            );
            let mut net_short = Network::default_config(4);
            let short_loss = Trainer::new().fit(
                &mut net_short,
                &train,
                &TrainOptions {
                    epochs: stop_at,
                    ..full_opts.clone()
                },
            );
            if stop_at == 0 {
                assert!(stopped_loss.is_infinite() && short_loss.is_infinite());
                stopped_loss = short_loss;
            }
            assert_eq!(
                stopped_loss.to_bits(),
                short_loss.to_bits(),
                "stop_at={stop_at}"
            );
            assert_eq!(
                net_stopped.to_text(),
                net_short.to_text(),
                "stop_at={stop_at}: parameters diverged"
            );
        }
    }

    #[test]
    fn fit_and_reference_both_learn_the_same_data() {
        // The parallel fit's block-ordered summation differs from the
        // reference's sample-ordered one, so parameters are not bit-equal —
        // but both must converge on the separable toy task.
        let train = toy_dataset(80, 21);
        let opts = TrainOptions {
            epochs: 40,
            ..TrainOptions::default()
        };
        let mut net_a = Network::default_config(13);
        let mut net_b = net_a.clone();
        let loss_fit = Trainer::new().fit(&mut net_a, &train, &opts);
        let loss_ref = Trainer::new().fit_reference(&mut net_b, &train, &opts);
        assert!(loss_fit < 0.4, "parallel fit failed to learn: {loss_fit}");
        assert!(loss_ref < 0.4, "reference fit failed to learn: {loss_ref}");
    }
}
