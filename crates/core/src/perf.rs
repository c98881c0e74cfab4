//! ePlace-AP: GNN-guided performance-driven global placement (Eq. 5).
//!
//! The only difference from ePlace-A is the extra objective term `α·Φ(G)`;
//! its gradient `∂Φ/∂v` comes from the GNN's reverse pass
//! ([`Network::position_gradient_with`]) — the role TensorFlow's autodiff
//! plays in the paper. [`PerfGradHook`] owns every buffer that pass needs,
//! so the per-iteration hook evaluation performs **zero heap allocations**
//! (enforced by `crates/core/tests/zero_alloc_perf.rs`).

use analog_netlist::{Circuit, Placement};
use placer_gnn::{CircuitGraph, GradScratch, Network};

use crate::global::{GlobalPlacer, GlobalStats};
use crate::{GlobalConfig, PerfConfig};

/// The reusable state of the ePlace-AP gradient hook: the circuit graph
/// (topology fixed, position features refreshed in place each call), the
/// GNN gradient scratch, the position-gradient buffer, and the one-time α
/// normalization.
///
/// After construction, [`eval`](Self::eval) is allocation-free: features
/// update straight from the solver's point slice
/// ([`CircuitGraph::update_positions_from_slice`]) and the CSR backward
/// pass writes into owned buffers.
pub struct PerfGradHook<'a> {
    network: &'a Network,
    graph: CircuitGraph,
    scratch: GradScratch,
    pos_grad: Vec<(f64, f64)>,
    alpha_weight: f64,
    alpha_abs: Option<f64>,
}

impl<'a> PerfGradHook<'a> {
    /// Builds the hook state for a circuit. `alpha` is the relative weight
    /// from Eq. 5; `scale` the feature normalization extent (µm).
    pub fn new(circuit: &Circuit, network: &'a Network, alpha: f64, scale: f64) -> Self {
        let n = circuit.num_devices();
        let graph = CircuitGraph::new(circuit, &Placement::new(n), scale);
        Self::from_graph(graph, network, alpha, n)
    }

    /// Builds the hook from a pre-built shared
    /// [`GraphTopology`](placer_gnn::GraphTopology) — the
    /// amortized path: the adjacency/CSR plan is stamped out of the
    /// topology instead of rebuilt from the circuit. Bit-identical to
    /// [`new`](Self::new) (see [`CircuitGraph::from_topology`]).
    pub fn with_topology(
        topology: &placer_gnn::GraphTopology,
        network: &'a Network,
        alpha: f64,
        scale: f64,
    ) -> Self {
        let n = topology.num_nodes();
        let graph = CircuitGraph::from_topology(topology, &vec![(0.0, 0.0); n], scale);
        Self::from_graph(graph, network, alpha, n)
    }

    fn from_graph(graph: CircuitGraph, network: &'a Network, alpha: f64, n: usize) -> Self {
        Self {
            network,
            scratch: GradScratch::new(network, n),
            pos_grad: vec![(0.0, 0.0); n],
            graph,
            alpha_weight: alpha,
            alpha_abs: None,
        }
    }

    /// Evaluates the performance term at `pts`: adds `α·∂Φ/∂v` into `grad`
    /// (solver layout `[x₀…xₙ₋₁, y₀…yₙ₋₁]`) and returns the objective
    /// contribution `α·Φ`. Allocation-free.
    ///
    /// `α` is normalized against the wirelength gradient magnitude on the
    /// first call so the configured weight acts as a relative one,
    /// mirroring how the other weights in Eq. 5 are balanced
    /// (re-normalizing every iteration amplifies a saturated Φ gradient
    /// into noise — measured to hurt).
    pub fn eval(&mut self, pts: &[(f64, f64)], grad: &mut [f64]) -> f64 {
        let n = self.pos_grad.len();
        self.graph.update_positions_from_slice(pts);
        let phi =
            self.network
                .position_gradient_with(&self.graph, &mut self.scratch, &mut self.pos_grad);
        let alpha = match self.alpha_abs {
            Some(a) => a,
            None => {
                let g_norm: f64 = grad.iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
                let phi_norm: f64 = self
                    .pos_grad
                    .iter()
                    .map(|(gx, gy)| gx.abs() + gy.abs())
                    .sum::<f64>()
                    .max(1e-12);
                let a = self.alpha_weight * g_norm / phi_norm;
                self.alpha_abs = Some(a);
                a
            }
        };
        for (i, &(gx, gy)) in self.pos_grad.iter().enumerate() {
            grad[i] += alpha * gx;
            grad[n + i] += alpha * gy;
        }
        alpha * phi
    }

    /// The lazily-normalized absolute α (`None` before the first
    /// [`eval`](Self::eval)). Checkpointed by ePlace-AP: the normalization
    /// happens on the run's *first* iteration, so a resumed segment must
    /// inherit it rather than re-normalize at its own first call.
    pub fn alpha_abs(&self) -> Option<f64> {
        self.alpha_abs
    }

    /// Restores the absolute α from a checkpoint (see
    /// [`alpha_abs`](Self::alpha_abs)).
    pub fn set_alpha_abs(&mut self, alpha_abs: Option<f64>) {
        self.alpha_abs = alpha_abs;
    }
}

/// Runs performance-driven global placement: ePlace-A's engine with the
/// GNN gradient hook plugged in.
pub fn run_perf_global(
    circuit: &Circuit,
    global_config: &GlobalConfig,
    perf: &PerfConfig,
    network: &Network,
) -> (Placement, GlobalStats) {
    let mut state = PerfGradHook::new(circuit, network, perf.alpha, perf.scale);
    let mut hook = |pts: &[(f64, f64)], grad: &mut [f64]| -> f64 { state.eval(pts, grad) };
    GlobalPlacer::new(global_config.clone()).run_with_extra(circuit, Some(&mut hook))
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;
    use placer_gnn::Network;

    #[test]
    fn perf_global_runs_and_is_deterministic() {
        let c = testcases::adder();
        let net = Network::default_config(4);
        let cfg = GlobalConfig {
            max_iters: 60,
            ..GlobalConfig::default()
        };
        let perf = PerfConfig::new(0.5, 20.0);
        let (p1, s1) = run_perf_global(&c, &cfg, &perf, &net);
        let (p2, _) = run_perf_global(&c, &cfg, &perf, &net);
        assert_eq!(p1, p2);
        assert!(s1.hpwl > 0.0);
    }

    #[test]
    fn alpha_zero_matches_conventional_run() {
        let c = testcases::adder();
        let net = Network::default_config(4);
        let cfg = GlobalConfig {
            max_iters: 40,
            ..GlobalConfig::default()
        };
        let perf = PerfConfig::new(0.0, 20.0);
        let (p_perf, _) = run_perf_global(&c, &cfg, &perf, &net);
        let (p_conv, _) = crate::GlobalPlacer::new(cfg).run(&c);
        for (a, b) in p_perf.positions.iter().zip(&p_conv.positions) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn hook_matches_the_allocating_gradient_path() {
        // The hook's scratch pipeline must reproduce what a from-scratch
        // graph build plus the allocating gradient API would compute.
        let c = testcases::cc_ota();
        let net = Network::default_config(8);
        let n = c.num_devices();
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 4) as f64 * 2.0 + 0.3, (i / 4) as f64 * 1.8))
            .collect();
        let mut hook = PerfGradHook::new(&c, &net, 1.0, 20.0);
        let mut grad = vec![0.5; 2 * n];
        let contrib = hook.eval(&pts, &mut grad);

        let placement = Placement::from_positions(pts.clone());
        let graph = CircuitGraph::new(&c, &placement, 20.0);
        let (phi, pos_grad) = net.position_gradient(&graph);
        let g_norm: f64 = (0..2 * n).map(|_| 0.5f64).sum::<f64>().max(1e-12);
        let phi_norm: f64 = pos_grad
            .iter()
            .map(|(gx, gy)| gx.abs() + gy.abs())
            .sum::<f64>()
            .max(1e-12);
        let alpha = 1.0 * g_norm / phi_norm;
        assert_eq!(contrib.to_bits(), (alpha * phi).to_bits());
        for (i, &(gx, gy)) in pos_grad.iter().enumerate() {
            assert_eq!(grad[i].to_bits(), (0.5 + alpha * gx).to_bits(), "x {i}");
            assert_eq!(grad[n + i].to_bits(), (0.5 + alpha * gy).to_bits(), "y {i}");
        }
    }
}
