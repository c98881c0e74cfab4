//! Sequence-pair floorplan representation and longest-path packing.
//!
//! A sequence pair `(Γ⁺, Γ⁻)` encodes pairwise left/below relations:
//! device `i` is left of `j` when `i` precedes `j` in both sequences, and
//! below `j` when `i` follows `j` in `Γ⁺` but precedes it in `Γ⁻`.
//! Packing evaluates the induced constraint graphs by longest path, giving
//! a compact overlap-free placement — the classic representation analog SA
//! placers build on.
//!
//! Two evaluations are provided: the seed's O(n²) longest-path scan
//! ([`SequencePair::pack_dims_reference`]) and the shipping O(n log n)
//! path ([`SequencePair::pack_dims`]) based on the classic
//! longest-common-subsequence formulation with a Fenwick prefix-max tree
//! (Tang/Wong's fast sequence-pair evaluation). Both reduce the same sets
//! of `x_j + w_j` candidates through `f64::max`, which is exact and
//! order-independent, so the two produce **bit-identical** origins — a
//! property-tested invariant the incremental SA engine relies on.

use analog_netlist::{Circuit, Placement};

/// Below this size [`SequencePair::pack_dims_with`] runs a direct
/// quadratic scan instead of the Fenwick tree: at analog block counts the
/// tree's per-item log-factor bookkeeping costs more than the handful of
/// pairwise comparisons it avoids. Both paths reduce the same candidate
/// sets through `f64::max`, so the crossover is a pure speed knob — the
/// equivalence tests cover sizes on both sides of it.
const DIRECT_SCAN_MAX: usize = 32;

/// Reusable scratch for [`SequencePair::pack_dims_with`]: the Fenwick
/// prefix-max tree and the Γ⁻ position index.
///
/// Owning the buffers outside the call makes repeated packing of
/// equally-sized sequence pairs allocation-free (the SA inner loop).
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// `match2[d]` = position of item `d` in Γ⁻.
    match2: Vec<usize>,
    /// Fenwick tree over Γ⁻ positions holding prefix maxima (1-indexed).
    tree: Vec<f64>,
    /// Direct-scan staging: Γ⁻ position per Γ⁺ slot. Kept in the scratch
    /// (not on the stack) so small-n calls skip re-zeroing them.
    p2: [usize; DIRECT_SCAN_MAX],
    /// Direct-scan staging: longest-path value per Γ⁺ slot.
    val: [f64; DIRECT_SCAN_MAX],
    /// Direct-scan staging: item extent per Γ⁺ slot.
    dim: [f64; DIRECT_SCAN_MAX],
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills the Γ⁻ position index (all the direct-scan path needs).
    fn prepare_index(&mut self, s2: &[usize]) {
        let n = s2.len();
        if self.match2.len() != n {
            self.match2.resize(n, 0);
        }
        for (pos, &d) in s2.iter().enumerate() {
            self.match2[d] = pos;
        }
    }

    fn prepare(&mut self, s2: &[usize]) {
        self.prepare_index(s2);
        self.tree.resize(s2.len() + 1, 0.0);
    }

    /// Zeroes the tree (identity of the non-negative max reduction — the
    /// reference scan also starts each longest path at 0.0).
    fn reset_tree(&mut self) {
        self.tree.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Max over items stored at Γ⁻ positions `< pos`.
    #[inline]
    fn prefix_max(&self, pos: usize) -> f64 {
        let mut i = pos; // 1-indexed prefix [1..=pos] covers positions 0..pos
        let mut best = 0.0_f64;
        while i > 0 {
            best = best.max(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        best
    }

    /// Stores `value` at Γ⁻ position `pos` (monotone point update).
    #[inline]
    fn update(&mut self, pos: usize, value: f64) {
        let n = self.tree.len() - 1;
        let mut i = pos + 1;
        while i <= n {
            self.tree[i] = self.tree[i].max(value);
            i += i & i.wrapping_neg();
        }
    }
}

/// A sequence pair over `n` devices plus per-device flip bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    /// Γ⁺ (positive sequence) of device indices.
    pub s1: Vec<usize>,
    /// Γ⁻ (negative sequence).
    pub s2: Vec<usize>,
    /// `(flip_x, flip_y)` per device.
    pub flips: Vec<(bool, bool)>,
}

impl SequencePair {
    /// Identity sequence pair (row-major order).
    pub fn identity(n: usize) -> Self {
        Self {
            s1: (0..n).collect(),
            s2: (0..n).collect(),
            flips: vec![(false, false); n],
        }
    }

    /// Copies another equally-sized sequence pair without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn copy_from(&mut self, other: &SequencePair) {
        self.s1.copy_from_slice(&other.s1);
        self.s2.copy_from_slice(&other.s2);
        self.flips.copy_from_slice(&other.flips);
    }

    /// Packs generic rectangles (lower-left compaction): returns each
    /// item's lower-left corner.
    ///
    /// Runs the O(n log n) Fenwick-tree evaluation; see
    /// [`pack_dims_with`](Self::pack_dims_with) for the allocation-free
    /// entry point and [`pack_dims_reference`](Self::pack_dims_reference)
    /// for the seed O(n²) scan (bit-identical results).
    ///
    /// # Panics
    ///
    /// Panics if the dimension arrays mismatch the sequence pair size.
    pub fn pack_dims(&self, widths: &[f64], heights: &[f64]) -> Vec<(f64, f64)> {
        let mut scratch = PackScratch::new();
        let mut out = Vec::new();
        self.pack_dims_with(widths, heights, &mut scratch, &mut out);
        out
    }

    /// Allocation-free packing into a caller-owned buffer: the Fenwick
    /// O(n log n) sweep, or a direct scan below a fixed item count
    /// (`DIRECT_SCAN_MAX`, 32; bit-identical, just faster at analog block
    /// counts).
    ///
    /// `out` is cleared and refilled with each item's lower-left corner;
    /// with a warm `scratch` and an `out` of sufficient capacity the call
    /// performs no heap allocation (the SA move loop's contract, enforced
    /// by `crates/sa/tests/zero_alloc.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the dimension arrays mismatch the sequence pair size.
    pub fn pack_dims_with(
        &self,
        widths: &[f64],
        heights: &[f64],
        scratch: &mut PackScratch,
        out: &mut Vec<(f64, f64)>,
    ) {
        let n = self.s1.len();
        assert_eq!(widths.len(), n, "widths length mismatch");
        assert_eq!(heights.len(), n, "heights length mismatch");
        assert_eq!(self.s2.len(), n, "sequence pair size mismatch");
        if out.len() != n {
            out.clear();
            out.resize(n, (0.0, 0.0));
        }
        if n <= DIRECT_SCAN_MAX {
            // Small-n fast path: the reference scan's candidate sets and
            // reduction order, restaged in Γ⁺-position space on fixed
            // stack arrays so the pairwise loops run gather-free. Both
            // sweeps assign every slot, so `out` needs no zero fill.
            scratch.prepare_index(&self.s2);
            let PackScratch {
                match2,
                p2,
                val,
                dim,
                ..
            } = scratch;
            for (pi, &i) in self.s1.iter().enumerate() {
                let pos = match2[i];
                p2[pi] = pos;
                dim[pi] = widths[i];
                let mut best = 0.0_f64;
                for q in 0..pi {
                    if p2[q] < pos {
                        best = best.max(val[q] + dim[q]);
                    }
                }
                val[pi] = best;
                out[i].0 = best;
            }
            for (pi, &i) in self.s1.iter().enumerate().rev() {
                let pos = p2[pi];
                dim[pi] = heights[i];
                let mut best = 0.0_f64;
                for q in pi + 1..n {
                    if p2[q] < pos {
                        best = best.max(val[q] + dim[q]);
                    }
                }
                val[pi] = best;
                out[i].1 = best;
            }
            return;
        }
        scratch.prepare(&self.s2);
        // X: i left of j iff pos1(i) < pos1(j) and pos2(i) < pos2(j).
        // Sweep s1 left to right; the tree holds x_j + w_j keyed by pos2(j)
        // for every j already placed, so the strict-prefix max at pos2(i)
        // is exactly the reference scan's candidate set.
        scratch.reset_tree();
        for &i in &self.s1 {
            let pos = scratch.match2[i];
            let x = scratch.prefix_max(pos);
            out[i].0 = x;
            scratch.update(pos, x + widths[i]);
        }
        // Y: i below j iff pos1(i) > pos1(j) and pos2(i) < pos2(j);
        // sweep s1 right to left with the same prefix structure.
        scratch.reset_tree();
        for &i in self.s1.iter().rev() {
            let pos = scratch.match2[i];
            let y = scratch.prefix_max(pos);
            out[i].1 = y;
            scratch.update(pos, y + heights[i]);
        }
    }

    /// The seed O(n²) longest-path evaluation, retained as the oracle for
    /// [`pack_dims`](Self::pack_dims) (equivalence is property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the dimension arrays mismatch the sequence pair size.
    pub fn pack_dims_reference(&self, widths: &[f64], heights: &[f64]) -> Vec<(f64, f64)> {
        let n = self.s1.len();
        assert_eq!(widths.len(), n, "widths length mismatch");
        assert_eq!(heights.len(), n, "heights length mismatch");
        assert_eq!(self.s2.len(), n, "sequence pair size mismatch");
        // match2[d] = position of item d in s2.
        let mut match2 = vec![0usize; n];
        for (pos, &d) in self.s2.iter().enumerate() {
            match2[d] = pos;
        }
        // X: iterate s1 left to right; i left of j iff pos1(i) < pos1(j) and
        // pos2(i) < pos2(j).
        let mut x0 = vec![0.0_f64; n];
        for (pi, &i) in self.s1.iter().enumerate() {
            let mut best = 0.0_f64;
            for &j in &self.s1[..pi] {
                if match2[j] < match2[i] {
                    best = best.max(x0[j] + widths[j]);
                }
            }
            x0[i] = best;
        }
        // Y: i below j iff pos1(i) > pos1(j) and pos2(i) < pos2(j);
        // iterate s1 right to left.
        let mut y0 = vec![0.0_f64; n];
        for (pi, &i) in self.s1.iter().enumerate().rev() {
            let mut best = 0.0_f64;
            for &j in &self.s1[pi + 1..] {
                if match2[j] < match2[i] {
                    best = best.max(y0[j] + heights[j]);
                }
            }
            y0[i] = best;
        }
        (0..n).map(|i| (x0[i], y0[i])).collect()
    }

    /// Packs the sequence pair into a placement (one item per device).
    ///
    /// # Panics
    ///
    /// Panics if the sequence pair size mismatches the circuit.
    pub fn pack(&self, circuit: &Circuit) -> Placement {
        let n = circuit.num_devices();
        let widths: Vec<f64> = circuit.devices().iter().map(|d| d.width).collect();
        let heights: Vec<f64> = circuit.devices().iter().map(|d| d.height).collect();
        let origins = self.pack_dims(&widths, &heights);
        let mut placement = Placement::new(n);
        for (i, (ox, oy)) in origins.iter().enumerate().take(n) {
            let d = circuit.device(analog_netlist::DeviceId::new(i));
            placement.positions[i] = (ox + d.width / 2.0, oy + d.height / 2.0);
            placement.flips[i] = self.flips[i];
        }
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn packing_never_overlaps() {
        for circuit in [testcases::adder(), testcases::cc_ota(), testcases::scf()] {
            let sp = SequencePair::identity(circuit.num_devices());
            let p = sp.pack(&circuit);
            assert!(
                p.overlapping_pairs(&circuit, 1e-9).is_empty(),
                "{} overlaps",
                circuit.name()
            );
        }
    }

    #[test]
    fn identity_pair_packs_in_a_row() {
        // With identity sequences, every device is left of the next.
        let c = testcases::adder();
        let sp = SequencePair::identity(c.num_devices());
        let p = sp.pack(&c);
        for i in 1..c.num_devices() {
            assert!(p.positions[i].0 > p.positions[i - 1].0);
            // All on the floor.
            let d = c.device(analog_netlist::DeviceId::new(i));
            assert!((p.positions[i].1 - d.height / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reversed_s1_packs_in_a_column() {
        let c = testcases::adder();
        let n = c.num_devices();
        let sp = SequencePair {
            s1: (0..n).rev().collect(),
            s2: (0..n).collect(),
            flips: vec![(false, false); n],
        };
        let p = sp.pack(&c);
        for i in 1..n {
            assert!(p.positions[i].1 > p.positions[i - 1].1);
        }
    }

    #[test]
    fn packing_is_compact() {
        // Area of the packed bounding box is at most the sum-of-dims bound.
        let c = testcases::cc_ota();
        let sp = SequencePair::identity(c.num_devices());
        let p = sp.pack(&c);
        let total_w: f64 = c.devices().iter().map(|d| d.width).sum();
        let max_h: f64 = c.devices().iter().map(|d| d.height).fold(0.0, f64::max);
        let bb = p.bounding_box(&c).unwrap();
        assert!(bb.2 - bb.0 <= total_w + 1e-9);
        assert!(bb.3 - bb.1 <= max_h + 1e-9);
    }

    #[test]
    fn flips_carry_into_placement() {
        let c = testcases::adder();
        let mut sp = SequencePair::identity(c.num_devices());
        sp.flips[2] = (true, false);
        let p = sp.pack(&c);
        assert_eq!(p.flips[2], (true, false));
    }

    /// Deterministic pseudo-random permutation for the equivalence checks
    /// (the proptest version lives in `crate::proptests`).
    fn lcg_permutation(n: usize, mut seed: u64) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            p.swap(i, j);
        }
        p
    }

    #[test]
    fn fast_pack_is_bit_identical_to_reference() {
        for n in [1usize, 2, 3, 7, 24, 65] {
            for seed in 0..4u64 {
                let sp = SequencePair {
                    s1: lcg_permutation(n, seed * 2 + 1),
                    s2: lcg_permutation(n, seed * 2 + 2),
                    flips: vec![(false, false); n],
                };
                let widths: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7 + 3) % 11) as f64).collect();
                let heights: Vec<f64> = (0..n).map(|i| 0.25 + ((i * 5 + 1) % 13) as f64).collect();
                let fast = sp.pack_dims(&widths, &heights);
                let slow = sp.pack_dims_reference(&widths, &heights);
                for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(f.0.to_bits(), s.0.to_bits(), "n={n} seed={seed} x[{i}]");
                    assert_eq!(f.1.to_bits(), s.1.to_bits(), "n={n} seed={seed} y[{i}]");
                }
            }
        }
    }

    #[test]
    fn pack_dims_with_reuses_scratch_across_sizes() {
        // Growing then shrinking sequence pairs must not confuse the
        // scratch sizing.
        let mut scratch = PackScratch::new();
        let mut out = Vec::new();
        for n in [5usize, 17, 3] {
            let sp = SequencePair::identity(n);
            let dims: Vec<f64> = vec![2.0; n];
            sp.pack_dims_with(&dims, &dims, &mut scratch, &mut out);
            assert_eq!(out.len(), n);
            assert_eq!(out, sp.pack_dims_reference(&dims, &dims));
        }
    }
}
