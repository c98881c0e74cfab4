//! Constraint-aware separation planning for legalization.
//!
//! Legalizers derive pairwise separation constraints ("a left of b") from a
//! global placement's geometry. Done naively, those directions can
//! contradict the analog equality constraints:
//!
//! - a mirrored pair has equal y, so two y-separations through a third
//!   device are transitively infeasible;
//! - members of one vertical symmetry group satisfy `x_a + x_b = 2m`, so an
//!   x-separation between group members implies the **mirrored** separation
//!   between their partners;
//! - ordering chains pre-impose directions that raw geometry may violate.
//!
//! [`SeparationPlanner`] makes the derived set sound by construction:
//! devices tied by equalities are merged into per-axis clusters, separations
//! are directed edges between clusters in a DAG (edges are only added when
//! no opposite path exists), ordering chains seed the DAG, and same-group
//! edges propagate their mirror image.

use analog_netlist::{AlignKind, Axis, Circuit, DeviceId, OrderDirection, Placement};

/// A planned separation: `a` must end at or before `b` starts on the axis.
pub type SepEdge = (DeviceId, DeviceId);

#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// One axis of the planner: equality clusters plus a separation DAG.
#[derive(Debug, Clone)]
struct AxisPlan {
    n: usize,
    clusters: UnionFind,
    /// Cluster-level adjacency, indexed by cluster root: edges `u → v`
    /// meaning u's devices end before v's start. Device-level edges
    /// retained for emission.
    adj: Vec<Vec<usize>>,
    edges: Vec<SepEdge>,
    /// How often each device pair `a·n + b` occurs in `edges`.
    emitted: Vec<u32>,
    /// Path-search scratch: a node is visited when its stamp equals
    /// `stamp`, so a search clears nothing.
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<usize>,
}

impl AxisPlan {
    fn new(n: usize) -> Self {
        Self {
            n,
            clusters: UnionFind::new(n),
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            emitted: vec![0; n * n],
            visited: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    fn cluster(&mut self, d: DeviceId) -> usize {
        self.clusters.find(d.index())
    }

    fn has_path(&mut self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
        self.stack.push(from);
        self.visited[from] = self.stamp;
        while let Some(u) = self.stack.pop() {
            for &v in &self.adj[u] {
                if v == to {
                    return true;
                }
                if self.visited[v] != self.stamp {
                    self.visited[v] = self.stamp;
                    self.stack.push(v);
                }
            }
        }
        false
    }

    fn emit(&mut self, a: DeviceId, b: DeviceId) {
        self.emitted[a.index() * self.n + b.index()] += 1;
        self.edges.push((a, b));
    }

    /// Adds a device-level edge if the cluster-level DAG allows it.
    /// Returns `true` when the edge (or an equivalent path) now exists.
    fn add_edge(&mut self, a: DeviceId, b: DeviceId) -> bool {
        let (ca, cb) = (self.cluster(a), self.cluster(b));
        if ca == cb {
            return false; // same cluster: cannot separate on this axis
        }
        if self.has_path(ca, cb) {
            // Already implied; still emit the device edge for tightness.
            if self.emitted[a.index() * self.n + b.index()] == 0 {
                self.emit(a, b);
            }
            return true;
        }
        if self.has_path(cb, ca) {
            return false; // opposite direction already forced
        }
        self.adj[ca].push(cb);
        self.emit(a, b);
        true
    }

    /// Undoes the most recent successful [`add_edge`](Self::add_edge) call
    /// for exactly this device pair (used for transactional mirror adds).
    fn rollback_edge(&mut self, a: DeviceId, b: DeviceId) {
        if self.edges.last() == Some(&(a, b)) {
            self.edges.pop();
            self.emitted[a.index() * self.n + b.index()] -= 1;
            let (ca, cb) = (self.cluster(a), self.cluster(b));
            let list = &mut self.adj[ca];
            if let Some(pos) = list.iter().rposition(|&v| v == cb) {
                list.remove(pos);
            }
        }
    }

    /// Whether the pair is already forced apart (a path exists either way).
    /// Retained for invariants testing; production paths always materialize
    /// explicit device edges instead.
    #[cfg_attr(not(test), allow(dead_code))]
    fn separated(&mut self, a: DeviceId, b: DeviceId) -> bool {
        let (ca, cb) = (self.cluster(a), self.cluster(b));
        ca != cb && (self.has_path(ca, cb) || self.has_path(cb, ca))
    }
}

/// Plans separation constraints that are consistent with a circuit's
/// symmetry, alignment and ordering constraints.
///
/// # Examples
///
/// ```
/// use analog_netlist::{testcases, Placement};
/// use eplace::SeparationPlanner;
///
/// let circuit = testcases::cc_ota();
/// let mut planner = SeparationPlanner::new(&circuit);
/// let stacked = Placement::new(circuit.num_devices());
/// let added = planner.extend_from(&circuit, &stacked);
/// assert!(added);
/// // Every planned edge respects the symmetry/ordering structure.
/// let (x_edges, y_edges) = (planner.x_edges(), planner.y_edges());
/// assert!(!x_edges.is_empty() || !y_edges.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SeparationPlanner {
    x: AxisPlan,
    y: AxisPlan,
    /// Mirror partner within a vertical symmetry group (selfs map to
    /// themselves), used for x-edge propagation.
    v_mirror: Vec<Option<DeviceId>>,
    /// Group id of each device in a vertical group.
    v_group: Vec<Option<usize>>,
    /// Same for horizontal groups (y-edge propagation).
    h_mirror: Vec<Option<DeviceId>>,
    h_group: Vec<Option<usize>>,
}

impl SeparationPlanner {
    /// Builds the planner: equality clusters from the constraint set plus
    /// ordering-chain seed edges.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_devices();
        let mut x = AxisPlan::new(n);
        let mut y = AxisPlan::new(n);
        let mut v_mirror = vec![None; n];
        let mut v_group = vec![None; n];
        let mut h_mirror = vec![None; n];
        let mut h_group = vec![None; n];

        for (gi, g) in circuit.constraints().symmetry_groups.iter().enumerate() {
            match g.axis {
                Axis::Vertical => {
                    for &(a, b) in &g.pairs {
                        y.clusters.union(a.index(), b.index());
                        v_mirror[a.index()] = Some(b);
                        v_mirror[b.index()] = Some(a);
                        v_group[a.index()] = Some(gi);
                        v_group[b.index()] = Some(gi);
                    }
                    let mut prev: Option<DeviceId> = None;
                    for &s in &g.self_symmetric {
                        v_mirror[s.index()] = Some(s);
                        v_group[s.index()] = Some(gi);
                        // Self-symmetric devices share x (= the axis).
                        if let Some(p) = prev {
                            x.clusters.union(p.index(), s.index());
                        }
                        prev = Some(s);
                    }
                }
                Axis::Horizontal => {
                    for &(a, b) in &g.pairs {
                        x.clusters.union(a.index(), b.index());
                        h_mirror[a.index()] = Some(b);
                        h_mirror[b.index()] = Some(a);
                        h_group[a.index()] = Some(gi);
                        h_group[b.index()] = Some(gi);
                    }
                    let mut prev: Option<DeviceId> = None;
                    for &s in &g.self_symmetric {
                        h_mirror[s.index()] = Some(s);
                        h_group[s.index()] = Some(gi);
                        if let Some(p) = prev {
                            y.clusters.union(p.index(), s.index());
                        }
                        prev = Some(s);
                    }
                }
            }
        }
        for al in &circuit.constraints().alignments {
            match al.kind {
                AlignKind::Bottom => y.clusters.union(al.a.index(), al.b.index()),
                AlignKind::VerticalCenter => x.clusters.union(al.a.index(), al.b.index()),
            }
        }
        let mut planner = Self {
            x,
            y,
            v_mirror,
            v_group,
            h_mirror,
            h_group,
        };
        for o in &circuit.constraints().orderings {
            for w in o.devices.windows(2) {
                match o.direction {
                    OrderDirection::Horizontal => {
                        planner.add_x_edge(w[0], w[1]);
                    }
                    OrderDirection::Vertical => {
                        planner.add_y_edge(w[0], w[1]);
                    }
                }
            }
        }
        planner
    }

    /// Adds an x-edge with mirror propagation. Returns success.
    fn add_x_edge(&mut self, a: DeviceId, b: DeviceId) -> bool {
        // Mirror image first (checking feasibility of the combined add).
        let mirrored = match (self.v_group[a.index()], self.v_group[b.index()]) {
            (Some(ga), Some(gb)) if ga == gb => {
                let (ma, mb) = (
                    self.v_mirror[a.index()].unwrap_or(a),
                    self.v_mirror[b.index()].unwrap_or(b),
                );
                if (mb, ma) != (a, b) && (mb != a || ma != b) {
                    Some((mb, ma))
                } else {
                    None
                }
            }
            _ => None,
        };
        if !self.x.add_edge(a, b) {
            return false;
        }
        if let Some((ma, mb)) = mirrored {
            // The sum constraint x_a + x_a' = 2m makes the mirror edge a
            // logical consequence; if it cannot be added, the primary edge
            // must not stand either (transactional).
            if !self.x.add_edge(ma, mb) {
                self.x.rollback_edge(a, b);
                return false;
            }
        }
        true
    }

    /// Adds a y-edge with mirror propagation (horizontal groups).
    fn add_y_edge(&mut self, a: DeviceId, b: DeviceId) -> bool {
        let mirrored = match (self.h_group[a.index()], self.h_group[b.index()]) {
            (Some(ga), Some(gb)) if ga == gb => {
                let (ma, mb) = (
                    self.h_mirror[a.index()].unwrap_or(a),
                    self.h_mirror[b.index()].unwrap_or(b),
                );
                if (mb, ma) != (a, b) && (mb != a || ma != b) {
                    Some((mb, ma))
                } else {
                    None
                }
            }
            _ => None,
        };
        if !self.y.add_edge(a, b) {
            return false;
        }
        if let Some((ma, mb)) = mirrored {
            if !self.y.add_edge(ma, mb) {
                self.y.rollback_edge(a, b);
                return false;
            }
        }
        true
    }

    /// Derives separations for every overlapping pair of `placement`.
    /// Returns whether any new device-level edge was recorded.
    ///
    /// Pairs are never skipped because a cluster-level path already exists:
    /// such a path guarantees separation for *some* member pair but not
    /// necessarily for this one (extents differ within a cluster), so the
    /// explicit device edge — with this pair's own gap — is recorded too.
    pub fn extend_from(&mut self, circuit: &Circuit, placement: &Placement) -> bool {
        let before = self.x.edges.len() + self.y.edges.len();
        for (a, b) in placement.overlapping_pairs(circuit, 1e-9) {
            let (xa, ya) = placement.positions[a.index()];
            let (xb, yb) = placement.positions[b.index()];
            let da = circuit.device(a);
            let db = circuit.device(b);
            let dx = (da.width + db.width) / 2.0 - (xa - xb).abs();
            let dy = (da.height + db.height) / 2.0 - (ya - yb).abs();
            let same_y_cluster = {
                let (ca, cb) = (self.y.cluster(a), self.y.cluster(b));
                ca == cb
            };
            let same_x_cluster = {
                let (ca, cb) = (self.x.cluster(a), self.x.cluster(b));
                ca == cb
            };
            let prefer_x = if same_y_cluster {
                true
            } else if same_x_cluster {
                false
            } else {
                dx < dy
            };
            if prefer_x {
                let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                let _ = self.add_x_edge(l, r) || self.add_x_edge(r, l) || {
                    let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                    self.add_y_edge(l, r) || self.add_y_edge(r, l)
                };
            } else {
                let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                let _ = self.add_y_edge(l, r) || self.add_y_edge(r, l) || {
                    let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                    self.add_x_edge(l, r) || self.add_x_edge(r, l)
                };
            }
        }
        self.x.edges.len() + self.y.edges.len() > before
    }

    /// Derives a **complete** relative-order constraint set: one edge for
    /// every device pair, using each pair's current geometric relation
    /// (the axis where they are most separated). This reproduces the
    /// ISPD'19 baseline's constraint-graph construction, which fixes the
    /// relative order of *all* pairs from global placement — more
    /// conservative than separating only overlapping pairs, and one of the
    /// reasons that method trails ePlace-A in solution quality.
    pub fn extend_all_pairs(&mut self, circuit: &Circuit, placement: &Placement) {
        let n = circuit.num_devices();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (DeviceId::new(i), DeviceId::new(j));
                let (xa, ya) = placement.positions[i];
                let (xb, yb) = placement.positions[j];
                let da = circuit.device(a);
                let db = circuit.device(b);
                // Signed overlaps: negative = already separated.
                let dx = (da.width + db.width) / 2.0 - (xa - xb).abs();
                let dy = (da.height + db.height) / 2.0 - (ya - yb).abs();
                let same_y = self.y.cluster(a) == self.y.cluster(b);
                let same_x = self.x.cluster(a) == self.x.cluster(b);
                let prefer_x = if same_y {
                    true
                } else if same_x {
                    false
                } else {
                    dx < dy
                };
                if prefer_x {
                    let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                    let _ = self.add_x_edge(l, r) || self.add_x_edge(r, l) || {
                        let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                        self.add_y_edge(l, r) || self.add_y_edge(r, l)
                    };
                } else {
                    let (l, r) = if ya <= yb { (a, b) } else { (b, a) };
                    let _ = self.add_y_edge(l, r) || self.add_y_edge(r, l) || {
                        let (l, r) = if xa <= xb { (a, b) } else { (b, a) };
                        self.add_x_edge(l, r) || self.add_x_edge(r, l)
                    };
                }
            }
        }
    }

    /// The planned x separations (`a` left of `b`).
    pub fn x_edges(&self) -> &[SepEdge] {
        &self.x.edges
    }

    /// The planned y separations (`a` below `b`).
    pub fn y_edges(&self) -> &[SepEdge] {
        &self.y.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn planner_never_y_separates_mirrored_pairs() {
        let c = testcases::cc_ota();
        let mut planner = SeparationPlanner::new(&c);
        let stacked = Placement::new(c.num_devices());
        planner.extend_from(&c, &stacked);
        for g in &c.constraints().symmetry_groups {
            for &(a, b) in &g.pairs {
                for &(u, v) in planner.y_edges() {
                    assert!(
                        !((u == a && v == b) || (u == b && v == a)),
                        "mirrored pair {}-{} got a y separation",
                        c.device(a).name,
                        c.device(b).name
                    );
                }
            }
        }
    }

    #[test]
    fn ordering_edges_are_seeded_and_respected() {
        let c = testcases::cm_ota1();
        let mut planner = SeparationPlanner::new(&c);
        // Ordering chain p1o, p1d, p2d, p2o must appear as x edges.
        let order = &c.constraints().orderings[0];
        for w in order.devices.windows(2) {
            assert!(
                planner.x_edges().contains(&(w[0], w[1])),
                "ordering edge missing"
            );
        }
        // No placement can make the planner contradict the chain.
        let stacked = Placement::new(c.num_devices());
        planner.extend_from(&c, &stacked);
        for w in order.devices.windows(2) {
            assert!(!planner.x_edges().contains(&(w[1], w[0])));
        }
    }

    #[test]
    fn x_edges_between_group_members_propagate_mirrors() {
        let c = testcases::cc_ota();
        let mut planner = SeparationPlanner::new(&c);
        // Find two pairs of the "core" group.
        let g = &c.constraints().symmetry_groups[0];
        let (a1, b1) = g.pairs[0];
        let (a2, b2) = g.pairs[1];
        let mut p = Placement::new(c.num_devices());
        // Overlap a1 with a2 horizontally offset so an x-sep is chosen.
        p.positions[a1.index()] = (0.0, 0.0);
        p.positions[a2.index()] = (0.4, 0.0);
        // Move everything else far away.
        for i in 0..c.num_devices() {
            let id = analog_netlist::DeviceId::new(i);
            if id != a1 && id != a2 {
                p.positions[i] = (100.0 + 10.0 * i as f64, 100.0);
            }
        }
        planner.extend_from(&c, &p);
        let has = |edges: &[SepEdge], e: SepEdge| edges.contains(&e);
        if has(planner.x_edges(), (a1, a2)) {
            assert!(
                has(planner.x_edges(), (b2, b1)),
                "mirror edge b2->b1 missing"
            );
        }
    }

    #[test]
    fn repeated_extension_reaches_fixpoint() {
        let c = testcases::comp2();
        let mut planner = SeparationPlanner::new(&c);
        let stacked = Placement::new(c.num_devices());
        let mut rounds = 0;
        while planner.extend_from(&c, &stacked) {
            rounds += 1;
            assert!(rounds < 20, "planner did not reach a fixpoint");
        }
        // After the fixpoint every overlapping pair is separated or tied in
        // both axes (which would be a modelling error in the testcase).
        let mut p2 = planner.clone();
        for (a, b) in stacked.overlapping_pairs(&c, 1e-9) {
            assert!(
                p2.x.separated(a, b) || p2.y.separated(a, b),
                "{} / {} unseparated",
                c.device(a).name,
                c.device(b).name
            );
        }
    }
}
