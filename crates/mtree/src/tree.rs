//! The M-tree proper: construction, insertion with recursive splitting,
//! leaf chaining, and node-access plus distance-computation accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use disc_metric::{Dataset, ObjId};
use rand::{rngs::StdRng, SeedableRng};

use crate::node::{LeafEntry, Node, NodeId, NodeKind};
use crate::split::{split_entries, SplitPolicy};

/// An atomic counter padded to its own cache line, so the access and
/// distance counters don't false-share under the parallel seeding
/// fan-out. (True contention on one counter remains; per-thread
/// sharding is a noted follow-up if profiles show it mattering.)
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicU64);

/// Construction parameters (paper Table 2: capacity 50, MinOverlap policy).
#[derive(Clone, Copy, Debug)]
pub struct MTreeConfig {
    /// Maximum number of entries per node before it splits.
    pub capacity: usize,
    /// Splitting policy.
    pub split_policy: SplitPolicy,
    /// Seed for the random promotion policy (ignored by the deterministic
    /// policies).
    pub seed: u64,
    /// Whether queries apply the classic M-tree parent-distance lemma:
    /// a child (or leaf entry) whose cached distance to its parent pivot
    /// already proves it outside the query ball is skipped *without*
    /// computing its own distance. Never changes results; disable only to
    /// measure the saving.
    pub parent_pruning: bool,
}

impl Default for MTreeConfig {
    fn default() -> Self {
        Self {
            capacity: 50,
            split_policy: SplitPolicy::MIN_OVERLAP,
            seed: 0,
            parent_pruning: true,
        }
    }
}

impl MTreeConfig {
    /// Config with a specific node capacity, otherwise defaults.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Config with a specific splitting policy, otherwise defaults.
    pub fn with_policy(split_policy: SplitPolicy) -> Self {
        Self {
            split_policy,
            ..Self::default()
        }
    }

    /// Same config with parent-distance pruning switched on or off.
    pub fn with_parent_pruning(self, parent_pruning: bool) -> Self {
        Self {
            parent_pruning,
            ..self
        }
    }
}

/// A balanced metric tree over a [`Dataset`].
///
/// The tree borrows the dataset; objects are addressed by [`ObjId`].
pub struct MTree<'a> {
    data: &'a Dataset,
    config: MTreeConfig,
    nodes: Vec<Node>,
    root: NodeId,
    height: usize,
    /// Leaf currently holding each object, indexed by object id. For
    /// range-built trees ([`MTree::build_range`]) slots below the range
    /// start stay unused.
    obj_leaf: Vec<NodeId>,
    /// Number of objects actually indexed (`range.len()` of the
    /// build).
    indexed: usize,
    /// Node accesses (the paper's cost metric). Atomic (relaxed) so
    /// read-only queries can account their cost, including from the
    /// parallel seeding fan-out in `disc-core`.
    accesses: PaddedCounter,
    /// Distance computations performed through the tree (insertions and
    /// queries). The paper counts node accesses; wall-clock time is
    /// dominated by distance computations, and this counter makes the
    /// parent-distance-pruning saving observable. Distances evaluated
    /// inside the split policies are not routed through the tree and stay
    /// uncounted (they are a one-off construction cost).
    dist_comps: PaddedCounter,
    rng: StdRng,
}

impl<'a> MTree<'a> {
    /// Builds a tree by inserting every object of `data` in id order.
    pub fn build(data: &'a Dataset, config: MTreeConfig) -> Self {
        Self::build_range(data, config, 0..data.len())
    }

    /// Builds a tree over only the contiguous id range `range` of
    /// `data` — the sharded-build entry point: each spatial shard of a
    /// [renumbered](disc_metric::Dataset::renumbered) dataset is a
    /// contiguous id range, and a range tree indexes exactly those
    /// objects under their *global* ids, so intra-shard self-joins and
    /// cross-shard joins emit edges directly in the global numbering
    /// (and all cross-tree distances read the one shared dataset).
    /// Objects are inserted in id order.
    pub fn build_range(
        data: &'a Dataset,
        config: MTreeConfig,
        range: std::ops::Range<usize>,
    ) -> Self {
        assert!(config.capacity >= 2, "node capacity must be at least 2");
        assert!(
            range.start < range.end && range.end <= data.len(),
            "range {range:?} must be non-empty and within 0..{}",
            data.len()
        );
        let root = 0;
        let mut tree = Self {
            data,
            config,
            nodes: vec![Node::new_leaf(None, None)],
            root,
            height: 1,
            obj_leaf: vec![usize::MAX; range.end],
            indexed: range.len(),
            accesses: PaddedCounter::default(),
            dist_comps: PaddedCounter::default(),
            rng: StdRng::seed_from_u64(config.seed),
        };
        for id in range {
            tree.insert(id);
        }
        tree
    }

    /// The dataset this tree indexes.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Construction parameters.
    pub fn config(&self) -> &MTreeConfig {
        &self.config
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.indexed
    }

    /// Whether the tree indexes no objects.
    pub fn is_empty(&self) -> bool {
        self.indexed == 0
    }

    /// Number of nodes (`m` in the fat-factor formula).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree in levels (`h` in the fat-factor formula);
    /// a single root leaf has height 1.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Leaf currently holding `object`.
    pub fn leaf_of(&self, object: ObjId) -> NodeId {
        self.obj_leaf[object]
    }

    /// Total node accesses so far.
    pub fn node_accesses(&self) -> u64 {
        self.accesses.0.load(Ordering::Relaxed)
    }

    /// Resets the access counter (e.g. after the build phase) and returns
    /// the previous value.
    pub fn reset_node_accesses(&self) -> u64 {
        self.accesses.0.swap(0, Ordering::Relaxed)
    }

    /// Total distance computations performed through the tree so far.
    pub fn distance_computations(&self) -> u64 {
        self.dist_comps.0.load(Ordering::Relaxed)
    }

    /// Resets the distance-computation counter and returns the previous
    /// value.
    pub fn reset_distance_computations(&self) -> u64 {
        self.dist_comps.0.swap(0, Ordering::Relaxed)
    }

    /// Records one node access. Exposed to query code in this crate.
    #[inline]
    pub(crate) fn touch(&self) {
        self.accesses.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Distance from indexed object `obj` to the query coordinates,
    /// charged to the distance-computation counter. Every distance the
    /// tree evaluates goes through here (or [`MTree::dist_objs`]).
    #[inline]
    pub(crate) fn dist_q(&self, obj: ObjId, q: &[f64]) -> f64 {
        self.dist_comps.0.fetch_add(1, Ordering::Relaxed);
        self.data.dist_to_coords(obj, q)
    }

    /// Counted distance between two indexed objects.
    #[inline]
    pub(crate) fn dist_objs(&self, a: ObjId, b: ObjId) -> f64 {
        self.dist_comps.0.fetch_add(1, Ordering::Relaxed);
        self.data.dist(a, b)
    }

    /// Records one node access on behalf of an algorithm that reads a node
    /// directly (e.g. the leaf pass of Basic-DisC scanning a leaf page).
    #[inline]
    pub fn charge_access(&self) {
        self.touch();
    }

    /// Adds `n` node accesses in one bulk charge. The self-join workers
    /// count locally and flush here once per worker, so the global total
    /// stays exact without per-access atomic traffic.
    #[inline]
    pub(crate) fn charge_accesses_bulk(&self, n: u64) {
        self.accesses.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` distance computations in one bulk charge (see
    /// [`MTree::charge_accesses_bulk`]).
    #[inline]
    pub(crate) fn charge_distances_bulk(&self, n: u64) {
        self.dist_comps.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Iterator over leaf node ids in chain order. Node 0, the build's
    /// first leaf, heads the chain for good: a split keeps the left half
    /// in the split node and links the new leaf after it.
    pub fn leaves(&self) -> LeafIter<'_, 'a> {
        LeafIter {
            tree: self,
            next: Some(0),
        }
    }

    /// Objects in leaf order without charging node accesses (for tests and
    /// result presentation).
    pub fn objects_in_leaf_order_uncounted(&self) -> Vec<ObjId> {
        self.leaves()
            .flat_map(|leaf| self.nodes[leaf].leaf_entries().iter().map(|e| e.object))
            .collect()
    }

    /// The same tree re-addressed against a renumbered copy of its
    /// dataset: new id `i` is this tree's id `order[i]` (the contract of
    /// `Dataset::renumbered(order)`). Structure, covering radii, cached
    /// distances and SoA lanes are carried over untouched — only the
    /// stored object ids are rewritten, an O(n + nodes) relabel instead
    /// of a rebuild — so queries and self-joins on the relabeled tree
    /// traverse identically and emit edges in the new numbering. Counter
    /// totals carry over as starting values.
    ///
    /// When `order` is this tree's own leaf order
    /// ([`MTree::objects_in_leaf_order_uncounted`]), the relabeled
    /// tree's leaf order is exactly `0..n` — the locality-aware
    /// numbering whose self-join edges land in near-contiguous CSR rows.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..len()` or `data`
    /// has a different length; debug builds additionally verify that
    /// `data.row(i)` holds the coordinates of old object `order[i]`.
    pub fn relabeled<'b>(&self, data: &'b Dataset, order: &[ObjId]) -> MTree<'b> {
        assert_eq!(data.len(), self.len(), "relabeled dataset must match");
        assert_eq!(order.len(), self.len(), "order must cover every object");
        let mut old_to_new = vec![usize::MAX; order.len()];
        for (new, &old) in order.iter().enumerate() {
            assert!(
                old < order.len() && old_to_new[old] == usize::MAX,
                "order is not a permutation of 0..{}",
                order.len()
            );
            old_to_new[old] = new;
        }
        #[cfg(debug_assertions)]
        for (new, &old) in order.iter().enumerate() {
            debug_assert_eq!(
                data.row(new),
                self.data.row(old),
                "row {new} of the relabeled dataset must hold old object {old}"
            );
        }
        let map = |o: ObjId| old_to_new[o];
        let nodes: Vec<Node> = self
            .nodes
            .iter()
            .map(|n| Node {
                pivot: n.pivot.map(map),
                radius: n.radius,
                vantage: n.vantage.map(map),
                vantage2: n.vantage2.map(map),
                dist_to_parent: n.dist_to_parent,
                parent: n.parent,
                next_leaf: n.next_leaf,
                lanes: n.lanes.clone(),
                kind: match &n.kind {
                    NodeKind::Internal(children) => NodeKind::Internal(children.clone()),
                    NodeKind::Leaf(entries) => NodeKind::Leaf(
                        entries
                            .iter()
                            .map(|e| LeafEntry {
                                object: map(e.object),
                                ..*e
                            })
                            .collect(),
                    ),
                },
            })
            .collect();
        let mut obj_leaf = vec![usize::MAX; self.obj_leaf.len()];
        for (old, &leaf) in self.obj_leaf.iter().enumerate() {
            obj_leaf[old_to_new[old]] = leaf;
        }
        MTree {
            data,
            config: self.config,
            nodes,
            root: self.root,
            height: self.height,
            obj_leaf,
            indexed: self.indexed,
            accesses: PaddedCounter(AtomicU64::new(self.node_accesses())),
            dist_comps: PaddedCounter(AtomicU64::new(self.distance_computations())),
            rng: StdRng::seed_from_u64(self.config.seed),
        }
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts `object` (already present in the dataset) into the tree.
    fn insert(&mut self, object: ObjId) {
        let point = self.data.row(object);
        // Descend to the best leaf, enlarging covering radii on the way.
        let mut node = self.root;
        loop {
            self.touch();
            match &self.nodes[node].kind {
                NodeKind::Leaf(_) => break,
                NodeKind::Internal(children) => {
                    let next = self.choose_child(children, point);
                    let d = self.dist_to_pivot(next, point);
                    let child = &mut self.nodes[next];
                    if d > child.radius {
                        child.radius = d;
                    }
                    node = next;
                }
            }
        }
        let d_pivot = self.dist_to_pivot(node, point);
        // The first entry of a leaf becomes its vantage, the second its
        // second vantage; later entries cache their distances to the
        // established references.
        let d_vantage = match self.nodes[node].vantage {
            Some(v) => self.dist_q(v, point),
            None => {
                self.nodes[node].vantage = Some(object);
                0.0
            }
        };
        let d_vantage2 = match self.nodes[node].vantage2 {
            Some(v) => self.dist_q(v, point),
            None if self.nodes[node].vantage != Some(object) => {
                // `object` becomes the second vantage: refresh the cached
                // vantage2 distances of the entries already present, so
                // the exactness invariant the scan filter relies on holds
                // even before the leaf's first split rewrites it.
                self.nodes[node].vantage2 = Some(object);
                let existing: Vec<ObjId> = self.nodes[node]
                    .leaf_entries()
                    .iter()
                    .map(|e| e.object)
                    .collect();
                let dists: Vec<f64> = existing
                    .iter()
                    .map(|&o| self.dist_objs(o, object))
                    .collect();
                match &mut self.nodes[node].kind {
                    NodeKind::Leaf(entries) => {
                        for (e, d) in entries.iter_mut().zip(dists) {
                            e.dist_to_vantage2 = d;
                        }
                    }
                    NodeKind::Internal(_) => unreachable!("descent ends at a leaf"),
                }
                0.0
            }
            None => 0.0,
        };
        {
            let leaf = &mut self.nodes[node];
            if d_pivot > leaf.radius {
                leaf.radius = d_pivot;
            }
            match &mut leaf.kind {
                NodeKind::Leaf(entries) => entries.push(LeafEntry {
                    object,
                    dist_to_pivot: d_pivot,
                    dist_to_vantage: d_vantage,
                    dist_to_vantage2: d_vantage2,
                }),
                NodeKind::Internal(_) => unreachable!("descent ends at a leaf"),
            }
        }
        self.obj_leaf[object] = node;
        self.rebuild_leaf_lanes(node);
        if self.nodes[node].len() > self.config.capacity {
            self.split(node);
        }
    }

    /// Rewrites `leaf`'s blocked SoA coordinate lanes from its current
    /// entry list (see [`Node::lanes`]): lane `d` of a `k`-entry leaf is
    /// `lanes[d * k..(d + 1) * k]`, entry order preserved. Called after
    /// every leaf mutation so the block never goes stale; O(dim · k)
    /// copies, negligible next to the distance work of the mutation
    /// itself.
    fn rebuild_leaf_lanes(&mut self, leaf: NodeId) {
        let data = self.data;
        let dim = data.dim();
        let node = &mut self.nodes[leaf];
        let NodeKind::Leaf(entries) = &node.kind else {
            unreachable!("rebuild_leaf_lanes on internal node");
        };
        let k = entries.len();
        node.lanes.clear();
        node.lanes.resize(dim * k, 0.0);
        for (i, e) in entries.iter().enumerate() {
            for (d, &c) in data.row(e.object).iter().enumerate() {
                node.lanes[d * k + i] = c;
            }
        }
    }

    /// Picks the child to descend into: prefer a child whose ball already
    /// contains the point (smallest distance); otherwise the child needing
    /// the least radius enlargement.
    fn choose_child(&self, children: &[NodeId], point: &[f64]) -> NodeId {
        let mut best_inside: Option<(f64, NodeId)> = None;
        let mut best_enlarge: Option<(f64, NodeId)> = None;
        for &c in children {
            let node = &self.nodes[c];
            let pivot = node.pivot_id();
            let d = self.dist_q(pivot, point);
            if d <= node.radius {
                if best_inside.is_none_or(|(bd, _)| d < bd) {
                    best_inside = Some((d, c));
                }
            } else {
                let enlarge = d - node.radius;
                if best_enlarge.is_none_or(|(be, _)| enlarge < be) {
                    best_enlarge = Some((enlarge, c));
                }
            }
        }
        match best_inside.or(best_enlarge) {
            Some((_, c)) => c,
            None => unreachable!("internal node has at least one child"),
        }
    }

    /// Distance from `point` to the pivot of `node` (0 if the node has no
    /// pivot, i.e. is the root).
    fn dist_to_pivot(&self, node: NodeId, point: &[f64]) -> f64 {
        match self.nodes[node].pivot {
            Some(p) => self.dist_q(p, point),
            None => 0.0,
        }
    }

    // ------------------------------------------------------------------
    // Splitting
    // ------------------------------------------------------------------

    /// Splits the overflowed `node`, recursing up the tree as needed.
    fn split(&mut self, node: NodeId) {
        // Representative object of each entry: the stored object for leaf
        // entries, the child pivot for internal entries.
        let reps: Vec<ObjId> = match &self.nodes[node].kind {
            NodeKind::Leaf(entries) => entries.iter().map(|e| e.object).collect(),
            NodeKind::Internal(children) => {
                children.iter().map(|&c| self.nodes[c].pivot_id()).collect()
            }
        };
        let outcome = split_entries(
            self.data,
            &reps,
            self.nodes[node].pivot,
            self.config.split_policy,
            &mut self.rng,
        );

        // Two accesses: the reused node and its new sibling are rewritten.
        self.touch();
        self.touch();

        let new_id = self.nodes.len();
        let parent = self.nodes[node].parent;
        let is_leaf = self.nodes[node].is_leaf();

        // Distribute entries.
        match std::mem::replace(
            &mut self.nodes[node].kind,
            if is_leaf {
                NodeKind::Leaf(Vec::new())
            } else {
                NodeKind::Internal(Vec::new())
            },
        ) {
            NodeKind::Leaf(entries) => {
                let pick =
                    |idx: &[usize]| -> Vec<LeafEntry> { idx.iter().map(|&i| entries[i]).collect() };
                let e1 = pick(&outcome.side1);
                let e2 = pick(&outcome.side2);
                self.nodes
                    .push(Node::new_leaf(Some(outcome.pivot2), parent));
                for e in &e2 {
                    self.obj_leaf[e.object] = new_id;
                }
                self.install_leaf(node, outcome.pivot1, e1);
                self.install_leaf(new_id, outcome.pivot2, e2);
                // Chain the new leaf right after the reused one.
                let next = self.nodes[node].next_leaf;
                self.nodes[node].next_leaf = Some(new_id);
                self.nodes[new_id].next_leaf = next;
            }
            NodeKind::Internal(children) => {
                let pick =
                    |idx: &[usize]| -> Vec<NodeId> { idx.iter().map(|&i| children[i]).collect() };
                let c1 = pick(&outcome.side1);
                let c2 = pick(&outcome.side2);
                self.nodes
                    .push(Node::new_internal(Some(outcome.pivot2), parent, Vec::new()));
                for &c in &c2 {
                    self.nodes[c].parent = Some(new_id);
                }
                self.install_internal(node, outcome.pivot1, c1);
                self.install_internal(new_id, outcome.pivot2, c2);
            }
        }

        match parent {
            Some(p) => {
                // Register the sibling with the parent and refresh the
                // cached parent distances of both halves.
                self.touch();
                match &mut self.nodes[p].kind {
                    NodeKind::Internal(children) => children.push(new_id),
                    NodeKind::Leaf(_) => unreachable!("parents are internal"),
                }
                self.refresh_dist_to_parent(node);
                self.refresh_dist_to_parent(new_id);
                // The parent's covering radius still bounds every object in
                // its subtree (the object set did not change), so no
                // enlargement is needed.
                if self.nodes[p].len() > self.config.capacity {
                    self.split(p);
                }
            }
            None => {
                // The root split: grow a new root above the two halves.
                let new_root = self.nodes.len();
                self.nodes
                    .push(Node::new_internal(None, None, vec![node, new_id]));
                self.touch();
                self.nodes[node].parent = Some(new_root);
                self.nodes[new_id].parent = Some(new_root);
                self.nodes[node].dist_to_parent = 0.0;
                self.nodes[new_id].dist_to_parent = 0.0;
                self.root = new_root;
                self.height += 1;
            }
        }
    }

    /// Rewrites a leaf node's pivot and entries, recomputing cached
    /// distances (pivot and vantage) and the covering radius. The vantage
    /// is re-chosen as the entry farthest from the new pivot, so the two
    /// reference annuli used by the scan filter cross at a steep angle.
    fn install_leaf(&mut self, id: NodeId, pivot: ObjId, mut entries: Vec<LeafEntry>) {
        let mut radius = 0.0f64;
        let mut vantage = pivot;
        for e in &mut entries {
            e.dist_to_pivot = self.dist_objs(e.object, pivot);
            if e.dist_to_pivot > radius {
                radius = e.dist_to_pivot;
                vantage = e.object;
            }
        }
        // Second vantage: the entry farthest from the first, i.e. roughly
        // the other end of the leaf's diameter.
        let mut vantage2 = vantage;
        let mut far2 = -1.0f64;
        for e in &mut entries {
            e.dist_to_vantage = self.dist_objs(e.object, vantage);
            if e.dist_to_vantage > far2 {
                far2 = e.dist_to_vantage;
                vantage2 = e.object;
            }
        }
        for e in &mut entries {
            e.dist_to_vantage2 = self.dist_objs(e.object, vantage2);
        }
        let node = &mut self.nodes[id];
        node.pivot = Some(pivot);
        node.radius = radius;
        node.vantage = (!entries.is_empty()).then_some(vantage);
        node.vantage2 = (!entries.is_empty()).then_some(vantage2);
        node.kind = NodeKind::Leaf(entries);
        self.rebuild_leaf_lanes(id);
    }

    /// Rewrites an internal node's pivot and children, recomputing the
    /// children's cached parent distances and the covering radius.
    fn install_internal(&mut self, id: NodeId, pivot: ObjId, children: Vec<NodeId>) {
        let mut radius = 0.0f64;
        for &c in &children {
            let child_pivot = self.nodes[c].pivot_id();
            let d = self.dist_objs(child_pivot, pivot);
            self.nodes[c].dist_to_parent = d;
            radius = radius.max(d + self.nodes[c].radius);
        }
        let node = &mut self.nodes[id];
        node.pivot = Some(pivot);
        node.radius = radius;
        node.kind = NodeKind::Internal(children);
    }

    /// Refreshes `dist_to_parent` of `node` against its parent's pivot.
    fn refresh_dist_to_parent(&mut self, node: NodeId) {
        let Some(parent) = self.nodes[node].parent else {
            unreachable!("called on non-root")
        };
        let d = match (self.nodes[parent].pivot, self.nodes[node].pivot) {
            (Some(pp), Some(np)) => self.dist_objs(np, pp),
            _ => 0.0,
        };
        self.nodes[node].dist_to_parent = d;
    }
}

/// Iterator over leaf ids following the leaf chain.
pub struct LeafIter<'t, 'a> {
    tree: &'t MTree<'a>,
    next: Option<NodeId>,
}

impl Iterator for LeafIter<'_, '_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.tree.nodes[id].next_leaf;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_invariants;
    use disc_metric::{Metric, Point};
    use rand::RngExt as _;

    fn grid(n_side: usize) -> Dataset {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point::new2(
                    i as f64 / n_side as f64,
                    j as f64 / n_side as f64,
                ));
            }
        }
        Dataset::new("grid", Metric::Euclidean, pts)
    }

    fn random_points(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        Dataset::new("random", Metric::Euclidean, pts)
    }

    #[test]
    fn single_object_tree() {
        let data = Dataset::new("one", Metric::Euclidean, vec![Point::new2(0.5, 0.5)]);
        let tree = MTree::build(&data, MTreeConfig::default());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.leaf_of(0), tree.root());
        check_invariants(&tree).unwrap();
    }

    #[test]
    fn splits_produce_multiple_levels() {
        let data = grid(10); // 100 objects
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        assert!(tree.height() >= 3, "height {}", tree.height());
        assert!(tree.node_count() > 25);
        check_invariants(&tree).unwrap();
    }

    #[test]
    fn all_objects_reachable_via_leaf_chain() {
        let data = random_points(300, 1);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let mut seen = tree.objects_in_leaf_order_uncounted();
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
        check_invariants(&tree).unwrap();
    }

    #[test]
    fn obj_leaf_mapping_is_consistent() {
        let data = random_points(150, 2);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
        for id in data.ids() {
            let leaf = tree.leaf_of(id);
            assert!(
                tree.node(leaf)
                    .leaf_entries()
                    .iter()
                    .any(|e| e.object == id),
                "object {id} not found in its registered leaf"
            );
        }
    }

    #[test]
    fn build_counts_node_accesses() {
        let data = random_points(100, 3);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        assert!(tree.node_accesses() >= 100, "at least one per insert");
        let before = tree.node_accesses();
        assert_eq!(tree.reset_node_accesses(), before);
        assert_eq!(tree.node_accesses(), 0);
    }

    #[test]
    fn all_split_policies_build_valid_trees() {
        let data = random_points(200, 5);
        for (name, policy) in SplitPolicy::figure10_policies() {
            let tree = MTree::build(
                &data,
                MTreeConfig {
                    capacity: 6,
                    split_policy: policy,
                    seed: 11,
                    ..MTreeConfig::default()
                },
            );
            check_invariants(&tree).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn identical_seeds_build_identical_random_trees() {
        let data = random_points(120, 6);
        let cfg = MTreeConfig {
            capacity: 5,
            split_policy: SplitPolicy::RANDOM,
            seed: 99,
            ..MTreeConfig::default()
        };
        let a = MTree::build(&data, cfg);
        let b = MTree::build(&data, cfg);
        assert_eq!(
            a.objects_in_leaf_order_uncounted(),
            b.objects_in_leaf_order_uncounted()
        );
        assert_eq!(a.node_count(), b.node_count());
    }

    #[test]
    fn leaf_order_relabel_is_structure_transparent() {
        let data = random_points(300, 9);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let order = tree.objects_in_leaf_order_uncounted();
        let data2 = data.renumbered(&order);
        let tree2 = tree.relabeled(&data2, &order);
        // Relabeling by the tree's own leaf order makes the new leaf
        // order the identity, preserves the structure and the counter
        // totals, and keeps every invariant (cached distances are
        // checked against the renumbered dataset's rows).
        assert_eq!(
            tree2.objects_in_leaf_order_uncounted(),
            (0..300).collect::<Vec<_>>()
        );
        assert_eq!(tree2.node_count(), tree.node_count());
        assert_eq!(tree2.height(), tree.height());
        assert_eq!(tree2.node_accesses(), tree.node_accesses());
        assert_eq!(tree2.distance_computations(), tree.distance_computations());
        check_invariants(&tree2).unwrap();

        // Self-join edges are the original's, relabeled: comparing in
        // the original numbering, the edge multisets must coincide with
        // bit-identical distances.
        let relabel = |edges: Vec<(ObjId, ObjId, f64)>, ext: &dyn Fn(ObjId) -> ObjId| {
            let mut out: Vec<(ObjId, ObjId, u64)> = edges
                .into_iter()
                .map(|(a, b, d)| {
                    let (a, b) = (ext(a), ext(b));
                    (a.min(b), a.max(b), d.to_bits())
                })
                .collect();
            out.sort_unstable();
            out
        };
        let want = relabel(tree.range_self_join_dist(0.1), &|o| o);
        let got = relabel(tree2.range_self_join_dist(0.1), &|o| data2.external_id(o));
        assert_eq!(got, want);
    }

    #[test]
    fn hamming_metric_tree_is_valid() {
        let mut rng = StdRng::seed_from_u64(8);
        let pts = (0..120)
            .map(|_| {
                Point::categorical(&[
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                ])
            })
            .collect();
        let data = Dataset::new("cat", Metric::Hamming, pts);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        check_invariants(&tree).unwrap();
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 2")]
    fn rejects_capacity_below_two() {
        let data = grid(2);
        let _ = MTree::build(
            &data,
            MTreeConfig {
                capacity: 1,
                ..MTreeConfig::default()
            },
        );
    }
}
