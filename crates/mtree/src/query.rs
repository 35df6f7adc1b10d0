//! Range and point queries over the M-tree, with node-access and
//! distance-computation accounting and the paper's colour-based pruning.
//!
//! * [`MTree::range_query`] — top-down `Q(q, r)`: every object within
//!   distance `r` of the query coordinates `q`. With `colors`, it skips
//!   *grey* subtrees (the Pruning Rule of Section 5: a subtree with no
//!   white objects cannot contribute anything a colouring pass still
//!   needs).
//! * [`MTree::range_query_bottom_up`] — starts at the leaf holding the
//!   query object and climbs towards the root, exploring intersecting
//!   sibling subtrees on the way. With `stop_at_grey`, the climb aborts at
//!   the first grey ancestor — the Fast-C behaviour, which may miss
//!   neighbours in distant leaves (by design).
//! * [`MTree::point_query_accesses`] — exact-match search used by the
//!   fat-factor computation.
//!
//! ## Parent-distance pruning
//!
//! Every query additionally applies the classic M-tree lemma (Ciaccia,
//! Patella & Zezula, Lemma 1 of the original paper) when
//! [`MTreeConfig::parent_pruning`](crate::MTreeConfig) is set (the
//! default): while scanning the entries of a node whose pivot `p` is at
//! known distance `d(q, p)` from the query, an entry with cached parent
//! distance `d(e, p)` satisfies `d(q, e) ≥ |d(q, p) − d(e, p)|` by the
//! triangle inequality — so whenever `|d(q, p) − d(e, p)| > r + radius(e)`
//! the entry (child subtree or leaf object) is discarded *without
//! computing `d(q, e)`*. Hit sets are identical with the lemma on or off;
//! only [`MTree::distance_computations`] changes.
//!
//! ## Scratch buffers
//!
//! Both queries clear and fill a caller-owned [`RangeSink`]. The DisC
//! seeding loops issue one range query per object; reusing one buffer
//! across the whole loop removes the per-query allocation.

use disc_metric::ObjId;

use crate::color::ColorState;
use crate::node::{NodeId, NodeKind};
use crate::tree::MTree;

/// One range-query result: an object and its distance from the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeHit {
    /// The object found within the query ball.
    pub object: ObjId,
    /// Its distance from the query point.
    pub dist: f64,
}

/// Where a range query deposits its results. Two collectors exist:
/// `Vec<RangeHit>` (objects + exact distances) and `Vec<ObjId>`
/// (objects only). The object-only collector additionally unlocks the
/// *inclusion* shortcuts: an entry whose cached reference distances
/// prove `d(q, e) ≤ r` is accepted without computing `d(q, e)`, and a
/// child ball entirely inside the query ball is enumerated with no
/// distance computations at all. The DisC seeding and grey-update loops
/// only ever consume hit objects, so they ride the cheap path.
pub trait RangeSink {
    /// Whether exact distances must be materialised (disables the
    /// inclusion shortcuts).
    const NEEDS_DIST: bool;

    /// Accepts one in-ball object. `dist` is exact when
    /// [`RangeSink::NEEDS_DIST`] is true, otherwise an upper bound.
    fn accept(&mut self, object: ObjId, dist: f64);

    /// Empties the collector; every query calls it first.
    fn clear(&mut self);
}

impl RangeSink for Vec<RangeHit> {
    const NEEDS_DIST: bool = true;

    #[inline]
    fn accept(&mut self, object: ObjId, dist: f64) {
        self.push(RangeHit { object, dist });
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

impl RangeSink for Vec<ObjId> {
    const NEEDS_DIST: bool = false;

    #[inline]
    fn accept(&mut self, object: ObjId, _dist: f64) {
        self.push(object);
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

impl MTree<'_> {
    /// Top-down range query `Q(q, r)`: clears `hits`, then deposits
    /// every indexed object within distance `r` of the query
    /// coordinates `q`, in tree order (deterministic for a given tree).
    /// Pass `self.data().row(id)` to query around an indexed object; the
    /// object itself is then a hit.
    ///
    /// With `colors`, grey subtrees (no white objects) are skipped: the
    /// paper's Pruning Rule. Objects inside visited leaves are returned
    /// regardless of their own colour; only whole-subtree pruning
    /// applies.
    pub fn range_query<S: RangeSink>(
        &self,
        q: &[f64],
        r: f64,
        colors: Option<&ColorState>,
        hits: &mut S,
    ) {
        hits.clear();
        // The root has no pivot, so no query-to-pivot distance is known
        // on entry.
        self.search_subtree(self.root(), q, r, None, colors, hits);
    }

    /// Bottom-up range query around the indexed object `center`: clears
    /// `hits`, then starts at the leaf holding `center` and climbs
    /// ancestor by ancestor, searching every sibling subtree whose ball
    /// intersects the query ball. Visits the same objects as the
    /// top-down query.
    ///
    /// * `colors` + grey subtrees are skipped when `colors` is `Some`.
    /// * `stop_at_grey` aborts the climb at the first grey ancestor (the
    ///   Fast-C rule); this can miss neighbours whose leaves are only
    ///   reachable through that ancestor.
    pub fn range_query_bottom_up<S: RangeSink>(
        &self,
        center: ObjId,
        r: f64,
        colors: Option<&ColorState>,
        stop_at_grey: bool,
        hits: &mut S,
    ) {
        hits.clear();
        let q = self.data().row(center);
        let leaf = self.leaf_of(center);
        self.touch();
        // d(center, leaf pivot) is already cached in center's own leaf
        // entry — no distance computation needed to seed the lemma.
        let d_leaf_pivot = if self.config().parent_pruning && self.node(leaf).pivot.is_some() {
            self.node(leaf)
                .leaf_entries()
                .iter()
                .find(|e| e.object == center)
                .map(|e| e.dist_to_pivot)
        } else {
            None
        };
        self.scan_leaf_uncounted(leaf, q, r, d_leaf_pivot, hits);
        let mut prev = leaf;
        let mut cur = self.node(leaf).parent;
        while let Some(p) = cur {
            // The grey mark lives in the in-memory pruning metadata, so
            // (as with grey children in the top-down search) consulting it
            // does not charge a node access.
            if stop_at_grey {
                if let Some(c) = colors {
                    if c.node_is_grey(p) {
                        break;
                    }
                }
            }
            self.touch();
            // Distance from the query to this ancestor's pivot enables
            // the parent-distance lemma over its children.
            let d_q_pivot = match self.node(p).pivot {
                Some(pp) if self.config().parent_pruning => Some(self.dist_q(pp, q)),
                _ => None,
            };
            for &child in self.node(p).children() {
                if child == prev {
                    continue;
                }
                if let Some(c) = colors {
                    if c.node_is_grey(child) {
                        continue;
                    }
                }
                self.descend_if_intersecting(child, q, r, d_q_pivot, colors, hits);
            }
            prev = p;
            cur = self.node(p).parent;
        }
    }

    /// Node accesses needed to locate the indexed object `id` by an
    /// exact-match point query (descends every subtree whose ball contains
    /// the point). Used by the fat-factor computation; the returned count
    /// is also added to the tree's global counter.
    pub fn point_query_accesses(&self, id: ObjId) -> u64 {
        let before = self.node_accesses();
        let q = self.data().row(id);
        let parent_pruning = self.config().parent_pruning;
        // Stack entries carry the known query-to-pivot distance of the
        // node, enabling the parent-distance lemma (with r = 0).
        let mut stack: Vec<(NodeId, Option<f64>)> = vec![(self.root(), None)];
        let mut found = false;
        while let Some((node, d_q_pivot)) = stack.pop() {
            self.touch();
            match &self.node(node).kind {
                NodeKind::Leaf(entries) => {
                    if entries.iter().any(|e| e.object == id) {
                        found = true;
                    }
                }
                NodeKind::Internal(children) => {
                    for &child in children {
                        let c = self.node(child);
                        let pivot = c.pivot_id();
                        if parent_pruning {
                            if let Some(dq) = d_q_pivot {
                                if (dq - c.dist_to_parent).abs() > c.radius {
                                    continue;
                                }
                            }
                        }
                        let d = self.dist_q(pivot, q);
                        if d <= c.radius {
                            stack.push((child, Some(d)));
                        }
                    }
                }
            }
        }
        debug_assert!(found, "indexed object must be locatable");
        self.node_accesses() - before
    }

    /// Tests whether `child`'s covering ball intersects the query ball
    /// and recurses into it if so. `d_q_parent_pivot` is the known
    /// distance from the query to the pivot of `child`'s parent (`None`
    /// at the root, whose pivot does not exist, or with parent pruning
    /// disabled); it drives the parent-distance lemma. Reading the
    /// routing data stored in the parent does not charge an access for
    /// `child` itself.
    #[inline]
    fn descend_if_intersecting<S: RangeSink>(
        &self,
        child: NodeId,
        q: &[f64],
        r: f64,
        d_q_parent_pivot: Option<f64>,
        colors: Option<&ColorState>,
        hits: &mut S,
    ) {
        let c = self.node(child);
        let Some(pivot) = c.pivot else {
            // Only the root lacks a pivot, and the root is never a child.
            self.search_subtree(child, q, r, None, colors, hits);
            return;
        };
        if let Some(dq) = d_q_parent_pivot {
            // Parent-distance lemma: d(q, pivot) ≥ |d(q, p) − d(pivot, p)|.
            if (dq - c.dist_to_parent).abs() > r + c.radius {
                return;
            }
        }
        let d = self.dist_q(pivot, q);
        if !S::NEEDS_DIST && self.config().parent_pruning && d + c.radius <= r {
            // Inclusion: the whole child ball lies inside the query ball,
            // so every object below is a hit — enumerate them with zero
            // further distance computations.
            self.collect_subtree(child, d + c.radius, colors, hits);
        } else if d <= r + c.radius {
            self.search_subtree(child, q, r, Some(d), colors, hits);
        }
    }

    /// Deposits every (non-grey-pruned) object of `node`'s subtree into
    /// the sink without computing distances; `bound` is an upper bound on
    /// their distance to the query. Charges the same node accesses the
    /// ordinary search would (every page is still read).
    fn collect_subtree<S: RangeSink>(
        &self,
        node: NodeId,
        bound: f64,
        colors: Option<&ColorState>,
        hits: &mut S,
    ) {
        self.touch();
        match &self.node(node).kind {
            NodeKind::Leaf(entries) => {
                for e in entries {
                    hits.accept(e.object, bound);
                }
            }
            NodeKind::Internal(children) => {
                for &child in children {
                    if let Some(c) = colors {
                        if c.node_is_grey(child) {
                            continue;
                        }
                    }
                    self.collect_subtree(child, bound, colors, hits);
                }
            }
        }
    }

    /// Recursive top-down search of one subtree. `d_q_pivot` is the known
    /// distance from the query to this node's pivot, if any.
    fn search_subtree<S: RangeSink>(
        &self,
        node: NodeId,
        q: &[f64],
        r: f64,
        d_q_pivot: Option<f64>,
        colors: Option<&ColorState>,
        hits: &mut S,
    ) {
        self.touch();
        let lemma_dist = if self.config().parent_pruning {
            d_q_pivot
        } else {
            None
        };
        match &self.node(node).kind {
            NodeKind::Leaf(_) => {
                // Leaf already counted; scan runs on the same page.
                self.scan_leaf_uncounted(node, q, r, lemma_dist, hits);
            }
            NodeKind::Internal(children) => {
                for &child in children {
                    if let Some(c) = colors {
                        if c.node_is_grey(child) {
                            continue;
                        }
                    }
                    self.descend_if_intersecting(child, q, r, lemma_dist, colors, hits);
                }
            }
        }
    }

    /// Scans one leaf without charging an access. `d_q_pivot` (the known
    /// distance from the query to this leaf's pivot) lets the
    /// parent-distance lemma discard entries whose cached pivot distance
    /// proves them outside the ball; the leaf's vantage object provides a
    /// second, independent annulus bound for one extra distance per
    /// scanned leaf. Both filters skip the entry's own distance
    /// computation, never a true hit.
    fn scan_leaf_uncounted<S: RangeSink>(
        &self,
        leaf: NodeId,
        q: &[f64],
        r: f64,
        d_q_pivot: Option<f64>,
        hits: &mut S,
    ) {
        let node = self.node(leaf);
        let entries = node.leaf_entries();
        // The vantage bounds cost one distance each per scanned leaf;
        // they are computed lazily — only once an entry survives the
        // pivot bound — and only for leaves big enough to amortise them.
        let use_vantages = d_q_pivot.is_some() && entries.len() > 4;
        let mut d_q_vantage: Option<f64> = None;
        let mut d_q_vantage2: Option<f64> = None;
        for e in entries {
            if let Some(dq) = d_q_pivot {
                // Exclusion: the entry provably lies outside the ball.
                if (dq - e.dist_to_pivot).abs() > r {
                    continue;
                }
                // Inclusion (object-only collectors): the entry provably
                // lies inside the ball — accept it distance-free.
                if !S::NEEDS_DIST && dq + e.dist_to_pivot <= r {
                    hits.accept(e.object, dq + e.dist_to_pivot);
                    continue;
                }
            }
            if use_vantages {
                if let Some(v) = node.vantage {
                    let dv = *d_q_vantage.get_or_insert_with(|| self.dist_q(v, q));
                    if (dv - e.dist_to_vantage).abs() > r {
                        continue;
                    }
                    if !S::NEEDS_DIST && dv + e.dist_to_vantage <= r {
                        hits.accept(e.object, dv + e.dist_to_vantage);
                        continue;
                    }
                }
                if let Some(v2) = node.vantage2 {
                    let dv2 = *d_q_vantage2.get_or_insert_with(|| self.dist_q(v2, q));
                    if (dv2 - e.dist_to_vantage2).abs() > r {
                        continue;
                    }
                    if !S::NEEDS_DIST && dv2 + e.dist_to_vantage2 <= r {
                        hits.accept(e.object, dv2 + e.dist_to_vantage2);
                        continue;
                    }
                }
            }
            let d = self.dist_q(e.object, q);
            if d <= r {
                hits.accept(e.object, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::{Color, ColorState};
    use crate::tree::MTreeConfig;
    use disc_metric::{neighbors, Dataset, Metric, Point};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    fn random_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        Dataset::new("random", Metric::Euclidean, pts)
    }

    /// Random data under any of the four metrics; Hamming gets
    /// categorical codes so ties and exact matches actually occur.
    fn random_data_metric(n: usize, seed: u64, metric: Metric) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| {
                if metric == Metric::Hamming {
                    Point::categorical(&[
                        rng.random_range(0..4u32),
                        rng.random_range(0..4u32),
                        rng.random_range(0..4u32),
                        rng.random_range(0..4u32),
                    ])
                } else {
                    Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
                }
            })
            .collect();
        Dataset::new("random", metric, pts)
    }

    /// Top-down `Q(center, r)` around an indexed object, into a fresh
    /// collector.
    fn top_down<S: RangeSink + Default>(
        tree: &MTree<'_>,
        center: ObjId,
        r: f64,
        colors: Option<&ColorState>,
    ) -> S {
        let mut hits = S::default();
        tree.range_query(tree.data().row(center), r, colors, &mut hits);
        hits
    }

    /// Bottom-up `Q(center, r)` into a fresh collector.
    fn bottom_up<S: RangeSink + Default>(
        tree: &MTree<'_>,
        center: ObjId,
        r: f64,
        colors: Option<&ColorState>,
        stop_at_grey: bool,
    ) -> S {
        let mut hits = S::default();
        tree.range_query_bottom_up(center, r, colors, stop_at_grey, &mut hits);
        hits
    }

    /// Sorted hit ids of either collector.
    trait SortedIds {
        fn sorted_ids(&self) -> Vec<ObjId>;
    }

    impl SortedIds for Vec<RangeHit> {
        fn sorted_ids(&self) -> Vec<ObjId> {
            let mut ids: Vec<ObjId> = self.iter().map(|h| h.object).collect();
            ids.sort_unstable();
            ids
        }
    }

    impl SortedIds for Vec<ObjId> {
        fn sorted_ids(&self) -> Vec<ObjId> {
            let mut ids = self.clone();
            ids.sort_unstable();
            ids
        }
    }

    fn hits(tree: &MTree<'_>, center: ObjId, r: f64) -> Vec<RangeHit> {
        top_down(tree, center, r, None)
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let data = random_data(250, 10);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        for center in [0usize, 17, 120, 249] {
            for r in [0.05, 0.1, 0.3] {
                let got = hits(&tree, center, r).sorted_ids();
                let mut want = neighbors::closed_neighbors(&data, center, r);
                want.sort_unstable();
                assert_eq!(got, want, "center {center} r {r}");
            }
        }
    }

    #[test]
    fn range_query_includes_center_itself() {
        let data = random_data(50, 11);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        let hits = hits(&tree, 25, 0.2);
        assert!(hits.iter().any(|h| h.object == 25 && h.dist == 0.0));
    }

    #[test]
    fn bottom_up_equals_top_down() {
        let data = random_data(300, 12);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        for center in [3usize, 99, 250] {
            for r in [0.02, 0.15, 0.5] {
                let td = hits(&tree, center, r).sorted_ids();
                let bu = bottom_up::<Vec<RangeHit>>(&tree, center, r, None, false).sorted_ids();
                assert_eq!(td, bu, "center {center} r {r}");
            }
        }
    }

    #[test]
    fn queries_charge_node_accesses() {
        let data = random_data(200, 13);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        tree.reset_node_accesses();
        let _ = hits(&tree, 0, 0.1);
        let td = tree.reset_node_accesses();
        assert!(td >= 2, "root plus at least one leaf, got {td}");
        let _ = bottom_up::<Vec<RangeHit>>(&tree, 0, 0.1, None, false);
        let bu = tree.reset_node_accesses();
        assert!(bu >= 2);
    }

    #[test]
    fn queries_charge_distance_computations() {
        let data = random_data(200, 13);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        assert!(tree.distance_computations() > 0, "build computes distances");
        tree.reset_distance_computations();
        let hits = hits(&tree, 0, 0.1);
        let dc = tree.reset_distance_computations();
        assert!(
            dc as usize >= hits.len(),
            "every hit needs at least its own distance: {dc} < {}",
            hits.len()
        );
    }

    #[test]
    fn parent_pruning_preserves_results_and_saves_distances() {
        let data = random_data(400, 21);
        let pruned_tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let plain_tree = MTree::build(
            &data,
            MTreeConfig::with_capacity(6).with_parent_pruning(false),
        );
        // The pivot bound is free; the vantage bounds cost up to two
        // extra distances per scanned leaf, so individual non-selective
        // queries can tie or slightly lose — the sweep total must win.
        let (mut total_with, mut total_without) = (0u64, 0u64);
        for center in [0usize, 57, 200, 399] {
            for r in [0.01, 0.05, 0.2, 0.6] {
                pruned_tree.reset_distance_computations();
                let with = hits(&pruned_tree, center, r).sorted_ids();
                total_with += pruned_tree.reset_distance_computations();
                plain_tree.reset_distance_computations();
                let without = hits(&plain_tree, center, r).sorted_ids();
                total_without += plain_tree.reset_distance_computations();
                assert_eq!(with, without, "center {center} r {r}");
            }
        }
        assert!(
            total_with < total_without,
            "pruning must save distances over the sweep: {total_with} vs {total_without}"
        );
    }

    #[test]
    fn object_queries_match_hit_queries() {
        // The object-only collector takes inclusion shortcuts (accepting
        // entries and whole subtrees without computing distances); the
        // returned object sets must be identical to the distance-carrying
        // queries', and the shortcuts must actually save computations.
        let data = random_data(400, 23);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let colors = ColorState::new(&tree);
        let mut saved = false;
        for center in [0usize, 99, 250, 399] {
            for r in [0.0, 0.05, 0.2, 0.5, 1.5] {
                tree.reset_distance_computations();
                let hit_ids = hits(&tree, center, r).sorted_ids();
                let hit_dc = tree.reset_distance_computations();
                let got = top_down::<Vec<ObjId>>(&tree, center, r, None).sorted_ids();
                let obj_dc = tree.reset_distance_computations();
                assert_eq!(got, hit_ids, "top-down center {center} r {r}");
                assert!(obj_dc <= hit_dc, "object query may only be cheaper");
                saved |= obj_dc < hit_dc;

                let pruned = Some(&colors);
                assert_eq!(
                    top_down::<Vec<ObjId>>(&tree, center, r, pruned).sorted_ids(),
                    top_down::<Vec<RangeHit>>(&tree, center, r, pruned).sorted_ids(),
                    "pruned center {center} r {r}"
                );

                assert_eq!(
                    bottom_up::<Vec<ObjId>>(&tree, center, r, None, false).sorted_ids(),
                    bottom_up::<Vec<RangeHit>>(&tree, center, r, None, false).sorted_ids(),
                    "bottom-up center {center} r {r}"
                );
            }
        }
        assert!(saved, "inclusion shortcuts never saved a distance");
    }

    #[test]
    fn scratch_buffer_queries_match_allocating_queries() {
        // Both calls clear their collector first: a reused buffer still
        // holding an earlier query's hits returns exactly what a fresh
        // one does, for both collectors.
        let data = random_data(300, 22);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        let colors = ColorState::new(&tree);
        let mut hit_scratch: Vec<RangeHit> = hits(&tree, 0, 0.5);
        let mut obj_scratch: Vec<ObjId> = top_down(&tree, 0, 0.5, None);
        for center in [5usize, 150, 299] {
            for r in [0.05, 0.25] {
                for colors in [None, Some(&colors)] {
                    assert!(!hit_scratch.is_empty() && !obj_scratch.is_empty());
                    let q = data.row(center);
                    let fresh: Vec<RangeHit> = top_down(&tree, center, r, colors);
                    tree.range_query(q, r, colors, &mut hit_scratch);
                    assert_eq!(hit_scratch, fresh);
                    let fresh: Vec<ObjId> = top_down(&tree, center, r, colors);
                    tree.range_query(q, r, colors, &mut obj_scratch);
                    assert_eq!(obj_scratch, fresh);
                    let fresh: Vec<RangeHit> = bottom_up(&tree, center, r, colors, false);
                    tree.range_query_bottom_up(center, r, colors, false, &mut hit_scratch);
                    assert_eq!(hit_scratch, fresh);
                    let fresh: Vec<ObjId> = bottom_up(&tree, center, r, colors, false);
                    tree.range_query_bottom_up(center, r, colors, false, &mut obj_scratch);
                    assert_eq!(obj_scratch, fresh);
                }
            }
        }
    }

    #[test]
    fn pruned_query_skips_grey_subtrees() {
        let data = random_data(400, 14);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let mut colors = ColorState::new(&tree);
        // Make the left half of the space grey.
        for id in data.ids() {
            if data.point(id).coord(0) < 0.5 {
                colors.set_color(&tree, id, Color::Grey);
            }
        }
        tree.reset_node_accesses();
        let full = hits(&tree, 200, 0.4).len();
        let full_cost = tree.reset_node_accesses();
        let pruned = top_down::<Vec<RangeHit>>(&tree, 200, 0.4, Some(&colors)).len();
        let pruned_cost = tree.reset_node_accesses();
        // Pruning may only drop objects that live in all-grey subtrees.
        assert!(pruned <= full);
        assert!(pruned_cost <= full_cost, "{pruned_cost} > {full_cost}");
    }

    #[test]
    fn pruned_query_returns_all_white_objects() {
        let data = random_data(300, 15);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
        let mut colors = ColorState::new(&tree);
        let mut rng = StdRng::seed_from_u64(3);
        for id in data.ids() {
            if rng.random_range(0.0..1.0) < 0.6 {
                colors.set_color(&tree, id, Color::Grey);
            }
        }
        for center in [10usize, 150, 299] {
            let r = 0.25;
            let pruned: Vec<ObjId> = top_down(&tree, center, r, Some(&colors));
            let mut expected_white: Vec<ObjId> = neighbors::closed_neighbors(&data, center, r)
                .into_iter()
                .filter(|&o| colors.color(o) == Color::White)
                .collect();
            expected_white.retain(|o| !pruned.contains(o));
            assert!(
                expected_white.is_empty(),
                "white neighbours missed by pruned query: {expected_white:?}"
            );
        }
    }

    #[test]
    fn stop_at_grey_never_returns_more_than_full_query() {
        let data = random_data(300, 16);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
        let mut colors = ColorState::new(&tree);
        for id in 0..150 {
            colors.set_color(&tree, id, Color::Grey);
        }
        tree.reset_node_accesses();
        let full: Vec<RangeHit> = bottom_up(&tree, 200, 0.3, Some(&colors), false);
        let full_cost = tree.reset_node_accesses();
        let fast: Vec<RangeHit> = bottom_up(&tree, 200, 0.3, Some(&colors), true);
        let fast_cost = tree.reset_node_accesses();
        assert!(fast.len() <= full.len());
        assert!(fast_cost <= full_cost);
    }

    #[test]
    fn point_query_finds_every_object() {
        let data = random_data(150, 17);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        for id in data.ids() {
            let cost = tree.point_query_accesses(id);
            assert!(cost as usize >= tree.height(), "cost below tree height");
        }
    }

    #[test]
    fn point_query_agrees_with_unpruned_tree() {
        let data = random_data(220, 18);
        let pruned = MTree::build(&data, MTreeConfig::with_capacity(5));
        let plain = MTree::build(
            &data,
            MTreeConfig::with_capacity(5).with_parent_pruning(false),
        );
        for id in data.ids() {
            // The lemma can only drop subtrees that cannot contain the
            // point, so the (debug-asserted) search still finds it and
            // never costs more accesses.
            assert!(pruned.point_query_accesses(id) <= plain.point_query_accesses(id));
        }
    }

    /// Sorted hit ids of the four calls one colouring admits: both
    /// collectors, top-down and bottom-up (the climb stops at grey
    /// whenever colours are given).
    fn every_call(
        tree: &MTree<'_>,
        center: ObjId,
        r: f64,
        colors: Option<&ColorState>,
    ) -> [(&'static str, Vec<ObjId>); 4] {
        let stop = colors.is_some();
        [
            (
                "hits, top-down",
                top_down::<Vec<RangeHit>>(tree, center, r, colors).sorted_ids(),
            ),
            (
                "objects, top-down",
                top_down::<Vec<ObjId>>(tree, center, r, colors).sorted_ids(),
            ),
            (
                "hits, bottom-up",
                bottom_up::<Vec<RangeHit>>(tree, center, r, colors, stop).sorted_ids(),
            ),
            (
                "objects, bottom-up",
                bottom_up::<Vec<ObjId>>(tree, center, r, colors, stop).sorted_ids(),
            ),
        ]
    }

    const ALL_METRICS: [Metric; 4] = [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Range queries agree with a linear scan for arbitrary data,
        /// radii and node capacities.
        #[test]
        fn range_query_is_exact(seed in 0u64..1000, r in 0.0..0.6f64, cap in 2usize..12) {
            let data = random_data(120, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let center = (seed as usize) % data.len();
            let got = hits(&tree, center, r).sorted_ids();
            let mut want = neighbors::closed_neighbors(&data, center, r);
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// Bottom-up and top-down agree for arbitrary parameters.
        #[test]
        fn bottom_up_is_exact(seed in 0u64..1000, r in 0.0..0.6f64, cap in 2usize..12) {
            let data = random_data(100, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let center = (seed as usize) % data.len();
            let td = hits(&tree, center, r).sorted_ids();
            let bu = bottom_up::<Vec<RangeHit>>(&tree, center, r, None, false).sorted_ids();
            prop_assert_eq!(td, bu);
        }

        /// Every argument combination of the two calls — {`RangeHit`,
        /// `ObjId`} collector × {no colours, all white} × {top-down,
        /// bottom-up} × {parent-distance lemma on, off}, the bottom-up
        /// climb stopping at grey whenever colours are given — returns
        /// exactly the brute-force linear-scan hit set, on all four
        /// metrics, with radii spanning empty to full neighbourhoods
        /// (`frac` scales the metric's maximum range).
        #[test]
        fn all_variants_match_linear_scan_on_every_metric(
            seed in 0u64..500,
            frac in 0.0..1.05f64,
            cap in 2usize..10,
            metric_idx in 0usize..4,
        ) {
            let metric = ALL_METRICS[metric_idx];
            let data = random_data_metric(90, seed, metric);
            let r = frac * metric.max_range(data.dim());
            let r = if metric.is_discrete() { r.floor() } else { r };
            let lemma = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let plain = MTree::build(
                &data,
                MTreeConfig::with_capacity(cap).with_parent_pruning(false),
            );
            let center = (seed as usize) % data.len();
            let mut want = neighbors::closed_neighbors(&data, center, r);
            want.sort_unstable();
            let mut checked = 0;
            for (tree, lemma_label) in [(&lemma, "lemma on"), (&plain, "lemma off")] {
                let all_white = ColorState::new(tree);
                for colors in [None, Some(&all_white)] {
                    for (label, ids) in every_call(tree, center, r, colors) {
                        prop_assert_eq!(
                            &ids, &want,
                            "{}, {}, colours {}, {:?}", label, lemma_label, colors.is_some(), metric
                        );
                        checked += 1;
                    }
                }
            }
            prop_assert_eq!(checked, 16);
        }
    }
}
