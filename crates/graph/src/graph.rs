//! The graph representation `G_{P,r}` of Section 2.2: one vertex per
//! object, an edge whenever two objects are within distance `r`.
//!
//! ## Layout
//!
//! Adjacency is stored in **CSR** (compressed sparse row) form: one flat
//! `neighbors` array plus an `offsets` array with `n + 1` entries, so
//! `neighbors[offsets[v]..offsets[v + 1]]` is `N_r(v)` sorted by id.
//! Compared to the previous `Vec<Vec<ObjId>>` this is one allocation
//! instead of `n`, keeps every neighbourhood contiguous for the
//! selection loops' linear scans, and halves pointer-chasing during the
//! graph-resident heuristics in `disc-core`.
//!
//! ## Construction, and when to prefer which pipeline
//!
//! * [`UnitDiskGraph::from_mtree`] — bulk-materialises the graph with
//!   one M-tree [`range_self_join`](disc_mtree::MTree::range_self_join)
//!   traversal. Node-pair pruning computes far fewer than `n(n−1)/2`
//!   distances, and once the CSR is resident the selection heuristics
//!   run with **zero** further index queries. Prefer it whenever the
//!   edge list fits in memory (≈16 bytes per edge transiently, 8 bytes
//!   per directed edge resident) and the whole graph will be consumed —
//!   i.e. a full Greedy-DisC / Greedy-C run. Prefer the tree-backed
//!   runners instead when memory is tight or when only a few selections
//!   are needed (zooming a small neighbourhood). When the radius
//!   *changes between selections* — zoom-in/zoom-out sweeps, per-object
//!   radii — use the radius-stratified sibling
//!   [`crate::StratifiedDiskGraph`], which answers every radius below
//!   its build radius from one distance-annotated self-join (the
//!   production `disc build` path). With the `parallel` feature enabled
//!   the self-join traversal runs multi-threaded (see `disc-mtree`);
//!   the CSR row sort always uses one worker per core.
//! * [`UnitDiskGraph::build`] — the O(n²) all-pairs scan, kept as the
//!   validation reference the property tests compare against.
//! * [`UnitDiskGraph::from_edges`] — CSR assembly from any edge list
//!   (the self-join's output format), public so other producers can
//!   feed the same consumers.
//! * [`UnitDiskGraph::from_edges_sharded`] — the same assembly with an
//!   explicit row-sort worker count, which the concurrency pins and the
//!   benches' parity checks set.
//! * [`StratifiedView::to_unit_disk_graph`](crate::StratifiedView::to_unit_disk_graph)
//!   — the id-sorted copy of a stratified prefix view, by an O(E)
//!   counting-sort transpose of its rows: no edge list, no sort.
//!
//! Every edge-list constructor ends in the crate's one CSR assembly
//! (the private `csr` module, shared with the stratified graph): a
//! serial degree count and fill, then an entry-balanced parallel row
//! sort. Offsets are pure degree counts and each adjacency row is
//! sorted (and duplicate free), so `offsets` / `neighbors` are
//! byte-identical for every worker count.

use std::sync::Arc;

use disc_metric::{Dataset, IdPermutation, ObjId};
use disc_mtree::MTree;

use crate::Adjacency;

/// Undirected graph over the objects of a dataset, with an edge `(i, j)`
/// iff `dist(i, j) ≤ r` and `i ≠ j`. Stored as CSR; adjacency rows are
/// sorted by id.
///
/// Vertex ids are the dataset's *internal* ids (see `disc_metric::ids`);
/// a graph built from a renumbered dataset carries the dataset's
/// [`IdPermutation`] so boundary layers can translate back to external
/// numbering via [`UnitDiskGraph::external_id`].
#[derive(Clone, Debug, PartialEq)]
pub struct UnitDiskGraph {
    radius: f64,
    /// Row boundaries: `n + 1` entries, `offsets[0] == 0`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency rows (each undirected edge appears
    /// twice, once per endpoint).
    neighbors: Vec<ObjId>,
    /// Internal↔external id bijection of the dataset the graph was
    /// built over; `None` = identity.
    perm: Option<Arc<IdPermutation>>,
}

impl UnitDiskGraph {
    /// Materialises `G_{P,r}` by examining all pairs (O(n²); the
    /// validation reference — see the module docs for the bulk path).
    pub fn build(data: &Dataset, radius: f64) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative");
        let n = data.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if data.dist(i, j) <= radius {
                    edges.push((i, j));
                }
            }
        }
        Self::from_edges(n, radius, &edges).with_permutation(data.permutation().cloned())
    }

    /// Materialises `G_{P,r}` with one M-tree range self-join (the bulk
    /// path; distance computations are charged to the tree's counter),
    /// assembled with one row-sort worker per core. The graph is
    /// byte-identical at every thread count.
    pub fn from_mtree(tree: &MTree<'_>, radius: f64) -> Self {
        let edges = tree.range_self_join(radius);
        Self::from_edges_sharded(tree.len(), radius, &edges, 0)
            .with_permutation(tree.data().permutation().cloned())
    }

    /// Assembles the CSR from an undirected edge list over `n` vertices
    /// with one row-sort worker. Edges may be in any order and
    /// orientation; each unordered pair must appear at most once, and
    /// self-loops are rejected (debug).
    pub fn from_edges(n: usize, radius: f64, edges: &[(ObjId, ObjId)]) -> Self {
        Self::from_edges_sharded(n, radius, edges, 1)
    }

    /// [`UnitDiskGraph::from_edges`] with `shards` row-sort workers:
    /// `0` picks one per available core (one for small inputs), and any
    /// count is clamped to the vertex count. The resulting `offsets` /
    /// `neighbors` are **byte-identical** for every count: offsets are
    /// pure degree counts, and every adjacency row is sorted and
    /// duplicate-free, so its content does not depend on fill order.
    pub fn from_edges_sharded(
        n: usize,
        radius: f64,
        edges: &[(ObjId, ObjId)],
        shards: usize,
    ) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative");
        let ((offsets, _, neighbors), _) = crate::csr::assemble_rows(
            n,
            std::slice::from_ref(&(0..n)),
            vec![(0, 0, edges)],
            shards,
            None,
        )
        .unwrap_or_else(|e| panic!("edges over {n} vertices: {e}"));
        Self::from_csr(radius, offsets, neighbors)
    }

    /// Wraps finished CSR arrays with no id permutation. The caller
    /// owns the layout: `offsets` holds `n + 1` non-decreasing entries
    /// from 0 to `neighbors.len()`, and every row is sorted by id.
    pub(crate) fn from_csr(radius: f64, offsets: Vec<usize>, neighbors: Vec<ObjId>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&neighbors.len()));
        Self {
            radius,
            offsets,
            neighbors,
            perm: None,
        }
    }

    /// Attaches (or clears) the internal↔external id bijection — the
    /// seam for producers assembling from raw edges or snapshot arrays,
    /// where no dataset is at hand. An identity permutation normalizes
    /// to `None`.
    ///
    /// # Panics
    ///
    /// Panics when the permutation's length disagrees with the vertex
    /// count.
    pub fn with_permutation(mut self, perm: Option<Arc<IdPermutation>>) -> Self {
        if let Some(p) = &perm {
            assert_eq!(p.len(), self.len(), "permutation must cover every vertex");
        }
        self.perm = perm.filter(|p| !p.is_identity());
        self
    }

    /// The bijection from vertex (internal) ids back to the caller's
    /// external numbering; `None` when they coincide.
    pub fn permutation(&self) -> Option<&Arc<IdPermutation>> {
        self.perm.as_ref()
    }

    /// External id of vertex `v` (identity without a permutation).
    #[inline]
    pub fn external_id(&self, v: ObjId) -> ObjId {
        match &self.perm {
            Some(p) => p.external(v),
            None => v,
        }
    }

    /// Vertex (internal) id of `external` (identity without a
    /// permutation).
    #[inline]
    pub fn internal_id(&self, external: ObjId) -> ObjId {
        match &self.perm {
            Some(p) => p.internal(external),
            None => external,
        }
    }

    /// The radius the graph was built for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Neighbours of `v` (the open neighbourhood `N_r(v)`), sorted by id.
    #[inline]
    pub fn neighbors(&self, v: ObjId) -> &[ObjId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The raw CSR row-boundary array (`n + 1` entries, first is 0).
    /// Exposed so the concurrency tests can pin byte-equality of
    /// serially and shardedly assembled graphs.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array (each undirected edge twice;
    /// see [`UnitDiskGraph::offsets`]).
    pub fn neighbors_flat(&self) -> &[ObjId] {
        &self.neighbors
    }

    /// Degree of `v` (`|N_r(v)|`).
    #[inline]
    pub fn degree(&self, v: ObjId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `Δ`, the Theorem 2 parameter.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether `u` and `v` are adjacent (binary search on the sorted
    /// adjacency row).
    pub fn adjacent(&self, u: ObjId, v: ObjId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = ObjId> + '_ {
        0..self.len()
    }
}

impl Adjacency for UnitDiskGraph {
    #[inline]
    fn len(&self) -> usize {
        UnitDiskGraph::len(self)
    }

    #[inline]
    fn radius(&self) -> f64 {
        self.radius
    }

    #[inline]
    fn degree(&self, v: ObjId) -> usize {
        UnitDiskGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: ObjId) -> &[ObjId] {
        UnitDiskGraph::neighbors(self, v)
    }

    #[inline]
    fn external_id(&self, v: ObjId) -> ObjId {
        UnitDiskGraph::external_id(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_metric::{Metric, Point};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    /// The Figure 3 configuration of the paper: seven objects forming the
    /// depicted graph (v1..v7 as ids 0..6). Edges: (v1,v2), (v2,v3),
    /// (v3,v4), (v4,v5), (v5,v6), (v5,v7), (v6,v7).
    pub(crate) fn figure3() -> Dataset {
        // Coordinates engineered so that exactly the listed pairs are
        // within distance 1.0.
        Dataset::new(
            "figure3",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),  // v1
                Point::new2(0.9, 0.0),  // v2
                Point::new2(1.8, 0.0),  // v3
                Point::new2(2.7, 0.0),  // v4
                Point::new2(3.6, 0.0),  // v5
                Point::new2(4.2, 0.6),  // v6
                Point::new2(4.2, -0.3), // v7
            ],
        )
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

    #[test]
    fn figure3_edges() {
        let g = UnitDiskGraph::build(&figure3(), 1.0);
        assert_eq!(g.len(), 7);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.neighbors(3), &[2, 4]);
        assert_eq!(g.neighbors(4), &[3, 5, 6]);
        assert_eq!(g.neighbors(5), &[4, 6]);
        assert_eq!(g.neighbors(6), &[4, 5]);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = UnitDiskGraph::build(&figure3(), 1.0);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.adjacent(u, v), g.adjacent(v, u));
            }
        }
    }

    #[test]
    fn zero_radius_yields_no_edges_for_distinct_points() {
        let g = UnitDiskGraph::build(&figure3(), 0.0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn large_radius_yields_complete_graph() {
        let data = figure3();
        let g = UnitDiskGraph::build(&data, 100.0);
        for v in g.vertices() {
            assert_eq!(g.degree(v), data.len() - 1);
        }
    }

    #[test]
    fn radius_accessor() {
        let g = UnitDiskGraph::build(&figure3(), 0.5);
        assert_eq!(g.radius(), 0.5);
        assert!(!g.is_empty());
    }

    #[test]
    fn from_edges_any_orientation_and_order() {
        // Unsorted, mixed-orientation edge list assembles the same CSR.
        let g = UnitDiskGraph::from_edges(4, 1.0, &[(2, 0), (3, 2), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn from_edges_isolated_vertices_and_empty_graph() {
        let g = UnitDiskGraph::from_edges(3, 0.5, &[]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbors(1).is_empty());
        let empty = UnitDiskGraph::from_edges(0, 0.5, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn sharded_assembly_is_byte_identical_to_serial() {
        let data = random_data_metric(300, 11, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        for r in [0.0, 0.05, 0.2, 2.0] {
            let edges = tree.range_self_join_serial(r);
            let serial = UnitDiskGraph::from_edges(data.len(), r, &edges);
            for shards in SHARD_COUNTS {
                let sharded = UnitDiskGraph::from_edges_sharded(data.len(), r, &edges, shards);
                assert_eq!(sharded.offsets(), serial.offsets(), "shards={shards} r={r}");
                assert_eq!(
                    sharded.neighbors_flat(),
                    serial.neighbors_flat(),
                    "shards={shards} r={r}"
                );
            }
            // More shards than vertices clamps without panicking.
            assert_eq!(
                UnitDiskGraph::from_edges_sharded(data.len(), r, &edges, data.len() + 50),
                serial
            );
        }
    }

    #[test]
    fn sharded_assembly_degenerate_inputs() {
        for shards in SHARD_COUNTS {
            // No vertices at all.
            let empty = UnitDiskGraph::from_edges_sharded(0, 0.5, &[], shards);
            assert!(empty.is_empty());
            assert_eq!(empty.offsets(), &[0]);
            // A single vertex (no possible edge).
            let one = UnitDiskGraph::from_edges_sharded(1, 0.5, &[], shards);
            assert_eq!(one.len(), 1);
            assert!(one.neighbors(0).is_empty());
            // Isolated vertices, mixed-orientation edge list.
            let g = UnitDiskGraph::from_edges_sharded(4, 1.0, &[(2, 0), (3, 2), (0, 1)], shards);
            assert_eq!(
                g,
                UnitDiskGraph::from_edges(4, 1.0, &[(2, 0), (3, 2), (0, 1)])
            );
        }
    }

    #[test]
    fn all_duplicate_points_build_complete_graph_at_radius_zero() {
        // Degenerate dataset: every point identical, so at r = 0 the
        // graph is complete. All three construction pipelines agree.
        let n = 24;
        let data = Dataset::new(
            "all-dups",
            Metric::Euclidean,
            vec![Point::new2(0.4, 0.6); n],
        );
        let reference = UnitDiskGraph::build(&data, 0.0);
        for v in reference.vertices() {
            assert_eq!(reference.degree(v), n - 1);
        }
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        assert_eq!(UnitDiskGraph::from_mtree(&tree, 0.0), reference);
        let edges = tree.range_self_join_serial(0.0);
        for shards in SHARD_COUNTS {
            assert_eq!(
                UnitDiskGraph::from_edges_sharded(n, 0.0, &edges, shards),
                reference
            );
        }
    }

    #[test]
    fn radius_at_least_diameter_matches_reference_complete_graph() {
        let data = random_data_metric(60, 12, Metric::Euclidean);
        // Unit-square diameter is √2 < 2.0: complete graph.
        let reference = UnitDiskGraph::build(&data, 2.0);
        for v in reference.vertices() {
            assert_eq!(reference.degree(v), data.len() - 1);
        }
        let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
        assert_eq!(UnitDiskGraph::from_mtree(&tree, 2.0), reference);
        let edges = tree.range_self_join_serial(2.0);
        for shards in SHARD_COUNTS {
            assert_eq!(
                UnitDiskGraph::from_edges_sharded(data.len(), 2.0, &edges, shards),
                reference
            );
        }
    }

    #[test]
    fn from_mtree_matches_scan_on_figure3() {
        let data = figure3();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        for r in [0.0, 0.5, 1.0, 2.0] {
            assert_eq!(
                UnitDiskGraph::from_mtree(&tree, r),
                UnitDiskGraph::build(&data, r),
                "r={r}"
            );
        }
    }

    const ALL_METRICS: [Metric; 4] = [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The self-join-built CSR graph equals the O(n²) reference graph
        /// on all four metrics across random radii and tree capacities
        /// (mirror of the mtree crate's
        /// `all_variants_match_linear_scan_on_every_metric`).
        #[test]
        fn self_join_graph_matches_reference_on_every_metric(
            seed in 0u64..500,
            frac in 0.0..1.05f64,
            cap in 2usize..10,
            metric_idx in 0usize..4,
        ) {
            let metric = ALL_METRICS[metric_idx];
            let data = random_data_metric(90, seed, metric);
            let r = frac * metric.max_range(data.dim());
            let r = if metric.is_discrete() { r.floor() } else { r };
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let from_join = UnitDiskGraph::from_mtree(&tree, r);
            let reference = UnitDiskGraph::build(&data, r);
            prop_assert_eq!(&from_join, &reference, "{:?} r={}", metric, r);
            let plain = MTree::build(
                &data,
                MTreeConfig::with_capacity(cap).with_parent_pruning(false),
            );
            prop_assert_eq!(
                &UnitDiskGraph::from_mtree(&plain, r),
                &reference,
                "no lemma, {:?} r={}",
                metric,
                r
            );
        }
    }
}
