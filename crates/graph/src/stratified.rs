//! Radius-stratified unit-disk graph: one distance-annotated self-join
//! at the largest radius of interest, zero-cost subgraphs at every
//! smaller radius.
//!
//! [`UnitDiskGraph`] materialises `G_{P,r}` for **one** radius; the
//! adaptive-radius algorithms (zooming, Sections 3 and 5.2 of the paper;
//! multiple radii per object, Section 8) consult neighbourhoods at
//! *several* radii in one run, which previously forced them back onto
//! tree-backed range queries ("each radius would need its own graph").
//! The stratified graph removes that constraint: it stores the edge set
//! of `G_{P,r_max}` with every edge's **exact distance**, and orders each
//! CSR adjacency row by that distance — so for any `r' ≤ r_max` the
//! induced subgraph `G_{P,r'}` is a per-row *prefix*, located by one
//! binary search per row and no distance computations at all.
//!
//! ## Memory layout
//!
//! Three flat arrays (CSR):
//!
//! * `offsets` — `n + 1` row boundaries;
//! * `neighbors` — concatenated adjacency rows (each undirected edge
//!   appears twice, once per endpoint), each row sorted by
//!   **(distance, id)** ascending;
//! * `dists` — the exact edge distance aligned index-for-index with
//!   `neighbors` (`dists[k]` is the distance to `neighbors[k]`).
//!
//! Sorting by the `(distance, id)` pair — a total order, since a row
//! never repeats an id — makes the array contents a pure function of the
//! edge *set*, so the assembly is byte-identical at every worker count
//! and for every split of the edges into slices, and duplicate
//! distance values (ties) have a canonical ordering. The sort
//! itself never compares floats: `f64::to_bits`, sign-flipped so
//! unsigned integer order coincides with `f64::total_cmp`, feeds an MSD
//! radix sort that partitions straight on the bytes that actually vary
//! (see the private `csr` module's docs for the trick and its pins) and
//! writes the `dists` / `neighbors` arrays directly — no intermediate
//! `(f64, id)` rows, no comparator.
//!
//! Cost relative to the plain [`UnitDiskGraph`]: `dists` adds 8 bytes
//! per directed edge on top of the 8-byte neighbor id. An `f32` ranking
//! key (+4 bytes) was considered and rejected: the radius cutoffs must
//! reproduce the *exact* `d ≤ r'` predicate of Definition 1 (the
//! graph-resident runners are pinned byte-identical to tree-backed
//! ones), and rounding a distance up through an `f32` could move an edge
//! across a cutoff that lies between the two representations. The
//! annotated self-join also computes more distances than the plain one
//! — its inclusion shortcuts must fill exact values — but the overhead
//! is *bounded by the edge count* (only inclusion-qualified pairs, all
//! of them edges, pay the extra distance) and is evaluated through the
//! M-tree's batched SoA leaf sweeps (see
//! [`disc_mtree::MTree::range_self_join_dist`]); `disc-bench`'s
//! `report` binary gates the bound. Both costs are the
//! price of answering *every* radius from one build.
//!
//! ## When to prefer it
//!
//! * a **single** radius, consumed whole → [`UnitDiskGraph::from_mtree`]
//!   (cheaper build, half the edge memory);
//! * **several** radii below a known maximum — a zoom-in/zoom-out sweep,
//!   multi-radius relevance weighting, or interactive radius tuning →
//!   [`StratifiedDiskGraph::from_mtree`] once, then
//!   [`StratifiedDiskGraph::view`] / [`StratifiedDiskGraph::row_within`]
//!   per radius at zero additional distance computations. A view is an
//!   [`Adjacency`], so the id-set selection runners solve on it directly;
//! * a **persisted, served** catalog → `disc_core::build_sharded` (the
//!   `disc build` pipeline): per-shard self-joins and boundary
//!   cross-joins handed by value, routed to their shards' row ranges,
//!   to [`StratifiedDiskGraph::from_dist_edge_parts_checked`].
//!
//! Every constructor, for this graph and for [`UnitDiskGraph`], ends in
//! the same assembly: a degree count and fill over contiguous row
//! parts, in parallel across parts, then the entry-balanced parallel
//! row sort. The sharded build fills one part per shard; every other
//! constructor is the one-part case, whose fill is serial. Only the
//! sort's worker count differs: one for
//! [`StratifiedDiskGraph::from_dist_edges`] and
//! [`StratifiedDiskGraph::build`], one per core for
//! [`StratifiedDiskGraph::from_mtree`], the caller's for the rest.

use std::ops::Range;
use std::sync::Arc;

use disc_metric::cancel::CancelToken;
use disc_metric::{Dataset, IdPermutation, ObjId};
use disc_mtree::{DistEdge, MTree};

use crate::error::GraphError;
use crate::graph::UnitDiskGraph;
use crate::{Adjacency, AssemblyBreakdown, PartEdges};

/// Distance-annotated CSR adjacency over the objects of a dataset at a
/// maximum radius `r_max`, rows sorted by `(distance, id)` so every
/// `r' ≤ r_max` is a per-row prefix. See the [module docs](self).
///
/// Vertex ids are the dataset's *internal* ids (see `disc_metric::ids`);
/// a graph built from a renumbered dataset carries the dataset's
/// [`IdPermutation`] so boundary layers can translate back to external
/// numbering via [`StratifiedDiskGraph::external_id`].
#[derive(Clone, Debug, PartialEq)]
pub struct StratifiedDiskGraph {
    /// The build radius `r_max`; prefix views exist for every `r'` up to
    /// and including it.
    pub(crate) radius: f64,
    /// Row boundaries: `n + 1` entries, `offsets[0] == 0`.
    pub(crate) offsets: Vec<usize>,
    /// Concatenated adjacency rows, each sorted by `(dist, id)`.
    pub(crate) neighbors: Vec<ObjId>,
    /// Exact edge distances, aligned with `neighbors`.
    pub(crate) dists: Vec<f64>,
    /// Internal↔external id bijection of the dataset the graph was
    /// built over; `None` = identity.
    pub(crate) perm: Option<Arc<IdPermutation>>,
}

impl StratifiedDiskGraph {
    /// Materialises the stratified graph with one distance-annotated
    /// M-tree self-join at `r_max` (distance computations are charged to
    /// the tree's counter; the selection/zooming consumers then run at
    /// zero additional distance computations for every radius
    /// `≤ r_max`), assembled with one row-sort worker per core. The
    /// self-join is one serial traversal; the graph is byte-identical
    /// at every row-sort worker count, distance annotations included.
    pub fn from_mtree(tree: &MTree<'_>, r_max: f64) -> Self {
        let edges = tree.range_self_join_dist(r_max);
        Self::from_dist_edges_sharded(tree.len(), r_max, &edges, 0)
            .with_permutation(tree.data().permutation().cloned())
    }

    /// The fail-closed counterpart of
    /// [`StratifiedDiskGraph::from_mtree`]: typed radius validation
    /// instead of panics, and an optional [`CancelToken`] polled
    /// throughout both build phases (self-join traversal and CSR
    /// assembly). On [`GraphError::Cancelled`] no partial graph escapes
    /// and the tree's counters account exactly for the work performed.
    ///
    /// `workers` sizes the assembly's row sort, as in
    /// [`StratifiedDiskGraph::from_dist_edge_slices_checked`] (`0` =
    /// one per core). The built graph is byte-identical to
    /// [`StratifiedDiskGraph::from_mtree`]'s for every worker count.
    pub fn from_mtree_checked(
        tree: &MTree<'_>,
        r_max: f64,
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, GraphError> {
        let edges = tree.range_self_join_dist_checked(r_max, cancel)?;
        let (graph, _) =
            Self::from_dist_edge_slices_checked(tree.len(), r_max, &[&edges], workers, cancel)?;
        Ok(graph.with_permutation(tree.data().permutation().cloned()))
    }

    /// Checked, cancellable CSR assembly from one or more
    /// distance-annotated edge slices: the one-part case of
    /// [`StratifiedDiskGraph::from_dist_edge_parts_checked`], and the
    /// assembly every constructor but the sharded build's ends in.
    /// Offsets are pure
    /// degree counts and rows sort by the total `(distance, id)` order,
    /// so the result is byte-identical over any split of the same edge
    /// set into slices or row parts. The fill of one part is serial;
    /// `workers` drives the parallel row-sort phase (`0` = one per core,
    /// or one for small inputs; clamped to the vertex count). The
    /// returned [`AssemblyBreakdown`] separates the fill (degree count
    /// and fill over the slices) from the row-sort phase. An edge with an
    /// endpoint outside `0..n` fails with [`GraphError::MisroutedEdge`].
    pub fn from_dist_edge_slices_checked(
        n: usize,
        r_max: f64,
        slices: &[&[DistEdge]],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<(Self, AssemblyBreakdown), GraphError> {
        let lists = slices.iter().map(|&s| (0, 0, s)).collect();
        let rows = 0..n;
        let one_part = std::slice::from_ref(&rows);
        Self::from_dist_edge_parts_checked(n, r_max, one_part, lists, workers, cancel)
    }

    /// Checked, cancellable CSR assembly over rows cut into the
    /// contiguous `parts` — the assembly every constructor ends in. The
    /// sharded build passes its shard ranges, each
    /// shard's self-join as `(i, i, edges)` and each boundary
    /// cross-join between shards `i` and `j` as `(i, j, edges)`. Parts
    /// count their rows' degrees and fill their rows in parallel
    /// (`workers` of them, `0` = one per core), then the rows sort as in
    /// [`StratifiedDiskGraph::from_dist_edge_slices_checked`]. The lists
    /// are taken by value: a part drops its own lists once it has filled
    /// them, and a shared list is dropped once both of its parts have, so
    /// every edge and the whole CSR are never resident at once. An edge
    /// that does not have both endpoints in its own part, or one in each
    /// of its two parts, fails with [`GraphError::MisroutedEdge`]. The
    /// bytes equal the one-part assembly's of the same edge set.
    ///
    /// # Panics
    ///
    /// Panics unless `parts` tiles `0..n` in order, and on a list naming
    /// a part index outside `parts`.
    pub fn from_dist_edge_parts_checked<S>(
        n: usize,
        r_max: f64,
        parts: &[Range<usize>],
        lists: Vec<PartEdges<S>>,
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<(Self, AssemblyBreakdown), GraphError>
    where
        S: AsRef<[DistEdge]> + Send + Sync,
    {
        if r_max.is_nan() || r_max < 0.0 {
            return Err(GraphError::InvalidRadius(r_max));
        }
        for (_, _, edges) in &lists {
            debug_validate_distances(r_max, edges.as_ref());
        }
        let ((offsets, dists, neighbors), breakdown) =
            crate::csr::assemble_rows(n, parts, lists, workers, cancel)?;
        let graph = Self {
            radius: r_max,
            offsets,
            neighbors,
            dists,
            perm: None,
        };
        Ok((graph, breakdown))
    }

    /// Reassembles a graph from its raw CSR arrays — the load path of a
    /// persisted snapshot (`disc-store`), where the arrays come from
    /// disk rather than from this crate's own assembly. Every
    /// structural invariant the query paths rely on is re-validated
    /// fail-closed, with the first violation named by a typed
    /// [`GraphError`]:
    ///
    /// * `offsets` non-empty, starting at 0, non-decreasing, with
    ///   `offsets[n]` equal to both array lengths;
    /// * every neighbor id in range and never the row's own vertex;
    /// * every row strictly `(total_cmp(dist), id)`-sorted (the cutoff
    ///   binary searches are only correct on sorted rows);
    /// * every distance within `[0, r_max]` and never NaN.
    ///
    /// The arrays are stored as given — a graph that round-trips
    /// through `from_csr_parts` is byte-identical to the original.
    pub fn from_csr_parts(
        radius: f64,
        offsets: Vec<usize>,
        neighbors: Vec<ObjId>,
        dists: Vec<f64>,
    ) -> Result<Self, GraphError> {
        if radius.is_nan() || radius < 0.0 {
            return Err(GraphError::InvalidRadius(radius));
        }
        let Some((&first, _)) = offsets.split_first() else {
            return Err(GraphError::EmptyOffsets);
        };
        if first != 0 {
            return Err(GraphError::OffsetsStart { found: first });
        }
        let n = offsets.len() - 1;
        for v in 0..n {
            if offsets[v + 1] < offsets[v] {
                return Err(GraphError::OffsetsNotMonotone { row: v });
            }
        }
        let expected = offsets[n];
        if neighbors.len() != expected || dists.len() != expected {
            return Err(GraphError::ArrayLengthMismatch {
                expected,
                neighbors: neighbors.len(),
                dists: dists.len(),
            });
        }
        for v in 0..n {
            let mut prev: Option<(u64, ObjId)> = None;
            for k in offsets[v]..offsets[v + 1] {
                let id = neighbors[k];
                let d = dists[k];
                if id >= n {
                    return Err(GraphError::NeighborOutOfRange {
                        row: v,
                        index: k,
                        id,
                    });
                }
                if id == v {
                    return Err(GraphError::SelfLoop { row: v, index: k });
                }
                if d.is_nan() || d < 0.0 || d > radius {
                    return Err(GraphError::DistanceOutOfRange {
                        row: v,
                        index: k,
                        value: d,
                    });
                }
                let key = (crate::csr::dist_order_key(d), id);
                if let Some(p) = prev {
                    if key <= p {
                        return Err(GraphError::RowNotSorted { row: v, index: k });
                    }
                }
                prev = Some(key);
            }
        }
        Ok(Self {
            radius,
            offsets,
            neighbors,
            dists,
            perm: None,
        })
    }

    /// Materialises the stratified graph by examining all pairs (O(n²);
    /// the validation reference the property tests compare against).
    pub fn build(data: &Dataset, r_max: f64) -> Self {
        assert!(r_max >= 0.0, "radius must be non-negative");
        let n = data.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = data.dist(i, j);
                if d <= r_max {
                    edges.push((i, j, d));
                }
            }
        }
        Self::from_dist_edges(n, r_max, &edges).with_permutation(data.permutation().cloned())
    }

    /// Assembles the stratified CSR from a distance-annotated undirected
    /// edge list over `n` vertices with one row-sort worker. Edges may
    /// be in any order and orientation; each unordered pair must appear
    /// at most once, with its exact distance `≤ r_max`; self-loops are
    /// rejected (debug).
    pub fn from_dist_edges(n: usize, r_max: f64, edges: &[DistEdge]) -> Self {
        Self::from_dist_edges_sharded(n, r_max, edges, 1)
    }

    /// [`StratifiedDiskGraph::from_dist_edges`] with `shards` row-sort
    /// workers: `0` picks one per available core (one for small
    /// inputs), and any count is clamped to the vertex count.
    /// Byte-identical `offsets` / `neighbors` / `dists` for every count:
    /// offsets are pure degree counts, and each row's `(distance, id)`
    /// sort key is a total order (ids are unique within a row), so row
    /// content is independent of fill order.
    pub fn from_dist_edges_sharded(
        n: usize,
        r_max: f64,
        edges: &[DistEdge],
        shards: usize,
    ) -> Self {
        assert!(r_max >= 0.0, "radius must be non-negative");
        Self::from_dist_edge_slices_checked(n, r_max, &[edges], shards, None)
            .unwrap_or_else(|e| panic!("edges over {n} vertices: {e}"))
            .0
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

    /// The maximum radius the graph was built for (`r_max`).
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

    /// Number of undirected edges at `r_max`.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Full adjacency row of `v` at `r_max`, sorted by `(dist, id)`.
    #[inline]
    pub fn neighbors(&self, v: ObjId) -> &[ObjId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Edge distances aligned with [`StratifiedDiskGraph::neighbors`].
    #[inline]
    pub fn dists(&self, v: ObjId) -> &[f64] {
        &self.dists[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v` at `r_max`.
    #[inline]
    pub fn degree(&self, v: ObjId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Length of `v`'s adjacency prefix at radius `r` (the number of
    /// neighbours within `r`): one binary search on the distance-sorted
    /// row, zero distance computations.
    ///
    /// # Panics
    ///
    /// Panics when `r` is NaN or negative — a NaN would silently return
    /// an empty prefix (every `d <= NaN` comparison is false), serving
    /// wrong neighbourhoods instead of failing.
    #[inline]
    pub fn cutoff(&self, v: ObjId, r: f64) -> usize {
        assert!(r >= 0.0, "cutoff radius must be non-negative, got {r}");
        self.dists(v).partition_point(|&d| d <= r)
    }

    /// Adjacency prefix of `v` at radius `r ≤ r_max`: the ids and exact
    /// distances of every neighbour within `r`, sorted by `(dist, id)`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is NaN or negative (see
    /// [`StratifiedDiskGraph::cutoff`]).
    #[inline]
    pub fn row_within(&self, v: ObjId, r: f64) -> (&[ObjId], &[f64]) {
        assert!(r >= 0.0, "cutoff radius must be non-negative, got {r}");
        let lo = self.offsets[v];
        let row_d = &self.dists[lo..self.offsets[v + 1]];
        let k = row_d.partition_point(|&d| d <= r);
        (&self.neighbors[lo..lo + k], &row_d[..k])
    }

    /// Iterator form of [`StratifiedDiskGraph::row_within`].
    #[inline]
    pub fn neighbors_within(&self, v: ObjId, r: f64) -> impl Iterator<Item = (ObjId, f64)> + '_ {
        let (ids, ds) = self.row_within(v, r);
        ids.iter().copied().zip(ds.iter().copied())
    }

    /// The induced subgraph `G_{P,r'}` as a prefix view: per-vertex row
    /// ends located once (one binary search per vertex), then every
    /// adjacency read is a slice — no distance computations, no copying.
    ///
    /// # Panics
    ///
    /// Panics when `r'` is negative or exceeds the build radius (edges
    /// beyond `r_max` were never materialised).
    pub fn view(&self, r: f64) -> StratifiedView<'_> {
        assert!(
            (0.0..=self.radius).contains(&r),
            "view radius {r} outside [0, {}]",
            self.radius
        );
        let ends = (0..self.len())
            .map(|v| self.offsets[v] + self.cutoff(v, r))
            .collect();
        StratifiedView {
            graph: self,
            radius: r,
            ends,
        }
    }

    /// Fallible counterpart of [`StratifiedDiskGraph::view`]: rejects a
    /// NaN/negative radius or one beyond the build radius with a typed
    /// [`GraphError`] instead of panicking.
    pub fn try_view(&self, r: f64) -> Result<StratifiedView<'_>, GraphError> {
        if r.is_nan() || r < 0.0 {
            return Err(GraphError::InvalidRadius(r));
        }
        if r > self.radius {
            return Err(GraphError::RadiusExceedsBuild {
                r,
                r_max: self.radius,
            });
        }
        Ok(self.view(r))
    }

    // ------------------------------------------------------------------
    // Streaming mutation (insert/delete with external-id tracking)
    // ------------------------------------------------------------------

    /// Inserts one vertex with the given `r_max`-neighborhood, assigning
    /// it internal id `n` (the largest) and external id `external`. The
    /// neighbor list is exactly what one M-tree range query at `r_max`
    /// returns for the new point: every existing vertex within the build
    /// radius, with its exact distance. Each affected CSR row receives a
    /// positional splice — the new id is larger than every existing one,
    /// so `(dist, id)` order puts it immediately after the row's equal-
    /// distance entries, located by one binary search per row; the new
    /// row is the sorted neighbor list itself. The splice is **in
    /// place**: the arrays grow by `2·degree` once and a single backward
    /// memmove pass opens every gap — the arrays are never rebuilt or
    /// reallocated beyond amortised capacity growth. **Zero** distance
    /// computations happen here: the caller's range query (charged to
    /// the tree's counter) already paid for every distance it hands in.
    ///
    /// Returns the new internal id. The spliced arrays satisfy every
    /// invariant [`StratifiedDiskGraph::from_csr_parts`] checks.
    pub fn insert_object(
        &mut self,
        external: ObjId,
        neighbors: &[(ObjId, f64)],
    ) -> Result<ObjId, GraphError> {
        let n = self.len();
        let mut adj: Vec<Option<f64>> = vec![None; n];
        for (index, &(u, d)) in neighbors.iter().enumerate() {
            if u >= n {
                return Err(GraphError::NeighborOutOfRange {
                    row: n,
                    index,
                    id: u,
                });
            }
            if d.is_nan() || d < 0.0 || d > self.radius {
                return Err(GraphError::DistanceOutOfRange {
                    row: n,
                    index,
                    value: d,
                });
            }
            if adj[u].is_some() {
                return Err(GraphError::DuplicateNeighbor { id: u });
            }
            adj[u] = Some(d);
        }
        let taken = match &self.perm {
            Some(p) => p.contains_external(external),
            None => external < n,
        };
        if taken {
            return Err(GraphError::DuplicateExternalId { id: external });
        }
        let next_perm = match (&self.perm, external == n) {
            (None, true) => None,
            (None, false) => {
                let mut ext: Vec<ObjId> = (0..n).collect();
                ext.push(external);
                match IdPermutation::try_new_sparse(ext) {
                    Ok(p) => Some(Arc::new(p)),
                    Err(_) => unreachable!("identity + fresh external id has no duplicates"),
                }
            }
            (Some(p), _) => match p.appended(external) {
                Ok(p) => Some(Arc::new(p)),
                Err(_) => unreachable!("collision was checked above"),
            },
        };

        // Splice points in OLD array coordinates, naturally ascending
        // (rows are visited in id order). All existing ids are < n, so
        // each row's splice point is right after its `dist <= d` prefix
        // (equal distances sort before the larger new id).
        let mut splices: Vec<(usize, f64)> = Vec::with_capacity(neighbors.len());
        for (v, spliced) in adj.iter().enumerate() {
            if let Some(d) = *spliced {
                let lo = self.offsets[v];
                let row_d = &self.dists[lo..self.offsets[v + 1]];
                let key = crate::csr::dist_order_key(d);
                let k = row_d.partition_point(|&x| crate::csr::dist_order_key(x) <= key);
                splices.push((lo + k, d));
            }
        }

        // In-place splice: grow the arrays once, then one backward
        // memmove pass shifts each inter-splice segment right by the
        // number of new entries before it and drops the new entry into
        // the gap — no fresh allocation, no per-row rebuild. The old
        // element at index i lands at i + |{splices ≤ i}|; splice t's
        // new entry lands at `pos_t + t`.
        let deg = splices.len();
        let old_len = self.neighbors.len();
        self.neighbors.resize(old_len + 2 * deg, 0);
        self.dists.resize(old_len + 2 * deg, 0.0);
        let mut seg_end = old_len;
        for (t, &(pos, d)) in splices.iter().enumerate().rev() {
            self.neighbors.copy_within(pos..seg_end, pos + t + 1);
            self.dists.copy_within(pos..seg_end, pos + t + 1);
            self.neighbors[pos + t] = n;
            self.dists[pos + t] = d;
            seg_end = pos;
        }
        let mut row: Vec<(u64, ObjId, f64)> = neighbors
            .iter()
            .map(|&(u, d)| (crate::csr::dist_order_key(d), u, d))
            .collect();
        row.sort_unstable_by_key(|&(key, u, _)| (key, u));
        for (slot, &(_, u, d)) in row.iter().enumerate() {
            self.neighbors[old_len + deg + slot] = u;
            self.dists[old_len + deg + slot] = d;
        }
        let mut added = 0;
        for (v, spliced) in adj.iter().enumerate() {
            added += spliced.is_some() as usize;
            self.offsets[v + 1] += added;
        }
        self.offsets.push(old_len + 2 * deg);

        self.perm = next_perm;
        Ok(n)
    }

    /// Removes vertex `v`, compacting the id space: internal ids above
    /// `v` shift down by one (a strictly monotone map, so every row's
    /// `(dist, id)` order survives the renumbering untouched), and `v`'s
    /// external id becomes unmapped. Returns the removed external id.
    ///
    /// The CSR is symmetric, so **the victim's own row is its reverse
    /// index**: each neighbor `u` stores the edge under the *same* `f64`
    /// distance, and one binary search on `u`'s `(distance, id)`-sorted
    /// row locates the exact slot to unlink — `O(degree · log degree)`
    /// slot discovery instead of scanning every stratum row. The arrays
    /// then compact in place with one `copy_within` sweep over the gaps
    /// (plus a branch-light id-decrement pass and an `O(n)` offsets
    /// rebuild), never reallocating — the former filtering rebuild
    /// (kept as [`StratifiedDiskGraph::remove_object_rescan`], the
    /// streaming bench's baseline) rewrote all three arrays entry by
    /// entry. Zero distance computations either way.
    ///
    /// A neighbor row without the mirrored entry (an asymmetric CSR,
    /// which [`StratifiedDiskGraph::from_csr_parts`] does not rule out)
    /// fails with [`GraphError::MissingMirror`] before anything is
    /// written.
    pub fn remove_object(&mut self, v: ObjId) -> Result<ObjId, GraphError> {
        let n = self.len();
        if v >= n {
            return Err(GraphError::VertexOutOfRange { id: v, len: n });
        }
        if n == 1 {
            return Err(GraphError::LastVertex);
        }
        let external = self.external_id(v);
        let next_perm = match &self.perm {
            Some(p) => match p.removed(v) {
                Some(q) => (!q.is_identity()).then(|| Arc::new(q)),
                None => unreachable!("length and range were checked above"),
            },
            None if v == n - 1 => None,
            None => {
                let ext: Vec<ObjId> = (0..n).filter(|&i| i != v).collect();
                match IdPermutation::try_new_sparse(ext) {
                    Ok(p) => Some(Arc::new(p)),
                    Err(_) => unreachable!("identity minus one entry has no duplicates"),
                }
            }
        };

        // Dead slots: the victim's whole row plus, per neighbor, the
        // mirrored entry found by binary search under the composite
        // `(dist_order_key, id)` row order.
        let (vlo, vhi) = (self.offsets[v], self.offsets[v + 1]);
        let mut dead: Vec<usize> = (vlo..vhi).collect();
        for k in vlo..vhi {
            let u = self.neighbors[k];
            let key = (crate::csr::dist_order_key(self.dists[k]), v);
            let (lo, hi) = (self.offsets[u], self.offsets[u + 1]);
            let (mut a, mut b) = (lo, hi);
            while a < b {
                let m = (a + b) / 2;
                if (crate::csr::dist_order_key(self.dists[m]), self.neighbors[m]) < key {
                    a = m + 1;
                } else {
                    b = m;
                }
            }
            // Snapshot loads do not check symmetry, so a missing mirror
            // is refused here, before the first write.
            if !(a < hi
                && self.neighbors[a] == v
                && self.dists[a].to_bits() == self.dists[k].to_bits())
            {
                return Err(GraphError::MissingMirror { row: u, id: v });
            }
            dead.push(a);
        }
        dead.sort_unstable();

        // One fused sweep does both array rewrites: compact the gaps
        // the dead slots leave AND apply the id shift (strictly
        // monotone — `w > v` becomes `w − 1` — so row order is
        // untouched). Entries below the first dead slot only need the
        // shift; everything above reads once, decrements branchlessly,
        // and writes to its compacted slot.
        let first = dead.first().copied().unwrap_or(self.neighbors.len());
        for w in &mut self.neighbors[..first] {
            *w -= (*w > v) as ObjId;
        }
        let total = self.neighbors.len();
        let mut write = first;
        for (t, &slot) in dead.iter().enumerate() {
            let next = dead.get(t + 1).copied().unwrap_or(total);
            // Two simple sweeps per gap instead of one interleaved
            // loop: a pure memmove for the distances and a branchless
            // shifted-decrement loop for the ids, each of which the
            // compiler vectorises; the fused form ran ~25% slower.
            self.dists.copy_within(slot + 1..next, write);
            for src in slot + 1..next {
                let w = self.neighbors[src];
                self.neighbors[write] = w - (w > v) as ObjId;
                write += 1;
            }
        }
        self.neighbors.truncate(write);
        self.dists.truncate(write);
        // Offsets rebuild: each surviving row ends where it used to,
        // minus the dead slots at or below that boundary (one merged
        // monotone walk over the sorted dead list).
        let mut new_off = Vec::with_capacity(n);
        new_off.push(0);
        let mut cnt = 0usize;
        for u in 0..n {
            let hi = self.offsets[u + 1];
            while cnt < dead.len() && dead[cnt] < hi {
                cnt += 1;
            }
            if u != v {
                new_off.push(hi - cnt);
            }
        }

        self.offsets = new_off;
        self.perm = next_perm;
        Ok(external)
    }

    /// The pre-reverse-index implementation of
    /// [`StratifiedDiskGraph::remove_object`]: rebuilds all three CSR
    /// arrays with a per-entry filter pass over every stratum row. Kept
    /// (hidden) as the baseline the streaming bench gates the in-place
    /// unlink against; behaviour is identical, byte for byte.
    #[doc(hidden)]
    pub fn remove_object_rescan(&mut self, v: ObjId) -> Result<ObjId, GraphError> {
        let n = self.len();
        if v >= n {
            return Err(GraphError::VertexOutOfRange { id: v, len: n });
        }
        if n == 1 {
            return Err(GraphError::LastVertex);
        }
        let external = self.external_id(v);
        let next_perm = match &self.perm {
            Some(p) => match p.removed(v) {
                Some(q) => (!q.is_identity()).then(|| Arc::new(q)),
                None => unreachable!("length and range were checked above"),
            },
            None if v == n - 1 => None,
            None => {
                let ext: Vec<ObjId> = (0..n).filter(|&i| i != v).collect();
                match IdPermutation::try_new_sparse(ext) {
                    Ok(p) => Some(Arc::new(p)),
                    Err(_) => unreachable!("identity minus one entry has no duplicates"),
                }
            }
        };

        let mut new_off = Vec::with_capacity(n);
        let mut new_nb = Vec::with_capacity(self.neighbors.len());
        let mut new_ds = Vec::with_capacity(self.dists.len());
        new_off.push(0);
        for u in 0..n {
            if u == v {
                continue;
            }
            for k in self.offsets[u]..self.offsets[u + 1] {
                let w = self.neighbors[k];
                if w == v {
                    continue;
                }
                new_nb.push(if w > v { w - 1 } else { w });
                new_ds.push(self.dists[k]);
            }
            new_off.push(new_nb.len());
        }

        self.offsets = new_off;
        self.neighbors = new_nb;
        self.dists = new_ds;
        self.perm = next_perm;
        Ok(external)
    }

    /// The raw CSR row-boundary array (`n + 1` entries, first is 0).
    /// Exposed so the concurrency tests can pin byte-equality of
    /// serially and shardedly assembled graphs.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array (see
    /// [`StratifiedDiskGraph::offsets`]).
    pub fn neighbors_flat(&self) -> &[ObjId] {
        &self.neighbors
    }

    /// The raw concatenated distance array, aligned with
    /// [`StratifiedDiskGraph::neighbors_flat`].
    pub fn dists_flat(&self) -> &[f64] {
        &self.dists
    }

    /// Vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = ObjId> + '_ {
        0..self.len()
    }
}

/// Debug-only input validation: every annotated distance must be a
/// real distance within the build radius (release builds trust the
/// self-join).
fn debug_validate_distances(r_max: f64, edges: &[DistEdge]) {
    let _ = (r_max, edges);
    #[cfg(debug_assertions)]
    for &(i, j, d) in edges {
        debug_assert!(
            (0.0..=r_max).contains(&d),
            "edge ({i}, {j}) distance {d} out of range"
        );
    }
}

/// A zero-cost subgraph `G_{P,r'}` of a [`StratifiedDiskGraph`]: every
/// adjacency row is the prefix of the stratified row whose distances are
/// `≤ r'`. Created by [`StratifiedDiskGraph::view`].
#[derive(Clone, Debug)]
pub struct StratifiedView<'g> {
    graph: &'g StratifiedDiskGraph,
    radius: f64,
    /// Absolute end index of each vertex's prefix in the flat arrays.
    ends: Vec<usize>,
}

impl StratifiedView<'_> {
    /// The view radius `r'`.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of vertices (same as the underlying graph).
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the view has no vertices.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Neighbours of `v` within `r'`, sorted by `(dist, id)`.
    #[inline]
    pub fn neighbors(&self, v: ObjId) -> &[ObjId] {
        &self.graph.neighbors[self.graph.offsets[v]..self.ends[v]]
    }

    /// Edge distances aligned with [`StratifiedView::neighbors`].
    #[inline]
    pub fn dists(&self, v: ObjId) -> &[f64] {
        &self.graph.dists[self.graph.offsets[v]..self.ends[v]]
    }

    /// Degree of `v` within `r'`.
    #[inline]
    pub fn degree(&self, v: ObjId) -> usize {
        self.ends[v] - self.graph.offsets[v]
    }

    /// Number of undirected edges within `r'`.
    pub fn edge_count(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).sum::<usize>() / 2
    }

    /// Materialises the view as a plain [`UnitDiskGraph`] (rows in id
    /// order). Pure array work — **zero** distance computations, no
    /// edge list and no sort: a serial counting-sort transpose in O(E).
    /// An in-degree pass sizes the rows; then every `v` in ascending
    /// order is appended to the row of each of its neighbours, which
    /// leaves each row id-sorted. On a symmetric CSR the transpose is
    /// the view itself; on an asymmetric one (which
    /// [`StratifiedDiskGraph::from_csr_parts`] admits) it is still a
    /// plain transpose. The selection runners take the view itself as
    /// an [`Adjacency`], so serving never calls this: it remains the
    /// id-sorted reference that parity pins and benches hold the view
    /// path against.
    pub fn to_unit_disk_graph(&self) -> UnitDiskGraph {
        let n = self.len();
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            for &u in self.neighbors(v) {
                offsets[u + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..n].to_vec();
        let mut neighbors = vec![0; offsets[n]];
        for v in 0..n {
            for &u in self.neighbors(v) {
                neighbors[next[u]] = v;
                next[u] += 1;
            }
        }
        UnitDiskGraph::from_csr(self.radius, offsets, neighbors)
            .with_permutation(self.graph.perm.clone())
    }
}

/// Rows are the `(distance, id)`-sorted prefixes; external ids come from
/// the underlying graph's permutation.
impl Adjacency for StratifiedView<'_> {
    #[inline]
    fn len(&self) -> usize {
        StratifiedView::len(self)
    }

    #[inline]
    fn radius(&self) -> f64 {
        self.radius
    }

    #[inline]
    fn degree(&self, v: ObjId) -> usize {
        StratifiedView::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: ObjId) -> &[ObjId] {
        StratifiedView::neighbors(self, v)
    }

    #[inline]
    fn external_id(&self, v: ObjId) -> ObjId {
        self.graph.external_id(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_metric::{Metric, Point};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

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

    /// Prefix views at every radius of the sweep equal the plain graph
    /// built directly at that radius.
    fn assert_views_match(data: &Dataset, g: &StratifiedDiskGraph, radii: &[f64]) {
        for &r in radii {
            let direct = UnitDiskGraph::build(data, r);
            let view = g.view(r);
            assert_eq!(
                view.to_unit_disk_graph(),
                direct,
                "r'={r} (r_max={})",
                g.radius()
            );
            for v in g.vertices() {
                assert_eq!(view.degree(v), direct.degree(v), "degree of {v} at r'={r}");
            }
        }
    }

    #[test]
    fn rows_are_distance_sorted_with_exact_distances() {
        let data = random_data_metric(150, 60, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let g = StratifiedDiskGraph::from_mtree(&tree, 0.3);
        for v in g.vertices() {
            let (ids, ds) = (g.neighbors(v), g.dists(v));
            for (k, (&u, &d)) in ids.iter().zip(ds).enumerate() {
                assert_eq!(d.to_bits(), data.dist(v, u).to_bits(), "({v}, {u})");
                if k > 0 {
                    assert!(
                        (ds[k - 1], ids[k - 1]) < (d, u),
                        "row {v} not (dist, id)-sorted at {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn view_at_r_max_is_the_whole_graph() {
        let data = random_data_metric(120, 61, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let r_max = 0.25;
        let g = StratifiedDiskGraph::from_mtree(&tree, r_max);
        let view = g.view(r_max);
        assert_eq!(view.edge_count(), g.edge_count());
        assert_eq!(
            view.to_unit_disk_graph(),
            UnitDiskGraph::build(&data, r_max)
        );
        for v in g.vertices() {
            assert_eq!(view.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn view_at_zero_keeps_only_zero_distance_edges() {
        // Distinct points: empty graph at r' = 0; coincident points keep
        // their zero-distance edges.
        let data = Dataset::new(
            "mixed",
            Metric::Euclidean,
            vec![
                Point::new2(0.1, 0.1),
                Point::new2(0.1, 0.1),
                Point::new2(0.9, 0.9),
            ],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(2));
        let g = StratifiedDiskGraph::from_mtree(&tree, 2.0);
        let view = g.view(0.0);
        assert_eq!(view.neighbors(0), &[1]);
        assert_eq!(view.neighbors(1), &[0]);
        assert!(view.neighbors(2).is_empty());
        assert_eq!(view.to_unit_disk_graph(), UnitDiskGraph::build(&data, 0.0));
    }

    #[test]
    fn cutoffs_between_duplicate_distance_values() {
        // Collinear points spaced 0.1 apart: each vertex sees many
        // duplicated distances (0.1, 0.2, ...). Cutoffs exactly *at* a
        // duplicated value include the whole tie group; cutoffs between
        // two values include exactly the smaller groups.
        let pts: Vec<Point> = (0..9).map(|i| Point::new2(i as f64 * 0.1, 0.0)).collect();
        let data = Dataset::new("line", Metric::Euclidean, pts);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        let g = StratifiedDiskGraph::from_mtree(&tree, 1.0);
        // Mid-vertex 4 has two neighbours at each of distances ~0.1..0.4.
        let ds = g.dists(4);
        assert_eq!(ds.len(), 8);
        for r in [0.05, 0.1, 0.15, 0.2, 0.25, 0.30000000000000004, 0.35] {
            let want = ds.iter().filter(|&&d| d <= r).count();
            assert_eq!(g.cutoff(4, r), want, "r={r}");
        }
        assert_views_match(&data, &g, &[0.05, 0.15, 0.25, 0.35, 1.0]);
    }

    #[test]
    fn all_duplicate_points_stratify_to_complete_prefixes() {
        let n = 20;
        let data = Dataset::new(
            "all-dups",
            Metric::Euclidean,
            vec![Point::new2(0.4, 0.6); n],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        let g = StratifiedDiskGraph::from_mtree(&tree, 0.5);
        assert_eq!(g.edge_count(), n * (n - 1) / 2);
        // Every prefix — including r' = 0 — is the complete graph.
        for r in [0.0, 0.25, 0.5] {
            let view = g.view(r);
            for v in g.vertices() {
                assert_eq!(view.degree(v), n - 1, "r'={r}");
            }
        }
        assert_views_match(&data, &g, &[0.0, 0.5]);
    }

    #[test]
    fn degenerate_sizes_zero_and_one() {
        let empty = StratifiedDiskGraph::from_dist_edges(0, 0.5, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.offsets(), &[0]);
        assert_eq!(empty.view(0.5).edge_count(), 0);
        for shards in [1, 2, 3, 8] {
            assert_eq!(
                StratifiedDiskGraph::from_dist_edges_sharded(0, 0.5, &[], shards),
                empty
            );
        }

        let one_pt = Dataset::new("one", Metric::Euclidean, vec![Point::new2(0.5, 0.5)]);
        let tree = MTree::build(&one_pt, MTreeConfig::default());
        let one = StratifiedDiskGraph::from_mtree(&tree, 10.0);
        assert_eq!(one.len(), 1);
        assert!(one.neighbors(0).is_empty());
        assert_eq!(one.view(1.0).degree(0), 0);
    }

    #[test]
    fn sharded_assembly_is_byte_identical_to_serial() {
        let data = random_data_metric(250, 62, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        for r in [0.0, 0.05, 0.2, 2.0] {
            let edges = tree.range_self_join_dist(r);
            let serial = StratifiedDiskGraph::from_dist_edges(data.len(), r, &edges);
            for shards in [1, 2, 3, 8] {
                let sharded =
                    StratifiedDiskGraph::from_dist_edges_sharded(data.len(), r, &edges, shards);
                assert_eq!(sharded.offsets(), serial.offsets(), "shards={shards} r={r}");
                assert_eq!(
                    sharded.neighbors_flat(),
                    serial.neighbors_flat(),
                    "shards={shards} r={r}"
                );
                assert_eq!(
                    sharded.dists_flat(),
                    serial.dists_flat(),
                    "shards={shards} r={r}"
                );
            }
            assert_eq!(
                StratifiedDiskGraph::from_dist_edges_sharded(
                    data.len(),
                    r,
                    &edges,
                    data.len() + 50
                ),
                serial
            );
        }
    }

    #[test]
    fn from_dist_edges_any_orientation_and_order() {
        let g =
            StratifiedDiskGraph::from_dist_edges(4, 1.0, &[(2, 0, 0.7), (3, 2, 0.2), (0, 1, 0.5)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.dists(0), &[0.5, 0.7]);
        assert_eq!(g.neighbors(2), &[3, 0]); // distance-sorted, not id-sorted
        assert_eq!(g.dists(2), &[0.2, 0.7]);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.view(0.5).neighbors(0), &[1]);
        assert_eq!(g.view(0.2).neighbors(2), &[3]);
    }

    #[test]
    #[should_panic(expected = "view radius")]
    fn view_beyond_r_max_is_rejected() {
        let g = StratifiedDiskGraph::from_dist_edges(2, 0.5, &[(0, 1, 0.3)]);
        let _ = g.view(0.6);
    }

    const ALL_METRICS: [Metric; 4] = [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Prefix views of the stratified graph equal plain graphs built
        /// directly at the view radius, on all four metrics, for
        /// arbitrary build radii, view fractions and thread/shard counts.
        #[test]
        fn prefix_views_match_direct_builds_on_every_metric(
            seed in 0u64..500,
            frac_max in 0.05..1.05f64,
            frac_view in 0.0..1.0f64,
            cap in 2usize..10,
            threads in 1usize..9,
            metric_idx in 0usize..4,
        ) {
            let metric = ALL_METRICS[metric_idx];
            let data = random_data_metric(80, seed, metric);
            let r_max = frac_max * metric.max_range(data.dim());
            let r_max = if metric.is_discrete() { r_max.floor() } else { r_max };
            let r_view = frac_view * r_max;
            let r_view = if metric.is_discrete() { r_view.floor() } else { r_view };

            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let edges = tree.range_self_join_dist(r_max);
            let g = StratifiedDiskGraph::from_dist_edges_sharded(
                data.len(), r_max, &edges, threads,
            );
            prop_assert_eq!(
                &g,
                &StratifiedDiskGraph::build(&data, r_max),
                "{:?} r_max={}", metric, r_max
            );
            prop_assert_eq!(
                g.view(r_view).to_unit_disk_graph(),
                UnitDiskGraph::build(&data, r_view),
                "{:?} r'={} r_max={}", metric, r_view, r_max
            );
        }
    }

    // ------------------------------------------------------------------
    // Checked builds, raw-parts reconstruction and radius validation
    // ------------------------------------------------------------------

    #[test]
    fn checked_build_is_byte_identical_to_plain_build() {
        let data = random_data_metric(250, 5, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::default());
        let plain = StratifiedDiskGraph::from_mtree(&tree, 0.3);
        for threads in [1, 3] {
            let checked = StratifiedDiskGraph::from_mtree_checked(&tree, 0.3, threads, None)
                .expect("uncancelled build succeeds");
            assert_eq!(checked.offsets(), plain.offsets());
            assert_eq!(checked.neighbors_flat(), plain.neighbors_flat());
            assert_eq!(
                checked
                    .dists_flat()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>(),
                plain
                    .dists_flat()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn checked_build_rejects_bad_radii_with_typed_errors() {
        let data = random_data_metric(60, 6, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::default());
        for r in [f64::NAN, -1.0] {
            let err = StratifiedDiskGraph::from_mtree_checked(&tree, r, 1, None).unwrap_err();
            assert!(matches!(err, GraphError::InvalidRadius(_)), "r={r}: {err}");
            let err = StratifiedDiskGraph::from_dist_edge_slices_checked(10, r, &[], 1, None)
                .unwrap_err();
            assert!(matches!(err, GraphError::InvalidRadius(_)), "r={r}: {err}");
        }
    }

    #[test]
    fn checked_build_cancels_cleanly() {
        let data = random_data_metric(300, 7, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::default());
        let full = StratifiedDiskGraph::from_mtree(&tree, 0.3);
        let token = CancelToken::new();
        token.cancel();
        let err = StratifiedDiskGraph::from_mtree_checked(&tree, 0.3, 2, Some(&token)).unwrap_err();
        assert_eq!(err, GraphError::Cancelled);
        // Retry without the token reproduces the build byte for byte.
        let retry =
            StratifiedDiskGraph::from_mtree_checked(&tree, 0.3, 2, None).expect("retry succeeds");
        assert_eq!(retry, full);
    }

    #[test]
    fn assembly_cancellation_drops_the_partial_csr() {
        let data = random_data_metric(200, 8, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::default());
        let edges = tree.range_self_join_dist(0.4);
        assert!(!edges.is_empty());
        let token = CancelToken::new();
        token.cancel();
        for shards in [1, 3] {
            let err = StratifiedDiskGraph::from_dist_edge_slices_checked(
                200,
                0.4,
                &[&edges],
                shards,
                Some(&token),
            )
            .unwrap_err();
            assert_eq!(err, GraphError::Cancelled);
        }
        // The same call without a token matches the plain assembly.
        let plain = StratifiedDiskGraph::from_dist_edges(200, 0.4, &edges);
        let (checked, _) =
            StratifiedDiskGraph::from_dist_edge_slices_checked(200, 0.4, &[&edges], 3, None)
                .expect("uncancelled assembly succeeds");
        assert_eq!(checked, plain);
    }

    #[test]
    fn from_csr_parts_round_trips_a_built_graph() {
        for metric in [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Hamming,
        ] {
            let r_max = if metric == Metric::Hamming { 2.0 } else { 0.3 };
            let data = random_data_metric(120, 9, metric);
            let tree = MTree::build(&data, MTreeConfig::default());
            let g = StratifiedDiskGraph::from_mtree(&tree, r_max);
            let rebuilt = StratifiedDiskGraph::from_csr_parts(
                g.radius(),
                g.offsets().to_vec(),
                g.neighbors_flat().to_vec(),
                g.dists_flat().to_vec(),
            )
            .expect("valid parts reconstruct");
            assert_eq!(rebuilt, g, "{metric:?}");
        }
    }

    #[test]
    fn from_csr_parts_rejects_every_structural_violation() {
        // Hand-built valid graph: 3 vertices, edges (0,1,d=0.1), (1,2,d=0.2).
        let offsets = vec![0usize, 1, 3, 4];
        let neighbors = vec![1usize, 0, 2, 1];
        let dists = vec![0.1, 0.1, 0.2, 0.2];
        assert!(StratifiedDiskGraph::from_csr_parts(
            0.5,
            offsets.clone(),
            neighbors.clone(),
            dists.clone()
        )
        .is_ok());

        type Case = (GraphError, f64, Vec<usize>, Vec<usize>, Vec<f64>);
        let cases: Vec<Case> = vec![
            (
                GraphError::InvalidRadius(f64::NAN),
                f64::NAN,
                offsets.clone(),
                neighbors.clone(),
                dists.clone(),
            ),
            (
                GraphError::EmptyOffsets,
                0.5,
                vec![],
                neighbors.clone(),
                dists.clone(),
            ),
            (
                GraphError::OffsetsStart { found: 1 },
                0.5,
                vec![1, 1, 3, 4],
                neighbors.clone(),
                dists.clone(),
            ),
            (
                GraphError::OffsetsNotMonotone { row: 1 },
                0.5,
                vec![0, 3, 1, 4],
                neighbors.clone(),
                dists.clone(),
            ),
            (
                GraphError::ArrayLengthMismatch {
                    expected: 4,
                    neighbors: 3,
                    dists: 4,
                },
                0.5,
                offsets.clone(),
                vec![1, 0, 2],
                dists.clone(),
            ),
            (
                GraphError::NeighborOutOfRange {
                    row: 0,
                    index: 0,
                    id: 9,
                },
                0.5,
                offsets.clone(),
                vec![9, 0, 2, 1],
                dists.clone(),
            ),
            (
                GraphError::SelfLoop { row: 1, index: 1 },
                0.5,
                offsets.clone(),
                vec![1, 1, 2, 1],
                dists.clone(),
            ),
            (
                GraphError::DistanceOutOfRange {
                    row: 0,
                    index: 0,
                    value: 0.9,
                },
                0.5,
                offsets.clone(),
                neighbors.clone(),
                vec![0.9, 0.1, 0.2, 0.2],
            ),
            (
                // Row 1 holds entries at flat 1..3; swapping them breaks
                // the (dist, id) order at flat index 2.
                GraphError::RowNotSorted { row: 1, index: 2 },
                0.5,
                offsets.clone(),
                vec![1, 2, 0, 1],
                vec![0.1, 0.2, 0.1, 0.2],
            ),
        ];
        for (want, r, o, nb, ds) in cases {
            let got = StratifiedDiskGraph::from_csr_parts(r, o, nb, ds).unwrap_err();
            assert_eq!(got, want);
        }
    }

    // ------------------------------------------------------------------
    // Streaming mutation
    // ------------------------------------------------------------------

    /// Brute-force neighbor list of `q` at `r` (what an M-tree range
    /// query returns), in arbitrary order.
    fn neighbors_of(data: &Dataset, q: &[f64], r: f64) -> Vec<(ObjId, f64)> {
        data.ids()
            .filter_map(|i| {
                let d = data.dist_to_coords(i, q);
                (d <= r).then_some((i, d))
            })
            .collect()
    }

    #[test]
    fn insert_object_matches_a_from_scratch_build() {
        let r_max = 0.35;
        let mut data = random_data_metric(80, 70, Metric::Euclidean);
        let mut g = StratifiedDiskGraph::build(&data, r_max);
        let mut rng = StdRng::seed_from_u64(71);
        for step in 0..12 {
            let q = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let nb = neighbors_of(&data, &q, r_max);
            let external = data.len() + step; // dense appends keep identity
            let internal = g.insert_object(external, &nb).expect("fresh id");
            assert_eq!(internal, data.len());
            data.push_point_external(&q, external).expect("fresh id");
            let fresh = StratifiedDiskGraph::build(&data, r_max);
            assert_eq!(g, fresh, "step {step}");
            // The mutated arrays still satisfy every from_csr_parts check.
            StratifiedDiskGraph::from_csr_parts(
                g.radius(),
                g.offsets().to_vec(),
                g.neighbors_flat().to_vec(),
                g.dists_flat().to_vec(),
            )
            .expect("row-sort invariant holds after insert");
        }
    }

    #[test]
    fn remove_object_matches_a_from_scratch_build() {
        let r_max = 0.35;
        let mut data = random_data_metric(60, 72, Metric::Euclidean);
        let mut g = StratifiedDiskGraph::build(&data, r_max);
        let mut rng = StdRng::seed_from_u64(73);
        for step in 0..12 {
            let v = rng.random_range(0..data.len());
            let ext_graph = g.remove_object(v).expect("in range");
            let ext_data = data.remove_point(v).expect("in range");
            assert_eq!(ext_graph, ext_data, "step {step}");
            let fresh = StratifiedDiskGraph::build(&data, r_max).with_permutation(None);
            // Compare structure; the permutation is tracked separately.
            assert_eq!(g.offsets(), fresh.offsets(), "step {step}");
            assert_eq!(g.neighbors_flat(), fresh.neighbors_flat(), "step {step}");
            assert_eq!(g.dists_flat(), fresh.dists_flat(), "step {step}");
            // Graph and dataset agree on the surviving external ids.
            for v in g.vertices() {
                assert_eq!(g.external_id(v), data.external_id(v), "step {step}");
            }
            StratifiedDiskGraph::from_csr_parts(
                g.radius(),
                g.offsets().to_vec(),
                g.neighbors_flat().to_vec(),
                g.dists_flat().to_vec(),
            )
            .expect("row-sort invariant holds after remove");
        }
    }

    #[test]
    fn remove_object_unlink_is_byte_identical_to_rescan() {
        for metric in [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Hamming,
        ] {
            let r_max = if metric == Metric::Hamming { 2.0 } else { 0.3 };
            let data = random_data_metric(80, 76, metric);
            let mut fast = StratifiedDiskGraph::build(&data, r_max);
            let mut slow = fast.clone();
            let mut rng = StdRng::seed_from_u64(77);
            for step in 0..20 {
                let v = rng.random_range(0..fast.len());
                assert_eq!(
                    fast.remove_object(v).expect("in range"),
                    slow.remove_object_rescan(v).expect("in range"),
                    "{metric:?} step {step}"
                );
                assert_eq!(fast.offsets(), slow.offsets(), "{metric:?} step {step}");
                assert_eq!(
                    fast.neighbors_flat(),
                    slow.neighbors_flat(),
                    "{metric:?} step {step}"
                );
                let bits = |g: &StratifiedDiskGraph| {
                    g.dists_flat()
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&fast), bits(&slow), "{metric:?} step {step}");
            }
        }
    }

    #[test]
    fn multi_slice_assembly_matches_single_source() {
        let data = random_data_metric(150, 78, Metric::Euclidean);
        let config = MTreeConfig::default();
        let tree = MTree::build(&data, config);
        let edges = tree.range_self_join_dist(0.25);
        let single = StratifiedDiskGraph::from_dist_edges(data.len(), 0.25, &edges);
        for cut in [0, 1, edges.len() / 2, edges.len()] {
            let (a, b) = edges.split_at(cut);
            let empty: &[disc_mtree::DistEdge] = &[];
            let (multi, _) = StratifiedDiskGraph::from_dist_edge_slices_checked(
                data.len(),
                0.25,
                &[a, empty, b],
                1,
                None,
            )
            .expect("valid radius");
            assert_eq!(single, multi, "cut={cut}");
        }
    }

    #[test]
    fn slice_assembly_cancels_cleanly_at_every_checkpoint() {
        let data = random_data_metric(300, 79, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::default());
        let edges = tree.range_self_join_dist(0.2);
        let third = edges.len() / 3;
        let slices: [&[DistEdge]; 3] = [
            &edges[..third],
            &edges[third..2 * third],
            &edges[2 * third..],
        ];
        let full = StratifiedDiskGraph::from_dist_edges(data.len(), 0.2, &edges);
        // The merge polls once up front and once per CANCEL_CHUNK edges
        // of each slice; a budget beyond that trips in the row sort.
        let merge_checks = 1 + slices
            .iter()
            .map(|s| s.len().div_ceil(crate::csr::CANCEL_CHUNK) as u64)
            .sum::<u64>();
        for workers in [1, 3] {
            let (mut sort_cancels, mut completed) = (0, 0);
            for budget in 1..=merge_checks + 8 {
                let token = CancelToken::with_check_budget(budget);
                match StratifiedDiskGraph::from_dist_edge_slices_checked(
                    data.len(),
                    0.2,
                    &slices,
                    workers,
                    Some(&token),
                ) {
                    Ok((g, _)) => {
                        assert_eq!(g, full, "workers={workers} budget={budget}");
                        completed += 1;
                    }
                    Err(e) => {
                        assert_eq!(e, GraphError::Cancelled, "workers={workers}");
                        sort_cancels += (budget > merge_checks) as usize;
                    }
                }
            }
            assert!(sort_cancels >= 1, "no budget cancelled the row sort");
            assert!(completed >= 1, "no budget let the assembly finish");
        }
    }

    #[test]
    fn interleaved_inserts_and_removes_track_external_ids() {
        let r_max = 0.4;
        let mut data = random_data_metric(30, 74, Metric::Manhattan);
        let mut g = StratifiedDiskGraph::build(&data, r_max);
        let mut rng = StdRng::seed_from_u64(75);
        let mut next_external = data.len();
        for _ in 0..40 {
            if rng.random_range(0..3) == 0 && data.len() > 1 {
                let v = rng.random_range(0..data.len());
                assert_eq!(
                    g.remove_object(v).expect("in range"),
                    data.remove_point(v).expect("in range")
                );
            } else {
                let q = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
                let nb = neighbors_of(&data, &q, r_max);
                let i = g.insert_object(next_external, &nb).expect("fresh id");
                assert_eq!(
                    data.push_point_external(&q, next_external)
                        .expect("fresh id"),
                    i
                );
                next_external += 1;
            }
        }
        let fresh = StratifiedDiskGraph::build(&data, r_max);
        assert_eq!(g.offsets(), fresh.offsets());
        assert_eq!(g.neighbors_flat(), fresh.neighbors_flat());
        assert_eq!(g.dists_flat(), fresh.dists_flat());
        for v in g.vertices() {
            assert_eq!(g.external_id(v), data.external_id(v));
            assert_eq!(g.internal_id(g.external_id(v)), v);
        }
    }

    #[test]
    fn mutation_rejects_malformed_input_with_typed_errors() {
        let mut g = StratifiedDiskGraph::from_dist_edges(3, 0.5, &[(0, 1, 0.1), (1, 2, 0.2)]);
        assert_eq!(
            g.insert_object(3, &[(9, 0.1)]).unwrap_err(),
            GraphError::NeighborOutOfRange {
                row: 3,
                index: 0,
                id: 9
            }
        );
        assert!(matches!(
            g.insert_object(3, &[(0, 0.9)]).unwrap_err(),
            GraphError::DistanceOutOfRange { value: v, .. } if v == 0.9
        ));
        assert_eq!(
            g.insert_object(3, &[(0, 0.1), (0, 0.2)]).unwrap_err(),
            GraphError::DuplicateNeighbor { id: 0 }
        );
        assert_eq!(
            g.insert_object(1, &[]).unwrap_err(),
            GraphError::DuplicateExternalId { id: 1 }
        );
        assert_eq!(
            g.remove_object(7).unwrap_err(),
            GraphError::VertexOutOfRange { id: 7, len: 3 }
        );
        let mut one = StratifiedDiskGraph::from_dist_edges(1, 0.5, &[]);
        assert_eq!(one.remove_object(0).unwrap_err(), GraphError::LastVertex);
    }

    #[test]
    fn remove_object_refuses_an_asymmetric_csr_before_any_write() {
        // Both graphs pass `from_csr_parts`, which does not check
        // symmetry. Case 1 (rows 0:[1,2] 1:[] 2:[0]) lacks the mirror
        // of edge (0,1); case 2 (rows 0:[1,2] 1:[0,2] 2:[1]) lacks the
        // mirror of edge (0,2), which a blind unlink would take from
        // edge (2,1) instead.
        let cases = [
            (
                vec![0usize, 2, 2, 3],
                vec![1usize, 2, 0],
                vec![0.1, 0.2, 0.2],
                GraphError::MissingMirror { row: 1, id: 0 },
            ),
            (
                vec![0, 2, 4, 5],
                vec![1, 2, 0, 2, 1],
                vec![0.1, 0.2, 0.1, 0.3, 0.3],
                GraphError::MissingMirror { row: 2, id: 0 },
            ),
        ];
        for (offsets, neighbors, dists, want) in cases {
            let g = StratifiedDiskGraph::from_csr_parts(0.5, offsets, neighbors, dists)
                .expect("rows are valid one by one");
            // The id-sorted copy is a plain transpose: row u lists every
            // v whose row holds u.
            let copy = g.view(0.5).to_unit_disk_graph();
            for u in g.vertices() {
                let want: Vec<ObjId> = g
                    .vertices()
                    .filter(|&v| g.neighbors(v).contains(&u))
                    .collect();
                assert_eq!(copy.neighbors(u), want.as_slice(), "row {u}");
            }
            let mut mutated = g.clone();
            assert_eq!(mutated.remove_object(0).unwrap_err(), want);
            assert_eq!(mutated, g, "graph changed by a refused delete");

            // The catalog and serve's delete refuse it the same way.
            let pts = vec![Point::new2(0.0, 0.0); 3];
            let data = Dataset::new("asymmetric", Metric::Euclidean, pts);
            let mut cat = crate::StreamingCatalog::try_new(data, g.clone()).expect("consistent");
            assert_eq!(
                cat.remove_external(0).unwrap_err(),
                crate::StreamError::Graph(want)
            );
            assert_eq!(cat.graph(), &g);
            assert_eq!(cat.len(), 3);
            assert!(cat.tombstones().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn cutoff_panics_on_nan_radius() {
        let data = random_data_metric(10, 1, Metric::Euclidean);
        let g = StratifiedDiskGraph::build(&data, 0.5);
        let _ = g.cutoff(0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn row_within_panics_on_negative_radius() {
        let data = random_data_metric(10, 1, Metric::Euclidean);
        let g = StratifiedDiskGraph::build(&data, 0.5);
        let _ = g.row_within(0, -0.1);
    }

    #[test]
    fn try_view_rejects_bad_radii_with_typed_errors() {
        let data = random_data_metric(30, 2, Metric::Euclidean);
        let g = StratifiedDiskGraph::build(&data, 0.5);
        assert!(matches!(
            g.try_view(f64::NAN).unwrap_err(),
            GraphError::InvalidRadius(_)
        ));
        assert!(matches!(
            g.try_view(-0.2).unwrap_err(),
            GraphError::InvalidRadius(_)
        ));
        assert_eq!(
            g.try_view(0.6).unwrap_err(),
            GraphError::RadiusExceedsBuild { r: 0.6, r_max: 0.5 }
        );
        let v = g.try_view(0.25).expect("in-range radius");
        assert_eq!(v.radius(), 0.25);
    }
}
