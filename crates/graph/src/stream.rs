//! Streaming catalog: a dataset and its stratified graph mutating in
//! lock-step under inserts and deletes, with external-id bookkeeping.
//!
//! The build pipeline is batch — index the dataset, self-join once at
//! `r_max`, persist — and before this module any catalog churn meant a
//! full rebuild. [`StreamingCatalog`] keeps the pair live. The graph is
//! a frozen base plus a small mutation overlay (see the `overlay`
//! module): no mutation moves a base array, and a batch of them is
//! folded back in by one compaction.
//!
//! * **insert** — one counted range scan over the current points finds
//!   the new point's `r_max`-neighborhood (every distance charged to
//!   [`StreamingCatalog::distance_computations`], exactly `n` per
//!   insert). The new object takes the next slot, its `(distance,
//!   slot)` entries go to the small sorted *appended rows* at both
//!   endpoints, and [`disc_metric::Dataset::push_point_external`]
//!   appends the coordinates. The new object takes the next never-used
//!   external id. Cost: the `n`-distance scan plus O(degree).
//! * **delete** — addressed by *external* id. The mirror check that
//!   [`StratifiedDiskGraph::remove_object`] runs comes first, then the
//!   slot is tombstoned; the dataset's internal id space compacts
//!   (later ids shift down by one, O(n)) and the external id joins the
//!   tombstone set, never to be reused.
//! * **compaction** — one O(E) pass renumbers the live slots by rank and
//!   merges every base row with its appended row, tombstones dropped:
//!   the bytes [`StratifiedDiskGraph::insert_object`] and
//!   [`StratifiedDiskGraph::remove_object`] would have produced
//!   mutation by mutation. It runs when the overlay passes 1/8 of the
//!   base (appended entries against base entries, or tombstoned slots
//!   against all slots), on [`StreamingCatalog::compact`], and lazily
//!   as a cached copy in [`StreamingCatalog::graph`].
//!
//! Reads never need the compacted graph: [`StreamingCatalog::view`] is
//! the live graph at any `r ≤ r_max` as an [`crate::Adjacency`] (base
//! prefix plus appended prefix per slot, tombstoned slots absent), and
//! the selection runners answer on it exactly as on the compacted
//! graph.
//!
//! The scan is the same neighborhood one M-tree range query at `r_max`
//! returns (pinned by a test against [`disc_mtree::MTree::range_query`]);
//! it is run index-free because an `MTree` borrows its dataset, and a
//! catalog that owns a mutating dataset cannot also hold a long-lived
//! borrow of it. At `n` distances per insert the scan is still a ~10×
//! win over a rebuild, whose self-join must re-derive *every* edge.
//!
//! External ids are the stable names: solutions, snapshots and the serve
//! wire format all speak them, so a catalog that has churned still
//! produces answers comparable with one built from scratch on the same
//! surviving objects.

use std::sync::OnceLock;

use disc_metric::{Dataset, DatasetError, ObjId};

use crate::error::GraphError;
use crate::overlay::{LiveView, Overlay};
use crate::stratified::StratifiedDiskGraph;

/// Why a streaming catalog refused construction or a mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// The graph layer rejected the mutation.
    Graph(GraphError),
    /// The dataset layer rejected the mutation.
    Dataset(DatasetError),
    /// A delete addressed an external id that is not live (tombstoned
    /// or never assigned).
    UnknownExternalId {
        /// The unmapped external id.
        id: ObjId,
    },
    /// Dataset and graph disagree on object count or id numbering.
    Inconsistent {
        /// What disagreed.
        what: &'static str,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "graph: {e}"),
            Self::Dataset(e) => write!(f, "dataset: {e}"),
            Self::UnknownExternalId { id } => {
                write!(
                    f,
                    "external id {id} is not live (tombstoned or never assigned)"
                )
            }
            Self::Inconsistent { what } => {
                write!(f, "dataset and graph disagree on {what}")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Graph(e) => Some(e),
            Self::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

impl From<DatasetError> for StreamError {
    fn from(e: DatasetError) -> Self {
        Self::Dataset(e)
    }
}

/// What an insert did: the new object's ids and its `r_max`-neighborhood
/// in **external** ids (stable across later mutations), sorted by
/// `(distance, external id)`.
#[derive(Clone, Debug, PartialEq)]
pub struct InsertReceipt {
    /// Internal id assigned (always the current largest).
    pub internal: ObjId,
    /// External id assigned (the catalog's next never-used id).
    pub external: ObjId,
    /// `(external id, exact distance)` of every pre-existing object
    /// within `r_max` of the new point.
    pub neighbors: Vec<(ObjId, f64)>,
}

/// What a delete did: the removed object's external id and the
/// `r_max`-neighborhood it left behind, in **external** ids.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoveReceipt {
    /// External id removed (now a tombstone).
    pub external: ObjId,
    /// `(external id, exact distance)` of every surviving object that
    /// was within `r_max` of the removed one.
    pub neighbors: Vec<(ObjId, f64)>,
}

/// A dataset and its stratified graph kept consistent under streaming
/// inserts and deletes. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct StreamingCatalog {
    data: Dataset,
    /// The graph as of the last compaction (the frozen base).
    graph: StratifiedDiskGraph,
    /// Inserts and deletes since `graph` was laid out.
    overlay: Overlay,
    /// `graph` with the overlay folded in, built on the first
    /// [`StreamingCatalog::graph`] call after a mutation.
    compacted: OnceLock<StratifiedDiskGraph>,
    /// Compactions this catalog ran in place.
    compactions: u64,
    /// The next external id an insert will assign; strictly above every
    /// id ever used, so external ids are never recycled.
    next_external: ObjId,
    /// External ids that were deleted, sorted ascending. Disjoint from
    /// the live set, all below `next_external`.
    tombstones: Vec<ObjId>,
    /// Exact count of distance computations performed by this catalog's
    /// insert scans (the build's own distances are charged to the
    /// M-tree counter, as ever).
    distance_computations: u64,
}

impl StreamingCatalog {
    /// Wraps a freshly built pair. The tombstone set starts as the holes
    /// in the external numbering (none for a batch build, whose ids are
    /// dense), and `next_external` one past the largest id in use.
    pub fn try_new(data: Dataset, graph: StratifiedDiskGraph) -> Result<Self, StreamError> {
        let (next_external, tombstones) = match data.permutation() {
            Some(p) => {
                let next = p.max_external() + 1;
                let holes = (0..next).filter(|&e| !p.contains_external(e)).collect();
                (next, holes)
            }
            None => (data.len(), Vec::new()),
        };
        Self::from_parts(data, graph, next_external, tombstones)
    }

    /// Reassembles a catalog from persisted parts (the snapshot load
    /// path), re-validating the streaming invariants fail-closed:
    /// dataset and graph agree on count and numbering, every live
    /// external id is below `next_external`, and the tombstones are
    /// sorted, unique, below `next_external` and disjoint from the live
    /// set.
    pub fn from_parts(
        data: Dataset,
        graph: StratifiedDiskGraph,
        next_external: ObjId,
        tombstones: Vec<ObjId>,
    ) -> Result<Self, StreamError> {
        if data.len() != graph.len() {
            return Err(StreamError::Inconsistent {
                what: "object count",
            });
        }
        let perms_agree = match (data.permutation(), graph.permutation()) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        if !perms_agree {
            return Err(StreamError::Inconsistent {
                what: "id numbering",
            });
        }
        let max_live = match data.permutation() {
            Some(p) => p.max_external(),
            None => data.len() - 1,
        };
        if next_external <= max_live {
            return Err(StreamError::Inconsistent {
                what: "next external id (live ids reach past it)",
            });
        }
        let mut live_and_dead = 0usize;
        for (k, &t) in tombstones.iter().enumerate() {
            if k > 0 && tombstones[k - 1] >= t {
                return Err(StreamError::Inconsistent {
                    what: "tombstone order (must be strictly ascending)",
                });
            }
            if t >= next_external {
                return Err(StreamError::Inconsistent {
                    what: "tombstone range (at or past next external id)",
                });
            }
            let live = match data.permutation() {
                Some(p) => p.contains_external(t),
                None => t < data.len(),
            };
            if live {
                return Err(StreamError::Inconsistent {
                    what: "tombstone liveness (a live id is tombstoned)",
                });
            }
            live_and_dead += 1;
        }
        // Every id below next_external is live or tombstoned — no id is
        // silently unaccounted for.
        if data.len() + live_and_dead != next_external {
            return Err(StreamError::Inconsistent {
                what: "id accounting (live + tombstoned != assigned)",
            });
        }
        Ok(Self {
            overlay: Overlay::new(graph.len()),
            data,
            graph,
            compacted: OnceLock::new(),
            compactions: 0,
            next_external,
            tombstones,
            distance_computations: 0,
        })
    }

    /// Inserts one point, assigning it the next never-used external id.
    /// Exactly `len()` distance computations (the neighborhood scan; see
    /// the [module docs](self) for why it is index-free), then
    /// O(degree) overlay work: the new slot and its `(distance, slot)`
    /// entries in the appended rows at both endpoints. No base array
    /// moves; the catalog compacts when the overlay passes its
    /// threshold.
    pub fn insert(&mut self, coords: &[f64]) -> Result<InsertReceipt, StreamError> {
        if coords.len() != self.data.dim() {
            return Err(StreamError::Dataset(DatasetError::MixedDim {
                id: self.data.len(),
                expected: self.data.dim(),
                found: coords.len(),
            }));
        }
        if let Some((d, &value)) = coords.iter().enumerate().find(|(_, c)| !c.is_finite()) {
            return Err(StreamError::Dataset(DatasetError::NonFinite {
                id: self.data.len(),
                dim: d,
                value,
            }));
        }
        let n = self.data.len();
        let r_max = self.graph.radius();
        let mut neighbors = Vec::new();
        for i in 0..n {
            let d = self.data.dist_to_coords(i, coords);
            if d <= r_max {
                neighbors.push((i, d));
            }
        }
        self.distance_computations += n as u64;
        let external = self.next_external;
        let internal = match self.data.push_point_external(coords, external) {
            Ok(i) => i,
            // The coords were validated above and the external id has
            // never been used.
            Err(_) => unreachable!("dataset push cannot fail on a fresh id"),
        };
        let slots: Vec<(ObjId, f64)> = neighbors
            .iter()
            .map(|&(i, d)| (self.overlay.slot(i), d))
            .collect();
        self.overlay.insert(external, &slots);
        self.mutated();
        self.next_external += 1;
        let mut ext_neighbors: Vec<(ObjId, f64)> = neighbors
            .into_iter()
            .map(|(i, d)| (self.data.external_id(i), d))
            .collect();
        ext_neighbors.sort_unstable_by_key(|&(id, d)| (d.to_bits(), id));
        Ok(InsertReceipt {
            internal,
            external,
            neighbors: ext_neighbors,
        })
    }

    /// Deletes the object with external id `external`, tombstoning the
    /// id. Zero distance computations. The receipt lists the surviving
    /// `r_max`-neighborhood the object left behind, in the compacted
    /// graph's row order. The mirror check of
    /// [`StratifiedDiskGraph::remove_object`] runs first, so an
    /// asymmetric graph fails with [`GraphError::MissingMirror`] before
    /// anything is written; then the object's slot is tombstoned
    /// (O(degree) plus the O(n) dataset compaction).
    pub fn remove_external(&mut self, external: ObjId) -> Result<RemoveReceipt, StreamError> {
        let internal = self
            .internal_of(external)
            .ok_or(StreamError::UnknownExternalId { id: external })?;
        if self.data.len() == 1 {
            return Err(StreamError::Graph(GraphError::LastVertex));
        }
        let row = self
            .overlay
            .checked_row(&self.graph, self.overlay.slot(internal))?;
        let neighbors: Vec<(ObjId, f64)> = row
            .into_iter()
            .map(|(u, d, _)| (self.overlay.external(&self.graph, u), d))
            .collect();
        match self.data.remove_point(internal) {
            Ok(e) => debug_assert_eq!(e, external),
            // The id is live and not the last one.
            Err(_) => unreachable!("dataset removal cannot fail on a live id"),
        }
        self.overlay.tombstone(internal);
        self.mutated();
        let at = self.tombstones.partition_point(|&t| t < external);
        self.tombstones.insert(at, external);
        Ok(RemoveReceipt {
            external,
            neighbors,
        })
    }

    /// Bookkeeping after every mutation: the cached compacted copy is
    /// stale, and past the threshold the overlay folds into the base.
    fn mutated(&mut self) {
        self.compacted = OnceLock::new();
        if self
            .overlay
            .over_threshold(self.graph.neighbors_flat().len())
        {
            self.compact();
        }
    }

    /// Folds the overlay into the base graph in place: two O(E) sweeps
    /// over the base arrays, which grow by the appended entries and
    /// never get a second copy. A no-op on a compact catalog. Returns
    /// the compacted graph.
    pub fn compact(&mut self) -> &StratifiedDiskGraph {
        if !self.overlay.is_empty() {
            match self.compacted.take() {
                Some(g) => self.graph = g,
                None => self
                    .overlay
                    .compact_into(&mut self.graph, self.data.permutation().cloned()),
            }
            self.overlay = Overlay::new(self.graph.len());
            self.compactions += 1;
        }
        &self.graph
    }

    /// Whether no mutation is pending in the overlay.
    pub fn is_compact(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Directed entries in the overlay's appended rows (2 per edge an
    /// insert added since the last compaction).
    pub fn appended_entries(&self) -> usize {
        self.overlay.entries()
    }

    /// Slots tombstoned since the last compaction.
    pub fn tombstoned_slots(&self) -> usize {
        self.overlay.tombstoned()
    }

    /// Compactions this catalog ran in place (threshold or
    /// [`StreamingCatalog::compact`]).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The live graph at radius `r ≤ r_max`, read through the overlay:
    /// what the selection runners solve on between compactions. Rejects
    /// a NaN, negative or beyond-`r_max` radius like
    /// [`StratifiedDiskGraph::try_view`].
    pub fn view(&self, r: f64) -> Result<LiveView<'_>, GraphError> {
        LiveView::new(
            &self.graph,
            &self.overlay,
            self.data.permutation().map(|p| &**p),
            r,
        )
    }

    /// The current points (internal numbering, permutation attached).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The current stratified graph over [`StreamingCatalog::data`],
    /// reflecting every mutation. On a compact catalog this is the base;
    /// with mutations pending it is the compacted graph, built once
    /// (O(E), a second CSR next to the base) and cached until the next
    /// mutation. Serving reads [`StreamingCatalog::view`] instead.
    pub fn graph(&self) -> &StratifiedDiskGraph {
        if self.overlay.is_empty() {
            return &self.graph;
        }
        self.compacted.get_or_init(|| {
            let mut g = self.graph.clone();
            self.overlay
                .compact_into(&mut g, self.data.permutation().cloned());
            g
        })
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the catalog holds no objects (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The build radius `r_max` of the underlying graph.
    pub fn r_max(&self) -> f64 {
        self.graph.radius()
    }

    /// The external id the next insert will assign.
    pub fn next_external(&self) -> ObjId {
        self.next_external
    }

    /// Deleted external ids, sorted ascending.
    pub fn tombstones(&self) -> &[ObjId] {
        &self.tombstones
    }

    /// Exact count of distances computed by this catalog's insert scans.
    pub fn distance_computations(&self) -> u64 {
        self.distance_computations
    }

    /// Internal id of a live external id, or `None` when tombstoned or
    /// never assigned.
    pub fn internal_of(&self, external: ObjId) -> Option<ObjId> {
        match self.data.permutation() {
            Some(p) => p.internal_checked(external),
            None => (external < self.data.len()).then_some(external),
        }
    }

    /// External id of internal object `internal`.
    pub fn external_of(&self, internal: ObjId) -> ObjId {
        self.data.external_id(internal)
    }

    /// The live external ids in internal order.
    pub fn live_externals(&self) -> Vec<ObjId> {
        (0..self.data.len())
            .map(|i| self.data.external_id(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_metric::{Metric, Point};
    use disc_mtree::{MTree, MTreeConfig, RangeHit};
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    fn random_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        Dataset::new("stream", Metric::Euclidean, pts)
    }

    fn catalog(n: usize, seed: u64, r_max: f64) -> StreamingCatalog {
        let data = random_data(n, seed);
        let graph = StratifiedDiskGraph::build(&data, r_max);
        StreamingCatalog::try_new(data, graph).expect("fresh pair is consistent")
    }

    #[test]
    fn insert_scan_matches_one_mtree_range_query() {
        // The catalog's index-free neighborhood scan returns exactly the
        // hit set of one M-tree range query at r_max — the framing the
        // streaming design is specified in.
        let r_max = 0.3;
        let mut cat = catalog(200, 80, r_max);
        let mut rng = StdRng::seed_from_u64(81);
        for _ in 0..5 {
            let q = Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let tree_data = cat.data().clone();
            let tree = MTree::build(&tree_data, MTreeConfig::default());
            let mut tree_hits: Vec<RangeHit> = Vec::new();
            tree.range_query(q.coords(), r_max, None, &mut tree_hits);
            let mut hits: Vec<(ObjId, f64)> = tree_hits
                .iter()
                .map(|h| (tree_data.external_id(h.object), h.dist))
                .collect();
            hits.sort_unstable_by_key(|&(id, d)| (d.to_bits(), id));
            let receipt = cat.insert(q.coords()).expect("insert succeeds");
            assert_eq!(receipt.neighbors, hits);
        }
    }

    #[test]
    fn interleaved_mutations_equal_a_from_scratch_catalog() {
        let r_max = 0.35;
        let mut cat = catalog(60, 82, r_max);
        let mut rng = StdRng::seed_from_u64(83);
        let mut scans = 0u64;
        for _ in 0..50 {
            if rng.random_range(0..3) == 0 && cat.len() > 1 {
                let live = cat.live_externals();
                let target = live[rng.random_range(0..live.len())];
                let receipt = cat.remove_external(target).expect("live id");
                assert_eq!(receipt.external, target);
            } else {
                scans += cat.len() as u64;
                let q = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
                cat.insert(&q).expect("insert succeeds");
            }
        }
        assert_eq!(cat.distance_computations(), scans, "exact accounting");
        // The mutated graph equals a from-scratch build on the surviving
        // points.
        let fresh = StratifiedDiskGraph::build(cat.data(), r_max);
        assert_eq!(cat.graph().offsets(), fresh.offsets());
        assert_eq!(cat.graph().neighbors_flat(), fresh.neighbors_flat());
        assert_eq!(cat.graph().dists_flat(), fresh.dists_flat());
        // Id accounting: live + tombstoned covers exactly the assigned
        // prefix of the external id space.
        assert_eq!(
            cat.len() + cat.tombstones().len(),
            cat.next_external(),
            "no id unaccounted for"
        );
        // The parts round-trip through the snapshot-style constructor.
        let rebuilt = StreamingCatalog::from_parts(
            cat.data().clone(),
            cat.graph().clone(),
            cat.next_external(),
            cat.tombstones().to_vec(),
        )
        .expect("parts re-validate");
        assert_eq!(rebuilt.live_externals(), cat.live_externals());
    }

    #[test]
    fn tombstoned_ids_are_never_reused() {
        let mut cat = catalog(10, 84, 0.5);
        cat.remove_external(9).expect("live id");
        let receipt = cat.insert(&[0.5, 0.5]).expect("insert succeeds");
        assert_eq!(receipt.external, 10, "id 9 is retired, not recycled");
        assert_eq!(
            cat.remove_external(9).unwrap_err(),
            StreamError::UnknownExternalId { id: 9 }
        );
        assert_eq!(cat.tombstones(), &[9]);
    }

    #[test]
    fn from_parts_rejects_inconsistent_state() {
        let cat = catalog(10, 85, 0.5);
        let data = cat.data().clone();
        let graph = cat.graph().clone();
        // Tombstone colliding with a live id.
        assert!(matches!(
            StreamingCatalog::from_parts(data.clone(), graph.clone(), 11, vec![3]),
            Err(StreamError::Inconsistent { .. })
        ));
        // next_external not covering the live ids.
        assert!(matches!(
            StreamingCatalog::from_parts(data.clone(), graph.clone(), 5, vec![]),
            Err(StreamError::Inconsistent { .. })
        ));
        // Unaccounted id below next_external.
        assert!(matches!(
            StreamingCatalog::from_parts(data.clone(), graph.clone(), 12, vec![10]),
            Err(StreamError::Inconsistent { .. })
        ));
        // Unsorted tombstones.
        assert!(matches!(
            StreamingCatalog::from_parts(data.clone(), graph.clone(), 13, vec![11, 10]),
            Err(StreamError::Inconsistent { .. })
        ));
        // The consistent shape is accepted.
        assert!(StreamingCatalog::from_parts(data, graph, 12, vec![10, 11]).is_ok());
    }
}
