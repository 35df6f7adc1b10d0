//! The read-only neighbour-set interface of the id-set selection
//! runners.
//!
//! Greedy-DisC, Greedy-C and Fast-C (`disc-core`'s graph-resident
//! runners) touch a graph only through its vertex count, degrees,
//! neighbour rows and the external id that ranks heap ties. They read
//! every row as a *set* — membership and counts, never position — so
//! the row order is irrelevant to their output. Three graph shapes of
//! this crate therefore serve them directly:
//!
//! * [`crate::UnitDiskGraph`] — id-sorted CSR rows at one radius;
//! * [`crate::StratifiedView`] — the `(distance, id)`-sorted prefixes of
//!   a [`crate::StratifiedDiskGraph`] at any radius `≤ r_max`, with no
//!   copy into an id-sorted CSR first;
//! * [`crate::LiveView`] — the same prefixes of a streaming catalog's
//!   frozen base plus the entries its inserts appended since, with the
//!   objects it deleted since listed as [`Adjacency::absent`].
//!
//! A row is the union of [`Adjacency::neighbors`] and
//! [`Adjacency::appended`]. An absent vertex keeps its slot and its row,
//! and the rows of its former neighbours still list it, so a runner
//! colours it non-white before seeding: it is never a candidate and
//! never counted as a white neighbour. [`Adjacency::degree`] still
//! counts it, so a degree bounds a vertex's white neighbours from
//! above: the white passes seed their heaps with it, and the cover run
//! starts its exact counts from it minus each absent neighbour.

use disc_metric::ObjId;

/// An undirected graph over vertices `0..len()` whose rows list each
/// neighbour exactly once, in an unspecified order, minus the vertices
/// of [`Adjacency::absent`].
pub trait Adjacency {
    /// Number of vertices, absent ones included.
    fn len(&self) -> usize;

    /// Whether the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The radius the edges were drawn at: `u` and `v` are adjacent iff
    /// their distance is at most this.
    fn radius(&self) -> f64;

    /// Degree of `v`: the length of [`Adjacency::neighbors`] plus that
    /// of [`Adjacency::appended`], absent neighbours included.
    fn degree(&self, v: ObjId) -> usize;

    /// Neighbours of `v`, each once, in an unspecified order.
    fn neighbors(&self, v: ObjId) -> &[ObjId];

    /// The rest of `v`'s row: neighbours added after
    /// [`Adjacency::neighbors`] was laid out, disjoint from it. Empty
    /// unless the graph carries a mutation overlay.
    #[inline]
    fn appended(&self, v: ObjId) -> &[ObjId] {
        let _ = v;
        &[]
    }

    /// Vertices that are not in the graph (deleted, not yet compacted
    /// away), ascending. Rows may still list them; the runners colour
    /// them out before seeding. Empty unless the graph carries a
    /// mutation overlay.
    #[inline]
    fn absent(&self) -> &[ObjId] {
        &[]
    }

    /// External id of vertex `v`: the id solutions are reported in and
    /// heap ties are ranked by.
    fn external_id(&self, v: ObjId) -> ObjId;
}
