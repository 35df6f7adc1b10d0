//! The read-only neighbour-set interface of the id-set selection
//! runners.
//!
//! Greedy-DisC, Greedy-C and Fast-C (`disc-core`'s graph-resident
//! runners) touch a graph only through its vertex count, degrees,
//! neighbour rows and the external id that ranks heap ties. They read
//! every row as a *set* — membership and counts, never position — so
//! the row order is irrelevant to their output. Both graph shapes of
//! this crate therefore serve them directly:
//!
//! * [`crate::UnitDiskGraph`] — id-sorted CSR rows at one radius;
//! * [`crate::StratifiedView`] — the `(distance, id)`-sorted prefixes of
//!   a [`crate::StratifiedDiskGraph`] at any radius `≤ r_max`, with no
//!   copy into an id-sorted CSR first.

use disc_metric::ObjId;

/// An undirected graph over vertices `0..len()` whose rows list each
/// neighbour exactly once, in an unspecified order.
pub trait Adjacency {
    /// Number of vertices.
    fn len(&self) -> usize;

    /// Whether the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The radius the edges were drawn at: `u` and `v` are adjacent iff
    /// their distance is at most this.
    fn radius(&self) -> f64;

    /// Degree of `v` (the length of [`Adjacency::neighbors`]).
    fn degree(&self, v: ObjId) -> usize;

    /// Neighbours of `v`, each once, in an unspecified order.
    fn neighbors(&self, v: ObjId) -> &[ObjId];

    /// External id of vertex `v`: the id solutions are reported in and
    /// heap ties are ranked by.
    fn external_id(&self, v: ObjId) -> ObjId;
}
