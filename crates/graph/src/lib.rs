//! Unit-disk graph substrate for DisC diversity.
//!
//! Section 2.2 of the paper formalises the Minimum r-DisC Diverse Subset
//! Problem as the **Minimum Independent Dominating Set** problem on the
//! graph `G_{P,r}` that connects two objects iff they are within distance
//! `r` (a unit-disk graph under the Euclidean metric). This crate builds
//! that graph view and provides:
//!
//! * [`UnitDiskGraph`] — CSR adjacency materialised either by an O(n²)
//!   scan over a [`disc_metric::Dataset`] (validation reference) or in
//!   bulk from one M-tree range self-join
//!   ([`UnitDiskGraph::from_mtree`]) — see [`graph`] for when to prefer
//!   the graph-resident pipeline over tree-backed execution,
//! * [`StratifiedDiskGraph`] — the radius-stratified variant: one
//!   distance-annotated self-join at the largest radius of interest,
//!   with per-row `(distance, id)`-sorted adjacency so the induced
//!   subgraph at any smaller radius is a zero-cost prefix view
//!   ([`StratifiedDiskGraph::view`]) — the substrate of the
//!   graph-resident zooming and multi-radius runners in `disc-core`,
//! * [`StreamingCatalog`] — a dataset and its stratified graph under
//!   streaming inserts and deletes: a frozen base plus a small
//!   mutation overlay, compacted in batches, read through a
//!   [`LiveView`] in between,
//! * [`Adjacency`] — the neighbour-set interface all three implement
//!   (the views through their prefixes), which `disc-core`'s id-set
//!   runners read, so serving solves on a view without copying it,
//! * [`sets`] — the coverage/dominance and dissimilarity/independence
//!   predicates of Definition 1,
//! * [`exact`] — an exact branch-and-bound solver for the minimum
//!   independent dominating set, tractable for the small instances tests
//!   use to validate the Theorem 1/2 approximation bounds,
//! * [`mod@reference`] — index-free reference implementations of Basic-DisC,
//!   Greedy-DisC and Greedy-C with the same deterministic tie-breaking as
//!   the M-tree implementations in `disc-core`, used for cross-validation,
//! * [`jaccard`] — the Jaccard distance between solutions, the similarity
//!   measure of the zooming experiments (Figures 13 and 16).

pub mod adjacency;
mod csr;
pub mod error;
pub mod exact;
pub mod graph;
pub mod jaccard;
mod overlay;
pub mod reference;
pub mod sets;
pub mod stratified;
pub mod stream;

pub use adjacency::Adjacency;
pub use csr::{AssemblyBreakdown, PartEdges};
pub use error::GraphError;
pub use exact::minimum_independent_dominating_set;
pub use graph::UnitDiskGraph;
pub use jaccard::jaccard_distance;
pub use overlay::LiveView;
pub use sets::{is_dominating, is_independent, is_independent_dominating};
pub use stratified::{StratifiedDiskGraph, StratifiedView};
pub use stream::{InsertReceipt, RemoveReceipt, StreamError, StreamingCatalog};
