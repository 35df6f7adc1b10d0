//! Metric-space substrate for the DisC diversity reproduction.
//!
//! This crate provides the foundation every other crate builds on:
//!
//! * [`Point`] — a point in a (possibly categorical) multi-dimensional space,
//! * [`Metric`] — the distance functions used by the paper (Euclidean,
//!   Manhattan, Chebyshev and Hamming),
//! * [`Dataset`] — an immutable collection of points paired with a metric,
//! * [`bounds`] — the analytical bounds of Lemmas 2–4 of the paper
//!   (maximum number of independent neighbours `B`, and the `NI_{r1,r2}`
//!   annulus bounds used by the zooming analysis),
//! * [`neighbors`] — brute-force neighbourhood utilities used as ground truth
//!   by tests and by the graph substrate,
//! * [`tasks`] — the scoped task runner every threaded loop of the
//!   workspace fans out through.
//!
//! Objects are addressed by their index (`ObjId`) inside a [`Dataset`]; all
//! higher layers (M-tree, DisC heuristics, baselines) share this convention.

pub mod bounds;
pub mod cancel;
pub mod dataset;
pub mod distance;
pub mod ids;
pub mod neighbors;
pub mod point;
pub mod tasks;

pub use cancel::{CancelToken, Cancelled};
pub use dataset::{Dataset, DatasetError};
pub use distance::Metric;
pub use ids::{IdPermutation, PermutationError};
pub use point::{Point, PointView};

/// Identifier of an object inside a [`Dataset`]: its position in the
/// underlying point vector.
pub type ObjId = usize;
