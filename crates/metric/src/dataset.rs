//! Datasets: an immutable point collection plus the metric it is compared
//! under.
//!
//! The DisC heuristics, the M-tree and the baselines all take a `&Dataset`
//! and address objects by [`ObjId`]. Keeping the metric inside the dataset
//! mirrors the paper's setup, where the metric is a property of the workload
//! (Euclidean for spatial data, Hamming for the camera catalogue).
//!
//! ## Storage layout
//!
//! Coordinates live in one flat, contiguous `Vec<f64>` in row-major
//! order (`coords[id * dim .. (id + 1) * dim]` is object `id`). Every
//! distance computation on the query hot path reads two slices of this
//! buffer directly — no per-point heap allocation, no pointer chase —
//! and derived datasets ([`Dataset::restrict`], [`Dataset::normalized`])
//! are single-allocation copies of the relevant rows.

use std::fmt;
use std::sync::Arc;

use crate::{
    distance::Metric,
    ids::IdPermutation,
    point::{Point, PointView},
    ObjId,
};

/// Typed construction error for [`Dataset`]: the ways an input point
/// collection can be rejected. Construction is fail-closed — a dataset
/// that exists is guaranteed non-empty, rectangular and entirely finite,
/// so downstream distance computations can never observe NaN/±inf
/// garbage.
#[derive(Clone, Debug)]
pub enum DatasetError {
    /// The point collection (or flat buffer) was empty.
    Empty,
    /// `dim` was zero.
    ZeroDim,
    /// Points disagree on dimensionality: object `id` has `found`
    /// dimensions where the first point had `expected`.
    MixedDim {
        /// Offending object id.
        id: ObjId,
        /// Dimensionality of object 0.
        expected: usize,
        /// Dimensionality of the offending object.
        found: usize,
    },
    /// The flat buffer's length is not a multiple of `dim`.
    RaggedBuffer {
        /// Buffer length supplied.
        len: usize,
        /// Row width expected.
        dim: usize,
    },
    /// A coordinate is NaN or ±inf.
    NonFinite {
        /// Object holding the offending coordinate.
        id: ObjId,
        /// Dimension index of the offending coordinate.
        dim: usize,
        /// The offending value.
        value: f64,
    },
    /// A streaming insert reused an external id that is already mapped
    /// (live, not tombstoned).
    ExternalIdTaken {
        /// The colliding external id.
        external: ObjId,
    },
    /// A streaming delete addressed an internal id outside `0..len`.
    OutOfRange {
        /// The offending internal id.
        id: ObjId,
        /// Number of objects currently held.
        len: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => f.write_str("dataset must contain at least one point"),
            Self::ZeroDim => f.write_str("a point needs at least one dimension"),
            Self::MixedDim {
                id,
                expected,
                found,
            } => write!(
                f,
                "all points must share dimensionality: point {id} has {found} dims, expected {expected}"
            ),
            Self::RaggedBuffer { len, dim } => write!(
                f,
                "coordinate buffer must hold whole {dim}-wide rows, got {len} values"
            ),
            Self::NonFinite { id, dim, value } => write!(
                f,
                "point coordinates must be finite: point {id} dim {dim} is {value}"
            ),
            Self::ExternalIdTaken { external } => {
                write!(f, "external id {external} is already mapped to a live point")
            }
            Self::OutOfRange { id, len } => {
                write!(f, "internal id {id} is outside 0..{len}")
            }
        }
    }
}

impl DatasetError {
    /// The variant and its payload as integers, the `f64` by its bits.
    fn image(&self) -> (std::mem::Discriminant<Self>, [u64; 3]) {
        let fields = match *self {
            Self::Empty | Self::ZeroDim => [0; 3],
            Self::MixedDim {
                id,
                expected,
                found,
            } => [id as u64, expected as u64, found as u64],
            Self::RaggedBuffer { len, dim } => [len as u64, dim as u64, 0],
            Self::NonFinite { id, dim, value } => [id as u64, dim as u64, value.to_bits()],
            Self::ExternalIdTaken { external } => [external as u64, 0, 0],
            Self::OutOfRange { id, len } => [id as u64, len as u64, 0],
        };
        (std::mem::discriminant(self), fields)
    }
}

/// Compares the variant and its fields, the `f64` by its bits, so an
/// error that holds a NaN equals itself.
impl PartialEq for DatasetError {
    fn eq(&self, other: &Self) -> bool {
        self.image() == other.image()
    }
}

impl Eq for DatasetError {}

impl std::error::Error for DatasetError {}

/// A named collection of points under a fixed metric.
///
/// ## Id numbering
///
/// Object `id` is a position in the coordinate buffer — an *internal*
/// id. A dataset renumbered for locality ([`Dataset::renumbered`])
/// additionally carries the [`IdPermutation`] back to the caller's
/// original (*external*) numbering; `permutation() == None` means the
/// two coincide. See [`crate::ids`] for the full contract.
#[derive(Clone, Debug)]
pub struct Dataset {
    name: String,
    metric: Metric,
    dim: usize,
    /// Row-major coordinate buffer, `len() * dim` values.
    coords: Vec<f64>,
    /// Internal↔external id bijection; `None` = identity.
    perm: Option<Arc<IdPermutation>>,
}

/// Rejects NaN/±inf anywhere in a row-major buffer, reporting the
/// offending object and dimension.
fn check_finite(coords: &[f64], dim: usize) -> Result<(), DatasetError> {
    if let Some((i, &value)) = coords.iter().enumerate().find(|(_, c)| !c.is_finite()) {
        return Err(DatasetError::NonFinite {
            id: i / dim,
            dim: i % dim,
            value,
        });
    }
    Ok(())
}

impl Dataset {
    /// Creates a dataset from owned points (flattening them into the
    /// contiguous buffer).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, if the points disagree on
    /// dimensionality, or if any coordinate is non-finite. Use
    /// [`Dataset::try_new`] to reject bad input with a typed error
    /// instead.
    pub fn new(name: impl Into<String>, metric: Metric, points: Vec<Point>) -> Self {
        match Self::try_new(name, metric, points) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Dataset::new`]: rejects empty
    /// collections, mixed dimensionality and non-finite coordinates with
    /// a typed [`DatasetError`].
    pub fn try_new(
        name: impl Into<String>,
        metric: Metric,
        points: Vec<Point>,
    ) -> Result<Self, DatasetError> {
        let Some(first) = points.first() else {
            return Err(DatasetError::Empty);
        };
        let dim = first.dim();
        if dim == 0 {
            return Err(DatasetError::ZeroDim);
        }
        for (id, p) in points.iter().enumerate() {
            if p.dim() != dim {
                return Err(DatasetError::MixedDim {
                    id,
                    expected: dim,
                    found: p.dim(),
                });
            }
        }
        let mut coords = Vec::with_capacity(points.len() * dim);
        for p in &points {
            coords.extend_from_slice(p.coords());
        }
        check_finite(&coords, dim)?;
        Ok(Self {
            name: name.into(),
            metric,
            dim,
            coords,
            perm: None,
        })
    }

    /// Creates a dataset directly from a flat row-major coordinate
    /// buffer of `dim`-wide rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, `coords` is empty, `coords.len()` is not
    /// a multiple of `dim`, or any coordinate is non-finite. Use
    /// [`Dataset::try_from_flat`] to reject bad input with a typed error
    /// instead.
    pub fn from_flat(
        name: impl Into<String>,
        metric: Metric,
        dim: usize,
        coords: Vec<f64>,
    ) -> Self {
        match Self::try_from_flat(name, metric, dim, coords) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Dataset::from_flat`]: rejects zero
    /// `dim`, empty or ragged buffers, and non-finite coordinates with a
    /// typed [`DatasetError`].
    pub fn try_from_flat(
        name: impl Into<String>,
        metric: Metric,
        dim: usize,
        coords: Vec<f64>,
    ) -> Result<Self, DatasetError> {
        if dim == 0 {
            return Err(DatasetError::ZeroDim);
        }
        if coords.is_empty() {
            return Err(DatasetError::Empty);
        }
        if !coords.len().is_multiple_of(dim) {
            return Err(DatasetError::RaggedBuffer {
                len: coords.len(),
                dim,
            });
        }
        check_finite(&coords, dim)?;
        Ok(Self {
            name: name.into(),
            metric,
            dim,
            coords,
            perm: None,
        })
    }

    /// Dataset name (used in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metric objects are compared under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the dataset is empty (never true by construction; present for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of the space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinate row of object `id` — the raw hot-path accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn row(&self, id: ObjId) -> &[f64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    /// The point with identifier `id`, as a borrowed view into the flat
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn point(&self, id: ObjId) -> PointView<'_> {
        PointView::new(self.row(id))
    }

    /// The whole flat row-major coordinate buffer.
    pub fn flat_coords(&self) -> &[f64] {
        &self.coords
    }

    /// Iterator over all points as views (replacement for the old
    /// `&[Point]` accessor; materialise with `.map(|v| v.to_point())` if
    /// owned points are needed).
    pub fn iter_points(&self) -> impl Iterator<Item = PointView<'_>> + '_ {
        (0..self.len()).map(move |id| self.point(id))
    }

    /// Distance between objects `a` and `b`.
    #[inline]
    pub fn dist(&self, a: ObjId, b: ObjId) -> f64 {
        self.metric.dist_coords(self.row(a), self.row(b))
    }

    /// Distance between object `a` and an arbitrary point.
    #[inline]
    pub fn dist_to(&self, a: ObjId, p: &Point) -> f64 {
        self.metric.dist_coords(self.row(a), p.coords())
    }

    /// Distance between object `a` and a raw coordinate slice (hot-path
    /// variant of [`Dataset::dist_to`]).
    #[inline]
    pub fn dist_to_coords(&self, a: ObjId, q: &[f64]) -> f64 {
        self.metric.dist_coords(self.row(a), q)
    }

    /// Iterator over all object ids.
    pub fn ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        0..self.len()
    }

    /// Rescales every coordinate into `[0, 1]` per dimension (min-max
    /// normalisation), as the paper does for the Cities dataset. Dimensions
    /// with zero spread map to 0.
    pub fn normalized(&self) -> Self {
        let dim = self.dim;
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for row in self.coords.chunks_exact(dim) {
            for (d, &c) in row.iter().enumerate() {
                lo[d] = lo[d].min(c);
                hi[d] = hi[d].max(c);
            }
        }
        let span: Vec<f64> = lo.iter().zip(&hi).map(|(&l, &h)| h - l).collect();
        // One pass over the flat buffer, one output allocation.
        let coords = self
            .coords
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let d = i % dim;
                if span[d] > 0.0 {
                    (c - lo[d]) / span[d]
                } else {
                    0.0
                }
            })
            .collect();
        Self {
            name: self.name.clone(),
            metric: self.metric,
            dim,
            coords,
            // Rescaling keeps the numbering, so the bijection survives.
            perm: self.perm.clone(),
        }
    }

    /// A sub-dataset containing exactly the given objects, preserving
    /// their order: new id `i` is old id `ids[i]`, so the argument slice
    /// *is* the new-to-old mapping (earlier revisions returned a clone of
    /// it alongside).
    ///
    /// Local zooming (Section 3 of the paper) operates on the neighbourhood
    /// `N_r(p_i)` of a single object; this is the primitive it uses. The
    /// rows are copied into one fresh contiguous buffer in a single
    /// allocation.
    pub fn restrict(&self, ids: &[ObjId]) -> Self {
        assert!(!ids.is_empty(), "restriction must keep at least one object");
        let mut coords = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            coords.extend_from_slice(self.row(id));
        }
        Self {
            name: format!("{}[{} objects]", self.name, ids.len()),
            metric: self.metric,
            dim: self.dim,
            coords,
            // The restriction defines a fresh id space; the caller keeps
            // the `ids` slice as its own new-to-old mapping.
            perm: None,
        }
    }

    // ------------------------------------------------------------------
    // Internal/external id numbering (see `crate::ids`)
    // ------------------------------------------------------------------

    /// The bijection from this dataset's (internal) ids back to the
    /// caller's original (external) numbering; `None` when they
    /// coincide.
    pub fn permutation(&self) -> Option<&Arc<IdPermutation>> {
        self.perm.as_ref()
    }

    /// External id of internal object `id` (identity without a
    /// permutation).
    #[inline]
    pub fn external_id(&self, id: ObjId) -> ObjId {
        match &self.perm {
            Some(p) => p.external(id),
            None => id,
        }
    }

    /// Internal id of `external` (identity without a permutation).
    #[inline]
    pub fn internal_id(&self, external: ObjId) -> ObjId {
        match &self.perm {
            Some(p) => p.internal(external),
            None => external,
        }
    }

    /// A dataset holding the same points relabeled for locality: new id
    /// `i` is this dataset's id `order[i]`. The returned dataset's
    /// permutation composes with any permutation already present, so
    /// external ids always refer to the numbering of the *original*
    /// (never-renumbered) dataset; an identity composition normalizes to
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..len()`.
    pub fn renumbered(&self, order: &[ObjId]) -> Self {
        assert_eq!(
            order.len(),
            self.len(),
            "renumbering order must cover every object"
        );
        let mut coords = Vec::with_capacity(self.coords.len());
        let to_external: Vec<ObjId> = order
            .iter()
            .map(|&old| {
                coords.extend_from_slice(self.row(old));
                self.external_id(old)
            })
            .collect();
        let perm = match IdPermutation::try_new(to_external) {
            Ok(p) => (!p.is_identity()).then(|| Arc::new(p)),
            Err(e) => panic!("renumbering order is not a permutation: {e}"),
        };
        Self {
            name: self.name.clone(),
            metric: self.metric,
            dim: self.dim,
            coords,
            perm,
        }
    }

    // ------------------------------------------------------------------
    // Streaming mutation (insert/delete with external-id tracking)
    // ------------------------------------------------------------------

    /// Appends one point with a caller-assigned external id, returning
    /// its internal id (`len() - 1` after the push). The permutation
    /// stays normalized: appending external id `len()` to an identity
    /// numbering keeps `permutation() == None`, anything else
    /// materializes the (possibly sparse) bijection.
    ///
    /// Rejects wrong-width rows, non-finite coordinates, and an
    /// external id that is already mapped (reported as [`DatasetError`]
    /// so streaming callers keep one error family per layer).
    pub fn push_point_external(
        &mut self,
        point: &[f64],
        external: ObjId,
    ) -> Result<ObjId, DatasetError> {
        if point.len() != self.dim {
            return Err(DatasetError::MixedDim {
                id: self.len(),
                expected: self.dim,
                found: point.len(),
            });
        }
        if let Some((d, &value)) = point.iter().enumerate().find(|(_, c)| !c.is_finite()) {
            return Err(DatasetError::NonFinite {
                id: self.len(),
                dim: d,
                value,
            });
        }
        let n = self.len();
        let taken = match &self.perm {
            Some(p) => p.contains_external(external),
            None => external < n,
        };
        if taken {
            return Err(DatasetError::ExternalIdTaken { external });
        }
        let next = match (&self.perm, external == n) {
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
        self.coords.extend_from_slice(point);
        self.perm = next;
        Ok(n)
    }

    /// Removes the point at internal id `internal`, compacting the
    /// buffer: internal ids above it shift down by one, matching
    /// `StratifiedDiskGraph::remove_object`'s renumbering. The removed
    /// external id becomes unmapped (a tombstone in the streaming id
    /// space). Returns the removed external id.
    ///
    /// Rejects an out-of-range id and the removal of the last remaining
    /// point (a dataset is never empty).
    pub fn remove_point(&mut self, internal: ObjId) -> Result<ObjId, DatasetError> {
        if internal >= self.len() {
            return Err(DatasetError::OutOfRange {
                id: internal,
                len: self.len(),
            });
        }
        if self.len() == 1 {
            return Err(DatasetError::Empty);
        }
        let external = self.external_id(internal);
        let next = match &self.perm {
            Some(p) => match p.removed(internal) {
                Some(q) => (!q.is_identity()).then(|| Arc::new(q)),
                None => unreachable!("length and range were checked above"),
            },
            // Identity numbering: removing the last internal id keeps
            // the identity; removing any other leaves a hole.
            None if internal == self.len() - 1 => None,
            None => {
                let ext: Vec<ObjId> = (0..self.len()).filter(|&i| i != internal).collect();
                match IdPermutation::try_new_sparse(ext) {
                    Ok(p) => Some(Arc::new(p)),
                    Err(_) => unreachable!("identity minus one entry has no duplicates"),
                }
            }
        };
        self.coords
            .drain(internal * self.dim..(internal + 1) * self.dim);
        self.perm = next;
        Ok(external)
    }

    /// Replaces the id permutation wholesale — the snapshot-load seam,
    /// where the bijection comes from disk rather than from
    /// [`Dataset::renumbered`]. An identity permutation normalizes to
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics when the permutation's length disagrees with the dataset's.
    pub fn with_permutation(mut self, perm: Option<Arc<IdPermutation>>) -> Self {
        if let Some(p) = &perm {
            assert_eq!(p.len(), self.len(), "permutation must cover every object");
        }
        self.perm = perm.filter(|p| !p.is_identity());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Dataset {
        Dataset::new(
            "square",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(1.0, 0.0),
                Point::new2(0.0, 1.0),
                Point::new2(1.0, 1.0),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = unit_square();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.name(), "square");
        assert_eq!(d.metric(), Metric::Euclidean);
        assert!(!d.is_empty());
        assert_eq!(d.ids().count(), 4);
    }

    #[test]
    fn storage_is_flat_and_row_major() {
        let d = unit_square();
        assert_eq!(d.flat_coords(), &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(d.row(2), &[0.0, 1.0]);
        assert_eq!(d.iter_points().count(), 4);
    }

    #[test]
    fn from_flat_matches_point_construction() {
        let a = unit_square();
        let b = Dataset::from_flat(
            "square",
            Metric::Euclidean,
            2,
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        );
        for id in a.ids() {
            assert_eq!(a.point(id), b.point(id));
        }
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn from_flat_rejects_ragged_buffers() {
        let _ = Dataset::from_flat("bad", Metric::Euclidean, 2, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn pairwise_distance() {
        let d = unit_square();
        assert!((d.dist(0, 3) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(d.dist(1, 1), 0.0);
    }

    #[test]
    fn dist_to_free_point() {
        let d = unit_square();
        let q = Point::new2(0.0, 0.5);
        assert!((d.dist_to(0, &q) - 0.5).abs() < 1e-12);
        assert!((d.dist_to_coords(0, q.coords()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalization_maps_to_unit_range() {
        let d = Dataset::new(
            "raw",
            Metric::Euclidean,
            vec![
                Point::new2(10.0, -5.0),
                Point::new2(20.0, 5.0),
                Point::new2(15.0, 0.0),
            ],
        )
        .normalized();
        assert_eq!(d.point(0).coords(), &[0.0, 0.0]);
        assert_eq!(d.point(1).coords(), &[1.0, 1.0]);
        assert_eq!(d.point(2).coords(), &[0.5, 0.5]);
    }

    #[test]
    fn normalization_handles_constant_dimension() {
        let d = Dataset::new(
            "flat",
            Metric::Euclidean,
            vec![Point::new2(3.0, 1.0), Point::new2(3.0, 2.0)],
        )
        .normalized();
        assert_eq!(d.point(0).coord(0), 0.0);
        assert_eq!(d.point(1).coord(0), 0.0);
    }

    #[test]
    fn restriction_preserves_points_in_argument_order() {
        let d = unit_square();
        let sub = d.restrict(&[3, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.point(0), d.point(3));
        assert_eq!(sub.point(1), d.point(1));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty_dataset() {
        let _ = Dataset::new("empty", Metric::Euclidean, vec![]);
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn rejects_mixed_dimensions() {
        let _ = Dataset::new(
            "mixed",
            Metric::Euclidean,
            vec![Point::new2(0.0, 0.0), Point::new(vec![1.0, 2.0, 3.0])],
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_rejects_non_finite_coordinates() {
        let _ = Dataset::new(
            "nan",
            Metric::Euclidean,
            vec![Point::new2(0.0, 0.0), Point::new2(f64::NAN, 1.0)],
        );
    }

    #[test]
    fn try_from_flat_reports_the_offending_coordinate() {
        // (`Point::new` already panics on non-finite input, so the
        // point-based constructor can only hit this via the flat path.)
        let err = Dataset::try_from_flat(
            "inf",
            Metric::Euclidean,
            2,
            vec![0.0, 0.0, 1.0, f64::INFINITY],
        )
        .unwrap_err();
        assert_eq!(
            err,
            DatasetError::NonFinite {
                id: 1,
                dim: 1,
                value: f64::INFINITY
            }
        );
    }

    #[test]
    fn try_from_flat_rejects_nan_neg_inf_and_ragged() {
        let nan = Dataset::try_from_flat("x", Metric::Euclidean, 2, vec![0.0, f64::NAN]);
        assert!(matches!(
            nan.unwrap_err(),
            DatasetError::NonFinite { id: 0, dim: 1, .. }
        ));
        let ninf = Dataset::try_from_flat("x", Metric::Euclidean, 1, vec![f64::NEG_INFINITY, 2.0]);
        assert!(matches!(
            ninf.unwrap_err(),
            DatasetError::NonFinite { id: 0, dim: 0, .. }
        ));
        let ragged = Dataset::try_from_flat("x", Metric::Euclidean, 2, vec![0.0, 1.0, 2.0]);
        assert_eq!(
            ragged.unwrap_err(),
            DatasetError::RaggedBuffer { len: 3, dim: 2 }
        );
        assert_eq!(
            Dataset::try_from_flat("x", Metric::Euclidean, 0, vec![]).unwrap_err(),
            DatasetError::ZeroDim
        );
        assert_eq!(
            Dataset::try_from_flat("x", Metric::Euclidean, 2, vec![]).unwrap_err(),
            DatasetError::Empty
        );
        assert_eq!(
            Dataset::try_new("x", Metric::Euclidean, vec![]).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn renumbering_moves_rows_and_tracks_external_ids() {
        let d = unit_square();
        assert!(d.permutation().is_none());
        let r = d.renumbered(&[2, 0, 3, 1]);
        for (new, &old) in [2usize, 0, 3, 1].iter().enumerate() {
            assert_eq!(r.row(new), d.row(old));
            assert_eq!(r.external_id(new), old);
            assert_eq!(r.internal_id(old), new);
        }
        // Renumbering a renumbered dataset composes back to the original
        // numbering — here, back to the identity (perm normalizes away).
        let back = r.renumbered(&[1, 3, 0, 2]);
        assert!(back.permutation().is_none());
        for id in back.ids() {
            assert_eq!(back.row(id), d.row(id));
        }
    }

    #[test]
    fn identity_renumbering_normalizes_to_no_permutation() {
        let d = unit_square();
        let r = d.renumbered(&[0, 1, 2, 3]);
        assert!(r.permutation().is_none());
        assert_eq!(r.flat_coords(), d.flat_coords());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn renumbering_rejects_non_permutations() {
        let _ = unit_square().renumbered(&[0, 0, 1, 2]);
    }

    #[test]
    fn push_point_tracks_external_ids_and_normalizes_identity() {
        let mut d = unit_square();
        // Appending the "next" external id keeps the identity numbering.
        let internal = d.push_point_external(&[0.5, 0.5], 4).expect("fresh id");
        assert_eq!(internal, 4);
        assert!(d.permutation().is_none());
        assert_eq!(d.row(4), &[0.5, 0.5]);
        // A gap in the external numbering materializes a sparse bijection.
        let internal = d.push_point_external(&[2.0, 2.0], 9).expect("fresh id");
        assert_eq!(internal, 5);
        let p = d.permutation().expect("sparse bijection");
        assert!(!p.is_dense());
        assert_eq!(d.external_id(5), 9);
        assert_eq!(d.internal_id(9), 5);
        // Collisions and malformed rows are typed rejections.
        assert_eq!(
            d.push_point_external(&[0.0, 0.0], 9).unwrap_err(),
            DatasetError::ExternalIdTaken { external: 9 }
        );
        assert!(matches!(
            d.push_point_external(&[1.0], 10).unwrap_err(),
            DatasetError::MixedDim { .. }
        ));
        assert!(matches!(
            d.push_point_external(&[f64::NAN, 0.0], 10).unwrap_err(),
            DatasetError::NonFinite { .. }
        ));
    }

    #[test]
    fn remove_point_compacts_and_tombstones() {
        let mut d = unit_square();
        // Removing the last internal id of an identity numbering keeps it.
        assert_eq!(d.remove_point(3).expect("in range"), 3);
        assert!(d.permutation().is_none());
        assert_eq!(d.len(), 3);
        // A mid removal shifts later rows down and tombstones external 1.
        assert_eq!(d.remove_point(1).expect("in range"), 1);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(1), &[0.0, 1.0], "old internal 2 shifted down");
        assert_eq!(d.external_id(1), 2);
        let p = d.permutation().expect("sparse bijection");
        assert_eq!(p.internal_checked(1), None, "external 1 tombstoned");
        assert_eq!(
            d.remove_point(5).unwrap_err(),
            DatasetError::OutOfRange { id: 5, len: 2 }
        );
        assert_eq!(d.remove_point(0).expect("in range"), 0);
        assert_eq!(
            d.remove_point(0).unwrap_err(),
            DatasetError::Empty,
            "cannot empty a dataset"
        );
    }

    #[test]
    fn push_then_remove_round_trips_through_renumbered_datasets() {
        let d = unit_square().renumbered(&[2, 0, 3, 1]);
        let mut d = d;
        let internal = d.push_point_external(&[5.0, 5.0], 4).expect("fresh id");
        assert_eq!(d.external_id(internal), 4);
        assert_eq!(d.internal_id(4), internal);
        let removed = d.remove_point(0).expect("in range");
        assert_eq!(removed, 2, "internal 0 was external 2 after renumbering");
        assert_eq!(d.internal_id(4), 3, "later internals shifted down");
        assert_eq!(d.external_id(0), 0);
    }

    #[test]
    fn try_constructors_accept_good_input() {
        let d = Dataset::try_from_flat("ok", Metric::Manhattan, 2, vec![0.0, 1.0, 2.0, 3.0])
            .expect("valid buffer");
        assert_eq!(d.len(), 2);
        assert_eq!(d.metric(), Metric::Manhattan);
    }
}
