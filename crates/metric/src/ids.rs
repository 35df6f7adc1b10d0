//! Internal-vs-external object numbering.
//!
//! ## The id contract
//!
//! Locality-aware renumbering (objects relabeled by M-tree leaf order so
//! CSR fills and adjacency scans touch near-contiguous rows) splits the
//! id space in two:
//!
//! * **internal ids** — positions in a (possibly renumbered) [`Dataset`]'s
//!   coordinate buffer. Everything that indexes arrays uses these: the
//!   M-tree, the self-join's edges, the CSR graphs, the runners' color /
//!   count / heap state.
//! * **external ids** — the numbering the caller handed the original
//!   dataset in. Everything that crosses the API boundary uses these:
//!   runner solution vectors, snapshot contents, serve-wire hashes.
//!
//! An [`IdPermutation`] is the bijection between the two. A dataset (and
//! the graphs derived from it) optionally carries one; `None` means the
//! two numberings coincide. Layers translate exactly once, at the
//! boundary — runners *emit* external ids and *internalize* external
//! inputs on entry, so no intermediate layer ever mixes the spaces.
//!
//! [`Dataset`]: crate::Dataset

use std::fmt;

use crate::ObjId;

/// The ways a claimed permutation vector can fail to be one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PermutationError {
    /// The vector was empty.
    Empty,
    /// `value` at `index` is outside `0..len`.
    OutOfRange {
        /// Position of the offending entry.
        index: usize,
        /// The offending value.
        value: ObjId,
        /// Length of the vector (the exclusive value bound).
        len: usize,
    },
    /// `value` appears more than once (second occurrence at `index`).
    Duplicate {
        /// Position of the second occurrence.
        index: usize,
        /// The repeated value.
        value: ObjId,
    },
}

impl fmt::Display for PermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => f.write_str("permutation must map at least one id"),
            Self::OutOfRange { index, value, len } => {
                write!(f, "permutation entry {index} is {value}, outside 0..{len}")
            }
            Self::Duplicate { index, value } => {
                write!(f, "permutation repeats id {value} (at entry {index})")
            }
        }
    }
}

impl std::error::Error for PermutationError {}

/// A bijection between internal ids (dataset/graph array positions) and
/// external ids (the caller's original numbering). See the
/// [module docs](self) for who uses which side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdPermutation {
    /// `to_external[internal] == external`.
    to_external: Vec<ObjId>,
    /// `to_internal[external] == internal` — the inverse, precomputed so
    /// both directions are O(1).
    to_internal: Vec<ObjId>,
}

impl IdPermutation {
    /// Builds the bijection from its internal-to-external side,
    /// validating that the vector is a permutation of `0..len`.
    pub fn try_new(to_external: Vec<ObjId>) -> Result<Self, PermutationError> {
        let n = to_external.len();
        if n == 0 {
            return Err(PermutationError::Empty);
        }
        if let Some((index, &value)) = to_external.iter().enumerate().find(|(_, &v)| v >= n) {
            return Err(PermutationError::OutOfRange {
                index,
                value,
                len: n,
            });
        }
        Self::try_new_sparse(to_external)
    }

    /// Builds a *sparse* bijection: internal ids are still `0..len`, but
    /// the external side may be any set of distinct ids — the streaming
    /// id space, where deletions tombstone external ids (leaving holes)
    /// and insertions append fresh ids at and beyond the original `n`.
    /// Only duplicates are rejected; [`IdPermutation::is_dense`] reports
    /// whether the result happens to be a permutation of `0..len` (the
    /// only shape the legacy snapshot format v2 can persist).
    pub fn try_new_sparse(to_external: Vec<ObjId>) -> Result<Self, PermutationError> {
        let n = to_external.len();
        if n == 0 {
            return Err(PermutationError::Empty);
        }
        let max = to_external.iter().copied().max().unwrap_or(0);
        let mut to_internal = vec![usize::MAX; max + 1];
        for (index, &value) in to_external.iter().enumerate() {
            if to_internal[value] != usize::MAX {
                return Err(PermutationError::Duplicate { index, value });
            }
            to_internal[value] = index;
        }
        Ok(Self {
            to_external,
            to_internal,
        })
    }

    /// Whether the external side is exactly a permutation of `0..len`
    /// (no holes, no appended ids). Dense permutations are what
    /// [`IdPermutation::try_new`] accepts and what the legacy snapshot
    /// format v2 persists; a streaming catalog that has deleted or
    /// appended objects goes sparse, which formats v3 and v4 persist.
    pub fn is_dense(&self) -> bool {
        self.to_internal.len() == self.to_external.len()
    }

    /// The largest external id mapped.
    pub fn max_external(&self) -> ObjId {
        self.to_internal.len() - 1
    }

    /// Whether `external` is mapped by this bijection.
    pub fn contains_external(&self, external: ObjId) -> bool {
        external < self.to_internal.len() && self.to_internal[external] != usize::MAX
    }

    /// A copy with `external` appended as the external id of the next
    /// internal id (`len()`). Rejects an already-mapped external id as
    /// [`PermutationError::Duplicate`].
    pub fn appended(&self, external: ObjId) -> Result<Self, PermutationError> {
        if self.contains_external(external) {
            return Err(PermutationError::Duplicate {
                index: self.to_internal[external],
                value: external,
            });
        }
        let mut ext = self.to_external.clone();
        ext.push(external);
        Self::try_new_sparse(ext)
    }

    /// A copy with internal id `internal` removed: later internal ids
    /// shift down by one (matching a compacting delete in the dataset
    /// and graph), the removed external id becomes unmapped. Returns
    /// `None` when removing the last entry (an empty bijection is not
    /// representable) or when `internal` is out of range.
    pub fn removed(&self, internal: ObjId) -> Option<Self> {
        if internal >= self.len() || self.len() == 1 {
            return None;
        }
        let mut ext = self.to_external.clone();
        ext.remove(internal);
        match Self::try_new_sparse(ext) {
            Ok(p) => Some(p),
            // Removing an entry cannot introduce a duplicate.
            Err(_) => unreachable!("removal preserves distinctness"),
        }
    }

    /// Number of ids mapped.
    pub fn len(&self) -> usize {
        self.to_external.len()
    }

    /// Whether the permutation maps no ids (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.to_external.is_empty()
    }

    /// Whether the permutation is the identity (callers normalize this
    /// case to "no permutation").
    pub fn is_identity(&self) -> bool {
        self.to_external.iter().enumerate().all(|(i, &e)| i == e)
    }

    /// External id of `internal`.
    #[inline]
    pub fn external(&self, internal: ObjId) -> ObjId {
        self.to_external[internal]
    }

    /// Internal id of `external`. For sparse bijections prefer
    /// [`IdPermutation::internal_checked`]: an unmapped external id
    /// panics here (out of range) or returns an unusable sentinel (a
    /// tombstoned hole).
    #[inline]
    pub fn internal(&self, external: ObjId) -> ObjId {
        self.to_internal[external]
    }

    /// Internal id of `external`, or `None` when the external id is not
    /// mapped (tombstoned or never assigned).
    #[inline]
    pub fn internal_checked(&self, external: ObjId) -> Option<ObjId> {
        let v = *self.to_internal.get(external)?;
        (v != usize::MAX).then_some(v)
    }

    /// The full internal-to-external side (index = internal id).
    pub fn to_external(&self) -> &[ObjId] {
        &self.to_external
    }

    /// The full external-to-internal side (index = external id).
    pub fn to_internal(&self) -> &[ObjId] {
        &self.to_internal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_directions_invert_each_other() {
        let p = IdPermutation::try_new(vec![2, 0, 3, 1]).expect("valid permutation");
        assert_eq!(p.len(), 4);
        assert!(!p.is_identity());
        for internal in 0..4 {
            assert_eq!(p.internal(p.external(internal)), internal);
        }
        assert_eq!(p.to_external(), &[2, 0, 3, 1]);
        assert_eq!(p.to_internal(), &[1, 3, 0, 2]);
    }

    #[test]
    fn identity_is_detected() {
        let p = IdPermutation::try_new(vec![0, 1, 2]).expect("valid permutation");
        assert!(p.is_identity());
        let q = IdPermutation::try_new(vec![0, 2, 1]).expect("valid permutation");
        assert!(!q.is_identity());
    }

    #[test]
    fn sparse_bijections_allow_holes_and_appended_ids() {
        // Externals {7, 0, 3}: a hole-y streaming id space.
        let p = IdPermutation::try_new_sparse(vec![7, 0, 3]).expect("distinct externals");
        assert!(!p.is_dense());
        assert_eq!(p.max_external(), 7);
        assert_eq!(p.external(0), 7);
        assert_eq!(p.internal_checked(7), Some(0));
        assert_eq!(p.internal_checked(3), Some(2));
        assert_eq!(p.internal_checked(1), None, "tombstoned hole");
        assert_eq!(p.internal_checked(99), None, "beyond the mapped range");
        assert!(p.contains_external(0) && !p.contains_external(2));
        // Dense inputs stay dense through the sparse constructor.
        let d = IdPermutation::try_new_sparse(vec![2, 0, 1]).expect("dense");
        assert!(d.is_dense());
        assert_eq!(
            IdPermutation::try_new_sparse(vec![5, 5]).unwrap_err(),
            PermutationError::Duplicate { index: 1, value: 5 }
        );
    }

    #[test]
    fn append_and_remove_maintain_the_bijection() {
        let p = IdPermutation::try_new(vec![1, 0, 2]).expect("valid");
        let q = p.appended(9).expect("fresh external id");
        assert_eq!(q.len(), 4);
        assert_eq!(q.external(3), 9);
        assert_eq!(q.internal_checked(9), Some(3));
        assert!(!q.is_dense());
        assert!(matches!(
            q.appended(9),
            Err(PermutationError::Duplicate { value: 9, .. })
        ));
        // Removing internal 0 (external 1) shifts later internals down.
        let r = q.removed(0).expect("mid removal");
        assert_eq!(r.to_external(), &[0, 2, 9]);
        assert_eq!(r.internal_checked(1), None, "external 1 tombstoned");
        assert_eq!(r.internal_checked(9), Some(2));
        assert!(q.removed(17).is_none(), "out of range");
        let last = IdPermutation::try_new(vec![0]).expect("singleton");
        assert!(last.removed(0).is_none(), "cannot empty the bijection");
    }

    #[test]
    fn invalid_vectors_are_rejected_with_typed_errors() {
        assert_eq!(
            IdPermutation::try_new(vec![]).unwrap_err(),
            PermutationError::Empty
        );
        assert_eq!(
            IdPermutation::try_new(vec![0, 3]).unwrap_err(),
            PermutationError::OutOfRange {
                index: 1,
                value: 3,
                len: 2
            }
        );
        assert_eq!(
            IdPermutation::try_new(vec![1, 1, 0]).unwrap_err(),
            PermutationError::Duplicate { index: 1, value: 1 }
        );
    }
}
