//! The failure taxonomy of the snapshot format: every way a byte buffer
//! can fail to be a valid snapshot, as a typed [`StoreError`]. Loading
//! never panics and never silently accepts damaged input — each check in
//! the load pipeline maps to exactly one variant here.

use std::fmt;

use disc_graph::{GraphError, StreamError};
use disc_metric::DatasetError;

/// The checksummed regions of a snapshot file, in file order. Used by
/// [`StoreError::ChecksumMismatch`] to name the damaged region and by the
/// fault-injection helpers to target one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionId {
    /// Bytes `0..48`: magic, version, endian marker, section count,
    /// file length and reserved word (the stored header checksum at
    /// `48..56` guards them).
    Header,
    /// Bytes `56..280`: the seven 32-byte section-table entries (guarded
    /// by the table checksum stored in the header).
    SectionTable,
    /// Snapshot metadata: dimensions, counts, metric tag, radius, name
    /// length.
    Meta,
    /// Row-major point coordinates (`n * dim` f64 values).
    Coords,
    /// CSR row boundaries (`n + 1` u64 values).
    Offsets,
    /// CSR neighbor ids (`edge_total` u32 values, zero-padded to 8
    /// bytes; u64 values in versions 2 and 3).
    Neighbors,
    /// CSR edge distances (`edge_total` f64 values).
    Dists,
    /// Streaming state and the external id of each internal object:
    /// `next_external`, the tombstone count, the tombstones, then `n`
    /// distinct ids (u64 values; version 2 holds only the ids, a
    /// permutation of `0..n`).
    ExtIds,
    /// UTF-8 dataset name, zero-padded to an 8-byte boundary.
    Name,
}

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Header => "header",
            Self::SectionTable => "section table",
            Self::Meta => "meta",
            Self::Coords => "coords",
            Self::Offsets => "offsets",
            Self::Neighbors => "neighbors",
            Self::Dists => "dists",
            Self::ExtIds => "ext ids",
            Self::Name => "name",
        })
    }
}

/// Why a byte buffer was rejected as a snapshot (or could not be
/// assembled into one). Fail-closed: the first failed check wins, and
/// damaged input always surfaces as one of these — never a panic, never
/// a silently wrong [`disc_metric::Dataset`] or
/// [`disc_graph::StratifiedDiskGraph`].
///
/// Equality compares the wrapped errors' `f64` payloads by their bits,
/// so an error that holds a NaN equals itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The buffer is shorter than the format requires — either shorter
    /// than the fixed header, or shorter than the total length the
    /// header promises.
    Truncated {
        /// Bytes the format requires at this point.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// The buffer does not start on an 8-byte boundary, so the zero-copy
    /// `u64`/`f64` views would be misaligned. Load from an
    /// [`crate::AlignedBytes`] buffer instead.
    Misaligned {
        /// `address % 8` of the buffer start (never 0 here).
        addr_mod_8: usize,
    },
    /// The first eight bytes are not the `DISCSNAP` magic — this is not
    /// a snapshot file at all.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The endianness marker does not read back as written: the snapshot
    /// was produced on a machine with different byte order.
    EndianMismatch {
        /// The marker as read on this machine.
        found: u32,
    },
    /// The format version is one this build does not understand.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A checksummed region does not hash to its stored checksum: the
    /// bytes were corrupted in storage or transit.
    ChecksumMismatch {
        /// The damaged region.
        section: SectionId,
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the bytes actually present.
        computed: u64,
    },
    /// The header or section table is structurally inconsistent (wrong
    /// section count, non-contiguous or misaligned section extents,
    /// trailing bytes, malformed name encoding, …) in a way checksums
    /// cannot arise from random corruption — a crafted or buggy writer.
    BadLayout {
        /// Which structural rule was violated.
        detail: &'static str,
    },
    /// A section's length disagrees with the size implied by the meta
    /// section (e.g. the coords section does not hold `n * dim` values —
    /// a dimension mismatch).
    SectionSizeMismatch {
        /// The inconsistent section.
        section: SectionId,
        /// Byte length implied by the meta fields.
        expected: u64,
        /// Byte length recorded in the section table.
        found: u64,
    },
    /// The metric tag is not one of the four known metrics.
    UnknownMetric {
        /// The unrecognised tag.
        tag: u64,
    },
    /// A neighbor id passed to the encoder does not fit the 32 bits the
    /// format stores it in.
    NeighborIdTooWide {
        /// The largest neighbor id.
        id: usize,
    },
    /// Dataset and graph passed to the encoder disagree on the number of
    /// objects.
    VertexCountMismatch {
        /// Objects in the dataset.
        dataset: usize,
        /// Vertices implied by the graph's offsets.
        graph: usize,
    },
    /// The stored coordinates do not form a valid dataset (empty,
    /// non-finite values, …).
    InvalidDataset(DatasetError),
    /// The stored CSR arrays do not form a valid stratified graph
    /// (offset monotonicity, neighbor range, row order, distance range —
    /// see [`GraphError`]).
    InvalidGraph(GraphError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            Self::Misaligned { addr_mod_8 } => write!(
                f,
                "snapshot buffer must start on an 8-byte boundary (address % 8 == {addr_mod_8})"
            ),
            Self::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}: not a DISCSNAP snapshot")
            }
            Self::EndianMismatch { found } => write!(
                f,
                "endianness marker reads 0x{found:08X}: snapshot written with different byte order"
            ),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            Self::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "{section} checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            Self::BadLayout { detail } => write!(f, "malformed snapshot layout: {detail}"),
            Self::SectionSizeMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "{section} section holds {found} bytes but meta implies {expected}"
            ),
            Self::UnknownMetric { tag } => write!(f, "unknown metric tag {tag}"),
            Self::NeighborIdTooWide { id } => {
                write!(f, "neighbor id {id} does not fit in the 32 bits stored")
            }
            Self::VertexCountMismatch { dataset, graph } => write!(
                f,
                "dataset has {dataset} objects but the graph has {graph} vertices"
            ),
            Self::InvalidDataset(e) => write!(f, "stored dataset invalid: {e}"),
            Self::InvalidGraph(e) => write!(f, "stored graph invalid: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidDataset(e) => Some(e),
            Self::InvalidGraph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatasetError> for StoreError {
    fn from(e: DatasetError) -> Self {
        Self::InvalidDataset(e)
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        Self::InvalidGraph(e)
    }
}

impl From<StreamError> for StoreError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Graph(g) => Self::InvalidGraph(g),
            StreamError::Dataset(d) => Self::InvalidDataset(d),
            StreamError::Inconsistent { what } => Self::BadLayout { detail: what },
            StreamError::UnknownExternalId { .. } => Self::BadLayout {
                detail: "streaming state references an unknown external id",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_holding_errors_equal_their_clones() {
        let errors = [
            StoreError::InvalidDataset(DatasetError::NonFinite {
                id: 1,
                dim: 0,
                value: f64::NAN,
            }),
            StoreError::InvalidGraph(GraphError::InvalidRadius(f64::NAN)),
            StoreError::InvalidGraph(GraphError::RadiusExceedsBuild {
                r: f64::NAN,
                r_max: 0.5,
            }),
            StoreError::InvalidGraph(GraphError::DistanceOutOfRange {
                row: 0,
                index: 1,
                value: f64::NAN,
            }),
        ];
        for e in &errors {
            assert_eq!(e, &e.clone());
        }
        // Payloads still tell errors apart.
        assert_ne!(
            StoreError::InvalidGraph(GraphError::InvalidRadius(f64::NAN)),
            StoreError::InvalidGraph(GraphError::InvalidRadius(-1.0))
        );
        assert_ne!(
            StoreError::InvalidGraph(GraphError::SelfLoop { row: 0, index: 1 }),
            StoreError::InvalidGraph(GraphError::RowNotSorted { row: 0, index: 1 })
        );
    }
}
