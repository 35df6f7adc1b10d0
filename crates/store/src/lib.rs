//! Fail-closed persistence for DisC diversity state: a
//! [`disc_metric::Dataset`] plus the [`disc_graph::StratifiedDiskGraph`]
//! built over it, serialised into one versioned, checksummed,
//! 8-byte-aligned snapshot. The expensive artefact is the graph — one
//! distance-annotated self-join at `r_max` — and a snapshot lets a later
//! process resume zooming at any radius without recomputing it.
//!
//! The design rule is *fail closed*: a snapshot either loads into
//! exactly the bytes that were saved, or loading returns a typed
//! [`StoreError`] naming the first broken layer. No panic on untrusted
//! bytes, no silent acceptance of damage, no "best effort" partial
//! loads.
//!
//! # On-disk layout (version 4)
//!
//! All multi-byte fields are **native-endian**; the endianness marker
//! fails closed on foreign-endian snapshots (the format targets
//! same-machine persistence and homogeneous clusters, like an mmap'd
//! index file). Every section starts on an **8-byte boundary**, which is
//! what makes the zero-copy `u64`/`u32`/`f64` views of [`SnapshotView`]
//! sound.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic "DISCSNAP"
//!      8     4  version (u32, currently 4)
//!     12     4  endianness marker (u32, 0x0A0B0C0D)
//!     16     8  section count (u64, currently 7)
//!     24     8  total file length in bytes (u64)
//!     32     8  reserved (u64, must be 0)
//!     40     8  FNV-1a 64 checksum of the section table (bytes 56..280)
//!     48     8  FNV-1a 64 checksum of the header (bytes 0..48)
//!     56   224  section table: 7 entries x 32 bytes, each
//!               { id: u64, offset: u64, len: u64, checksum: u64 }
//!    280     -  section payloads, contiguous, each 8-byte aligned
//! ```
//!
//! Sections, in file order (ids 1–7):
//!
//! | id | section   | contents                                          |
//! |----|-----------|---------------------------------------------------|
//! | 1  | meta      | dim, n, metric tag, radius bits, edge total, name length (6 × u64) |
//! | 2  | coords    | row-major coordinates, `n * dim` × f64            |
//! | 3  | offsets   | CSR row boundaries, `n + 1` × u64                 |
//! | 4  | neighbors | CSR neighbor ids, `edge_total` × u32, zero-padded to 8 bytes |
//! | 5  | dists     | CSR edge distances, `edge_total` × f64            |
//! | 6  | ext ids   | `next_external`, tombstone count `t`, `t` ascending tombstones, then the external id of each internal object (`n`), all u64 |
//! | 7  | name      | UTF-8 dataset name, zero-padded to 8 bytes        |
//!
//! The ext-ids section persists the internal↔external bijection of
//! renumbered builds (see `disc_metric::Dataset::renumbered`) and the
//! streaming state of a [`disc_graph::StreamingCatalog`]: every id ever
//! assigned is live or tombstoned, so `n + t == next_external`. A dense
//! catalog has `next_external = n` and no tombstones; [`decode`]
//! re-attaches the ids to both the dataset and the graph. Neighbor ids
//! are stored in 32 bits and widened to `usize` on decode: [`encode`]
//! fails closed with [`StoreError::NeighborIdTooWide`] rather than
//! truncate one, and nonzero padding after an odd id count is a
//! [`StoreError::BadLayout`].
//!
//! # Versions
//!
//! [`VERSION`] 4 is the only version written. [`load`] still reads:
//!
//! - version 3 ([`STREAM_VERSION`]): the same ext-ids layout, u64
//!   neighbor ids, payload sections checksummed with FNV-1a;
//! - version 2 ([`DENSE_VERSION`]): as version 3, but the ext-ids
//!   section is the bare permutation of `0..n`.
//!
//! The version alone selects the section checksum and the neighbor id
//! width: versions 2 and 3 use FNV-1a and u64 ids, any other version
//! the word checksum and u32 ids. So a resealed file skewed to an
//! unknown version still reads as [`StoreError::UnsupportedVersion`],
//! and [`inspect`] reports its sections as intact. The header and table
//! checksums are FNV-1a in every version: the header checksum is
//! verified before the version is trusted. Version-1 files fail closed
//! with [`StoreError::UnsupportedVersion`].
//!
//! Section `len` is the **padded** length, so the extents tile the file
//! exactly from byte 280 to `file_len` with no gaps: every byte of the
//! file is covered by exactly one checksum (header bytes by the header
//! checksum, the stored header checksum by being compared against a
//! recomputation, table bytes by the table checksum, payload and
//! padding bytes by their section checksum). Each checksum folds its
//! input — bytes for FNV-1a, 64-bit words for [`word_checksum`]'s eight
//! lanes — with an XOR and a multiplication by an odd constant, each a
//! bijection of the state, so a change confined to one byte (FNV-1a) or
//! one word (the word checksum) always changes the result. A single-bit
//! flip is such a change: **every single-bit flip anywhere in a
//! snapshot is detected**, and the fault-injection suite proves it
//! exhaustively for small snapshots of every readable version.
//!
//! # Failure taxonomy
//!
//! Checks run outside-in; the first broken layer names the error.
//!
//! | damage                                         | error                                     |
//! |------------------------------------------------|-------------------------------------------|
//! | buffer shorter than header or declared length  | [`StoreError::Truncated`]                 |
//! | buffer not starting on an 8-byte boundary      | [`StoreError::Misaligned`]                |
//! | first 8 bytes are not `DISCSNAP`               | [`StoreError::BadMagic`]                  |
//! | endianness marker reads back wrong             | [`StoreError::EndianMismatch`]            |
//! | bit flip in header bytes 8..12 or 16..56       | [`StoreError::ChecksumMismatch`] (header) |
//! | consistent file with a version other than 2–4  | [`StoreError::UnsupportedVersion`]        |
//! | bit flip in the section table                  | [`StoreError::ChecksumMismatch`] (table)  |
//! | bit flip in a section payload or its padding   | [`StoreError::ChecksumMismatch`] (section)|
//! | crafted table/meta inconsistencies, nonzero neighbor padding | [`StoreError::BadLayout`] / [`StoreError::SectionSizeMismatch`] |
//! | unknown metric tag                             | [`StoreError::UnknownMetric`]             |
//! | stored coordinates invalid as a dataset        | [`StoreError::InvalidDataset`]            |
//! | stored CSR invalid as a graph (offsets, order) | [`StoreError::InvalidGraph`]              |
//!
//! # Typical use
//!
//! ```
//! use disc_metric::{Dataset, Metric, Point};
//! use disc_graph::StratifiedDiskGraph;
//!
//! let data = Dataset::new(
//!     "demo",
//!     Metric::Euclidean,
//!     vec![Point::new2(0.0, 0.0), Point::new2(0.5, 0.0), Point::new2(2.0, 0.0)],
//! );
//! let graph = StratifiedDiskGraph::build(&data, 1.0);
//!
//! let bytes = disc_store::encode(&data, &graph).unwrap();
//! let view = disc_store::load(&bytes).unwrap();
//! assert_eq!(view.len(), 3);
//! let (data2, graph2) = disc_store::decode(&bytes).unwrap();
//! assert_eq!(graph2, graph);
//! assert_eq!(data2.flat_coords(), data.flat_coords());
//! ```
//!
//! File I/O round-trips through [`write_snapshot`] / [`read_snapshot`].
//! The writer streams each section through a fixed-size buffer, so
//! [`encode`]'s bytes and the file are the same by construction and a
//! write never holds the file in memory. The reader reads straight into
//! an [`AlignedBytes`] buffer, the file's one copy: `Vec<u8>` from
//! `std::fs::read` carries no alignment guarantee.
//!
//! The [`fault`] module provides the corruption harness ([`Fault`],
//! [`fault::corrupt`]) used by the fault-injection test suite, and the
//! [`report`] module the non-fail-fast triage ([`inspect`]) behind the
//! `disc doctor` operator tool — same layout knowledge, but it reports
//! *every* determinable problem instead of stopping at the first, with
//! a verdict pinned to [`load`]'s.

mod cast;
mod checksum;
mod error;
pub mod fault;
pub mod report;
mod snapshot;

pub use cast::AlignedBytes;
pub use checksum::{fnv1a_64, word_checksum};
pub use error::{SectionId, StoreError};
pub use fault::Fault;
pub use report::{inspect, SectionCheck, SnapshotReport};
pub use snapshot::{
    decode, decode_stream, encode, encode_parts, encode_stream, encode_stream_parts, load,
    read_snapshot, write_snapshot, SnapshotParts, SnapshotView, DENSE_VERSION, ENDIAN_MARKER,
    MAGIC, STREAM_VERSION, VERSION,
};
