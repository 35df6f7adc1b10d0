//! Snapshot encode and fail-closed load.
//!
//! [`encode`] serialises a [`Dataset`] + [`StratifiedDiskGraph`] pair
//! into the versioned, checksummed byte format described in the crate
//! docs; [`load`] validates a byte buffer outside-in (length →
//! alignment → magic → endianness → header checksum → version → section
//! table → per-section checksums → semantic invariants) and returns a
//! zero-copy [`SnapshotView`] over it. Every rejection is a typed
//! [`StoreError`]; nothing on the load path panics on untrusted bytes.
//!
//! The open of a serving process, [`read_snapshot`] then
//! [`decode_stream`], uses every core on large files: the file is read
//! as disjoint byte ranges with positional reads, the section checksums
//! run one task per section, and the graph is built in one pass over
//! entry-balanced row ranges that widens each stored entry into its
//! final slot and checks it there, symmetry included
//! ([`StratifiedDiskGraph::from_stored_csr`]). Below 1 MiB every step
//! stays on the caller's thread.

use std::fs::File;
use std::io::{self, BufWriter, Cursor, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use disc_graph::{GraphError, StratifiedDiskGraph, StreamingCatalog};
use disc_metric::{tasks, Dataset, IdPermutation, Metric, ObjId};

use crate::cast::{as_f64s, as_u32s, as_u64s, AlignedBytes};
use crate::checksum::{fnv1a_64, word_checksum, WordFold};
use crate::error::{SectionId, StoreError};

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"DISCSNAP";
/// The format version this build writes, the only one: payload
/// sections checksummed with [`word_checksum`], neighbor ids stored as
/// u32, and one ext-ids layout, `[next_external u64][tombstone_count
/// u64][sorted tombstones…][n external ids]` — a dense catalog has
/// `next_external = n` and no tombstones.
pub const VERSION: u32 = 4;
/// Legacy format version 3, which introduced the ext-ids layout above
/// for streaming catalogs (appended external ids + tombstones). Still
/// loads.
pub const STREAM_VERSION: u32 = 3;
/// Legacy format version 2: the ext-ids section is the bare array of
/// `n` external ids, a permutation of `0..n`. Still loads; version-1
/// files are rejected with [`StoreError::UnsupportedVersion`].
pub const DENSE_VERSION: u32 = 2;
/// Endianness sentinel: written native, read native — a snapshot from a
/// machine with different byte order reads back as a different value.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

pub(crate) const HEADER_LEN: usize = 56;
pub(crate) const SECTION_COUNT: usize = 7;
pub(crate) const TABLE_ENTRY_LEN: usize = 32;
/// End of the section table == start of the first section payload.
pub(crate) const TABLE_END: usize = HEADER_LEN + SECTION_COUNT * TABLE_ENTRY_LEN;
const META_LEN: usize = 48;

pub(crate) const OFF_VERSION: usize = 8;
const OFF_ENDIAN: usize = 12;
const OFF_SECTION_COUNT: usize = 16;
pub(crate) const OFF_FILE_LEN: usize = 24;
const OFF_RESERVED: usize = 32;
pub(crate) const OFF_TABLE_CHECKSUM: usize = 40;
pub(crate) const OFF_HEADER_CHECKSUM: usize = 48;

/// Payload sections in file order. Their numeric ids (1-based rank)
/// are stamped into the section table.
pub(crate) const SECTION_ORDER: [SectionId; SECTION_COUNT] = [
    SectionId::Meta,
    SectionId::Coords,
    SectionId::Offsets,
    SectionId::Neighbors,
    SectionId::Dists,
    SectionId::ExtIds,
    SectionId::Name,
];

fn align8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// Versions 2 and 3 checksum their payload sections with FNV-1a and
/// store neighbor ids as u64. Every other version — this build's, and
/// any unknown one a resealed skew stamps — reads with the word
/// checksum and u32 ids, so a skewed file still reads as a version
/// problem, not as damage.
fn is_legacy(version: u32) -> bool {
    version == DENSE_VERSION || version == STREAM_VERSION
}

/// Whether [`load`] reads `version`: the current one or a legacy one.
pub(crate) fn is_supported(version: u32) -> bool {
    version == VERSION || is_legacy(version)
}

/// The payload-section checksum of `version` (see [`is_legacy`]).
pub(crate) fn section_checksum(version: u32, bytes: &[u8]) -> u64 {
    if is_legacy(version) {
        fnv1a_64(bytes)
    } else {
        word_checksum(bytes)
    }
}

/// Below this many bytes one worker reads the file ([`read_snapshot`])
/// and checksums every section ([`load`]): the serial pass beats thread
/// spawns, and the exhaustive bit-flip fault suite (thousands of tiny
/// loads) stays on the caller's thread.
const PARALLEL_MIN_BYTES: usize = 1 << 20;

pub(crate) fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[off..off + 8]);
    u64::from_ne_bytes(a)
}

pub(crate) fn read_u32(bytes: &[u8], off: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&bytes[off..off + 4]);
    u32::from_ne_bytes(a)
}

pub(crate) fn write_u64(bytes: &mut [u8], off: usize, v: u64) {
    bytes[off..off + 8].copy_from_slice(&v.to_ne_bytes());
}

pub(crate) fn write_u32(bytes: &mut [u8], off: usize, v: u32) {
    bytes[off..off + 4].copy_from_slice(&v.to_ne_bytes());
}

fn metric_tag(metric: Metric) -> u64 {
    match metric {
        Metric::Euclidean => 0,
        Metric::Manhattan => 1,
        Metric::Chebyshev => 2,
        Metric::Hamming => 3,
    }
}

fn metric_from_tag(tag: u64) -> Option<Metric> {
    match tag {
        0 => Some(Metric::Euclidean),
        1 => Some(Metric::Manhattan),
        2 => Some(Metric::Chebyshev),
        3 => Some(Metric::Hamming),
        _ => None,
    }
}

/// The raw constituents of a snapshot, borrowed from the caller. The
/// usual entry point is [`encode`]; this struct exists so degenerate
/// states a [`Dataset`] cannot represent (notably `n == 0`) can still
/// round-trip through the format.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotParts<'a> {
    /// Dataset name (UTF-8, stored verbatim).
    pub name: &'a str,
    /// Metric the coordinates are compared under.
    pub metric: Metric,
    /// Dimensionality of each coordinate row.
    pub dim: usize,
    /// Row-major coordinates, `n * dim` values.
    pub coords: &'a [f64],
    /// Build radius of the stratified graph.
    pub radius: f64,
    /// CSR row boundaries, `n + 1` values.
    pub offsets: &'a [usize],
    /// CSR neighbor ids, `offsets[n]` values.
    pub neighbors: &'a [ObjId],
    /// CSR edge distances, `offsets[n]` values.
    pub dists: &'a [f64],
    /// External id of each internal object: a permutation of `0..n`
    /// for [`encode_parts`], distinct live ids for
    /// [`encode_stream_parts`]. `None` writes the identity (an
    /// un-renumbered snapshot).
    pub ext_ids: Option<&'a [ObjId]>,
}

/// Serialises raw snapshot parts as a dense snapshot: `next_external`
/// is `n` and there are no tombstones. Rejects structurally
/// inconsistent parts (mismatched array lengths, invalid radius, ext
/// ids that are not a permutation, a neighbor id past `u32::MAX`) with
/// a typed error; deep semantic validation (row order, neighbor ranges,
/// finiteness) is the load path's job and is re-run on every load.
pub fn encode_parts(parts: &SnapshotParts<'_>) -> Result<Vec<u8>, StoreError> {
    Plan::new(parts, None)?.to_vec()
}

/// Serialises raw snapshot parts plus streaming state (`next_external`
/// and the sorted tombstone list). `parts.ext_ids` holds sparse
/// external ids: distinct, below `next_external`, disjoint from the
/// tombstones, with `n + tombstones.len() == next_external` (every id
/// ever assigned is live or tombstoned).
pub fn encode_stream_parts(
    parts: &SnapshotParts<'_>,
    next_external: ObjId,
    tombstones: &[ObjId],
) -> Result<Vec<u8>, StoreError> {
    Plan::new(parts, Some((next_external, tombstones)))?.to_vec()
}

/// A snapshot that passed every encode-side check, with its section
/// lengths laid out: [`Plan::write_to`] can no longer fail except on
/// I/O. Every writer goes through it, so [`encode`]'s bytes and
/// [`write_snapshot`]'s file are the same by construction.
struct Plan<'a> {
    parts: SnapshotParts<'a>,
    next_external: ObjId,
    tombstones: &'a [ObjId],
    file_len: usize,
}

impl<'a> Plan<'a> {
    /// Rejects structurally inconsistent parts and streaming state;
    /// `None` is a dense catalog's state, `(n, [])`.
    fn new(
        parts: &SnapshotParts<'a>,
        stream: Option<(ObjId, &'a [ObjId])>,
    ) -> Result<Self, StoreError> {
        if parts.offsets.is_empty() {
            return Err(GraphError::EmptyOffsets.into());
        }
        let n = parts.offsets.len() - 1;
        let edge_total = parts.offsets[n];
        if parts.coords.len() != n * parts.dim {
            return Err(StoreError::SectionSizeMismatch {
                section: SectionId::Coords,
                expected: (n * parts.dim * 8) as u64,
                found: (parts.coords.len() * 8) as u64,
            });
        }
        if parts.neighbors.len() != edge_total || parts.dists.len() != edge_total {
            return Err(GraphError::ArrayLengthMismatch {
                expected: edge_total,
                neighbors: parts.neighbors.len(),
                dists: parts.dists.len(),
            }
            .into());
        }
        if !(parts.radius.is_finite() && parts.radius >= 0.0) {
            return Err(GraphError::InvalidRadius(parts.radius).into());
        }
        if let Some(ext) = parts.ext_ids {
            if ext.len() != n {
                return Err(StoreError::SectionSizeMismatch {
                    section: SectionId::ExtIds,
                    expected: (n * 8) as u64,
                    found: (ext.len() * 8) as u64,
                });
            }
        }
        let (next_external, tombstones) = stream.unwrap_or((n, &[]));
        if n + tombstones.len() != next_external {
            return Err(StoreError::BadLayout {
                detail: "live + tombstoned ids do not account for every assigned id",
            });
        }
        // One mark per ever-assigned id catches duplicates and
        // live/tombstone overlap in a single pass.
        let mut seen = vec![false; next_external];
        for (k, &t) in tombstones.iter().enumerate() {
            if k > 0 && tombstones[k - 1] >= t {
                return Err(StoreError::BadLayout {
                    detail: "tombstones are not strictly ascending",
                });
            }
            if t >= next_external {
                return Err(StoreError::BadLayout {
                    detail: "tombstone at or past the next external id",
                });
            }
            seen[t] = true;
        }
        if let Some(ext) = parts.ext_ids {
            for &e in ext {
                if e >= next_external || std::mem::replace(&mut seen[e], true) {
                    return Err(StoreError::BadLayout {
                        detail: "external ids are not distinct live ids below next_external",
                    });
                }
            }
        } else if tombstones.iter().any(|&t| t < n) {
            // The identity's ids 0..n are distinct and below
            // next_external; they can only collide with a tombstone.
            return Err(StoreError::BadLayout {
                detail: "external ids are not distinct live ids below next_external",
            });
        }
        if let Some(&widest) = parts.neighbors.iter().max() {
            if u32::try_from(widest).is_err() {
                return Err(StoreError::NeighborIdTooWide { id: widest });
            }
        }

        let payload_lens = [
            META_LEN,
            parts.coords.len() * 8,
            parts.offsets.len() * 8,
            parts.neighbors.len() * 4,
            parts.dists.len() * 8,
            (2 + tombstones.len() + n) * 8,
            parts.name.len(),
        ];
        Ok(Self {
            parts: *parts,
            next_external,
            tombstones,
            file_len: TABLE_END + payload_lens.map(align8).iter().sum::<usize>(),
        })
    }

    /// The snapshot in memory: [`Plan::write_to`] into a `Vec`.
    fn to_vec(&self) -> Result<Vec<u8>, StoreError> {
        let mut out = Cursor::new(Vec::with_capacity(self.file_len));
        match self.write_to(&mut out) {
            Ok(()) => Ok(out.into_inner()),
            Err(e) => unreachable!("writing into a Vec cannot fail: {e}"),
        }
    }

    /// Streams the snapshot into `out`, which must be positioned at 0:
    /// zeros where the header and section table go, then each section
    /// through a [`CHUNK`]-byte buffer that folds its checksum on the
    /// way, then the header and table. A write cut short leaves zeros
    /// in the magic, so the file fails closed as
    /// [`StoreError::BadMagic`].
    fn write_to<W: Write + Seek>(&self, out: &mut W) -> io::Result<()> {
        let p = &self.parts;
        let n = p.offsets.len() - 1;
        let mut head = [0u8; TABLE_END];
        out.write_all(&head)?;
        let mut sink = SectionSink::new(out);
        let mut off = TABLE_END;
        for (i, section) in SECTION_ORDER.iter().enumerate() {
            match section {
                SectionId::Meta => sink.put_words(&[
                    p.dim as u64,
                    n as u64,
                    metric_tag(p.metric),
                    p.radius.to_bits(),
                    p.offsets[n] as u64,
                    p.name.len() as u64,
                ])?,
                SectionId::Coords => sink.put(p.coords, |v| v.to_bits().to_ne_bytes())?,
                SectionId::Offsets => sink.put_ids(p.offsets)?,
                // Plan::new proved every id fits in 32 bits.
                SectionId::Neighbors => sink.put(p.neighbors, |v| (v as u32).to_ne_bytes())?,
                SectionId::Dists => sink.put(p.dists, |v| v.to_bits().to_ne_bytes())?,
                SectionId::ExtIds => {
                    sink.put_words(&[self.next_external as u64, self.tombstones.len() as u64])?;
                    sink.put_ids(self.tombstones)?;
                    match p.ext_ids {
                        Some(ext) => sink.put_ids(ext)?,
                        None => sink.put_identity(n)?,
                    }
                }
                SectionId::Name => sink.put(p.name.as_bytes(), |b| [b])?,
                SectionId::Header | SectionId::SectionTable => {
                    unreachable!("not payload sections")
                }
            }
            let (len, checksum) = sink.end_section()?;
            let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
            write_u64(&mut head, entry, (i + 1) as u64);
            write_u64(&mut head, entry + 8, off as u64);
            write_u64(&mut head, entry + 16, len as u64);
            write_u64(&mut head, entry + 24, checksum);
            off += len;
        }
        debug_assert_eq!(off, self.file_len);

        head[..8].copy_from_slice(&MAGIC);
        write_u32(&mut head, OFF_VERSION, VERSION);
        write_u32(&mut head, OFF_ENDIAN, ENDIAN_MARKER);
        write_u64(&mut head, OFF_SECTION_COUNT, SECTION_COUNT as u64);
        write_u64(&mut head, OFF_FILE_LEN, self.file_len as u64);
        write_u64(&mut head, OFF_RESERVED, 0);
        let table_checksum = fnv1a_64(&head[HEADER_LEN..TABLE_END]);
        write_u64(&mut head, OFF_TABLE_CHECKSUM, table_checksum);
        let header_checksum = fnv1a_64(&head[..OFF_HEADER_CHECKSUM]);
        write_u64(&mut head, OFF_HEADER_CHECKSUM, header_checksum);
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&head)
    }
}

/// Bytes per streamed write. Sections pass through a buffer this size
/// on their way out, so a write holds one chunk, never the file.
const CHUNK: usize = 1 << 16;

/// Streams one section at a time into `out`, folding the section's
/// checksum over each chunk as it is written.
struct SectionSink<'w, W> {
    out: &'w mut W,
    buf: Vec<u8>,
    fill: usize,
    /// Bytes of the current section already written.
    written: usize,
    checksum: WordFold,
}

impl<'w, W: Write> SectionSink<'w, W> {
    fn new(out: &'w mut W) -> Self {
        Self {
            out,
            buf: vec![0; CHUNK],
            fill: 0,
            written: 0,
            checksum: WordFold::new(),
        }
    }

    /// Appends `values`, each encoded as `N` bytes.
    fn put<T: Copy, const N: usize>(
        &mut self,
        mut values: &[T],
        encode: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        while !values.is_empty() {
            let room = (CHUNK - self.fill) / N;
            if room == 0 {
                self.drain()?;
                continue;
            }
            let (now, rest) = values.split_at(room.min(values.len()));
            let dst = &mut self.buf[self.fill..self.fill + now.len() * N];
            for (d, &v) in dst.chunks_exact_mut(N).zip(now) {
                d.copy_from_slice(&encode(v));
            }
            self.fill += now.len() * N;
            values = rest;
        }
        Ok(())
    }

    fn put_words(&mut self, words: &[u64]) -> io::Result<()> {
        self.put(words, u64::to_ne_bytes)
    }

    fn put_ids(&mut self, ids: &[usize]) -> io::Result<()> {
        self.put(ids, |v| (v as u64).to_ne_bytes())
    }

    /// The identity id map `0..n`, a chunk at a time.
    fn put_identity(&mut self, n: usize) -> io::Result<()> {
        let mut ids = Vec::with_capacity(CHUNK / 8);
        for start in (0..n).step_by(CHUNK / 8) {
            ids.clear();
            ids.extend(start..n.min(start + CHUNK / 8));
            self.put_ids(&ids)?;
        }
        Ok(())
    }

    /// Checksums and writes the buffered bytes.
    fn drain(&mut self) -> io::Result<()> {
        let bytes = &self.buf[..self.fill];
        self.checksum.update(bytes);
        self.out.write_all(bytes)?;
        self.written += self.fill;
        self.fill = 0;
        Ok(())
    }

    /// Zero-pads the section to 8 bytes and writes it out; returns its
    /// padded length and checksum, and starts the next section.
    fn end_section(&mut self) -> io::Result<(usize, u64)> {
        let pad = align8(self.fill) - self.fill;
        self.put(&[0u8; 8][..pad], |b| [b])?;
        self.drain()?;
        let done = (self.written, self.checksum.finish());
        self.written = 0;
        self.checksum = WordFold::new();
        Ok(done)
    }
}

/// Serialises a dataset and the stratified graph built over it.
/// Rejects pairs that disagree on the number of objects or on the
/// internal↔external id permutation (a graph must be snapshotted with
/// the dataset it was built from).
pub fn encode(dataset: &Dataset, graph: &StratifiedDiskGraph) -> Result<Vec<u8>, StoreError> {
    encode_parts(&pair_parts(dataset, graph)?)
}

/// The parts of a dataset/graph pair, once they agree on the object
/// count and the id permutation.
fn pair_parts<'a>(
    dataset: &'a Dataset,
    graph: &'a StratifiedDiskGraph,
) -> Result<SnapshotParts<'a>, StoreError> {
    let graph_n = graph.offsets().len() - 1;
    if dataset.len() != graph_n {
        return Err(StoreError::VertexCountMismatch {
            dataset: dataset.len(),
            graph: graph_n,
        });
    }
    if dataset.permutation().map(Arc::as_ref) != graph.permutation().map(Arc::as_ref) {
        return Err(StoreError::BadLayout {
            detail: "dataset and graph disagree on the id permutation",
        });
    }
    Ok(SnapshotParts {
        name: dataset.name(),
        metric: dataset.metric(),
        dim: dataset.dim(),
        coords: dataset.flat_coords(),
        radius: graph.radius(),
        offsets: graph.offsets(),
        neighbors: graph.neighbors_flat(),
        dists: graph.dists_flat(),
        ext_ids: dataset.permutation().map(|p| p.to_external()),
    })
}

/// Serialises a streaming catalog with its `next_external` and
/// tombstones. A catalog with no streaming state (no tombstones, no
/// appended ids) gives bytes identical to [`encode`] on its
/// dataset/graph pair: there is one ext-ids layout.
pub fn encode_stream(catalog: &StreamingCatalog) -> Result<Vec<u8>, StoreError> {
    let data = catalog.data();
    let graph = catalog.graph();
    let ext: Vec<ObjId> = (0..data.len()).map(|v| graph.external_id(v)).collect();
    encode_stream_parts(
        &SnapshotParts {
            name: data.name(),
            metric: data.metric(),
            dim: data.dim(),
            coords: data.flat_coords(),
            radius: graph.radius(),
            offsets: graph.offsets(),
            neighbors: graph.neighbors_flat(),
            dists: graph.dists_flat(),
            ext_ids: Some(&ext),
        },
        catalog.next_external(),
        catalog.tombstones(),
    )
}

/// A validated, zero-copy view over a snapshot byte buffer. All slice
/// accessors borrow the underlying bytes directly (alignment was
/// verified at load time); [`SnapshotView::dataset`] and
/// [`SnapshotView::graph`] materialise owned values, re-running the
/// full semantic validation of their target types.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotView<'a> {
    name: &'a str,
    metric: Metric,
    dim: usize,
    n: usize,
    radius: f64,
    edge_total: usize,
    version: u32,
    next_external: u64,
    tombstones: &'a [u64],
    coords: &'a [f64],
    offsets: &'a [u64],
    neighbors: NeighborIds<'a>,
    dists: &'a [f64],
    ext_ids: &'a [u64],
}

/// Stored neighbor ids: u64 in versions 2 and 3, u32 since version 4.
#[derive(Clone, Copy, Debug)]
enum NeighborIds<'a> {
    Wide(&'a [u64]),
    Narrow(&'a [u32]),
}

fn to_usize(v: u64, what: &'static str) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_| StoreError::BadLayout { detail: what })
}

/// Fails with `what` when a stored id does not fit a `usize`. The
/// check compiles away where `usize` is 64 bits.
fn check_width(values: &[u64], what: &'static str) -> Result<(), StoreError> {
    if usize::BITS < u64::BITS {
        if let Some(&max) = values.iter().max() {
            to_usize(max, what)?;
        }
    }
    Ok(())
}

/// Widens stored ids to `usize` in one exact-size pass, after
/// [`check_width`].
fn widen(values: &[u64], what: &'static str) -> Result<Vec<usize>, StoreError> {
    check_width(values, what)?;
    Ok(values.iter().map(|&v| v as usize).collect())
}

/// Validates `bytes` as a snapshot and returns a zero-copy view.
///
/// Checks run outside-in so that every failure is attributed to the
/// outermost broken layer: buffer length, 8-byte alignment, magic,
/// endianness marker, header checksum, version, header plausibility,
/// declared file length, table checksum, table layout, then each
/// section (checksum before interpretation, meta first so the expected
/// sizes of the data sections are known). A buffer that passes yields a
/// view whose offsets array is already known to start at 0, be
/// monotone, and end at the meta edge total.
pub fn load(bytes: &[u8]) -> Result<SnapshotView<'_>, StoreError> {
    let addr_mod_8 = bytes.as_ptr().align_offset(8);
    // align_offset reports how far forward the next aligned address is;
    // 0 means already aligned.
    if addr_mod_8 != 0 {
        return Err(StoreError::Misaligned {
            addr_mod_8: 8 - addr_mod_8,
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            needed: HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(StoreError::BadMagic { found });
    }
    let endian = read_u32(bytes, OFF_ENDIAN);
    if endian != ENDIAN_MARKER {
        return Err(StoreError::EndianMismatch { found: endian });
    }
    let stored_header = read_u64(bytes, OFF_HEADER_CHECKSUM);
    let computed_header = fnv1a_64(&bytes[..OFF_HEADER_CHECKSUM]);
    if stored_header != computed_header {
        return Err(StoreError::ChecksumMismatch {
            section: SectionId::Header,
            stored: stored_header,
            computed: computed_header,
        });
    }
    let version = read_u32(bytes, OFF_VERSION);
    if !is_supported(version) {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    if read_u64(bytes, OFF_SECTION_COUNT) != SECTION_COUNT as u64 {
        return Err(StoreError::BadLayout {
            detail: "section count is not 7",
        });
    }
    if read_u64(bytes, OFF_RESERVED) != 0 {
        return Err(StoreError::BadLayout {
            detail: "reserved header word is not zero",
        });
    }
    let file_len = read_u64(bytes, OFF_FILE_LEN);
    if file_len < TABLE_END as u64 {
        return Err(StoreError::BadLayout {
            detail: "declared file length does not cover the section table",
        });
    }
    if (bytes.len() as u64) < file_len {
        return Err(StoreError::Truncated {
            needed: file_len,
            have: bytes.len() as u64,
        });
    }
    if (bytes.len() as u64) > file_len {
        return Err(StoreError::BadLayout {
            detail: "trailing bytes beyond the declared file length",
        });
    }
    let stored_table = read_u64(bytes, OFF_TABLE_CHECKSUM);
    let computed_table = fnv1a_64(&bytes[HEADER_LEN..TABLE_END]);
    if stored_table != computed_table {
        return Err(StoreError::ChecksumMismatch {
            section: SectionId::SectionTable,
            stored: stored_table,
            computed: computed_table,
        });
    }

    // Section table: contiguous 8-byte-granular extents starting right
    // after the table and ending exactly at file_len, ids in file order.
    let mut extents = [(0usize, 0usize); SECTION_COUNT];
    let mut checksums = [0u64; SECTION_COUNT];
    let mut expected_off = TABLE_END as u64;
    for (i, (extent, checksum)) in extents.iter_mut().zip(checksums.iter_mut()).enumerate() {
        let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
        if read_u64(bytes, entry) != (i + 1) as u64 {
            return Err(StoreError::BadLayout {
                detail: "section ids out of order",
            });
        }
        let off = read_u64(bytes, entry + 8);
        let len = read_u64(bytes, entry + 16);
        if off != expected_off {
            return Err(StoreError::BadLayout {
                detail: "section extents are not contiguous",
            });
        }
        if !len.is_multiple_of(8) {
            return Err(StoreError::BadLayout {
                detail: "section length is not 8-byte aligned",
            });
        }
        expected_off = off.checked_add(len).ok_or(StoreError::BadLayout {
            detail: "section extent overflows",
        })?;
        *extent = (
            to_usize(off, "section offset exceeds usize")?,
            to_usize(len, "section length exceeds usize")?,
        );
        *checksum = read_u64(bytes, entry + 24);
    }
    if expected_off != file_len {
        return Err(StoreError::BadLayout {
            detail: "sections do not end at the declared file length",
        });
    }

    // Per-section checksums, one task per section (every extent is in
    // bounds: the sections tile the file). `verify` compares stored vs
    // computed in section order whatever the worker count, so error
    // attribution and precedence do not depend on it.
    let payload = bytes.len() - TABLE_END;
    let workers = if payload < PARALLEL_MIN_BYTES {
        1
    } else {
        tasks::workers(0)
    };
    let sums = tasks::run_tasks(extents.to_vec(), workers, |(off, len)| {
        section_checksum(version, &bytes[off..off + len])
    });
    let verify = |i: usize| -> Result<&[u8], StoreError> {
        let (off, len) = extents[i];
        let region = &bytes[off..off + len];
        let computed = sums[i];
        if checksums[i] != computed {
            return Err(StoreError::ChecksumMismatch {
                section: SECTION_ORDER[i],
                stored: checksums[i],
                computed,
            });
        }
        Ok(region)
    };

    // Meta first: its fields dictate every other section's size.
    let meta = verify(0)?;
    if meta.len() != META_LEN {
        return Err(StoreError::SectionSizeMismatch {
            section: SectionId::Meta,
            expected: META_LEN as u64,
            found: meta.len() as u64,
        });
    }
    let dim_u = read_u64(meta, 0);
    let n_u = read_u64(meta, 8);
    let metric_tag = read_u64(meta, 16);
    let radius = f64::from_bits(read_u64(meta, 24));
    let edge_total_u = read_u64(meta, 32);
    let name_len_u = read_u64(meta, 40);

    let metric =
        metric_from_tag(metric_tag).ok_or(StoreError::UnknownMetric { tag: metric_tag })?;
    if !(radius.is_finite() && radius >= 0.0) {
        return Err(GraphError::InvalidRadius(radius).into());
    }
    let dim = to_usize(dim_u, "dimensionality exceeds usize")?;
    let n = to_usize(n_u, "object count exceeds usize")?;
    let edge_total = to_usize(edge_total_u, "edge count exceeds usize")?;
    let name_len = to_usize(name_len_u, "name length exceeds usize")?;
    if n > 0 && dim == 0 {
        return Err(StoreError::BadLayout {
            detail: "nonzero object count with zero dimensionality",
        });
    }
    let coords_bytes = n_u
        .checked_mul(dim_u)
        .and_then(|v| v.checked_mul(8))
        .ok_or(StoreError::BadLayout {
            detail: "coords size overflows",
        })?;
    let edges_bytes = edge_total_u.checked_mul(8).ok_or(StoreError::BadLayout {
        detail: "edge array size overflows",
    })?;
    // Since version 4, neighbor ids are u32, zero-padded to 8 bytes.
    let neighbors_bytes = if is_legacy(version) {
        edges_bytes
    } else {
        (edges_bytes / 2).div_ceil(8) * 8
    };
    let offsets_bytes =
        n_u.checked_add(1)
            .and_then(|v| v.checked_mul(8))
            .ok_or(StoreError::BadLayout {
                detail: "offsets size overflows",
            })?;
    let ext_ids_bytes = n_u.checked_mul(8).ok_or(StoreError::BadLayout {
        detail: "ext ids size overflows",
    })?;
    // Since version 3 the ext-ids section is `[next_external][count]
    // [tombstones…][ids…]`: its exact size depends on the tombstone
    // count stored *inside* the payload, so only the lower bound is
    // checked here and the exact check runs after the section is read.
    let bare_ext_ids = version == DENSE_VERSION;
    let ext_ids_min = if bare_ext_ids {
        ext_ids_bytes
    } else {
        ext_ids_bytes.checked_add(16).ok_or(StoreError::BadLayout {
            detail: "ext ids size overflows",
        })?
    };
    let expected_sizes: [u64; SECTION_COUNT] = [
        META_LEN as u64,
        coords_bytes,
        offsets_bytes,
        neighbors_bytes,
        edges_bytes,
        ext_ids_min,
        align8(name_len) as u64,
    ];
    for (i, &expected) in expected_sizes.iter().enumerate() {
        let found = extents[i].1 as u64;
        let ok = if !bare_ext_ids && SECTION_ORDER[i] == SectionId::ExtIds {
            found >= expected
        } else {
            found == expected
        };
        if !ok {
            return Err(StoreError::SectionSizeMismatch {
                section: SECTION_ORDER[i],
                expected,
                found,
            });
        }
    }

    let coords = as_f64s(verify(1)?);
    let offsets = as_u64s(verify(2)?);
    let neighbors_region = verify(3)?;
    let dists = as_f64s(verify(4)?);
    let ext_region = as_u64s(verify(5)?);
    let name_region = verify(6)?;

    let neighbors = if is_legacy(version) {
        NeighborIds::Wide(as_u64s(neighbors_region))
    } else {
        let (ids, padding) = as_u32s(neighbors_region).split_at(edge_total);
        if padding.iter().any(|&p| p != 0) {
            return Err(StoreError::BadLayout {
                detail: "neighbor padding is not zero",
            });
        }
        NeighborIds::Narrow(ids)
    };

    // Split the ext-ids payload per version: v2 is the bare id array,
    // later versions prefix the streaming state.
    let (next_external_u, tombstones, ext_ids) = if bare_ext_ids {
        (n_u, &ext_region[..0], ext_region)
    } else {
        let next = ext_region[0];
        let t = to_usize(ext_region[1], "tombstone count exceeds usize")?;
        let expected = (2u64)
            .checked_add(t as u64)
            .and_then(|v| v.checked_add(n_u))
            .and_then(|v| v.checked_mul(8))
            .ok_or(StoreError::BadLayout {
                detail: "ext ids size overflows",
            })?;
        if (ext_region.len() * 8) as u64 != expected {
            return Err(StoreError::SectionSizeMismatch {
                section: SectionId::ExtIds,
                expected,
                found: (ext_region.len() * 8) as u64,
            });
        }
        if n_u + t as u64 != next {
            return Err(StoreError::BadLayout {
                detail: "live + tombstoned ids do not account for every assigned id",
            });
        }
        (next, &ext_region[2..2 + t], &ext_region[2 + t..])
    };

    let name =
        std::str::from_utf8(&name_region[..name_len]).map_err(|_| StoreError::BadLayout {
            detail: "name is not valid UTF-8",
        })?;
    if name_region[name_len..].iter().any(|&b| b != 0) {
        return Err(StoreError::BadLayout {
            detail: "name padding is not zero",
        });
    }

    // Offsets semantics: start at 0, monotone, end at the edge total.
    // These run first, before any entry is read. Neighbor ranges,
    // self-loops, distance ranges, row order and symmetry are checked
    // by StratifiedDiskGraph::from_stored_csr when a graph is
    // materialised, in the one pass that widens the entries; the view
    // only guarantees what its own accessors rely on.
    if offsets[0] != 0 {
        return Err(GraphError::OffsetsStart {
            found: to_usize(offsets[0], "offset exceeds usize")?,
        }
        .into());
    }
    for (row, w) in offsets.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(GraphError::OffsetsNotMonotone { row }.into());
        }
    }
    if offsets[n] != edge_total_u {
        return Err(StoreError::BadLayout {
            detail: "offsets do not end at the meta edge total",
        });
    }

    // Ext-ids semantics, one rule for every version (a version-2
    // file's state is `next_external = n`, no tombstones): distinct
    // ids below next_external, disjoint from the strictly ascending
    // tombstones — together they account for every assigned id
    // (already checked against the meta count above, so the mark array
    // is bounded).
    let next = to_usize(next_external_u, "next external id exceeds usize")?;
    let mut seen = vec![false; next];
    let mut prev: Option<u64> = None;
    for &t in tombstones {
        if prev.is_some_and(|p| p >= t) {
            return Err(StoreError::BadLayout {
                detail: "tombstones are not strictly ascending",
            });
        }
        prev = Some(t);
        let idx = to_usize(t, "tombstone exceeds usize")?;
        if idx >= next {
            return Err(StoreError::BadLayout {
                detail: "tombstone at or past the next external id",
            });
        }
        seen[idx] = true;
    }
    for &e in ext_ids {
        let idx = to_usize(e, "external id exceeds usize")?;
        if idx >= next || std::mem::replace(&mut seen[idx], true) {
            return Err(StoreError::BadLayout {
                detail: "external ids are not distinct live ids below next_external",
            });
        }
    }

    Ok(SnapshotView {
        name,
        metric,
        dim,
        n,
        radius,
        edge_total,
        version,
        next_external: next_external_u,
        tombstones,
        coords,
        offsets,
        neighbors,
        dists,
        ext_ids,
    })
}

impl<'a> SnapshotView<'a> {
    /// Dataset name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Metric tag decoded from the meta section.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Dimensionality of each coordinate row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the snapshot holds zero objects (representable here,
    /// though not by [`Dataset`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Build radius of the stored graph.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_total
    }

    /// Row-major coordinates, borrowed from the snapshot bytes.
    pub fn coords(&self) -> &'a [f64] {
        self.coords
    }

    /// CSR row boundaries as stored (u64), borrowed from the snapshot
    /// bytes. Guaranteed to start at 0, be monotone and end at
    /// [`SnapshotView::edge_count`].
    pub fn offsets_raw(&self) -> &'a [u64] {
        self.offsets
    }

    /// CSR edge distances, borrowed from the snapshot bytes.
    pub fn dists(&self) -> &'a [f64] {
        self.dists
    }

    /// External id of each internal object as stored (u64), borrowed
    /// from the snapshot bytes: distinct ids below
    /// [`SnapshotView::next_external`] — for a dense snapshot a
    /// permutation of `0..len`, the identity when un-renumbered.
    pub fn ext_ids_raw(&self) -> &'a [u64] {
        self.ext_ids
    }

    /// Format version of the loaded snapshot (2, 3 or 4).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether the snapshot carries streaming state: tombstones, or
    /// external ids appended past `len`.
    pub fn is_streaming(&self) -> bool {
        !self.tombstones.is_empty() || self.next_external != self.n as u64
    }

    /// The next external id a streaming insert would assign. Equals
    /// [`SnapshotView::len`] for a dense snapshot.
    pub fn next_external(&self) -> u64 {
        self.next_external
    }

    /// Tombstoned external ids, strictly ascending (empty for a dense
    /// snapshot), borrowed from the snapshot bytes.
    pub fn tombstones_raw(&self) -> &'a [u64] {
        self.tombstones
    }

    /// Materialises the stored internal↔external id bijection; `None`
    /// when the stored ids are the identity.
    pub fn permutation(&self) -> Result<Option<Arc<IdPermutation>>, StoreError> {
        // Sparse: ids may exceed n (appended) and leave holes
        // (tombstones); load() proved distinctness.
        match IdPermutation::try_new_sparse(widen(self.ext_ids, "external id exceeds usize")?) {
            Ok(p) if p.is_identity() => Ok(None),
            Ok(p) => Ok(Some(Arc::new(p))),
            // load() already proved the permutation property; an empty
            // snapshot (n == 0) is the only way to get here.
            Err(_) => Ok(None),
        }
    }

    /// Materialises the full streaming catalog: dataset and graph
    /// sharing one permutation, re-wrapped with the stored
    /// `next_external` and tombstones and re-validated by
    /// [`StreamingCatalog::from_parts`]. Works on version-2 snapshots
    /// too (no tombstones, dense ids), so one open path serves every
    /// version.
    pub fn catalog(&self) -> Result<StreamingCatalog, StoreError> {
        let perm = self.permutation()?;
        let dataset = self.dataset_with(perm.clone())?;
        let graph = self.graph_with(perm)?;
        let next = to_usize(self.next_external, "next external id exceeds usize")?;
        let tombstones = widen(self.tombstones, "tombstone exceeds usize")?;
        StreamingCatalog::from_parts(dataset, graph, next, tombstones).map_err(StoreError::from)
    }

    /// Materialises the stored dataset, re-running [`Dataset`]'s own
    /// construction validation (rejects `n == 0` snapshots and
    /// non-finite coordinates with a typed error), with the stored id
    /// permutation attached.
    pub fn dataset(&self) -> Result<Dataset, StoreError> {
        self.dataset_with(self.permutation()?)
    }

    /// [`SnapshotView::dataset`] with the permutation already
    /// materialised, so one decode builds it once.
    fn dataset_with(&self, perm: Option<Arc<IdPermutation>>) -> Result<Dataset, StoreError> {
        let data = Dataset::try_from_flat(self.name, self.metric, self.dim, self.coords.to_vec())?;
        Ok(data.with_permutation(perm))
    }

    /// Materialises the stored graph through
    /// [`StratifiedDiskGraph::from_stored_csr`]: one pass over
    /// entry-balanced row ranges, in parallel on large graphs, widens
    /// each stored entry into the graph's own arrays and re-validates it
    /// there (neighbor range, self-loops, distance range, row order),
    /// failing closed on the first violation in row order. The same
    /// pass checks symmetry: a CSR with an entry whose mirror is missing
    /// fails with [`StoreError::Asymmetric`]. The stored id permutation
    /// is attached to the result.
    pub fn graph(&self) -> Result<StratifiedDiskGraph, StoreError> {
        self.graph_with(self.permutation()?)
    }

    /// [`SnapshotView::graph`] with the permutation already
    /// materialised, so one decode builds it once.
    fn graph_with(
        &self,
        perm: Option<Arc<IdPermutation>>,
    ) -> Result<StratifiedDiskGraph, StoreError> {
        let offsets = widen(self.offsets, "offset exceeds usize")?;
        let (radius, dists) = (self.radius, self.dists);
        let graph = match self.neighbors {
            NeighborIds::Wide(ids) => {
                check_width(ids, "neighbor id exceeds usize")?;
                StratifiedDiskGraph::from_stored_csr(radius, offsets, ids, dists)
            }
            NeighborIds::Narrow(ids) => {
                StratifiedDiskGraph::from_stored_csr(radius, offsets, ids, dists)
            }
        };
        match graph {
            Ok(g) => Ok(g.with_permutation(perm)),
            Err(GraphError::Asymmetric { below, entries }) => Err(StoreError::Asymmetric {
                below: below as u64,
                entries: entries as u64,
            }),
            Err(e) => Err(e.into()),
        }
    }
}

/// Validates `bytes` and materialises both stored values in one step.
/// Dataset and graph share one [`IdPermutation`] allocation.
pub fn decode(bytes: &[u8]) -> Result<(Dataset, StratifiedDiskGraph), StoreError> {
    let view = load(bytes)?;
    let perm = view.permutation()?;
    Ok((view.dataset_with(perm.clone())?, view.graph_with(perm)?))
}

/// Validates `bytes` and materialises the streaming catalog in one
/// step — the open path of a serving process that accepts inserts and
/// deletes. Accepts every version [`load`] does.
pub fn decode_stream(bytes: &[u8]) -> Result<StreamingCatalog, StoreError> {
    load(bytes)?.catalog()
}

/// Encodes and writes a snapshot to `path`, returning the byte length
/// written. Every encode check runs before the file is created, so an
/// encoding failure (surfaced as an `InvalidData` I/O error) leaves an
/// existing file untouched. The write streams through one
/// 64 KiB buffer: the bytes are [`encode`]'s, but the file is
/// never held in memory.
pub fn write_snapshot(
    path: impl AsRef<Path>,
    dataset: &Dataset,
    graph: &StratifiedDiskGraph,
) -> io::Result<u64> {
    let invalid = |e: StoreError| io::Error::new(io::ErrorKind::InvalidData, e);
    let parts = pair_parts(dataset, graph).map_err(invalid)?;
    let plan = Plan::new(&parts, None).map_err(invalid)?;
    let mut out = BufWriter::with_capacity(CHUNK, File::create(path)?);
    plan.write_to(&mut out)?;
    out.flush()?;
    Ok(plan.file_len as u64)
}

/// Reads a snapshot file to EOF straight into an 8-byte-aligned buffer,
/// ready for [`load`]. The buffer is the only copy of the file: there is
/// no intermediate `Vec<u8>`. From 1 MiB (`PARALLEL_MIN_BYTES`) up, one
/// worker per core fills its own byte range with positional reads; the
/// bytes are a serial read's, also when the file's length changes after
/// it was probed, so a short file still reaches [`load`]'s
/// [`StoreError::Truncated`]. Validation is the caller's next step;
/// this function only does I/O.
pub fn read_snapshot(path: impl AsRef<Path>) -> io::Result<AlignedBytes> {
    let file = File::open(path)?;
    let size_hint = file
        .metadata()
        .ok()
        .and_then(|m| usize::try_from(m.len()).ok())
        .unwrap_or(0);
    let workers = if size_hint < PARALLEL_MIN_BYTES {
        1
    } else {
        tasks::workers(0)
    };
    AlignedBytes::read_file(&file, size_hint, workers)
}
