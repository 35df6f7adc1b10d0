//! Non-fail-fast snapshot triage: the machinery behind `disc doctor`.
//!
//! [`load`](crate::load) stops at the first broken layer — the right
//! behaviour for a serving process, the wrong one for an operator
//! holding a damaged file who wants to know *everything* that is wrong
//! with it. [`inspect`] reads the same layout but keeps going: it
//! reports the magic/version/endianness diagnosis, the truncation point
//! if the buffer is shorter than the header promises, and a
//! stored-vs-computed checksum line for every checksummed region that
//! is present (header, section table, and each of the seven payload
//! sections). Payload sections are checksummed the way
//! [`load`](crate::load) does for the stamped version: FNV-1a for
//! versions 2 and 3, the word checksum for any other, so a resealed
//! skew to an unknown version reads as a version problem, not as
//! damage.
//!
//! The [`SnapshotReport::verdict`] field is computed by calling
//! [`decode_stream`] on the same bytes: the serving open, which runs
//! [`load`](crate::load) and then rebuilds and re-validates the
//! dataset, graph and catalog. So a doctor report can never disagree
//! with what a serving process would accept or reject; the triage
//! detail is additive, not a second opinion. The price is memory: the
//! verdict materialises the catalog, so doctor peaks about where the
//! serving open does.

use crate::checksum::fnv1a_64;
use crate::error::{SectionId, StoreError};
use crate::snapshot::{
    decode_stream, is_supported, read_u32, read_u64, section_checksum, ENDIAN_MARKER, HEADER_LEN,
    MAGIC, OFF_FILE_LEN, OFF_HEADER_CHECKSUM, OFF_TABLE_CHECKSUM, SECTION_COUNT, SECTION_ORDER,
    TABLE_END, TABLE_ENTRY_LEN,
};

const OFF_ENDIAN: usize = 12;
const OFF_VERSION: usize = 8;

/// One checksummed region of the file: where it is, what checksum the
/// file stores for it, and what the bytes actually hash to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionCheck {
    /// Which region this line describes.
    pub section: SectionId,
    /// Byte offset of the region.
    pub offset: u64,
    /// Byte length of the region (padded length for payload sections).
    pub len: u64,
    /// Checksum stored in the file for this region.
    pub stored: u64,
    /// Checksum computed over the bytes present; `None` when the region
    /// extends past the end of the buffer (truncation), in which case
    /// there is nothing meaningful to hash.
    pub computed: Option<u64>,
}

impl SectionCheck {
    /// Whether the region's bytes hash to the stored checksum.
    pub fn ok(&self) -> bool {
        self.computed == Some(self.stored)
    }
}

/// Everything [`inspect`] can determine about a snapshot buffer without
/// stopping at the first problem.
#[derive(Clone, Debug)]
pub struct SnapshotReport {
    /// Bytes actually present.
    pub have: u64,
    /// Whether the first eight bytes are the `DISCSNAP` magic (`false`
    /// also when the buffer is shorter than eight bytes).
    pub magic_ok: bool,
    /// Version stamped in the header, when the header bytes exist.
    pub version: Option<u32>,
    /// Endianness marker as read on this machine, when present.
    pub endian: Option<u32>,
    /// Total file length the header declares, when present.
    pub declared_len: Option<u64>,
    /// `Some(declared)` when the buffer holds fewer bytes than the
    /// header declares — the truncation point is `have`.
    pub truncated_to: Option<u64>,
    /// Checksum lines for every region whose extent is known: header
    /// and section table first, then the seven payload sections in file
    /// order (payload lines require a readable section table).
    pub checks: Vec<SectionCheck>,
    /// The fail-fast [`decode_stream`] outcome on the same bytes —
    /// exactly what a serving process would do with this file.
    pub verdict: Result<(), StoreError>,
}

impl SnapshotReport {
    /// Whether the snapshot is fully healthy (the serving open accepted
    /// it).
    pub fn is_clean(&self) -> bool {
        self.verdict.is_ok()
    }

    /// Sections whose checksum line failed (missing bytes count as
    /// failed).
    pub fn broken_sections(&self) -> Vec<SectionId> {
        self.checks
            .iter()
            .filter(|c| !c.ok())
            .map(|c| c.section)
            .collect()
    }

    /// Whether the version is one this build reads: the current one,
    /// or legacy 2 or 3.
    pub fn version_ok(&self) -> bool {
        self.version.is_some_and(is_supported)
    }

    /// Whether the endianness marker reads back as written.
    pub fn endian_ok(&self) -> bool {
        self.endian == Some(ENDIAN_MARKER)
    }
}

/// Checksums the region `[off, off + len)` with `checksum` if it lies
/// inside `bytes`.
fn check_region(
    bytes: &[u8],
    section: SectionId,
    off: u64,
    len: u64,
    stored: u64,
    checksum: impl Fn(&[u8]) -> u64,
) -> SectionCheck {
    let computed = off
        .checked_add(len)
        .filter(|&end| end <= bytes.len() as u64)
        .map(|end| checksum(&bytes[off as usize..end as usize]));
    SectionCheck {
        section,
        offset: off,
        len,
        stored,
        computed,
    }
}

/// Triage a snapshot buffer: every determinable diagnosis, no fail-fast.
///
/// Never panics on damaged bytes — regions that are missing are reported
/// as such instead of indexed out of bounds. The fixed layout (header
/// at 0..56, section table at 56..280) is assumed for *locating*
/// regions; whether the contents make sense is what the checks report.
pub fn inspect(bytes: &[u8]) -> SnapshotReport {
    let have = bytes.len() as u64;
    let magic_ok = bytes.len() >= 8 && bytes[..8] == MAGIC;
    let header_present = bytes.len() >= HEADER_LEN;
    let version = header_present.then(|| read_u32(bytes, OFF_VERSION));
    let endian = header_present.then(|| read_u32(bytes, OFF_ENDIAN));
    let declared_len = header_present.then(|| read_u64(bytes, OFF_FILE_LEN));
    let truncated_to = declared_len.filter(|&declared| have < declared);

    let mut checks = Vec::with_capacity(2 + SECTION_COUNT);
    if header_present {
        checks.push(check_region(
            bytes,
            SectionId::Header,
            0,
            OFF_HEADER_CHECKSUM as u64,
            read_u64(bytes, OFF_HEADER_CHECKSUM),
            fnv1a_64,
        ));
        checks.push(check_region(
            bytes,
            SectionId::SectionTable,
            HEADER_LEN as u64,
            (TABLE_END - HEADER_LEN) as u64,
            read_u64(bytes, OFF_TABLE_CHECKSUM),
            fnv1a_64,
        ));
    }
    if let Some(version) = version.filter(|_| bytes.len() >= TABLE_END) {
        for (i, &section) in SECTION_ORDER.iter().enumerate() {
            let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let off = read_u64(bytes, entry + 8);
            let len = read_u64(bytes, entry + 16);
            let stored = read_u64(bytes, entry + 24);
            checks.push(check_region(bytes, section, off, len, stored, |region| {
                section_checksum(version, region)
            }));
        }
    }

    SnapshotReport {
        have,
        magic_ok,
        version,
        endian,
        declared_len,
        truncated_to,
        checks,
        verdict: decode_stream(bytes).map(|_| ()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt, Fault};
    use crate::{encode, load, AlignedBytes};
    use disc_graph::StratifiedDiskGraph;
    use disc_metric::{Dataset, Metric, Point};

    fn snapshot() -> Vec<u8> {
        let data = Dataset::new(
            "report-test",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(0.3, 0.0),
                Point::new2(0.0, 0.4),
                Point::new2(2.0, 2.0),
            ],
        );
        let graph = StratifiedDiskGraph::build(&data, 1.0);
        match encode(&data, &graph) {
            Ok(b) => b,
            Err(e) => unreachable!("valid inputs encode: {e}"),
        }
    }

    #[test]
    fn clean_snapshot_reports_clean() {
        let bytes = AlignedBytes::copy_from(&snapshot());
        let report = inspect(bytes.as_bytes());
        assert!(report.is_clean());
        assert!(report.magic_ok);
        assert!(report.version_ok());
        assert!(report.endian_ok());
        assert_eq!(report.truncated_to, None);
        assert_eq!(report.checks.len(), 2 + SECTION_COUNT);
        assert!(report.checks.iter().all(SectionCheck::ok));
        assert!(report.broken_sections().is_empty());
        assert_eq!(report.declared_len, Some(report.have));
    }

    #[test]
    fn payload_bit_flip_names_exactly_the_owning_section() {
        let bytes = snapshot();
        // Flip a byte inside the coords payload: section index 1, whose
        // extent starts at TABLE_END + 48 (meta is 48 bytes).
        let coords_off = TABLE_END + 48;
        let bad = AlignedBytes::copy_from(&corrupt(
            &bytes,
            Fault::BitFlip {
                offset: coords_off + 3,
                bit: 5,
            },
        ));
        let report = inspect(bad.as_bytes());
        assert!(!report.is_clean());
        assert_eq!(report.broken_sections(), vec![SectionId::Coords]);
        // The verdict agrees with load's attribution.
        match report.verdict {
            Err(StoreError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, SectionId::Coords)
            }
            ref other => unreachable!("expected coords checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_reports_point_and_missing_sections() {
        let bytes = snapshot();
        let keep = bytes.len() - 16;
        let cut = AlignedBytes::copy_from(&corrupt(&bytes, Fault::TruncateAt(keep)));
        let report = inspect(cut.as_bytes());
        assert!(!report.is_clean());
        assert_eq!(report.truncated_to, Some(bytes.len() as u64));
        assert_eq!(report.have, keep as u64);
        // The final section's bytes are gone: no computed checksum.
        let last = match report.checks.last() {
            Some(c) => c,
            None => unreachable!("header checks are present"),
        };
        assert_eq!(last.computed, None);
        assert!(!last.ok());
    }

    #[test]
    fn version_skew_is_diagnosed_not_checksum_blamed() {
        let bytes = snapshot();
        let skew = AlignedBytes::copy_from(&corrupt(&bytes, Fault::VersionSkew(9)));
        let report = inspect(skew.as_bytes());
        assert!(!report.is_clean());
        assert!(!report.version_ok());
        assert_eq!(report.version, Some(9));
        // Reseal means every checksum line still passes: the diagnosis
        // is the version, not damage.
        assert!(report.checks.iter().all(SectionCheck::ok));
        assert!(matches!(
            report.verdict,
            Err(StoreError::UnsupportedVersion { found: 9, .. })
        ));
    }

    #[test]
    fn garbage_and_short_buffers_never_panic() {
        let empty = AlignedBytes::copy_from(&[]);
        let report = inspect(empty.as_bytes());
        assert!(!report.magic_ok);
        assert_eq!(report.version, None);
        assert!(report.checks.is_empty());
        assert!(!report.is_clean());

        let junk = AlignedBytes::copy_from(&[0xAB; 64]);
        let report = inspect(junk.as_bytes());
        assert!(!report.magic_ok);
        assert!(!report.is_clean());
    }

    #[test]
    fn verdict_always_equals_load() {
        // Damage `load` catches stops the serving open at the same
        // error, so the verdict is load's.
        let bytes = snapshot();
        let faults = [
            Fault::BitFlip { offset: 10, bit: 0 },
            Fault::TruncateAt(100),
            Fault::VersionSkew(2),
            Fault::ZeroChecksum(SectionId::Dists),
        ];
        for fault in faults {
            let bad = AlignedBytes::copy_from(&corrupt(&bytes, fault));
            let report = inspect(bad.as_bytes());
            assert_eq!(
                report.verdict,
                load(bad.as_bytes()).map(|_| ()),
                "{fault:?}"
            );
        }
    }
}
