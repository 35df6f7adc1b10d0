//! Acceptance/rejection parity for the large-buffer load path.
//!
//! Snapshots past the 1 MiB payload threshold checksum their sections
//! as tasks on one worker per core; smaller ones on the caller's
//! thread. This suite builds a snapshot big enough to take the threaded
//! path and pins that acceptance, rejection, and error attribution are
//! identical to the one-worker path (which the exhaustive
//! small-snapshot fault suite covers) — the behaviour must not depend
//! on size.

use disc_store::fault::corrupt;
use disc_store::{encode_parts, load, AlignedBytes, Fault, SectionId, SnapshotParts, StoreError};

/// A > 1 MiB snapshot assembled from raw parts: a big coordinate block
/// dominates, with an empty edge set so no O(n²) build is needed.
fn big_snapshot() -> Vec<u8> {
    let n = 20_000;
    let dim = 8;
    let coords: Vec<f64> = (0..n * dim).map(|i| (i % 977) as f64 * 0.001).collect();
    let offsets = vec![0usize; n + 1];
    let parts = SnapshotParts {
        name: "parallel-load-corpus",
        metric: disc_metric::Metric::Euclidean,
        dim,
        coords: &coords,
        radius: 0.25,
        offsets: &offsets,
        neighbors: &[],
        dists: &[],
        ext_ids: None,
    };
    match encode_parts(&parts) {
        Ok(b) => b,
        Err(e) => unreachable!("valid parts encode: {e}"),
    }
}

fn load_copy(bytes: &[u8]) -> Result<(), StoreError> {
    let holder = AlignedBytes::copy_from(bytes);
    load(holder.as_bytes()).map(|_| ())
}

#[test]
fn clean_large_snapshot_loads() {
    let bytes = big_snapshot();
    assert!(
        bytes.len() > 1 << 20,
        "corpus must cross the 1 MiB threshold"
    );
    let holder = AlignedBytes::copy_from(&bytes);
    let view = match load(holder.as_bytes()) {
        Ok(v) => v,
        Err(e) => unreachable!("clean snapshot must load: {e}"),
    };
    assert_eq!(view.len(), 20_000);
    assert_eq!(view.dim(), 8);
    assert_eq!(view.edge_count(), 0);
    assert_eq!(view.name(), "parallel-load-corpus");
}

#[test]
fn large_snapshot_bit_flips_name_the_owning_section() {
    let bytes = big_snapshot();
    // Offsets computed from the documented layout: payloads start at
    // 280, meta is 48 bytes, coords n*dim*8, offsets (n+1)*8; neighbors
    // and dists are empty, ext ids (2 + n)*8 (next_external, an empty
    // tombstone list, the ids).
    let coords_off = 280 + 48;
    let offsets_off = coords_off + 20_000 * 8 * 8;
    let ext_off = offsets_off + 20_001 * 8;
    let name_off = ext_off + (2 + 20_000) * 8;
    for (section, offset) in [
        (SectionId::Meta, 280 + 7),
        (SectionId::Coords, coords_off + 500_000),
        (SectionId::Offsets, offsets_off + 160_000),
        (SectionId::ExtIds, ext_off + 80_000),
        (SectionId::Name, name_off + 3),
    ] {
        let bad = corrupt(&bytes, Fault::BitFlip { offset, bit: 2 });
        match load_copy(&bad) {
            Err(StoreError::ChecksumMismatch { section: got, .. }) => {
                assert_eq!(got, section, "flip at {offset}")
            }
            other => unreachable!("flip at {offset} must be a {section} mismatch, got {other:?}"),
        }
    }
}

#[test]
fn large_snapshot_truncation_and_version_skew_still_attributed() {
    let bytes = big_snapshot();
    let cut = corrupt(&bytes, Fault::TruncateAt(bytes.len() - 8));
    assert!(matches!(load_copy(&cut), Err(StoreError::Truncated { .. })));
    let skew = corrupt(&bytes, Fault::VersionSkew(7));
    assert!(matches!(
        load_copy(&skew),
        Err(StoreError::UnsupportedVersion { found: 7, .. })
    ));
}

#[test]
fn zeroed_section_checksum_rejected_on_large_path() {
    let bytes = big_snapshot();
    let bad = corrupt(&bytes, Fault::ZeroChecksum(SectionId::Coords));
    assert!(matches!(
        load_copy(&bad),
        Err(StoreError::ChecksumMismatch {
            section: SectionId::Coords,
            ..
        })
    ));
}
