//! Acceptance/rejection parity for the large-buffer load path.
//!
//! Snapshots past the 1 MiB payload threshold checksum their sections
//! as tasks on one worker per core; smaller ones on the caller's
//! thread. CSRs past 2^17 entries are widened and checked over
//! entry-balanced row ranges, one task each. This suite builds
//! snapshots big enough to take the threaded paths and pins that
//! acceptance, rejection, and error attribution are identical to the
//! one-worker path (which the exhaustive small-snapshot fault suite
//! covers) — the behaviour must not depend on size.

use disc_graph::GraphError;
use disc_store::fault::corrupt;
use disc_store::{
    decode_stream, encode_parts, load, AlignedBytes, Fault, SectionId, SnapshotParts, StoreError,
};

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

/// Objects of the edge corpus.
const PATH_N: usize = 20_000;

/// A symmetric CSR past both cutoffs (2^17 entries, 1 MiB of file): a
/// path over [`PATH_N`] objects, row `v` holding `v - k` and `v + k`
/// (where they exist) at distance `0.01 * k` for `k` in `1..=4`, so
/// every row is `(distance, id)`-sorted.
fn path_csr() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let (mut offsets, mut ids, mut dists) = (vec![0], Vec::new(), Vec::new());
    for v in 0..PATH_N {
        for k in 1..=4 {
            for u in [v.checked_sub(k), Some(v + k).filter(|&u| u < PATH_N)]
                .into_iter()
                .flatten()
            {
                ids.push(u);
                dists.push(0.01 * k as f64);
            }
        }
        offsets.push(ids.len());
    }
    (offsets, ids, dists)
}

/// Seals the CSR into a snapshot (valid checksums) and runs the serving
/// open on it.
fn open_csr(offsets: &[usize], neighbors: &[usize], dists: &[f64]) -> Result<(), StoreError> {
    let coords: Vec<f64> = (0..2 * PATH_N).map(|i| (i % 997) as f64 * 1e-3).collect();
    let bytes = encode_parts(&SnapshotParts {
        name: "parallel-open-corpus",
        metric: disc_metric::Metric::Euclidean,
        dim: 2,
        coords: &coords,
        radius: 0.05,
        offsets,
        neighbors,
        dists,
        ext_ids: None,
    })
    .expect("structurally consistent parts encode");
    assert!(
        bytes.len() > 1 << 20,
        "corpus must cross the 1 MiB threshold"
    );
    let holder = AlignedBytes::copy_from(&bytes);
    assert!(load(holder.as_bytes()).is_ok(), "sealed damage loads");
    let catalog = decode_stream(holder.as_bytes())?;
    assert_eq!(catalog.graph().offsets(), offsets);
    assert_eq!(catalog.graph().neighbors_flat(), neighbors);
    assert_eq!(catalog.graph().dists_flat(), dists);
    Ok(())
}

#[test]
fn clean_large_csr_opens_entry_for_entry() {
    let (offsets, ids, dists) = path_csr();
    assert!(ids.len() > 1 << 17, "corpus must cross the CSR cutoff");
    assert_eq!(open_csr(&offsets, &ids, &dists), Ok(()));
}

#[test]
fn sealed_damage_in_an_early_or_late_range_names_its_entry() {
    let (offsets, ids, dists) = path_csr();
    let graph = |e| Err(StoreError::InvalidGraph(e));
    for row in [100, PATH_N - 100] {
        // The row's second entry, flat index `at`: `row + 1` at 0.01.
        let at = offsets[row] + 1;
        let (mut nan, mut self_loop, mut out_of_range) = (dists.clone(), ids.clone(), ids.clone());
        nan[at] = f64::NAN;
        self_loop[at] = row;
        out_of_range[at] = PATH_N;
        let (mut unsorted, mut unsorted_dists) = (ids.clone(), dists.clone());
        unsorted.swap(at - 1, at);
        unsorted_dists.swap(at - 1, at);
        assert_eq!(
            open_csr(&offsets, &ids, &nan),
            graph(GraphError::DistanceOutOfRange {
                row,
                index: at,
                value: f64::NAN
            })
        );
        assert_eq!(
            open_csr(&offsets, &self_loop, &dists),
            graph(GraphError::SelfLoop { row, index: at })
        );
        assert_eq!(
            open_csr(&offsets, &unsorted, &unsorted_dists),
            graph(GraphError::RowNotSorted { row, index: at })
        );
        assert_eq!(
            open_csr(&offsets, &out_of_range, &dists),
            graph(GraphError::NeighborOutOfRange {
                row,
                index: at,
                id: PATH_N
            })
        );

        // A missing mirror: drop the entry, keep its mirror in row + 1.
        let (mut short_ids, mut short_dists) = (ids.clone(), dists.clone());
        short_ids.remove(at);
        short_dists.remove(at);
        let short_offsets: Vec<usize> = offsets
            .iter()
            .enumerate()
            .map(|(v, &o)| if v > row { o - 1 } else { o })
            .collect();
        let below = short_offsets
            .windows(2)
            .enumerate()
            .map(|(v, w)| short_ids[w[0]..w[1]].iter().filter(|&&u| u < v).count())
            .sum::<usize>();
        assert_eq!(
            open_csr(&short_offsets, &short_ids, &short_dists),
            Err(StoreError::Asymmetric {
                below: below as u64,
                entries: short_ids.len() as u64,
            })
        );
    }
}

#[test]
fn the_earlier_of_two_violations_in_different_ranges_wins() {
    let (offsets, ids, dists) = path_csr();
    let (early, late) = (100, PATH_N - 100);
    let (at_early, at_late) = (offsets[early] + 1, offsets[late] + 1);
    // A late self-loop behind an early NaN, and a late NaN behind an
    // early self-loop: the kind does not matter, the row does.
    let (mut self_loops, mut nans) = (ids.clone(), dists.clone());
    self_loops[at_late] = late;
    nans[at_early] = f64::NAN;
    assert_eq!(
        open_csr(&offsets, &self_loops, &nans),
        Err(StoreError::InvalidGraph(GraphError::DistanceOutOfRange {
            row: early,
            index: at_early,
            value: f64::NAN
        }))
    );
    let (mut self_loops, mut nans) = (ids.clone(), dists.clone());
    self_loops[at_early] = early;
    nans[at_late] = f64::NAN;
    assert_eq!(
        open_csr(&offsets, &self_loops, &nans),
        Err(StoreError::InvalidGraph(GraphError::SelfLoop {
            row: early,
            index: at_early
        }))
    );
}
