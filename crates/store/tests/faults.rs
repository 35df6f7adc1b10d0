//! Fault-injection suite: every documented damage class, applied to a
//! real snapshot, must surface as exactly the mapped [`StoreError`]
//! variant — never a panic, never a silently wrong load. The bit-flip
//! test is exhaustive: *every* bit of a small snapshot is flipped once,
//! in the current format and in one legacy fixture of each older
//! version (`tests/fixtures/`).

use disc_graph::{GraphError, StratifiedDiskGraph};
use disc_metric::{Dataset, Metric, Point};
use disc_mtree::{MTree, MTreeConfig};
use disc_store::fault::{corrupt, stored_checksum};
use disc_store::{
    decode, decode_stream, encode, encode_parts, fnv1a_64, inspect, load, word_checksum,
    write_snapshot, AlignedBytes, Fault, SectionId, SnapshotParts, StoreError, DENSE_VERSION,
    STREAM_VERSION, VERSION,
};
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

fn random_data(n: usize, seed: u64, metric: Metric) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| {
            if metric == Metric::Hamming {
                Point::categorical(&[
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                ])
            } else {
                Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
            }
        })
        .collect();
    Dataset::new("fault-corpus", metric, pts)
}

/// A small but fully populated snapshot: every section non-empty, the
/// name length not a multiple of 8 so the name padding is exercised.
fn small_snapshot() -> (Dataset, StratifiedDiskGraph, Vec<u8>) {
    let data = random_data(16, 99, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::default());
    let graph = StratifiedDiskGraph::from_mtree(&tree, 0.5);
    assert!(graph.offsets()[data.len()] > 0, "corpus needs edges");
    let bytes = encode(&data, &graph).expect("encode valid pair");
    (data, graph, bytes)
}

/// Loads through an aligned holder, as file-read callers do.
fn load_copy(bytes: &[u8]) -> Result<(), StoreError> {
    let holder = AlignedBytes::copy_from(bytes);
    load(holder.as_bytes()).map(|_| ())
}

/// A legacy snapshot written by an older build (see CHANGES.md).
fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Section extents recomputed from the documented layout of `version`,
/// so the test does not trust the (possibly corrupted) table it is
/// checking.
fn section_extents(
    version: u32,
    data: &Dataset,
    graph: &StratifiedDiskGraph,
    tombstones: usize,
) -> Vec<(SectionId, usize, usize)> {
    let n = data.len();
    let e = graph.offsets()[n];
    let align8 = |x: usize| x.div_ceil(8) * 8;
    let (neighbor_bytes, ext_words) = match version {
        DENSE_VERSION => (8, n),
        STREAM_VERSION => (8, 2 + tombstones + n),
        _ => (4, 2 + tombstones + n),
    };
    let lens = [
        (SectionId::Meta, 48),
        (SectionId::Coords, n * data.dim() * 8),
        (SectionId::Offsets, (n + 1) * 8),
        (SectionId::Neighbors, align8(e * neighbor_bytes)),
        (SectionId::Dists, e * 8),
        (SectionId::ExtIds, ext_words * 8),
        (SectionId::Name, align8(data.name().len())),
    ];
    let mut off = 280;
    lens.map(|(s, len)| {
        let extent = (s, off, len);
        off += len;
        extent
    })
    .to_vec()
}

#[test]
fn intact_round_trip_is_byte_identical_with_graph_parity() {
    let data = random_data(300, 7, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::default());
    let graph = StratifiedDiskGraph::from_mtree(&tree, 0.3);
    let bytes = encode(&data, &graph).expect("encode");

    let view = load(&bytes).expect("intact snapshot loads");
    assert_eq!(view.name(), data.name());
    assert_eq!(view.metric(), data.metric());
    assert_eq!(view.dim(), data.dim());
    assert_eq!(view.len(), data.len());
    assert_eq!(view.radius(), graph.radius());
    assert_eq!(view.edge_count(), graph.offsets()[data.len()]);

    let (data2, graph2) = decode(&bytes).expect("decode");
    assert_eq!(graph2, graph, "loaded graph is byte-identical");
    assert_eq!(
        data2
            .flat_coords()
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        data.flat_coords()
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    );

    // Parity pins survive the load: every stored row still carries the
    // exact tree distances, and views at smaller radii agree with a
    // graph rebuilt from the tree at that radius.
    for v in graph2.vertices() {
        for (&u, &d) in graph2.neighbors(v).iter().zip(graph2.dists(v)) {
            assert_eq!(d.to_bits(), data.dist(v, u).to_bits(), "({v}, {u})");
        }
    }
    for r in [0.0, 0.1, 0.22, 0.3] {
        let direct = StratifiedDiskGraph::from_mtree(&tree, r);
        let view = graph2.view(r);
        for v in graph2.vertices() {
            assert_eq!(view.neighbors(v), direct.neighbors(v), "v={v} r'={r}");
        }
    }

    // Save-of-load reproduces the file byte for byte.
    let bytes2 = encode(&data2, &graph2).expect("re-encode");
    assert_eq!(bytes2, bytes);
}

#[test]
fn every_single_bit_flip_is_detected_and_mapped() {
    let (data, graph, bytes) = small_snapshot();
    let mut inputs = vec![(
        "current".to_string(),
        section_extents(VERSION, &data, &graph, 0),
        bytes,
    )];
    for (name, version) in [
        ("v2_hamming.snap", DENSE_VERSION),
        ("v3_hamming.snap", STREAM_VERSION),
    ] {
        let bytes = fixture(name);
        let cat = decode_stream(AlignedBytes::copy_from(&bytes).as_bytes()).expect("fixture");
        let extents = section_extents(version, cat.data(), cat.graph(), cat.tombstones().len());
        inputs.push((name.to_string(), extents, bytes));
    }

    for (input, extents, bytes) in &inputs {
        assert_eq!(
            extents.last().map(|&(_, off, len)| off + len),
            Some(bytes.len()),
            "{input}: extent reconstruction must tile the file"
        );
        let owner = |offset: usize| -> SectionId {
            match offset {
                0..=55 => SectionId::Header,
                56..=279 => SectionId::SectionTable,
                _ => {
                    extents
                        .iter()
                        .find(|&&(_, off, len)| offset >= off && offset < off + len)
                        .expect("every payload byte belongs to a section")
                        .0
                }
            }
        };

        for offset in 0..bytes.len() {
            for bit in 0..8u8 {
                let damaged = corrupt(bytes, Fault::BitFlip { offset, bit });
                let err = load_copy(&damaged).expect_err("flipped bit must be detected");
                match offset {
                    0..=7 => assert!(
                        matches!(err, StoreError::BadMagic { .. }),
                        "{input} byte {offset} bit {bit}: {err:?}"
                    ),
                    12..=15 => assert!(
                        matches!(err, StoreError::EndianMismatch { .. }),
                        "{input} byte {offset} bit {bit}: {err:?}"
                    ),
                    _ => {
                        let section = owner(offset);
                        assert!(
                            matches!(err, StoreError::ChecksumMismatch { section: s, .. } if s == section),
                            "{input} byte {offset} bit {bit}: expected {section} checksum mismatch, got {err:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn truncation_at_every_length_is_detected() {
    let (_, _, bytes) = small_snapshot();
    for keep in 0..bytes.len() {
        let damaged = corrupt(&bytes, Fault::TruncateAt(keep));
        let err = load_copy(&damaged).expect_err("truncation must be detected");
        let StoreError::Truncated { needed, have } = err else {
            panic!("truncate at {keep}: {err:?}");
        };
        assert_eq!(have, keep as u64);
        let expected_need = if keep < 56 { 56 } else { bytes.len() as u64 };
        assert_eq!(needed, expected_need, "truncate at {keep}");
    }
}

#[test]
fn version_skew_is_rejected_as_unsupported() {
    let (_, _, bytes) = small_snapshot();
    for skew in [0, 1, VERSION + 1, u32::MAX] {
        let damaged = corrupt(&bytes, Fault::VersionSkew(skew));
        assert_eq!(
            load_copy(&damaged).expect_err("skewed version must be rejected"),
            StoreError::UnsupportedVersion {
                found: skew,
                supported: VERSION,
            }
        );
    }
}

#[test]
fn dense_payload_stamped_as_streaming_is_rejected() {
    // Stamping a v2 file's header with version 3 reinterprets the bare
    // ext-ids array as `[next_external][count][…]` — the size equation
    // `2 + tombstones + n` can no longer hold, so the load fails closed
    // instead of inventing streaming state.
    let bytes = fixture("v2_euclidean.snap");
    load_copy(&bytes).expect("the v2 fixture loads");
    let damaged = corrupt(&bytes, Fault::VersionSkew(STREAM_VERSION));
    let err = load_copy(&damaged).expect_err("v2 payload under a v3 header must be rejected");
    assert!(
        matches!(
            err,
            StoreError::SectionSizeMismatch {
                section: SectionId::ExtIds,
                ..
            } | StoreError::BadLayout { .. }
        ),
        "unexpected error: {err:?}"
    );
}

#[test]
fn zeroed_checksums_are_rejected_per_section() {
    let (_, _, bytes) = small_snapshot();
    for section in [
        SectionId::Header,
        SectionId::SectionTable,
        SectionId::Meta,
        SectionId::Coords,
        SectionId::Offsets,
        SectionId::Neighbors,
        SectionId::Dists,
        SectionId::ExtIds,
        SectionId::Name,
    ] {
        assert_ne!(stored_checksum(&bytes, section), 0, "{section}");
        let damaged = corrupt(&bytes, Fault::ZeroChecksum(section));
        let err = load_copy(&damaged).expect_err("zeroed checksum must be rejected");
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch {
                    section: s,
                    stored: 0,
                    ..
                } if s == section
            ),
            "{section}: {err:?}"
        );
    }
}

#[test]
fn misaligned_buffers_are_rejected() {
    let (_, _, bytes) = small_snapshot();
    let padded = corrupt(&bytes, Fault::Misalign);
    let holder = AlignedBytes::copy_from(&padded);
    let err = load(&holder.as_bytes()[1..]).expect_err("misaligned start must be rejected");
    assert_eq!(err, StoreError::Misaligned { addr_mod_8: 1 });
}

#[test]
fn trailing_bytes_are_rejected() {
    let (_, _, mut bytes) = small_snapshot();
    bytes.extend_from_slice(&[0u8; 8]);
    assert_eq!(
        load_copy(&bytes).expect_err("trailing bytes must be rejected"),
        StoreError::BadLayout {
            detail: "trailing bytes beyond the declared file length"
        }
    );
}

/// Tampers with one 8-byte word inside a payload section and re-seals
/// every checksum layer, modelling a buggy writer rather than transport
/// corruption: structural loading succeeds or fails on semantics, not
/// checksums.
fn tamper_sealed(bytes: &[u8], offset: usize, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[offset..offset + 8].copy_from_slice(&value.to_ne_bytes());
    // Re-seal the owning section's stored checksum, then table, then
    // header (layout documented in the crate docs).
    let mut start = 280usize;
    for entry in 0..7usize {
        let e = 56 + entry * 32;
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&out[e + 16..e + 24]);
        let len = u64::from_ne_bytes(len8) as usize;
        if offset >= start && offset < start + len {
            let sum = word_checksum(&out[start..start + len]);
            out[e + 24..e + 32].copy_from_slice(&sum.to_ne_bytes());
        }
        start += len;
    }
    let table = fnv1a_64(&out[56..280]);
    out[40..48].copy_from_slice(&table.to_ne_bytes());
    let header = fnv1a_64(&out[..48]);
    out[48..56].copy_from_slice(&header.to_ne_bytes());
    out
}

#[test]
fn crafted_semantic_damage_is_rejected_with_typed_errors() {
    let (data, graph, bytes) = small_snapshot();
    let extents = section_extents(VERSION, &data, &graph, 0);
    let extent = |want: SectionId| -> (usize, usize) {
        extents
            .iter()
            .find(|&&(s, _, _)| s == want)
            .map(|&(_, off, len)| (off, len))
            .expect("section present")
    };

    // Unknown metric tag (meta word 2).
    let (meta_off, _) = extent(SectionId::Meta);
    let damaged = tamper_sealed(&bytes, meta_off + 16, 7);
    assert_eq!(
        load_copy(&damaged).expect_err("unknown metric"),
        StoreError::UnknownMetric { tag: 7 }
    );

    // Negative radius (meta word 3).
    let damaged = tamper_sealed(&bytes, meta_off + 24, (-0.5f64).to_bits());
    assert_eq!(
        load_copy(&damaged).expect_err("negative radius"),
        StoreError::InvalidGraph(GraphError::InvalidRadius(-0.5))
    );

    // Non-monotone offsets: bump row 1's boundary past row 2's.
    let (off_off, _) = extent(SectionId::Offsets);
    let huge = graph.offsets()[data.len()] as u64 + 1;
    let damaged = tamper_sealed(&bytes, off_off + 8, huge);
    assert!(
        matches!(
            load_copy(&damaged).expect_err("non-monotone offsets"),
            StoreError::InvalidGraph(GraphError::OffsetsNotMonotone { .. })
        ),
        "offset monotonicity must be validated at load"
    );

    // NaN coordinate: loads structurally, but the dataset view fails
    // closed with the dataset's own typed error.
    let (coords_off, _) = extent(SectionId::Coords);
    let damaged = tamper_sealed(&bytes, coords_off, f64::NAN.to_bits());
    let holder = AlignedBytes::copy_from(&damaged);
    let view = load(holder.as_bytes()).expect("structure is intact");
    assert!(matches!(
        view.dataset().expect_err("NaN coordinate"),
        StoreError::InvalidDataset(disc_metric::DatasetError::NonFinite { id: 0, dim: 0, .. })
    ));

    // Duplicate external id: rejected at load, before materialisation.
    // The ids follow `[next_external][tombstone count]`.
    let ids_off = extent(SectionId::ExtIds).0 + 16;
    let mut second = [0u8; 8];
    second.copy_from_slice(&bytes[ids_off + 8..ids_off + 16]);
    let damaged = tamper_sealed(&bytes, ids_off, u64::from_ne_bytes(second));
    assert_eq!(
        load_copy(&damaged).expect_err("duplicate external id"),
        StoreError::BadLayout {
            detail: "external ids are not distinct live ids below next_external"
        }
    );

    // Out-of-range distance: graph materialisation fails closed.
    let (dists_off, _) = extent(SectionId::Dists);
    let damaged = tamper_sealed(&bytes, dists_off, 2.0f64.to_bits());
    let holder = AlignedBytes::copy_from(&damaged);
    let view = load(holder.as_bytes()).expect("structure is intact");
    assert!(matches!(
        view.graph().expect_err("distance beyond radius"),
        StoreError::InvalidGraph(GraphError::DistanceOutOfRange { .. })
    ));

    // Nonzero neighbor padding. It needs an odd entry count: two
    // objects and one directed edge, from raw parts (load does not
    // require a symmetric CSR). The neighbors section is then one u32
    // id and four bytes of padding, after meta (48), coords (2 × 2 × 8)
    // and offsets (3 × 8).
    let odd = encode_parts(&SnapshotParts {
        name: "odd",
        metric: Metric::Euclidean,
        dim: 2,
        coords: &[0.0, 0.0, 0.1, 0.0],
        radius: 0.5,
        offsets: &[0, 1, 1],
        neighbors: &[1],
        dists: &[0.1],
        ext_ids: None,
    })
    .expect("odd entry count encodes");
    load_copy(&odd).expect("intact odd snapshot loads");
    let neighbors_off = 280 + 48 + 32 + 24;
    assert_eq!(
        stored_checksum(&odd, SectionId::Neighbors),
        word_checksum(&odd[neighbors_off..neighbors_off + 8])
    );
    let mut padded = [0u8; 8];
    padded.copy_from_slice(&[1u32.to_ne_bytes(), 7u32.to_ne_bytes()].concat());
    let damaged = tamper_sealed(&odd, neighbors_off, u64::from_ne_bytes(padded));
    assert_eq!(
        load_copy(&damaged).expect_err("nonzero padding"),
        StoreError::BadLayout {
            detail: "neighbor padding is not zero"
        }
    );
}

#[test]
fn doctor_verdict_is_the_serving_open_verdict() {
    // Sealed damage that only materialisation catches: every checksum
    // is valid and `load` accepts each file, but the serving open
    // (`decode_stream`) builds the dataset, graph and catalog and
    // rejects it. `inspect`'s verdict must be that rejection.
    let coords = [0.0, 0.0, 0.1, 0.0, 0.3, 0.0];
    let neighbors = [1, 2, 0, 2, 1, 0];
    let dists = [0.1, 0.3, 0.1, 0.2, 0.2, 0.3];
    let snapshot = |coords: &[f64], neighbors: &[usize], dists: &[f64]| {
        encode_parts(&SnapshotParts {
            name: "verdict",
            metric: Metric::Euclidean,
            dim: 2,
            coords,
            radius: 0.5,
            offsets: &[0, 2, 4, 6],
            neighbors,
            dists,
            ext_ids: None,
        })
        .expect("structurally consistent parts encode")
    };
    let intact = AlignedBytes::copy_from(&snapshot(&coords, &neighbors, &dists));
    assert_eq!(inspect(intact.as_bytes()).verdict, Ok(()));

    let mut nan = coords;
    nan[2] = f64::NAN;
    let (mut unsorted, mut unsorted_dists) = (neighbors, dists);
    unsorted.swap(0, 1);
    unsorted_dists.swap(0, 1);
    let mut out_of_range = neighbors;
    out_of_range[3] = 3;
    let mut self_loop = neighbors;
    self_loop[0] = 0;
    let mut too_far = dists;
    too_far[1] = 0.9;
    // Each case names the open's error by its Debug prefix.
    let cases = [
        (
            "InvalidDataset(NonFinite { id: 1",
            snapshot(&nan, &neighbors, &dists),
        ),
        (
            "InvalidGraph(RowNotSorted { row: 0",
            snapshot(&coords, &unsorted, &unsorted_dists),
        ),
        (
            "InvalidGraph(NeighborOutOfRange { row: 1, index: 3, id: 3",
            snapshot(&coords, &out_of_range, &dists),
        ),
        (
            "InvalidGraph(SelfLoop { row: 0",
            snapshot(&coords, &self_loop, &dists),
        ),
        (
            "InvalidGraph(DistanceOutOfRange { row: 0, index: 1",
            snapshot(&coords, &neighbors, &too_far),
        ),
    ];
    for (expected, bytes) in cases {
        let holder = AlignedBytes::copy_from(&bytes);
        let bytes = holder.as_bytes();
        assert!(load(bytes).is_ok(), "{expected}: checksummed layout intact");
        let open = decode_stream(bytes).map(|_| ());
        assert!(
            format!("{open:?}").starts_with(&format!("Err({expected}")),
            "{open:?}"
        );
        assert_eq!(inspect(bytes).verdict, open);
    }
}

#[test]
fn encode_rejects_inconsistent_inputs() {
    let data = random_data(8, 3, Metric::Euclidean);
    let other = random_data(5, 4, Metric::Euclidean);
    let tree = MTree::build(&other, MTreeConfig::default());
    let graph = StratifiedDiskGraph::from_mtree(&tree, 0.4);
    assert_eq!(
        encode(&data, &graph).expect_err("vertex count mismatch"),
        StoreError::VertexCountMismatch {
            dataset: 8,
            graph: 5,
        }
    );

    // The file writer runs the same checks before creating the file,
    // so a rejected pair leaves an existing file byte-identical.
    let dir = std::env::temp_dir().join("disc-store-faults");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("untouched-{}.snap", std::process::id()));
    let (_, _, before) = small_snapshot();
    std::fs::write(&path, &before).expect("seed file");
    let err = write_snapshot(&path, &data, &graph).expect_err("vertex count mismatch");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        err.get_ref().and_then(|e| e.downcast_ref::<StoreError>()),
        Some(&StoreError::VertexCountMismatch {
            dataset: 8,
            graph: 5,
        })
    );
    assert_eq!(std::fs::read(&path).expect("file still there"), before);
    std::fs::remove_file(&path).ok();
}
