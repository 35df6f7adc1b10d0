//! Degenerate-shape round trips: the corners most likely to break a
//! binary format (empty arrays, single objects, zero radius, duplicate
//! points) must survive save → load → save with bitwise identity on
//! offsets, neighbors and dists, under all four metrics.

use disc_graph::StratifiedDiskGraph;
use disc_metric::{Dataset, DatasetError, Metric, Point};
use disc_mtree::{MTree, MTreeConfig};
use disc_store::{decode, encode, encode_parts, load, SnapshotParts, StoreError};

const METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

fn point(metric: Metric, a: f64) -> Point {
    if metric == Metric::Hamming {
        Point::categorical(&[a as u32, 1, 2])
    } else {
        Point::new2(a, a * 0.5)
    }
}

/// Bitwise round-trip assertion: decode reproduces the CSR arrays
/// exactly, and a re-encode of the decoded pair reproduces the file.
fn assert_round_trip(data: &Dataset, graph: &StratifiedDiskGraph) {
    let bytes = encode(data, graph).expect("encode");
    let (data2, graph2) = decode(&bytes).expect("decode");
    assert_eq!(graph2.offsets(), graph.offsets());
    assert_eq!(graph2.neighbors_flat(), graph.neighbors_flat());
    assert_eq!(
        graph2
            .dists_flat()
            .iter()
            .map(|d| d.to_bits())
            .collect::<Vec<_>>(),
        graph
            .dists_flat()
            .iter()
            .map(|d| d.to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(graph2.radius().to_bits(), graph.radius().to_bits());
    assert_eq!(data2.flat_coords(), data.flat_coords());
    assert_eq!(encode(&data2, &graph2).expect("re-encode"), bytes);
}

#[test]
fn single_object_round_trips_under_every_metric() {
    for metric in METRICS {
        let data = Dataset::new("one", metric, vec![point(metric, 1.0)]);
        let tree = MTree::build(&data, MTreeConfig::default());
        let graph = StratifiedDiskGraph::from_mtree(&tree, 0.5);
        assert_eq!(graph.offsets(), &[0, 0], "{metric:?}");
        assert_round_trip(&data, &graph);
    }
}

#[test]
fn zero_edge_graph_round_trips_under_every_metric() {
    for metric in METRICS {
        // Points far apart relative to the radius: no edges at all.
        let data = Dataset::new(
            "sparse",
            metric,
            (0..6).map(|i| point(metric, i as f64 * 100.0)).collect(),
        );
        let tree = MTree::build(&data, MTreeConfig::default());
        let graph = StratifiedDiskGraph::from_mtree(&tree, 0.25);
        assert_eq!(graph.neighbors_flat().len(), 0, "{metric:?}");
        assert_round_trip(&data, &graph);
    }
}

#[test]
fn all_duplicate_points_round_trip_under_every_metric() {
    for metric in METRICS {
        let data = Dataset::new(
            "dupes",
            metric,
            (0..12).map(|_| point(metric, 3.0)).collect(),
        );
        let tree = MTree::build(&data, MTreeConfig::default());
        let graph = StratifiedDiskGraph::from_mtree(&tree, 1.0);
        // Duplicates sit at distance 0 from each other: a complete
        // graph whose edges all carry distance 0.
        assert_eq!(graph.neighbors_flat().len(), 12 * 11, "{metric:?}");
        assert!(graph.dists_flat().iter().all(|&d| d == 0.0), "{metric:?}");
        assert_round_trip(&data, &graph);
    }
}

#[test]
fn zero_radius_build_round_trips_under_every_metric() {
    for metric in METRICS {
        let mut pts: Vec<Point> = (0..5).map(|i| point(metric, i as f64 * 10.0)).collect();
        pts.push(point(metric, 0.0)); // duplicate of the first: a 0-distance edge
        let data = Dataset::new("r0", metric, pts);
        let tree = MTree::build(&data, MTreeConfig::default());
        let graph = StratifiedDiskGraph::from_mtree(&tree, 0.0);
        assert_eq!(graph.radius(), 0.0);
        assert_eq!(graph.neighbors_flat().len(), 2, "{metric:?}");
        assert_round_trip(&data, &graph);
    }
}

#[test]
fn empty_snapshot_round_trips_via_raw_parts() {
    // A Dataset cannot hold zero objects, but the format can: the raw
    // parts encoder covers the n = 0 corner, and the dataset view fails
    // closed with the dataset's own typed error.
    for metric in METRICS {
        let bytes = encode_parts(&SnapshotParts {
            name: "empty",
            metric,
            dim: 2,
            coords: &[],
            radius: 0.5,
            offsets: &[0],
            neighbors: &[],
            dists: &[],
            ext_ids: None,
        })
        .expect("n = 0 encodes");
        let view = load(&bytes).expect("n = 0 loads");
        assert_eq!(view.len(), 0, "{metric:?}");
        assert!(view.is_empty());
        assert_eq!(view.edge_count(), 0);
        assert_eq!(view.offsets_raw(), &[0]);
        assert_eq!(
            view.dataset().expect_err("no dataset in an empty snapshot"),
            StoreError::InvalidDataset(DatasetError::Empty)
        );
        let graph = view.graph().expect("empty graph is valid");
        assert_eq!(graph.offsets(), &[0]);
        // Re-encoding the loaded parts reproduces the file.
        let bytes2 = encode_parts(&SnapshotParts {
            name: view.name(),
            metric: view.metric(),
            dim: view.dim(),
            coords: view.coords(),
            radius: view.radius(),
            offsets: graph.offsets(),
            neighbors: graph.neighbors_flat(),
            dists: graph.dists_flat(),
            ext_ids: None,
        })
        .expect("re-encode");
        assert_eq!(bytes2, bytes);
    }
}

#[test]
fn renumbered_pair_round_trips_with_its_permutation() {
    // A leaf-order renumbered build must persist its internal↔external
    // bijection and load it back onto both values, byte-identically.
    let data = Dataset::new(
        "renum",
        Metric::Euclidean,
        (0..30)
            .map(|i| point(Metric::Euclidean, (i * 7 % 30) as f64 * 0.1))
            .collect(),
    );
    let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
    let order = tree.objects_in_leaf_order_uncounted();
    let data2 = data.renumbered(&order);
    let tree2 = tree.relabeled(&data2, &order);
    let graph2 = StratifiedDiskGraph::from_mtree(&tree2, 0.8);
    assert!(data2.permutation().is_some(), "corpus must not be identity");
    assert_eq!(data2.permutation(), graph2.permutation());

    assert_round_trip(&data2, &graph2);
    let bytes = encode(&data2, &graph2).expect("encode");
    let view = load(&bytes).expect("load");
    assert_eq!(
        view.ext_ids_raw(),
        data2
            .permutation()
            .expect("perm present")
            .to_external()
            .iter()
            .map(|&e| e as u64)
            .collect::<Vec<_>>()
            .as_slice()
    );
    let (data3, graph3) = decode(&bytes).expect("decode");
    assert_eq!(data3.permutation(), data2.permutation());
    assert_eq!(graph3.permutation(), graph2.permutation());

    // Mismatched pairings fail closed at encode time.
    assert_eq!(
        encode(&data, &graph2).expect_err("perm mismatch"),
        StoreError::BadLayout {
            detail: "dataset and graph disagree on the id permutation"
        }
    );
}

#[test]
fn encode_parts_rejects_inconsistent_parts() {
    let parts = SnapshotParts {
        name: "bad",
        metric: Metric::Euclidean,
        dim: 2,
        coords: &[0.0, 0.0],
        radius: f64::NAN,
        offsets: &[0, 0],
        neighbors: &[],
        dists: &[],
        ext_ids: None,
    };
    assert!(matches!(
        encode_parts(&parts).expect_err("NaN radius"),
        StoreError::InvalidGraph(disc_graph::GraphError::InvalidRadius(_))
    ));

    let parts = SnapshotParts {
        name: "bad",
        metric: Metric::Euclidean,
        dim: 2,
        coords: &[0.0],
        radius: 0.5,
        offsets: &[0, 0],
        neighbors: &[],
        dists: &[],
        ext_ids: None,
    };
    assert!(matches!(
        encode_parts(&parts).expect_err("ragged coords"),
        StoreError::SectionSizeMismatch { .. }
    ));

    let parts = SnapshotParts {
        name: "bad",
        metric: Metric::Euclidean,
        dim: 2,
        coords: &[0.0, 0.0],
        radius: 0.5,
        offsets: &[0, 2],
        neighbors: &[0],
        dists: &[0.0],
        ext_ids: None,
    };
    assert!(matches!(
        encode_parts(&parts).expect_err("short edge arrays"),
        StoreError::InvalidGraph(disc_graph::GraphError::ArrayLengthMismatch { .. })
    ));

    // Neighbor ids are stored in 32 bits: a wider one fails closed
    // instead of wrapping to a small id. (Encode does not range-check
    // neighbors against n; load does.)
    #[cfg(target_pointer_width = "64")]
    {
        let wide = 1usize << 32;
        let parts = SnapshotParts {
            name: "bad",
            metric: Metric::Euclidean,
            dim: 2,
            coords: &[0.0, 0.0],
            radius: 0.5,
            offsets: &[0, 1],
            neighbors: &[wide],
            dists: &[0.1],
            ext_ids: None,
        };
        assert_eq!(
            encode_parts(&parts).expect_err("neighbor id past u32::MAX"),
            StoreError::NeighborIdTooWide { id: wide }
        );
    }
}

#[test]
fn file_round_trip_through_aligned_read() {
    let data = Dataset::new(
        "file",
        Metric::Manhattan,
        (0..20)
            .map(|i| point(Metric::Manhattan, i as f64 * 0.1))
            .collect(),
    );
    let tree = MTree::build(&data, MTreeConfig::default());
    let graph = StratifiedDiskGraph::from_mtree(&tree, 0.6);

    let dir = std::env::temp_dir().join("disc-store-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.discsnap");
    let written = disc_store::write_snapshot(&path, &data, &graph).expect("write");
    let holder = disc_store::read_snapshot(&path).expect("read");
    assert_eq!(holder.len() as u64, written);
    // One write path: the file holds exactly the in-memory encoding.
    assert_eq!(
        holder.as_bytes(),
        &encode(&data, &graph).expect("encode")[..]
    );
    let (data2, graph2) = decode(holder.as_bytes()).expect("decode from file");
    assert_eq!(graph2, graph);
    assert_eq!(data2.flat_coords(), data.flat_coords());
    std::fs::remove_file(&path).ok();
}

#[test]
fn read_snapshot_matches_fs_read_at_edge_lengths() {
    // Every length around the 8-byte word size, and one that crosses
    // the 1 MiB read chunk: the aligned read returns the file's bytes,
    // no more and no fewer.
    let dir = std::env::temp_dir().join("disc-store-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("lengths-{}.bin", std::process::id()));
    for len in (0..=17).chain([(1 << 20) + 3]) {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8 + 1).collect();
        std::fs::write(&path, &bytes).expect("write");
        let holder = disc_store::read_snapshot(&path).expect("read");
        assert_eq!(
            holder.as_bytes(),
            &std::fs::read(&path).expect("fs::read")[..],
            "len {len}"
        );
        assert_eq!(holder.len(), len);
        assert_eq!(holder.as_bytes().as_ptr().align_offset(8), 0, "len {len}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn read_snapshot_matches_fs_read_around_the_parallel_cutoff() {
    // From 1 MiB up the file is read as byte ranges on one worker per
    // core; just below the cutoff, at it and past it (also with a ragged
    // last word and several MiB per range), the bytes are fs::read's.
    let dir = std::env::temp_dir().join("disc-store-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("cutoff-{}.bin", std::process::id()));
    let mib = 1 << 20;
    for len in [mib - 1, mib, mib + 1, mib + 8, 3 * mib + 5] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 131 % 253) as u8).collect();
        std::fs::write(&path, &bytes).expect("write");
        let holder = disc_store::read_snapshot(&path).expect("read");
        assert_eq!(holder.len(), len);
        assert!(holder.as_bytes() == &bytes[..], "len {len}");
        assert_eq!(holder.as_bytes().as_ptr().align_offset(8), 0, "len {len}");
    }

    // A snapshot past the cutoff, cut short by a word on disk: the read
    // returns the short file, and load names the truncation.
    let n = 50_000;
    let coords: Vec<f64> = (0..2 * n).map(|i| (i % 1_000) as f64 * 1e-3).collect();
    let offsets = vec![0usize; n + 1];
    let snapshot = encode_parts(&SnapshotParts {
        name: "cutoff",
        metric: Metric::Euclidean,
        dim: 2,
        coords: &coords,
        radius: 0.1,
        offsets: &offsets,
        neighbors: &[],
        dists: &[],
        ext_ids: None,
    })
    .expect("valid parts encode");
    assert!(snapshot.len() > mib);
    std::fs::write(&path, &snapshot[..snapshot.len() - 8]).expect("write");
    let holder = disc_store::read_snapshot(&path).expect("read");
    assert_eq!(holder.len(), snapshot.len() - 8);
    assert_eq!(
        load(holder.as_bytes()).map(|_| ()),
        Err(StoreError::Truncated {
            needed: snapshot.len() as u64,
            have: snapshot.len() as u64 - 8,
        })
    );
    std::fs::remove_file(&path).ok();
}
