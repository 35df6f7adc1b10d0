//! Streaming snapshot coverage: catalogs with tombstones and appended
//! external ids round-trip bitwise through the current format, dense
//! catalogs encode the same through both entry points (one ext-ids
//! layout), legacy version-2 and version-3 files written by an older
//! build (`tests/fixtures/`) open as the catalogs their helpers below
//! build, and inconsistent streaming state is rejected with typed
//! errors.

use disc_graph::{StratifiedDiskGraph, StreamingCatalog};
use disc_metric::{Dataset, Metric, Point};
use disc_store::{
    decode_stream, encode, encode_stream, encode_stream_parts, load, read_snapshot, AlignedBytes,
    SnapshotParts, StoreError, DENSE_VERSION, STREAM_VERSION, VERSION,
};

const METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

fn stored_version(bytes: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&bytes[8..12]);
    u32::from_ne_bytes(a)
}

/// The legacy fixture `v{version}_{metric}.snap`, read from disk.
fn fixture(version: u32, metric: Metric) -> AlignedBytes {
    let name = format!("v{version}_{metric:?}.snap").to_lowercase();
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    read_snapshot(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Field-by-field catalog equality: CSR arrays (distances bitwise),
/// coordinates and the whole external id space.
fn assert_same_catalog(got: &StreamingCatalog, want: &StreamingCatalog, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    assert_eq!(got.next_external(), want.next_external(), "{ctx}");
    assert_eq!(got.tombstones(), want.tombstones(), "{ctx}");
    assert_eq!(got.live_externals(), want.live_externals(), "{ctx}");
    assert_eq!(got.graph().offsets(), want.graph().offsets(), "{ctx}");
    assert_eq!(
        got.graph().neighbors_flat(),
        want.graph().neighbors_flat(),
        "{ctx}"
    );
    let bits = |ds: &[f64]| ds.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(got.graph().dists_flat()),
        bits(want.graph().dists_flat()),
        "{ctx}"
    );
    assert_eq!(
        bits(got.data().flat_coords()),
        bits(want.data().flat_coords()),
        "{ctx}"
    );
}

fn seed_catalog(metric: Metric, n: usize, r_max: f64) -> StreamingCatalog {
    let points: Vec<Point> = (0..n)
        .map(|i| {
            if metric == Metric::Hamming {
                Point::categorical(&[(i % 3) as u32, (i % 5) as u32, (i % 2) as u32])
            } else {
                Point::new2((i as f64) * 0.05, ((i * 7) % n) as f64 * 0.05)
            }
        })
        .collect();
    let data = Dataset::new("stream", metric, points);
    let graph = StratifiedDiskGraph::build(&data, r_max);
    StreamingCatalog::try_new(data, graph).expect("fresh pair is consistent")
}

fn fresh_point(metric: Metric, k: usize) -> Vec<f64> {
    if metric == Metric::Hamming {
        vec![(k % 4) as f64, ((k + 1) % 4) as f64, (k % 2) as f64]
    } else {
        vec![0.11 * k as f64, 0.07 * k as f64]
    }
}

fn mutated_catalog(metric: Metric) -> StreamingCatalog {
    let mut cat = seed_catalog(metric, 30, 1.5);
    for k in 0..6 {
        cat.insert(&fresh_point(metric, k)).expect("insert");
    }
    for e in [3, 17, 31, 8] {
        cat.remove_external(e).expect("live id");
    }
    cat
}

#[test]
fn mutated_catalogs_round_trip_through_version_3() {
    for metric in METRICS {
        let cat = mutated_catalog(metric);
        let tombs: Vec<u64> = cat.tombstones().iter().map(|&t| t as u64).collect();

        // Legacy side: the version-3 file an older build wrote for this
        // very catalog.
        let legacy = fixture(STREAM_VERSION, metric);
        assert_eq!(stored_version(legacy.as_bytes()), STREAM_VERSION);
        let view = load(legacy.as_bytes()).expect("load v3");
        assert!(view.is_streaming(), "{metric:?}");
        assert_eq!(view.next_external(), cat.next_external() as u64);
        assert_eq!(view.tombstones_raw(), &tombs[..], "{metric:?}");
        let from_legacy = decode_stream(legacy.as_bytes()).expect("decode v3");
        assert_same_catalog(&from_legacy, &cat, &format!("v3 {metric:?}"));

        // Current side: the same catalog through version 4.
        let bytes = encode_stream(&cat).expect("encode");
        assert_eq!(stored_version(&bytes), VERSION, "{metric:?}");
        let view = load(&bytes).expect("load");
        assert!(view.is_streaming(), "{metric:?}");
        assert_eq!(view.next_external(), cat.next_external() as u64);
        assert_eq!(view.tombstones_raw(), &tombs[..], "{metric:?}");
        let back = decode_stream(&bytes).expect("decode");
        assert_same_catalog(&back, &cat, &format!("v4 {metric:?}"));

        // Re-encode of either decoded catalog reproduces the file.
        for decoded in [&back, &from_legacy] {
            assert_eq!(
                encode_stream(decoded).expect("re-encode"),
                bytes,
                "{metric:?}"
            );
        }
    }
}

#[test]
fn dense_catalogs_keep_emitting_byte_identical_version_2() {
    // There is one ext-ids layout: `encode` and `encode_stream` of a
    // dense catalog give the same bytes (the current version's, since
    // version 4; version-2 files still load, see below).
    for metric in METRICS {
        let cat = seed_catalog(metric, 25, 1.0);
        let stream_bytes = encode_stream(&cat).expect("encode_stream");
        let dense_bytes = encode(cat.data(), cat.graph()).expect("encode");
        assert_eq!(stream_bytes, dense_bytes, "{metric:?}");
        assert_eq!(stored_version(&stream_bytes), VERSION, "{metric:?}");
        let view = load(&stream_bytes).expect("load");
        assert!(!view.is_streaming(), "{metric:?}");
        assert_eq!(view.next_external(), 25);
    }
}

#[test]
fn version_2_snapshots_open_as_catalogs() {
    for metric in METRICS {
        let cat = seed_catalog(metric, 20, 1.0);
        let legacy = fixture(DENSE_VERSION, metric);
        let view = load(legacy.as_bytes()).expect("load");
        assert!(!view.is_streaming());
        assert_eq!(view.version(), DENSE_VERSION);
        assert_eq!(view.next_external(), 20);
        assert!(view.tombstones_raw().is_empty());
        let back = decode_stream(legacy.as_bytes()).expect("decode");
        assert_eq!(back.next_external(), 20);
        assert!(back.tombstones().is_empty());
        assert_eq!(back.live_externals(), (0..20).collect::<Vec<_>>());
        assert_same_catalog(&back, &cat, &format!("v2 {metric:?}"));
        assert_eq!(
            encode_stream(&back).expect("re-encode"),
            encode_stream(&cat).expect("encode"),
            "{metric:?}"
        );
    }
}

#[test]
fn a_reloaded_catalog_keeps_streaming() {
    // The full lifecycle: mutate → save → load → mutate more → save →
    // load. External ids assigned before the save stay tombstoned
    // forever; new inserts continue from the stored next_external.
    let mut cat = mutated_catalog(Metric::Euclidean);
    let next_before = cat.next_external();
    let bytes = encode_stream(&cat).expect("encode");
    let mut back = decode_stream(&bytes).expect("decode");
    let receipt = back
        .insert(&fresh_point(Metric::Euclidean, 99))
        .expect("insert");
    assert_eq!(receipt.external, next_before);
    cat.insert(&fresh_point(Metric::Euclidean, 99))
        .expect("insert");
    assert_eq!(
        encode_stream(&back).expect("encode"),
        encode_stream(&cat).expect("encode"),
        "the reloaded catalog mutates identically to the original"
    );
}

#[test]
fn inconsistent_streaming_parts_are_rejected() {
    let cat = mutated_catalog(Metric::Euclidean);
    let data = cat.data();
    let graph = cat.graph();
    let ext: Vec<usize> = (0..data.len()).map(|v| graph.external_id(v)).collect();
    let parts = SnapshotParts {
        name: data.name(),
        metric: data.metric(),
        dim: data.dim(),
        coords: data.flat_coords(),
        radius: graph.radius(),
        offsets: graph.offsets(),
        neighbors: graph.neighbors_flat(),
        dists: graph.dists_flat(),
        ext_ids: Some(&ext),
    };

    // Unsorted tombstones.
    let mut tombs = cat.tombstones().to_vec();
    tombs.reverse();
    assert!(matches!(
        encode_stream_parts(&parts, cat.next_external(), &tombs),
        Err(StoreError::BadLayout { .. })
    ));

    // A live id tombstoned (duplicate mark).
    let mut tombs = cat.tombstones().to_vec();
    tombs[0] = ext[0];
    tombs.sort_unstable();
    assert!(matches!(
        encode_stream_parts(&parts, cat.next_external(), &tombs),
        Err(StoreError::BadLayout { .. })
    ));

    // Accounting mismatch: next_external too large for live + dead.
    assert!(matches!(
        encode_stream_parts(&parts, cat.next_external() + 1, cat.tombstones()),
        Err(StoreError::BadLayout { .. })
    ));

    // No explicit ids: the identity 0..n collides with a tombstone.
    let mut no_ids = parts;
    no_ids.ext_ids = None;
    assert!(matches!(
        encode_stream_parts(&no_ids, cat.next_external(), cat.tombstones()),
        Err(StoreError::BadLayout { .. })
    ));

    // The true state still encodes.
    encode_stream_parts(&parts, cat.next_external(), cat.tombstones()).expect("valid state");
}
