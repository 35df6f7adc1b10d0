//! One set-up: generated points → `build_sharded_with` →
//! `write_snapshot` → `read_snapshot` → `decode_stream` →
//! `ServeState::from_catalog` → `Server::start` (→ warm-up mutations),
//! then the first zoom at `r_max`.

use std::path::Path;
use std::time::Instant;

use disc_cli::ServeState;
use disc_core::{build_sharded_with, ShardedBuildConfig, ShardedBuildStats};
use disc_metric::Dataset;
use disc_store::{decode_stream, read_snapshot, write_snapshot};

use crate::gen::Req;
use crate::spec::{Spec, SHARDS};
use crate::trace::Tracer;
use crate::traffic::{Live, Record};

/// Span names of the store calls a set-up records.
pub const STORE_WRITE: &str = "store.write";
pub const STORE_READ: &str = "store.read";
pub const STORE_DECODE: &str = "store.decode";

/// What one set-up measured and produced.
pub struct Setup {
    pub live: Live,
    /// Generated points → server ready for the first timed request.
    pub setup_s: f64,
    /// `build_sharded_with` + `write_snapshot`: the `disc build` journey.
    pub build_s: f64,
    /// Read + validate + decode into a `ServeState`.
    pub open_s: f64,
    pub first_zoom: Record,
    pub warmup: Vec<Record>,
    pub stats: ShardedBuildStats,
    /// Object count and undirected edges of the build, before the
    /// snapshot round trip.
    pub n: usize,
    pub edges: usize,
    /// Bytes of the built CSR (offsets, neighbors, distances).
    pub csr_bytes: usize,
    pub snapshot_bytes: u64,
    /// Section-table checksum, snapshot bytes 40..48.
    pub table_checksum: u64,
    /// Object count and edges of the decoded catalog.
    pub decoded_n: usize,
    pub decoded_edges: usize,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Runs one set-up, with the store calls in spans.
pub fn setup(
    spec: &Spec,
    data: &Dataset,
    path: &Path,
    workers: usize,
    warmup: &[Req],
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let build = build_sharded_with(
        data,
        spec.r_max,
        SHARDS,
        ShardedBuildConfig::default(),
        None,
    )
    .map_err(|e| format!("build: {e}"))?;
    let snapshot_bytes = tracer
        .span(STORE_WRITE, || {
            write_snapshot(path, &build.data, &build.graph)
        })
        .map_err(|e| format!("write_snapshot: {e}"))?;
    let build_s = secs(t0);
    let (n, edges, stats) = (build.data.len(), build.graph.edge_count(), build.stats);
    let csr_bytes = 8
        * (build.graph.offsets().len()
            + build.graph.neighbors_flat().len()
            + build.graph.dists_flat().len());
    drop(build);

    let t_open = Instant::now();
    let bytes = tracer
        .span(STORE_READ, || read_snapshot(path))
        .map_err(|e| format!("read_snapshot: {e}"))?;
    let table_checksum = u64::from_ne_bytes(
        bytes.as_bytes()[40..48]
            .try_into()
            .map_err(|_| "snapshot shorter than its header".to_string())?,
    );
    let catalog = tracer
        .span(STORE_DECODE, || decode_stream(bytes.as_bytes()))
        .map_err(|e| format!("decode_stream: {e}"))?;
    drop(bytes);
    let (decoded_n, decoded_edges) = (catalog.len(), catalog.graph().edge_count());
    let state = ServeState::from_catalog(catalog);
    let open_s = secs(t_open);

    let mut live = Live::start(state, workers);
    let warmup = warmup
        .iter()
        .map(|req| live.call(req.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = secs(t0);

    let first_zoom = live.call(Req::Zoom(spec.r_max))?;
    Ok(Setup {
        live,
        setup_s,
        build_s,
        open_s,
        first_zoom,
        warmup,
        stats,
        n,
        edges,
        csr_bytes,
        snapshot_bytes,
        table_checksum,
        decoded_n,
        decoded_edges,
    })
}
