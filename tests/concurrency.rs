//! Concurrency test tier: the build's one parallel path — the sharded
//! build's join tasks, CSR fill and row sort on the task runner — is
//! pinned **deterministic**: byte-identical to one serial self-join
//! over the whole tree and to the O(n²) reference, across metrics,
//! worker/shard counts and degenerate inputs.
//!
//! The graph-resident runners are pinned byte-identical to the exact
//! tree-backed variants; that pin is only as strong as the graph build
//! feeding them. This tier therefore checks, for worker and shard
//! counts 1, 2, 3 and 8 (forced through `ShardedBuildConfig::threads`
//! and the explicit shard parameters of `build_sharded_with` and
//! [`UnitDiskGraph::from_edges_sharded`], independent of the host's
//! core count):
//!
//! * serial self-join ≡ O(n²) scan on all four metrics, and the graph
//!   of the sharded build's parallel per-shard joins ≡ the graph of one
//!   serial self-join over the whole tree;
//! * CSR byte-equality (`offsets` and `neighbors`) between the one-worker
//!   and multi-worker assemblies, and for `from_mtree` against the scan
//!   reference;
//! * exact counters: the build's per-shard join and tree counters fold
//!   into its stats as exactly the sum of lone runs over the same shard
//!   trees, at every worker count (lost or double-counted per-task
//!   counters would break every hot-path claim pinned on the counter);
//! * the same guarantees for the **distance-annotated** pipeline
//!   (`range_self_join_dist` → [`StratifiedDiskGraph`]): stratified CSR
//!   byte-identical (`offsets`, `neighbors` **and** `dists`) at every
//!   assembly worker count, exact counters for a one-shard build, and
//!   worker-count-independent graph-resident zooming on top;
//! * degenerate inputs: single object, all-duplicate points, r = 0 and
//!   r ≥ diameter.

use disc_diversity::core::{build_sharded_with, ShardedBuildConfig};
use disc_diversity::graph::{StratifiedDiskGraph, UnitDiskGraph};
use disc_diversity::metric::{Dataset, Metric, ObjId, Point};
use disc_diversity::mtree::{MTree, MTreeConfig, ShardPlan};
use disc_diversity::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

/// Worker/shard counts every assertion runs under (1 pins the
/// single-worker path through the task runner; 8 exceeds the dev
/// container's core count).
const COUNTS: [usize; 4] = [1, 2, 3, 8];

const ALL_METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

fn random_data_metric(n: usize, seed: u64, metric: Metric) -> Dataset {
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
    Dataset::new("random", metric, pts)
}

/// Brute-force edge list (sorted by construction).
fn scan_edges(data: &Dataset, r: f64) -> Vec<(ObjId, ObjId)> {
    let mut edges = Vec::new();
    for i in 0..data.len() {
        for j in (i + 1)..data.len() {
            if data.dist(i, j) <= r {
                edges.push((i, j));
            }
        }
    }
    edges
}

fn sorted(mut edges: Vec<(ObjId, ObjId)>) -> Vec<(ObjId, ObjId)> {
    edges.sort_unstable();
    edges
}

/// Per-metric radii that exercise empty, sparse, dense and complete
/// graphs.
fn radii_for(metric: Metric) -> Vec<f64> {
    if metric == Metric::Hamming {
        vec![0.0, 1.0, 2.0, 4.0]
    } else {
        vec![0.0, 0.05, 0.15, 2.0]
    }
}

/// A sharded build on `threads` workers, with a partition stop small
/// enough that these fixtures split into real shards.
fn build_config(threads: usize) -> ShardedBuildConfig {
    ShardedBuildConfig {
        threads,
        stop: 16,
        ..ShardedBuildConfig::default()
    }
}

#[test]
fn parallel_self_join_equals_serial_equals_scan_on_all_metrics() {
    for metric in ALL_METRICS {
        let data = random_data_metric(160, 41, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        for r in radii_for(metric) {
            assert_eq!(
                sorted(tree.range_self_join(r)),
                scan_edges(&data, r),
                "{metric:?} r={r}: serial self-join vs O(n²) scan"
            );
            // The build's per-shard joins run as tasks on `threads`
            // workers; its graph must equal one serial self-join over
            // the whole renumbered dataset, byte for byte.
            let mut whole: Option<StratifiedDiskGraph> = None;
            for threads in COUNTS {
                let built = build_sharded_with(&data, r, 4, build_config(threads), None)
                    .expect("clean build");
                let want = whole.get_or_insert_with(|| {
                    let tree = MTree::build(&built.data, MTreeConfig::with_capacity(6));
                    StratifiedDiskGraph::from_mtree(&tree, r)
                });
                assert_eq!(&built.graph, want, "{metric:?} r={r} threads={threads}");
            }
        }
    }
}

#[test]
fn csr_is_byte_identical_across_shard_counts_on_all_metrics() {
    for metric in ALL_METRICS {
        let data = random_data_metric(140, 42, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        for r in radii_for(metric) {
            let reference = UnitDiskGraph::build(&data, r);
            let from_tree = UnitDiskGraph::from_mtree(&tree, r);
            assert_eq!(from_tree, reference, "{metric:?} r={r}: from_mtree");
            let edges = tree.range_self_join(r);
            let serial = UnitDiskGraph::from_edges(data.len(), r, &edges);
            for shards in COUNTS {
                let sharded = UnitDiskGraph::from_edges_sharded(data.len(), r, &edges, shards);
                assert_eq!(
                    sharded.offsets(),
                    serial.offsets(),
                    "{metric:?} r={r} shards={shards}: offsets"
                );
                assert_eq!(
                    sharded.neighbors_flat(),
                    serial.neighbors_flat(),
                    "{metric:?} r={r} shards={shards}: neighbors"
                );
            }
        }
    }
}

/// Distance computations of building, then self-joining, one tree per
/// non-empty shard of the plan a build with `config` makes: what the
/// build's `tree_dc` and `intra_join_dc` must fold to.
fn lone_shard_counters(
    data: &Dataset,
    r: f64,
    shards: usize,
    config: ShardedBuildConfig,
) -> (u64, u64) {
    let plan = ShardPlan::with_stop(data, shards, config.stop);
    let renumbered = data.renumbered(plan.order());
    let (mut tree_dc, mut join_dc) = (0, 0);
    for range in plan.ranges().iter().filter(|r| !r.is_empty()) {
        let tree = MTree::build_range(&renumbered, config.tree, range.clone());
        tree_dc += tree.reset_distance_computations();
        let _ = tree.range_self_join_dist(r);
        join_dc += tree.reset_distance_computations();
    }
    (tree_dc, join_dc)
}

#[test]
fn parallel_self_join_charges_exact_distance_computations() {
    // The build's intra-join tasks run in parallel, each charging its
    // own shard tree; the folded totals must equal lone runs over the
    // same shard trees, on every metric and at every worker count.
    for metric in ALL_METRICS {
        let data = random_data_metric(220, 43, metric);
        let r = if metric == Metric::Hamming { 2.0 } else { 0.1 };
        let (tree_dc, join_dc) = lone_shard_counters(&data, r, 4, build_config(1));
        assert!(join_dc > 0, "{metric:?}: self-joins computed no distances");
        for threads in COUNTS {
            let built =
                build_sharded_with(&data, r, 4, build_config(threads), None).expect("clean build");
            assert_eq!(
                built.stats.tree_dc, tree_dc,
                "{metric:?} threads={threads}: tree distance computations"
            );
            assert_eq!(
                built.stats.intra_join_dc, join_dc,
                "{metric:?} threads={threads}: join distance computations"
            );
        }
    }
}

#[test]
fn degenerate_inputs_are_deterministic_across_thread_counts() {
    // Single object: no edges, whatever the radius, worker or shard
    // count.
    let one = Dataset::new("one", Metric::Euclidean, vec![Point::new2(0.5, 0.5)]);
    let tree = MTree::build(&one, MTreeConfig::default());
    assert!(tree.range_self_join(10.0).is_empty());
    for threads in COUNTS {
        let built = build_sharded_with(&one, 10.0, threads, build_config(threads), None)
            .expect("one-object build");
        assert_eq!(built.graph.edge_count(), 0, "threads={threads}");
    }

    // All-duplicate points: complete graph even at r = 0.
    let n = 30;
    let dups = Dataset::new("dups", Metric::Euclidean, vec![Point::new2(0.2, 0.8); n]);
    let tree = MTree::build(&dups, MTreeConfig::with_capacity(3));
    let serial = tree.range_self_join(0.0);
    assert_eq!(serial.len(), n * (n - 1) / 2);
    for threads in COUNTS {
        assert_eq!(
            UnitDiskGraph::from_edges_sharded(n, 0.0, &serial, threads),
            UnitDiskGraph::build(&dups, 0.0)
        );
        let built = build_sharded_with(&dups, 0.0, threads, build_config(threads), None)
            .expect("duplicate build");
        assert_eq!(built.graph.edge_count(), serial.len(), "threads={threads}");
    }

    // r = 0 on distinct points: no edges; r ≥ diameter: complete graph.
    let data = random_data_metric(90, 44, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
    for (r, want_edges) in [(0.0, 0), (2.0, 90 * 89 / 2)] {
        assert_eq!(tree.range_self_join(r).len(), want_edges, "r={r}");
        for threads in COUNTS {
            let built = build_sharded_with(&data, r, threads, build_config(threads), None)
                .expect("clean build");
            assert_eq!(
                built.graph.edge_count(),
                want_edges,
                "r={r} threads={threads}"
            );
        }
    }

    // Empty CSR assemblies (a Dataset cannot be empty, but the edge-list
    // constructors accept n = 0).
    for shards in COUNTS {
        assert!(UnitDiskGraph::from_edges_sharded(0, 1.0, &[], shards).is_empty());
    }
}

#[test]
fn stratified_csr_is_byte_identical_across_thread_and_shard_counts() {
    // The distance-annotated pipeline (annotated self-join → stratified
    // CSR with distance-sorted rows) is deterministic too: for every
    // forced assembly worker count, offsets, neighbors *and* dists
    // arrays equal the one-worker build's, on all four metrics.
    for metric in ALL_METRICS {
        let data = random_data_metric(140, 46, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        for r in radii_for(metric) {
            let edges = tree.range_self_join_dist(r);
            let serial = StratifiedDiskGraph::from_dist_edges(data.len(), r, &edges);
            for threads in COUNTS {
                let sharded =
                    StratifiedDiskGraph::from_dist_edges_sharded(data.len(), r, &edges, threads);
                assert_eq!(
                    sharded.offsets(),
                    serial.offsets(),
                    "{metric:?} r={r} shards={threads}: offsets"
                );
                assert_eq!(
                    sharded.neighbors_flat(),
                    serial.neighbors_flat(),
                    "{metric:?} r={r} shards={threads}: neighbors"
                );
                assert_eq!(
                    sharded.dists_flat(),
                    serial.dists_flat(),
                    "{metric:?} r={r} shards={threads}: dists"
                );
            }
        }
    }
}

#[test]
fn stratified_csr_byte_identical_on_duplicate_heavy_rows() {
    // A regular grid maximises duplicated edge distances (every row is
    // full of exact ties), stressing the radix row sort's id
    // tie-breaking: the sharded assembly must stay byte-identical to
    // the serial one — dists included — for every shard count.
    let mut pts = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            pts.push(Point::new2(i as f64 / 12.0, j as f64 / 12.0));
        }
    }
    let data = Dataset::new("grid", Metric::Euclidean, pts);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
    for r in [0.1, 0.3, 2.0] {
        let edges = tree.range_self_join_dist(r);
        let serial = StratifiedDiskGraph::from_dist_edges(data.len(), r, &edges);
        // Rows must be strictly (dist, id)-sorted despite the ties.
        for v in 0..data.len() {
            let (ids, ds) = (serial.neighbors(v), serial.dists(v));
            for k in 1..ids.len() {
                assert!(
                    (ds[k - 1], ids[k - 1]) < (ds[k], ids[k]),
                    "row {v} not strictly (dist, id)-sorted at {k} (r={r})"
                );
            }
        }
        for shards in COUNTS {
            let sharded =
                StratifiedDiskGraph::from_dist_edges_sharded(data.len(), r, &edges, shards);
            assert_eq!(sharded.offsets(), serial.offsets(), "r={r} shards={shards}");
            assert_eq!(
                sharded.neighbors_flat(),
                serial.neighbors_flat(),
                "r={r} shards={shards}"
            );
            assert_eq!(
                sharded.dists_flat(),
                serial.dists_flat(),
                "r={r} shards={shards}"
            );
        }
    }
}

#[test]
fn annotated_self_join_charges_exact_counters_across_thread_counts() {
    // A build whose data falls in one shard runs one serial annotated
    // join over the whole tree: at every worker count its distance and
    // node counters equal a lone tree's build plus join.
    for metric in ALL_METRICS {
        let data = random_data_metric(200, 47, metric);
        let r = if metric == Metric::Hamming { 2.0 } else { 0.1 };
        let config = ShardedBuildConfig::default();
        let plan = ShardPlan::with_stop(&data, 1, config.stop);
        let renumbered = data.renumbered(plan.order());
        let tree = MTree::build_range(&renumbered, config.tree, 0..data.len());
        let tree_dc = tree.reset_distance_computations();
        let edges = tree.range_self_join_dist(r);
        let join_dc = tree.reset_distance_computations();
        let accesses = tree.node_accesses();
        assert!(
            join_dc > 0,
            "{metric:?}: annotated join computed no distances"
        );

        for threads in COUNTS {
            let config = ShardedBuildConfig { threads, ..config };
            let built = build_sharded_with(&data, r, 1, config, None).expect("clean build");
            let s = built.stats;
            assert_eq!(s.edges, edges.len(), "{metric:?} threads={threads}");
            assert_eq!(
                (s.tree_dc, s.intra_join_dc, s.boundary_join_dc),
                (tree_dc, join_dc, 0),
                "{metric:?} threads={threads}: distance computations"
            );
            assert_eq!(
                s.node_accesses, accesses,
                "{metric:?} threads={threads}: node accesses"
            );
        }
    }
}

#[test]
fn stratified_zooming_is_thread_count_independent() {
    // End-to-end: stratified graphs assembled at every worker count
    // feed the graph-resident zoom runners identically, and the
    // solutions match the tree-backed operators.
    let data = random_data_metric(220, 48, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::default());
    let (r, r_new) = (0.12, 0.06);
    let edges = tree.range_self_join_dist(r);
    let serial_graph = StratifiedDiskGraph::from_dist_edges(data.len(), r, &edges);
    let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
    let want = greedy_zoom_in(&tree, &prev, r_new).result.solution;
    assert_eq!(
        greedy_zoom_in_graph(&serial_graph, &prev, r_new)
            .result
            .solution,
        want
    );
    for threads in COUNTS {
        let graph = StratifiedDiskGraph::from_dist_edges_sharded(data.len(), r, &edges, threads);
        assert_eq!(
            greedy_zoom_in_graph(&graph, &prev, r_new).result.solution,
            want,
            "threads={threads}"
        );
    }
}

#[test]
fn graph_resident_solutions_are_thread_count_independent() {
    // End-to-end: the graph pipeline (self-join → CSR assembled on
    // every worker count → graph-resident selection) picks the same
    // solutions as the one-worker pipeline and the tree-backed exact
    // runners.
    let data = random_data_metric(250, 45, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::default());
    let r = 0.1;
    let edges = tree.range_self_join(r);
    let serial_graph = UnitDiskGraph::from_edges(data.len(), r, &edges);
    let want_disc = greedy_disc_graph(&serial_graph).solution;
    let want_c = greedy_c_graph(&serial_graph).solution;
    assert_eq!(
        want_disc,
        greedy_disc(&tree, r, GreedyVariant::Grey, true).solution
    );
    for threads in COUNTS {
        let graph = UnitDiskGraph::from_edges_sharded(data.len(), r, &edges, threads);
        assert_eq!(
            greedy_disc_graph(&graph).solution,
            want_disc,
            "threads={threads}"
        );
        assert_eq!(greedy_c_graph(&graph).solution, want_c, "threads={threads}");
        assert!(verify_disc(&data, &want_disc, r).is_valid());
    }
}
