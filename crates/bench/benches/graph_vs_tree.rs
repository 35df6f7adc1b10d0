//! Bulk neighbourhood materialisation: CSR graph build (M-tree
//! self-join vs O(n²) scan) and graph-resident vs tree-backed
//! selection loops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use disc_bench::{bench_clustered, bench_tree};
use disc_core::{greedy_c, greedy_c_graph, greedy_disc, greedy_disc_graph, GreedyVariant};
use disc_graph::UnitDiskGraph;
use std::hint::black_box;

const RADIUS: f64 = 0.04;

/// Materialising `G_{P,r}`: dual-tree self-join vs all-pairs scans.
fn graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    for n in [1_000usize, 2_000, 4_000] {
        let data = bench_clustered(n);
        let tree = bench_tree(&data);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("self_join", n), &n, |b, _| {
            b.iter(|| black_box(UnitDiskGraph::from_mtree(&tree, RADIUS).edge_count()))
        });
        group.bench_with_input(BenchmarkId::new("scan_n2", n), &n, |b, _| {
            b.iter(|| black_box(UnitDiskGraph::build(&data, RADIUS).edge_count()))
        });
    }
    group.finish();
}

/// Selection loops over a resident graph vs tree-backed range queries.
/// The graph side excludes materialisation (see `graph_build` and the
/// `fig_graph_vs_tree` binary for end-to-end numbers).
fn selection(c: &mut Criterion) {
    let data = bench_clustered(2_000);
    let tree = bench_tree(&data);
    let graph = UnitDiskGraph::from_mtree(&tree, RADIUS);
    let mut group = c.benchmark_group("graph_vs_tree_selection");
    group.sample_size(10);
    group.bench_function("greedy_disc_graph", |b| {
        b.iter(|| black_box(greedy_disc_graph(&graph).size()))
    });
    group.bench_function("greedy_disc_tree_pruned", |b| {
        b.iter(|| black_box(greedy_disc(&tree, RADIUS, GreedyVariant::Grey, true).size()))
    });
    group.bench_function("greedy_c_graph", |b| {
        b.iter(|| black_box(greedy_c_graph(&graph).size()))
    });
    group.bench_function("greedy_c_tree", |b| {
        b.iter(|| black_box(greedy_c(&tree, RADIUS).size()))
    });
    group.finish();
}

criterion_group!(benches, graph_build, selection);
criterion_main!(benches);
