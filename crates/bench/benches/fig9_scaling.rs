//! Bench companion of Figure 9: Greedy-DisC scaling with dataset
//! cardinality and dimensionality, plus the query-hot-path comparisons
//! (parent-distance pruning on/off, count seeding serial vs threaded).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use disc_bench::{bench_tree, BENCH_SEED};
use disc_core::{greedy_disc, par, GreedyVariant};
use disc_datasets::synthetic::clustered;
use disc_mtree::{MTree, MTreeConfig};
use std::hint::black_box;

fn cardinality(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_cardinality");
    group.sample_size(10);
    for n in [500usize, 1_000, 2_000, 4_000] {
        let data = clustered(n, 2, 8, BENCH_SEED);
        let tree = bench_tree(&data);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(greedy_disc(&tree, 0.04, GreedyVariant::Grey, true).size()))
        });
    }
    group.finish();
}

fn dimensionality(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_dimensionality");
    group.sample_size(10);
    for d in [2usize, 4, 6, 8, 10] {
        let data = clustered(1_000, d, 8, BENCH_SEED);
        let tree = bench_tree(&data);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(greedy_disc(&tree, 0.04, GreedyVariant::Grey, true).size()))
        });
    }
    group.finish();
}

/// Wall-clock effect of the parent-distance lemma on Greedy-DisC (same
/// solutions, fewer distance computations).
fn parent_pruning(c: &mut Criterion) {
    let data = clustered(2_000, 2, 8, BENCH_SEED);
    let mut group = c.benchmark_group("fig9_parent_pruning");
    group.sample_size(10);
    for (label, pruning) in [("lemma_on", true), ("lemma_off", false)] {
        let tree = MTree::build(&data, MTreeConfig::default().with_parent_pruning(pruning));
        tree.reset_node_accesses();
        group.bench_function(label, |b| {
            b.iter(|| black_box(greedy_disc(&tree, 0.04, GreedyVariant::Grey, true).size()))
        });
    }
    group.finish();
}

/// Count seeding (one range query per object): the serial loop vs the
/// threaded fan-out every heuristic seeds with.
fn seeding(c: &mut Criterion) {
    let data = clustered(4_000, 2, 8, BENCH_SEED);
    let tree = bench_tree(&data);
    let per_id = |id, scratch: &mut Vec<usize>| {
        tree.range_query(data.row(id), 0.04, None, scratch);
        (scratch.len() - 1) as u32
    };
    let mut group = c.benchmark_group("fig9_count_seeding");
    group.sample_size(10);
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("serial", |b| {
        b.iter(|| black_box(par::seed_counts_serial(data.len(), per_id)))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| black_box(par::seed_counts(data.len(), per_id)))
    });
    group.finish();
}

criterion_group!(
    benches,
    cardinality,
    dimensionality,
    parent_pruning,
    seeding
);
criterion_main!(benches);
