//! Shared fixtures for the Criterion benchmarks, and the measurements
//! behind the gated `report` binary.
//!
//! The benches measure wall-clock time of the same computations whose
//! node-access counts the `disc-eval` experiments report; one bench
//! target exists per paper table/figure group (see `benches/`):
//!
//! * `table3_solution_sizes` — Table 3 heuristics,
//! * `fig7_8_node_accesses` — Figures 7–8 basic/greedy/cover heuristics,
//! * `fig9_scaling` — Figure 9 cardinality/dimensionality scaling,
//! * `fig10_fat_factor` — Figure 10 splitting policies (build + query),
//! * `zooming` — Figures 11–16 zoom-in/zoom-out operators,
//! * `baselines` — Figure 6 comparison models,
//! * `graph_vs_tree` — CSR graph materialisation (self-join vs O(n²)
//!   scans) and graph-resident vs tree-backed selection loops.
//!
//! Benchmarks run on bench-scale datasets (a few thousand objects) so a
//! full `cargo bench` completes in minutes; the eval harness is the tool
//! for paper-scale numbers.
//!
//! [`build_report`] assembles `BENCH_report.json`, which the `report`
//! binary writes: the paper's cost model (distance computations and
//! node accesses) on the fig9 clustered workload, graph ≡ tree parity
//! for every graph-resident runner it runs, the same-run ratio gates,
//! and the 10^5–10^6 scale tier. Wall clocks that no ratio gate reads
//! are left to `perfbench/`, which times the build → open → zoom
//! journeys end to end.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use disc_core::{
    fast_c, greedy_c, greedy_c_graph, greedy_disc, greedy_disc_graph, greedy_zoom_in,
    greedy_zoom_in_graph, greedy_zoom_out, multi_radius_basic_disc, multi_radius_graph,
    multi_radius_greedy_disc, par, zoom_out_graph, GreedyVariant, ShardedBuildStats,
    ZoomOutVariant, DEFAULT_SHARDS,
};
use disc_datasets::synthetic::{clustered, uniform};
use disc_graph::{StratifiedDiskGraph, StreamingCatalog, UnitDiskGraph};
use disc_metric::{Dataset, IdPermutation};
use disc_mtree::{MTree, MTreeConfig};

/// Seed shared by all bench datasets.
pub const BENCH_SEED: u64 = 77;

/// Bench-scale clustered dataset (2-D).
pub fn bench_clustered(n: usize) -> Dataset {
    clustered(n, 2, 8, BENCH_SEED)
}

/// Bench-scale uniform dataset (2-D).
pub fn bench_uniform(n: usize) -> Dataset {
    uniform(n, 2, BENCH_SEED)
}

/// Default tree (capacity 50, MinOverlap) with the build cost cleared.
pub fn bench_tree(data: &Dataset) -> MTree<'_> {
    let tree = MTree::build(data, MTreeConfig::default());
    tree.reset_node_accesses();
    tree
}

/// Figure 9's radius on the clustered workload.
const RADIUS: f64 = 0.04;
/// The zoom sweep's stratified build radius.
const R_MAX: f64 = 0.08;
/// The zoom-in targets: [`RADIUS`] bracketed by one coarser and one
/// finer setting.
const TARGETS: [f64; 3] = [0.06, RADIUS, 0.02];

/// CSR-assembly regression gate, a ratio against the same run's
/// annotated self-join instead of an absolute wall clock: both phases
/// stream the same edge set on the same host in the same process, so
/// host speed, memory bandwidth and contention cancel out of the
/// quotient. The renumbered build's recorded ratio at n = 10_000 is
/// ~3.8; a genuine assembly regression moves it, a slow host does not.
const ASSEMBLY_RATIO_LIMIT: f64 = 6.0;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1_000.0
}

/// Outputs that differ between two pipelines, as a gate value.
fn mismatches(identical: bool) -> f64 {
    if identical {
        0.0
    } else {
        1.0
    }
}

/// A gated report: named metrics with their units, and gates with the
/// bound each value must meet. Entries keep the order they were
/// recorded in.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    gates: Vec<(String, f64, f64, bool)>,
}

impl Report {
    /// Records `value`, measured in `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Gates `value < bound`.
    pub fn below(&mut self, name: impl Into<String>, value: f64, bound: f64) {
        self.gates.push((name.into(), value, bound, value < bound));
    }

    /// Gates `value ≤ bound`.
    pub fn at_most(&mut self, name: impl Into<String>, value: f64, bound: f64) {
        self.gates.push((name.into(), value, bound, value <= bound));
    }

    /// Gates `value ≥ bound`.
    pub fn at_least(&mut self, name: impl Into<String>, value: f64, bound: f64) {
        self.gates.push((name.into(), value, bound, value >= bound));
    }

    /// Names of the failed gates, in report order. A NaN value or bound
    /// fails its gate.
    pub fn failed(&self) -> Vec<&str> {
        self.gates
            .iter()
            .filter(|g| !g.3)
            .map(|g| g.0.as_str())
            .collect()
    }

    /// The report as JSON: a provenance block (commit, core count,
    /// repetitions per measurement, and this process's peak RSS so
    /// far), then the `metrics` map of `{value, unit}` and the `gates`
    /// map of `{value, bound, pass}`.
    pub fn to_json(&self) -> String {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        let nproc = disc_metric::tasks::workers(0);
        let peak = disc_cli::verbs::peak_rss_mib().unwrap_or(f64::NAN);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "    {name:?}: {{\"value\": {}, \"unit\": {unit:?}}}",
                    num(*value)
                )
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|(name, value, bound, pass)| {
                format!(
                    "    {name:?}: {{\"value\": {}, \"bound\": {}, \"pass\": {pass}}}",
                    num(*value),
                    num(*bound)
                )
            })
            .collect();
        // Every measurement runs once: repetitions is 1.
        format!(
            "{{\n  \"provenance\": {{\"commit\": {commit:?}, \"nproc\": {nproc}, \
             \"repetitions\": 1, \"peak_rss_mib\": {}}},\n  \
             \"metrics\": {{\n{}\n  }},\n  \"gates\": {{\n{}\n  }}\n}}\n",
            num(peak),
            metrics.join(",\n"),
            gates.join(",\n")
        )
    }

    /// Writes [`Report::to_json`] to `path`, then fails naming every
    /// failed gate, so a failing run's numbers are on disk.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let failed = self.failed();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "wrote {}; failed gates: {}",
                path.display(),
                failed.join(", ")
            ))
        }
    }
}

/// A JSON number: integers exactly, other values to six significant
/// digits, and non-finite values (which JSON cannot hold) as `null`.
fn num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let decimals = (5 - v.abs().log10().floor() as i32).max(0) as usize;
        let s = format!("{v:.decimals$}");
        if decimals == 0 {
            s
        } else {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        }
    }
}

/// Builds every section of `BENCH_report.json`: the cost model, parity
/// and ratio gates on the fig9 clustered workload at `n`, then one
/// clustered and one uniform scale-tier build at each of `scale_tiers`.
pub fn build_report(n: usize, scale_tiers: &[usize]) -> Report {
    let mut r = Report::default();
    let data = bench_clustered(n);
    let tree = bench_tree(&data);
    record_pruning(&mut r, &tree);
    measure_graph_vs_tree(&tree, RADIUS).record(&mut r);
    let zoom = measure_zoom_graph_vs_tree(&tree, R_MAX, &TARGETS);
    zoom.record(&mut r);
    measure_streaming(&zoom.data, &zoom.strat, 64, 32, RADIUS).record(&mut r);
    drop(zoom);
    for &tier in scale_tiers {
        // Degree-60 target on the uniform square, n·π·r² ≈ 60, so edge
        // volume grows linearly with n; the clustered workload reuses
        // the radius and lands denser, the regime the boundary gate
        // cares about.
        let radius = (60.0 / (std::f64::consts::PI * tier as f64)).sqrt();
        measure_scale(&bench_clustered(tier), "clustered", radius, DEFAULT_SHARDS).record(&mut r);
        measure_scale(&bench_uniform(tier), "uniform", radius, DEFAULT_SHARDS).record(&mut r);
    }
    r
}

/// One fig9 runner over a tree, at [`RADIUS`].
type Fig9Run = fn(&MTree<'_>);

/// Distance computations of count seeding and of full Greedy-DisC,
/// Greedy-C and Fast-C runs with the M-tree parent-distance lemma off
/// (a tree built alongside `tree`) and on (`tree`).
fn record_pruning(r: &mut Report, tree: &MTree<'_>) {
    let unpruned = MTree::build(
        tree.data(),
        MTreeConfig::default().with_parent_pruning(false),
    );
    let runs: [(&str, Fig9Run); 4] = [
        ("count_seeding", |t| {
            // Object-only queries, exactly as the heuristics seed.
            par::seed_counts_serial(t.len(), |id, scratch: &mut Vec<usize>| {
                t.range_query(t.data().row(id), RADIUS, None, scratch);
                (scratch.len() - 1) as u32
            });
        }),
        ("greedy_disc", |t| {
            greedy_disc(t, RADIUS, GreedyVariant::Grey, true);
        }),
        ("greedy_c", |t| {
            greedy_c(t, RADIUS);
        }),
        ("fast_c", |t| {
            fast_c(t, RADIUS);
        }),
    ];
    for (label, run) in runs {
        let [off, on] = [&unpruned, tree].map(|t| {
            t.reset_distance_computations();
            run(t);
            t.reset_distance_computations() as f64
        });
        r.metric(format!("pruning.{label}.off_dc"), off, "dc");
        r.metric(format!("pruning.{label}.on_dc"), on, "dc");
        r.metric(format!("pruning.{label}.ratio"), off / on.max(1.0), "x");
    }
}

/// Greedy-DisC and Greedy-C at one radius, graph-resident (one
/// self-join, then selection with no index queries) and tree-backed,
/// in distance computations.
pub struct GraphVsTree {
    /// `n(n−1)/2`, the O(n²) scan's distance-computation count.
    pub pairs_all: u64,
    /// Distance computations of the self-join materialisation (the
    /// graph pipeline's *total*: selection adds zero).
    pub self_join_dc: u64,
    /// Undirected edges of `G_{P,r}`.
    pub edges: usize,
    /// Tree-backed pruned Greedy-DisC distance computations.
    pub disc_tree_dc: u64,
    /// Greedy-DisC solution size.
    pub disc_size: usize,
    /// Tree-backed Greedy-C distance computations.
    pub c_tree_dc: u64,
    /// Greedy-C solution size.
    pub c_size: usize,
    /// Whether graph-resident Greedy-DisC chose the tree-backed solution.
    pub disc_identical: bool,
    /// Whether graph-resident Greedy-C chose the tree-backed solution.
    pub c_identical: bool,
}

/// Runs both pipelines at `radius`. Resets (and so consumes) the tree's
/// distance-computation counter.
pub fn measure_graph_vs_tree(tree: &MTree<'_>, radius: f64) -> GraphVsTree {
    let n = tree.len() as u64;
    tree.reset_distance_computations();
    let graph = UnitDiskGraph::from_mtree(tree, radius);
    let self_join_dc = tree.reset_distance_computations();
    let tree_disc = greedy_disc(tree, radius, GreedyVariant::Grey, true);
    let disc_tree_dc = tree.reset_distance_computations();
    let tree_c = greedy_c(tree, radius);
    let c_tree_dc = tree.reset_distance_computations();
    GraphVsTree {
        pairs_all: n * n.saturating_sub(1) / 2,
        self_join_dc,
        edges: graph.edge_count(),
        disc_tree_dc,
        disc_size: tree_disc.size(),
        c_tree_dc,
        c_size: tree_c.size(),
        disc_identical: greedy_disc_graph(&graph).solution == tree_disc.solution,
        c_identical: greedy_c_graph(&graph).solution == tree_c.solution,
    }
}

impl GraphVsTree {
    fn record(&self, r: &mut Report) {
        let dc = self.self_join_dc as f64;
        r.metric("self_join.all_pairs", self.pairs_all as f64, "pairs");
        r.metric("self_join.dc", dc, "dc");
        r.metric("self_join.edges", self.edges as f64, "edges");
        r.metric(
            "self_join.tree_greedy_disc_dc",
            self.disc_tree_dc as f64,
            "dc",
        );
        r.metric("self_join.tree_greedy_c_dc", self.c_tree_dc as f64, "dc");
        r.metric(
            "self_join.greedy_disc_size",
            self.disc_size as f64,
            "objects",
        );
        r.metric("self_join.greedy_c_size", self.c_size as f64, "objects");
        r.below("self_join.dc_below_all_pairs", dc, self.pairs_all as f64);
        r.at_most(
            "self_join.dc_within_tree_greedy_disc",
            dc,
            self.disc_tree_dc as f64,
        );
        r.at_most("parity.greedy_disc", mismatches(self.disc_identical), 0.0);
        r.at_most("parity.greedy_c", mismatches(self.c_identical), 0.0);
    }
}

/// A chained zoom-in sweep (Greedy-DisC at `r_max`, then Greedy-Zoom-In
/// to each target in turn) run graph-resident on one stratified build
/// and tree-backed, plus the zoom-out and multi-radius runners on both
/// sides.
pub struct ZoomGraphVsTree {
    /// The sweep's largest radius (the stratified build radius).
    pub r_max: f64,
    /// The zoom-in targets below `r_max`, in sweep (descending) order.
    pub targets: Vec<f64>,
    /// Distance computations of the one annotated `r_max` self-join +
    /// stratified CSR assembly — the graph pipeline's *total*: the
    /// sweep itself adds zero.
    pub strat_build_dc: u64,
    /// The annotated self-join's share of the build wall clock.
    pub strat_selfjoin_ms: f64,
    /// The CSR assembly's share of the build wall clock.
    pub strat_assembly_ms: f64,
    /// Undirected edges of the stratified graph at `r_max`.
    pub strat_edges: usize,
    /// The leaf-order renumbered dataset the build ran on. It carries
    /// the internal↔external bijection `strat` shares, so `strat` pairs
    /// with this dataset, not the original one.
    pub data: Dataset,
    /// The stratified graph over `data`.
    pub strat: StratifiedDiskGraph,
    /// Distance computations charged during the graph-resident sweep
    /// (must be 0 — the sweep never touches the index).
    pub graph_sweep_extra_dc: u64,
    /// Graph-resident sweep wall clock (Greedy-DisC on the `r_max`
    /// prefix view plus every zoom-in step).
    pub graph_sweep_ms: f64,
    /// The plain (un-annotated) `r_max` self-join's distance
    /// computations: the annotation surcharge is
    /// `strat_build_dc - plain_selfjoin_dc`.
    pub plain_selfjoin_dc: u64,
    /// Tree-backed sweep distance computations (preparation included).
    pub tree_sweep_dc: u64,
    /// Tree-backed sweep node accesses (preparation included).
    pub tree_sweep_accesses: u64,
    /// Tree-backed sweep wall clock.
    pub tree_sweep_ms: f64,
    /// Solution size at `r_max` and after each zoom-in step.
    pub sizes: Vec<usize>,
    /// Sweep steps whose graph-resident solution differs from the
    /// tree-backed one.
    pub zoom_in_mismatches: usize,
    /// Zoom-out variants (of four, from the first target out to
    /// `r_max`) whose graph-resident solution differs.
    pub zoom_out_mismatches: usize,
    /// Multi-radius modes (greedy, basic) whose graph-resident
    /// solution differs.
    pub multi_radius_mismatches: usize,
}

/// Measures the zoom sweep over `targets` (descending, below `r_max`,
/// at least two) graph-resident and tree-backed, and compares every
/// step. Zoom-out starts from a Greedy-DisC solution at the first
/// target; multi-radius gives even external ids the second target and
/// odd ones `r_max`. Resets (and so consumes) the tree's
/// distance-computation and node-access counters.
pub fn measure_zoom_graph_vs_tree(
    tree: &MTree<'_>,
    r_max: f64,
    targets: &[f64],
) -> ZoomGraphVsTree {
    assert!(
        targets.len() >= 2
            && targets.windows(2).all(|w| w[0] > w[1])
            && targets.iter().all(|&r| r < r_max),
        "targets must be two or more radii descending below r_max"
    );
    // Leaf-order renumbering, as the production build runs: the
    // annotated self-join emits endpoints in near-row order. Solutions
    // stay in external ids on both sides.
    let order = tree.objects_in_leaf_order_uncounted();
    let data = tree.data().renumbered(&order);
    let tree2 = tree.relabeled(&data, &order);

    // `StratifiedDiskGraph::from_mtree`'s two phases, timed apart.
    tree2.reset_distance_computations();
    let t = Instant::now();
    let edges = tree2.range_self_join_dist(r_max);
    let strat_selfjoin_ms = ms_since(t);
    let t = Instant::now();
    let (strat, _) =
        StratifiedDiskGraph::from_dist_edge_slices_checked(tree2.len(), r_max, &[&edges], 0, None)
            .expect("valid radius, no cancel token");
    let strat_assembly_ms = ms_since(t);
    drop(edges);
    let strat = strat.with_permutation(data.permutation().cloned());
    let strat_build_dc = tree2.reset_distance_computations();

    let _ = tree2.range_self_join(r_max);
    let plain_selfjoin_dc = tree2.reset_distance_computations();

    tree.reset_distance_computations();
    tree.reset_node_accesses();
    let t = Instant::now();
    let mut prev = greedy_disc(tree, r_max, GreedyVariant::Grey, true);
    let mut tree_sols = vec![prev.solution.clone()];
    for &r_new in targets {
        prev = greedy_zoom_in(tree, &prev, r_new).result;
        tree_sols.push(prev.solution.clone());
    }
    let tree_sweep_ms = ms_since(t);
    let tree_sweep_dc = tree.reset_distance_computations();
    let tree_sweep_accesses = tree.reset_node_accesses();

    // The first solve runs on the prefix view itself, as serving does.
    let t = Instant::now();
    let mut prev = greedy_disc_graph(&strat.view(r_max));
    let mut graph_sols = vec![prev.solution.clone()];
    for &r_new in targets {
        prev = greedy_zoom_in_graph(&strat, &prev, r_new).result;
        graph_sols.push(prev.solution.clone());
    }
    let graph_sweep_ms = ms_since(t);
    // Neither tree may have been touched by the graph sweep.
    let graph_sweep_extra_dc =
        tree.reset_distance_computations() + tree2.reset_distance_computations();

    let seed = greedy_disc(tree, targets[0], GreedyVariant::Grey, true);
    let zoom_out_mismatches = [
        ZoomOutVariant::Plain,
        ZoomOutVariant::GreedyA,
        ZoomOutVariant::GreedyB,
        ZoomOutVariant::GreedyC,
    ]
    .into_iter()
    .filter(|&v| {
        zoom_out_graph(&tree2, &strat, &seed, r_max, v)
            .result
            .solution
            != greedy_zoom_out(tree, &seed, r_max, v).result.solution
    })
    .count();
    let radii: Vec<f64> = (0..tree.len())
        .map(|id| if id % 2 == 0 { targets[1] } else { r_max })
        .collect();
    let multi_radius_mismatches = usize::from(
        multi_radius_graph(&tree2, &strat, &radii, true).solution
            != multi_radius_greedy_disc(tree, &radii, true).solution,
    ) + usize::from(
        multi_radius_graph(&tree2, &strat, &radii, false).solution
            != multi_radius_basic_disc(tree, &radii, true).solution,
    );
    drop(tree2);

    ZoomGraphVsTree {
        r_max,
        targets: targets.to_vec(),
        strat_build_dc,
        strat_selfjoin_ms,
        strat_assembly_ms,
        strat_edges: strat.edge_count(),
        data,
        strat,
        graph_sweep_extra_dc,
        graph_sweep_ms,
        plain_selfjoin_dc,
        tree_sweep_dc,
        tree_sweep_accesses,
        tree_sweep_ms,
        sizes: graph_sols.iter().map(Vec::len).collect(),
        zoom_in_mismatches: graph_sols
            .iter()
            .zip(&tree_sols)
            .filter(|(g, t)| g != t)
            .count(),
        zoom_out_mismatches,
        multi_radius_mismatches,
    }
}

impl ZoomGraphVsTree {
    fn record(&self, r: &mut Report) {
        let build_dc = self.strat_build_dc as f64;
        let extra_dc = self.graph_sweep_extra_dc as f64;
        r.metric("zoom.build_dc", build_dc, "dc");
        r.metric("zoom.plain_join_dc", self.plain_selfjoin_dc as f64, "dc");
        r.metric("zoom.edges", self.strat_edges as f64, "edges");
        r.metric("zoom.graph_sweep_extra_dc", extra_dc, "dc");
        r.metric("zoom.tree_sweep_dc", self.tree_sweep_dc as f64, "dc");
        r.metric(
            "zoom.tree_sweep_node_accesses",
            self.tree_sweep_accesses as f64,
            "accesses",
        );
        let radii = std::iter::once(&self.r_max).chain(&self.targets);
        for (radius, &size) in radii.zip(&self.sizes) {
            r.metric(format!("zoom.size_at_{radius}"), size as f64, "objects");
        }
        r.metric("zoom.self_join_ms", self.strat_selfjoin_ms, "ms");
        r.metric("zoom.assembly_ms", self.strat_assembly_ms, "ms");
        r.metric("zoom.graph_sweep_ms", self.graph_sweep_ms, "ms");
        r.metric("zoom.tree_sweep_ms", self.tree_sweep_ms, "ms");
        r.at_most("zoom.sweep_extra_dc", extra_dc, 0.0);
        r.below(
            "zoom.graph_dc_below_tree",
            build_dc + extra_dc,
            self.tree_sweep_dc as f64,
        );
        // Every distance the annotated build computes beyond the plain
        // self-join belongs to an emitted edge.
        r.at_most(
            "zoom.build_dc_within_plain_plus_edges",
            build_dc,
            (self.plain_selfjoin_dc + self.strat_edges as u64) as f64,
        );
        r.at_most(
            "zoom.assembly_over_self_join",
            self.strat_assembly_ms / self.strat_selfjoin_ms,
            ASSEMBLY_RATIO_LIMIT,
        );
        // Solving on the prefix view leaves the graph sweep no copy to
        // pay, so with zero distance computations it must also win on
        // the same run's wall clock.
        r.below(
            "zoom.graph_sweep_ms_below_tree",
            self.graph_sweep_ms,
            self.tree_sweep_ms,
        );
        r.at_most("parity.zoom_in", self.zoom_in_mismatches as f64, 0.0);
        r.at_most("parity.zoom_out", self.zoom_out_mismatches as f64, 0.0);
        r.at_most(
            "parity.multi_radius",
            self.multi_radius_mismatches as f64,
            0.0,
        );
    }
}

/// One streaming-mutation measurement: per-insert catalog maintenance
/// against a from-scratch rebuild over the final object set, with
/// solution parity, and one delete sequence run three ways — the
/// catalog's overlay deletes plus one compaction, the in-place unlink
/// (`remove_object`) and the filtering rebuild (`remove_object_rescan`).
pub struct StreamingBench {
    /// Live objects before the mutations.
    pub n: usize,
    /// Points inserted.
    pub inserts: usize,
    /// Objects deleted (after the inserts, and again in each delete
    /// path of the comparison).
    pub deletes: usize,
    /// Wall clock of all inserts (ms).
    pub insert_total_ms: f64,
    /// Wall clock of one from-scratch rebuild over the final object
    /// set (M-tree build + self-join + CSR assembly), ms.
    pub rebuild_ms: f64,
    /// Distance computations charged by the mutation layer (exactly
    /// `n` per insert, none per delete).
    pub mutation_dc: u64,
    /// Whether greedy solutions over the mutated catalog equal the
    /// rebuild's at the probe radius (external ids).
    pub solutions_match: bool,
    /// Total wall clock of the deletes through `remove_object`, ms.
    pub unlink_total_ms: f64,
    /// Total wall clock of the same deletes through
    /// `remove_object_rescan`, on a clone of the same graph, ms.
    pub rescan_total_ms: f64,
    /// Whether both delete paths left byte-identical CSR arrays
    /// (offsets, neighbors, distance bits).
    pub delete_paths_identical: bool,
    /// Total wall clock of the same deletes through a catalog's
    /// `remove_external` (a tombstone in the mutation overlay, plus the
    /// dataset compaction), ms.
    pub overlay_total_ms: f64,
    /// Wall clock of the one `compact()` that folds those tombstones
    /// into the CSR, ms.
    pub compact_ms: f64,
    /// Whether that compaction left the graph `remove_object` left:
    /// same arrays, same permutation.
    pub overlay_identical: bool,
}

impl StreamingBench {
    /// Mean wall clock per insert.
    pub fn per_insert_ms(&self) -> f64 {
        self.insert_total_ms / self.inserts.max(1) as f64
    }

    /// How many times cheaper one insert is than one full rebuild.
    pub fn speedup(&self) -> f64 {
        self.rebuild_ms / self.per_insert_ms()
    }

    /// How many times cheaper the unlink deletes are than the rescan's.
    pub fn delete_speedup(&self) -> f64 {
        self.rescan_total_ms / self.unlink_total_ms
    }

    /// How many times cheaper the overlay deletes plus one compaction
    /// are than the same deletes through `remove_object`.
    pub fn overlay_speedup(&self) -> f64 {
        self.unlink_total_ms / (self.overlay_total_ms + self.compact_ms)
    }

    fn record(&self, r: &mut Report) {
        r.metric("streaming.mutation_dc", self.mutation_dc as f64, "dc");
        r.metric("streaming.per_insert_ms", self.per_insert_ms(), "ms");
        r.metric("streaming.rebuild_ms", self.rebuild_ms, "ms");
        r.metric("streaming.deletes", self.deletes as f64, "objects");
        r.metric("streaming.remove_object_ms", self.unlink_total_ms, "ms");
        r.metric("streaming.rescan_ms", self.rescan_total_ms, "ms");
        r.metric("streaming.overlay_deletes_ms", self.overlay_total_ms, "ms");
        r.metric("streaming.compact_ms", self.compact_ms, "ms");
        r.at_least(
            "streaming.insert_speedup_over_rebuild",
            self.speedup(),
            10.0,
        );
        r.at_least(
            "streaming.remove_object_speedup_over_rescan",
            self.delete_speedup(),
            2.0,
        );
        r.at_least(
            "streaming.overlay_speedup_over_remove_object",
            self.overlay_speedup(),
            2.0,
        );
        r.at_most("parity.rebuild", mismatches(self.solutions_match), 0.0);
        r.at_most(
            "parity.rescan",
            mismatches(self.delete_paths_identical),
            0.0,
        );
        r.at_most("parity.overlay", mismatches(self.overlay_identical), 0.0);
    }
}

/// Measures the streaming mutation layer over `graph`: `inserts` point
/// insertions (duplicating existing coordinates, the densest
/// neighbourhoods) and `deletes` removals, timed against one
/// from-scratch rebuild of the stratified graph over the final object
/// set through the production M-tree self-join pipeline. The probe at
/// `radius` pins that the mutated catalog and the rebuild select
/// identical external ids.
pub fn measure_streaming(
    data: &Dataset,
    graph: &StratifiedDiskGraph,
    inserts: usize,
    deletes: usize,
    radius: f64,
) -> StreamingBench {
    let n = data.len();
    assert!(deletes < n, "streaming bench must leave live objects");
    let mut catalog = StreamingCatalog::try_new(data.clone(), graph.clone())
        .expect("bench dataset/graph pair is consistent");
    let dim = data.dim();

    let t = Instant::now();
    for i in 0..inserts {
        let v = (i * 31) % n;
        let coords = data.flat_coords()[v * dim..(v + 1) * dim].to_vec();
        catalog.insert(&coords).expect("in-range insert");
    }
    let insert_total_ms = ms_since(t);
    for ext in 0..deletes {
        catalog.remove_external(ext).expect("live id");
    }
    let mutation_dc = catalog.distance_computations();

    // The alternative the mutation layer replaces: a full rebuild over
    // the final object set through the production pipeline.
    let t = Instant::now();
    let perm =
        IdPermutation::try_new_sparse(catalog.live_externals()).expect("live ids are unique");
    let rebuilt_data = Dataset::from_flat(
        "rebuild",
        catalog.data().metric(),
        catalog.data().dim(),
        catalog.data().flat_coords().to_vec(),
    )
    .with_permutation(Some(Arc::new(perm)));
    let tree = MTree::build(&rebuilt_data, MTreeConfig::default());
    let rebuilt = StratifiedDiskGraph::from_mtree_checked(&tree, graph.radius(), 0, None)
        .expect("self-join over a clean dataset");
    let rebuild_ms = ms_since(t);
    let solutions_match = greedy_disc_graph(&catalog.graph().view(radius).to_unit_disk_graph())
        .solution
        == greedy_disc_graph(&rebuilt.view(radius).to_unit_disk_graph()).solution;
    // Free both graphs before the delete paths clone the original three
    // more times.
    drop((catalog, rebuilt));

    // One deterministic delete sequence replayed on clones of the
    // *original* graph through the unlink and the rescan, pinned
    // byte-identical, then through a catalog's overlay and one
    // compaction, pinned to the unlink's graph.
    let seq: Vec<usize> = (0..deletes).map(|i| (i * 131) % (n - i)).collect();
    let mut unlink_graph = graph.clone();
    let mut rescan_graph = graph.clone();
    let t = Instant::now();
    for &v in &seq {
        unlink_graph.remove_object(v).expect("live id");
    }
    let unlink_total_ms = ms_since(t);
    let t = Instant::now();
    for &v in &seq {
        rescan_graph.remove_object_rescan(v).expect("live id");
    }
    let rescan_total_ms = ms_since(t);
    let delete_paths_identical = unlink_graph.offsets() == rescan_graph.offsets()
        && unlink_graph.neighbors_flat() == rescan_graph.neighbors_flat()
        && unlink_graph.dists_flat() == rescan_graph.dists_flat();
    drop(rescan_graph);
    let mut overlay = StreamingCatalog::try_new(data.clone(), graph.clone())
        .expect("bench dataset/graph pair is consistent");
    let t = Instant::now();
    for &v in &seq {
        let ext = overlay.external_of(v);
        overlay.remove_external(ext).expect("live id");
    }
    let overlay_total_ms = ms_since(t);
    let t = Instant::now();
    overlay.compact();
    let compact_ms = ms_since(t);

    StreamingBench {
        n,
        inserts,
        deletes,
        insert_total_ms,
        rebuild_ms,
        mutation_dc,
        solutions_match,
        unlink_total_ms,
        rescan_total_ms,
        delete_paths_identical,
        overlay_total_ms,
        compact_ms,
        overlay_identical: *overlay.graph() == unlink_graph,
    }
}

/// One sharded build at scale: the full [`disc_core::build_sharded`]
/// pipeline timed end to end, with the per-phase wall clocks and exact
/// distance/node accounting of its [`ShardedBuildStats`].
pub struct ScaleBench {
    /// Workload label (`"clustered"` or `"uniform"`).
    pub workload: &'static str,
    /// Object count.
    pub n: usize,
    /// Build radius (`r_max`).
    pub radius: f64,
    /// End-to-end sharded build wall clock (ms).
    pub build_ms: f64,
    /// Per-phase timings and exact counters from the build.
    pub stats: ShardedBuildStats,
    /// The built CSR's offsets, neighbors and dists, in MiB.
    pub csr_mib: f64,
}

/// Runs one sharded build of `data` at `radius` over `shards` shards,
/// on one worker per core.
pub fn measure_scale(
    data: &Dataset,
    workload: &'static str,
    radius: f64,
    shards: usize,
) -> ScaleBench {
    let t = Instant::now();
    let built =
        disc_core::build_sharded(data, radius, shards).expect("scale bench dataset is clean");
    let build_ms = ms_since(t);
    let g = &built.graph;
    let csr_bytes = std::mem::size_of_val(g.offsets())
        + std::mem::size_of_val(g.neighbors_flat())
        + std::mem::size_of_val(g.dists_flat());
    ScaleBench {
        workload,
        n: data.len(),
        radius,
        build_ms,
        stats: built.stats,
        csr_mib: csr_bytes as f64 / (1024.0 * 1024.0),
    }
}

impl ScaleBench {
    fn record(&self, r: &mut Report) {
        let s = &self.stats;
        let row = format!("scale.{}_{}", self.workload, self.n);
        for (name, value, unit) in [
            ("radius", self.radius, "distance"),
            ("shards", s.shards as f64, "shards"),
            ("edges", s.edges as f64, "edges"),
            (
                "mean_degree",
                2.0 * s.edges as f64 / self.n.max(1) as f64,
                "edges/object",
            ),
            ("csr_mib", self.csr_mib, "MiB"),
            ("build_ms", self.build_ms, "ms"),
            ("phase_ms.partition", s.partition_ms, "ms"),
            ("phase_ms.renumber", s.renumber_ms, "ms"),
            ("phase_ms.tree", s.tree_ms, "ms"),
            ("phase_ms.intra_join", s.intra_join_ms, "ms"),
            ("phase_ms.boundary_join", s.boundary_join_ms, "ms"),
            ("phase_ms.merge", s.merge_ms, "ms"),
            ("phase_ms.assembly", s.assembly_ms, "ms"),
            ("dc", s.distance_computations() as f64, "dc"),
            ("dc.partition", s.partition_dc as f64, "dc"),
            ("dc.tree", s.tree_dc as f64, "dc"),
            ("dc.intra_join", s.intra_join_dc as f64, "dc"),
            ("dc.boundary_join", s.boundary_join_dc as f64, "dc"),
            ("boundary_dc_share", s.boundary_dc_share(), "ratio"),
            (
                "boundary_pairs_joined",
                s.boundary_pairs_joined as f64,
                "pairs",
            ),
            ("node_accesses", s.node_accesses as f64, "accesses"),
        ] {
            r.metric(format!("{row}.{name}"), value, unit);
        }
        // Boundary work must stay a fringe, not a second all-pairs
        // join. The degree-targeted radius grows as 1/sqrt(n), so below
        // 10^5 the boundary bands are proportionally thicker and the
        // share is not comparable.
        if self.workload == "clustered" && self.n >= 100_000 {
            r.below(
                format!("{row}.boundary_dc_share"),
                s.boundary_dc_share(),
                0.25,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    use disc_cli::serve::{ServeConfig, Server, Sink};
    use disc_cli::state::ServeState;
    use disc_cli::worker::{solution_hash, Op, Outcome, Reply, Request};

    use super::*;

    /// Held by every test in this module, so they run one at a time:
    /// the streaming test gates wall-clock ratios in release builds,
    /// and tests running beside it on the harness's other threads
    /// would take the cores those ratios time.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    /// Takes [`ONE_AT_A_TIME`]. A test that failed while holding it
    /// poisons it; the guarded `()` is valid regardless, so the next
    /// test still runs.
    fn one_at_a_time() -> MutexGuard<'static, ()> {
        ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn scale_measurement_records_phases_rss_and_share() {
        let _one = one_at_a_time();
        let d = bench_clustered(1_500);
        let m = measure_scale(&d, "clustered", 0.03, 4);
        assert_eq!(m.n, 1_500);
        assert!(m.stats.edges > 0 && m.build_ms > 0.0);
        // n + 1 offsets, and each undirected edge twice in neighbors
        // and in dists, all 8-byte words.
        let words = 1_501 + 4 * m.stats.edges;
        assert_eq!(m.csr_mib, (8 * words) as f64 / (1024.0 * 1024.0));
        let peak = disc_cli::verbs::peak_rss_mib().expect("VmHWM must be readable on this host");
        assert!(peak >= m.csr_mib, "the process held the CSR");
        let share = m.stats.boundary_dc_share();
        assert!((0.0..1.0).contains(&share));
        let mut r = Report::default();
        m.record(&mut r);
        let json = r.to_json();
        for key in [
            "\"scale.clustered_1500.phase_ms.merge\"",
            "\"scale.clustered_1500.csr_mib\"",
            "\"scale.clustered_1500.boundary_dc_share\"",
            "\"scale.clustered_1500.dc\"",
        ] {
            assert!(json.contains(key), "scale row missing {key}");
        }
    }

    #[test]
    fn kernel_measurement_is_bitwise_identical() {
        let _one = one_at_a_time();
        // One query object against the whole dataset, per pair and as
        // one batched sweep over the lane-major block the M-tree
        // leaves store.
        let d = bench_clustered(2_000);
        let (n, metric) = (d.len(), d.metric());
        let mut lanes = vec![0.0f64; n * d.dim()];
        for id in 0..n {
            for (k, &c) in d.row(id).iter().enumerate() {
                lanes[k * n + id] = c;
            }
        }
        let q = d.row(0).to_vec();
        let mut batch = vec![0.0f64; n];
        metric.dist_batch(&q, &lanes, n, &mut batch);
        for (id, b) in batch.iter().enumerate() {
            assert_eq!(
                b.to_bits(),
                metric.dist_coords(&q, d.row(id)).to_bits(),
                "batched kernel diverged from scalar at object {id}"
            );
        }
    }

    #[test]
    fn stratified_build_stays_within_edge_bound() {
        let _one = one_at_a_time();
        let d = bench_clustered(600);
        let t = bench_tree(&d);
        let m = measure_zoom_graph_vs_tree(&t, 0.08, &[0.06, 0.04, 0.02]);
        assert!(
            m.strat_build_dc <= m.plain_selfjoin_dc + m.strat_edges as u64,
            "annotated build {} dc beyond plain {} + edges {}",
            m.strat_build_dc,
            m.plain_selfjoin_dc,
            m.strat_edges
        );
        assert!(m.strat_selfjoin_ms >= 0.0 && m.strat_assembly_ms >= 0.0);
    }

    #[test]
    fn fixtures_build() {
        let _one = one_at_a_time();
        let d = bench_clustered(300);
        assert_eq!(d.len(), 300);
        let t = bench_tree(&d);
        assert_eq!(t.node_accesses(), 0);
        assert_eq!(bench_uniform(100).len(), 100);
    }

    #[test]
    fn selfjoin_par_measurement_holds_parity() {
        let _one = one_at_a_time();
        let d = bench_clustered(500);
        let t = bench_tree(&d);
        t.reset_distance_computations();
        let edges = t.range_self_join(0.04);
        assert!(!edges.is_empty() && t.reset_distance_computations() > 0);
        let serial_graph = UnitDiskGraph::from_edges(t.len(), 0.04, &edges);
        let serial_solution = greedy_disc_graph(&serial_graph).solution;
        let auto = disc_metric::tasks::workers(0);
        for threads in [1, 2, 3, 8, auto] {
            let sharded = UnitDiskGraph::from_edges_sharded(t.len(), 0.04, &edges, threads);
            assert_eq!(sharded.offsets(), serial_graph.offsets());
            assert_eq!(sharded.neighbors_flat(), serial_graph.neighbors_flat());
            assert_eq!(greedy_disc_graph(&sharded).solution, serial_solution);
        }
    }

    /// Collects the hash of every successfully served zoom.
    #[derive(Default)]
    struct HashSink {
        hashes: Mutex<Vec<u64>>,
    }

    impl Sink for HashSink {
        fn deliver(&self, reply: &Reply) {
            if let Outcome::Zoomed { value, .. } = &reply.outcome {
                self.hashes.lock().expect("sink lock").push(value.hash);
            }
        }

        fn info(&self, _line: &str) {}
    }

    fn zoom(id: u64, radius: f64) -> Request {
        Request {
            id,
            op: Op::Zoom { radius },
            deadline: None,
        }
    }

    #[test]
    fn serve_measurement_holds_parity_and_sheds_under_flood() {
        let _one = one_at_a_time();
        let d = bench_clustered(500);
        let g = StratifiedDiskGraph::build(&d, 0.08);
        let radii = [0.08, 0.04, 0.02];
        let catalog = StreamingCatalog::try_new(d.clone(), g.clone()).expect("consistent pair");
        let state = ServeState::from_catalog(catalog);
        let expected: Vec<u64> = radii
            .iter()
            .map(|&r| solution_hash(&greedy_disc_graph(&g.view(r).to_unit_disk_graph()).solution))
            .collect();

        // Three rounds over the radii on two workers, with a queue
        // large enough that nothing sheds.
        let sink = Arc::new(HashSink::default());
        let server = Server::start(
            Arc::clone(&state),
            ServeConfig {
                workers: 2,
                queue: 9,
                cache: radii.len(),
            },
            Arc::<HashSink>::clone(&sink) as Arc<dyn Sink>,
        );
        for id in 0..9 {
            server.submit(zoom(id, radii[id as usize % 3]));
        }
        assert!(server.drain(Duration::from_secs(600)));
        let snap = server.shutdown();
        assert!(snap.is_consistent());
        assert_eq!(snap.completed, 9);
        let hashes = sink.hashes.lock().expect("sink lock");
        assert_eq!(hashes.len(), 9);
        assert!(
            hashes.iter().all(|h| expected.contains(h)),
            "served hashes diverged"
        );

        // One worker pinned by a sleep and one queue slot filled, then
        // a flood alternating a cache-warm radius (served degraded)
        // and a cache-cold one (shed).
        let overload = Server::start(
            state,
            ServeConfig {
                workers: 1,
                queue: 1,
                cache: radii.len(),
            },
            Arc::new(HashSink::default()) as Arc<dyn Sink>,
        );
        overload.submit(zoom(0, radii[0]));
        overload.drain(Duration::from_secs(600));
        for (id, ms) in [(1, 250), (2, 1)] {
            overload.submit(Request {
                id,
                op: Op::Sleep { ms },
                deadline: None,
            });
            // Let the worker pick up the long sleep first.
            std::thread::sleep(Duration::from_millis(50));
        }
        for i in 0..10 {
            overload.submit(zoom(100 + i, radii[i as usize % 2]));
        }
        overload.drain(Duration::from_secs(600));
        let snap = overload.shutdown();
        assert!(snap.is_consistent());
        assert!(snap.degraded > 0, "saturated pool never served degraded");
        assert!(snap.shed > 0, "saturated pool never shed");
    }

    #[test]
    fn streaming_measurement_matches_rebuild_and_beats_it() {
        let _one = one_at_a_time();
        let d = bench_clustered(2_000);
        let g = StratifiedDiskGraph::build(&d, 0.08);
        let m = measure_streaming(&d, &g, 32, 16, 0.04);
        assert_eq!(m.n, 2_000);
        assert!(m.solutions_match, "mutated catalog diverged from rebuild");
        assert!(m.mutation_dc >= (32 * 2_000) as u64, "exact insert charge");
        assert!(
            m.delete_paths_identical,
            "unlink and rescan deletes diverged"
        );
        assert!(
            m.overlay_identical,
            "overlay compaction diverged from unlink"
        );
        // The wall-clock bounds (insert 10x, deletes 2x) are calibrated
        // for optimised code, which the release report gates. A debug
        // build keeps a direction check on the ratios.
        if cfg!(debug_assertions) {
            assert!(
                m.speedup() > 1.0 && m.delete_speedup() > 1.0,
                "even unoptimised, the structural wins must show"
            );
        } else {
            let mut r = Report::default();
            m.record(&mut r);
            assert!(r.failed().is_empty(), "{}", r.to_json());
        }
    }

    #[test]
    fn graph_vs_tree_measurement_is_consistent() {
        let _one = one_at_a_time();
        let d = bench_clustered(400);
        let t = bench_tree(&d);
        let m = measure_graph_vs_tree(&t, 0.04);
        assert_eq!(m.pairs_all, 400 * 399 / 2);
        assert!(m.self_join_dc > 0 && m.self_join_dc < m.pairs_all);
        assert!(m.edges > 0);
        assert!(m.disc_size > 0 && m.c_size > 0);
        assert!(m.disc_identical && m.c_identical);
    }

    #[test]
    fn zoom_graph_measurement_holds_parity_and_adds_no_distances() {
        let _one = one_at_a_time();
        let d = bench_clustered(600);
        let t = bench_tree(&d);
        let m = measure_zoom_graph_vs_tree(&t, 0.08, &[0.06, 0.04, 0.02]);
        assert_eq!(m.zoom_in_mismatches, 0);
        assert_eq!(m.zoom_out_mismatches, 0);
        assert_eq!(m.multi_radius_mismatches, 0);
        assert_eq!(
            m.graph_sweep_extra_dc, 0,
            "graph sweep must not touch the index"
        );
        assert_eq!(m.sizes.len(), 4);
        assert!(m.sizes.windows(2).all(|w| w[0] <= w[1]), "Lemma 5 sizes");
        assert!(m.strat_build_dc >= m.plain_selfjoin_dc);
        assert_eq!(
            m.data.permutation(),
            m.strat.permutation(),
            "renumbered dataset and graph must share the bijection"
        );
        assert!(
            m.data.permutation().is_some(),
            "leaf order must renumber a clustered corpus"
        );
        // The renumbered pair persists through the store.
        let bytes = disc_store::encode(&m.data, &m.strat).expect("encode");
        let (data, graph) = disc_store::decode(&bytes).expect("decode");
        assert_eq!(disc_store::encode(&data, &graph).expect("re-encode"), bytes);
    }

    #[test]
    fn report_gates_every_metric_and_fails_closed() {
        let _one = one_at_a_time();
        let mut r = build_report(600, &[2_000]);
        assert!(r.metrics.iter().all(|(_, _, unit)| !unit.is_empty()));
        assert!(r.gates.iter().all(|(_, _, bound, _)| bound.is_finite()));
        for gate in [
            "self_join.dc_below_all_pairs",
            "zoom.sweep_extra_dc",
            "zoom.assembly_over_self_join",
            "streaming.overlay_speedup_over_remove_object",
            "parity.multi_radius",
            "parity.overlay",
        ] {
            assert!(r.gates.iter().any(|g| g.0 == gate), "{gate} not gated");
        }

        r.at_most("forced", 1.0, 0.0);
        r.metric("wide", 100_000.4, "ms");
        r.metric("narrow", 0.0125, "distance");
        let path = std::env::temp_dir().join(format!("bench-report-{}.json", std::process::id()));
        let err = r.write(&path).expect_err("a failed gate fails the run");
        let written = std::fs::read_to_string(&path).expect("written before failing");
        let _ = std::fs::remove_file(&path);
        assert!(err.contains("forced"), "{err}");
        assert!(
            written.contains("\"forced\": {\"value\": 1, \"bound\": 0, \"pass\": false}"),
            "{written}"
        );
        assert!(written.contains("\"provenance\": {\"commit\": "));
        // Six significant digits, trailing zeros only after a point.
        assert!(written.contains("\"wide\": {\"value\": 100000, "));
        assert!(written.contains("\"narrow\": {\"value\": 0.0125, "));
    }
}
