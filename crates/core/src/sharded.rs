//! The sharded r-disk graph build: spatial partitions, per-shard
//! M-trees, intra-shard self-joins plus boundary-pair cross-joins, and
//! one shard-ordered CSR fill — byte-identical to the unsharded build
//! at every shard count.
//!
//! ## Pipeline
//!
//! 1. **Partition** — [`disc_mtree::ShardPlan`] recursively median-splits
//!    the dataset with the M-tree's pivot-promotion rule, producing a
//!    canonical permutation (a pure function of the dataset, never of
//!    the shard count) and `s` contiguous shard ranges with covering
//!    balls.
//! 2. **Renumber** — the dataset is renumbered into the canonical
//!    order, so shard `i`'s objects are the contiguous ids
//!    `ranges[i]`; the permutation rides into the graph and snapshot
//!    exactly as the previous leaf-order renumbering did.
//! 3. **Per-shard tree + intra-join** — each non-empty shard builds
//!    [`disc_mtree::MTree::build_range`] over the shared dataset and
//!    self-joins it at `r_max`. Each task is self-contained (a shard
//!    range in, an edge list out): the designed seam for running a
//!    shard in a separate process later.
//! 4. **Boundary joins** — only shard pairs whose covering balls pass
//!    the triangle-inequality filter run a cross-tree dual traversal
//!    ([`disc_mtree::cross_tree_join_dist_checked`]); edges are already
//!    in global ids.
//! 5. **Fill + assembly** — the edge lists go by value to the part
//!    assembly ([`StratifiedDiskGraph::from_dist_edge_parts_checked`]),
//!    with shard `i`'s rows `ranges[i]` as part `i`: its intra-join is
//!    its own list, and each boundary join is shared by its two shards.
//!    Shards count their rows' degrees, then fill their own rows of the
//!    once-allocated CSR, dropping each list as soon as every shard it
//!    touches is filled; the rows then sort by the total
//!    `(distance, id)` order, so the bytes equal the unsharded
//!    assembly's.
//!
//! Sharding is the build's only parallelism. With `threads > 1`,
//! stages 3 and 4 and the count and fill of stage 5 run their *tasks*
//! concurrently (serial tasks taken in order by the workers of
//! [`run_tasks`]), and the stage 5 row sort splits its rows across the
//! same workers. Each join is one serial traversal, so a build whose
//! data falls in one shard joins it on one worker. Every task's
//! traversal is deterministic, so the edge sets, the assembled bytes
//! and the [`ShardedBuildStats`] counters are identical at every worker
//! count. [`DEFAULT_SHARDS`] is the count `disc build` uses unless told
//! otherwise.
//!
//! ## Why bytes match at every shard count
//!
//! * The permutation comes from the plan's full-depth recursion, which
//!   the shard count never influences — shard boundaries are read off
//!   the same recursion tree.
//! * The union of intra-shard and boundary edge sets is exactly the
//!   edge set of `G_{P,r}`: intra joins cover same-shard pairs, the
//!   ball filter provably keeps every cross-shard pair within `r`
//!   (conservative under rounding), and the cross-join emits exactly
//!   the `d ≤ r` pairs of each kept shard pair.
//! * CSR assembly is a pure function of the edge *set* (degree-count
//!   offsets + total-order row sort), indifferent to which task
//!   produced an edge.

use std::time::Instant;

use disc_graph::{GraphError, PartEdges, StratifiedDiskGraph};
use disc_metric::tasks::run_tasks;
use disc_metric::{CancelToken, Dataset};
use disc_mtree::shard::DEFAULT_STOP;
use disc_mtree::{cross_tree_join_dist_checked, DistEdge, MTree, MTreeConfig, ShardPlan};

/// The shard count of `disc build` when `--shards` is not given, and
/// of the report's scale tier. The bytes are the same at every count.
/// More shards than cores leave the join tasks room to balance, and
/// each shard frees its edge lists as soon as its rows are filled, so
/// the build never holds every edge beside the whole CSR.
pub const DEFAULT_SHARDS: usize = 8;

/// Tuning knobs for [`build_sharded_with`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedBuildConfig {
    /// Worker threads for the join tasks, the CSR fill and the assembly
    /// row sort (`0` = one per available core). Each join task is one
    /// serial traversal, so a one-shard build joins on one worker.
    pub threads: usize,
    /// Partition recursion stop size ([`DEFAULT_STOP`]); tests shrink it
    /// to force deep recursion on small datasets.
    pub stop: usize,
    /// Per-shard M-tree construction parameters.
    pub tree: MTreeConfig,
}

impl Default for ShardedBuildConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            stop: DEFAULT_STOP,
            tree: MTreeConfig::default(),
        }
    }
}

/// Per-phase timings and exact work accounting of one sharded build.
///
/// Millisecond fields are wall-clock per phase, except `tree_ms`,
/// `intra_join_ms` and `boundary_join_ms`, which **sum the per-task
/// durations** — under the parallel executor the phases interleave, so
/// per-task sums are the comparable (and shard-count-decomposable)
/// quantity. Counter fields are deterministic: identical at every
/// worker-thread count for a fixed dataset and shard count.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedBuildStats {
    /// Planned shard count (including empty shards).
    pub shards: usize,
    /// Non-empty shard pairs examined by the ball filter.
    pub boundary_pairs_considered: usize,
    /// Pairs that passed the filter and ran a cross-join.
    pub boundary_pairs_joined: usize,
    /// Undirected edges in the assembled graph.
    pub edges: usize,
    /// Spatial partitioning: recursion, covering balls, pair filter.
    pub partition_ms: f64,
    /// Dataset renumbering into the canonical order.
    pub renumber_ms: f64,
    /// Per-shard M-tree construction (sum over shards).
    pub tree_ms: f64,
    /// Intra-shard self-joins (sum over shards).
    pub intra_join_ms: f64,
    /// Boundary cross-joins (sum over joined pairs).
    pub boundary_join_ms: f64,
    /// CSR fill: the per-shard degree counts, the prefix sum and each
    /// shard's fill of its own rows, in parallel across shards.
    pub merge_ms: f64,
    /// CSR row-sort phase of the assembly.
    pub assembly_ms: f64,
    /// Distances evaluated by the partitioner (recursion keys,
    /// promotions, ball radii, pair filter).
    pub partition_dc: u64,
    /// Distances evaluated building the per-shard trees.
    pub tree_dc: u64,
    /// Distances evaluated by the intra-shard self-joins.
    pub intra_join_dc: u64,
    /// Distances evaluated by the boundary cross-joins.
    pub boundary_join_dc: u64,
    /// Node accesses across tree builds, intra-joins and cross-joins.
    pub node_accesses: u64,
}

impl ShardedBuildStats {
    /// Total distance computations across every phase — the exact
    /// counterpart of the unsharded pipeline's tree counter, with the
    /// partitioning and boundary joins included.
    pub fn distance_computations(&self) -> u64 {
        self.partition_dc + self.tree_dc + self.intra_join_dc + self.boundary_join_dc
    }

    /// Boundary-join share of the join distance computations
    /// (`boundary / (intra + boundary)`), the overhead the scale bench
    /// bounds. Zero when no join work ran.
    pub fn boundary_dc_share(&self) -> f64 {
        let join = self.intra_join_dc + self.boundary_join_dc;
        if join == 0 {
            0.0
        } else {
            self.boundary_join_dc as f64 / join as f64
        }
    }
}

/// A completed sharded build: the canonically renumbered dataset (its
/// [`disc_metric::IdPermutation`] maps back to the input's external
/// ids), the stratified graph over it, and the per-phase stats.
#[derive(Debug)]
pub struct ShardedBuild {
    /// The input dataset renumbered into the plan's canonical order.
    pub data: Dataset,
    /// `G_{P, r_max}` over the renumbered dataset, permutation attached.
    pub graph: StratifiedDiskGraph,
    /// Phase timings and exact work accounting.
    pub stats: ShardedBuildStats,
}

/// Builds the stratified r-disk graph through the sharded pipeline with
/// default configuration. See the [module docs](self); byte-identical
/// output at every `shards ≥ 1`.
pub fn build_sharded(
    data: &Dataset,
    r_max: f64,
    shards: usize,
) -> Result<ShardedBuild, GraphError> {
    build_sharded_with(data, r_max, shards, ShardedBuildConfig::default(), None)
}

/// [`build_sharded`] with explicit configuration and cooperative
/// cancellation. On [`GraphError::Cancelled`] no partial build escapes.
pub fn build_sharded_with(
    data: &Dataset,
    r_max: f64,
    shards: usize,
    config: ShardedBuildConfig,
    cancel: Option<&CancelToken>,
) -> Result<ShardedBuild, GraphError> {
    if r_max.is_nan() || r_max < 0.0 {
        return Err(GraphError::InvalidRadius(r_max));
    }
    let mut stats = ShardedBuildStats::default();

    let t = Instant::now();
    let plan = ShardPlan::with_stop(data, shards, config.stop);
    let (pairs, pair_dc) = plan.boundary_pairs(data, r_max);
    stats.partition_ms = t.elapsed().as_secs_f64() * 1e3;
    stats.shards = plan.shards();
    stats.partition_dc = plan.distance_computations() + pair_dc;
    let nonempty = plan.ranges().iter().filter(|r| !r.is_empty()).count();
    stats.boundary_pairs_considered = nonempty * nonempty.saturating_sub(1) / 2;
    stats.boundary_pairs_joined = pairs.len();

    let t = Instant::now();
    let data = data.renumbered(plan.order());
    stats.renumber_ms = t.elapsed().as_secs_f64() * 1e3;

    let workers = disc_metric::tasks::workers(config.threads);

    // Phase A: per-shard tree + intra-join, one task per non-empty
    // shard.
    struct ShardOut<'a> {
        shard: usize,
        tree: MTree<'a>,
        edges: Vec<DistEdge>,
        tree_ms: f64,
        join_ms: f64,
        tree_dc: u64,
        join_dc: u64,
    }
    let tasks: Vec<(usize, std::ops::Range<usize>)> = plan
        .ranges()
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(s, r)| (s, r.clone()))
        .collect();
    let shard_results: Vec<Result<ShardOut<'_>, GraphError>> = {
        let data = &data;
        run_tasks(tasks, workers, move |(shard, range)| {
            let t0 = Instant::now();
            let tree = MTree::build_range(data, config.tree, range);
            let tree_ms = t0.elapsed().as_secs_f64() * 1e3;
            let tree_dc = tree.distance_computations();
            let t1 = Instant::now();
            let edges = tree.range_self_join_dist_checked(r_max, cancel)?;
            Ok(ShardOut {
                shard,
                join_ms: t1.elapsed().as_secs_f64() * 1e3,
                join_dc: tree.distance_computations() - tree_dc,
                tree,
                edges,
                tree_ms,
                tree_dc,
            })
        })
    };
    let mut trees: Vec<Option<MTree<'_>>> = (0..plan.shards()).map(|_| None).collect();
    let mut lists: Vec<PartEdges<Vec<DistEdge>>> =
        Vec::with_capacity(shard_results.len() + pairs.len());
    for result in shard_results {
        let out = result?;
        stats.tree_ms += out.tree_ms;
        stats.intra_join_ms += out.join_ms;
        stats.tree_dc += out.tree_dc;
        stats.intra_join_dc += out.join_dc;
        trees[out.shard] = Some(out.tree);
        lists.push((out.shard, out.shard, out.edges));
    }

    // Phase B: one cross-join task per surviving boundary pair; the
    // lower shard is the left tree, so its counters absorb the charge.
    let boundary_results: Vec<Result<(Vec<DistEdge>, f64), GraphError>> = {
        let trees = &trees;
        run_tasks(pairs.clone(), workers, move |(i, j)| {
            let (Some(left), Some(right)) = (&trees[i], &trees[j]) else {
                unreachable!("boundary pairs never reference empty shards")
            };
            let t0 = Instant::now();
            let edges = cross_tree_join_dist_checked(left, right, r_max, cancel)?;
            Ok((edges, t0.elapsed().as_secs_f64() * 1e3))
        })
    };
    for (result, &(i, j)) in boundary_results.into_iter().zip(&pairs) {
        let (edges, ms) = result?;
        stats.boundary_join_ms += ms;
        lists.push((i, j, edges));
    }
    // The cross-joins charged the shard trees in bulk; whatever the
    // trees now hold beyond build + intra-join is the boundary charge.
    let tree_totals: u64 = trees
        .iter()
        .flatten()
        .map(|t| t.distance_computations())
        .sum();
    stats.boundary_join_dc = tree_totals - stats.tree_dc - stats.intra_join_dc;
    stats.node_accesses = trees.iter().flatten().map(|t| t.node_accesses()).sum();
    drop(trees);

    let (graph, breakdown) = StratifiedDiskGraph::from_dist_edge_parts_checked(
        data.len(),
        r_max,
        plan.ranges(),
        lists,
        workers,
        cancel,
    )?;
    let graph = graph.with_permutation(data.permutation().cloned());
    stats.merge_ms = breakdown.merge_ms;
    stats.assembly_ms = breakdown.sort_ms;
    stats.edges = graph.edge_count();

    Ok(ShardedBuild { data, graph, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_build_rejects_invalid_radius() {
        let data = disc_datasets::synthetic::uniform(32, 2, 7);
        assert!(matches!(
            build_sharded(&data, f64::NAN, 2),
            Err(GraphError::InvalidRadius(_))
        ));
    }

    #[test]
    fn sharded_build_matches_unsharded_reference() {
        let data = disc_datasets::synthetic::clustered(600, 2, 5, 21);
        let r = 0.08;
        let config = ShardedBuildConfig {
            stop: 32,
            ..ShardedBuildConfig::default()
        };
        let reference = build_sharded_with(&data, r, 1, config, None).expect("build");
        // The reference graph equals a direct O(n²) build over the same
        // renumbered dataset.
        let direct = StratifiedDiskGraph::build(&reference.data, r);
        assert_eq!(reference.graph.offsets(), direct.offsets());
        assert_eq!(reference.graph.neighbors_flat(), direct.neighbors_flat());
        for s in [2, 3, 8] {
            let sharded = build_sharded_with(&data, r, s, config, None).expect("build");
            assert_eq!(sharded.graph, reference.graph, "shards={s}");
            assert_eq!(
                sharded.data.flat_coords(),
                reference.data.flat_coords(),
                "shards={s}"
            );
            assert_eq!(sharded.stats.shards, s);
            assert!(sharded.stats.distance_computations() > 0);
        }
    }

    #[test]
    fn cancellation_propagates_from_the_join_phase() {
        let data = disc_datasets::synthetic::uniform(512, 2, 9);
        let token = CancelToken::new();
        token.cancel();
        let result = build_sharded_with(
            &data,
            0.1,
            4,
            ShardedBuildConfig {
                stop: 32,
                ..ShardedBuildConfig::default()
            },
            Some(&token),
        );
        assert!(matches!(result, Err(GraphError::Cancelled)));
    }
}
