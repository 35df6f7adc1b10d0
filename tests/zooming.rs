//! Zooming test tier: the graph-resident adaptive-radius runners
//! (`zoom_in_graph` / `greedy_zoom_in_graph` / `zoom_out_graph` /
//! `multi_radius_graph`) are pinned **byte-identical** to their
//! tree-backed counterparts over one radius-stratified graph, across all
//! four metrics — plus the structural invariants the paper proves for
//! zooming:
//!
//! * `S^{r'} ⊇ S^r` for zoom-in (Lemma 5(i)), and validity of every
//!   adapted solution at its new radius;
//! * a chained zoom-in sweep over several radii reads everything from
//!   the one stratified graph: zero tree accesses and zero distance
//!   computations beyond the annotated self-join that built it;
//! * the multi-radius `min(r(p), r(q))` rule over the stratified graph
//!   equals the tree-backed generalisation for relevance-style radius
//!   assignments.

use std::collections::HashSet;

use disc_diversity::core::{
    multi_radius_basic_disc, multi_radius_greedy_disc, verify_multi_radius,
};
use disc_diversity::metric::{Dataset, Metric, ObjId, Point};
use disc_diversity::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

const ALL_METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

const ALL_ZOOM_OUT: [ZoomOutVariant; 4] = [
    ZoomOutVariant::Plain,
    ZoomOutVariant::GreedyA,
    ZoomOutVariant::GreedyB,
    ZoomOutVariant::GreedyC,
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

/// `(r_prev, r_new)` zoom-in pairs per metric (Hamming radii must stay
/// integral so the discrete distances actually separate).
fn zoom_in_radii(metric: Metric) -> (f64, f64) {
    if metric == Metric::Hamming {
        (2.0, 1.0)
    } else {
        (0.15, 0.07)
    }
}

/// `(r_prev, r_new)` zoom-out pairs per metric.
fn zoom_out_radii(metric: Metric) -> (f64, f64) {
    if metric == Metric::Hamming {
        (1.0, 2.0)
    } else {
        (0.06, 0.14)
    }
}

fn assert_superset(prev: &[ObjId], new: &[ObjId]) {
    let prev_set: HashSet<_> = prev.iter().collect();
    let new_set: HashSet<_> = new.iter().collect();
    assert!(
        prev_set.is_subset(&new_set),
        "Lemma 5(i) violated: S^r' must contain S^r"
    );
}

#[test]
fn zoom_in_graph_equals_tree_backed_on_all_metrics() {
    for metric in ALL_METRICS {
        let data = random_data_metric(180, 70, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        let (r, r_new) = zoom_in_radii(metric);
        let g = StratifiedDiskGraph::from_mtree(&tree, r);
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);

        let tree_plain = zoom_in(&tree, &prev, r_new);
        let graph_plain = zoom_in_graph(&tree, &g, &prev, r_new);
        assert_eq!(
            graph_plain.result.solution, tree_plain.result.solution,
            "{metric:?}: Zoom-In"
        );
        let tree_greedy = greedy_zoom_in(&tree, &prev, r_new);
        let graph_greedy = greedy_zoom_in_graph(&g, &prev, r_new);
        assert_eq!(
            graph_greedy.result.solution, tree_greedy.result.solution,
            "{metric:?}: Greedy-Zoom-In"
        );

        for z in [&graph_plain, &graph_greedy] {
            assert_superset(&prev.solution, &z.result.solution);
            assert!(
                verify_disc(&data, &z.result.solution, r_new).is_valid(),
                "{metric:?}"
            );
            assert_eq!(z.result.node_accesses, 0);
            assert_eq!(z.prep_accesses, 0);
        }
    }
}

#[test]
fn zoom_out_graph_equals_tree_backed_on_all_metrics() {
    for metric in ALL_METRICS {
        let data = random_data_metric(160, 71, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let (r, r_new) = zoom_out_radii(metric);
        let g = StratifiedDiskGraph::from_mtree(&tree, r_new);
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        for v in ALL_ZOOM_OUT {
            let tree_z = greedy_zoom_out(&tree, &prev, r_new, v);
            let graph_z = zoom_out_graph(&tree, &g, &prev, r_new, v);
            assert_eq!(
                graph_z.result.solution, tree_z.result.solution,
                "{metric:?} {v:?}"
            );
            assert!(
                verify_disc(&data, &graph_z.result.solution, r_new).is_valid(),
                "{metric:?} {v:?}"
            );
            assert_eq!(graph_z.result.node_accesses, 0);
        }
    }
}

#[test]
fn multi_radius_graph_equals_tree_backed_on_all_metrics() {
    for metric in ALL_METRICS {
        let data = random_data_metric(150, 72, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        // Alternating fine/coarse radii (relevance-style assignment).
        let (fine, coarse) = if metric == Metric::Hamming {
            (1.0, 2.0)
        } else {
            (0.05, 0.15)
        };
        let radii: Vec<f64> = (0..data.len())
            .map(|id| if id % 3 == 0 { fine } else { coarse })
            .collect();
        let g = StratifiedDiskGraph::from_mtree(&tree, coarse);
        for greedy in [false, true] {
            let graph_sol = multi_radius_graph(&tree, &g, &radii, greedy);
            let tree_sol = if greedy {
                multi_radius_greedy_disc(&tree, &radii, true)
            } else {
                multi_radius_basic_disc(&tree, &radii, true)
            };
            assert_eq!(
                graph_sol.solution, tree_sol.solution,
                "{metric:?} greedy={greedy}"
            );
            let (uncovered, dependent) = verify_multi_radius(&data, &graph_sol.solution, &radii);
            assert!(uncovered.is_empty(), "{metric:?} greedy={greedy}");
            assert!(dependent.is_empty(), "{metric:?} greedy={greedy}");
        }
    }
}

#[test]
fn chained_zoom_in_sweep_adds_no_distance_computations() {
    // A four-radius zoom-in sweep: the graph side builds one stratified
    // graph at r_max and then never touches the index again; every step
    // stays byte-identical to the tree-backed chain and keeps the
    // Lemma 5 containment chain S^{r_max} ⊆ S^{r1} ⊆ S^{r2} ⊆ S^{r3}.
    let data = random_data_metric(220, 73, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(9));
    let radii = [0.16, 0.11, 0.07, 0.03];

    let g = StratifiedDiskGraph::from_mtree(&tree, radii[0]);
    let prev = greedy_disc(&tree, radii[0], GreedyVariant::Grey, true);

    tree.reset_distance_computations();
    tree.reset_node_accesses();
    let mut graph_prev = prev.clone();
    let mut tree_prev = prev;
    for &r_new in &radii[1..] {
        let graph_z = greedy_zoom_in_graph(&g, &graph_prev, r_new);
        let tree_z = greedy_zoom_in(&tree, &tree_prev, r_new);
        assert_eq!(
            graph_z.result.solution, tree_z.result.solution,
            "r'={r_new}"
        );
        assert_superset(&graph_prev.solution, &graph_z.result.solution);
        assert!(verify_disc(&data, &graph_z.result.solution, r_new).is_valid());
        graph_prev = graph_z.result;
        tree_prev = tree_z.result;
    }
    // The tree-backed chain paid queries; the graph chain paid nothing.
    assert!(
        tree.node_accesses() > 0,
        "tree-backed chain must be charged"
    );
    let tree_dc = tree.reset_distance_computations();
    assert!(tree_dc > 0, "tree-backed chain computes distances");

    // Re-run the graph chain alone: zero accesses, zero distances.
    tree.reset_node_accesses();
    let mut graph_prev = greedy_disc_graph(&g.view(radii[0]).to_unit_disk_graph());
    tree.reset_distance_computations();
    for &r_new in &radii[1..] {
        graph_prev = greedy_zoom_in_graph(&g, &graph_prev, r_new).result;
    }
    assert_eq!(tree.distance_computations(), 0);
    assert_eq!(tree.node_accesses(), 0);
}

#[test]
fn zooming_on_degenerate_duplicate_data() {
    // All points coincide: one representative covers everything at every
    // radius, and the graph runners agree with the tree-backed ones.
    let n = 25;
    let data = Dataset::new("dups", Metric::Euclidean, vec![Point::new2(0.5, 0.5); n]);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
    let g = StratifiedDiskGraph::from_mtree(&tree, 0.4);
    let prev = greedy_disc(&tree, 0.4, GreedyVariant::Grey, true);
    assert_eq!(prev.size(), 1);
    let graph_z = greedy_zoom_in_graph(&g, &prev, 0.1);
    let tree_z = greedy_zoom_in(&tree, &prev, 0.1);
    assert_eq!(graph_z.result.solution, tree_z.result.solution);
    assert_eq!(graph_z.result.size(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Graph-resident zoom-in equals the tree-backed operators and keeps
    /// Lemma 5 for arbitrary data, radii and capacities.
    #[test]
    fn zoom_in_graph_always_matches(
        seed in 0u64..1_000,
        r in 0.08..0.3f64,
        shrink in 0.2..0.9f64,
        cap in 4usize..12,
    ) {
        let data = random_data_metric(110, seed, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
        let g = StratifiedDiskGraph::from_mtree(&tree, r);
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let r_new = r * shrink;

        let tree_plain = zoom_in(&tree, &prev, r_new);
        let graph_plain = zoom_in_graph(&tree, &g, &prev, r_new);
        prop_assert_eq!(&graph_plain.result.solution, &tree_plain.result.solution);
        let tree_greedy = greedy_zoom_in(&tree, &prev, r_new);
        let graph_greedy = greedy_zoom_in_graph(&g, &prev, r_new);
        prop_assert_eq!(&graph_greedy.result.solution, &tree_greedy.result.solution);

        for z in [&graph_plain, &graph_greedy] {
            let prev_set: HashSet<_> = prev.solution.iter().collect();
            let new_set: HashSet<_> = z.result.solution.iter().collect();
            prop_assert!(prev_set.is_subset(&new_set));
            prop_assert!(verify_disc(&data, &z.result.solution, r_new).is_valid());
        }
    }

    /// Graph-resident zoom-out equals the tree-backed operators for all
    /// four first-pass variants.
    #[test]
    fn zoom_out_graph_always_matches(
        seed in 0u64..1_000,
        r in 0.03..0.12f64,
        grow in 1.3..3.0f64,
        cap in 4usize..12,
    ) {
        let data = random_data_metric(100, seed, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let r_new = r * grow;
        let g = StratifiedDiskGraph::from_mtree(&tree, r_new);
        for v in ALL_ZOOM_OUT {
            let tree_z = greedy_zoom_out(&tree, &prev, r_new, v);
            let graph_z = zoom_out_graph(&tree, &g, &prev, r_new, v);
            prop_assert_eq!(
                &graph_z.result.solution, &tree_z.result.solution,
                "{:?}", v
            );
            prop_assert!(verify_disc(&data, &graph_z.result.solution, r_new).is_valid());
        }
    }

    /// Multi-radius greedy selection over the stratified graph equals
    /// the tree-backed generalisation for random per-object radii in
    /// `[r_lo, r_max]`. The graph's white pass seeds each object with its
    /// prefix length at `r(p)`, which over-counts every neighbour `q`
    /// with `r(q) < d(p, q)`; random radii vary how far.
    #[test]
    fn multi_radius_graph_always_matches(
        seed in 0u64..1_000,
        r_lo in 0.02..0.08f64,
        r_max in 0.1..0.25f64,
        cap in 4usize..12,
        shares in prop::collection::vec(0.0..=1.0f64, 110),
    ) {
        let data = random_data_metric(110, seed, Metric::Euclidean);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
        let radii: Vec<f64> = shares
            .iter()
            .map(|s| (r_lo + s * (r_max - r_lo)).min(r_max))
            .collect();
        let g = StratifiedDiskGraph::from_mtree(&tree, r_max);
        let graph_sol = multi_radius_graph(&tree, &g, &radii, true);
        let tree_sol = multi_radius_greedy_disc(&tree, &radii, true);
        prop_assert_eq!(&graph_sol.solution, &tree_sol.solution);
        let (uncovered, dependent) = verify_multi_radius(&data, &graph_sol.solution, &radii);
        prop_assert!(uncovered.is_empty());
        prop_assert!(dependent.is_empty());
    }
}
