//! The id-set runners solve on a stratified prefix view exactly as on
//! its id-sorted copy.
//!
//! `greedy_disc_graph`, `greedy_c_graph` and `fast_c_graph` read rows as
//! neighbour sets and rank heap ties by external id, so the view's
//! `(distance, id)`-sorted prefixes must give what the same view copied
//! into a `UnitDiskGraph` gives: the same solution, radius and
//! heuristic label. Serving solves on the view; the copy is the
//! reference.

use disc_core::{fast_c_graph, greedy_c_graph, greedy_disc_graph};
use disc_graph::{StratifiedDiskGraph, StreamingCatalog};
use disc_metric::{Dataset, Metric, Point};
use disc_mtree::{MTree, MTreeConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

const METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

/// Every id-set runner over `g.view(r)` equals the same runner over the
/// view's id-sorted copy, field for field.
fn assert_view_parity(g: &StratifiedDiskGraph, r: f64, what: &str) {
    let view = g.view(r);
    let copy = view.to_unit_disk_graph();
    assert_eq!(
        greedy_disc_graph(&view),
        greedy_disc_graph(&copy),
        "G-DisC, {what}, r={r}"
    );
    assert_eq!(
        greedy_c_graph(&view),
        greedy_c_graph(&copy),
        "G-C, {what}, r={r}"
    );
    assert_eq!(
        fast_c_graph(&view),
        fast_c_graph(&copy),
        "Fast-C, {what}, r={r}"
    );
}

/// Build radius per metric: Hamming distances are attribute counts.
fn r_max_of(metric: Metric) -> f64 {
    if metric == Metric::Hamming {
        2.0
    } else {
        0.2
    }
}

fn random_point(metric: Metric, rng: &mut StdRng) -> Point {
    if metric == Metric::Hamming {
        let codes: Vec<u32> = (0..4).map(|_| rng.random_range(0..4u32)).collect();
        Point::categorical(&codes)
    } else {
        Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
    }
}

/// Random points plus, for the continuous metrics, a 0.05-spaced
/// lattice patch, so many edges share one distance.
fn dataset(metric: Metric, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<Point> = (0..160).map(|_| random_point(metric, &mut rng)).collect();
    if metric != Metric::Hamming {
        for i in 0..8 {
            for j in 0..8 {
                points.push(Point::new2(0.05 * i as f64, 0.05 * j as f64));
            }
        }
    }
    Dataset::new(format!("{metric:?}"), metric, points)
}

/// The same dataset renumbered into its M-tree's leaf order.
fn renumbered(data: &Dataset) -> Dataset {
    let tree = MTree::build(data, MTreeConfig::with_capacity(8));
    let order = tree.objects_in_leaf_order_uncounted();
    data.renumbered(&order)
}

/// A distance strictly inside `(0, r_max)` carried by at least two
/// distinct edges (each edge is stored twice, once per endpoint).
fn duplicated_distance(g: &StratifiedDiskGraph) -> Option<f64> {
    let mut ds: Vec<f64> = g
        .dists_flat()
        .iter()
        .copied()
        .filter(|&d| d > 0.0 && d < g.radius())
        .collect();
    ds.sort_by(f64::total_cmp);
    ds.windows(4).find(|w| w[0] == w[3]).map(|w| w[0])
}

#[test]
fn view_matches_its_copy_on_every_metric_and_numbering() {
    for metric in METRICS {
        let data = dataset(metric, 11);
        let r_max = r_max_of(metric);
        let identity = StratifiedDiskGraph::build(&data, r_max);
        let permuted = StratifiedDiskGraph::build(&renumbered(&data), r_max);
        assert!(identity.permutation().is_none());
        assert!(
            permuted.permutation().is_some(),
            "{metric:?}: leaf order is not the identity here"
        );
        let tie = duplicated_distance(&identity)
            .unwrap_or_else(|| panic!("{metric:?}: no distance shared by two edges"));
        // The pin is not vacuous: some view row is out of id order.
        let view = identity.view(r_max);
        assert!(
            (0..view.len()).any(|v| !view.neighbors(v).is_sorted()),
            "{metric:?}: every row is already id-sorted"
        );

        for r in [0.0, tie, r_max / 2.0, r_max] {
            assert_view_parity(&identity, r, &format!("{metric:?} identity"));
            assert_view_parity(&permuted, r, &format!("{metric:?} renumbered"));
            // Renumbering is invisible in external ids.
            assert_eq!(
                greedy_disc_graph(&identity.view(r)),
                greedy_disc_graph(&permuted.view(r)),
                "{metric:?}: numbering leaked into the solution at r={r}"
            );
        }
    }
}

#[test]
fn view_matches_its_copy_on_degenerate_shapes() {
    // All duplicates: every distance is 0, so every radius gives the
    // complete graph.
    let dups = Dataset::new("dups", Metric::Euclidean, vec![Point::new2(0.25, 0.75); 40]);
    let g = StratifiedDiskGraph::build(&dups, 0.1);
    for r in [0.0, 0.05, 0.1] {
        assert_view_parity(&g, r, "all duplicates");
    }
    assert_eq!(greedy_disc_graph(&g.view(0.0)).solution, vec![0]);

    let single = Dataset::new("one", Metric::Euclidean, vec![Point::new2(0.5, 0.5)]);
    let g = StratifiedDiskGraph::build(&single, 0.1);
    for r in [0.0, 0.1] {
        assert_view_parity(&g, r, "n = 1");
    }

    let empty = StratifiedDiskGraph::from_dist_edges(0, 0.1, &[]);
    for r in [0.0, 0.1] {
        assert_view_parity(&empty, r, "n = 0");
        assert!(greedy_disc_graph(&empty.view(r)).solution.is_empty());
    }
}

#[test]
fn view_matches_its_copy_after_interleaved_mutations() {
    for metric in METRICS {
        let mut rng = StdRng::seed_from_u64(23);
        let r_max = r_max_of(metric);
        let data = renumbered(&dataset(metric, 17));
        let graph = StratifiedDiskGraph::build(&data, r_max);
        let mut cat = StreamingCatalog::try_new(data, graph).expect("fresh pair is consistent");
        for step in 0..60 {
            if step % 3 == 2 {
                let live = cat.live_externals();
                let pick = live[rng.random_range(0..live.len())];
                cat.remove_external(pick).expect("live id");
            } else {
                let coords = random_point(metric, &mut rng).coords().to_vec();
                cat.insert(&coords).expect("in-range insert");
            }
        }
        assert!(!cat.tombstones().is_empty());
        for r in [0.0, r_max / 4.0, r_max / 2.0, r_max] {
            assert_view_parity(cat.graph(), r, &format!("{metric:?} mutated catalog"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Arbitrary data and radius, both numberings.
    #[test]
    fn view_matches_its_copy_at_any_radius(
        seed in 0u64..5_000,
        frac in 0.0..=1.0f64,
    ) {
        let data = disc_datasets::synthetic::uniform(120, 2, seed);
        let r_max = 0.25;
        let r = r_max * frac;
        assert_view_parity(&StratifiedDiskGraph::build(&data, r_max), r, "uniform identity");
        assert_view_parity(
            &StratifiedDiskGraph::build(&renumbered(&data), r_max),
            r,
            "uniform renumbered",
        );
    }
}
