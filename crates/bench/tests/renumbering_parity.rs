//! Renumbering transparency: leaf-order renumbering is an internal
//! cache-layout change, so every graph-resident runner must produce
//! byte-identical solutions — in *external* ids — before and after it,
//! and the renumbered snapshot must round-trip byte-identically, under
//! all four metrics and every assembly worker count CI pins (1, 2, 3,
//! 8).

use disc_core::{
    greedy_c_graph, greedy_disc_graph, greedy_zoom_in_graph, multi_radius_graph, zoom_out_graph,
    ZoomOutVariant,
};
use disc_graph::StratifiedDiskGraph;
use disc_metric::{Dataset, Metric, Point};
use disc_mtree::{MTree, MTreeConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn point(metric: Metric, i: usize) -> Point {
    if metric == Metric::Hamming {
        Point::categorical(&[(i % 7) as u32, (i % 3) as u32, (i / 5 % 4) as u32])
    } else {
        // A deterministic scatter over [0, 1)²; the co-prime strides
        // keep duplicates rare without an RNG.
        Point::new2((i * 37 % 100) as f64 * 0.01, (i * 61 % 100) as f64 * 0.01)
    }
}

/// (r_max, zoom-in target) per metric: Hamming distances are small
/// integers, the continuous metrics live on the unit square.
fn radii(metric: Metric) -> (f64, f64) {
    if metric == Metric::Hamming {
        (2.0, 1.0)
    } else {
        (0.2, 0.12)
    }
}

/// Every graph-resident runner's outputs on `strat` (solutions leave
/// the runners in external ids regardless of the graph's numbering).
fn all_runner_outputs(tree: &MTree<'_>, strat: &StratifiedDiskGraph) -> Vec<Vec<usize>> {
    let (r_max, r_small) = radii(tree.data().metric());
    let mut outputs = Vec::new();

    let at_max = greedy_disc_graph(&strat.view(r_max).to_unit_disk_graph());
    outputs.push(at_max.solution.clone());
    outputs.push(greedy_c_graph(&strat.view(r_max).to_unit_disk_graph()).solution);

    let zoomed_in = greedy_zoom_in_graph(strat, &at_max, r_small).result;
    outputs.push(zoomed_in.solution.clone());

    let at_small = greedy_disc_graph(&strat.view(r_small).to_unit_disk_graph());
    for variant in [
        ZoomOutVariant::Plain,
        ZoomOutVariant::GreedyA,
        ZoomOutVariant::GreedyB,
        ZoomOutVariant::GreedyC,
    ] {
        outputs.push(
            zoom_out_graph(tree, strat, &at_small, r_max, variant)
                .result
                .solution,
        );
    }

    let per_object: Vec<f64> = (0..strat.len())
        .map(|external| if external % 2 == 0 { r_small } else { r_max })
        .collect();
    outputs.push(multi_radius_graph(tree, strat, &per_object, true).solution);
    outputs.push(multi_radius_graph(tree, strat, &per_object, false).solution);

    outputs
}

#[test]
fn renumbering_preserves_every_runner_and_the_snapshot_round_trip() {
    for metric in [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ] {
        let data = Dataset::new(
            "renumbering-parity",
            metric,
            (0..300).map(|i| point(metric, i)).collect(),
        );
        let (r_max, _) = radii(metric);
        let tree = MTree::build(&data, MTreeConfig::default());
        let order = tree.objects_in_leaf_order_uncounted();
        let data2 = data.renumbered(&order);
        let tree2 = tree.relabeled(&data2, &order);

        let mut snapshots: Vec<Vec<u8>> = Vec::new();
        for threads in THREAD_COUNTS {
            let strat = StratifiedDiskGraph::from_mtree_checked(&tree, r_max, threads, None)
                .expect("original build");
            let strat2 = StratifiedDiskGraph::from_mtree_checked(&tree2, r_max, threads, None)
                .expect("renumbered build");
            assert!(
                strat2.permutation().is_some(),
                "{metric:?}: leaf order left the corpus unrenumbered"
            );

            assert_eq!(
                all_runner_outputs(&tree, &strat),
                all_runner_outputs(&tree2, &strat2),
                "{metric:?} threads={threads}: a runner's external-id \
                 solution changed under renumbering"
            );

            // The renumbered snapshot round-trips byte-identically and
            // the loaded pair reproduces the same external solutions.
            let bytes = disc_store::encode(&data2, &strat2).expect("encode");
            let (loaded_data, loaded_graph) = disc_store::decode(&bytes).expect("decode");
            assert_eq!(
                disc_store::encode(&loaded_data, &loaded_graph).expect("re-encode"),
                bytes,
                "{metric:?} threads={threads}: snapshot round trip not byte-identical"
            );
            assert_eq!(
                all_runner_outputs(&tree2, &loaded_graph),
                all_runner_outputs(&tree2, &strat2),
                "{metric:?} threads={threads}: loaded graph diverged from built graph"
            );
            snapshots.push(bytes);
        }
        assert!(
            snapshots.windows(2).all(|w| w[0] == w[1]),
            "{metric:?}: snapshot bytes differ across assembly worker counts"
        );
    }
}
