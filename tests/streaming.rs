//! Streaming test tier: the mutation layer agrees with from-scratch
//! builds.
//!
//! * **Interleaving property** — a random interleaving of inserts and
//!   deletes followed by `zoom` produces byte-identical solutions
//!   (compared in external ids) to a from-scratch build over the final
//!   object set, through the M-tree self-join and CSR assembly.
//! * **All-duplicates tie-breaking** — with every object at pairwise
//!   distance zero, every count in the greedy heap ties; the
//!   `LazyMaxHeap` external-rank tie-break (and its push-once,
//!   revalidate-at-pop re-queueing) must keep repairs byte-identical to
//!   from-scratch greedy runs through a long mutation sequence, on all
//!   four metrics.

use std::sync::Arc;

use disc_diversity::core::{greedy_disc_graph, greedy_zoom_in_graph, RepairableSolution};
use disc_diversity::graph::{StratifiedDiskGraph, StreamingCatalog};
use disc_diversity::metric::{Dataset, IdPermutation, Metric, Point};
use disc_diversity::mtree::{MTree, MTreeConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

const ALL_METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

/// Build radius and descending zoom chain per metric (Hamming
/// distances are integral, so its radii straddle the integer steps).
fn params(metric: Metric) -> (f64, [f64; 3]) {
    if metric == Metric::Hamming {
        (2.5, [2.5, 1.5, 0.5])
    } else {
        (0.4, [0.4, 0.2, 0.1])
    }
}

fn random_coords(metric: Metric, rng: &mut StdRng) -> Vec<f64> {
    if metric == Metric::Hamming {
        (0..3).map(|_| rng.random_range(0..4u32) as f64).collect()
    } else {
        vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)]
    }
}

fn seed_catalog(metric: Metric, n: usize, r_max: f64, rng: &mut StdRng) -> StreamingCatalog {
    let pts: Vec<Point> = (0..n)
        .map(|_| {
            if metric == Metric::Hamming {
                Point::categorical(&[
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                ])
            } else {
                Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
            }
        })
        .collect();
    let data = Dataset::new("streaming", metric, pts);
    let graph = StratifiedDiskGraph::build(&data, r_max);
    StreamingCatalog::try_new(data, graph).expect("fresh pair is consistent")
}

/// From-scratch rebuild over the catalog's current object set through
/// the production pipeline: the live external ids ride in as a sparse
/// permutation, so the rebuilt graph ranks greedy candidates by the
/// same external ids as the mutated one.
fn rebuild_from_scratch(cat: &StreamingCatalog) -> StratifiedDiskGraph {
    let perm = IdPermutation::try_new_sparse(cat.live_externals()).expect("live ids are unique");
    let data = Dataset::from_flat(
        "rebuild",
        cat.data().metric(),
        cat.data().dim(),
        cat.data().flat_coords().to_vec(),
    )
    .with_permutation(Some(Arc::new(perm)));
    let tree = MTree::build(&data, MTreeConfig::default());
    StratifiedDiskGraph::from_mtree_checked(&tree, cat.graph().radius(), 0, None)
        .expect("self-join over a clean dataset")
}

fn check_interleaving(metric: Metric, seed: u64, ops: &[u8]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (r_max, radii) = params(metric);
    let mut cat = seed_catalog(metric, 24, r_max, &mut rng);

    for &op in ops {
        if op % 2 == 0 || cat.len() <= 6 {
            let coords = random_coords(metric, &mut rng);
            cat.insert(&coords).expect("in-range insert");
        } else {
            let live = cat.live_externals();
            let pick = live[rng.random_range(0..live.len())];
            cat.remove_external(pick).expect("live id");
        }
    }

    let fresh = rebuild_from_scratch(&cat);
    assert_eq!(fresh.len(), cat.len(), "{metric:?}: live count");

    // Standalone zooms and the chained zoom-in sweep agree in external
    // ids at every radius.
    let mut mine_prev = greedy_disc_graph(&cat.graph().view(radii[0]).to_unit_disk_graph());
    let mut fresh_prev = greedy_disc_graph(&fresh.view(radii[0]).to_unit_disk_graph());
    assert_eq!(
        mine_prev.solution, fresh_prev.solution,
        "{metric:?}: top radius {}",
        radii[0]
    );
    for &r in &radii[1..] {
        let mine = greedy_disc_graph(&cat.graph().view(r).to_unit_disk_graph());
        let scratch = greedy_disc_graph(&fresh.view(r).to_unit_disk_graph());
        assert_eq!(
            mine.solution, scratch.solution,
            "{metric:?}: standalone {r}"
        );
        mine_prev = greedy_zoom_in_graph(cat.graph(), &mine_prev, r).result;
        fresh_prev = greedy_zoom_in_graph(&fresh, &fresh_prev, r).result;
        assert_eq!(
            mine_prev.solution, fresh_prev.solution,
            "{metric:?}: chain step {r}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A random interleaving of N inserts/deletes followed by `zoom`
    /// equals a from-scratch build on the final object set, in external
    /// ids, across all four metrics (and, via CI's `SELF_JOIN_THREADS`
    /// matrix, assembly worker counts 1/2/3/8).
    #[test]
    fn interleaved_mutations_match_a_from_scratch_rebuild(
        seed in 0u64..10_000,
        ops in prop::collection::vec(0u8..4, 10..28),
    ) {
        for metric in ALL_METRICS {
            check_interleaving(metric, seed, &ops);
        }
    }
}

/// All objects at pairwise distance zero: the greedy heap holds one
/// count for everyone, so selection is decided purely by the
/// external-rank tie-break. Repairs must stay byte-identical to
/// from-scratch greedy runs through inserts and deletes — including
/// deleting the selected object, which forces the repair's white pass
/// (and the heap's re-queueing of entries whose stored key is above the
/// current count) to re-pick among an all-ties candidate set.
#[test]
fn all_duplicates_repairs_are_byte_identical_to_from_scratch() {
    for metric in ALL_METRICS {
        let (r_max, radii) = params(metric);
        let r = radii[1];
        let coords: Vec<f64> = if metric == Metric::Hamming {
            vec![1.0, 2.0, 3.0]
        } else {
            vec![0.5, 0.5]
        };
        let pts: Vec<Point> = (0..10)
            .map(|_| {
                if metric == Metric::Hamming {
                    Point::categorical(&[1, 2, 3])
                } else {
                    Point::new2(0.5, 0.5)
                }
            })
            .collect();
        let data = Dataset::new("dups", metric, pts);
        let graph = StratifiedDiskGraph::build(&data, r_max);
        let mut cat = StreamingCatalog::try_new(data, graph).expect("consistent");

        let result = greedy_disc_graph(&cat.graph().view(r).to_unit_disk_graph());
        assert_eq!(
            result.solution,
            vec![0],
            "{metric:?}: complete graph selects the minimum external id"
        );
        let mut rep = RepairableSolution::from_result(&cat, &result).expect("valid seed");

        let pin = |rep: &RepairableSolution, cat: &StreamingCatalog, step: &str| {
            let fresh = greedy_disc_graph(&cat.graph().view(r).to_unit_disk_graph());
            assert_eq!(
                rep.solution(),
                &fresh.solution[..],
                "{metric:?}: repair vs from-scratch after {step}"
            );
            rep.verify(cat).expect("repair contract");
        };

        // Inserts of more duplicates: every one is covered, nothing
        // changes.
        for k in 0..4 {
            let receipt = cat.insert(&coords).expect("insert");
            rep.repair_insert(&receipt).expect("repair insert");
            pin(&rep, &cat, &format!("insert #{k}"));
        }

        // Delete the selected object repeatedly: each removal orphans
        // every survivor at once, and the re-picked black must be the
        // same one a fresh greedy run selects.
        for round in 0..5 {
            let black = rep.solution()[0];
            let receipt = cat.remove_external(black).expect("live black");
            rep.repair_remove(&cat, &receipt).expect("repair remove");
            pin(&rep, &cat, &format!("delete black #{round}"));

            // And one grey, which must change nothing.
            let grey = *cat
                .live_externals()
                .iter()
                .find(|e| !rep.solution().contains(e))
                .expect("a grey survives");
            let receipt = cat.remove_external(grey).expect("live grey");
            rep.repair_remove(&cat, &receipt).expect("repair remove");
            pin(&rep, &cat, &format!("delete grey #{round}"));
        }
    }
}
