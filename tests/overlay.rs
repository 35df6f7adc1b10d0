//! Mutation-overlay tier: a streaming catalog answers through its
//! overlay exactly as through the compacted graph, and compaction
//! produces the bytes of a from-scratch build and of the splice path.
//!
//! * **Overlay property** — random insert/delete sequences on all four
//!   metrics (duplicates of live points, far points, deletes of
//!   inserted objects, an object stripped of every neighbour). After
//!   every operation the live view's rows at three radii equal
//!   `graph()`'s rows as sets in external ids, Greedy-DisC, Greedy-C,
//!   Fast-C and the greedy zoom-in chain answer identically on both,
//!   and a maintained `RepairableSolution` verifies. At the end
//!   `compact()` is byte-identical to `StratifiedDiskGraph::build` over
//!   the live points and to the same operations spliced through
//!   `insert_object` / `remove_object`.
//! * **Threshold** — a catalog pushed past 1/8 of its base compacts by
//!   itself, and the overlay figures reset.
//! * **Refusal** — a delete on an asymmetric CSR fails with
//!   `MissingMirror` before any write, also with mutations pending.

use std::collections::BTreeSet;

use disc_diversity::core::{
    fast_c_graph, greedy_c_graph, greedy_disc_graph, greedy_zoom_in_graph, greedy_zoom_in_live,
    RepairableSolution,
};
use disc_diversity::graph::{
    Adjacency, GraphError, StratifiedDiskGraph, StreamError, StreamingCatalog,
};
use disc_diversity::metric::{Dataset, Metric, ObjId, Point};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

const ALL_METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

/// Build radius and descending radii per metric (Hamming distances are
/// integral, so its radii straddle the integer steps).
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

/// A point farther than `r_max` from every other one.
fn far_coords(metric: Metric) -> Vec<f64> {
    if metric == Metric::Hamming {
        vec![7.0, 8.0, 9.0]
    } else {
        vec![40.0, 40.0]
    }
}

fn seed_catalog(metric: Metric, n: usize, rng: &mut StdRng) -> StreamingCatalog {
    let (r_max, _) = params(metric);
    let pts: Vec<Point> = (0..n)
        .map(|_| {
            let c = random_coords(metric, rng);
            if metric == Metric::Hamming {
                Point::categorical(&[c[0] as u32, c[1] as u32, c[2] as u32])
            } else {
                Point::new2(c[0], c[1])
            }
        })
        .collect();
    let data = Dataset::new("overlay", metric, pts);
    let graph = StratifiedDiskGraph::build(&data, r_max);
    StreamingCatalog::try_new(data, graph).expect("fresh pair is consistent")
}

/// The splice path kept in step with the catalog: the same dataset
/// mutations, the graph through `insert_object` / `remove_object`.
struct Spliced {
    data: Dataset,
    graph: StratifiedDiskGraph,
}

impl Spliced {
    fn insert(&mut self, external: ObjId, coords: &[f64]) {
        let r_max = self.graph.radius();
        let nb: Vec<(ObjId, f64)> = (0..self.data.len())
            .map(|i| (i, self.data.dist_to_coords(i, coords)))
            .filter(|&(_, d)| d <= r_max)
            .collect();
        let i = self.graph.insert_object(external, &nb).expect("fresh id");
        assert_eq!(self.data.push_point_external(coords, external), Ok(i));
    }

    fn remove(&mut self, external: ObjId) {
        let v = self.graph.internal_id(external);
        assert_eq!(self.graph.remove_object(v), Ok(external));
        assert_eq!(self.data.remove_point(v), Ok(external));
    }
}

/// Row of `v` in any adjacency as a set of external ids, absent
/// vertices dropped.
fn row_set(g: &impl Adjacency, v: ObjId) -> BTreeSet<ObjId> {
    let absent: BTreeSet<ObjId> = g.absent().iter().copied().collect();
    g.neighbors(v)
        .iter()
        .chain(g.appended(v))
        .filter(|w| !absent.contains(w))
        .map(|&w| g.external_id(w))
        .collect()
}

/// The three per-operation checks: rows, answers, the tracker.
fn check_state(cat: &StreamingCatalog, tracker: &RepairableSolution, radii: &[f64; 3], step: &str) {
    let g = cat.graph();
    assert_eq!(g.len(), cat.len(), "{step}: compacted size");
    let mut live_prev = None;
    let mut compact_prev = None;
    for &r in radii {
        let live = cat.view(r).expect("radius within r_max");
        let compact = g.view(r);
        for (i, &e) in cat.live_externals().iter().enumerate() {
            let v = live.vertex_of(e).expect("live external has a slot");
            assert_eq!(g.external_id(i), e, "{step}: compacted numbering");
            assert_eq!(
                row_set(&live, v),
                row_set(&compact, i),
                "{step}: row of {e} at r={r}"
            );
        }
        let want = greedy_disc_graph(&compact);
        assert_eq!(
            greedy_disc_graph(&live).solution,
            want.solution,
            "{step}: G-DisC r={r}"
        );
        assert_eq!(
            greedy_c_graph(&live).solution,
            greedy_c_graph(&compact).solution,
            "{step}: G-C r={r}"
        );
        assert_eq!(
            fast_c_graph(&live).solution,
            fast_c_graph(&compact).solution,
            "{step}: Fast-C r={r}"
        );
        let (lp, cp) = match (live_prev, compact_prev) {
            (Some(lp), Some(cp)) => (
                greedy_zoom_in_live(&live, &lp).result,
                greedy_zoom_in_graph(g, &cp, r).result,
            ),
            _ => (greedy_disc_graph(&live), want),
        };
        assert_eq!(lp.solution, cp.solution, "{step}: zoom-in chain r={r}");
        live_prev = Some(lp);
        compact_prev = Some(cp);
    }
    tracker
        .verify(cat)
        .unwrap_or_else(|e| panic!("{step}: repair contract: {e}"));
}

/// Runs `ops` against a fresh catalog, checking after every operation;
/// returns the number of compactions the catalog ran on its own.
fn check_ops(metric: Metric, seed: u64, ops: &[u8]) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (r_max, radii) = params(metric);
    let mut cat = seed_catalog(metric, 24, &mut rng);
    let initial = cat.next_external();
    let mut spliced = Spliced {
        data: cat.data().clone(),
        graph: cat.graph().clone(),
    };
    let first = greedy_disc_graph(&cat.view(radii[1]).expect("radius"));
    let mut tracker = RepairableSolution::from_result(&cat, &first).expect("valid cover");

    for (k, &op) in ops.iter().enumerate() {
        let live = cat.live_externals();
        let delete = op >= 4 && cat.len() > 6;
        let mut removed: Vec<ObjId> = Vec::new();
        if !delete {
            let coords = match op % 4 {
                // A duplicate of a live point.
                2 => {
                    let e = live[rng.random_range(0..live.len())];
                    let i = cat.internal_of(e).expect("live");
                    cat.data().row(i).to_vec()
                }
                3 => far_coords(metric),
                _ => random_coords(metric, &mut rng),
            };
            let receipt = cat.insert(&coords).expect("in-range insert");
            spliced.insert(receipt.external, &coords);
            tracker.repair_insert(&receipt).expect("repair insert");
        } else {
            match op {
                // A delete of an inserted object, when one is live.
                5 => {
                    let pick = live.iter().copied().rfind(|&e| e >= initial);
                    removed.push(pick.unwrap_or(live[rng.random_range(0..live.len())]));
                }
                // Strip a random object of every neighbour within r_max.
                6 => {
                    let e = live[rng.random_range(0..live.len())];
                    let view = cat.view(r_max).expect("r_max");
                    let v = view.vertex_of(e).expect("live");
                    let nb = row_set(&view, v);
                    removed.extend(nb.into_iter().take(cat.len().saturating_sub(4)));
                }
                _ => removed.push(live[rng.random_range(0..live.len())]),
            }
            for &e in &removed {
                let receipt = cat.remove_external(e).expect("live id");
                spliced.remove(e);
                tracker
                    .repair_remove(&cat, &receipt)
                    .expect("repair remove");
            }
        }
        check_state(&cat, &tracker, &radii, &format!("{metric:?} op {k} ({op})"));
    }

    let fresh = StratifiedDiskGraph::build(cat.data(), r_max);
    let compactions = cat.compactions();
    let compacted = cat.compact().clone();
    assert_eq!(compacted, fresh, "{metric:?}: compact() vs build");
    assert_eq!(compacted, spliced.graph, "{metric:?}: compact() vs splices");
    assert_eq!(cat.appended_entries() + cat.tombstoned_slots(), 0);
    compactions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every operation leaves the live view equal to the compacted
    /// graph; the final compaction equals a build and the splices.
    #[test]
    fn the_live_view_answers_like_the_compacted_graph(
        seed in 0u64..10_000,
        ops in prop::collection::vec(0u8..7, 12..36),
    ) {
        let mut compactions = 0;
        for metric in ALL_METRICS {
            compactions += check_ops(metric, seed, &ops);
        }
        // Appended entries pass 1/8 of a 24-object base after a few
        // inserts, so some metric compacted mid-sequence.
        prop_assert!(compactions > 0, "no threshold compaction in {ops:?}");
    }
}

#[test]
fn passing_the_threshold_compacts_and_resets_the_overlay() {
    let mut rng = StdRng::seed_from_u64(4040);
    let mut cat = seed_catalog(Metric::Euclidean, 200, &mut rng);
    let base_entries = cat.graph().neighbors_flat().len();
    assert!(cat.is_compact());
    // Far inserts add slots, not entries; tombstones pass 1/8 of all
    // slots at the 26th delete of 201 slots.
    let receipt = cat.insert(&[40.0, 40.0]).expect("far insert");
    assert_eq!(receipt.neighbors, Vec::new());
    assert!(!cat.is_compact());
    assert_eq!(cat.appended_entries(), 0);
    for k in 0..25 {
        cat.remove_external(k).expect("live id");
        assert_eq!(cat.tombstoned_slots(), k + 1);
        assert_eq!(cat.compactions(), 0);
    }
    cat.remove_external(25).expect("live id");
    assert_eq!(cat.compactions(), 1, "26 tombstones of 201 slots pass 1/8");
    assert!(cat.is_compact());
    assert_eq!(cat.tombstoned_slots(), 0);
    assert_eq!(
        cat.graph(),
        &StratifiedDiskGraph::build(cat.data(), 0.4),
        "threshold compaction equals a build"
    );

    // Appended entries: duplicates of one point until they pass 1/8 of
    // the (new) base.
    let base_entries_now = cat.graph().neighbors_flat().len();
    assert!(base_entries_now < base_entries);
    let coords = cat.data().row(0).to_vec();
    let mut inserted = 0;
    while cat.compactions() == 1 {
        let before = cat.appended_entries();
        let receipt = cat.insert(&coords).expect("duplicate insert");
        inserted += 1;
        if cat.compactions() == 1 {
            assert_eq!(cat.appended_entries(), before + 2 * receipt.neighbors.len());
            assert!(cat.appended_entries() * 8 <= base_entries_now);
        }
        assert!(inserted < 1_000, "the threshold never fired");
    }
    assert!(cat.is_compact());
    assert_eq!(cat.appended_entries(), 0);
    assert_eq!(cat.graph(), &StratifiedDiskGraph::build(cat.data(), 0.4));
}

#[test]
fn catalog_deletes_refuse_an_asymmetric_csr_with_mutations_pending() {
    // The two graphs of the stratified refusal test: case 1 lacks the
    // mirror of edge (0,1), case 2 that of edge (0,2).
    let cases = [
        (
            vec![0usize, 2, 2, 3],
            vec![1usize, 2, 0],
            vec![0.1, 0.2, 0.2],
            GraphError::MissingMirror { row: 1, id: 0 },
        ),
        (
            vec![0, 2, 4, 5],
            vec![1, 2, 0, 2, 1],
            vec![0.1, 0.2, 0.1, 0.3, 0.3],
            GraphError::MissingMirror { row: 2, id: 0 },
        ),
    ];
    for (mut offsets, mut neighbors, mut dists, want) in cases {
        // Eight more objects, a symmetric clique far from the origin,
        // give the base enough entries that the inserts below stay
        // pending instead of passing the compaction threshold.
        for v in 3..11 {
            neighbors.extend((3..11).filter(|&u| u != v));
            dists.extend([0.4; 7]);
            offsets.push(neighbors.len());
        }
        let g = StratifiedDiskGraph::from_csr_parts(0.5, offsets, neighbors, dists)
            .expect("rows are valid one by one");
        let mut pts = vec![Point::new2(0.0, 0.0); 3];
        pts.extend(vec![Point::new2(5.0, 5.0); 8]);
        let data = Dataset::new("asymmetric", Metric::Euclidean, pts);
        let mut cat = StreamingCatalog::try_new(data, g).expect("consistent");
        // Pending: a far insert (a new slot, no entries) and a duplicate
        // of the origin (entries appended to rows 0, 1 and 2).
        cat.insert(&[9.0, 9.0]).expect("far insert");
        cat.insert(&[0.0, 0.0]).expect("duplicate insert");
        assert_eq!(cat.appended_entries(), 6);
        assert!(!cat.is_compact());
        let before = (
            cat.graph().clone(),
            cat.appended_entries(),
            cat.live_externals(),
        );
        assert_eq!(
            cat.remove_external(0).unwrap_err(),
            StreamError::Graph(want)
        );
        assert_eq!(
            cat.tombstoned_slots(),
            0,
            "a refused delete tombstones nothing"
        );
        assert!(cat.tombstones().is_empty());
        assert_eq!(
            (
                cat.graph().clone(),
                cat.appended_entries(),
                cat.live_externals()
            ),
            before,
            "catalog changed by a refused delete"
        );
        // The symmetric objects still delete.
        cat.remove_external(12)
            .expect("the duplicate has every mirror");
        cat.remove_external(11).expect("the far point has no edges");
    }
}
