//! Multiple radii per object — the second future-work extension of the
//! paper's Section 8: *"allowing multiple radii per object, so that
//! relevant objects get a smaller radius than the radius of less
//! relevant ones."*
//!
//! ## Formalisation
//!
//! With a radius function `r(p)`, we generalise the unit-disk graph to
//! `G_{P,r(·)}` with an edge `(p, q)` iff
//! `dist(p, q) ≤ min(r(p), r(q))`. A multi-radius DisC diverse subset is
//! an independent dominating set of this graph:
//!
//! * **coverage** — every object `p` has a representative within
//!   `min(r(p), r(s))`: covering a *relevant* object (small radius)
//!   requires a close representative, so relevant regions are rendered
//!   at finer granularity;
//! * **dissimilarity** — two representatives in a relevant region only
//!   need to be `min`-radius apart, so the extra detail is permitted
//!   exactly where the user cares.
//!
//! With a constant radius function this reduces verbatim to Definition 1
//! (a test pins that equivalence). The `min` edge rule keeps the graph
//! symmetric, so Lemma 1 (maximal independent ⇔ independent dominating)
//! carries over and the Basic/Greedy machinery remains sound.
//!
//! M-tree note: an edge `(p, q)` implies `dist(p, q) ≤ r(p)`, so the
//! range query `Q(p, r(p))` retrieves every potential neighbour of `p`;
//! hits are filtered by the exact `min` rule afterwards.
//!
//! Graph-resident note: over a [`disc_graph::StratifiedDiskGraph`] built
//! at `r_max ≥ max r(p)`, the same `min` rule is a per-edge distance
//! filter on the adjacency prefix at `r(p)` —
//! [`crate::multi_radius_graph`] runs both heuristics byte-identically
//! with zero queries, and the constant-radius reduction to Definition 1
//! is pinned for that path too (it coincides with the `G_{P,r}` graph
//! pipeline of [`crate::resident`]).

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree, RangeHit};

use crate::heap::LazyMaxHeap;
use crate::par;
use crate::result::DiscResult;
use crate::{checkpoint, never_cancelled};

/// Computes a multi-radius DisC diverse subset in leaf order (the
/// Basic-DisC counterpart).
///
/// # Panics
///
/// Panics unless `radii` holds one positive finite radius per object.
pub fn multi_radius_basic_disc(tree: &MTree<'_>, radii: &[f64], pruned: bool) -> DiscResult {
    never_cancelled(multi_radius_basic_disc_checked(tree, radii, pruned, None))
}

/// [`multi_radius_basic_disc`] polling a [`CancelToken`] once per
/// selection; `Err(Cancelled)` on a fired deadline, no partial state.
pub fn multi_radius_basic_disc_checked(
    tree: &MTree<'_>,
    radii: &[f64],
    pruned: bool,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    check_radii(tree, radii);
    let start = tree.node_accesses();
    let mut colors = ColorState::new(tree);
    let mut solution = Vec::new();
    for leaf in tree.leaves().collect::<Vec<_>>() {
        if pruned && colors.node_is_grey(leaf) {
            continue;
        }
        tree.charge_access();
        let members: Vec<ObjId> = tree
            .node(leaf)
            .leaf_entries()
            .iter()
            .map(|e| e.object)
            .collect();
        for object in members {
            if !colors.is_white(object) {
                continue;
            }
            checkpoint(cancel)?;
            colors.set_color(tree, object, Color::Black);
            for (q, _) in neighbors_of(tree, object, radii, pruned, &colors) {
                if colors.is_white(q) {
                    colors.set_color(tree, q, Color::Grey);
                }
            }
            solution.push(object);
        }
    }
    debug_assert!(!colors.any_white());
    Ok(DiscResult {
        radius: mean_radius(radii),
        heuristic: format!("MR-B-DisC{}", if pruned { " (Pruned)" } else { "" }),
        solution,
        node_accesses: tree.node_accesses() - start,
    })
}

/// Computes a multi-radius DisC diverse subset greedily: always select
/// the white object covering the most uncovered objects under the `min`
/// rule (the Greedy-DisC counterpart, with exact grey updates).
pub fn multi_radius_greedy_disc(tree: &MTree<'_>, radii: &[f64], pruned: bool) -> DiscResult {
    never_cancelled(multi_radius_greedy_disc_checked(tree, radii, pruned, None))
}

/// [`multi_radius_greedy_disc`] polling a [`CancelToken`] once per
/// selection round; `Err(Cancelled)` on a fired deadline, no partial
/// state.
pub fn multi_radius_greedy_disc_checked(
    tree: &MTree<'_>,
    radii: &[f64],
    pruned: bool,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    check_radii(tree, radii);
    let start = tree.node_accesses();
    let n = tree.len();
    let mut colors = ColorState::new(tree);

    // Seeding: one `Q(p, r(p))` query per object, independent across
    // objects — fans out across threads.
    let mut counts = par::seed_counts(n, |id, scratch| {
        count_neighbors_into(tree, id, radii, pruned, &colors, scratch)
    });
    let mut heap = LazyMaxHeap::with_capacity(n);
    for (id, &c) in counts.iter().enumerate() {
        heap.push(id, c);
    }

    let mut solution = Vec::new();
    while colors.any_white() {
        checkpoint(cancel)?;
        let picked = match heap.pop_valid(|id| colors.is_white(id).then(|| counts[id])) {
            Some(p) => p,
            None => unreachable!("white objects remain"),
        };
        colors.set_color(tree, picked, Color::Black);
        let newly_grey: Vec<ObjId> = neighbors_of(tree, picked, radii, pruned, &colors)
            .into_iter()
            .map(|(q, _)| q)
            .filter(|&q| colors.is_white(q))
            .collect();
        for &q in &newly_grey {
            colors.set_color(tree, q, Color::Grey);
        }
        // Exact grey updates: an edge (x, pj) implies dist ≤ r(pj), so
        // Q(pj, r(pj)) reaches every affected white object.
        for &pj in &newly_grey {
            for (x, _) in neighbors_of(tree, pj, radii, pruned, &colors) {
                if colors.is_white(x) {
                    counts[x] -= 1;
                }
            }
        }
        solution.push(picked);
    }

    Ok(DiscResult {
        radius: mean_radius(radii),
        heuristic: format!("MR-G-DisC{}", if pruned { " (Pruned)" } else { "" }),
        solution,
        node_accesses: tree.node_accesses() - start,
    })
}

/// Verifies both conditions of the multi-radius generalisation by brute
/// force, returning `(uncovered, dependent_pairs)`.
pub fn verify_multi_radius(
    data: &disc_metric::Dataset,
    solution: &[ObjId],
    radii: &[f64],
) -> (Vec<ObjId>, Vec<(ObjId, ObjId)>) {
    let edge = |p: ObjId, q: ObjId| data.dist(p, q) <= radii[p].min(radii[q]);
    let uncovered = data
        .ids()
        .filter(|&p| !solution.iter().any(|&s| s == p || edge(p, s)))
        .collect();
    let mut dependent = Vec::new();
    for (i, &a) in solution.iter().enumerate() {
        for &b in &solution[i + 1..] {
            if edge(a, b) {
                dependent.push((a, b));
            }
        }
    }
    (uncovered, dependent)
}

/// Neighbours of `p` under the `min(r(p), r(q))` edge rule, retrieved
/// with one `Q(p, r(p))` range query and filtered exactly.
fn neighbors_of(
    tree: &MTree<'_>,
    p: ObjId,
    radii: &[f64],
    pruned: bool,
    colors: &ColorState,
) -> Vec<(ObjId, f64)> {
    let mut hits: Vec<RangeHit> = Vec::new();
    tree.range_query(
        tree.data().row(p),
        radii[p],
        pruned.then_some(colors),
        &mut hits,
    );
    hits.into_iter()
        .filter(|h| h.object != p && h.dist <= radii[p].min(radii[h.object]))
        .map(|h| (h.object, h.dist))
        .collect()
}

/// Number of `min`-rule neighbours of `p`, using a reusable scratch
/// buffer (the seeding pass only needs the count, not the pairs).
fn count_neighbors_into(
    tree: &MTree<'_>,
    p: ObjId,
    radii: &[f64],
    pruned: bool,
    colors: &ColorState,
    scratch: &mut Vec<RangeHit>,
) -> u32 {
    tree.range_query(
        tree.data().row(p),
        radii[p],
        pruned.then_some(colors),
        scratch,
    );
    scratch
        .iter()
        .filter(|h| h.object != p && h.dist <= radii[p].min(radii[h.object]))
        .count() as u32
}

/// Validates a radius assignment against an object count (shared with
/// the graph-resident runner in [`crate::resident`]).
pub(crate) fn check_radii_len(n: usize, radii: &[f64]) {
    assert_eq!(radii.len(), n, "one radius per object");
    assert!(
        radii.iter().all(|r| r.is_finite() && *r >= 0.0),
        "radii must be finite and non-negative"
    );
}

fn check_radii(tree: &MTree<'_>, radii: &[f64]) {
    check_radii_len(tree.len(), radii);
}

/// Mean of a radius assignment — the reported `radius` of multi-radius
/// results (shared with [`crate::resident`]).
pub(crate) fn mean_radius(radii: &[f64]) -> f64 {
    radii.iter().sum::<f64>() / radii.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{basic_disc, BasicOrder};
    use crate::greedy::{greedy_disc, GreedyVariant};
    use disc_datasets::synthetic::clustered;
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;

    /// Radii: fine near the origin (relevant region), coarse elsewhere.
    fn relevance_radii(data: &disc_metric::Dataset, fine: f64, coarse: f64) -> Vec<f64> {
        data.ids()
            .map(|id| {
                let p = data.point(id);
                let d = (p.coord(0).powi(2) + p.coord(1).powi(2)).sqrt();
                if d < 0.5 {
                    fine
                } else {
                    coarse
                }
            })
            .collect()
    }

    #[test]
    fn constant_radii_reduce_to_plain_disc() {
        let data = clustered(300, 2, 5, 130);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let radii = vec![0.08; 300];
        let mr = multi_radius_basic_disc(&tree, &radii, true);
        let plain = basic_disc(&tree, 0.08, BasicOrder::LeafOrder, true);
        assert_eq!(mr.solution, plain.solution);

        let mr_g = multi_radius_greedy_disc(&tree, &radii, true);
        let plain_g = greedy_disc(&tree, 0.08, GreedyVariant::Grey, true);
        assert_eq!(mr_g.solution, plain_g.solution);
    }

    #[test]
    fn solutions_are_valid_under_the_min_rule() {
        let data = clustered(400, 2, 5, 131);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let radii = relevance_radii(&data, 0.03, 0.12);
        for f in [multi_radius_basic_disc, multi_radius_greedy_disc] {
            let res = f(&tree, &radii, true);
            let (uncovered, dependent) = verify_multi_radius(&data, &res.solution, &radii);
            assert!(uncovered.is_empty(), "{:?}", res.heuristic);
            assert!(dependent.is_empty(), "{:?}", res.heuristic);
        }
    }

    #[test]
    fn relevant_regions_get_denser_representation() {
        let data = clustered(600, 2, 6, 132);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        // Uniform coarse radii vs fine radii near the origin.
        let coarse = multi_radius_greedy_disc(&tree, &vec![0.12; 600], true);
        let radii = relevance_radii(&data, 0.03, 0.12);
        let mixed = multi_radius_greedy_disc(&tree, &radii, true);
        let near_origin = |sol: &[usize]| {
            sol.iter()
                .filter(|&&o| {
                    let p = data.point(o);
                    (p.coord(0).powi(2) + p.coord(1).powi(2)).sqrt() < 0.5
                })
                .count()
        };
        assert!(
            near_origin(&mixed.solution) > near_origin(&coarse.solution),
            "finer radii near the origin must add representatives there: {} vs {}",
            near_origin(&mixed.solution),
            near_origin(&coarse.solution)
        );
    }

    #[test]
    fn greedy_never_larger_than_basic_here() {
        let data = clustered(400, 2, 5, 133);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let radii = relevance_radii(&data, 0.04, 0.1);
        let basic = multi_radius_basic_disc(&tree, &radii, true);
        let greedy = multi_radius_greedy_disc(&tree, &radii, true);
        assert!(greedy.size() <= basic.size());
    }

    #[test]
    #[should_panic(expected = "one radius per object")]
    fn rejects_mismatched_radii() {
        let data = clustered(50, 2, 3, 134);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let _ = multi_radius_basic_disc(&tree, &[0.1; 10], true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// With a constant radius function the multi-radius
        /// generalisation reduces verbatim to Definition 1 (the module
        /// docs' promise): pinned against the tree-backed plain
        /// heuristics, the `G_{P,r}` graph pipeline, *and* the
        /// graph-resident multi-radius path over the stratified graph.
        #[test]
        fn constant_radius_reduces_to_definition1_graph_pipeline(
            seed in 0u64..2_000,
            r in 0.03..0.2f64,
            cap in 4usize..12,
        ) {
            use crate::resident::{greedy_disc_graph, multi_radius_graph};
            use disc_graph::{StratifiedDiskGraph, UnitDiskGraph};

            let data = clustered(150, 2, 4, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let radii = vec![r; data.len()];

            let mr_b = multi_radius_basic_disc(&tree, &radii, true);
            let plain_b = basic_disc(&tree, r, BasicOrder::LeafOrder, true);
            prop_assert_eq!(&mr_b.solution, &plain_b.solution);
            let mr_g = multi_radius_greedy_disc(&tree, &radii, true);
            let plain_g = greedy_disc(&tree, r, GreedyVariant::Grey, true);
            prop_assert_eq!(&mr_g.solution, &plain_g.solution);

            // Definition 1's graph pipeline over G_{P,r} ...
            let udg = UnitDiskGraph::from_mtree(&tree, r);
            prop_assert_eq!(&greedy_disc_graph(&udg).solution, &plain_g.solution);
            // ... and the graph-resident multi-radius path coincide.
            let strat = StratifiedDiskGraph::from_mtree(&tree, r);
            prop_assert_eq!(
                &multi_radius_graph(&tree, &strat, &radii, true).solution,
                &plain_g.solution
            );
            prop_assert_eq!(
                &multi_radius_graph(&tree, &strat, &radii, false).solution,
                &plain_b.solution
            );
        }

        /// Both heuristics remain valid for arbitrary radius assignments.
        #[test]
        fn always_valid(seed in 0u64..2_000, fine in 0.02..0.08f64, coarse in 0.08..0.3f64) {
            let data = clustered(120, 2, 4, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
            let radii = relevance_radii(&data, fine, coarse);
            for f in [multi_radius_basic_disc, multi_radius_greedy_disc] {
                let res = f(&tree, &radii, true);
                let (uncovered, dependent) = verify_multi_radius(&data, &res.solution, &radii);
                prop_assert!(uncovered.is_empty());
                prop_assert!(dependent.is_empty());
            }
        }
    }
}
