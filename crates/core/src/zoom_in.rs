//! Incremental zooming-in (paper Sections 3.1 and 5.2): adapt an r-DisC
//! diverse subset `S^r` to a smaller radius `r' < r`, producing
//! `S^{r'} ⊇ S^r` (Lemma 5).
//!
//! The Zooming Rule drives both variants: black objects stay black; a
//! grey object stays grey as long as a black object lies within `r'` of
//! it. The rule needs every object's distance to its closest black
//! neighbour, which the paper stores in extended leaf entries and fills in
//! a post-processing pass after `S^r` is computed (pruning during the
//! original computation interferes with these distances); the cost of
//! that pass is reported separately as [`crate::ZoomResult::prep_accesses`].
//!
//! These are the **tree-backed** runners (one range query per black for
//! the preparation pass, one per selection for coverage). When a
//! [`disc_graph::StratifiedDiskGraph`] has been materialised at a radius
//! `≥ r`, the graph-resident counterparts [`crate::zoom_in_graph`] /
//! [`crate::greedy_zoom_in_graph`] produce byte-identical solutions with
//! zero queries — the closest-black pass becomes one adjacency prefix
//! scan per black, and a whole multi-step zoom-in sweep costs no
//! distance computations beyond the one annotated self-join.

// Object ids double as array indices and query arguments here, so
// indexed loops are the clearer idiom.
#![allow(clippy::needless_range_loop)]

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree, RangeHit};

use crate::counts::{greedy_white_pass_checked, init_white_subset};
use crate::result::{DiscResult, ZoomResult};
use crate::{checkpoint, never_cancelled};

/// Distances from every object to its closest black neighbour, computed
/// with one range query per black object (the paper's post-processing
/// step). Black objects report 0. Polls the optional token once per
/// black.
pub(crate) fn closest_black_distances(
    tree: &MTree<'_>,
    blacks: &[ObjId],
    r: f64,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    let mut dist = vec![f64::INFINITY; tree.len()];
    let mut hits: Vec<RangeHit> = Vec::new();
    for &b in blacks {
        checkpoint(cancel)?;
        dist[b] = 0.0;
        tree.range_query(tree.data().row(b), r, None, &mut hits);
        for h in &hits {
            if h.object != b && h.dist < dist[h.object] {
                dist[h.object] = h.dist;
            }
        }
    }
    Ok(dist)
}

/// Sets up the colouring for the new radius: previous blacks stay black,
/// objects within `r_new` of a black are grey, everything else is white
/// (uncovered).
fn recolor_for_zoom_in(
    tree: &MTree<'_>,
    prev: &DiscResult,
    closest_black: &[f64],
    r_new: f64,
) -> ColorState {
    let mut colors = ColorState::new(tree);
    for &b in &prev.solution {
        colors.set_color(tree, b, Color::Black);
    }
    for id in 0..tree.len() {
        if colors.color(id) == Color::Black {
            continue;
        }
        if closest_black[id] <= r_new {
            colors.set_color(tree, id, Color::Grey);
        }
    }
    colors
}

/// Zoom-In: adapts `prev` (computed for `prev.radius`) to the smaller
/// radius `r_new` with a single left-to-right leaf pass — uncovered
/// objects are selected in encounter order, exactly like Basic-DisC
/// seeded with the previous solution.
pub fn zoom_in(tree: &MTree<'_>, prev: &DiscResult, r_new: f64) -> ZoomResult {
    never_cancelled(zoom_in_checked(tree, prev, r_new, None))
}

/// [`zoom_in()`] polling a [`CancelToken`] once per black in the
/// preparation pass and once per selection; `Err(Cancelled)` on a fired
/// deadline with no partial state. Byte-identical to the plain runner
/// when the token never cancels.
pub fn zoom_in_checked(
    tree: &MTree<'_>,
    prev: &DiscResult,
    r_new: f64,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    assert!(
        r_new < prev.radius,
        "zooming in requires r' < r ({r_new} >= {})",
        prev.radius
    );
    let prep_start = tree.node_accesses();
    let closest_black = closest_black_distances(tree, &prev.solution, prev.radius, cancel)?;
    let prep_accesses = tree.node_accesses() - prep_start;

    let start = tree.node_accesses();
    let mut colors = recolor_for_zoom_in(tree, prev, &closest_black, r_new);
    let mut solution = prev.solution.clone();
    let mut hits: Vec<RangeHit> = Vec::new();
    for leaf in tree.leaves().collect::<Vec<_>>() {
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
            // Locate the objects for which `object` is now the closest
            // black neighbour and cover them.
            tree.range_query(tree.data().row(object), r_new, None, &mut hits);
            for h in &hits {
                if colors.is_white(h.object) {
                    colors.set_color(tree, h.object, Color::Grey);
                }
            }
            solution.push(object);
        }
    }
    debug_assert!(!colors.any_white());

    Ok(ZoomResult {
        result: DiscResult {
            radius: r_new,
            heuristic: "Zoom-In".into(),
            solution,
            node_accesses: tree.node_accesses() - start,
        },
        prep_accesses,
    })
}

/// Greedy-Zoom-In (paper Algorithm 2): like [`zoom_in`] but the uncovered
/// objects are selected greedily by white-neighbourhood size at the new
/// radius.
pub fn greedy_zoom_in(tree: &MTree<'_>, prev: &DiscResult, r_new: f64) -> ZoomResult {
    never_cancelled(greedy_zoom_in_checked(tree, prev, r_new, None))
}

/// [`greedy_zoom_in`] polling a [`CancelToken`] once per black in the
/// preparation pass and once per selection round; `Err(Cancelled)` on a
/// fired deadline with no partial state.
pub fn greedy_zoom_in_checked(
    tree: &MTree<'_>,
    prev: &DiscResult,
    r_new: f64,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    assert!(
        r_new < prev.radius,
        "zooming in requires r' < r ({r_new} >= {})",
        prev.radius
    );
    let prep_start = tree.node_accesses();
    let closest_black = closest_black_distances(tree, &prev.solution, prev.radius, cancel)?;
    let prep_accesses = tree.node_accesses() - prep_start;

    let start = tree.node_accesses();
    let mut colors = recolor_for_zoom_in(tree, prev, &closest_black, r_new);
    // The paper traverses the leaves once to collect the uncovered
    // objects into L'.
    for _ in tree.leaves() {
        tree.charge_access();
    }
    let (mut counts, mut heap) = init_white_subset(tree, r_new, &colors);
    let mut solution = prev.solution.clone();
    greedy_white_pass_checked(
        tree,
        r_new,
        &mut colors,
        &mut counts,
        &mut heap,
        &mut solution,
        cancel,
    )?;

    Ok(ZoomResult {
        result: DiscResult {
            radius: r_new,
            heuristic: "Greedy-Zoom-In".into(),
            solution,
            node_accesses: tree.node_accesses() - start,
        },
        prep_accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_disc, GreedyVariant};
    use crate::verify::verify_disc;
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn setup(n: usize, seed: u64, r: f64) -> (disc_metric::Dataset, f64) {
        (clustered(n, 2, 5, seed), r)
    }

    #[test]
    fn zoom_in_produces_superset_lemma5() {
        let (data, r) = setup(400, 80, 0.1);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        for f in [zoom_in, greedy_zoom_in] {
            let z = f(&tree, &prev, 0.05);
            let prev_set: HashSet<_> = prev.solution.iter().collect();
            let new_set: HashSet<_> = z.result.solution.iter().collect();
            assert!(prev_set.is_subset(&new_set), "Lemma 5(i) violated");
            assert!(verify_disc(&data, &z.result.solution, 0.05).is_valid());
        }
    }

    #[test]
    fn zoom_in_size_between_old_and_fresh() {
        let (data, r) = setup(500, 81, 0.12);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let z = greedy_zoom_in(&tree, &prev, 0.06);
        assert!(z.result.size() >= prev.size());
        // Sanity: not absurdly larger than a from-scratch solution.
        let fresh = greedy_disc(&tree, 0.06, GreedyVariant::Grey, true);
        assert!(z.result.size() <= fresh.size() * 3);
    }

    #[test]
    fn zoom_in_is_cheaper_than_from_scratch_greedy() {
        let (data, r) = setup(800, 82, 0.1);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(15));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let z = zoom_in(&tree, &prev, 0.05);
        let fresh = greedy_disc(&tree, 0.05, GreedyVariant::Grey, true);
        assert!(
            z.result.node_accesses < fresh.node_accesses,
            "zoom {} !< fresh {}",
            z.result.node_accesses,
            fresh.node_accesses
        );
    }

    #[test]
    fn jaccard_distance_smaller_than_from_scratch() {
        use disc_graph::jaccard_distance;
        let (data, r) = setup(600, 83, 0.1);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(12));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let z = greedy_zoom_in(&tree, &prev, 0.05);
        let fresh = greedy_disc(&tree, 0.05, GreedyVariant::Grey, true);
        let d_zoom = jaccard_distance(&prev.solution, &z.result.solution);
        let d_fresh = jaccard_distance(&prev.solution, &fresh.solution);
        assert!(
            d_zoom <= d_fresh,
            "zoomed solution should stay closer to the seen result"
        );
    }

    #[test]
    fn closest_black_distances_are_correct() {
        let data = uniform(150, 2, 84);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let prev = greedy_disc(&tree, 0.2, GreedyVariant::Grey, true);
        let dist = match closest_black_distances(&tree, &prev.solution, 0.2, None) {
            Ok(d) => d,
            Err(_) => unreachable!("no token supplied"),
        };
        for id in data.ids() {
            let brute = prev
                .solution
                .iter()
                .filter(|&&b| b != id)
                .map(|&b| data.dist(id, b))
                .fold(f64::INFINITY, f64::min);
            if prev.solution.contains(&id) {
                assert_eq!(dist[id], 0.0);
            } else if brute <= 0.2 {
                assert!((dist[id] - brute).abs() < 1e-12, "object {id}");
            } else {
                assert!(dist[id].is_infinite());
            }
        }
    }

    #[test]
    #[should_panic(expected = "zooming in requires")]
    fn rejects_larger_radius() {
        let (data, r) = setup(100, 85, 0.05);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let _ = zoom_in(&tree, &prev, 0.2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Zoom-in always yields a valid superset solution for the new
        /// radius.
        #[test]
        fn zoom_in_always_valid(seed in 0u64..1_000, r in 0.1..0.3f64, shrink in 0.2..0.9f64) {
            let data = uniform(120, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
            let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
            let r_new = r * shrink;
            for f in [zoom_in, greedy_zoom_in] {
                let z = f(&tree, &prev, r_new);
                prop_assert!(verify_disc(&data, &z.result.solution, r_new).is_valid());
                let prev_set: HashSet<_> = prev.solution.iter().collect();
                let new_set: HashSet<_> = z.result.solution.iter().collect();
                prop_assert!(prev_set.is_subset(&new_set));
            }
        }
    }
}
