//! Greedy-DisC (paper Algorithm 1) and its M-tree update strategies
//! (Section 5.1).
//!
//! All variants select, at every step, the white object with the largest
//! white neighbourhood `|N^W_r|` (ties to the smallest id), colour it
//! black and its white neighbours grey. They differ only in how the white
//! neighbourhood counts of the *remaining* white objects are refreshed:
//!
//! * [`GreedyVariant::Grey`] — Grey-Greedy-DisC: one extra range query
//!   `Q(p_j, r)` per newly greyed object `p_j`; counts stay exact.
//! * [`GreedyVariant::White`] — White-Greedy-DisC: a single query
//!   `Q(p_i, 2r)` retrieves every white object whose count may have
//!   changed; the decrements are then computed with local distance
//!   comparisons. Counts stay exact, so Grey and White produce identical
//!   solutions (the paper's Table 3 lists them as one `G-DisC` row) at
//!   different node-access costs.
//! * [`GreedyVariant::LazyGrey`] / [`GreedyVariant::LazyWhite`] — the
//!   "Lazy" variants: update radius `r/2` (resp. `3r/2`) instead of `r`
//!   (resp. `2r`). Cheaper, but counts may go stale, which can enlarge the
//!   result slightly (paper Table 3).
//!
//! Pruning (skipping grey subtrees) applies to every range query when
//! `pruned` is set; white objects are never inside an all-grey subtree, so
//! exactness is unaffected.

use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree};

use crate::counts::{grey_out_white_hits, grey_update, init_all_white};
use crate::result::DiscResult;

/// Count-update strategy for Greedy-DisC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GreedyVariant {
    /// Exact per-grey-object updates (`Q(p_j, r)`).
    Grey,
    /// Exact single-query updates (`Q(p_i, 2r)` + local distances).
    White,
    /// Lazy per-grey-object updates (`Q(p_j, r/2)`).
    LazyGrey,
    /// Lazy single-query updates (`Q(p_i, 3r/2)` + local distances).
    LazyWhite,
}

impl GreedyVariant {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            GreedyVariant::Grey => "Gr-G-DisC",
            GreedyVariant::White => "Wh-G-DisC",
            GreedyVariant::LazyGrey => "L-Gr-G-DisC",
            GreedyVariant::LazyWhite => "L-Wh-G-DisC",
        }
    }
}

/// Computes an r-DisC diverse subset with Greedy-DisC.
///
/// The returned cost includes the initialisation pass that computes the
/// starting white-neighbourhood sizes (one range query per object); the
/// paper folds this pass into tree construction, which changes where the
/// cost is booked but not the comparative shapes.
pub fn greedy_disc(tree: &MTree<'_>, r: f64, variant: GreedyVariant, pruned: bool) -> DiscResult {
    let update_radius = match variant {
        GreedyVariant::Grey => r,
        GreedyVariant::LazyGrey => r / 2.0, // the paper's lazy choice
        GreedyVariant::White => 2.0 * r,
        GreedyVariant::LazyWhite => 1.5 * r, // the paper's lazy choice
    };
    let label = format!(
        "{}{}",
        variant.name(),
        if pruned { " (Pruned)" } else { "" }
    );
    run_greedy(tree, r, variant, update_radius, pruned, label)
}

/// Greedy-DisC with an explicit update radius — the knob the Lazy
/// variants turn. For the grey strategies the update queries run at
/// `update_radius ≤ r` (exact at `r`); for the white strategies at
/// `update_radius ≤ 2r` (exact at `2r`). Smaller radii cost fewer node
/// accesses but leave counts stale, which can change the solution.
/// Exposed for the lazy-radius ablation experiment.
pub fn greedy_disc_with_update_radius(
    tree: &MTree<'_>,
    r: f64,
    variant: GreedyVariant,
    update_radius: f64,
    pruned: bool,
) -> DiscResult {
    let label = format!(
        "{}[u={update_radius:.3}]{}",
        variant.name(),
        if pruned { " (Pruned)" } else { "" }
    );
    run_greedy(tree, r, variant, update_radius, pruned, label)
}

fn run_greedy(
    tree: &MTree<'_>,
    r: f64,
    variant: GreedyVariant,
    update_radius: f64,
    pruned: bool,
    label: String,
) -> DiscResult {
    assert!(r >= 0.0, "radius must be non-negative");
    assert!(update_radius >= 0.0, "update radius must be non-negative");
    let start = tree.node_accesses();
    let mut colors = ColorState::new(tree);
    let (mut counts, mut heap) = init_all_white(tree, r);
    let mut solution: Vec<ObjId> = Vec::new();
    // One selection-query buffer and one update-query buffer reused
    // across the whole run: the per-selection `Vec<RangeHit>` allocation
    // disappears from the hot loop.
    let mut sel_scratch: Vec<ObjId> = Vec::new();
    let mut upd_scratch: Vec<ObjId> = Vec::new();

    while colors.any_white() {
        let picked = match heap.pop_valid(|id| colors.is_white(id).then(|| counts[id])) {
            Some(p) => p,
            None => unreachable!("white objects remain, so the heap holds a candidate"),
        };
        colors.set_color(tree, picked, Color::Black);
        tree.range_query(
            tree.data().row(picked),
            r,
            pruned.then_some(&colors),
            &mut sel_scratch,
        );
        let newly_grey = grey_out_white_hits(tree, &mut colors, picked, &sel_scratch);

        match variant {
            GreedyVariant::Grey | GreedyVariant::LazyGrey => {
                // Exact when the update queries run at the full radius;
                // lazy radii leave counts stale (too high, never low).
                let exact = update_radius >= r;
                grey_update(
                    tree,
                    &colors,
                    &mut counts,
                    &newly_grey,
                    update_radius,
                    exact,
                    &mut upd_scratch,
                );
            }
            GreedyVariant::White | GreedyVariant::LazyWhite => {
                let exact = update_radius >= 2.0 * r;
                white_update(
                    tree,
                    &colors,
                    &mut counts,
                    picked,
                    &newly_grey,
                    r,
                    update_radius,
                    pruned,
                    exact,
                    &mut upd_scratch,
                );
            }
        }
        solution.push(picked);
    }

    DiscResult {
        radius: r,
        heuristic: label,
        solution,
        node_accesses: tree.node_accesses() - start,
    }
}

/// The White-Greedy update: one range query `Q(picked, update_radius)`
/// retrieves candidate white objects; each one's count is decremented by
/// the number of newly greyed objects within `r`, computed with local
/// distance comparisons (no further tree access).
///
/// Decrements saturate at zero: the Lazy variant operates on counts that
/// were never fully refreshed, so the arithmetic must not rely on them
/// being exact. `exact` asserts (debug builds) that the exact variants
/// never actually hit the saturation branch.
#[allow(clippy::too_many_arguments)]
fn white_update(
    tree: &MTree<'_>,
    colors: &ColorState,
    counts: &mut [u32],
    picked: ObjId,
    newly_grey: &[ObjId],
    r: f64,
    update_radius: f64,
    pruned: bool,
    exact: bool,
    scratch: &mut Vec<ObjId>,
) {
    if newly_grey.is_empty() {
        return;
    }
    let data = tree.data();
    tree.range_query(
        data.row(picked),
        update_radius,
        pruned.then_some(colors),
        scratch,
    );
    for &o in scratch.iter() {
        if !colors.is_white(o) {
            continue;
        }
        let delta = newly_grey
            .iter()
            .filter(|&&pj| data.dist(o, pj) <= r)
            .count() as u32;
        if delta > 0 {
            debug_assert!(
                !exact || counts[o] >= delta,
                "exact white update underflows object {o}: {} - {delta}",
                counts[o]
            );
            counts[o] = counts[o].saturating_sub(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_disc;
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_graph::{reference::greedy_disc_ref, UnitDiskGraph};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;

    const EXACT: [GreedyVariant; 2] = [GreedyVariant::Grey, GreedyVariant::White];
    const ALL: [GreedyVariant; 4] = [
        GreedyVariant::Grey,
        GreedyVariant::White,
        GreedyVariant::LazyGrey,
        GreedyVariant::LazyWhite,
    ];

    #[test]
    fn produces_valid_disc_subsets() {
        let data = clustered(300, 2, 5, 60);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        for v in ALL {
            for pruned in [false, true] {
                let res = greedy_disc(&tree, 0.08, v, pruned);
                assert!(
                    verify_disc(&data, &res.solution, 0.08).is_valid(),
                    "{v:?} pruned={pruned}"
                );
            }
        }
    }

    #[test]
    fn exact_variants_match_graph_reference() {
        let data = uniform(200, 2, 61);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        let g = UnitDiskGraph::build(&data, 0.1);
        let expect = greedy_disc_ref(&g);
        for v in EXACT {
            for pruned in [false, true] {
                let res = greedy_disc(&tree, 0.1, v, pruned);
                assert_eq!(res.solution, expect, "{v:?} pruned={pruned}");
            }
        }
    }

    #[test]
    fn grey_and_white_agree_lazy_may_differ_but_stays_valid() {
        let data = clustered(400, 2, 6, 62);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let r = 0.06;
        let grey = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let white = greedy_disc(&tree, r, GreedyVariant::White, true);
        assert_eq!(grey.solution, white.solution);
        for lazy in [GreedyVariant::LazyGrey, GreedyVariant::LazyWhite] {
            let res = greedy_disc(&tree, r, lazy, true);
            // Lazy counts can drift either way (the paper's Table 3b even
            // shows a smaller lazy solution at r = 0.01), but validity is
            // unconditional.
            assert!(verify_disc(&data, &res.solution, r).is_valid());
        }
    }

    #[test]
    fn greedy_never_larger_than_basic_here() {
        // Not a theorem, but holds robustly on clustered data and mirrors
        // the paper's Table 3.
        let data = clustered(500, 2, 5, 63);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let r = 0.05;
        let greedy = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let basic = crate::basic::basic_disc(&tree, r, crate::BasicOrder::LeafOrder, true);
        assert!(
            greedy.size() <= basic.size(),
            "greedy {} > basic {}",
            greedy.size(),
            basic.size()
        );
    }

    #[test]
    fn pruning_saves_accesses_without_changing_the_solution() {
        let data = clustered(600, 2, 6, 64);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(12));
        let r = 0.05;
        let plain = greedy_disc(&tree, r, GreedyVariant::Grey, false);
        let pruned = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        assert_eq!(plain.solution, pruned.solution);
        assert!(pruned.node_accesses < plain.node_accesses);
    }

    #[test]
    fn lazy_variants_cost_less_than_exact_counterparts() {
        let data = clustered(800, 2, 6, 65);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(15));
        let r = 0.05;
        let grey = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let lazy_grey = greedy_disc(&tree, r, GreedyVariant::LazyGrey, true);
        assert!(
            lazy_grey.node_accesses <= grey.node_accesses,
            "lazy {} > exact {}",
            lazy_grey.node_accesses,
            grey.node_accesses
        );
        let white = greedy_disc(&tree, r, GreedyVariant::White, true);
        let lazy_white = greedy_disc(&tree, r, GreedyVariant::LazyWhite, true);
        assert!(lazy_white.node_accesses <= white.node_accesses);
    }

    #[test]
    fn result_metadata() {
        let data = uniform(60, 2, 66);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let res = greedy_disc(&tree, 0.2, GreedyVariant::LazyWhite, true);
        assert_eq!(res.radius, 0.2);
        assert_eq!(res.heuristic, "L-Wh-G-DisC (Pruned)");
        assert!(res.node_accesses > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Every variant produces a valid r-DisC subset; exact variants
        /// agree with the graph reference.
        #[test]
        fn variants_valid_and_exact_matches_reference(
            seed in 0u64..2_000,
            r in 0.02..0.4f64,
            cap in 4usize..12,
        ) {
            let data = uniform(100, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let g = UnitDiskGraph::build(&data, r);
            let expect = greedy_disc_ref(&g);
            for v in ALL {
                let res = greedy_disc(&tree, r, v, true);
                prop_assert!(verify_disc(&data, &res.solution, r).is_valid(), "{:?}", v);
                if matches!(v, GreedyVariant::Grey | GreedyVariant::White) {
                    prop_assert_eq!(&res.solution, &expect);
                }
            }
        }
    }
}
