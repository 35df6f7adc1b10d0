//! Incremental zooming-out (paper Sections 3.2 and 5.2, Algorithm 3):
//! adapt an r-DisC diverse subset `S^r` to a larger radius `r' > r`.
//!
//! Unlike zooming-in there may be no valid subset of `S^r` for `r'`
//! (Observation 4), so the adaptation works in two passes:
//!
//! 1. previous blacks become **red** and are re-examined: a selected red
//!    turns black and covers (greys) everything within `r'` — including
//!    other reds, which thereby drop out of the solution;
//! 2. any objects left uncovered (white) are added with a Basic- or
//!    Greedy-DisC pass at `r'`.
//!
//! The greedy variants differ in how the first pass orders the reds
//! (paper Section 3.2): (a) most red neighbours first, (b) fewest red
//! neighbours first (maximising `S^r ∩ S^{r'}`), (c) most white
//! neighbours first. Variants (a) and (b) read the counts from
//! neighbourhoods cached at pass start (one query per red); variant (c)
//! recomputes white neighbourhoods with fresh queries at every selection,
//! which reproduces its much higher cost in the paper's Figure 15.
//!
//! These are the **tree-backed** runners. With a
//! [`disc_graph::StratifiedDiskGraph`] built at a radius `≥ r'`, the
//! graph-resident [`crate::zoom_out_graph`] runs all four variants
//! byte-identically with zero queries — variant (c)'s per-selection
//! recounting becomes a per-selection adjacency prefix scan.

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree, RangeHit};

use crate::counts::{greedy_white_pass_checked, init_white_subset};
use crate::result::{DiscResult, ZoomResult};
use crate::{checkpoint, never_cancelled};

/// First-pass ordering for zooming out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoomOutVariant {
    /// Non-greedy: process previous blacks in their selection order.
    Plain,
    /// Greedy (a): largest number of red neighbours first.
    GreedyA,
    /// Greedy (b): smallest number of red neighbours first.
    GreedyB,
    /// Greedy (c): largest number of white neighbours first.
    GreedyC,
}

impl ZoomOutVariant {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            ZoomOutVariant::Plain => "Zoom-Out",
            ZoomOutVariant::GreedyA => "Greedy-Zoom-Out (a)",
            ZoomOutVariant::GreedyB => "Greedy-Zoom-Out (b)",
            ZoomOutVariant::GreedyC => "Greedy-Zoom-Out (c)",
        }
    }
}

/// Zoom-Out with the plain (non-greedy) first pass.
pub fn zoom_out(tree: &MTree<'_>, prev: &DiscResult, r_new: f64) -> ZoomResult {
    never_cancelled(run_zoom_out(tree, prev, r_new, ZoomOutVariant::Plain, None))
}

/// Greedy-Zoom-Out with the chosen first-pass variant.
pub fn greedy_zoom_out(
    tree: &MTree<'_>,
    prev: &DiscResult,
    r_new: f64,
    variant: ZoomOutVariant,
) -> ZoomResult {
    never_cancelled(run_zoom_out(tree, prev, r_new, variant, None))
}

/// [`greedy_zoom_out`] (any variant, [`ZoomOutVariant::Plain`] included)
/// polling a [`CancelToken`] once per selection in both passes;
/// `Err(Cancelled)` on a fired deadline with no partial state.
/// Byte-identical to the plain runner when the token never cancels.
pub fn greedy_zoom_out_checked(
    tree: &MTree<'_>,
    prev: &DiscResult,
    r_new: f64,
    variant: ZoomOutVariant,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    run_zoom_out(tree, prev, r_new, variant, cancel)
}

fn run_zoom_out(
    tree: &MTree<'_>,
    prev: &DiscResult,
    r_new: f64,
    variant: ZoomOutVariant,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    assert!(
        r_new > prev.radius,
        "zooming out requires r' > r ({r_new} <= {})",
        prev.radius
    );
    // Colour: previous blacks red, everything else white (Algorithm 3,
    // lines 2-3).
    let mut colors = ColorState::new(tree);
    for &b in &prev.solution {
        colors.set_color(tree, b, Color::Red);
    }

    // Preparation: the greedy variants (a)/(b) cache each red's
    // neighbourhood at the new radius so selection keys are in-memory.
    let prep_start = tree.node_accesses();
    let cached: Vec<(ObjId, Vec<ObjId>)> = match variant {
        ZoomOutVariant::GreedyA | ZoomOutVariant::GreedyB => prev
            .solution
            .iter()
            .map(|&red| {
                let mut hits: Vec<RangeHit> = Vec::new();
                tree.range_query(tree.data().row(red), r_new, None, &mut hits);
                let nb = hits
                    .iter()
                    .map(|h| h.object)
                    .filter(|&o| o != red)
                    .collect();
                (red, nb)
            })
            .collect(),
        _ => Vec::new(),
    };
    let prep_accesses = tree.node_accesses() - prep_start;

    let start = tree.node_accesses();
    let mut solution: Vec<ObjId> = Vec::new();

    // ---- First pass: re-examine the reds (Algorithm 3, lines 4-11). ----
    match variant {
        ZoomOutVariant::Plain => {
            for &red in &prev.solution {
                if colors.color(red) != Color::Red {
                    continue; // already covered by an earlier selection
                }
                checkpoint(cancel)?;
                select_and_cover(tree, &mut colors, red, r_new, &mut solution);
            }
        }
        ZoomOutVariant::GreedyA | ZoomOutVariant::GreedyB => {
            loop {
                checkpoint(cancel)?;
                // Selection key from the cached neighbourhoods + current
                // colours: number of still-red neighbours.
                let best = cached
                    .iter()
                    .filter(|(red, _)| colors.color(*red) == Color::Red)
                    .map(|(red, hits)| {
                        let red_nb = hits
                            .iter()
                            .filter(|&&o| colors.color(o) == Color::Red)
                            .count();
                        (*red, red_nb)
                    })
                    .max_by(|a, b| {
                        let primary = match variant {
                            ZoomOutVariant::GreedyA => a.1.cmp(&b.1),
                            _ => b.1.cmp(&a.1), // (b): fewest red neighbours
                        };
                        primary.then(b.0.cmp(&a.0)) // ties to smallest id
                    });
                let Some((red, _)) = best else { break };
                select_and_cover(tree, &mut colors, red, r_new, &mut solution);
            }
        }
        ZoomOutVariant::GreedyC => {
            loop {
                checkpoint(cancel)?;
                // Fresh white-neighbourhood counts for every remaining
                // red: one pruned range query each, every iteration. This
                // is what makes variant (c) expensive (paper Figure 15).
                let reds: Vec<ObjId> = colors.objects_with(Color::Red);
                if reds.is_empty() {
                    break;
                }
                let best = reds
                    .iter()
                    .map(|&red| {
                        let mut hits: Vec<RangeHit> = Vec::new();
                        tree.range_query(tree.data().row(red), r_new, Some(&colors), &mut hits);
                        let white_nb = hits.iter().filter(|h| colors.is_white(h.object)).count();
                        (red, white_nb)
                    })
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
                let best = match best {
                    Some(b) => b,
                    None => unreachable!("reds is non-empty"),
                };
                select_and_cover(tree, &mut colors, best.0, r_new, &mut solution);
            }
        }
    }
    debug_assert_eq!(colors.count(Color::Red), 0);

    // ---- Second pass: cover the leftovers (lines 12-19). ----
    if colors.any_white() {
        match variant {
            ZoomOutVariant::Plain => {
                for leaf in tree.leaves().collect::<Vec<_>>() {
                    if colors.node_is_grey(leaf) {
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
                        if colors.is_white(object) {
                            checkpoint(cancel)?;
                            select_and_cover(tree, &mut colors, object, r_new, &mut solution);
                        }
                    }
                }
            }
            _ => {
                let (mut counts, mut heap) = init_white_subset(tree, r_new, &colors);
                greedy_white_pass_checked(
                    tree,
                    r_new,
                    &mut colors,
                    &mut counts,
                    &mut heap,
                    &mut solution,
                    cancel,
                )?;
            }
        }
    }
    debug_assert!(!colors.any_white());

    Ok(ZoomResult {
        result: DiscResult {
            radius: r_new,
            heuristic: variant.name().into(),
            solution,
            node_accesses: tree.node_accesses() - start,
        },
        prep_accesses,
    })
}

/// Colours `picked` black, greys everything within `r_new` of it (reds and
/// whites alike) and appends it to the solution.
fn select_and_cover(
    tree: &MTree<'_>,
    colors: &mut ColorState,
    picked: ObjId,
    r_new: f64,
    solution: &mut Vec<ObjId>,
) {
    colors.set_color(tree, picked, Color::Black);
    let mut hits: Vec<RangeHit> = Vec::new();
    tree.range_query(tree.data().row(picked), r_new, None, &mut hits);
    for h in hits {
        if h.object != picked && colors.color(h.object) != Color::Black {
            colors.set_color(tree, h.object, Color::Grey);
        }
    }
    solution.push(picked);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_disc, GreedyVariant};
    use crate::verify::verify_disc;
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;

    const ALL: [ZoomOutVariant; 4] = [
        ZoomOutVariant::Plain,
        ZoomOutVariant::GreedyA,
        ZoomOutVariant::GreedyB,
        ZoomOutVariant::GreedyC,
    ];

    #[test]
    fn all_variants_produce_valid_solutions() {
        let data = clustered(400, 2, 5, 90);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, 0.04, GreedyVariant::Grey, true);
        for v in ALL {
            let z = greedy_zoom_out(&tree, &prev, 0.1, v);
            assert!(
                verify_disc(&data, &z.result.solution, 0.1).is_valid(),
                "{v:?}"
            );
            // Zooming out shrinks the solution.
            assert!(z.result.size() <= prev.size(), "{v:?}");
        }
    }

    #[test]
    fn first_pass_keeps_some_previous_objects() {
        let data = clustered(500, 2, 5, 91);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, 0.05, GreedyVariant::Grey, true);
        let z = greedy_zoom_out(&tree, &prev, 0.08, ZoomOutVariant::GreedyB);
        let kept = z
            .result
            .solution
            .iter()
            .filter(|o| prev.solution.contains(o))
            .count();
        assert!(kept > 0, "zoom-out should retain part of the seen result");
    }

    #[test]
    fn variant_b_maximises_retention_compared_to_a() {
        let data = clustered(600, 2, 6, 92);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(12));
        let prev = greedy_disc(&tree, 0.03, GreedyVariant::Grey, true);
        let keep = |v| {
            let z = greedy_zoom_out(&tree, &prev, 0.06, v);
            z.result
                .solution
                .iter()
                .filter(|o| prev.solution.contains(o))
                .count()
        };
        // (b) targets |S^r ∩ S^r'|; (a) targets fewer additions. (b)
        // should retain at least as many previous objects.
        assert!(keep(ZoomOutVariant::GreedyB) >= keep(ZoomOutVariant::GreedyA));
    }

    #[test]
    fn variant_c_costs_more_than_a() {
        let data = clustered(600, 2, 6, 93);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(12));
        let prev = greedy_disc(&tree, 0.03, GreedyVariant::Grey, true);
        let a = greedy_zoom_out(&tree, &prev, 0.06, ZoomOutVariant::GreedyA);
        let c = greedy_zoom_out(&tree, &prev, 0.06, ZoomOutVariant::GreedyC);
        assert!(
            c.result.node_accesses > a.result.node_accesses,
            "(c) {} should exceed (a) {}",
            c.result.node_accesses,
            a.result.node_accesses
        );
    }

    #[test]
    fn plain_variant_is_cheapest() {
        let data = clustered(600, 2, 6, 94);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(12));
        let prev = greedy_disc(&tree, 0.03, GreedyVariant::Grey, true);
        let plain = zoom_out(&tree, &prev, 0.06);
        for v in [ZoomOutVariant::GreedyA, ZoomOutVariant::GreedyC] {
            let z = greedy_zoom_out(&tree, &prev, 0.06, v);
            assert!(
                plain.total_accesses() <= z.total_accesses(),
                "plain {} vs {v:?} {}",
                plain.total_accesses(),
                z.total_accesses()
            );
        }
    }

    #[test]
    #[should_panic(expected = "zooming out requires")]
    fn rejects_smaller_radius() {
        let data = uniform(100, 2, 95);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let prev = greedy_disc(&tree, 0.2, GreedyVariant::Grey, true);
        let _ = zoom_out(&tree, &prev, 0.1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// All zoom-out variants always produce valid r'-DisC subsets.
        #[test]
        fn zoom_out_always_valid(seed in 0u64..1_000, r in 0.03..0.15f64, grow in 1.3..3.0f64) {
            let data = uniform(120, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
            let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
            let r_new = r * grow;
            for v in ALL {
                let z = greedy_zoom_out(&tree, &prev, r_new, v);
                prop_assert!(
                    verify_disc(&data, &z.result.solution, r_new).is_valid(),
                    "{:?}", v
                );
            }
        }
    }
}
