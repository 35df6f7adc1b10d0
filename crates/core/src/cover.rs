//! Greedy-C and Fast-C (paper Sections 2.3 and 5.1): r-C diverse subsets
//! that satisfy coverage only.
//!
//! Greedy-C widens the candidate pool of Algorithm 1 to white *and* grey
//! objects, so the selection can pick an already-covered object when it
//! covers more uncovered ones (Observation 3: a covering set may be
//! smaller when it need not be independent). The selection key is
//! `|N^W_r(p)| + [p is white]` — the number of objects a selection newly
//! covers, counting the candidate itself while it is uncovered; the
//! self-term is what guarantees termination when isolated white objects
//! remain (a grey candidate covering nothing could otherwise be picked
//! forever). For Greedy-DisC the self-term is uniform over the (all-white)
//! candidates, so this matches Algorithm 1 exactly.
//!
//! The Pruning Rule cannot be used by Greedy-C: grey objects stay
//! candidates, so their counts must keep being refreshed, and they live
//! inside grey subtrees.
//!
//! Fast-C exploits the grey marks anyway: all of its range queries run
//! *bottom-up* and stop climbing at the first grey ancestor, which makes
//! the per-grey-object update queries nearly free once grey has spread —
//! at the price of stale candidate counts. To keep solutions "similar
//! sized" to Greedy-C's (the paper's observation), a popped candidate is
//! first *revalidated* with one such truncated query and re-queued if its
//! key dropped (lazy greedy selection). Climbs from white candidates are
//! never truncated — a white object's ancestors all contain it and can't
//! be grey — so whites are never missed and the result always covers;
//! truncated counts merely divert selections towards white objects, which
//! reproduces the paper's remark that Fast-C solutions contain a larger
//! share of independent objects.

use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree};

use crate::heap::LazyMaxHeap;
use crate::par;
use crate::result::DiscResult;

/// Computes an r-C diverse subset (coverage only) with Greedy-C.
pub fn greedy_c(tree: &MTree<'_>, r: f64) -> DiscResult {
    run_cover(tree, r, false)
}

/// Computes an r-C diverse subset with Fast-C (bottom-up, stop-at-grey
/// range queries and lazy candidate revalidation).
pub fn fast_c(tree: &MTree<'_>, r: f64) -> DiscResult {
    run_cover(tree, r, true)
}

fn run_cover(tree: &MTree<'_>, r: f64, fast: bool) -> DiscResult {
    assert!(r >= 0.0, "radius must be non-negative");
    let start = tree.node_accesses();
    let n = tree.len();
    let mut colors = ColorState::new(tree);

    // counts[p] = |N_r(p) ∩ white| for every object, initialised by one
    // range query per object (exact: nothing is grey yet). The queries
    // are independent, so the pass fans out across threads.
    let mut counts = par::seed_counts(n, |id, scratch: &mut Vec<ObjId>| {
        query_into(tree, id, r, fast, &colors, scratch);
        (scratch.len() - 1) as u32
    });
    let mut heap = LazyMaxHeap::with_capacity(n);
    for (id, &c) in counts.iter().enumerate() {
        heap.push(id, c + 1); // all white: self-term applies
    }

    let key_of = |id: ObjId, colors: &ColorState, counts: &[u32]| -> Option<u32> {
        match colors.color(id) {
            Color::Black => None,
            Color::White => Some(counts[id] + 1),
            _ => Some(counts[id]),
        }
    };

    let mut solution: Vec<ObjId> = Vec::new();
    // Scratch buffers reused across the whole run: `sel_scratch` holds
    // the selection query's hits (including the Fast-C revalidation
    // query, whose hit list doubles as the selection hit list — the
    // pop-time query and the post-pick query are the same query, so it
    // is never reissued), `upd_scratch` the per-grey refresh queries.
    let mut sel_scratch: Vec<ObjId> = Vec::new();
    let mut upd_scratch: Vec<ObjId> = Vec::new();
    while colors.any_white() {
        // Select a candidate. Greedy-C keeps counts exact, so the heap's
        // answer is authoritative and one post-pop query suffices; Fast-C
        // revalidates the popped candidate with a fresh (truncated) query
        // and re-queues it if its key dropped.
        let picked = if fast {
            let mut selected = None;
            while let Some(cand) = heap.pop_valid(|id| key_of(id, &colors, &counts)) {
                query_into(tree, cand, r, true, &colors, &mut sel_scratch);
                let fresh = sel_scratch
                    .iter()
                    .filter(|&&o| o != cand && colors.is_white(o))
                    .count() as u32;
                if fresh == counts[cand] {
                    // `sel_scratch` already holds Q(cand, r): reuse it as
                    // the selection hit list below.
                    selected = Some(cand);
                    break;
                }
                debug_assert!(fresh < counts[cand], "truncated counts only shrink");
                counts[cand] = fresh;
                // The pop took the candidate's only entry: re-queue it.
                let bonus = u32::from(colors.is_white(cand));
                heap.push(cand, fresh + bonus);
            }
            match selected {
                Some(s) => s,
                None => unreachable!("white objects remain, so candidates exist"),
            }
        } else {
            let cand = match heap.pop_valid(|id| key_of(id, &colors, &counts)) {
                Some(c) => c,
                None => unreachable!("white objects remain, so candidates exist"),
            };
            query_into(tree, cand, r, false, &colors, &mut sel_scratch);
            cand
        };
        let picked_hits = &sel_scratch;

        let was_white = colors.is_white(picked);
        colors.set_color(tree, picked, Color::Black);

        // Decrement for `picked` leaving white: every non-black neighbour
        // keeps a candidate count.
        if was_white {
            for &o in picked_hits.iter() {
                if o != picked && colors.color(o) != Color::Black {
                    counts[o] = counts[o].saturating_sub(1);
                }
            }
        }

        let newly_grey: Vec<ObjId> = picked_hits
            .iter()
            .copied()
            .filter(|&o| o != picked && colors.is_white(o))
            .collect();
        for &pj in &newly_grey {
            colors.set_color(tree, pj, Color::Grey);
        }
        if !fast {
            // Greedy-C: exact refresh — one query per newly grey object,
            // decrementing everything that lost a white neighbour.
            for &pj in &newly_grey {
                query_into(tree, pj, r, false, &colors, &mut upd_scratch);
                for &o in upd_scratch.iter() {
                    if o != pj && colors.color(o) != Color::Black {
                        counts[o] = counts[o].saturating_sub(1);
                    }
                }
            }
        } else if !newly_grey.is_empty() {
            // Fast-C queries only "when an object is colored black"
            // (paper), so the per-grey refresh is replaced by a free local
            // repair over the selection query's own hit list: candidates
            // within r of the pick lose their newly-grey neighbours here;
            // candidates in the (r, 2r] annulus stay stale until the
            // pop-time revalidation catches them.
            let data = tree.data();
            for &x in picked_hits.iter() {
                if x == picked || colors.color(x) == Color::Black {
                    continue;
                }
                let delta = newly_grey
                    .iter()
                    .filter(|&&pj| pj != x && data.dist(x, pj) <= r)
                    .count() as u32;
                counts[x] = counts[x].saturating_sub(delta);
            }
        }
        solution.push(picked);
    }

    DiscResult {
        radius: r,
        heuristic: if fast { "Fast-C".into() } else { "G-C".into() },
        solution,
        node_accesses: tree.node_accesses() - start,
    }
}

fn query_into(
    tree: &MTree<'_>,
    center: ObjId,
    r: f64,
    fast: bool,
    colors: &ColorState,
    hits: &mut Vec<ObjId>,
) {
    if fast {
        tree.range_query_objs_bottom_up_into(center, r, Some(colors), true, hits);
    } else {
        tree.range_query_objs_into(center, r, hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_coverage, verify_disc};
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_graph::{reference::greedy_c_ref, sets::is_independent, UnitDiskGraph};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;

    #[test]
    fn greedy_c_covers_everything() {
        let data = clustered(300, 2, 5, 70);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let res = greedy_c(&tree, 0.08);
        assert!(verify_coverage(&data, &res.solution, 0.08).is_empty());
    }

    #[test]
    fn greedy_c_matches_graph_reference() {
        let data = uniform(180, 2, 71);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        let r = 0.12;
        let res = greedy_c(&tree, r);
        let g = UnitDiskGraph::build(&data, r);
        assert_eq!(res.solution, greedy_c_ref(&g));
    }

    #[test]
    fn greedy_c_may_break_independence_but_not_coverage() {
        // The Figure 4 double-star: Greedy-C covers with 2 dependent
        // objects where DisC needs 3 independent ones.
        use disc_metric::{Dataset, Metric, Point};
        let data = Dataset::new(
            "fig4",
            Metric::Euclidean,
            vec![
                Point::new2(0.2, 0.0),
                Point::new2(1.0, 0.0),
                Point::new2(1.2, 0.9),
                Point::new2(2.8, 0.3),
                Point::new2(2.0, 0.0),
                Point::new2(2.2, -0.9),
            ],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        let r = 1.0;
        let c = greedy_c(&tree, r);
        let d = crate::greedy::greedy_disc(&tree, r, crate::GreedyVariant::Grey, true);
        assert!(verify_coverage(&data, &c.solution, r).is_empty());
        assert!(verify_disc(&data, &d.solution, r).is_valid());
        assert!(
            c.size() < d.size(),
            "C {:?} vs DisC {:?}",
            c.solution,
            d.solution
        );
        let g = UnitDiskGraph::build(&data, r);
        assert!(
            !is_independent(&g, &c.solution),
            "C result is dependent here"
        );
    }

    #[test]
    fn fast_c_is_cheaper_at_larger_radii_and_similar_sized() {
        let data = clustered(800, 2, 6, 72);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(15));
        let r = 0.08;
        let slow = greedy_c(&tree, r);
        let fast = fast_c(&tree, r);
        assert!(verify_coverage(&data, &fast.solution, r).is_empty());
        assert!(
            fast.node_accesses < slow.node_accesses,
            "fast {} !< slow {}",
            fast.node_accesses,
            slow.node_accesses
        );
        // "Similar sized solutions" (paper): allow a modest growth factor.
        assert!(
            fast.size() <= slow.size() * 3 / 2 + 2,
            "fast {} vs slow {}",
            fast.size(),
            slow.size()
        );
    }

    #[test]
    fn isolated_objects_terminate() {
        use disc_metric::{Dataset, Metric, Point};
        let data = Dataset::new(
            "iso",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(5.0, 0.0),
                Point::new2(0.0, 5.0),
                Point::new2(5.0, 5.0),
            ],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        let res = greedy_c(&tree, 0.5);
        assert_eq!(res.size(), 4);
        let res = fast_c(&tree, 0.5);
        assert_eq!(res.size(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Greedy-C and Fast-C always cover; Greedy-C matches the graph
        /// reference exactly; Fast-C stays within a constant factor.
        #[test]
        fn cover_heuristics_valid(seed in 0u64..2_000, r in 0.02..0.4f64) {
            let data = uniform(90, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
            let res = greedy_c(&tree, r);
            prop_assert!(verify_coverage(&data, &res.solution, r).is_empty());
            let g = UnitDiskGraph::build(&data, r);
            prop_assert_eq!(&res.solution, &greedy_c_ref(&g));
            let fast = fast_c(&tree, r);
            prop_assert!(verify_coverage(&data, &fast.solution, r).is_empty());
            prop_assert!(fast.size() <= res.size() * 3 + 3);
        }
    }
}
