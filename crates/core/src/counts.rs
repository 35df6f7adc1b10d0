//! White-neighbourhood bookkeeping shared by the greedy heuristics.
//!
//! `counts[p] = |N_r(p) ∩ white|` — the number of *uncovered* objects a
//! candidate would newly cover (excluding itself). The paper initialises
//! these while building the M-tree; here initialisation is an explicit
//! pass (one range query per object) charged to the calling algorithm,
//! which preserves the relative cost shapes of the experiments.
//!
//! The seeding pass fans out across threads (see [`crate::par`]);
//! results and cost counters are identical to the serial loop's.
//! Update loops reuse one scratch hit buffer per algorithm run instead
//! of allocating a fresh `Vec` per range query.
//!
//! The updates only write `counts`: every object enters the
//! [`LazyMaxHeap`] once, at seeding, and the heap reads the fallen
//! counts back at pop time (see [`crate::heap`]).

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree};

use crate::heap::LazyMaxHeap;
use crate::par;
use crate::{checkpoint, never_cancelled};

/// Initialises white-neighbourhood counts for *all* objects of a fresh
/// (all-white) colouring, pushing every object into the heap. One range
/// query per object, charged to the tree's access counter.
pub fn init_all_white(tree: &MTree<'_>, r: f64) -> (Vec<u32>, LazyMaxHeap) {
    let n = tree.len();
    let counts = par::seed_counts(n, |id, scratch: &mut Vec<ObjId>| {
        // Hits include the object itself; the paper's |N^W_r| excludes it.
        // Object-only query: counting needs no distances, which unlocks
        // the index's inclusion shortcuts.
        tree.range_query(tree.data().row(id), r, None, scratch);
        (scratch.len() - 1) as u32
    });
    let mut heap = LazyMaxHeap::with_capacity(n);
    for (id, &c) in counts.iter().enumerate() {
        heap.push(id, c);
    }
    (counts, heap)
}

/// Initialises counts for the *white* objects of a partially coloured
/// state (used by the zooming passes): one pruned range query per white
/// object, counting only white hits.
pub fn init_white_subset(tree: &MTree<'_>, r: f64, colors: &ColorState) -> (Vec<u32>, LazyMaxHeap) {
    let n = tree.len();
    let counts = par::seed_counts(n, |id, scratch: &mut Vec<ObjId>| {
        if !colors.is_white(id) {
            return 0;
        }
        tree.range_query(tree.data().row(id), r, Some(colors), scratch);
        let white_hits = scratch.iter().filter(|&&o| colors.is_white(o)).count();
        (white_hits - 1) as u32 // exclude the object itself
    });
    let mut heap = LazyMaxHeap::with_capacity(colors.white_count());
    for (id, &c) in counts.iter().enumerate() {
        if colors.is_white(id) {
            heap.push(id, c);
        }
    }
    (counts, heap)
}

/// Colours `picked`'s white neighbours grey and returns them. `hits` are
/// the objects returned by the main range query `Q(picked, r)`.
pub fn grey_out_white_hits(
    tree: &MTree<'_>,
    colors: &mut ColorState,
    picked: ObjId,
    hits: &[ObjId],
) -> Vec<ObjId> {
    let newly_grey: Vec<ObjId> = hits
        .iter()
        .copied()
        .filter(|&o| o != picked && colors.is_white(o))
        .collect();
    for &o in &newly_grey {
        colors.set_color(tree, o, Color::Grey);
    }
    newly_grey
}

/// The standard (exact) "grey" update of Greedy-DisC: one pruned range
/// query per newly grey object, decrementing the counts of every white
/// object that lost a white neighbour. `update_radius` is `r` for
/// Grey-Greedy-DisC and `r/2` for the Lazy variant (which deliberately
/// leaves distant counts stale). `exact` marks the full-radius case:
/// decrements saturate at zero either way, and debug builds assert the
/// exact path never actually saturates. The range queries write into
/// the caller's `scratch`, so per-selection update rounds share one
/// allocation.
pub fn grey_update(
    tree: &MTree<'_>,
    colors: &ColorState,
    counts: &mut [u32],
    newly_grey: &[ObjId],
    update_radius: f64,
    exact: bool,
    scratch: &mut Vec<ObjId>,
) {
    for &pj in newly_grey {
        tree.range_query(tree.data().row(pj), update_radius, Some(colors), scratch);
        for &o in scratch.iter() {
            if colors.is_white(o) {
                debug_assert!(
                    !exact || counts[o] > 0,
                    "exact grey update underflows object {o}"
                );
                counts[o] = counts[o].saturating_sub(1);
            }
        }
    }
}

/// A greedy selection pass over the remaining white objects (the core of
/// Greedy-DisC restricted to exact grey updates): used by Greedy-Zoom-In
/// and the second pass of zoom-out. Counts/heap must already be
/// initialised for the current white set. Selected objects are appended to
/// `solution`.
pub fn greedy_white_pass(
    tree: &MTree<'_>,
    r: f64,
    colors: &mut ColorState,
    counts: &mut [u32],
    heap: &mut LazyMaxHeap,
    solution: &mut Vec<ObjId>,
) {
    never_cancelled(greedy_white_pass_checked(
        tree, r, colors, counts, heap, solution, None,
    ));
}

/// [`greedy_white_pass`] polling a [`CancelToken`] once per selection
/// round; `Err(Cancelled)` on a fired deadline — the caller discards its
/// partial colouring/solution, so no partial state escapes.
#[allow(clippy::too_many_arguments)]
pub fn greedy_white_pass_checked(
    tree: &MTree<'_>,
    r: f64,
    colors: &mut ColorState,
    counts: &mut [u32],
    heap: &mut LazyMaxHeap,
    solution: &mut Vec<ObjId>,
    cancel: Option<&CancelToken>,
) -> Result<(), Cancelled> {
    let mut sel_scratch: Vec<ObjId> = Vec::new();
    let mut upd_scratch: Vec<ObjId> = Vec::new();
    while colors.any_white() {
        checkpoint(cancel)?;
        let picked = match heap.pop_valid(|id| colors.is_white(id).then(|| counts[id])) {
            Some(p) => p,
            None => unreachable!("white objects remain, so the heap holds a candidate"),
        };
        colors.set_color(tree, picked, Color::Black);
        tree.range_query(tree.data().row(picked), r, Some(&*colors), &mut sel_scratch);
        let newly_grey = grey_out_white_hits(tree, colors, picked, &sel_scratch);
        grey_update(tree, colors, counts, &newly_grey, r, true, &mut upd_scratch);
        solution.push(picked);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_datasets::synthetic::uniform;
    use disc_metric::neighbors;
    use disc_mtree::MTreeConfig;

    #[test]
    fn init_all_white_matches_brute_force() {
        let data = uniform(120, 2, 40);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let r = 0.12;
        let (counts, _) = init_all_white(&tree, r);
        let sizes = neighbors::neighborhood_sizes(&data, r);
        for id in data.ids() {
            assert_eq!(counts[id] as usize, sizes[id], "object {id}");
        }
    }

    #[test]
    fn init_white_subset_counts_only_white() {
        let data = uniform(100, 2, 41);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let mut colors = ColorState::new(&tree);
        for id in 0..50 {
            colors.set_color(&tree, id, Color::Grey);
        }
        let r = 0.2;
        let (counts, _) = init_white_subset(&tree, r, &colors);
        // Object ids double as count indices here.
        #[allow(clippy::needless_range_loop)]
        for id in 50..100 {
            let expect = neighbors::neighbors(&data, id, r)
                .into_iter()
                .filter(|&o| o >= 50)
                .count();
            assert_eq!(counts[id] as usize, expect, "object {id}");
        }
        // Non-white objects keep a zero count.
        assert!(counts[..50].iter().all(|&c| c == 0));
    }

    #[test]
    fn greedy_white_pass_covers_everything() {
        let data = uniform(150, 2, 42);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let mut colors = ColorState::new(&tree);
        let r = 0.15;
        let (mut counts, mut heap) = init_all_white(&tree, r);
        let mut solution = Vec::new();
        greedy_white_pass(&tree, r, &mut colors, &mut counts, &mut heap, &mut solution);
        assert!(!colors.any_white());
        assert!(!solution.is_empty());
        // All selected are black, everything else grey.
        for id in data.ids() {
            let c = colors.color(id);
            if solution.contains(&id) {
                assert_eq!(c, Color::Black);
            } else {
                assert_eq!(c, Color::Grey);
            }
        }
    }
}
