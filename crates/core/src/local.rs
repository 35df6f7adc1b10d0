//! Local zooming (paper Sections 3 and 5.2, Figures 1(d) and 2): adapt
//! the radius only inside the neighbourhood of one selected object.
//!
//! "For local zooming in an object p_i, the only difference is that
//! instead of all objects in P, the algorithm receives as input only the
//! objects in N_r(p_i)." We therefore:
//!
//! 1. retrieve `N_r(p_i)` with a range query on the main tree,
//! 2. restrict the dataset to that neighbourhood, index it with a small
//!    M-tree, and map the previous solution into it,
//! 3. run the regular (greedy) zoom-in or zoom-out on the restriction,
//! 4. map the adapted selection back and splice it into the global
//!    solution.
//!
//! Objects outside the neighbourhood keep their previous representatives,
//! so near the boundary the spliced solution is best-effort (the paper
//! makes no global-validity claim for local zooming either — the user
//! explicitly asked for a different granularity *inside* the region).

use disc_metric::ObjId;
use disc_mtree::{MTree, MTreeConfig, RangeHit};

use crate::result::DiscResult;
use crate::zoom_in::greedy_zoom_in;
use crate::zoom_out::{greedy_zoom_out, ZoomOutVariant};

/// Outcome of a local zoom around one object.
#[derive(Clone, Debug)]
pub struct LocalZoomResult {
    /// The adapted global solution: previous selection with the
    /// neighbourhood of the centre re-diversified at the new radius.
    pub solution: Vec<ObjId>,
    /// Objects newly added inside the neighbourhood.
    pub added: Vec<ObjId>,
    /// Previously selected objects removed from the neighbourhood.
    pub removed: Vec<ObjId>,
    /// Node accesses on the main tree plus the temporary local tree
    /// (including its construction).
    pub node_accesses: u64,
}

/// Locally zooms the neighbourhood of `center` (which must be part of
/// `prev`'s solution) to radius `r_new`; `r_new < prev.radius` zooms in,
/// `r_new > prev.radius` zooms out.
pub fn local_zoom(
    tree: &MTree<'_>,
    prev: &DiscResult,
    center: ObjId,
    r_new: f64,
) -> LocalZoomResult {
    assert!(
        prev.contains(center),
        "local zooming centres on a selected object"
    );
    assert!(
        r_new != prev.radius,
        "local zooming needs a different radius"
    );
    let data = tree.data();
    let start = tree.node_accesses();

    // 1. The input of the local operation: N_r(center) including the
    //    centre itself.
    let mut hits: Vec<RangeHit> = Vec::new();
    tree.range_query(data.row(center), prev.radius, None, &mut hits);
    let mut ids: Vec<ObjId> = hits.into_iter().map(|h| h.object).collect();
    ids.sort_unstable();
    let main_accesses = tree.node_accesses() - start;

    // 2. Restrict and index. `ids` doubles as the local-to-original
    //    mapping: local id `i` is original id `ids[i]`.
    let sub = data.restrict(&ids);
    let map = &ids;
    let sub_tree = MTree::build(&sub, MTreeConfig::default());
    // Previous solution inside the neighbourhood, in local ids.
    let local_prev: Vec<usize> = map
        .iter()
        .enumerate()
        .filter(|(_, orig)| prev.contains(**orig))
        .map(|(local, _)| local)
        .collect();
    let local_prev_result = DiscResult {
        radius: prev.radius,
        heuristic: prev.heuristic.clone(),
        solution: local_prev.clone(),
        node_accesses: 0,
    };

    // 3. Adapt locally (the local tree's accesses include its
    //    construction: the whole point of local zooming is that the
    //    neighbourhood is small, so building a throwaway index is cheap).
    let adapted = if r_new < prev.radius {
        greedy_zoom_in(&sub_tree, &local_prev_result, r_new)
    } else {
        greedy_zoom_out(
            &sub_tree,
            &local_prev_result,
            r_new,
            ZoomOutVariant::GreedyA,
        )
    };
    let local_accesses = sub_tree.node_accesses();

    // 4. Map back and splice.
    let new_local: Vec<ObjId> = adapted.result.solution.iter().map(|&l| map[l]).collect();
    let removed: Vec<ObjId> = local_prev
        .iter()
        .map(|&l| map[l])
        .filter(|o| !new_local.contains(o))
        .collect();
    let added: Vec<ObjId> = new_local
        .iter()
        .copied()
        .filter(|o| !prev.contains(*o))
        .collect();
    let mut solution: Vec<ObjId> = prev
        .solution
        .iter()
        .copied()
        .filter(|o| !removed.contains(o))
        .collect();
    solution.extend(&added);

    LocalZoomResult {
        solution,
        added,
        removed,
        node_accesses: main_accesses + local_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_disc, GreedyVariant};
    use crate::verify::verify_disc;
    use disc_datasets::synthetic::clustered;
    use disc_mtree::MTreeConfig;

    fn setup() -> (disc_metric::Dataset, f64) {
        (clustered(500, 2, 5, 100), 0.08)
    }

    #[test]
    fn local_zoom_in_adds_objects_near_center() {
        let (data, r) = setup();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let center = prev.solution[0];
        let res = local_zoom(&tree, &prev, center, r / 2.0);
        assert!(res.solution.contains(&center));
        // Added objects all lie inside the old neighbourhood.
        for &a in &res.added {
            assert!(data.dist(a, center) <= r + 1e-9);
        }
        // Zooming in only adds (the old selection is still independent at
        // the smaller radius).
        assert!(res.removed.is_empty());
        assert!(res.solution.len() >= prev.size());
    }

    #[test]
    fn local_zoom_out_removes_objects_near_center() {
        let (data, r) = setup();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let center = prev.solution[0];
        let res = local_zoom(&tree, &prev, center, r * 2.5);
        // Everything removed was previously selected and in range.
        for &x in &res.removed {
            assert!(prev.contains(x));
            assert!(data.dist(x, center) <= r + 1e-9);
        }
        // The rest of the solution is untouched.
        for &s in &prev.solution {
            if data.dist(s, center) > r {
                assert!(res.solution.contains(&s));
            }
        }
    }

    #[test]
    fn local_solution_valid_within_neighbourhood() {
        let (data, r) = setup();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let center = prev.solution[1];
        let r_new = r / 2.0;
        let res = local_zoom(&tree, &prev, center, r_new);
        // Restricted to the neighbourhood, the adapted selection is a
        // valid r'-DisC subset.
        let ids: Vec<usize> = data.ids().filter(|&o| data.dist(o, center) <= r).collect();
        let sub = data.restrict(&ids);
        let local_solution: Vec<usize> = ids
            .iter()
            .enumerate()
            .filter(|(_, orig)| res.solution.contains(orig))
            .map(|(l, _)| l)
            .collect();
        assert!(verify_disc(&sub, &local_solution, r_new).is_valid());
    }

    #[test]
    #[should_panic(expected = "selected object")]
    fn rejects_non_solution_center() {
        let (data, r) = setup();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let outsider = data.ids().find(|o| !prev.contains(*o)).unwrap();
        let _ = local_zoom(&tree, &prev, outsider, r / 2.0);
    }

    #[test]
    fn accesses_accounted() {
        let (data, r) = setup();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let res = local_zoom(&tree, &prev, prev.solution[0], r / 2.0);
        assert!(res.node_accesses > 0);
    }
}
