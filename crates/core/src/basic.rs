//! Basic-DisC (paper Section 2.3, M-tree variant in Section 5.1).
//!
//! One left-to-right pass over the leaf chain: every object that is still
//! white when reached is coloured black (selected) and a range query
//! `Q(p, r)` greys its neighbourhood. The produced set is a maximal
//! independent set of `G_{P,r}`, hence an r-DisC diverse subset (Lemma 1).
//!
//! With `pruned = true`, range queries skip grey subtrees and the leaf
//! pass skips leaves that have become entirely grey (the Pruning Rule);
//! the paper reports savings of up to 50% at small radii.

use disc_mtree::{Color, ColorState, MTree, RangeHit};

use crate::result::DiscResult;

/// Processing order for Basic-DisC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BasicOrder {
    /// Leaf-chain order (the paper's M-tree implementation; exploits
    /// locality).
    LeafOrder,
    /// Ascending object id (the "arbitrary order" baseline; useful for
    /// cross-validation against the graph reference implementation).
    IdOrder,
}

/// Computes an r-DisC diverse subset with Basic-DisC.
pub fn basic_disc(tree: &MTree<'_>, r: f64, order: BasicOrder, pruned: bool) -> DiscResult {
    assert!(r >= 0.0, "radius must be non-negative");
    let start = tree.node_accesses();
    let mut colors = ColorState::new(tree);
    let mut solution = Vec::new();

    match order {
        BasicOrder::LeafOrder => {
            for leaf in tree.leaves().collect::<Vec<_>>() {
                if pruned && colors.node_is_grey(leaf) {
                    // The Pruning Rule: grey leaves hold no white objects;
                    // the in-memory grey mark lets the pass skip the page.
                    continue;
                }
                tree.charge_access();
                let members: Vec<_> = tree
                    .node(leaf)
                    .leaf_entries()
                    .iter()
                    .map(|e| e.object)
                    .collect();
                for object in members {
                    process(tree, r, pruned, &mut colors, &mut solution, object);
                }
            }
        }
        BasicOrder::IdOrder => {
            for object in 0..tree.len() {
                process(tree, r, pruned, &mut colors, &mut solution, object);
            }
        }
    }

    debug_assert!(!colors.any_white());
    DiscResult {
        radius: r,
        heuristic: format!("B-DisC{}", if pruned { " (Pruned)" } else { "" }),
        solution,
        node_accesses: tree.node_accesses() - start,
    }
}

fn process(
    tree: &MTree<'_>,
    r: f64,
    pruned: bool,
    colors: &mut ColorState,
    solution: &mut Vec<usize>,
    object: usize,
) {
    if !colors.is_white(object) {
        return;
    }
    colors.set_color(tree, object, Color::Black);
    let mut hits: Vec<RangeHit> = Vec::new();
    tree.range_query(
        tree.data().row(object),
        r,
        pruned.then_some(&*colors),
        &mut hits,
    );
    for h in hits {
        if colors.is_white(h.object) {
            colors.set_color(tree, h.object, Color::Grey);
        }
    }
    solution.push(object);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_disc;
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_graph::{reference::basic_disc_ref, UnitDiskGraph};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;

    #[test]
    fn produces_valid_disc_subset() {
        let data = uniform(300, 2, 50);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        for pruned in [false, true] {
            let res = basic_disc(&tree, 0.1, BasicOrder::LeafOrder, pruned);
            let report = verify_disc(&data, &res.solution, 0.1);
            assert!(report.is_valid(), "{report:?}");
        }
    }

    #[test]
    fn pruned_and_unpruned_give_identical_solutions() {
        let data = clustered(400, 2, 5, 51);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let a = basic_disc(&tree, 0.08, BasicOrder::LeafOrder, false);
        let b = basic_disc(&tree, 0.08, BasicOrder::LeafOrder, true);
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn pruning_saves_node_accesses() {
        let data = clustered(1000, 2, 6, 52);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(20));
        let plain = basic_disc(&tree, 0.05, BasicOrder::LeafOrder, false);
        let pruned = basic_disc(&tree, 0.05, BasicOrder::LeafOrder, true);
        assert!(
            pruned.node_accesses < plain.node_accesses,
            "pruned {} !< plain {}",
            pruned.node_accesses,
            plain.node_accesses
        );
    }

    #[test]
    fn matches_graph_reference_in_leaf_order() {
        let data = uniform(250, 2, 53);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let res = basic_disc(&tree, 0.12, BasicOrder::LeafOrder, true);
        let g = UnitDiskGraph::build(&data, 0.12);
        let order = tree.objects_in_leaf_order_uncounted();
        let expect = basic_disc_ref(&g, &order);
        assert_eq!(res.solution, expect);
    }

    #[test]
    fn matches_graph_reference_in_id_order() {
        let data = clustered(200, 2, 4, 54);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let res = basic_disc(&tree, 0.1, BasicOrder::IdOrder, false);
        let g = UnitDiskGraph::build(&data, 0.1);
        let order: Vec<usize> = (0..200).collect();
        assert_eq!(res.solution, basic_disc_ref(&g, &order));
    }

    #[test]
    fn zero_radius_selects_everything() {
        let data = uniform(50, 2, 55);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let res = basic_disc(&tree, 0.0, BasicOrder::LeafOrder, false);
        assert_eq!(res.size(), 50);
    }

    #[test]
    fn huge_radius_selects_one() {
        let data = uniform(50, 2, 56);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        let res = basic_disc(&tree, 10.0, BasicOrder::LeafOrder, true);
        assert_eq!(res.size(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Basic-DisC always returns a valid r-DisC subset, pruned or not,
        /// in either order.
        #[test]
        fn always_valid(seed in 0u64..2_000, r in 0.01..0.5f64, pruned in any::<bool>()) {
            let data = uniform(120, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
            for order in [BasicOrder::LeafOrder, BasicOrder::IdOrder] {
                let res = basic_disc(&tree, r, order, pruned);
                prop_assert!(verify_disc(&data, &res.solution, r).is_valid());
            }
        }
    }
}
