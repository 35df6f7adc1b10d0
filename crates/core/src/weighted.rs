//! Weighted DisC diversity — the first future-work extension of the
//! paper's Section 8: *"a 'weighted' variation of the DisC set, where
//! each object has an associated weight based on its relevance. Now the
//! goal is to select a DisC subset having the maximum sum of weights."*
//!
//! Finding the maximum-weight independent dominating set is NP-hard (it
//! generalises the unweighted problem), so this module provides the
//! natural greedy heuristic: repeatedly select the *heaviest* white
//! object (ties to the smallest id), colour it black and its
//! neighbourhood grey. The result is a maximal independent set — hence a
//! valid r-DisC diverse subset (Lemma 1) — whose members are locally
//! weight-optimal: every selected object is at least as heavy as every
//! object it covers at selection time.
//!
//! Weights never change during the run, so no lazy invalidation is
//! needed; a plain max-heap drives the selection.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use disc_metric::ObjId;
use disc_mtree::{Color, ColorState, MTree, RangeHit};

use crate::result::DiscResult;

/// Computes an r-DisC diverse subset that greedily maximises the weight
/// of the selected objects.
///
/// # Panics
///
/// Panics if `weights` does not have one finite value per object.
pub fn weighted_disc(tree: &MTree<'_>, r: f64, weights: &[f64], pruned: bool) -> DiscResult {
    assert!(r >= 0.0, "radius must be non-negative");
    assert_eq!(weights.len(), tree.len(), "one weight per object");
    assert!(
        weights.iter().all(|w| w.is_finite()),
        "weights must be finite"
    );
    let start = tree.node_accesses();
    let mut colors = ColorState::new(tree);
    // Total order on (weight desc, id asc); f64 wrapped as ordered bits
    // (finite values only, checked above).
    let mut heap: BinaryHeap<(OrderedWeight, Reverse<ObjId>)> = (0..tree.len())
        .map(|id| (OrderedWeight(weights[id]), Reverse(id)))
        .collect();

    let mut solution = Vec::new();
    while colors.any_white() {
        let Some((_, Reverse(picked))) = heap.pop() else {
            unreachable!("heap outlives the white set")
        };
        if !colors.is_white(picked) {
            continue;
        }
        colors.set_color(tree, picked, Color::Black);
        let mut hits: Vec<RangeHit> = Vec::new();
        tree.range_query(
            tree.data().row(picked),
            r,
            pruned.then_some(&colors),
            &mut hits,
        );
        for h in hits {
            if colors.is_white(h.object) {
                colors.set_color(tree, h.object, Color::Grey);
            }
        }
        solution.push(picked);
    }

    DiscResult {
        radius: r,
        heuristic: format!("W-DisC{}", if pruned { " (Pruned)" } else { "" }),
        solution,
        node_accesses: tree.node_accesses() - start,
    }
}

/// Total weight of a selection.
pub fn solution_weight(solution: &[ObjId], weights: &[f64]) -> f64 {
    solution.iter().map(|&o| weights[o]).sum()
}

/// Finite f64 with a total order (weight comparison key).
#[derive(Clone, Copy, PartialEq)]
struct OrderedWeight(f64);

impl Eq for OrderedWeight {}

impl PartialOrd for OrderedWeight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedWeight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match self.0.partial_cmp(&other.0) {
            Some(o) => o,
            // Weights are validated finite at construction.
            None => unreachable!("finite weights are comparable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{basic_disc, BasicOrder};
    use crate::verify::verify_disc;
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_mtree::MTreeConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    #[test]
    fn produces_valid_disc_subset() {
        let data = clustered(300, 2, 5, 120);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let mut rng = StdRng::seed_from_u64(1);
        let weights: Vec<f64> = (0..300).map(|_| rng.random_range(0.0..1.0)).collect();
        for pruned in [false, true] {
            let res = weighted_disc(&tree, 0.08, &weights, pruned);
            assert!(verify_disc(&data, &res.solution, 0.08).is_valid());
        }
    }

    #[test]
    fn prefers_the_heavy_object_of_an_adjacent_pair() {
        use disc_metric::{Dataset, Metric, Point};
        let data = Dataset::new(
            "pair",
            Metric::Euclidean,
            vec![Point::new2(0.0, 0.0), Point::new2(0.05, 0.0)],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        // Object 1 is heavier; only one of the two can be selected.
        let res = weighted_disc(&tree, 0.1, &[0.2, 0.9], true);
        assert_eq!(res.solution, vec![1]);
        // Flip the weights: object 0 wins.
        let res = weighted_disc(&tree, 0.1, &[0.9, 0.2], true);
        assert_eq!(res.solution, vec![0]);
    }

    #[test]
    fn equal_weights_reduce_to_id_order_basic_disc() {
        let data = uniform(200, 2, 121);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let weights = vec![1.0; 200];
        let weighted = weighted_disc(&tree, 0.1, &weights, true);
        let basic = basic_disc(&tree, 0.1, BasicOrder::IdOrder, true);
        assert_eq!(weighted.solution, basic.solution);
    }

    #[test]
    fn weight_beats_unweighted_selection_weight() {
        // On random weights, weight-greedy should accumulate at least as
        // much weight as the id-ordered basic heuristic.
        let data = clustered(400, 2, 5, 122);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let mut rng = StdRng::seed_from_u64(2);
        let weights: Vec<f64> = (0..400).map(|_| rng.random_range(0.0..1.0)).collect();
        let r = 0.08;
        let weighted = weighted_disc(&tree, r, &weights, true);
        let basic = basic_disc(&tree, r, BasicOrder::IdOrder, true);
        assert!(
            solution_weight(&weighted.solution, &weights) * (1.0 + 1e-12)
                >= solution_weight(&basic.solution, &weights),
            "weight-greedy lost to an arbitrary order"
        );
    }

    #[test]
    fn every_covered_object_is_no_heavier_than_its_selector_at_selection() {
        // Local optimality: the heaviest object of any neighbourhood is
        // selected before anything it covers.
        let data = uniform(150, 2, 123);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let mut rng = StdRng::seed_from_u64(3);
        let weights: Vec<f64> = (0..150).map(|_| rng.random_range(0.0..1.0)).collect();
        let r = 0.15;
        let res = weighted_disc(&tree, r, &weights, true);
        // The globally heaviest object is always selected.
        let heaviest = (0..150)
            .max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).unwrap())
            .unwrap();
        assert!(res.solution.contains(&heaviest));
    }

    #[test]
    #[should_panic(expected = "one weight per object")]
    fn rejects_mismatched_weights() {
        let data = uniform(10, 2, 124);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        let _ = weighted_disc(&tree, 0.1, &[1.0; 5], true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Always a valid DisC subset, regardless of weights.
        #[test]
        fn always_valid(seed in 0u64..2_000, r in 0.05..0.4f64) {
            let data = uniform(100, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            let weights: Vec<f64> = (0..100).map(|_| rng.random_range(0.0..10.0)).collect();
            let res = weighted_disc(&tree, r, &weights, true);
            prop_assert!(verify_disc(&data, &res.solution, r).is_valid());
        }
    }
}
