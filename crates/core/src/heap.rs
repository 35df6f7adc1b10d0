//! The sorted candidate structure `L'` of the paper's greedy heuristics.
//!
//! A lazy max-heap: entries are `(key, rank, object)` triples ordered by
//! key descending, ties towards the smallest *rank* (so all algorithms
//! are deterministic and match the reference implementations in
//! `disc-graph`). The rank defaults to the object id itself; runners on
//! a renumbered graph pass the object's *external* id instead, which
//! keeps pop order — and therefore every solution — independent of the
//! internal numbering.
//!
//! ## Push once, revalidate at pop
//!
//! Each candidate is pushed **once**, at seeding, and its key may only
//! ever *decrease* afterwards — which holds for all DisC heuristics
//! (coverage counts shrink monotonically). The caller keeps the
//! authoritative keys (usually a `counts` array) and does not touch the
//! heap when they fall, so a stored key is an **upper bound** on the
//! current one. [`LazyMaxHeap::pop_valid`] asks for the current key of
//! the top entry: if it is lower, the entry is re-queued at that key;
//! if it matches, the object is returned. The returned object is then
//! the exact maximum by (current key desc, rank asc) over every live
//! candidate, since every other entry's current key is at most its
//! stored key, which is at most the winner's. This is the lazy-greedy
//! pattern (CELF, Leskovec et al., KDD 2007): the heap never holds more
//! than one entry per object, and a count decrement costs one array
//! write instead of a heap push.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use disc_metric::ObjId;

/// Lazy max-heap over `(key, rank, object)` with smallest-rank
/// tie-breaking (rank = object id unless pushed via [`push_ranked`]).
///
/// [`push_ranked`]: LazyMaxHeap::push_ranked
#[derive(Clone, Debug, Default)]
pub struct LazyMaxHeap {
    heap: BinaryHeap<(u32, Reverse<ObjId>, ObjId)>,
}

impl LazyMaxHeap {
    /// An empty heap with capacity for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Inserts a candidate, breaking key ties towards the smallest
    /// object id.
    pub fn push(&mut self, object: ObjId, key: u32) {
        self.push_ranked(object, object, key);
    }

    /// Inserts a candidate with an explicit tie-break rank. Ranks must be
    /// distinct across objects (a bijection — e.g. the external id on a
    /// renumbered graph), and an object is pushed once: later key drops
    /// are picked up by [`LazyMaxHeap::pop_valid`], not by re-pushing.
    pub fn push_ranked(&mut self, object: ObjId, rank: ObjId, key: u32) {
        self.heap.push((key, Reverse(rank), object));
    }

    /// Pops the candidate with the largest current key (ties to the
    /// smallest rank). `current_key` returns the authoritative key for a
    /// still-valid candidate — at most the key it was pushed with — and
    /// `None` for objects that are no longer candidates, whose entries
    /// are dropped.
    ///
    /// Returns `None` when no valid candidate remains.
    pub fn pop_valid(
        &mut self,
        mut current_key: impl FnMut(ObjId) -> Option<u32>,
    ) -> Option<ObjId> {
        while let Some(mut top) = self.heap.peek_mut() {
            let (key, _, object) = *top;
            match current_key(object) {
                Some(cur) if cur == key => return Some(PeekMut::pop(top).2),
                Some(cur) => {
                    debug_assert!(
                        cur < key,
                        "keys must only decrease (object {object}: {key} -> {cur})"
                    );
                    // Re-queued in place: the sift-down runs when `top`
                    // drops.
                    top.0 = cur;
                }
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        None
    }

    /// Number of queued entries: at most one per pushed object.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    #[test]
    fn pops_largest_key_first() {
        let mut h = LazyMaxHeap::with_capacity(4);
        h.push(0, 3);
        h.push(1, 7);
        h.push(2, 5);
        let keys = [3u32, 7, 5];
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(1));
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(2));
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(0));
        assert_eq!(h.pop_valid(|o| Some(keys[o])), None);
    }

    #[test]
    fn ties_break_to_smallest_id() {
        let mut h = LazyMaxHeap::default();
        h.push(9, 4);
        h.push(3, 4);
        h.push(7, 4);
        let order: Vec<ObjId> = std::iter::from_fn(|| h.pop_valid(|_| Some(4))).collect();
        assert_eq!(order, vec![3, 7, 9]);
    }

    #[test]
    fn ties_break_to_smallest_rank_not_id() {
        // Ranks invert the id order: the pop sequence must follow the
        // ranks, exactly as an external-id tie-break on a renumbered
        // graph would.
        let mut h = LazyMaxHeap::default();
        h.push_ranked(0, 20, 4);
        h.push_ranked(1, 10, 4);
        h.push_ranked(2, 30, 4);
        let order: Vec<ObjId> = std::iter::from_fn(|| h.pop_valid(|_| Some(4))).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn ranked_stale_entries_keep_their_rank() {
        let mut h = LazyMaxHeap::default();
        h.push_ranked(0, 5, 10);
        h.push_ranked(1, 2, 8);
        // Object 0's key dropped to 8 since insertion: both tie at 8 and
        // object 1 wins because its rank (2) beats object 0's rank (5),
        // even though a plain id tie-break would favour object 0.
        let keys = [8u32, 8];
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(1));
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(0));
    }

    #[test]
    fn stale_entries_reinserted_with_current_key() {
        let mut h = LazyMaxHeap::default();
        h.push(0, 10);
        h.push(1, 8);
        // Object 0's key dropped to 5 since insertion.
        let keys = [5u32, 8];
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(1));
        assert_eq!(h.pop_valid(|o| Some(keys[o])), Some(0));
    }

    #[test]
    fn invalid_candidates_are_dropped() {
        let mut h = LazyMaxHeap::default();
        h.push(0, 2);
        h.push(1, 1);
        // Object 0 is no longer a candidate (e.g. it was greyed).
        assert_eq!(h.pop_valid(|o| (o == 1).then_some(1)), Some(1));
        assert_eq!(h.pop_valid(|o| (o == 1).then_some(1)), None);
        assert!(h.is_empty());
    }

    #[test]
    fn duplicate_entries_resolve_to_one_pop() {
        let mut h = LazyMaxHeap::default();
        h.push(0, 5);
        h.push(0, 3); // a second entry for one object
        let mut alive = true;
        let first = h.pop_valid(|_| alive.then_some(3));
        assert_eq!(first, Some(0));
        alive = false;
        assert_eq!(h.pop_valid(|_| alive.then_some(3)), None);
    }

    #[test]
    fn len_tracks_entries() {
        let mut h = LazyMaxHeap::with_capacity(2);
        assert!(h.is_empty());
        h.push(4, 1);
        h.push(5, 0);
        assert_eq!(h.len(), 2);
        // Object 4's key fell to 0: its entry is re-queued, not
        // duplicated, and leaves with the pop.
        assert_eq!(h.pop_valid(|_| Some(0)), Some(4));
        assert_eq!(h.len(), 1);
    }

    // The push-once heap has no separate rebuild pass: the in-place
    // re-queue in `pop_valid` is its only rebuild of stale entries. The
    // three `rebuild_*` tests pin that re-queue.

    #[test]
    fn rebuild_caps_stale_entries() {
        // Two objects, thousands of key drops each seen by `pop_valid`:
        // every stale entry is re-queued in place, so the heap never holds
        // more than the two pushes.
        let mut h = LazyMaxHeap::with_capacity(2);
        let rounds = 10_000u32;
        h.push(0, rounds);
        h.push(1, rounds);
        let mut keys = [rounds; 2];
        let mut consulted = 0u32;
        // Each consult sees the key one lower than queued, down to 0.
        let first = h.pop_valid(|o| {
            consulted += 1;
            keys[o] = keys[o].saturating_sub(1);
            Some(keys[o])
        });
        // Both objects walked rounds → 0 one re-queue at a time, then the
        // tie at key 0 went to the smallest id.
        assert_eq!(first, Some(0));
        assert_eq!(consulted, 2 * rounds + 1);
        assert_eq!(h.len(), 1, "stale entries were not re-queued in place");
        assert_eq!(h.pop_valid(|_| Some(0)), Some(1));
        assert_eq!(h.pop_valid(|_| Some(0)), None);
        assert!(h.is_empty());
    }

    #[test]
    fn rebuild_preserves_pop_order_across_many_objects() {
        // Each object is pushed once with a stale upper bound (its key
        // plus up to 3), so most pops re-queue entries first; the pop
        // sequence must still equal the sorted (key desc, id asc) order.
        let n = 200usize;
        let keys: Vec<u32> = (0..n).map(|i| ((i * 37) % 91) as u32 + 1).collect();
        let mut h = LazyMaxHeap::with_capacity(n);
        for (i, &k) in keys.iter().enumerate() {
            h.push(i, k + (i % 4) as u32);
        }
        let mut want: Vec<(u32, usize)> = keys.iter().copied().zip(0..n).collect();
        want.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some(o) = h.pop_valid(|o| Some(keys[o])) {
            got.push((keys[o], o));
            assert!(h.len() <= n - got.len());
        }
        assert_eq!(got.len(), n);
        assert_eq!(got, want);
    }

    #[test]
    fn rebuild_preserves_ranked_pop_order() {
        // Same as above but with ranks decoupled from ids (reversed), so
        // a re-queue that dropped ranks would scramble tie groups.
        let n = 200usize;
        let keys: Vec<u32> = (0..n).map(|i| ((i * 13) % 7) as u32 + 1).collect();
        let rank = |i: usize| n - 1 - i;
        let mut h = LazyMaxHeap::with_capacity(n);
        for (i, &k) in keys.iter().enumerate() {
            h.push_ranked(i, rank(i), k + (i % 4) as u32);
        }
        let mut want: Vec<(u32, usize)> = keys.iter().copied().zip(0..n).collect();
        want.sort_by(|a, b| b.0.cmp(&a.0).then(rank(a.1).cmp(&rank(b.1))));
        let mut got = Vec::new();
        while let Some(o) = h.pop_valid(|o| Some(keys[o])) {
            got.push((keys[o], o));
        }
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The push-once contract: n objects pushed once with distinct
        /// ranks, keys lowered arbitrarily (and candidates retired)
        /// between pops; every pop returns the exact (current key desc,
        /// rank asc) maximum over the live candidates, and the heap never
        /// holds more than n entries.
        #[test]
        fn push_once_pops_the_exact_current_maximum(
            seed in 0u64..1_000_000,
            n in 0usize..80,
            key_cap in 0u32..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rank: Vec<ObjId> = (0..n).collect();
            for i in (1..n).rev() {
                rank.swap(i, rng.random_range(0..=i));
            }
            let seeded: Vec<u32> = (0..n).map(|_| rng.random_range(0..=key_cap)).collect();
            let mut h = LazyMaxHeap::with_capacity(n);
            for (o, &k) in seeded.iter().enumerate() {
                h.push_ranked(o, rank[o], k);
            }
            let mut key: Vec<Option<u32>> = seeded.into_iter().map(Some).collect();
            loop {
                for k in key.iter_mut() {
                    let Some(cur) = *k else { continue };
                    match rng.random_range(0u32..8) {
                        0..=2 => *k = Some(rng.random_range(0..=cur)),
                        3 => *k = None,
                        _ => {}
                    }
                }
                let want = (0..n)
                    .filter_map(|o| key[o].map(|k| (k, Reverse(rank[o]), o)))
                    .max()
                    .map(|(_, _, o)| o);
                let got = h.pop_valid(|o| key[o]);
                prop_assert!(h.len() <= n);
                prop_assert_eq!(got, want);
                match got {
                    Some(o) => key[o] = None,
                    None => break,
                }
            }
            prop_assert!(h.is_empty());
        }
    }
}
