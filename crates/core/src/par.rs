//! Parallel fan-out for the neighbourhood-count seeding loops.
//!
//! Every greedy heuristic starts by issuing one independent range query
//! per object (`counts[p] = |N_r(p)|`-style seeding). The queries are
//! read-only (`&MTree`) and the M-tree's cost counters are atomic, so
//! the loop parallelises embarrassingly: split the id space into one
//! contiguous chunk per worker, give each chunk its own scratch
//! [`RangeHit`](disc_mtree::RangeHit) buffer, and map the chunks
//! through [`disc_metric::tasks::run_tasks`]. The counts are per-object
//! deterministic, and callers push heap entries in id order afterwards.

use disc_metric::tasks;

/// Below this many objects a serial pass beats thread spawn + join.
const MIN_PARALLEL: usize = 2_048;

/// Computes `per_id(id, scratch)` for every `id in 0..n`, returning the
/// results in id order. `scratch` is a query buffer (any `Default`
/// collector — `Vec<ObjId>` for object-only queries, `Vec<RangeHit>`
/// when distances are needed) reused across all calls of one chunk.
///
/// Fans out over one chunk per available core, and runs the serial
/// loop for small `n`, where thread spawn overhead dominates.
pub fn seed_counts<T, F>(n: usize, per_id: F) -> Vec<u32>
where
    T: Default,
    F: Fn(usize, &mut T) -> u32 + Sync,
{
    let workers = if n < MIN_PARALLEL {
        1
    } else {
        tasks::workers(0)
    };
    let chunk = n.div_ceil(workers).max(1);
    let chunks = (0..n).step_by(chunk).map(|lo| lo..n.min(lo + chunk));
    tasks::run_tasks(chunks.collect(), workers, |ids| {
        let mut scratch = T::default();
        ids.map(|id| per_id(id, &mut scratch)).collect::<Vec<u32>>()
    })
    .concat()
}

/// The serial seeding loop: the reference [`seed_counts`] is pinned
/// against, and the baseline side of the seeding bench.
pub fn seed_counts_serial<T, F>(n: usize, per_id: F) -> Vec<u32>
where
    T: Default,
    F: Fn(usize, &mut T) -> u32 + Sync,
{
    let mut scratch = T::default();
    (0..n).map(|id| per_id(id, &mut scratch)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_mtree::RangeHit;

    #[test]
    fn serial_results_are_in_id_order() {
        let got = seed_counts_serial(5, |id, _: &mut Vec<RangeHit>| id as u32 * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn dispatching_wrapper_matches_serial() {
        let n = 4_000; // above the parallel threshold
        let serial = seed_counts_serial(n, |id, _: &mut Vec<RangeHit>| (id % 17) as u32);
        let dispatched = seed_counts(n, |id, _: &mut Vec<RangeHit>| (id % 17) as u32);
        assert_eq!(serial, dispatched);
    }

    #[test]
    fn parallel_matches_serial_above_threshold() {
        let n = 10_000;
        let f = |id: usize, _: &mut Vec<RangeHit>| ((id * 31) % 101) as u32;
        assert_eq!(seed_counts(n, f), seed_counts_serial(n, f));
        assert_eq!(seed_counts(0, f), Vec::<u32>::new());
    }

    #[test]
    fn scratch_is_reused_not_reallocated() {
        // Entries accumulate across calls only if the same buffer is
        // threaded through (queries clear it themselves via the *_into
        // API, but the helper itself must not).
        let counts = seed_counts_serial(3, |id, scratch: &mut Vec<RangeHit>| {
            scratch.push(RangeHit {
                object: id,
                dist: 0.0,
            });
            scratch.len() as u32
        });
        assert_eq!(counts, vec![1, 2, 3]);
    }
}
