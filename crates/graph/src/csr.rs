//! The one CSR assembly behind both graph types:
//! [`crate::UnitDiskGraph`] (plain id rows) and
//! [`crate::StratifiedDiskGraph`] (distance-annotated rows). Every
//! constructor of either graph, the sharded production build included,
//! ends in [`assemble_rows`].
//!
//! The input is one or more slices of undirected edges: the sharded
//! build hands over its intra-shard and boundary joins without
//! concatenating them, every other caller passes one slice. Assembly
//! runs in two phases:
//!
//! 1. **merge** — a serial degree count and prefix sum over the slices,
//!    then a fill that writes each directed entry straight into the two
//!    *final* aligned arrays (`payloads`, `neighbors`);
//! 2. **row sort** — rows are cut into contiguous ranges balanced by
//!    entry count (not by vertex count), so sort work distributes
//!    evenly even when degrees are skewed, and `workers` scoped threads
//!    sort disjoint ranges.
//!
//! The row payload comes from the edge type ([`Edge`]): distance edges
//! store an `f64` per entry and sort rows by `(distance, id)`; plain
//! edges store `()` and sort rows by id. A `Vec<()>` never allocates,
//! so plain rows cost exactly their id array.
//!
//! Determinism contract: the per-row order must be **total** (rows
//! never repeat an id, so the id — after the distance, if any —
//! suffices). Offsets are pure degree counts and every row is sorted by
//! that total order, so the assembled arrays are a pure function of the
//! edge *set*: byte-identical for every worker count and every split of
//! the edges into slices (pinned by the graph tests, the workspace
//! concurrency tier and the sharded build's snapshot identity).
//!
//! ## Radix-sorted distance rows
//!
//! The `(distance, id)` rows are sorted by an MSD **radix sort on the
//! order-preserving bit image of the f64** rather than a comparison
//! sort: `to_bits`, with the sign bit flipped for non-negatives and all
//! bits flipped for negatives, maps the `f64::total_cmp` order
//! (−NaN < … < −0.0 < +0.0 < … < +NaN) onto plain `u64` order, so the
//! composite integer `(key, id)` sorts in *exactly* the
//! `(total_cmp(dist), id)` order the previous comparison sort produced
//! — no float comparator anywhere. The sort is engineered around the
//! row value distribution: an OR/AND scan finds the **highest byte that
//! actually varies** (on a narrow build radius the sign/exponent bytes
//! are constant and the low mantissa bytes almost never decide an
//! order), one counting pass partitions on it, and buckets recurse
//! until they are small enough for a branch-light integer sort. Unit
//! tests pin order-identity against the comparison sort on duplicate
//! distances, ±0.0, subnormals and all-equal rows.

use std::time::Instant;

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;
use disc_mtree::DistEdge;

/// Work items between cancellation checkpoints in the assembly loops:
/// one relaxed atomic load per this many edges/rows keeps the poll cost
/// unmeasurable while bounding post-cancel latency to microseconds.
pub(crate) const CANCEL_CHUNK: usize = 4_096;

/// Raw CSR arrays: `(offsets, payloads, neighbors)`.
pub(crate) type Csr<P> = (Vec<usize>, Vec<P>, Vec<ObjId>);

/// An undirected input edge of [`assemble_rows`]: two endpoints and the
/// payload both of its directed entries store.
pub(crate) trait Edge {
    /// Stored aligned with the neighbor ids: the distance, or nothing.
    type Payload: Copy + Default + Send;

    /// The endpoints `(i, j)` and the payload.
    fn parts(&self) -> (ObjId, ObjId, Self::Payload);

    /// Sorts one row, held as aligned payload and id slices, into the
    /// row's total order (see the module docs).
    fn order_row(
        ps: &mut [Self::Payload],
        ids: &mut [ObjId],
        scratch: &mut RowScratch<Self::Payload>,
    );
}

/// Plain rows: no payload, sorted by id.
impl Edge for (ObjId, ObjId) {
    type Payload = ();

    #[inline]
    fn parts(&self) -> (ObjId, ObjId, ()) {
        (self.0, self.1, ())
    }

    fn order_row(_: &mut [()], ids: &mut [ObjId], _: &mut RowScratch<()>) {
        ids.sort_unstable();
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "duplicate edge in a plain row"
        );
    }
}

/// Distance rows: sorted by `(total_cmp(dist), id)` via [`sort_dist_row`].
impl Edge for DistEdge {
    type Payload = f64;

    #[inline]
    fn parts(&self) -> DistEdge {
        *self
    }

    fn order_row(ds: &mut [f64], ids: &mut [ObjId], scratch: &mut RowScratch<f64>) {
        sort_dist_row(ds, ids, scratch);
    }
}

/// Wall-clock split of one CSR assembly: the merge walk (degree count +
/// fill over the edge slices) vs the parallel row-sort phase. The
/// sharded build reports both as build phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct AssemblyBreakdown {
    /// Degree count and fill over the input slices, in milliseconds.
    pub merge_ms: f64,
    /// Entry-balanced parallel row sort, in milliseconds.
    pub sort_ms: f64,
}

/// Assembles the CSR of the undirected edges in `slices` over `n`
/// vertices: a serial merge into the final arrays, then the
/// entry-balanced parallel row sort (see the module docs). Edges may
/// come in any order and orientation; each unordered pair must appear
/// at most once overall, and self-loops are rejected (debug).
///
/// `workers` sizes the sort phase: `0` is one worker per available core,
/// or one below 4096 entries; any count is clamped to the row count.
/// Output bytes do not depend on it. The token is polled every
/// [`CANCEL_CHUNK`] edges of the merge and rows of each sort worker; on
/// `Err(Cancelled)` the partial arrays are dropped, so no partial CSR
/// escapes.
pub(crate) fn assemble_rows<E: Edge>(
    n: usize,
    slices: &[&[E]],
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<(Csr<E::Payload>, AssemblyBreakdown), Cancelled> {
    let poll = || cancel.map_or(Ok(()), CancelToken::checkpoint);
    poll()?;
    let merge_start = Instant::now();
    let mut offsets = vec![0usize; n + 1];
    for slice in slices {
        for e in *slice {
            let (i, j, _) = e.parts();
            debug_assert!(i != j, "self-loop ({i}, {j})");
            offsets[i + 1] += 1;
            offsets[j + 1] += 1;
        }
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let total = offsets[n];
    let mut payloads = vec![E::Payload::default(); total];
    let mut neighbors = vec![0 as ObjId; total];
    let mut cursor = offsets.clone();
    for slice in slices {
        for (t, e) in slice.iter().enumerate() {
            if t % CANCEL_CHUNK == 0 {
                poll()?;
            }
            let (i, j, p) = e.parts();
            let ci = cursor[i];
            payloads[ci] = p;
            neighbors[ci] = j;
            cursor[i] = ci + 1;
            let cj = cursor[j];
            payloads[cj] = p;
            neighbors[cj] = i;
            cursor[j] = cj + 1;
        }
    }
    let workers = match workers {
        0 if total < 4_096 => 1,
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        w => w,
    }
    .clamp(1, n.max(1));
    let merge_ms = merge_start.elapsed().as_secs_f64() * 1e3;
    let sort_start = Instant::now();
    sort_rows::<E>(&offsets, &mut payloads, &mut neighbors, workers, cancel)?;
    let breakdown = AssemblyBreakdown {
        merge_ms,
        sort_ms: sort_start.elapsed().as_secs_f64() * 1e3,
    };
    Ok(((offsets, payloads, neighbors), breakdown))
}

/// The row-sort phase of [`assemble_rows`]: rows are partitioned into
/// contiguous ranges balanced by **entry count** (one binary search on
/// `offsets` per cut), so a worker owning a few heavy rows sorts as much
/// data as one owning many light rows. Each worker sorts a disjoint
/// slice of both arrays with its own scratch; per-row sorts are
/// independent, so the output is byte-identical to sorting serially.
fn sort_rows<E: Edge>(
    offsets: &[usize],
    payloads: &mut [E::Payload],
    neighbors: &mut [ObjId],
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<(), Cancelled> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    // Row cut before each worker's even share of the entries; cuts are
    // row indices, non-decreasing, so ranges partition 0..n exactly.
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(0usize);
    for w in 1..workers {
        let target = total * w / workers;
        cuts.push(offsets.partition_point(|&o| o < target).min(n));
    }
    cuts.push(n);

    let aborted = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let aborted = &aborted;
        let mut rest_p: &mut [E::Payload] = payloads;
        let mut rest_n: &mut [ObjId] = neighbors;
        for w in 0..workers {
            let (lo, hi) = (cuts[w], cuts[w + 1]);
            let len = offsets[hi] - offsets[lo];
            let (mine_p, tail_p) = rest_p.split_at_mut(len);
            rest_p = tail_p;
            let (mine_n, tail_n) = rest_n.split_at_mut(len);
            rest_n = tail_n;
            scope.spawn(move || {
                let base = offsets[lo];
                let mut scratch = RowScratch::default();
                for (t, v) in (lo..hi).enumerate() {
                    if t % CANCEL_CHUNK == 0 {
                        if let Some(c) = cancel {
                            if c.checkpoint().is_err() {
                                aborted.store(true, std::sync::atomic::Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                    let row = offsets[v] - base..offsets[v + 1] - base;
                    E::order_row(&mut mine_p[row.clone()], &mut mine_n[row], &mut scratch);
                }
            });
        }
    });
    if aborted.load(std::sync::atomic::Ordering::Relaxed) {
        return Err(Cancelled);
    }
    Ok(())
}

/// Reusable scatter buffers for [`Edge::order_row`], one per sort
/// worker, reused across the rows it sorts (only the distance rows'
/// radix sort touches them).
#[derive(Default)]
pub(crate) struct RowScratch<P> {
    spare_p: Vec<P>,
    spare_i: Vec<ObjId>,
}

/// Maps an `f64` onto a `u64` whose unsigned order equals
/// [`f64::total_cmp`]'s: flip the sign bit of non-negatives, all bits
/// of negatives.
#[inline]
pub(crate) fn dist_order_key(d: f64) -> u64 {
    let b = d.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Partitions at or below this length sort by insertion on the bit
/// image — the counting pass only pays off on larger slices. Either
/// path produces the identical `(total_cmp(dist), id)` order.
const RADIX_MIN: usize = 48;

/// Sorts one `(distance, id)` row — stored as two aligned slices —
/// into `(total_cmp(dist), id)` order via [`msd_radix`]. Debug builds
/// reject duplicate edges, which would surface as equal (key, id)
/// pairs.
fn sort_dist_row(ds: &mut [f64], ids: &mut [ObjId], scratch: &mut RowScratch<f64>) {
    debug_assert_eq!(ds.len(), ids.len());
    let n = ds.len();
    if n < 2 {
        return;
    }
    if n <= RADIX_MIN {
        insertion(ds, ids);
    } else {
        let RowScratch { spare_p, spare_i } = scratch;
        spare_p.resize(n.max(spare_p.len()), 0.0);
        spare_i.resize(n.max(spare_i.len()), 0);
        msd_radix(ds, ids, &mut spare_p[..n], &mut spare_i[..n]);
    }
    debug_assert!(
        ds.windows(2)
            .zip(ids.windows(2))
            .all(|(d, i)| (dist_order_key(d[0]), i[0]) < (dist_order_key(d[1]), i[1])),
        "duplicate edge in a distance row"
    );
}

/// Insertion sort of the aligned row slices under the
/// `(dist_order_key, id)` order — the leaf sort of the MSD partitions.
/// Buckets average a handful of elements, so a branch-light inline loop
/// beats any dispatchy alternative at this size (the key recompute is
/// three ALU ops).
#[inline]
fn insertion(ds: &mut [f64], ids: &mut [ObjId]) {
    for i in 1..ds.len() {
        let (d, id) = (ds[i], ids[i]);
        let key = (dist_order_key(d), id);
        let mut j = i;
        while j > 0 && (dist_order_key(ds[j - 1]), ids[j - 1]) > key {
            ds[j] = ds[j - 1];
            ids[j] = ids[j - 1];
            j -= 1;
        }
        ds[j] = d;
        ids[j] = id;
    }
}

/// In-place MSD radix sort of the aligned `(dist, id)` row slices under
/// the composite `(dist_order_key, id)` order. An OR/AND scan finds the
/// highest byte that varies across the slice (constant prefixes — the
/// sign/exponent bytes of a narrow build radius, the high id bytes of
/// any realistic graph — cost nothing), one counting pass partitions
/// both arrays on it through the spare slices, and each bucket recurses
/// until the insertion cutoff. Stability is irrelevant: `(key, id)`
/// pairs are unique (rows never repeat an id).
fn msd_radix(ds: &mut [f64], ids: &mut [ObjId], sd: &mut [f64], si: &mut [ObjId]) {
    let n = ds.len();
    if n <= RADIX_MIN {
        insertion(ds, ids);
        return;
    }
    let (mut or_k, mut and_k) = (0u64, !0u64);
    let (mut or_i, mut and_i) = (0usize, !0usize);
    for t in 0..n {
        let k = dist_order_key(ds[t]);
        or_k |= k;
        and_k &= k;
        or_i |= ids[t];
        and_i &= ids[t];
    }
    let (vary_k, vary_i) = (or_k ^ and_k, (or_i ^ and_i) as u64);
    let (use_key, shift) = if vary_k != 0 {
        (true, 8 * ((63 - vary_k.leading_zeros() as usize) / 8))
    } else if vary_i != 0 {
        (false, 8 * ((63 - vary_i.leading_zeros() as usize) / 8))
    } else {
        return; // fully identical pairs — unreachable for valid rows
    };

    let mut hist = [0u32; 256];
    if use_key {
        for t in 0..n {
            hist[((dist_order_key(ds[t]) >> shift) & 0xFF) as usize] += 1;
        }
    } else {
        for t in 0..n {
            hist[((ids[t] as u64 >> shift) & 0xFF) as usize] += 1;
        }
    }
    let mut offs = [0u32; 256];
    let mut sum = 0u32;
    for (o, &c) in offs.iter_mut().zip(hist.iter()) {
        *o = sum;
        sum += c;
    }

    // Scatter both arrays through the spares, copy back, recurse per
    // bucket (the spares slice along with the buckets, so recursion
    // needs no extra allocation).
    let mut cur = offs;
    for t in 0..n {
        let digit = if use_key {
            (dist_order_key(ds[t]) >> shift) & 0xFF
        } else {
            (ids[t] as u64 >> shift) & 0xFF
        } as usize;
        let slot = cur[digit] as usize;
        cur[digit] += 1;
        sd[slot] = ds[t];
        si[slot] = ids[t];
    }
    ds.copy_from_slice(sd);
    ids.copy_from_slice(si);

    for d in 0..256 {
        let lo = offs[d] as usize;
        let hi = lo + hist[d] as usize;
        if hi - lo > 1 {
            msd_radix(
                &mut ds[lo..hi],
                &mut ids[lo..hi],
                &mut sd[lo..hi],
                &mut si[lo..hi],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The previous comparison sort, kept as the order reference the
    /// radix sort must reproduce exactly.
    fn reference_sort(mut row: Vec<(f64, ObjId)>) -> Vec<(f64, ObjId)> {
        row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        row
    }

    /// The production row sort, driven through the split-array layout.
    fn radix(row: &[(f64, ObjId)]) -> Vec<(f64, ObjId)> {
        let mut ds: Vec<f64> = row.iter().map(|e| e.0).collect();
        let mut ids: Vec<ObjId> = row.iter().map(|e| e.1).collect();
        let mut scratch = RowScratch::default();
        sort_dist_row(&mut ds, &mut ids, &mut scratch);
        ds.into_iter().zip(ids).collect()
    }

    fn assert_order_identical(row: Vec<(f64, ObjId)>) {
        let want = reference_sort(row.clone());
        let got = radix(&row);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0.to_bits(), w.0.to_bits(), "distance bits diverged");
            assert_eq!(g.1, w.1, "id order diverged");
        }
        // Long variant: replicate the row past the comparison cutoff
        // (fresh ids keep the (dist, id) pairs unique) so the radix
        // path itself is exercised.
        if row.len() <= RADIX_MIN && !row.is_empty() {
            let long: Vec<(f64, ObjId)> = (0..=RADIX_MIN)
                .flat_map(|rep| row.iter().map(move |&(d, id)| (d, id + rep * 1_000_003)))
                .collect();
            let want = reference_sort(long.clone());
            let got = radix(&long);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0.to_bits(), w.0.to_bits());
                assert_eq!(g.1, w.1);
            }
        }
    }

    #[test]
    fn key_mapping_matches_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0e300,
            f64::INFINITY,
        ];
        for (i, &a) in values.iter().enumerate() {
            assert_eq!(
                dist_order_key(a),
                dist_order_key(a),
                "key is a pure function"
            );
            for &b in &values[i + 1..] {
                assert!(
                    dist_order_key(a) < dist_order_key(b),
                    "key order broke total_cmp for {a} < {b}"
                );
            }
        }
        // NaNs too: total_cmp puts +NaN above +inf, -NaN below -inf.
        assert!(dist_order_key(f64::NAN) > dist_order_key(f64::INFINITY));
        assert!(dist_order_key(-f64::NAN) < dist_order_key(f64::NEG_INFINITY));
        // The key is injective on bit patterns (XOR with a
        // sign-derived mask), so distinct bits — e.g. ±0.0 — keep
        // distinct, ordered keys.
        assert!(dist_order_key(-0.0) < dist_order_key(0.0));
    }

    #[test]
    fn radix_order_on_duplicate_distances() {
        // Many ties: ids must break them exactly as the comparison
        // sort's `.then(id.cmp)` did.
        let row: Vec<(f64, ObjId)> = (0..200)
            .map(|i| ((i % 5) as f64 * 0.125, (997 * i + 13) % 1000))
            .collect();
        assert_order_identical(row);
    }

    #[test]
    fn radix_order_on_signed_zeros_and_subnormals() {
        let row = vec![
            (0.0, 3),
            (-0.0, 7),
            (5e-324, 1),
            (-5e-324, 2),
            (f64::MIN_POSITIVE, 0),
            (0.0, 1),
            (-0.0, 0),
            (2.2250738585072014e-308, 9),
        ];
        assert_order_identical(row);
    }

    #[test]
    fn radix_order_on_all_equal_rows() {
        // One distance value for the whole row: no key byte varies, so
        // the id bytes carry the entire order.
        let mut seen = std::collections::HashSet::new();
        let row: Vec<(f64, ObjId)> = (0..150usize)
            .map(|i| (0.25, (i.wrapping_mul(2_654_435_761) >> 7) % 100_000))
            .filter(|&(_, id)| seen.insert(id))
            .collect();
        assert!(row.len() > RADIX_MIN);
        assert_order_identical(row);
    }

    #[test]
    fn radix_order_on_random_mixed_rows() {
        // Long mixed-magnitude rows (normal, subnormal, huge, ±0) hit
        // deep recursion and every digit position across seeds.
        for seed in 0..8u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let row: Vec<(f64, ObjId)> = (0..300)
                .map(|i| {
                    let v = match next() % 5 {
                        0 => (next() % 1_000_000) as f64 * 1e-9,
                        1 => f64::from_bits(next() % 0x10_0000), // subnormals
                        2 => (next() % 1_000) as f64 * 1e290,
                        3 => 0.0,
                        _ => -0.0,
                    };
                    (v, i)
                })
                .collect();
            assert_order_identical(row);
        }
    }

    #[test]
    fn radix_handles_degenerate_lengths() {
        assert_order_identical(vec![]);
        assert_order_identical(vec![(0.5, 0)]);
        assert_order_identical(vec![(0.5, 1), (0.5, 0)]);
    }

    #[test]
    fn dist_assembly_serial_equals_sharded() {
        // Deterministic pseudo-random multigraph-free edge set.
        let n = 120;
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seen = std::collections::HashSet::new();
        let mut edges: Vec<DistEdge> = Vec::new();
        for _ in 0..800 {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            if a == b {
                continue;
            }
            let (a, b) = (a.min(b), a.max(b));
            if seen.insert((a, b)) {
                edges.push((a, b, (next() % 1_000) as f64 * 1e-3));
            }
        }
        // The raw arrays of the assembly every constructor ends in.
        let assembled = |slices: &[&[DistEdge]], workers| {
            let (g, _) = crate::StratifiedDiskGraph::from_dist_edge_slices_checked(
                n, 1.0, slices, workers, None,
            )
            .expect("valid radius, no token");
            let (o, d, nb) = (g.offsets(), g.dists_flat(), g.neighbors_flat());
            (o.to_vec(), d.to_vec(), nb.to_vec())
        };
        let serial = assembled(&[&edges], 1);
        for shards in [0, 1, 2, 3, 8, 200] {
            let sharded = assembled(&[&edges], shards);
            assert_eq!(serial.0, sharded.0, "offsets, shards={shards}");
            assert_eq!(
                serial.1.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                sharded.1.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "dists, shards={shards}"
            );
            assert_eq!(serial.2, sharded.2, "neighbors, shards={shards}");
        }

        // Multi-source assembly over arbitrary splits of the same edge
        // set (including empty slices) is byte-identical to the
        // single-source serial assembly — the contract the sharded
        // build's byte-identity gate rests on.
        for cut in [0, 1, edges.len() / 3, edges.len()] {
            let (a, b) = edges.split_at(cut);
            let empty: &[DistEdge] = &[];
            for workers in [1, 3] {
                let multi = assembled(&[a, empty, b], workers);
                assert_eq!(serial.0, multi.0, "offsets, cut={cut}");
                assert_eq!(
                    serial.1.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    multi.1.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "dists, cut={cut}"
                );
                assert_eq!(serial.2, multi.2, "neighbors, cut={cut}");
            }
        }
    }
}
