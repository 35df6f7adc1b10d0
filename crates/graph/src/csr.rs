//! The one CSR assembly behind both graph types:
//! [`crate::UnitDiskGraph`] (plain id rows) and
//! [`crate::StratifiedDiskGraph`] (distance-annotated rows). Every
//! constructor of either graph, the sharded production build included,
//! ends in [`assemble_rows`]; both constructors from raw arrays
//! (`from_csr_parts`, `from_stored_csr`) end in the one row check,
//! [`check_rows`].
//!
//! The rows are cut into contiguous **parts**, and the input is a list
//! of undirected edge lists, each tagged with the part or pair of parts
//! holding its endpoints. The sharded build passes its shard ranges,
//! each shard's self-join as that shard's own list and each boundary
//! cross-join as a list shared by its two shards, without concatenating
//! them; every other caller is the one-part case (`0..n`, every list
//! its own). Assembly runs in two phases:
//!
//! 1. **fill** (timed as `merge_ms`) — parts count their own rows'
//!    degrees in parallel, each from its own lists and its side of each
//!    shared list, and the count fails closed with
//!    [`GraphError::MisroutedEdge`] on an edge that would not land in
//!    exactly two rows. One prefix sum sizes the CSR, which is allocated
//!    once; parts then write their rows' directed entries straight into
//!    their own disjoint ranges of the two *final* aligned arrays
//!    (`payloads`, `neighbors`), in parallel through
//!    [`disc_metric::tasks::run_tasks`]. The lists are taken by value:
//!    a part drops its own lists once filled, and a shared list is
//!    dropped when its second part is done, so the assembly never holds
//!    every edge and the whole CSR at once;
//! 2. **row sort** — rows are cut into contiguous ranges balanced by
//!    entry count (not by vertex count), so sort work distributes
//!    evenly even when degrees are skewed, and each range is one task
//!    of the same runner.
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
//! the edges into lists and rows into parts (pinned by the graph tests,
//! the workspace concurrency tier and the sharded build's snapshot
//! identity).
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
//!
//! ## Checking rows from outside
//!
//! Arrays that did not come from this assembly (a snapshot's) are
//! checked by [`check_rows`], over the same entry-balanced row ranges
//! as the row sort ([`entry_balanced_rows`]), one task per range. A
//! range can first fill its rows' slots of the final arrays, so a
//! stored entry is read once, written widened into its slot and checked
//! there. The check can also fold a keyed symmetry fingerprint
//! ([`Mirrors`]); the error it reports is the first in row order at
//! every worker count.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::tasks::run_tasks;
use disc_metric::ObjId;
use disc_mtree::DistEdge;

use crate::error::GraphError;

/// Work items between cancellation checkpoints in the assembly loops:
/// one relaxed atomic load per this many edges/rows keeps the poll cost
/// unmeasurable while bounding post-cancel latency to microseconds.
pub(crate) const CANCEL_CHUNK: usize = 4_096;

/// Below this many directed entries an auto-sized row sort runs on one
/// worker.
const SORT_MIN_PARALLEL: usize = 4_096;

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

/// Wall-clock split of one CSR assembly: the part fill (degree count +
/// fill over the edge lists) vs the parallel row-sort phase. The
/// sharded build reports both as build phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct AssemblyBreakdown {
    /// Degree count and fill over the input lists, in milliseconds.
    pub merge_ms: f64,
    /// Entry-balanced parallel row sort, in milliseconds.
    pub sort_ms: f64,
}

/// One input list of the CSR assembly
/// ([`crate::StratifiedDiskGraph::from_dist_edge_parts_checked`]):
/// `(a, b, edges)` holds edges
/// with one endpoint in row part `a` and the other in part `b`, or both
/// in part `a` when `a == b`.
pub type PartEdges<S> = (usize, usize, S);

/// Assembles the CSR of the undirected edges in `lists` over `n`
/// vertices whose rows are cut into the contiguous `parts` (see the
/// module docs): a parallel count and fill over the parts, then the
/// entry-balanced parallel row sort. Edges may come in any order and
/// orientation; each unordered pair must appear at most once overall,
/// and self-loops are rejected (debug). An edge that does not land in
/// exactly the rows its list promises fails the count with
/// [`GraphError::MisroutedEdge`]. The one-part case, `parts = [0..n]`
/// with every list `(0, 0, _)`, is every constructor but the sharded
/// build's.
///
/// The lists are consumed: a part drops each of its own lists once it
/// has filled it, and a list between two parts is dropped once both
/// have.
///
/// `workers` sizes both phases: `0` is one worker per available core
/// (for the sort, one below 4096 entries); the fill runs at most one
/// worker per part, the sort at most one per row. Output bytes do not
/// depend on it. The token is polled once up front, every
/// [`CANCEL_CHUNK`] edges of each list a part fills and rows of each
/// sort worker; on `Err(Cancelled)` the partial arrays are dropped, so
/// no partial CSR escapes.
///
/// # Panics
///
/// Panics unless `parts` tiles `0..n` in order, and on a list naming a
/// part index outside `parts`.
pub(crate) fn assemble_rows<E, S>(
    n: usize,
    parts: &[Range<usize>],
    lists: Vec<PartEdges<S>>,
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<(Csr<E::Payload>, AssemblyBreakdown), GraphError>
where
    E: Edge + Sync,
    S: AsRef<[E]> + Send + Sync,
{
    if let Some(c) = cancel {
        c.checkpoint()?;
    }
    let merge_start = Instant::now();
    let tiled = parts.iter().try_fold(0, |at, r| {
        (r.start == at && r.start <= r.end).then_some(r.end)
    });
    assert_eq!(tiled, Some(n), "row parts must tile 0..{n} in order");
    let mut owned: Vec<Part<S>> = parts
        .iter()
        .map(|rows| Part {
            rows: rows.clone(),
            intra: Vec::new(),
            boundary: Vec::new(),
        })
        .collect();
    for (a, b, edges) in lists {
        if a == b {
            owned[a].intra.push(edges);
        } else {
            let edges = Arc::new(edges);
            owned[b].boundary.push(Arc::clone(&edges));
            owned[a].boundary.push(edges);
        }
    }
    let fill_workers = disc_metric::tasks::workers(workers);

    // Count: each part adds its own rows' degrees into its own slice of
    // `offsets`, then one serial prefix sum sizes the CSR.
    let mut offsets = vec![0usize; n + 1];
    let mut rest = &mut offsets[1..];
    let mut tasks = Vec::with_capacity(owned.len());
    for (p, part) in owned.iter().enumerate() {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(part.rows.len());
        rest = tail;
        tasks.push((p, part, mine));
    }
    run_tasks(tasks, fill_workers, |(p, part, degrees)| {
        part.count(degrees)
            .map_err(|edge| GraphError::MisroutedEdge { part: p, edge })
    })
    .into_iter()
    .collect::<Result<(), GraphError>>()?;
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }

    // Fill: each part writes its own rows' entries into its own slices
    // of the two final arrays.
    let total = offsets[n];
    let mut payloads = vec![E::Payload::default(); total];
    let mut neighbors = vec![0 as ObjId; total];
    let (mut rest_p, mut rest_n) = (&mut payloads[..], &mut neighbors[..]);
    let mut tasks = Vec::with_capacity(owned.len());
    for part in owned {
        let len = offsets[part.rows.end] - offsets[part.rows.start];
        let (mine_p, tail_p) = std::mem::take(&mut rest_p).split_at_mut(len);
        let (mine_n, tail_n) = std::mem::take(&mut rest_n).split_at_mut(len);
        (rest_p, rest_n) = (tail_p, tail_n);
        tasks.push((part, mine_p, mine_n));
    }
    // Largest part first: balances the workers, and leaves the smallest
    // lists resident while the last rows of the CSR are written.
    tasks.sort_by_key(|(_, ps, _)| std::cmp::Reverse(ps.len()));
    let offsets_ref = &offsets;
    run_tasks(tasks, fill_workers, |(part, ps, ids)| {
        part.fill(offsets_ref, ps, ids, cancel)
    })
    .into_iter()
    .collect::<Result<(), Cancelled>>()?;
    let merge_ms = merge_start.elapsed().as_secs_f64() * 1e3;

    let sort_workers = if workers == 0 && total < SORT_MIN_PARALLEL {
        1
    } else {
        fill_workers
    }
    .clamp(1, n.max(1));
    let sort_start = Instant::now();
    sort_rows::<E>(
        &offsets,
        &mut payloads,
        &mut neighbors,
        sort_workers,
        cancel,
    )?;
    let breakdown = AssemblyBreakdown {
        merge_ms,
        sort_ms: sort_start.elapsed().as_secs_f64() * 1e3,
    };
    Ok(((offsets, payloads, neighbors), breakdown))
}

/// The edge lists of one row part of [`assemble_rows`]: its own lists,
/// and the lists it shares with another part (whichever of the two
/// fills last drops the shared list).
struct Part<S> {
    rows: Range<usize>,
    intra: Vec<S>,
    boundary: Vec<Arc<S>>,
}

impl<S> Part<S> {
    /// Adds the degree of each of this part's rows into `degrees`
    /// (indexed from `rows.start`). An own edge must have both endpoints
    /// here, a shared edge exactly one: together with the other part's
    /// count, every edge then lands in exactly two rows. Returns the
    /// first edge that breaks this.
    fn count<E: Edge>(&self, degrees: &mut [usize]) -> Result<(), (ObjId, ObjId)>
    where
        S: AsRef<[E]>,
    {
        let (lo, len) = (self.rows.start, self.rows.len());
        for edges in &self.intra {
            for e in edges.as_ref() {
                let (i, j, _) = e.parts();
                debug_assert!(i != j, "self-loop ({i}, {j})");
                let (li, lj) = (i.wrapping_sub(lo), j.wrapping_sub(lo));
                if li >= len || lj >= len {
                    return Err((i, j));
                }
                degrees[li] += 1;
                degrees[lj] += 1;
            }
        }
        for edges in &self.boundary {
            for e in (**edges).as_ref() {
                let (i, j, _) = e.parts();
                let (li, lj) = (i.wrapping_sub(lo), j.wrapping_sub(lo));
                let v = match (li < len, lj < len) {
                    (true, false) => li,
                    (false, true) => lj,
                    _ => return Err((i, j)),
                };
                degrees[v] += 1;
            }
        }
        Ok(())
    }

    /// Writes every entry of this part's rows into `ps`/`ids` (the
    /// part's slices of the final arrays, starting at row
    /// `rows.start`), dropping each list once it is written.
    fn fill<E: Edge>(
        self,
        offsets: &[usize],
        ps: &mut [E::Payload],
        ids: &mut [ObjId],
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled>
    where
        S: AsRef<[E]>,
    {
        let poll = || cancel.map_or(Ok(()), CancelToken::checkpoint);
        let (lo, base) = (self.rows.start, offsets[self.rows.start]);
        let mut cursor: Vec<usize> = offsets[self.rows.clone()]
            .iter()
            .map(|&o| o - base)
            .collect();
        let mut put = |v: ObjId, u: ObjId, p: E::Payload| {
            let c = cursor[v - lo];
            ps[c] = p;
            ids[c] = u;
            cursor[v - lo] = c + 1;
        };
        for edges in self.intra {
            for (t, e) in edges.as_ref().iter().enumerate() {
                if t % CANCEL_CHUNK == 0 {
                    poll()?;
                }
                let (i, j, p) = e.parts();
                put(i, j, p);
                put(j, i, p);
            }
        }
        for edges in self.boundary {
            for (t, e) in (*edges).as_ref().iter().enumerate() {
                if t % CANCEL_CHUNK == 0 {
                    poll()?;
                }
                let (i, j, p) = e.parts();
                if self.rows.contains(&i) {
                    put(i, j, p);
                } else {
                    put(j, i, p);
                }
            }
        }
        Ok(())
    }
}

/// The row-sort phase of [`assemble_rows`]: rows are partitioned into
/// contiguous ranges balanced by **entry count** (one binary search on
/// `offsets` per cut), so a worker owning a few heavy rows sorts as much
/// data as one owning many light rows. Each range is one task that
/// owns its disjoint slices of both arrays and its own scratch;
/// per-row sorts are independent, so the output is byte-identical to
/// sorting serially.
fn sort_rows<E: Edge>(
    offsets: &[usize],
    payloads: &mut [E::Payload],
    neighbors: &mut [ObjId],
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<(), Cancelled> {
    let ranges = entry_balanced_rows(offsets, workers, payloads, neighbors);
    run_tasks(ranges, workers, |(rows, ps, ids)| {
        let base = offsets[rows.start];
        let mut scratch = RowScratch::default();
        for (t, v) in rows.enumerate() {
            if t % CANCEL_CHUNK == 0 {
                cancel.map_or(Ok(()), CancelToken::checkpoint)?;
            }
            let row = offsets[v] - base..offsets[v + 1] - base;
            E::order_row(&mut ps[row.clone()], &mut ids[row], &mut scratch);
        }
        Ok(())
    })
    .into_iter()
    .collect()
}

/// One row range of [`entry_balanced_rows`], with its slices of the
/// payload and id arrays.
type RowSlices<'a, P> = (Range<usize>, &'a mut [P], &'a mut [ObjId]);

/// Cuts the rows of `offsets` into `parts` contiguous ranges balanced
/// by **entry count** (one binary search on `offsets` per cut), each
/// with its disjoint slices of the aligned `payloads`/`ids` arrays. The
/// ranges tile `0..n` in order; a part may be empty when a few rows
/// hold most entries. The row sort and the row check run one task per
/// range.
fn entry_balanced_rows<'a, P>(
    offsets: &[usize],
    parts: usize,
    payloads: &'a mut [P],
    ids: &'a mut [ObjId],
) -> Vec<RowSlices<'a, P>> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    // Row cut before each part's even share of the entries; cuts are
    // row indices, non-decreasing, so ranges partition 0..n exactly.
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    for w in 1..parts {
        let target = total * w / parts;
        cuts.push(offsets.partition_point(|&o| o < target).min(n));
    }
    cuts.push(n);

    let (mut rest_p, mut rest_n) = (payloads, ids);
    let mut ranges = Vec::with_capacity(parts);
    for rows in cuts.windows(2).map(|c| c[0]..c[1]) {
        let len = offsets[rows.end] - offsets[rows.start];
        let (mine_p, tail_p) = std::mem::take(&mut rest_p).split_at_mut(len);
        let (mine_n, tail_n) = std::mem::take(&mut rest_n).split_at_mut(len);
        (rest_p, rest_n) = (tail_p, tail_n);
        ranges.push((rows, mine_p, mine_n));
    }
    ranges
}

/// Below this many directed entries [`check_rows`] runs on the
/// caller's thread. A v4 snapshot stores 12 bytes per entry, so any
/// snapshot under disc-store's 1 MiB threading cutoff is also under
/// this one, and a small open spawns no thread.
const CHECK_MIN_PARALLEL: usize = 1 << 17;

/// The worker count of [`check_rows`] for a CSR of `entries` directed
/// entries: one below [`CHECK_MIN_PARALLEL`], one per core above.
pub(crate) fn check_workers(entries: usize) -> usize {
    if entries < CHECK_MIN_PARALLEL {
        1
    } else {
        disc_metric::tasks::workers(0)
    }
}

/// The order-independent symmetry fingerprint of a distance CSR. Each
/// entry `(v, u, d)` adds a keyed mix of `(min(v, u), max(v, u),
/// d.to_bits())` into the wrapping sum of its half: `u < v` (below) or
/// `u > v` (above). An entry and its mirror `(u, v, d)` mix to the same
/// value and land in opposite halves, so a symmetric CSR has equal sums
/// and half its entries below, for every key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Mirrors {
    /// Entries whose neighbor id is below their row's.
    pub(crate) below: usize,
    below_sum: u64,
    above_sum: u64,
}

impl Mirrors {
    /// Folds entry `(v, u, d)` into its half.
    #[inline]
    fn fold(&mut self, key: u64, v: ObjId, u: ObjId, d: f64) {
        let below = u < v;
        let h = mirror_mix(key, v.min(u) as u64, v.max(u) as u64, d.to_bits());
        // Branch-free: `u < v` is a coin flip inside a distance-sorted row.
        let mask = 0u64.wrapping_sub(u64::from(below));
        self.below += usize::from(below);
        self.below_sum = self.below_sum.wrapping_add(h & mask);
        self.above_sum = self.above_sum.wrapping_add(h & !mask);
    }

    fn merge(self, other: Self) -> Self {
        Self {
            below: self.below + other.below,
            below_sum: self.below_sum.wrapping_add(other.below_sum),
            above_sum: self.above_sum.wrapping_add(other.above_sum),
        }
    }

    /// Whether the halves match over a CSR of `entries` entries.
    pub(crate) fn balanced(&self, entries: usize) -> bool {
        self.below * 2 == entries && self.below_sum == self.above_sum
    }
}

/// The keyed mix of [`Mirrors`]: each word is absorbed with an XOR and
/// a multiply-xorshift round. Every round is a bijection of the state,
/// so two entries that differ in one word (an id, or a distance by one
/// ulp) always mix differently; the key keeps a crafted file from
/// aiming at the sum.
#[inline]
fn mirror_mix(key: u64, lo: u64, hi: u64, bits: u64) -> u64 {
    let mut h = key;
    for word in [lo.rotate_left(32) ^ hi, bits] {
        h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    h
}

/// The key of [`Mirrors`], drawn once per process from the standard
/// library's randomly seeded hasher. A symmetric CSR passes for every
/// key, so results never depend on it.
pub(crate) fn mirror_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0x6D69_7272_6F72_u64))
}

/// Checks every row of a stratified CSR and returns its [`Mirrors`]
/// (folded only when `key` is given), over `workers` entry-balanced
/// row ranges (see [`entry_balanced_rows`]), one task each. A range
/// first hands each row's slots of the final `neighbors`/`dists` arrays
/// to `fill` (with the row's global entry range), then checks the row
/// there (see [`check_range`]); a caller whose arrays are already final
/// passes a no-op. Ranges run in row order and each stops at its own
/// first violation, so the error returned is the first in row order at
/// every worker count.
pub(crate) fn check_rows<F>(
    radius: f64,
    offsets: &[usize],
    neighbors: &mut [ObjId],
    dists: &mut [f64],
    key: Option<u64>,
    workers: usize,
    fill: F,
) -> Result<Mirrors, GraphError>
where
    F: Fn(Range<usize>, &mut [ObjId], &mut [f64]) + Sync,
{
    let ranges = entry_balanced_rows(offsets, workers, dists, neighbors);
    run_tasks(ranges, workers, |(rows, ds, ids)| {
        check_range(radius, offsets, rows, ids, ds, key, &fill)
    })
    .into_iter()
    .try_fold(Mirrors::default(), |all, range| Ok(all.merge(range?)))
}

/// The row validator of [`check_rows`], over the rows `rows` whose
/// entries `ids`/`ds` hold (from `offsets[rows.start]`). For each
/// entry, in order: the id is in `0..n` and not the row's own, the
/// distance lies in `[0, radius]` and is not NaN, and the row is
/// strictly `(total_cmp(dist), id)`-sorted. The first violation is
/// named with its row and global entry index.
fn check_range<F>(
    radius: f64,
    offsets: &[usize],
    rows: Range<usize>,
    ids: &mut [ObjId],
    ds: &mut [f64],
    key: Option<u64>,
    fill: &F,
) -> Result<Mirrors, GraphError>
where
    F: Fn(Range<usize>, &mut [ObjId], &mut [f64]),
{
    let n = offsets.len() - 1;
    let base = offsets[rows.start];
    let mut mirrors = Mirrors::default();
    for v in rows {
        let row = offsets[v]..offsets[v + 1];
        let local = row.start - base..row.end - base;
        let (ids, ds) = (&mut ids[local.clone()], &mut ds[local]);
        fill(row.clone(), ids, ds);
        let mut prev: Option<(u64, ObjId)> = None;
        for (index, (&id, &d)) in row.zip(ids.iter().zip(ds.iter())) {
            if id >= n {
                return Err(GraphError::NeighborOutOfRange { row: v, index, id });
            }
            if id == v {
                return Err(GraphError::SelfLoop { row: v, index });
            }
            if d.is_nan() || d < 0.0 || d > radius {
                return Err(GraphError::DistanceOutOfRange {
                    row: v,
                    index,
                    value: d,
                });
            }
            let order = (dist_order_key(d), id);
            if prev.is_some_and(|p| order <= p) {
                return Err(GraphError::RowNotSorted { row: v, index });
            }
            prev = Some(order);
            if let Some(key) = key {
                mirrors.fold(key, v, id, d);
            }
        }
    }
    Ok(mirrors)
}

/// Reusable scatter buffers for [`Edge::order_row`], one per sort
/// range, reused across the rows it sorts (only the distance rows'
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

        // Row parts: random contiguous cuts of 0..n (empty parts and a
        // part holding every row included), edges routed by endpoint
        // into owned lists, filled at several worker counts.
        let mut cut_sets: Vec<Vec<usize>> = vec![vec![0, 0, n, n], vec![0, n]];
        for _ in 0..12 {
            let mut cuts: Vec<usize> = (0..1 + next() % 6)
                .map(|_| (next() % (n as u64 + 1)) as usize)
                .collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            cut_sets.push(cuts);
        }
        for cuts in &cut_sets {
            let parts: Vec<std::ops::Range<usize>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            let part_of = |v: usize| parts.iter().position(|r| r.contains(&v)).expect("tiled");
            for workers in [1, 2, 3, 8] {
                // Up to two lists per part pair (by edge parity), in
                // either orientation, plus one empty list.
                let mut routed = std::collections::BTreeMap::new();
                for (t, &(i, j, d)) in edges.iter().enumerate() {
                    let (a, b) = (part_of(i), part_of(j));
                    let key = if t % 2 == 0 { (a, b, 0) } else { (b, a, 1) };
                    routed.entry(key).or_insert_with(Vec::new).push((i, j, d));
                }
                let mut lists: Vec<PartEdges<Vec<DistEdge>>> = vec![(0, 0, Vec::new())];
                lists.extend(routed.into_iter().map(|((a, b, _), list)| (a, b, list)));
                let (g, _) = crate::StratifiedDiskGraph::from_dist_edge_parts_checked(
                    n, 1.0, &parts, lists, workers, None,
                )
                .expect("edges routed by endpoint");
                let what = format!("cuts={cuts:?} workers={workers}");
                assert_eq!(serial.0, g.offsets(), "offsets, {what}");
                assert_eq!(
                    serial.1.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    g.dists_flat()
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>(),
                    "dists, {what}"
                );
                assert_eq!(serial.2, g.neighbors_flat(), "neighbors, {what}");
            }
        }
    }

    #[test]
    fn misrouted_edges_fail_the_count() {
        let parts = [0..4, 4..8, 8..12];
        let assemble = |lists: Vec<PartEdges<Vec<DistEdge>>>| {
            assemble_rows::<DistEdge, _>(12, &parts, lists, 2, None).map(|_| ())
        };
        // A boundary edge of parts 0 and 1 whose other endpoint lies in
        // part 2: part 1 finds no endpoint of it among its rows.
        assert_eq!(
            assemble(vec![(0, 1, vec![(1, 5, 0.5)]), (0, 1, vec![(1, 9, 0.5)])]),
            Err(GraphError::MisroutedEdge {
                part: 1,
                edge: (1, 9)
            })
        );
        // Both endpoints in one part of a boundary pair: the first part
        // in order that finds it misplaced is named.
        assert_eq!(
            assemble(vec![(2, 0, vec![(8, 9, 0.5)])]),
            Err(GraphError::MisroutedEdge {
                part: 0,
                edge: (8, 9)
            })
        );
        // An own edge leaving its part, and one past the last row.
        assert_eq!(
            assemble(vec![(1, 1, vec![(4, 8, 0.5)])]),
            Err(GraphError::MisroutedEdge {
                part: 1,
                edge: (4, 8)
            })
        );
        assert_eq!(
            assemble_rows::<DistEdge, _>(
                12,
                std::slice::from_ref(&(0..12)),
                vec![(0, 0, &[(3, 12, 0.5)][..])],
                1,
                None
            )
            .map(|_| ()),
            Err(GraphError::MisroutedEdge {
                part: 0,
                edge: (3, 12)
            })
        );
        assert!(assemble(vec![(0, 1, vec![(1, 5, 0.5)]), (2, 2, vec![(8, 9, 0.5)])]).is_ok());
    }

    #[test]
    fn part_fill_cancels_inside_the_parallel_fill() {
        // Four parts over a ring of chords: every part fills one own
        // list of two CANCEL_CHUNKs and two shared ones.
        let n = 4_000;
        let parts: Vec<std::ops::Range<usize>> =
            (0..4).map(|p| p * 1_000..(p + 1) * 1_000).collect();
        let mut lists: Vec<PartEdges<Vec<DistEdge>>> = (0..4)
            .flat_map(|p| [(p, p, Vec::new()), (p, (p + 1) % 4, Vec::new())])
            .collect();
        for i in 0..n {
            for step in [1, 2, 3, 5, 7, 11] {
                let j = (i + step) % n;
                let (a, b) = (i / 1_000, j / 1_000);
                let list = if a == b { 2 * a } else { 2 * a + 1 };
                lists[list].2.push((i, j, step as f64 * 1e-3));
            }
        }
        // One poll up front, then one per CANCEL_CHUNK of each list in
        // each part that fills it (both parts of a shared list).
        let fill_checks: u64 = 1 + lists
            .iter()
            .map(|(a, b, l)| {
                (1 + usize::from(a != b)) as u64 * l.len().div_ceil(CANCEL_CHUNK) as u64
            })
            .sum::<u64>();
        assert_eq!(fill_checks, 17);
        for workers in [2, 3, 8] {
            for budget in [2, fill_checks / 2, fill_checks] {
                let token = CancelToken::with_check_budget(budget);
                let got =
                    assemble_rows::<DistEdge, _>(n, &parts, lists.clone(), workers, Some(&token));
                assert_eq!(
                    got.map(|_| ()),
                    Err(GraphError::Cancelled),
                    "workers={workers} budget={budget}"
                );
            }
            let token = CancelToken::with_check_budget(fill_checks + 100);
            assert!(
                assemble_rows::<DistEdge, _>(n, &parts, lists.clone(), workers, Some(&token))
                    .is_ok()
            );
        }
    }

    /// A symmetric path CSR: row `v` holds `v - k` and `v + k` (where
    /// they exist) at distance `0.01 * k`, for `k` in `1..=reach`.
    fn path_csr(n: usize, reach: usize) -> (Vec<usize>, Vec<ObjId>, Vec<f64>) {
        let (mut offsets, mut ids, mut ds) = (vec![0], Vec::new(), Vec::new());
        for v in 0..n {
            for k in 1..=reach {
                for u in [v.checked_sub(k), Some(v + k).filter(|&u| u < n)]
                    .into_iter()
                    .flatten()
                {
                    ids.push(u);
                    ds.push(0.01 * k as f64);
                }
            }
            offsets.push(ids.len());
        }
        (offsets, ids, ds)
    }

    #[test]
    fn row_check_is_the_same_at_every_worker_count() {
        let n = 3_000;
        let (offsets, ids, ds) = path_csr(n, 4);
        let key = mirror_key();
        // Checked in place, and filled from the arrays into zeroed ones.
        let check = |ids: &[ObjId], ds: &[f64], workers: usize| {
            let (mut i, mut d) = (ids.to_vec(), ds.to_vec());
            let in_place = check_rows(
                0.5,
                &offsets,
                &mut i,
                &mut d,
                Some(key),
                workers,
                |_, _, _| {},
            );
            let (mut fi, mut fd) = (vec![0; ids.len()], vec![0.0; ds.len()]);
            let filled = check_rows(
                0.5,
                &offsets,
                &mut fi,
                &mut fd,
                Some(key),
                workers,
                |row, i, d| {
                    i.copy_from_slice(&ids[row.clone()]);
                    d.copy_from_slice(&ds[row]);
                },
            );
            assert_eq!(in_place, filled, "workers={workers}");
            if filled.is_ok() {
                assert_eq!((fi.as_slice(), fd.as_slice()), (ids, ds));
            }
            filled
        };
        let clean = check(&ids, &ds, 1).expect("a symmetric path is valid");
        assert!(clean.balanced(ids.len()));

        // Each kind of damage in an early row and a late one, at the
        // row's second entry (flat index `at`).
        type Damage = fn(&mut [ObjId], &mut [f64], usize, usize) -> Result<Mirrors, GraphError>;
        let damages: [Damage; 4] = [
            |_, ds, row, at| {
                ds[at] = f64::NAN;
                Err(GraphError::DistanceOutOfRange {
                    row,
                    index: at,
                    value: f64::NAN,
                })
            },
            |ids, _, row, at| {
                ids[at] = row;
                Err(GraphError::SelfLoop { row, index: at })
            },
            |ids, ds, row, at| {
                ids.swap(at - 1, at);
                ds.swap(at - 1, at);
                Err(GraphError::RowNotSorted { row, index: at })
            },
            |ids, _, row, at| {
                ids[at] = 3_000;
                Err(GraphError::NeighborOutOfRange {
                    row,
                    index: at,
                    id: 3_000,
                })
            },
        ];
        for row in [10, n - 10] {
            let at = offsets[row] + 1;
            for damage in damages {
                let (mut bad_ids, mut bad_ds) = (ids.clone(), ds.clone());
                let want = damage(&mut bad_ids, &mut bad_ds, row, at);
                for workers in [1, 2, 3, 8] {
                    assert_eq!(check(&bad_ids, &bad_ds, workers), want, "row {row}");
                }
            }
            // A mirrored distance one ulp off: every entry is valid, the
            // halves are not.
            let mut bad_ds = ds.clone();
            bad_ds[offsets[row + 1] - 1] =
                f64::from_bits(bad_ds[offsets[row + 1] - 1].to_bits() + 1);
            let off = check(&ids, &bad_ds, 1).expect("entries are valid one by one");
            assert!(!off.balanced(ids.len()), "row {row}");
            for workers in [2, 3, 8] {
                assert_eq!(check(&ids, &bad_ds, workers), Ok(off), "row {row}");
            }
        }

        // Two violations in different ranges: the earlier row wins,
        // whichever kind it is.
        let (early, late) = (offsets[10] + 1, offsets[n - 10] + 1);
        let mut bad_ids = ids.clone();
        let mut bad_ds = ds.clone();
        bad_ds[early] = f64::NAN;
        bad_ids[late] = n - 10;
        let mut loop_first = ids.clone();
        loop_first[early] = 10;
        let mut nan_late = ds.clone();
        nan_late[late] = f64::NAN;
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                check(&bad_ids, &bad_ds, workers),
                Err(GraphError::DistanceOutOfRange {
                    row: 10,
                    index: early,
                    value: f64::NAN
                })
            );
            assert_eq!(
                check(&loop_first, &nan_late, workers),
                Err(GraphError::SelfLoop {
                    row: 10,
                    index: early
                })
            );
        }
    }

    #[test]
    fn mirrors_pass_a_symmetric_csr_for_every_key() {
        let (offsets, mut ids, mut ds) = path_csr(200, 3);
        let entries = ids.len();
        for key in [0, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15, mirror_key()] {
            let m = check_rows(0.5, &offsets, &mut ids, &mut ds, Some(key), 1, |_, _, _| {})
                .expect("valid rows");
            assert!(m.balanced(entries), "key {key:#x}");
            assert_eq!(m.below * 2, entries);
        }
        // Without a key nothing is folded.
        let none = check_rows(0.5, &offsets, &mut ids, &mut ds, None, 1, |_, _, _| {});
        assert_eq!(none, Ok(Mirrors::default()));
    }
}
