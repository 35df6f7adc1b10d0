//! The mutation overlay of a [`crate::StreamingCatalog`]: inserts and
//! deletes recorded next to a frozen base graph instead of spliced into
//! it, the live view the selection runners read through it, and the
//! batched compaction that folds it back into one CSR.
//!
//! ## Slots
//!
//! The base is a [`StratifiedDiskGraph`] over `base_len` vertices. An
//! index into the base, or into the objects inserted after it, is a
//! *slot*: base vertex `v` is slot `v`, and the `k`-th insert since the
//! base takes slot `base_len + k`. Nothing is renumbered and no base
//! array moves until the next compaction:
//!
//! * an **insert** appends `(distance, slot)` entries to the *appended
//!   rows* at both endpoints — the new slot's row is its whole
//!   neighbourhood, and each neighbour's appended row gains the new
//!   slot. An appended row stays sorted by `(distance, slot)`;
//! * a **delete** tombstones its slot. Rows that list it keep the
//!   entry; a [`LiveView`] hands the tombstoned slots to the runners as
//!   [`Adjacency::absent`].
//!
//! A slot's row at radius `r` is its base prefix at `r` plus its
//! appended prefix at `r`. The two parts are disjoint: a base row lists
//! base slots only, and the appended row of a base slot lists inserted
//! slots only.
//!
//! ## Compaction
//!
//! Live slots are renumbered by rank. The renumbering is strictly
//! monotone, so `(distance, id)` row order survives it, and each live
//! row is its base row merged with its appended row, tombstoned entries
//! dropped. The result is byte-identical to splicing every mutation
//! through [`StratifiedDiskGraph::insert_object`] and
//! [`StratifiedDiskGraph::remove_object`] (pinned by tests). It runs in
//! place, in two O(E) sweeps over the base arrays (see
//! [`Overlay::compact_into`]): the only memory it adds is the arrays'
//! growth by the appended entries, never a second CSR.

use std::sync::Arc;

use disc_metric::{IdPermutation, ObjId};

use crate::csr::dist_order_key;
use crate::error::GraphError;
use crate::stratified::{StratifiedDiskGraph, StratifiedView};
use crate::Adjacency;

/// The overlay passes its threshold when appended entries exceed this
/// fraction of the base's entries, or tombstoned slots this fraction of
/// all slots.
const COMPACT_FRACTION: usize = 8;

/// One slot's appended entries, sorted by `(distance, slot)`.
#[derive(Clone, Debug, Default)]
struct AppendedRow {
    ids: Vec<ObjId>,
    dists: Vec<f64>,
}

/// First index of a `(distance, id)`-sorted row whose key is not below
/// `key`.
fn lower_bound(ids: &[ObjId], dists: &[f64], key: (u64, ObjId)) -> usize {
    let (mut a, mut b) = (0, ids.len());
    while a < b {
        let m = (a + b) / 2;
        if (dist_order_key(dists[m]), ids[m]) < key {
            a = m + 1;
        } else {
            b = m;
        }
    }
    a
}

/// Whether a `(distance, id)`-sorted row holds `id` at exactly `d`.
fn holds(ids: &[ObjId], dists: &[f64], id: ObjId, d: f64) -> bool {
    let k = lower_bound(ids, dists, (dist_order_key(d), id));
    k < ids.len() && ids[k] == id && dists[k].to_bits() == d.to_bits()
}

/// Inserts and deletes since the base graph was laid out. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub(crate) struct Overlay {
    /// Vertices of the base graph; slots at and above it were inserted.
    base_len: usize,
    /// External id of every inserted slot (index `slot − base_len`).
    added: Vec<ObjId>,
    /// Appended row per slot; slots past the end have none.
    rows: Vec<AppendedRow>,
    /// Directed entries over all appended rows.
    entries: usize,
    /// Whether each slot is tombstoned (index = slot).
    dead: Vec<bool>,
    /// Tombstoned slots, ascending.
    absent: Vec<ObjId>,
    /// Live slots in rank order: index = the dataset's internal id.
    live: Vec<ObjId>,
}

impl Overlay {
    /// The empty overlay over a base of `base_len` vertices.
    pub(crate) fn new(base_len: usize) -> Self {
        Self {
            base_len,
            added: Vec::new(),
            rows: Vec::new(),
            entries: 0,
            dead: vec![false; base_len],
            absent: Vec::new(),
            live: (0..base_len).collect(),
        }
    }

    /// Slots in use: base vertices plus inserted objects.
    pub(crate) fn slots(&self) -> usize {
        self.base_len + self.added.len()
    }

    /// Whether no mutation happened since the base was laid out.
    pub(crate) fn is_empty(&self) -> bool {
        self.added.is_empty() && self.absent.is_empty()
    }

    /// Directed entries over all appended rows.
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// Tombstoned slots.
    pub(crate) fn tombstoned(&self) -> usize {
        self.absent.len()
    }

    /// Whether the overlay has outgrown the base enough to compact.
    pub(crate) fn over_threshold(&self, base_entries: usize) -> bool {
        self.entries * COMPACT_FRACTION > base_entries
            || self.absent.len() * COMPACT_FRACTION > self.slots()
    }

    /// Slot of the live object of rank (dataset internal id) `rank`.
    pub(crate) fn slot(&self, rank: ObjId) -> ObjId {
        self.live[rank]
    }

    /// Rank of live slot `slot` among the live slots.
    fn rank_of(&self, slot: ObjId) -> ObjId {
        slot - self.absent.partition_point(|&a| a < slot)
    }

    /// External id of `slot`.
    pub(crate) fn external(&self, base: &StratifiedDiskGraph, slot: ObjId) -> ObjId {
        match slot.checked_sub(self.base_len) {
            Some(k) => self.added[k],
            None => base.external_id(slot),
        }
    }

    /// `slot`'s appended row.
    fn app_row(&self, slot: ObjId) -> (&[ObjId], &[f64]) {
        match self.rows.get(slot) {
            Some(row) => (&row.ids, &row.dists),
            None => (&[], &[]),
        }
    }

    /// `slot`'s base row at `r_max`.
    fn base_row<'g>(&self, base: &'g StratifiedDiskGraph, slot: ObjId) -> (&'g [ObjId], &'g [f64]) {
        if slot < self.base_len {
            (base.neighbors(slot), base.dists(slot))
        } else {
            (&[], &[])
        }
    }

    /// Records an insert: the next slot with external id `external`,
    /// adjacent to `neighbors` (`(slot, distance)`, live slots, each
    /// once). Returns the new slot. O(degree) plus each neighbour's
    /// appended-row shift.
    pub(crate) fn insert(&mut self, external: ObjId, neighbors: &[(ObjId, f64)]) -> ObjId {
        let slot = self.slots();
        self.rows.resize_with(slot + 1, AppendedRow::default);
        // The new slot is above every id in each neighbour's row, so its
        // entry goes right after the row's entries at distances ≤ d.
        for &(u, d) in neighbors {
            let row = &mut self.rows[u];
            let k = lower_bound(&row.ids, &row.dists, (dist_order_key(d), slot));
            row.ids.insert(k, slot);
            row.dists.insert(k, d);
        }
        let mut own: Vec<(u64, ObjId, f64)> = neighbors
            .iter()
            .map(|&(u, d)| (dist_order_key(d), u, d))
            .collect();
        own.sort_unstable_by_key(|&(key, u, _)| (key, u));
        self.rows[slot] = AppendedRow {
            ids: own.iter().map(|&(_, u, _)| u).collect(),
            dists: own.iter().map(|&(_, _, d)| d).collect(),
        };
        self.entries += 2 * neighbors.len();
        self.added.push(external);
        self.dead.push(false);
        self.live.push(slot);
        slot
    }

    /// `slot`'s live row at `r_max` in `(distance, slot)` order — the
    /// compacted graph's row order — as `(slot, distance, appended?)`,
    /// tombstoned entries dropped, after checking that every entry
    /// `(u, d)` has its mirror `(slot, d)` in `u`'s row: the check
    /// [`StratifiedDiskGraph::remove_object`] runs before it writes. A
    /// missing mirror is reported in ranks, the numbering of the
    /// compacted graph.
    pub(crate) fn checked_row(
        &self,
        base: &StratifiedDiskGraph,
        slot: ObjId,
    ) -> Result<Vec<(ObjId, f64, bool)>, GraphError> {
        let (bids, bds) = self.base_row(base, slot);
        let (aids, ads) = self.app_row(slot);
        let row: Vec<_> = Merge::new(bids, bds, aids, ads, &self.dead).collect();
        for &(u, d, appended) in &row {
            let (ids, ds) = if appended {
                self.app_row(u)
            } else {
                self.base_row(base, u)
            };
            if !holds(ids, ds, slot, d) {
                return Err(GraphError::MissingMirror {
                    row: self.rank_of(u),
                    id: self.rank_of(slot),
                });
            }
        }
        Ok(row)
    }

    /// Tombstones the live object of rank `rank`. O(n) for the rank
    /// list; nothing else moves.
    pub(crate) fn tombstone(&mut self, rank: ObjId) {
        let slot = self.live.remove(rank);
        self.dead[slot] = true;
        let at = self.absent.partition_point(|&a| a < slot);
        self.absent.insert(at, slot);
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Folds the overlay into `g` (the base it was recorded against) in
    /// place and attaches `perm`, the dataset's numbering after the
    /// mutations. The caller resets the overlay afterwards.
    ///
    /// Two sweeps, no second CSR:
    ///
    /// 1. front to back, drop tombstoned rows and entries and renumber
    ///    every id by its rank. Rows only move left and only lose
    ///    entries, so no write overtakes a read;
    /// 2. grow both arrays once by the live appended entries, then back
    ///    to front, merge each row with its appended row at its final
    ///    place. Rows only move right and only gain entries, so again no
    ///    write overtakes a read. An appended entry goes after every
    ///    base entry at the same distance: its id is above theirs.
    pub(crate) fn compact_into(
        &self,
        g: &mut StratifiedDiskGraph,
        perm: Option<Arc<IdPermutation>>,
    ) {
        let mut rank = vec![ObjId::MAX; self.slots()];
        for (r, &s) in self.live.iter().enumerate() {
            rank[s] = r;
        }
        // Live slots ascend, so the base ones come first; an inserted
        // slot has no base row.
        let live_base = self.live.partition_point(|&s| s < self.base_len);
        let mut offsets = Vec::with_capacity(self.live.len() + 1);
        if self.absent.is_empty() {
            offsets.extend_from_slice(&g.offsets);
        } else {
            let mut w = 0;
            offsets.push(w);
            for &s in &self.live[..live_base] {
                for k in g.offsets[s]..g.offsets[s + 1] {
                    let u = g.neighbors[k];
                    g.neighbors[w] = rank[u];
                    g.dists[w] = g.dists[k];
                    w += usize::from(!self.dead[u]);
                }
                offsets.push(w);
            }
            g.neighbors.truncate(w);
            g.dists.truncate(w);
        }
        let end = g.neighbors.len();
        offsets.resize(self.live.len() + 1, end);

        let mut placed = Vec::with_capacity(offsets.len());
        placed.push(0);
        let mut added = 0;
        for (r, &s) in self.live.iter().enumerate() {
            added += self.app_row(s).0.iter().filter(|&&u| !self.dead[u]).count();
            placed.push(offsets[r + 1] + added);
        }
        if added > 0 {
            g.neighbors.reserve_exact(added);
            g.dists.reserve_exact(added);
            g.neighbors.resize(end + added, 0);
            g.dists.resize(end + added, 0.0);
            for (r, &s) in self.live.iter().enumerate().rev() {
                let (lo, mut i) = (offsets[r], offsets[r + 1]);
                let mut w = placed[r + 1];
                let (aids, ads) = self.app_row(s);
                for (&u, &d) in aids.iter().zip(ads).rev() {
                    if self.dead[u] {
                        continue;
                    }
                    let key = dist_order_key(d);
                    let p = lo + g.dists[lo..i].partition_point(|&x| dist_order_key(x) <= key);
                    let run = i - p;
                    g.dists.copy_within(p..i, w - run);
                    g.neighbors.copy_within(p..i, w - run);
                    w -= run + 1;
                    i = p;
                    g.dists[w] = d;
                    g.neighbors[w] = rank[u];
                }
                // Rows before the first appended entry stay put.
                if placed[r] != lo {
                    g.dists.copy_within(lo..i, placed[r]);
                    g.neighbors.copy_within(lo..i, placed[r]);
                }
            }
            offsets = placed;
        }
        g.offsets = offsets;
        g.perm = perm.filter(|p| !p.is_identity());
    }
}

/// Merges a base row and an appended row — both `(distance, slot)`-
/// sorted, disjoint — into one `(distance, slot)`-sorted sequence,
/// skipping tombstoned slots. Yields `(slot, distance, appended?)`.
struct Merge<'a> {
    base: (&'a [ObjId], &'a [f64]),
    app: (&'a [ObjId], &'a [f64]),
    dead: &'a [bool],
    i: usize,
    j: usize,
}

impl<'a> Merge<'a> {
    fn new(
        bids: &'a [ObjId],
        bds: &'a [f64],
        aids: &'a [ObjId],
        ads: &'a [f64],
        dead: &'a [bool],
    ) -> Self {
        Self {
            base: (bids, bds),
            app: (aids, ads),
            dead,
            i: 0,
            j: 0,
        }
    }
}

impl Iterator for Merge<'_> {
    type Item = (ObjId, f64, bool);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (bids, bds) = self.base;
        let (aids, ads) = self.app;
        while self.i < bids.len() && self.dead[bids[self.i]] {
            self.i += 1;
        }
        while self.j < aids.len() && self.dead[aids[self.j]] {
            self.j += 1;
        }
        let take_app = match (self.i < bids.len(), self.j < aids.len()) {
            (false, false) => return None,
            (true, false) => false,
            (false, true) => true,
            (true, true) => {
                (dist_order_key(ads[self.j]), aids[self.j])
                    < (dist_order_key(bds[self.i]), bids[self.i])
            }
        };
        if take_app {
            self.j += 1;
            Some((aids[self.j - 1], ads[self.j - 1], true))
        } else {
            self.i += 1;
            Some((bids[self.i - 1], bds[self.i - 1], false))
        }
    }
}

/// The graph `G_{P,r}` of a streaming catalog at radius `r ≤ r_max`,
/// read through its overlay without compacting it: each slot's row is
/// its base prefix at `r` ([`Adjacency::neighbors`]) plus its appended
/// prefix at `r` ([`Adjacency::appended`]), and tombstoned slots are
/// [`Adjacency::absent`]. Created by
/// [`crate::StreamingCatalog::view`]; one binary search per row, zero
/// distance computations.
///
/// The selection runners read it as a neighbour-set graph over slots and
/// report external ids, so their answers equal the answers on the
/// compacted graph, byte for byte.
#[derive(Clone, Debug)]
pub struct LiveView<'g> {
    base: StratifiedView<'g>,
    overlay: &'g Overlay,
    /// The dataset's numbering: external id → rank.
    perm: Option<&'g IdPermutation>,
    radius: f64,
    /// Length of each slot's appended prefix at `radius`; empty when no
    /// slot has appended entries.
    app_lens: Vec<usize>,
}

impl<'g> LiveView<'g> {
    /// The view at `r`; fails where [`StratifiedDiskGraph::try_view`]
    /// fails.
    pub(crate) fn new(
        graph: &'g StratifiedDiskGraph,
        overlay: &'g Overlay,
        perm: Option<&'g IdPermutation>,
        r: f64,
    ) -> Result<Self, GraphError> {
        let base = graph.try_view(r)?;
        let app_lens = if overlay.entries == 0 {
            Vec::new()
        } else {
            overlay
                .rows
                .iter()
                .map(|row| row.dists.partition_point(|&d| d <= r))
                .collect()
        };
        Ok(Self {
            base,
            overlay,
            perm,
            radius: r,
            app_lens,
        })
    }

    /// Slot of the live object with external id `external`, or `None`
    /// when it is not live.
    pub fn vertex_of(&self, external: ObjId) -> Option<ObjId> {
        let rank = match self.perm {
            Some(p) => p.internal_checked(external)?,
            None => (external < self.overlay.live.len()).then_some(external)?,
        };
        Some(self.overlay.live[rank])
    }

    /// The live slots in rank order (the dataset's internal order).
    pub fn live_vertices(&self) -> &[ObjId] {
        &self.overlay.live
    }

    /// `v`'s live neighbours within `r` with their distances, in
    /// `(distance, slot)` order — the row order of the compacted graph.
    pub fn row_in_order(&self, v: ObjId) -> impl Iterator<Item = (ObjId, f64)> + '_ {
        let (bids, bds) = if v < self.overlay.base_len {
            (self.base.neighbors(v), self.base.dists(v))
        } else {
            (&[][..], &[][..])
        };
        let k = self.appended(v).len();
        let (aids, ads) = self.overlay.app_row(v);
        Merge::new(bids, bds, &aids[..k], &ads[..k], &self.overlay.dead).map(|(u, d, _)| (u, d))
    }
}

impl Adjacency for LiveView<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.overlay.slots()
    }

    #[inline]
    fn radius(&self) -> f64 {
        self.radius
    }

    #[inline]
    fn degree(&self, v: ObjId) -> usize {
        self.neighbors(v).len() + self.appended(v).len()
    }

    #[inline]
    fn neighbors(&self, v: ObjId) -> &[ObjId] {
        if v < self.overlay.base_len {
            self.base.neighbors(v)
        } else {
            &[]
        }
    }

    #[inline]
    fn appended(&self, v: ObjId) -> &[ObjId] {
        match self.app_lens.get(v) {
            Some(&k) => &self.overlay.rows[v].ids[..k],
            None => &[],
        }
    }

    #[inline]
    fn absent(&self) -> &[ObjId] {
        &self.overlay.absent
    }

    #[inline]
    fn external_id(&self, v: ObjId) -> ObjId {
        match v.checked_sub(self.overlay.base_len) {
            Some(k) => self.overlay.added[k],
            None => self.base.external_id(v),
        }
    }
}
