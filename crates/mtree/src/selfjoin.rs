//! Batched range self-join: all pairs of indexed objects within `r`, in
//! one serial dual-tree traversal.
//!
//! The DisC heuristics are computations over the neighbourhood graph
//! `G_{P,r}` (paper Section 2.2). Deriving that graph with one range
//! query per object costs `n` root-to-leaf traversals and re-examines
//! every node pair from both sides. The self-join instead walks *node
//! pairs* top-down, visiting each unordered pair of subtrees at most
//! once, and emits every object pair `(i, j)` with `i < j` and
//! `d(i, j) ≤ r` exactly once — the edge list of `G_{P,r}`.
//!
//! The traversal itself is single-threaded. A build parallelises by
//! splitting the *dataset*: `disc-core`'s sharded build runs one
//! self-join per spatial shard (plus boundary cross-joins, see
//! [`crate::xjoin`]) as independent tasks, each charging its own tree's
//! counters.
//!
//! ## Pruning
//!
//! Three layers of bounds cut the pair space, all reusing the cached
//! distances PR 1 introduced and all charged to
//! [`MTree::distance_computations`] when they do compute a distance:
//!
//! * **covering-radius bound** — a node pair `(A, B)` with
//!   `d(p_A, p_B) > r + radius(A) + radius(B)` contains no joining pair
//!   and is discarded whole;
//! * **parent-distance bound** (gated on
//!   [`MTreeConfig::parent_pruning`](crate::MTreeConfig)) — before
//!   computing `d(p_A, p_c)` for a child `c` of `B`, the cached
//!   `d(p_c, p_B)` gives `d(p_A, p_c) ≥ |d(p_A, p_B) − d(p_c, p_B)|`;
//!   when that lower bound already exceeds `r + radius(A) + radius(c)`
//!   the child pair dies distance-free. Sibling pairs inside one node
//!   use the same lemma through their shared parent pivot.
//! * **leaf-entry bounds** — inside leaf pairs, every entry's cached
//!   pivot (and, intra-leaf, vantage) distances give exclusion *and*
//!   inclusion tests per object pair, so most pairs resolve without a
//!   fresh distance computation;
//! * **subtree inclusion** — a task whose objects are *all* pairwise
//!   within `r` (a self-task with `2 · radius ≤ r`, or a pair task with
//!   `d(p_A, p_B) + radius(A) + radius(B) ≤ r`) stops recursing and
//!   emits its complete cross product: distance-free in plain mode, at
//!   batched-kernel cost in annotated mode (every such pair is an edge,
//!   so the annotated surcharge stays bounded by the edge count).
//!
//! None of the bounds is approximate: the emitted edge set is exactly
//! the O(n²) scan's (the property tests here and in `disc-graph`, and
//! the workspace concurrency tier, pin this on all four metrics).
//!
//! ## Blocked leaf kernels
//!
//! Leaf-level work is evaluated as **block sweeps**, not per-pair
//! `PointView` calls. Every leaf stores its entries' coordinates in a
//! lane-major SoA block (see [`crate::node`]); for each left entry the
//! kernel first classifies the opposing entries with the cached-bound
//! filters above, then gathers the survivors that still need a distance
//! into a reusable scratch block and evaluates them with **one**
//! `disc_metric::Metric::dist_batch` call — one metric/dimension
//! dispatch and a vectorizable unit-stride loop per sweep, bitwise
//! identical to the scalar kernel per pair. Edges are emitted in
//! opposing-entry order regardless of whether a pair's distance came
//! from an inclusion bound or the batch, so the plain and annotated
//! edge lists stay byte-identical (annotations aside) by construction.
//! All scratch (survivor lists, gathered lanes, batch outputs) lives in
//! one arena per traversal, reused across every node pair it visits.
//!
//! ## Plain and distance-annotated output
//!
//! The traversal is generic over the edge element it emits:
//!
//! * **plain** — `(a, b)` pairs ([`MTree::range_self_join`]); inclusion
//!   shortcuts (leaf-entry and subtree) emit edges distance-free;
//! * **annotated** — [`DistEdge`] triples `(a, b, d(a, b))`
//!   ([`MTree::range_self_join_dist`] and its checked form); every edge
//!   carries its *exact* distance, so inclusion-qualified pairs fill
//!   their distances through the batched kernels instead of skipping
//!   the computation. Every distance the annotated traversal computes
//!   beyond the plain one belongs to an emitted edge, so its counter
//!   total is bounded by `plain + edges` (`disc-bench`'s `report`
//!   binary gates this). The emitted edge list — annotations stripped —
//!   is byte-identical to the plain variant's.
//!
//! The annotated variant feeds `disc-graph`'s `StratifiedDiskGraph`: one
//! self-join at the largest radius of interest yields a graph every
//! smaller radius can be read out of as a sorted-row prefix.
//!
//! ## Ordering contract
//!
//! Every edge is emitted as `(a, b)` with `a < b`, and the edge list is
//! in **task order**: the traversal is a sequence of *node-pair tasks*
//! (`Task` below — a subtree joined with itself, or two disjoint
//! subtrees joined with a known pivot distance), visited depth first;
//! the output is the concatenation of each leaf-level task's edges in
//! that order. The list, order included, and the counters it charges
//! are a pure function of the tree and `r`.

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::{Metric, ObjId};

use crate::error::JoinError;
use crate::node::{NodeId, NodeKind};
use crate::tree::MTree;

/// A distance-annotated self-join edge: `(a, b, dist(a, b))` with
/// `a < b`. The annotation is the *exact* metric distance (never a
/// bound), so downstream structures can stratify edges by radius — see
/// `disc-graph`'s `StratifiedDiskGraph`.
pub type DistEdge = (ObjId, ObjId, f64);

/// The element type a self-join traversal emits: plain `(a, b)` pairs or
/// distance-annotated [`DistEdge`]s. Mirrors the `RangeSink::NEEDS_DIST`
/// pattern in [`crate::query`]: annotated output disables the
/// distance-free *inclusion* shortcuts (which prove `d(a, b) ≤ r` from
/// cached reference distances without ever computing `d(a, b)`), so the
/// annotated traversal computes slightly more distances than the plain
/// one — every emitted edge then carries its exact distance. Exclusion
/// bounds are unaffected, and the emitted edge *list* (ignoring the
/// annotations) is byte-identical between the two modes.
trait JoinEdge: Copy {
    /// Whether emission needs the exact pair distance.
    const NEEDS_DIST: bool;
    /// Builds an edge; `d` is the exact distance when `NEEDS_DIST`,
    /// otherwise possibly just an upper bound (and ignored).
    fn make(a: ObjId, b: ObjId, d: f64) -> Self;
}

impl JoinEdge for (ObjId, ObjId) {
    const NEEDS_DIST: bool = false;
    #[inline]
    fn make(a: ObjId, b: ObjId, _d: f64) -> Self {
        (a, b)
    }
}

impl JoinEdge for DistEdge {
    const NEEDS_DIST: bool = true;
    #[inline]
    fn make(a: ObjId, b: ObjId, d: f64) -> Self {
        (a, b, d)
    }
}

/// One independent unit of traversal work: a subtree joined with
/// itself, or two disjoint subtrees joined with their pivot distance
/// already computed (and already past the covering-radius bound).
#[derive(Clone, Copy, Debug)]
enum Task {
    /// Join `node`'s subtree with itself.
    Same(NodeId),
    /// Join two distinct subtrees whose pivot distance is known.
    Pair(NodeId, NodeId, f64),
}

/// Reusable scratch arena for the blocked leaf kernels and the subtree
/// inclusion sweeps. One arena lives per traversal inside its
/// [`JoinBuf`], so no leaf pair allocates on its own.
#[derive(Default)]
struct JoinScratch {
    /// Survivors of one left entry's opposing-row filter:
    /// `(block index, distance)` — the distance slot holds an inclusion
    /// bound immediately, or is filled by the batch for candidates.
    surv: Vec<(u32, f64)>,
    /// Positions in `surv` whose distance comes from the batch kernel.
    cand: Vec<u32>,
    /// Left-phase survivors of a cross task: `(block index, d(e, p_B))`.
    left: Vec<(u32, f64)>,
    /// Gathered candidate coordinate lanes (SoA, stride = candidates).
    lanes: Vec<f64>,
    /// Batch kernel output.
    dists: Vec<f64>,
    /// DFS leaf list of a subtree sweep.
    leaves: Vec<NodeId>,
    /// Object ids of a gathered subtree (left side of an all-pair
    /// sweep / the whole block of an all-self sweep).
    ids_a: Vec<ObjId>,
    /// Object ids of the right-side gathered subtree.
    ids_b: Vec<ObjId>,
    /// SoA coordinate block matching `ids_a`.
    lanes_a: Vec<f64>,
    /// SoA coordinate block matching `ids_b`.
    lanes_b: Vec<f64>,
}

/// Traversal state: the edges found so far, the distance-computation
/// and node-access counts accrued while finding them, and the reusable
/// scratch arena. The driver flushes the counters into the tree's
/// global atomics in a single bulk charge at the end, so the global
/// totals stay exact without per-distance atomic traffic.
struct JoinBuf<E> {
    edges: Vec<E>,
    dist_comps: u64,
    accesses: u64,
    scratch: JoinScratch,
}

impl<E> Default for JoinBuf<E> {
    fn default() -> Self {
        Self {
            edges: Vec::new(),
            dist_comps: 0,
            accesses: 0,
            scratch: JoinScratch::default(),
        }
    }
}

impl<E: JoinEdge> JoinBuf<E> {
    /// Records one node access.
    #[inline]
    fn touch(&mut self) {
        self.accesses += 1;
    }

    /// Counted distance between two indexed objects.
    #[inline]
    fn dist_objs(&mut self, tree: &MTree<'_>, a: ObjId, b: ObjId) -> f64 {
        self.dist_comps += 1;
        tree.data().dist(a, b)
    }
}

/// Conservative acceptance test for the inclusion shortcuts (per-pair,
/// per-row and per-subtree). `bound` is a sum of independently rounded distances (and
/// covering radii, themselves maxima over rounded sums), so a
/// mathematically valid `bound ≤ r` could be reached through a value
/// that rounded *down* while the pair's computed distance rounds up
/// past `r` — and the shortcut's emissions must match the O(n²) scan's
/// computed-distance test exactly. Shaving a relative margin off the
/// acceptance keeps every borderline pair on the compute-and-compare
/// path instead (correct by construction). The margin scales with the
/// dimensionality because the kernels' accumulated rounding does
/// (≈ dim/2 + 2 ulps for the chunked Euclidean sum plus the sqrt, and
/// the bound side stacks a handful of rounded terms of its own);
/// `2·dim + 8` ulps covers the worst case with room. Exact cases —
/// `bound == 0` at `r == 0`, duplicate points — stay unaffected
/// because the margin scales with the bound.
#[inline]
pub(crate) fn within_inclusion(bound: f64, r: f64, dim: usize) -> bool {
    bound + bound * ((2 * dim + 8) as f64 * f64::EPSILON) <= r
}

/// Emits one edge in normalised `(min, max)` orientation. `d` is the
/// exact distance on every path that can run in annotated mode
/// (distance-free inclusion shortcuts only fire when `E::NEEDS_DIST` is
/// false, and then pass an upper bound that the plain edge type
/// discards).
#[inline]
fn push_edge_into<E: JoinEdge>(edges: &mut Vec<E>, a: ObjId, b: ObjId, d: f64) {
    if a < b {
        edges.push(E::make(a, b, d));
    } else {
        edges.push(E::make(b, a, d));
    }
}

/// Shared gather-and-batch core: gathers `m` entries of `block`
/// (lane stride derived from the block and query lengths) selected by
/// `idx` into the `lanes` scratch, then batch-evaluates their
/// distances to `q` into `dists[..m]`. Returns the distance charge
/// (`m`).
fn batch_gather(
    metric: Metric,
    q: &[f64],
    block: &[f64],
    idx: impl Fn(usize) -> usize,
    m: usize,
    lanes: &mut Vec<f64>,
    dists: &mut Vec<f64>,
) -> u64 {
    if m == 0 {
        return 0;
    }
    let dim = q.len();
    let stride = block.len() / dim;
    // No clear() first: every retained slot is overwritten by the
    // gather below, so only the grown tail needs initialising.
    lanes.resize(dim * m, 0.0);
    for d in 0..dim {
        let src = &block[d * stride..(d + 1) * stride];
        let dst = &mut lanes[d * m..(d + 1) * m];
        for (t, slot) in dst.iter_mut().enumerate() {
            *slot = src[idx(t)];
        }
    }
    dists.resize(m, 0.0);
    metric.dist_batch(q, lanes, m, &mut dists[..m]);
    m as u64
}

/// [`batch_gather`] over the survivor list's candidates: `cand` holds
/// positions in `surv` (whose first element is the entry's block
/// index); the batched distances are scattered back into the selected
/// survivors' distance slots.
fn batch_fill(
    metric: Metric,
    q: &[f64],
    block: &[f64],
    surv: &mut [(u32, f64)],
    cand: &[u32],
    lanes: &mut Vec<f64>,
    dists: &mut Vec<f64>,
) -> u64 {
    let charged = batch_gather(
        metric,
        q,
        block,
        |t| surv[cand[t] as usize].0 as usize,
        cand.len(),
        lanes,
        dists,
    );
    for (t, &pos) in cand.iter().enumerate() {
        surv[pos as usize].1 = dists[t];
    }
    charged
}

/// [`batch_gather`] for the case where *every* listed entry needs a
/// distance (the left phase of a cross task): fills the listed
/// entries' distance slots in place.
fn batch_fill_all(
    metric: Metric,
    q: &[f64],
    block: &[f64],
    list: &mut [(u32, f64)],
    lanes: &mut Vec<f64>,
    dists: &mut Vec<f64>,
) -> u64 {
    let charged = batch_gather(
        metric,
        q,
        block,
        |t| list[t].0 as usize,
        list.len(),
        lanes,
        dists,
    );
    for (t, slot) in list.iter_mut().enumerate() {
        slot.1 = dists[t];
    }
    charged
}

impl MTree<'_> {
    /// Computes the range self-join: every unordered pair of indexed
    /// objects within distance `r`, as `(i, j)` with `i < j`, each pair
    /// exactly once, in the deterministic task order described in the
    /// [module docs](self). This is the edge list of the neighbourhood
    /// graph `G_{P,r}` materialised in one traversal.
    ///
    /// # Panics
    ///
    /// If `r` is NaN or negative; [`MTree::range_self_join_dist_checked`]
    /// returns a typed error instead.
    pub fn range_self_join(&self, r: f64) -> Vec<(ObjId, ObjId)> {
        let Ok(edges) = self.join(r, None) else {
            unreachable!("cancellation is impossible without a token")
        };
        edges
    }

    /// The **distance-annotated** range self-join: the same edge list as
    /// [`MTree::range_self_join`] — same `(a, b)` with `a < b`
    /// normalisation, same deterministic task order — with every edge
    /// carrying its exact distance `d(a, b) ≤ r`.
    ///
    /// Annotation disables the leaf-level *inclusion* shortcuts (which
    /// prove `d ≤ r` from cached reference distances without computing
    /// `d`), so this traversal charges somewhat more
    /// [`MTree::distance_computations`] than the plain self-join at the
    /// same radius — the price of exact per-edge distances. Stripped of
    /// the annotations, the output is byte-identical to the plain
    /// variant's.
    ///
    /// # Panics
    ///
    /// If `r` is NaN or negative, as [`MTree::range_self_join`].
    pub fn range_self_join_dist(&self, r: f64) -> Vec<DistEdge> {
        let Ok(edges) = self.join(r, None) else {
            unreachable!("cancellation is impossible without a token")
        };
        edges
    }

    /// The fail-closed form of [`MTree::range_self_join_dist`]: validates
    /// the radius with a typed error instead of panicking, and polls an
    /// optional [`CancelToken`] once per node-pair task.
    ///
    /// On cancellation the traversal stops cleanly with
    /// [`JoinError::Cancelled`]: no partial edge list escapes, and the
    /// [`MTree::distance_computations`] / [`MTree::node_accesses`]
    /// counters reflect exactly the work performed up to the abandoned
    /// task (never more, never less), so a retried run on a fresh
    /// counter baseline is indistinguishable from a never-cancelled one.
    pub fn range_self_join_dist_checked(
        &self,
        r: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<DistEdge>, JoinError> {
        // Rejected before any traversal state is touched.
        if r.is_nan() || r < 0.0 {
            return Err(JoinError::InvalidRadius(r));
        }
        Ok(self.join(r, cancel)?)
    }

    /// The traversal behind every entry point, for both edge types:
    /// node-pair tasks depth first from `Same(root)`. The optional
    /// [`CancelToken`] is polled once per popped task, so a task runs
    /// whole or not at all, and the counters are bulk-charged with
    /// exactly the work performed — on the cancelled path too, where
    /// the partial edge list is dropped.
    fn join<E: JoinEdge>(&self, r: f64, cancel: Option<&CancelToken>) -> Result<Vec<E>, Cancelled> {
        assert!(r >= 0.0, "radius must be non-negative");
        let mut buf = JoinBuf::default();
        let mut run = Ok(());
        let mut stack = Vec::new();
        if !self.is_empty() {
            stack.push(Task::Same(self.root()));
        }
        let mut sub = Vec::new();
        while let Some(t) = stack.pop() {
            run = cancel.map_or(Ok(()), CancelToken::checkpoint);
            if run.is_err() {
                break;
            }
            if !self.step(t, r, &mut buf, &mut sub) {
                // Subtasks were produced in traversal order; the stack
                // pops in reverse, so push them reversed.
                stack.extend(sub.drain(..).rev());
            }
        }
        self.charge_accesses_bulk(buf.accesses);
        self.charge_distances_bulk(buf.dist_comps);
        run.map(|()| buf.edges)
    }

    /// Executes one level of the traversal. Leaf-level tasks run to
    /// completion (edges into `buf`) and return `true`; internal tasks
    /// push their surviving subtasks onto `out` *in traversal order*
    /// and return `false`. All pruning bounds and all counter charges
    /// happen here.
    fn step<E: JoinEdge>(
        &self,
        task: Task,
        r: f64,
        buf: &mut JoinBuf<E>,
        out: &mut Vec<Task>,
    ) -> bool {
        match task {
            Task::Same(node) => {
                let nd = self.node(node);
                // Subtree inclusion: every pair is within the node's
                // diameter bound, so the whole complete graph joins.
                // (The root's radius is unset, hence the pivot gate.)
                if nd.pivot.is_some() && within_inclusion(2.0 * nd.radius, r, self.data().dim()) {
                    self.emit_all_same(node, buf);
                    return true;
                }
                buf.touch();
                match &nd.kind {
                    NodeKind::Leaf(_) => {
                        self.join_leaf_self(node, r, buf);
                        true
                    }
                    NodeKind::Internal(children) => {
                        let lemma = self.config().parent_pruning && self.node(node).pivot.is_some();
                        for (i, &ci) in children.iter().enumerate() {
                            out.push(Task::Same(ci));
                            let ni = self.node(ci);
                            for &cj in &children[i + 1..] {
                                let nj = self.node(cj);
                                // Sibling lower bound through the shared
                                // parent pivot:
                                // d(p_i, p_j) ≥ |d(p_i, p) − d(p_j, p)|.
                                if lemma
                                    && (ni.dist_to_parent - nj.dist_to_parent).abs()
                                        > r + ni.radius + nj.radius
                                {
                                    continue;
                                }
                                let pi = ni.pivot_id();
                                let pj = nj.pivot_id();
                                let d = buf.dist_objs(self, pi, pj);
                                if d <= r + ni.radius + nj.radius {
                                    out.push(Task::Pair(ci, cj, d));
                                }
                            }
                        }
                        false
                    }
                }
            }
            Task::Pair(a, b, d_pivots) => {
                let na = self.node(a);
                let nb = self.node(b);
                // Subtree inclusion: the two covering balls fit inside
                // the query radius together, so the full cross product
                // joins without any further bound checks.
                if within_inclusion(d_pivots + na.radius + nb.radius, r, self.data().dim()) {
                    self.emit_all_pair(a, b, d_pivots, buf);
                    return true;
                }
                match (&na.kind, &nb.kind) {
                    (NodeKind::Leaf(_), NodeKind::Leaf(_)) => {
                        buf.touch();
                        buf.touch();
                        self.join_leaf_cross(a, b, d_pivots, r, buf);
                        true
                    }
                    _ => {
                        // Expand the node with the larger covering radius
                        // (its children shrink the bound the most);
                        // expand the internal one when the other is a
                        // leaf.
                        let expand_a = match (&na.kind, &nb.kind) {
                            (NodeKind::Internal(_), NodeKind::Leaf(_)) => true,
                            (NodeKind::Leaf(_), NodeKind::Internal(_)) => false,
                            _ => na.radius >= nb.radius,
                        };
                        let (fixed, expanded, d_known) = if expand_a {
                            (b, a, d_pivots)
                        } else {
                            (a, b, d_pivots)
                        };
                        buf.touch();
                        let nf = self.node(fixed);
                        let pf = nf.pivot_id();
                        let lemma = self.config().parent_pruning;
                        for &child in self.node(expanded).children() {
                            let nc = self.node(child);
                            // Parent-distance bound: d(p_f, p_c) is at
                            // least |d(p_f, p_e) − d(p_c, p_e)| for the
                            // expanded node's pivot p_e.
                            if lemma
                                && (d_known - nc.dist_to_parent).abs() > r + nf.radius + nc.radius
                            {
                                continue;
                            }
                            let pc = nc.pivot_id();
                            let d = buf.dist_objs(self, pf, pc);
                            if d <= r + nf.radius + nc.radius {
                                out.push(Task::Pair(fixed, child, d));
                            }
                        }
                        false
                    }
                }
            }
        }
    }

    /// All joining pairs within one leaf, as one block sweep per left
    /// entry. The cached-annulus bounds classify the opposing entries
    /// first (exclusion drops a pair distance-free; in plain mode
    /// inclusion resolves it distance-free too); the remaining
    /// candidates are gathered out of the leaf's SoA block and
    /// evaluated with one batched kernel call. Edges are emitted in
    /// opposing-entry order, so plain and annotated output stay
    /// byte-identical (annotations aside).
    fn join_leaf_self<E: JoinEdge>(&self, leaf: NodeId, r: f64, buf: &mut JoinBuf<E>) {
        let data = self.data();
        let (metric, dim) = (data.metric(), data.dim());
        let node = self.node(leaf);
        let entries = node.leaf_entries();
        let k = entries.len();
        let use_cached = self.config().parent_pruning && node.pivot.is_some();
        let JoinBuf {
            edges,
            dist_comps,
            scratch,
            ..
        } = buf;
        for (i, ei) in entries.iter().enumerate() {
            let m = k - i - 1;
            if m == 0 {
                break;
            }
            // Row inclusion: d(e_i, e_j) ≤ d(e_i, p) + radius ≤ r for
            // *every* remaining entry — emit the whole suffix without
            // per-pair filters (distance-free in plain mode, one
            // gather-free suffix sweep in annotated mode).
            if use_cached && within_inclusion(ei.dist_to_pivot + node.radius, r, dim) {
                if E::NEEDS_DIST {
                    scratch.dists.resize(m, 0.0);
                    metric.dist_batch(
                        data.row(ei.object),
                        &node.lanes[i + 1..],
                        k,
                        &mut scratch.dists[..m],
                    );
                    *dist_comps += m as u64;
                    for (t, ej) in entries[i + 1..].iter().enumerate() {
                        push_edge_into(edges, ei.object, ej.object, scratch.dists[t]);
                    }
                } else {
                    for ej in &entries[i + 1..] {
                        push_edge_into(
                            edges,
                            ei.object,
                            ej.object,
                            ei.dist_to_pivot + ej.dist_to_pivot,
                        );
                    }
                }
                continue;
            }
            scratch.surv.clear();
            scratch.cand.clear();
            for (j, ej) in entries.iter().enumerate().skip(i + 1) {
                if use_cached {
                    // Exclusion by any cached reference annulus
                    // (pivot, vantage, second vantage).
                    if (ei.dist_to_pivot - ej.dist_to_pivot).abs() > r
                        || (ei.dist_to_vantage - ej.dist_to_vantage).abs() > r
                        || (ei.dist_to_vantage2 - ej.dist_to_vantage2).abs() > r
                    {
                        continue;
                    }
                    // Inclusion: d(e_i, e_j) ≤ d(e_i, ref) + d(ref, e_j).
                    if !E::NEEDS_DIST {
                        let b0 = ei.dist_to_pivot + ej.dist_to_pivot;
                        let b1 = ei.dist_to_vantage + ej.dist_to_vantage;
                        let b2 = ei.dist_to_vantage2 + ej.dist_to_vantage2;
                        let bound = if within_inclusion(b0, r, dim) {
                            b0
                        } else if within_inclusion(b1, r, dim) {
                            b1
                        } else if within_inclusion(b2, r, dim) {
                            b2
                        } else {
                            f64::INFINITY
                        };
                        if bound.is_finite() {
                            scratch.surv.push((j as u32, bound));
                            continue;
                        }
                    }
                }
                scratch.cand.push(scratch.surv.len() as u32);
                scratch.surv.push((j as u32, 0.0));
            }
            if scratch.cand.len() == m {
                // Nothing filtered: sweep the suffix straight out of the
                // leaf block, no gather/scatter.
                scratch.dists.resize(m, 0.0);
                metric.dist_batch(
                    data.row(ei.object),
                    &node.lanes[i + 1..],
                    k,
                    &mut scratch.dists[..m],
                );
                *dist_comps += m as u64;
                for (t, ej) in entries[i + 1..].iter().enumerate() {
                    if scratch.dists[t] <= r {
                        push_edge_into(edges, ei.object, ej.object, scratch.dists[t]);
                    }
                }
                continue;
            }
            *dist_comps += batch_fill(
                metric,
                data.row(ei.object),
                &node.lanes,
                &mut scratch.surv,
                &scratch.cand,
                &mut scratch.lanes,
                &mut scratch.dists,
            );
            for &(j, d) in &scratch.surv {
                if d <= r {
                    push_edge_into(edges, ei.object, entries[j as usize].object, d);
                }
            }
        }
    }

    /// All joining pairs across two distinct leaves with known pivot
    /// distance `d_pivots`, as block sweeps: one batch evaluates every
    /// surviving left entry against the right pivot (turning the right
    /// scan into a cached-annulus filter per entry), then one batch per
    /// left entry evaluates its surviving right candidates.
    fn join_leaf_cross<E: JoinEdge>(
        &self,
        a: NodeId,
        b: NodeId,
        d_pivots: f64,
        r: f64,
        buf: &mut JoinBuf<E>,
    ) {
        let data = self.data();
        let (metric, dim) = (data.metric(), data.dim());
        let na = self.node(a);
        let nb = self.node(b);
        let ea = na.leaf_entries();
        let eb = nb.leaf_entries();
        let pb = nb.pivot_id();
        let lemma = self.config().parent_pruning;
        let JoinBuf {
            edges,
            dist_comps,
            scratch,
            ..
        } = buf;
        // Left phase: d(e1, anything in B) ≥ d(p_A, p_B) − d(e1, p_A)
        // − radius(B) prefilters, one batch computes the survivors'
        // pivot distances d(e1, p_B).
        scratch.left.clear();
        for (i, e1) in ea.iter().enumerate() {
            if lemma && d_pivots - e1.dist_to_pivot - nb.radius > r {
                continue;
            }
            scratch.left.push((i as u32, 0.0));
        }
        *dist_comps += batch_fill_all(
            metric,
            data.row(pb),
            &na.lanes,
            &mut scratch.left,
            &mut scratch.lanes,
            &mut scratch.dists,
        );
        let kb = eb.len();
        for t in 0..scratch.left.len() {
            let (i, d1b) = scratch.left[t];
            if d1b > r + nb.radius {
                continue;
            }
            let e1 = &ea[i as usize];
            // Row inclusion: d(e1, e2) ≤ d(e1, p_B) + radius(B) ≤ r for
            // *all* of B — emit the whole opposing row without per-pair
            // filters (distance-free in plain mode, one gather-free
            // block sweep in annotated mode).
            if lemma && within_inclusion(d1b + nb.radius, r, dim) {
                if E::NEEDS_DIST {
                    scratch.dists.resize(kb, 0.0);
                    metric.dist_batch(data.row(e1.object), &nb.lanes, kb, &mut scratch.dists[..kb]);
                    *dist_comps += kb as u64;
                    for (j, e2) in eb.iter().enumerate() {
                        push_edge_into(edges, e1.object, e2.object, scratch.dists[j]);
                    }
                } else {
                    for e2 in eb {
                        push_edge_into(edges, e1.object, e2.object, d1b + e2.dist_to_pivot);
                    }
                }
                continue;
            }
            scratch.surv.clear();
            scratch.cand.clear();
            for (j, e2) in eb.iter().enumerate() {
                if lemma {
                    if (d1b - e2.dist_to_pivot).abs() > r {
                        continue;
                    }
                    if !E::NEEDS_DIST && within_inclusion(d1b + e2.dist_to_pivot, r, dim) {
                        scratch.surv.push((j as u32, d1b + e2.dist_to_pivot));
                        continue;
                    }
                }
                scratch.cand.push(scratch.surv.len() as u32);
                scratch.surv.push((j as u32, 0.0));
            }
            if scratch.cand.len() == kb {
                // Nothing filtered: sweep B's whole block directly.
                scratch.dists.resize(kb, 0.0);
                metric.dist_batch(data.row(e1.object), &nb.lanes, kb, &mut scratch.dists[..kb]);
                *dist_comps += kb as u64;
                for (j, e2) in eb.iter().enumerate() {
                    if scratch.dists[j] <= r {
                        push_edge_into(edges, e1.object, e2.object, scratch.dists[j]);
                    }
                }
                continue;
            }
            *dist_comps += batch_fill(
                metric,
                data.row(e1.object),
                &nb.lanes,
                &mut scratch.surv,
                &scratch.cand,
                &mut scratch.lanes,
                &mut scratch.dists,
            );
            for &(j, d) in &scratch.surv {
                if d <= r {
                    push_edge_into(edges, e1.object, eb[j as usize].object, d);
                }
            }
        }
    }

    /// Depth-first subtree enumeration feeding the inclusion sweeps:
    /// appends every object under `node` to `ids` (leaf-chain order
    /// within the subtree), records the visited leaves, and charges one
    /// access per visited node.
    fn gather_subtree(
        &self,
        node: NodeId,
        accesses: &mut u64,
        ids: &mut Vec<ObjId>,
        leaves: &mut Vec<NodeId>,
    ) {
        *accesses += 1;
        match &self.node(node).kind {
            NodeKind::Leaf(entries) => {
                leaves.push(node);
                ids.extend(entries.iter().map(|e| e.object));
            }
            NodeKind::Internal(children) => {
                for &c in children {
                    self.gather_subtree(c, accesses, ids, leaves);
                }
            }
        }
    }

    /// Concatenates the SoA blocks of the gathered leaves into one
    /// lane-major block of `m` points (stride `m`), matching the id
    /// order [`MTree::gather_subtree`] produced. Pure `memcpy`s — each
    /// leaf lane is contiguous in both source and destination.
    fn fill_subtree_lanes(&self, leaves: &[NodeId], m: usize, lanes: &mut Vec<f64>) {
        let dim = self.data().dim();
        // No clear(): every slot is overwritten by the copies below.
        lanes.resize(dim * m, 0.0);
        for d in 0..dim {
            let mut cur = d * m;
            for &leaf in leaves {
                let node = self.node(leaf);
                let k = node.len();
                lanes[cur..cur + k].copy_from_slice(&node.lanes[d * k..(d + 1) * k]);
                cur += k;
            }
        }
    }

    /// Emits the complete graph on `node`'s subtree — every pair is
    /// within the diameter bound `2 · radius ≤ r`. Plain mode emits all
    /// pairs distance-free; annotated mode fills exact distances with
    /// one batched prefix sweep per object (every one of them an edge,
    /// so the surcharge is bounded by the emitted edge count). Pair
    /// order: `(ids[i], ids[j])` for `j` ascending, `i < j`.
    fn emit_all_same<E: JoinEdge>(&self, node: NodeId, buf: &mut JoinBuf<E>) {
        let data = self.data();
        let metric = data.metric();
        let bound = 2.0 * self.node(node).radius;
        let JoinBuf {
            edges,
            dist_comps,
            accesses,
            scratch,
        } = buf;
        scratch.ids_a.clear();
        scratch.leaves.clear();
        self.gather_subtree(node, accesses, &mut scratch.ids_a, &mut scratch.leaves);
        let ids = &scratch.ids_a;
        let m = ids.len();
        if E::NEEDS_DIST {
            self.fill_subtree_lanes(&scratch.leaves, m, &mut scratch.lanes_a);
            for j in 1..m {
                scratch.dists.resize(j, 0.0);
                metric.dist_batch(
                    data.row(ids[j]),
                    &scratch.lanes_a,
                    m,
                    &mut scratch.dists[..j],
                );
                *dist_comps += j as u64;
                for i in 0..j {
                    push_edge_into(edges, ids[i], ids[j], scratch.dists[i]);
                }
            }
        } else {
            for j in 1..m {
                for i in 0..j {
                    push_edge_into(edges, ids[i], ids[j], bound);
                }
            }
        }
    }

    /// Emits the full cross product of two subtrees — every cross pair
    /// is within `d_pivots + radius(A) + radius(B) ≤ r`. Plain mode is
    /// distance-free; annotated mode batches each left object against
    /// the gathered right block. Pair order: left objects outer (subtree
    /// order of `a`), right objects inner (subtree order of `b`).
    fn emit_all_pair<E: JoinEdge>(
        &self,
        a: NodeId,
        b: NodeId,
        d_pivots: f64,
        buf: &mut JoinBuf<E>,
    ) {
        let data = self.data();
        let metric = data.metric();
        let bound = d_pivots + self.node(a).radius + self.node(b).radius;
        let JoinBuf {
            edges,
            dist_comps,
            accesses,
            scratch,
        } = buf;
        scratch.ids_a.clear();
        scratch.leaves.clear();
        self.gather_subtree(a, accesses, &mut scratch.ids_a, &mut scratch.leaves);
        scratch.ids_b.clear();
        scratch.leaves.clear();
        self.gather_subtree(b, accesses, &mut scratch.ids_b, &mut scratch.leaves);
        let (ids_a, ids_b) = (&scratch.ids_a, &scratch.ids_b);
        let mb = ids_b.len();
        if E::NEEDS_DIST {
            self.fill_subtree_lanes(&scratch.leaves, mb, &mut scratch.lanes_b);
            for &x in ids_a {
                scratch.dists.resize(mb, 0.0);
                metric.dist_batch(data.row(x), &scratch.lanes_b, mb, &mut scratch.dists[..mb]);
                *dist_comps += mb as u64;
                for (t, &y) in ids_b.iter().enumerate() {
                    push_edge_into(edges, x, y, scratch.dists[t]);
                }
            }
        } else {
            for &x in ids_a {
                for &y in ids_b {
                    push_edge_into(edges, x, y, bound);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MTreeConfig;
    use disc_metric::{Dataset, Metric, Point};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};
    use std::sync::Barrier;

    fn random_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        Dataset::new("random", Metric::Euclidean, pts)
    }

    /// Brute-force edge list, sorted.
    fn scan_edges(data: &Dataset, r: f64) -> Vec<(ObjId, ObjId)> {
        let mut edges = Vec::new();
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                if data.dist(i, j) <= r {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    fn sorted(mut edges: Vec<(ObjId, ObjId)>) -> Vec<(ObjId, ObjId)> {
        edges.sort_unstable();
        edges
    }

    fn strip(edges: &[DistEdge]) -> Vec<(ObjId, ObjId)> {
        edges.iter().map(|&(a, b, _)| (a, b)).collect()
    }

    /// Runs `join` on `threads` scoped threads that a barrier releases
    /// together, as the sharded build's tasks share trees and one
    /// cancel token, and returns every thread's output.
    fn concurrently<T: Send>(threads: usize, join: impl Fn() -> T + Sync) -> Vec<T> {
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        join()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join thread panicked"))
                .collect()
        })
    }

    #[test]
    fn self_join_matches_scan() {
        let data = random_data(250, 31);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        for r in [0.0, 0.03, 0.1, 0.4, 1.5] {
            let got = sorted(tree.range_self_join(r));
            assert_eq!(got, scan_edges(&data, r), "r={r}");
        }
    }

    #[test]
    fn self_join_matches_scan_without_parent_pruning() {
        let data = random_data(200, 32);
        let tree = MTree::build(
            &data,
            MTreeConfig::with_capacity(6).with_parent_pruning(false),
        );
        for r in [0.05, 0.2] {
            assert_eq!(sorted(tree.range_self_join(r)), scan_edges(&data, r));
        }
    }

    #[test]
    fn self_join_emits_each_pair_once() {
        let data = random_data(300, 33);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let edges = tree.range_self_join(0.15);
        let mut seen = std::collections::HashSet::new();
        for &(i, j) in &edges {
            assert!(i < j, "normalised order");
            assert!(seen.insert((i, j)), "duplicate edge ({i}, {j})");
        }
    }

    #[test]
    fn self_join_computes_fewer_distances_than_all_pairs() {
        let data = random_data(600, 34);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(16));
        tree.reset_distance_computations();
        let edges = tree.range_self_join(0.05);
        let dc = tree.reset_distance_computations();
        let n = data.len() as u64;
        assert!(
            dc < n * (n - 1) / 2,
            "self-join {dc} distances vs all-pairs {}",
            n * (n - 1) / 2
        );
        assert!(!edges.is_empty());
    }

    #[test]
    fn self_join_charges_node_accesses() {
        let data = random_data(150, 35);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        tree.reset_node_accesses();
        let _ = tree.range_self_join(0.1);
        assert!(tree.node_accesses() > 0);
    }

    #[test]
    fn single_object_and_tiny_trees() {
        let one = Dataset::new("one", Metric::Euclidean, vec![Point::new2(0.5, 0.5)]);
        let tree = MTree::build(&one, MTreeConfig::default());
        assert!(tree.range_self_join(10.0).is_empty());
        assert!(tree.range_self_join_dist(10.0).is_empty());

        let two = Dataset::new(
            "two",
            Metric::Euclidean,
            vec![Point::new2(0.0, 0.0), Point::new2(0.5, 0.0)],
        );
        let tree = MTree::build(&two, MTreeConfig::default());
        assert_eq!(tree.range_self_join(1.0), vec![(0, 1)]);
        assert!(tree.range_self_join(0.1).is_empty());
    }

    #[test]
    fn duplicate_points_join_at_radius_zero() {
        let data = Dataset::new(
            "dups",
            Metric::Euclidean,
            vec![
                Point::new2(0.3, 0.3),
                Point::new2(0.3, 0.3),
                Point::new2(0.9, 0.9),
            ],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(2));
        assert_eq!(sorted(tree.range_self_join(0.0)), vec![(0, 1)]);
    }

    #[test]
    fn all_duplicate_points_form_complete_graph_at_radius_zero() {
        // Degenerate input: every point identical, so every pair joins
        // even at r = 0 (zero-distance tie handling must not drop or
        // double pairs), with a tree deep enough to force splits.
        let n = 40;
        let data = Dataset::new(
            "all-dups",
            Metric::Euclidean,
            vec![Point::new2(0.5, 0.5); n],
        );
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        let want = scan_edges(&data, 0.0);
        assert_eq!(want.len(), n * (n - 1) / 2);
        assert_eq!(sorted(tree.range_self_join(0.0)), want);
        let annotated = tree.range_self_join_dist(0.0);
        assert_eq!(sorted(strip(&annotated)), want);
        assert!(annotated.iter().all(|&(_, _, d)| d == 0.0));
    }

    #[test]
    fn radius_at_least_diameter_yields_complete_graph() {
        let data = random_data(80, 36);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        // The unit square's diameter is √2 < 2.0.
        let edges = tree.range_self_join(2.0);
        assert_eq!(edges.len(), 80 * 79 / 2);
        assert_eq!(strip(&tree.range_self_join_dist(2.0)), edges);
    }

    #[test]
    fn parallel_charges_exactly_the_serial_counters() {
        // Joins running at once on one shared tree (the sharded build's
        // boundary joins share trees the same way) each return the lone
        // join's edge list, and the tree's counters add up to exactly
        // `threads` lone joins: no bulk charge is lost or doubled.
        let data = random_data(500, 38);
        for parent_pruning in [true, false] {
            let tree = MTree::build(
                &data,
                MTreeConfig::with_capacity(9).with_parent_pruning(parent_pruning),
            );
            tree.reset_distance_computations();
            tree.reset_node_accesses();
            let lone = tree.range_self_join(0.08);
            let lone_dc = tree.reset_distance_computations();
            let lone_acc = tree.reset_node_accesses();
            assert!(lone_dc > 0);
            for threads in [2, 3, 8] {
                for edges in concurrently(threads, || tree.range_self_join(0.08)) {
                    assert_eq!(edges, lone, "threads={threads}");
                }
                let k = threads as u64;
                assert_eq!(
                    tree.reset_distance_computations(),
                    k * lone_dc,
                    "distance comps, threads={threads}"
                );
                assert_eq!(
                    tree.reset_node_accesses(),
                    k * lone_acc,
                    "node accesses, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn subtree_inclusion_shortcut_is_exact() {
        // Tight clusters far apart: whole cluster subtrees fall inside
        // the radius (self and cross inclusion both fire), yet the edge
        // set must equal the scan's and annotations must stay exact.
        let mut rng = StdRng::seed_from_u64(55);
        let mut pts = Vec::new();
        for c in 0..6 {
            let (cx, cy) = ((c % 3) as f64 * 0.45, (c / 3) as f64 * 0.9);
            for _ in 0..40 {
                pts.push(Point::new2(
                    cx + rng.random_range(0.0..0.01),
                    cy + rng.random_range(0.0..0.01),
                ));
            }
        }
        let data = Dataset::new("clusters", Metric::Euclidean, pts);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
        // Radii chosen so whole-cluster (0.05), cross-cluster (0.5) and
        // everything (2.0) trigger the inclusion shortcuts.
        for r in [0.05, 0.5, 2.0] {
            let plain = tree.range_self_join(r);
            assert_eq!(sorted(plain.clone()), scan_edges(&data, r), "r={r}");
            let annotated = tree.range_self_join_dist(r);
            for &(a, b, d) in &annotated {
                assert_eq!(d.to_bits(), data.dist(a, b).to_bits(), "({a}, {b}) r={r}");
            }
            assert_eq!(strip(&annotated), plain, "r={r}");
        }
    }

    #[test]
    fn dist_join_strips_to_plain_edge_list() {
        // The annotated edge list, annotations removed, is byte-identical
        // to the plain one (same edges, same task order), with and
        // without the parent-distance lemma.
        let data = random_data(280, 50);
        for parent_pruning in [true, false] {
            let tree = MTree::build(
                &data,
                MTreeConfig::with_capacity(7).with_parent_pruning(parent_pruning),
            );
            for r in [0.0, 0.05, 0.2, 2.0] {
                let plain = tree.range_self_join(r);
                let annotated = tree.range_self_join_dist(r);
                assert_eq!(strip(&annotated), plain, "lemma={parent_pruning} r={r}");
            }
        }
    }

    #[test]
    fn dist_join_annotations_are_exact_distances() {
        let data = random_data(220, 51);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        for r in [0.0, 0.08, 0.3] {
            for (a, b, d) in tree.range_self_join_dist(r) {
                assert!(a < b);
                assert!(d <= r);
                // Exact, not a bound: bitwise equal to the dataset's
                // distance kernel (the stratified prefix views rely on
                // this).
                assert_eq!(d.to_bits(), data.dist(a, b).to_bits(), "({a}, {b})");
            }
        }
    }

    #[test]
    fn dist_join_costs_more_but_bounded_by_all_pairs() {
        // Annotation disables the inclusion shortcuts, so it computes at
        // least as many distances as the plain traversal, but still far
        // fewer than the O(n²) scan on a sparse radius.
        let data = random_data(600, 52);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(16));
        tree.reset_distance_computations();
        let plain = tree.range_self_join(0.05);
        let plain_dc = tree.reset_distance_computations();
        let annotated = tree.range_self_join_dist(0.05);
        let annotated_dc = tree.reset_distance_computations();
        assert_eq!(plain.len(), annotated.len());
        assert!(annotated_dc >= plain_dc);
        let n = data.len() as u64;
        assert!(annotated_dc < n * (n - 1) / 2);
    }

    #[test]
    fn parallel_dist_join_is_byte_identical_with_exact_counters() {
        // The annotated counterpart of
        // `parallel_charges_exactly_the_serial_counters`: concurrent
        // joins on one tree return the lone join's list, f64
        // annotations included, and charge exactly `threads` lone joins.
        let data = random_data(400, 53);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(9));
        for r in [0.0, 0.08, 2.0] {
            tree.reset_distance_computations();
            tree.reset_node_accesses();
            let lone = tree.range_self_join_dist(r);
            let lone_dc = tree.reset_distance_computations();
            let lone_acc = tree.reset_node_accesses();
            for threads in [2, 3, 8] {
                for edges in concurrently(threads, || tree.range_self_join_dist(r)) {
                    assert_eq!(edges, lone, "threads={threads} r={r}");
                }
                let k = threads as u64;
                assert_eq!(
                    tree.reset_distance_computations(),
                    k * lone_dc,
                    "dc threads={threads} r={r}"
                );
                assert_eq!(
                    tree.reset_node_accesses(),
                    k * lone_acc,
                    "accesses threads={threads} r={r}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The self-join equals the O(n²) scan for arbitrary data, radii
        /// and node capacities, with and without the parent-distance
        /// lemma.
        #[test]
        fn self_join_is_exact(seed in 0u64..1000, r in 0.0..0.7f64, cap in 2usize..12) {
            let data = random_data(120, seed);
            let want = scan_edges(&data, r);
            let lemma = MTree::build(&data, MTreeConfig::with_capacity(cap));
            prop_assert_eq!(&sorted(lemma.range_self_join(r)), &want);
            let plain = MTree::build(
                &data,
                MTreeConfig::with_capacity(cap).with_parent_pruning(false),
            );
            prop_assert_eq!(&sorted(plain.range_self_join(r)), &want);
        }

        /// The annotated traversal emits the plain edge list (stripped)
        /// with exact distances for arbitrary inputs.
        #[test]
        fn dist_self_join_is_exact(
            seed in 0u64..1000,
            r in 0.0..0.5f64,
            cap in 2usize..12,
        ) {
            let data = random_data(100, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let annotated = tree.range_self_join_dist(r);
            prop_assert_eq!(&strip(&annotated), &tree.range_self_join(r));
            for &(a, b, d) in &annotated {
                prop_assert_eq!(d.to_bits(), data.dist(a, b).to_bits());
            }
        }
    }

    // ------------------------------------------------------------------
    // Checked entry point: typed radius validation and cancellation
    // ------------------------------------------------------------------

    #[test]
    fn checked_rejects_nan_and_negative_radius() {
        let data = random_data(60, 1);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_distance_computations();
        for r in [f64::NAN, -0.5, f64::NEG_INFINITY] {
            let err = tree.range_self_join_dist_checked(r, None).unwrap_err();
            assert!(matches!(err, JoinError::InvalidRadius(_)), "r={r}: {err}");
        }
        // Rejection happens before any traversal state is touched.
        assert_eq!(tree.reset_distance_computations(), 0);
    }

    #[test]
    fn checked_without_token_matches_the_plain_join() {
        let data = random_data(200, 7);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_distance_computations();
        tree.reset_node_accesses();
        let plain = tree.range_self_join_dist(0.3);
        let plain_dc = tree.reset_distance_computations();
        let plain_acc = tree.reset_node_accesses();
        let checked = tree
            .range_self_join_dist_checked(0.3, None)
            .expect("uncancelled join succeeds");
        assert_eq!(checked, plain);
        assert_eq!(tree.reset_distance_computations(), plain_dc);
        assert_eq!(tree.reset_node_accesses(), plain_acc);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_distance_work() {
        let data = random_data(200, 3);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_distance_computations();
        tree.reset_node_accesses();
        let token = CancelToken::new();
        token.cancel();
        let err = tree
            .range_self_join_dist_checked(0.3, Some(&token))
            .unwrap_err();
        assert_eq!(err, JoinError::Cancelled);
        assert_eq!(tree.distance_computations(), 0);
        assert_eq!(tree.node_accesses(), 0);
    }

    #[test]
    fn mid_build_cancellation_is_clean_and_counters_stay_exact() {
        let data = random_data(300, 11);
        let tree = MTree::build(&data, MTreeConfig::default());

        // Reference: the full run's exact counters and output.
        tree.reset_distance_computations();
        tree.reset_node_accesses();
        let full = tree
            .range_self_join_dist_checked(0.3, None)
            .expect("uncancelled join succeeds");
        let full_dc = tree.reset_distance_computations();
        let full_na = tree.reset_node_accesses();
        assert!(full_dc > 0 && !full.is_empty());

        // Cancel deterministically mid-traversal: the check budget trips
        // after a handful of tasks, long before the join completes.
        let token = CancelToken::with_check_budget(5);
        let err = tree
            .range_self_join_dist_checked(0.3, Some(&token))
            .unwrap_err();
        assert_eq!(err, JoinError::Cancelled);
        let cancelled_dc = tree.reset_distance_computations();
        let cancelled_na = tree.reset_node_accesses();
        // Partial work is charged, but never more than the full run.
        assert!(cancelled_dc < full_dc, "{cancelled_dc} vs {full_dc}");
        assert!(cancelled_na < full_na, "{cancelled_na} vs {full_na}");

        // No poisoned state: a retry on the same tree reproduces the
        // full run byte-for-byte with the exact reference counters.
        let retry = tree
            .range_self_join_dist_checked(0.3, None)
            .expect("retry after cancellation succeeds");
        assert_eq!(retry, full);
        assert_eq!(tree.reset_distance_computations(), full_dc);
        assert_eq!(tree.reset_node_accesses(), full_na);
    }

    #[test]
    fn parallel_cancellation_leaves_no_partial_state() {
        // Joins sharing one token, as the sharded build's tasks do: a
        // budget that trips mid-traversal stops every one of them with
        // `Cancelled`, each charges less than a full run, and a retry on
        // the same tree is byte-identical to an uncancelled join.
        let data = random_data(400, 13);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_distance_computations();
        let full = tree.range_self_join_dist(0.3);
        let full_dc = tree.reset_distance_computations();

        let threads = 4;
        let token = CancelToken::with_check_budget(10);
        for result in concurrently(threads, || {
            tree.range_self_join_dist_checked(0.3, Some(&token))
        }) {
            assert_eq!(result, Err(JoinError::Cancelled));
        }
        let cancelled_dc = tree.reset_distance_computations();
        assert!(cancelled_dc < full_dc, "{cancelled_dc} vs {full_dc}");

        let retry = tree
            .range_self_join_dist_checked(0.3, None)
            .expect("retry after cancellation succeeds");
        assert_eq!(retry, full);
        assert_eq!(tree.reset_distance_computations(), full_dc);
    }

    #[test]
    fn expired_deadline_cancels_the_join() {
        let data = random_data(200, 17);
        let tree = MTree::build(&data, MTreeConfig::default());
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = tree
            .range_self_join_dist_checked(0.3, Some(&token))
            .unwrap_err();
        assert_eq!(err, JoinError::Cancelled);
    }
}
