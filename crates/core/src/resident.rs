//! Graph-resident selection loops: the paper's heuristics executed over
//! a materialised graph with **zero tree queries**.
//!
//! The tree-backed runners in [`crate::greedy`] and [`crate::cover`]
//! re-derive neighbourhoods with M-tree range queries on every
//! selection round. When the whole graph `G_{P,r}` is needed anyway — a
//! full Greedy-DisC or Greedy-C run consumes every neighbourhood at
//! least once — it is cheaper to materialise `G_{P,r}` once (one
//! [`range_self_join`](disc_mtree::MTree::range_self_join) traversal)
//! and run the selection loop over CSR adjacency. The trade:
//!
//! * **graph-resident** — pays the self-join up front (memory: one CSR,
//!   8 bytes per directed edge; 16 for the distance-annotated
//!   stratified variant) and then selects with pure array scans; total
//!   distance computations equal the self-join's, typically far below
//!   the tree-backed run's. Fixed-radius workloads use a
//!   [`UnitDiskGraph`]; workloads whose radius **changes between
//!   selections** — zoom-in/zoom-out sweeps, per-object radii — use a
//!   [`StratifiedDiskGraph`] built once at the largest radius of
//!   interest, whose `(distance, id)`-sorted rows answer every smaller
//!   radius as a prefix (the former "each radius would need its own
//!   graph" limitation of this module is thereby resolved). The
//!   **annotation surcharge** of that build — exact distances disable
//!   the distance-free inclusion shortcuts — is bounded: every
//!   annotated distance beyond the plain self-join belongs to an
//!   emitted edge, and those inclusion-qualified pairs are evaluated by
//!   the M-tree's batched SoA leaf sweeps rather than per-pair calls,
//!   while the CSR rows sort by a radix pass on the `f64` bit image
//!   instead of a float comparator. On the fig9 clustered 10k workload
//!   at `r_max = 0.08` the stratified build runs 7.67M distance
//!   computations (plain join 2.85M + ≤ 1 per edge, 6.04M edges) in
//!   ≈ 0.5 s — down 3× from the 1.61 s the PR 4 pipeline recorded — and
//!   a whole multi-radius zoom sweep still adds **zero** distance
//!   computations on top (`zoom_graph_vs_tree` gates both properties).
//! * **tree-backed** — no edge materialisation, so it wins when memory
//!   is tight or when only a small part of the graph will be consumed
//!   (local zooms, early termination).
//!
//! The runners reuse the tree pipeline's [`LazyMaxHeap`] and a
//! `ColorState`-style colour array, and keep the same deterministic
//! tie-breaking (largest count first, smallest id on ties), so
//! [`greedy_disc_graph`] is pinned **byte-identical** to the exact
//! tree-backed Greedy-DisC variants and [`greedy_c_graph`] to
//! Greedy-C. [`fast_c_graph`] keeps Fast-C's lazy-update strategy
//! (no per-grey cascades, pop-time revalidation) but — because CSR
//! adjacency is exact where Fast-C's truncated climbs are not — its
//! solutions also coincide with Greedy-C's.
//!
//! Every candidate enters the heap once, at seeding. The exact runners
//! then only decrement a `counts` array — one branch-free
//! `counts[w] -= u32::from(…)` per adjacency entry, since a colour
//! branch mispredicts on `(distance, id)`-ordered view rows — and the
//! heap's [`LazyMaxHeap::pop_valid`] re-queues any entry whose stored
//! key has fallen behind its count, so each pop is still the exact
//! (count desc, external rank asc) maximum. Fast-C keeps no counts at
//! all: its pop-time key is a scan of the candidate's row.
//!
//! ## The id-set runners take any [`Adjacency`]
//!
//! [`greedy_disc_graph`], [`greedy_c_graph`], [`fast_c_graph`] and their
//! `_checked` twins are generic over [`Adjacency`]. They read each row
//! as a neighbour *set* — one colour test or count per entry — and break
//! ties through the heap by external rank, so the row order never
//! reaches the output. A [`StratifiedView`]'s `(distance, id)`-sorted
//! prefixes therefore give the same result as the id-sorted rows of the
//! same view copied into a [`UnitDiskGraph`]
//! ([`StratifiedView::to_unit_disk_graph`]); the `view_parity` suite
//! pins that equality. Serving relies on it: `disc-cli` solves each zoom
//! on [`StratifiedDiskGraph::try_view`] directly — one binary search per
//! row, then the greedy scan — with no per-request edge list or CSR.
//!
//! ## Graph-resident zooming and multi-radius selection
//!
//! [`zoom_in_graph`] / [`greedy_zoom_in_graph`], [`zoom_out_graph`] and
//! [`multi_radius_graph`] execute the adaptive-radius algorithms of
//! paper Sections 3, 5.2 and 8 over one [`StratifiedDiskGraph`]:
//!
//! * the Zooming Rule's closest-black test (is a black within `r'`?)
//!   becomes the union of the blacks' adjacency prefixes at `r'` — one
//!   prefix scan per black object instead of one range query per black
//!   ([`zoom_in_graph`]);
//! * coverage at the new radius reads the adjacency prefix at `r'`
//!   instead of issuing `Q(p, r')` queries;
//! * the multi-radius `min(r(p), r(q))` edge rule becomes a per-edge
//!   distance filter over the prefix at `r(p)`.
//!
//! All of them are pinned byte-identical (same solutions, in order) to
//! their tree-backed counterparts in [`crate::zoom_in`],
//! [`crate::zoom_out`] and [`crate::multi_radius`]; the leaf-order
//! variants take the `&MTree` as well, but consult it **only** for the
//! leaf-chain iteration order — never for queries — and charge zero
//! node accesses.
//!
//! ## Internal vs external ids
//!
//! A graph built from a leaf-order-renumbered dataset (see
//! [`disc_metric::Dataset::renumbered`]) carries the internal↔external
//! bijection. The runners here scan adjacency, colours and counts in
//! *internal* ids (contiguous CSR rows, warm cache lines) and translate
//! exactly once at the API boundary: every id **entering** a runner
//! (`prev.solution`, per-object `radii`) is in external numbering and is
//! internalised up front; every id **leaving** (`solution` vectors) is
//! externalised at push. Tie-breaking uses the external id as the rank
//! (via [`LazyMaxHeap::push_ranked`]), so solutions are byte-identical
//! in external numbering whether or not the graph was renumbered. The
//! `&MTree` passed alongside a renumbered graph must share the graph's
//! internal numbering (i.e. be the [`MTree::relabeled`] tree) — its leaf
//! order is then exactly `0..n`, so the leaf-order passes degrade into
//! sequential row scans.
//!
//! [`UnitDiskGraph`]: disc_graph::UnitDiskGraph
//! [`StratifiedView`]: disc_graph::StratifiedView
//! [`StratifiedView::to_unit_disk_graph`]: disc_graph::StratifiedView::to_unit_disk_graph

use disc_graph::{Adjacency, LiveView, StratifiedDiskGraph};
use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;
use disc_mtree::{Color, MTree};

use crate::heap::LazyMaxHeap;
use crate::multi_radius::{check_radii_len, mean_radius};
use crate::result::{DiscResult, ZoomResult};
use crate::zoom_out::ZoomOutVariant;
use crate::{checkpoint, never_cancelled};

/// Greedy-DisC (Algorithm 1) over any [`Adjacency`] — a
/// [`UnitDiskGraph`](disc_graph::UnitDiskGraph) or a prefix view
/// ([`StratifiedDiskGraph::view`]). Identical solutions to the exact
/// tree-backed variants
/// ([`crate::greedy_disc`] with [`crate::GreedyVariant::Grey`] or
/// [`crate::GreedyVariant::White`]) and to
/// [`disc_graph::reference::greedy_disc_ref`]; no node accesses.
pub fn greedy_disc_graph(g: &impl Adjacency) -> DiscResult {
    never_cancelled(greedy_disc_graph_checked(g, None))
}

/// [`greedy_disc_graph`] polling a [`CancelToken`] once per selection
/// round: a fired deadline returns `Err(Cancelled)` mid-scan with no
/// partial solution escaping. Byte-identical to the plain runner when
/// the token never cancels.
pub fn greedy_disc_graph_checked(
    g: &impl Adjacency,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    let n = g.len();
    let mut color = vec![Color::White; n];
    // counts[v] = |N_r(v) ∩ white|, exact throughout.
    let mut counts: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    let mut white = n - take_out_absent(g, &mut color, &mut counts, Color::Grey);
    let mut heap = LazyMaxHeap::with_capacity(white);
    for (id, &c) in counts.iter().enumerate() {
        if color[id] == Color::White {
            heap.push_ranked(id, g.external_id(id), c);
        }
    }
    let mut newly_grey: Vec<ObjId> = Vec::new();
    let mut solution = Vec::new();
    while white > 0 {
        checkpoint(cancel)?;
        let picked = match heap.pop_valid(|id| (color[id] == Color::White).then(|| counts[id])) {
            Some(p) => p,
            None => unreachable!("white objects remain, so the heap holds a candidate"),
        };
        color[picked] = Color::Black;
        white -= 1;
        newly_grey.clear();
        for part in row(g, picked) {
            newly_grey.extend(part.iter().copied().filter(|&u| color[u] == Color::White));
        }
        for &u in &newly_grey {
            color[u] = Color::Grey;
            white -= 1;
        }
        // No heap push: `pop_valid` catches up with the fallen counts.
        for &u in &newly_grey {
            for part in row(g, u) {
                for &w in part {
                    debug_assert!(
                        color[w] != Color::White || counts[w] > 0,
                        "exact counts cannot underflow"
                    );
                    counts[w] -= u32::from(color[w] == Color::White);
                }
            }
        }
        solution.push(g.external_id(picked));
    }
    Ok(DiscResult {
        radius: g.radius(),
        heuristic: "G-DisC (Graph)".into(),
        solution,
        node_accesses: 0,
    })
}

/// `v`'s row in an [`Adjacency`]: the laid-out part and the appended
/// part, each read as a plain slice so the hot loops stay two tight
/// loops.
#[inline]
pub(crate) fn row<G: Adjacency>(g: &G, v: ObjId) -> [&[ObjId]; 2] {
    [g.neighbors(v), g.appended(v)]
}

/// Takes [`Adjacency::absent`] vertices out before seeding: each is
/// coloured `fill` — a colour the runner never picks and never counts
/// as white — and the white-neighbour count of each of its neighbours
/// that is still white drops by one. Returns how many were taken out.
fn take_out_absent<G: Adjacency>(
    g: &G,
    color: &mut [Color],
    counts: &mut [u32],
    fill: Color,
) -> usize {
    let absent = g.absent();
    for &a in absent {
        color[a] = fill;
    }
    for &a in absent {
        for part in row(g, a) {
            for &w in part {
                counts[w] -= u32::from(color[w] == Color::White);
            }
        }
    }
    absent.len()
}

/// Selection key of the coverage heuristics: white neighbours plus one
/// while the candidate itself is still uncovered.
#[inline]
fn cover_key(color: &[Color], counts: &[u32], id: ObjId) -> Option<u32> {
    match color[id] {
        Color::Black => None,
        Color::White => Some(counts[id] + 1),
        _ => Some(counts[id]),
    }
}

/// Greedy-C (Section 2.3) over any [`Adjacency`]: candidates include
/// grey objects, counts maintained exactly. Identical solutions to the
/// tree-backed [`crate::greedy_c`] and to
/// [`disc_graph::reference::greedy_c_ref`]; no node accesses.
pub fn greedy_c_graph(g: &impl Adjacency) -> DiscResult {
    never_cancelled(run_cover_graph(g, false, None))
}

/// [`greedy_c_graph`] polling a [`CancelToken`] once per selection
/// round; `Err(Cancelled)` on a fired deadline, no partial state.
pub fn greedy_c_graph_checked(
    g: &impl Adjacency,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    run_cover_graph(g, false, cancel)
}

/// Fast-C over any [`Adjacency`]: the lazy-update strategy (no count
/// updates at all; the heap's pop-time key is one adjacency scan of the
/// popped candidate, and [`LazyMaxHeap::pop_valid`] re-queues it if
/// that key dropped). With exact CSR adjacency the revalidated keys are
/// exact, so — unlike the tree-backed [`crate::fast_c`], whose truncated
/// bottom-up climbs can leave counts stale — the solutions coincide
/// with Greedy-C's.
pub fn fast_c_graph(g: &impl Adjacency) -> DiscResult {
    never_cancelled(run_cover_graph(g, true, None))
}

/// [`fast_c_graph`] polling a [`CancelToken`] once per selection round;
/// `Err(Cancelled)` on a fired deadline, no partial state.
pub fn fast_c_graph_checked(
    g: &impl Adjacency,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    run_cover_graph(g, true, cancel)
}

fn run_cover_graph(
    g: &impl Adjacency,
    lazy: bool,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    let n = g.len();
    let mut color = vec![Color::White; n];
    let mut counts: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    // Absent vertices go black: grey ones are candidates here. They
    // never reach the solution, which lists picks, not the black class.
    let mut white = n - take_out_absent(g, &mut color, &mut counts, Color::Black);
    let mut heap = LazyMaxHeap::with_capacity(white);
    for (id, &c) in counts.iter().enumerate() {
        if color[id] == Color::White {
            heap.push_ranked(id, g.external_id(id), c + 1); // all white: self-term applies
        }
    }
    let mut newly_grey: Vec<ObjId> = Vec::new();
    let mut solution = Vec::new();
    while white > 0 {
        checkpoint(cancel)?;
        // Greedy-C reads its exact counts; Fast-C keeps none and rescans
        // the popped candidate's row (white neighbours plus the
        // self-term), which `pop_valid` re-queues while it falls short
        // of the stored key.
        let picked = if lazy {
            heap.pop_valid(|id| {
                (color[id] != Color::Black).then(|| {
                    row(g, id)
                        .iter()
                        .map(|part| part.iter().filter(|&&u| color[u] == Color::White).count())
                        .sum::<usize>() as u32
                        + u32::from(color[id] == Color::White)
                })
            })
        } else {
            heap.pop_valid(|id| cover_key(&color, &counts, id))
        };
        let Some(picked) = picked else {
            unreachable!("white objects remain, so candidates exist")
        };

        let was_white = color[picked] == Color::White;
        color[picked] = Color::Black;
        if was_white {
            white -= 1;
            if !lazy {
                // `picked` left the white set: every non-black
                // neighbour's count drops.
                for part in row(g, picked) {
                    for &u in part {
                        debug_assert!(
                            color[u] == Color::Black || counts[u] > 0,
                            "exact counts cannot underflow"
                        );
                        counts[u] -= u32::from(color[u] != Color::Black);
                    }
                }
            }
        }
        newly_grey.clear();
        for part in row(g, picked) {
            newly_grey.extend(part.iter().copied().filter(|&u| color[u] == Color::White));
        }
        for &u in &newly_grey {
            color[u] = Color::Grey;
            white -= 1;
        }
        if !lazy {
            for &u in &newly_grey {
                for part in row(g, u) {
                    for &w in part {
                        debug_assert!(
                            color[w] == Color::Black || counts[w] > 0,
                            "exact counts cannot underflow"
                        );
                        counts[w] -= u32::from(color[w] != Color::Black);
                    }
                }
            }
        }
        solution.push(g.external_id(picked));
    }
    Ok(DiscResult {
        radius: g.radius(),
        heuristic: if lazy {
            "Fast-C (Graph)".into()
        } else {
            "G-C (Graph)".into()
        },
        solution,
        node_accesses: 0,
    })
}

// ---------------------------------------------------------------------
// Graph-resident zooming (paper Sections 3.1/3.2 and 5.2) and
// multi-radius selection (Section 8) over a stratified graph.
// ---------------------------------------------------------------------

/// Colours `picked` (internal) black and greys every non-black object
/// within `r_new` of it (whites and reds alike), appending its
/// *external* id to the solution — the graph-resident
/// `select_and_cover` of the zoom-out passes.
fn select_and_cover_strat(
    g: &StratifiedDiskGraph,
    color: &mut [Color],
    picked: ObjId,
    r_new: f64,
    solution: &mut Vec<ObjId>,
) {
    color[picked] = Color::Black;
    for &q in g.row_within(picked, r_new).0 {
        if color[q] != Color::Black {
            color[q] = Color::Grey;
        }
    }
    solution.push(g.external_id(picked));
}

/// A greedy selection pass over the remaining white objects, generic
/// over the neighbour source, mirroring
/// [`crate::counts::greedy_white_pass`] (same counts, same
/// [`LazyMaxHeap`] tie-breaking) with adjacency reads instead of range
/// queries. One instantiation per neighbour shape: the rows of an
/// [`Adjacency`] at a fixed radius (zooming, repairs) and the
/// `min(r(p), r(q))`-filtered prefix (multi-radius). `external` maps an
/// internal id to its external one — it ranks the heap's tie-breaks and
/// translates each selection before it is appended to `solution`.
fn greedy_white_pass_over<N, F, E>(
    n: usize,
    neighbors_of: F,
    external: E,
    color: &mut [Color],
    solution: &mut Vec<ObjId>,
    cancel: Option<&CancelToken>,
) -> Result<(), Cancelled>
where
    F: Fn(ObjId) -> N,
    N: Iterator<Item = ObjId>,
    E: Fn(ObjId) -> ObjId,
{
    let mut white = color.iter().filter(|&&c| c == Color::White).count();
    let mut counts = vec![0u32; n];
    let mut heap = LazyMaxHeap::with_capacity(white);
    for id in 0..n {
        if color[id] == Color::White {
            counts[id] = neighbors_of(id)
                .filter(|&q| color[q] == Color::White)
                .count() as u32;
            heap.push_ranked(id, external(id), counts[id]);
        }
    }
    let mut newly_grey: Vec<ObjId> = Vec::new();
    while white > 0 {
        checkpoint(cancel)?;
        let picked = match heap.pop_valid(|id| (color[id] == Color::White).then(|| counts[id])) {
            Some(p) => p,
            None => unreachable!("white objects remain, so the heap holds a candidate"),
        };
        color[picked] = Color::Black;
        white -= 1;
        newly_grey.clear();
        newly_grey.extend(neighbors_of(picked).filter(|&u| color[u] == Color::White));
        for &u in &newly_grey {
            color[u] = Color::Grey;
            white -= 1;
        }
        for &u in &newly_grey {
            // `for_each` folds a chained row as two plain loops.
            neighbors_of(u).for_each(|w| {
                debug_assert!(
                    color[w] != Color::White || counts[w] > 0,
                    "exact counts cannot underflow"
                );
                counts[w] -= u32::from(color[w] == Color::White);
            });
        }
        solution.push(external(picked));
    }
    Ok(())
}

/// [`greedy_white_pass_over`] on any [`Adjacency`] — both parts of
/// every row. The caller colours [`Adjacency::absent`] vertices
/// non-white first. The second pass of [`greedy_zoom_in_graph`] and
/// [`greedy_zoom_in_live`], and the re-cover pass of
/// [`crate::stream::RepairableSolution`].
pub(crate) fn greedy_white_pass_adj<G: Adjacency>(
    g: &G,
    color: &mut [Color],
    solution: &mut Vec<ObjId>,
    cancel: Option<&CancelToken>,
) -> Result<(), Cancelled> {
    greedy_white_pass_over(
        g.len(),
        |v| g.neighbors(v).iter().chain(g.appended(v)).copied(),
        |v| g.external_id(v),
        color,
        solution,
        cancel,
    )
}

/// Zoom-In (paper Section 3.1) over a stratified graph built at
/// `r_max ≥ prev.radius`: adapts `prev` to the smaller radius `r_new`,
/// producing `S^{r'} ⊇ S^r` (Lemma 5) — byte-identical to the
/// tree-backed [`crate::zoom_in()`] — with **zero** range queries: the
/// objects a black covers at `r_new` are one adjacency prefix scan per
/// black, and coverage at `r_new` reads adjacency prefixes. The tree is
/// consulted only for the leaf-chain selection order (never queried; no
/// node accesses are charged, so both cost fields of the result are 0).
pub fn zoom_in_graph(
    tree: &MTree<'_>,
    g: &StratifiedDiskGraph,
    prev: &DiscResult,
    r_new: f64,
) -> ZoomResult {
    never_cancelled(zoom_in_graph_checked(tree, g, prev, r_new, None))
}

/// [`zoom_in_graph`] polling a [`CancelToken`] once per black object in
/// the preparation pass and once per selection; `Err(Cancelled)` on a
/// fired deadline with no partial state. Byte-identical to the plain
/// runner when the token never cancels.
pub fn zoom_in_graph_checked(
    tree: &MTree<'_>,
    g: &StratifiedDiskGraph,
    prev: &DiscResult,
    r_new: f64,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    assert!(
        r_new < prev.radius,
        "zooming in requires r' < r ({r_new} >= {})",
        prev.radius
    );
    assert!(
        prev.radius <= g.radius(),
        "stratified graph built at {} cannot cover the previous radius {}",
        g.radius(),
        prev.radius
    );
    let view = g.view(r_new);
    let blacks: Vec<ObjId> = prev.solution.iter().map(|&e| g.internal_id(e)).collect();
    let mut color = zoom_in_colors(&view, &blacks, cancel)?;
    let mut solution = prev.solution.clone();
    for object in tree.objects_in_leaf_order_uncounted() {
        if color[object] != Color::White {
            continue;
        }
        checkpoint(cancel)?;
        color[object] = Color::Black;
        for &q in view.neighbors(object) {
            if color[q] == Color::White {
                color[q] = Color::Grey;
            }
        }
        solution.push(g.external_id(object));
    }
    debug_assert!(color.iter().all(|&c| c != Color::White));
    Ok(ZoomResult {
        result: DiscResult {
            radius: r_new,
            heuristic: "Zoom-In (Graph)".into(),
            solution,
            node_accesses: 0,
        },
        prep_accesses: 0,
    })
}

/// Greedy-Zoom-In (paper Algorithm 2) over a stratified graph:
/// byte-identical solutions to the tree-backed
/// [`crate::greedy_zoom_in`], fully index-free (greedy selection needs
/// no leaf order).
pub fn greedy_zoom_in_graph(g: &StratifiedDiskGraph, prev: &DiscResult, r_new: f64) -> ZoomResult {
    never_cancelled(greedy_zoom_in_graph_checked(g, prev, r_new, None))
}

/// [`greedy_zoom_in_graph`] polling a [`CancelToken`] once per black
/// object in the preparation pass and once per selection round;
/// `Err(Cancelled)` on a fired deadline with no partial state.
pub fn greedy_zoom_in_graph_checked(
    g: &StratifiedDiskGraph,
    prev: &DiscResult,
    r_new: f64,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    assert!(
        r_new < prev.radius,
        "zooming in requires r' < r ({r_new} >= {})",
        prev.radius
    );
    assert!(
        prev.radius <= g.radius(),
        "stratified graph built at {} cannot cover the previous radius {}",
        g.radius(),
        prev.radius
    );
    greedy_zoom_in_on(&g.view(r_new), prev, |e| g.internal_id(e), cancel)
}

/// Greedy-Zoom-In on a streaming catalog's [`LiveView`] at the new
/// radius `r' = view.radius()`: the same solutions as
/// [`greedy_zoom_in_graph`] on the compacted graph, read through the
/// mutation overlay.
///
/// # Panics
///
/// Panics when `r' ≥ prev.radius`, or when `prev` selects an object
/// that is not live in the view (`prev` must come from the same
/// catalog state).
pub fn greedy_zoom_in_live(view: &LiveView<'_>, prev: &DiscResult) -> ZoomResult {
    never_cancelled(greedy_zoom_in_live_checked(view, prev, None))
}

/// [`greedy_zoom_in_live`] polling a [`CancelToken`] once per black
/// object in the preparation pass and once per selection round.
pub fn greedy_zoom_in_live_checked(
    view: &LiveView<'_>,
    prev: &DiscResult,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    let r_new = view.radius();
    assert!(
        r_new < prev.radius,
        "zooming in requires r' < r ({r_new} >= {})",
        prev.radius
    );
    let vertex = |e| match view.vertex_of(e) {
        Some(v) => v,
        None => panic!("selected object {e} is not live in the view"),
    };
    greedy_zoom_in_on(view, prev, vertex, cancel)
}

/// Colouring for a zoom-in on `g`, the graph at the new radius `r'`:
/// the previous `blacks` (vertices) stay black, every other object
/// within `r'` of one turns grey — the union of the blacks' rows, which
/// decides the Zooming Rule's closest-black test with no distances —
/// absent vertices are grey from the start, and the rest stay white.
/// Polls `cancel` once per black.
fn zoom_in_colors<G: Adjacency>(
    g: &G,
    blacks: &[ObjId],
    cancel: Option<&CancelToken>,
) -> Result<Vec<Color>, Cancelled> {
    let mut color = vec![Color::White; g.len()];
    for &a in g.absent() {
        color[a] = Color::Grey;
    }
    for &b in blacks {
        color[b] = Color::Black;
    }
    for &b in blacks {
        checkpoint(cancel)?;
        for part in row(g, b) {
            for &q in part {
                if color[q] != Color::Black {
                    color[q] = Color::Grey;
                }
            }
        }
    }
    Ok(color)
}

/// Greedy-Zoom-In on `g`, the graph at the new radius `r'`: the
/// [`zoom_in_colors`] colouring, then the greedy white pass over the
/// rest. `vertex` maps a selected external id to its vertex.
fn greedy_zoom_in_on<G: Adjacency>(
    g: &G,
    prev: &DiscResult,
    vertex: impl Fn(ObjId) -> ObjId,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    let blacks: Vec<ObjId> = prev.solution.iter().map(|&e| vertex(e)).collect();
    let mut color = zoom_in_colors(g, &blacks, cancel)?;
    let mut solution = prev.solution.clone();
    greedy_white_pass_adj(g, &mut color, &mut solution, cancel)?;
    Ok(ZoomResult {
        result: DiscResult {
            radius: g.radius(),
            heuristic: "Greedy-Zoom-In (Graph)".into(),
            solution,
            node_accesses: 0,
        },
        prep_accesses: 0,
    })
}

/// Zoom-Out (paper Algorithm 3, all four first-pass variants) over a
/// stratified graph built at `r_max ≥ r_new`: byte-identical solutions
/// to the tree-backed [`crate::zoom_out()`] / [`crate::greedy_zoom_out`]
/// with zero range queries. Variant (c)'s per-selection white
/// recounting — the expensive query loop of the paper's Figure 15 —
/// becomes a per-selection prefix scan. The tree is consulted only for
/// the [`ZoomOutVariant::Plain`] second pass's leaf order.
pub fn zoom_out_graph(
    tree: &MTree<'_>,
    g: &StratifiedDiskGraph,
    prev: &DiscResult,
    r_new: f64,
    variant: ZoomOutVariant,
) -> ZoomResult {
    never_cancelled(zoom_out_graph_checked(tree, g, prev, r_new, variant, None))
}

/// [`zoom_out_graph`] polling a [`CancelToken`] once per selection in
/// both passes; `Err(Cancelled)` on a fired deadline, no partial state.
pub fn zoom_out_graph_checked(
    tree: &MTree<'_>,
    g: &StratifiedDiskGraph,
    prev: &DiscResult,
    r_new: f64,
    variant: ZoomOutVariant,
    cancel: Option<&CancelToken>,
) -> Result<ZoomResult, Cancelled> {
    assert!(
        r_new > prev.radius,
        "zooming out requires r' > r ({r_new} <= {})",
        prev.radius
    );
    assert!(
        r_new <= g.radius(),
        "stratified graph built at {} cannot cover the new radius {r_new}",
        g.radius()
    );
    let reds: Vec<ObjId> = prev.solution.iter().map(|&e| g.internal_id(e)).collect();
    let mut color = vec![Color::White; g.len()];
    for &b in &reds {
        color[b] = Color::Red;
    }

    // The greedy (a)/(b) variants cache each red's neighbourhood at the
    // new radius — here a prefix slice copy instead of a range query.
    let cached: Vec<(ObjId, &[ObjId])> = match variant {
        ZoomOutVariant::GreedyA | ZoomOutVariant::GreedyB => reds
            .iter()
            .map(|&red| (red, g.row_within(red, r_new).0))
            .collect(),
        _ => Vec::new(),
    };

    let mut solution: Vec<ObjId> = Vec::new();

    // ---- First pass: re-examine the reds (Algorithm 3, lines 4-11). ----
    match variant {
        ZoomOutVariant::Plain => {
            for &red in &reds {
                if color[red] != Color::Red {
                    continue; // already covered by an earlier selection
                }
                checkpoint(cancel)?;
                select_and_cover_strat(g, &mut color, red, r_new, &mut solution);
            }
        }
        ZoomOutVariant::GreedyA | ZoomOutVariant::GreedyB => loop {
            checkpoint(cancel)?;
            let best = cached
                .iter()
                .filter(|(red, _)| color[*red] == Color::Red)
                .map(|(red, hits)| {
                    let red_nb = hits.iter().filter(|&&o| color[o] == Color::Red).count();
                    (*red, red_nb)
                })
                .max_by(|a, b| {
                    let primary = match variant {
                        ZoomOutVariant::GreedyA => a.1.cmp(&b.1),
                        _ => b.1.cmp(&a.1), // (b): fewest red neighbours
                    };
                    // Ties to the smallest external id, so renumbering
                    // cannot change the pick.
                    primary.then(g.external_id(b.0).cmp(&g.external_id(a.0)))
                });
            let Some((red, _)) = best else { break };
            select_and_cover_strat(g, &mut color, red, r_new, &mut solution);
        },
        ZoomOutVariant::GreedyC => loop {
            checkpoint(cancel)?;
            // Fresh white-neighbour counts for every remaining red, every
            // iteration — a prefix scan here, a pruned range query in the
            // tree-backed runner.
            let best = color
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == Color::Red)
                .map(|(red, _)| {
                    let white_nb = g
                        .row_within(red, r_new)
                        .0
                        .iter()
                        .filter(|&&o| color[o] == Color::White)
                        .count();
                    (red, white_nb)
                })
                .max_by(|a, b| {
                    a.1.cmp(&b.1)
                        .then(g.external_id(b.0).cmp(&g.external_id(a.0)))
                });
            let Some((red, _)) = best else { break };
            select_and_cover_strat(g, &mut color, red, r_new, &mut solution);
        },
    }
    debug_assert!(color.iter().all(|&c| c != Color::Red));

    // ---- Second pass: cover the leftovers (lines 12-19). ----
    if color.contains(&Color::White) {
        match variant {
            ZoomOutVariant::Plain => {
                for object in tree.objects_in_leaf_order_uncounted() {
                    if color[object] == Color::White {
                        checkpoint(cancel)?;
                        select_and_cover_strat(g, &mut color, object, r_new, &mut solution);
                    }
                }
            }
            _ => greedy_white_pass_adj(&g.view(r_new), &mut color, &mut solution, cancel)?,
        }
    }
    debug_assert!(color.iter().all(|&c| c != Color::White));

    Ok(ZoomResult {
        result: DiscResult {
            radius: r_new,
            heuristic: format!("{} (Graph)", variant.name()),
            solution,
            node_accesses: 0,
        },
        prep_accesses: 0,
    })
}

/// Multi-radius DisC selection (paper Section 8, the generalisation in
/// [`crate::multi_radius`]) over a stratified graph built at
/// `r_max ≥ max(radii)`: the `min(r(p), r(q))` edge rule is a per-edge
/// distance filter over the adjacency prefix at `r(p)`. `greedy`
/// selects by white-coverage count ([`crate::multi_radius_greedy_disc`]
/// counterpart, index-free); otherwise selection follows the leaf order
/// ([`crate::multi_radius_basic_disc`] counterpart — the tree is
/// consulted only for that order). Byte-identical solutions either way,
/// with zero node accesses.
pub fn multi_radius_graph(
    tree: &MTree<'_>,
    g: &StratifiedDiskGraph,
    radii: &[f64],
    greedy: bool,
) -> DiscResult {
    never_cancelled(multi_radius_graph_checked(tree, g, radii, greedy, None))
}

/// [`multi_radius_graph`] polling a [`CancelToken`] once per selection;
/// `Err(Cancelled)` on a fired deadline, no partial state.
pub fn multi_radius_graph_checked(
    tree: &MTree<'_>,
    g: &StratifiedDiskGraph,
    radii: &[f64],
    greedy: bool,
    cancel: Option<&CancelToken>,
) -> Result<DiscResult, Cancelled> {
    check_radii_len(g.len(), radii);
    assert!(
        radii.iter().all(|&r| r <= g.radius()),
        "stratified graph built at {} cannot cover the largest object radius",
        g.radius()
    );
    let n = g.len();
    // `radii` arrives indexed by external id; a renumbered graph needs
    // the per-vertex view.
    let permuted: Vec<f64>;
    let radii: &[f64] = if g.permutation().is_some() {
        permuted = (0..n).map(|v| radii[g.external_id(v)]).collect();
        &permuted
    } else {
        radii
    };
    // Neighbours of `p` under the min(r(p), r(q)) rule: the prefix at
    // r(p) filtered by d ≤ r(q).
    let min_neighbors = |p: ObjId| {
        g.neighbors_within(p, radii[p])
            .filter(move |&(q, d)| d <= radii[q])
            .map(|(q, _)| q)
    };
    let mut color = vec![Color::White; n];
    let mut solution = Vec::new();

    if greedy {
        greedy_white_pass_over(
            n,
            min_neighbors,
            |v| g.external_id(v),
            &mut color,
            &mut solution,
            cancel,
        )?;
    } else {
        for object in tree.objects_in_leaf_order_uncounted() {
            if color[object] != Color::White {
                continue;
            }
            checkpoint(cancel)?;
            color[object] = Color::Black;
            for q in min_neighbors(object) {
                if color[q] == Color::White {
                    color[q] = Color::Grey;
                }
            }
            solution.push(g.external_id(object));
        }
    }
    debug_assert!(color.iter().all(|&c| c != Color::White));

    Ok(DiscResult {
        radius: mean_radius(radii),
        heuristic: if greedy {
            "MR-G-DisC (Graph)".into()
        } else {
            "MR-B-DisC (Graph)".into()
        },
        solution,
        node_accesses: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{fast_c, greedy_c};
    use crate::greedy::{greedy_disc, GreedyVariant};
    use crate::verify::{verify_coverage, verify_disc};
    use disc_datasets::synthetic::{clustered, uniform};
    use disc_graph::reference::{greedy_c_ref, greedy_disc_ref};
    use disc_graph::UnitDiskGraph;
    use disc_mtree::{MTree, MTreeConfig};
    use proptest::prelude::*;

    #[test]
    fn greedy_disc_graph_matches_tree_backed_exact_variants() {
        let data = clustered(400, 2, 5, 80);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let r = 0.06;
        let g = UnitDiskGraph::from_mtree(&tree, r);
        let resident = greedy_disc_graph(&g);
        for v in [GreedyVariant::Grey, GreedyVariant::White] {
            let res = greedy_disc(&tree, r, v, true);
            assert_eq!(resident.solution, res.solution, "{v:?}");
        }
        assert_eq!(resident.solution, greedy_disc_ref(&g));
        assert!(verify_disc(&data, &resident.solution, r).is_valid());
        assert_eq!(resident.node_accesses, 0);
        assert_eq!(resident.radius, r);
    }

    #[test]
    fn cover_graph_runners_match_tree_backed_greedy_c() {
        let data = clustered(350, 2, 4, 81);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(9));
        let r = 0.07;
        let g = UnitDiskGraph::from_mtree(&tree, r);
        let tree_res = greedy_c(&tree, r);
        let exact = greedy_c_graph(&g);
        let lazy = fast_c_graph(&g);
        assert_eq!(exact.solution, tree_res.solution);
        assert_eq!(lazy.solution, tree_res.solution);
        assert_eq!(exact.solution, greedy_c_ref(&g));
        assert!(verify_coverage(&data, &exact.solution, r).is_empty());
    }

    #[test]
    fn fast_c_graph_covers_where_tree_fast_c_may_drift() {
        // Tree-backed Fast-C's truncated climbs make its solution
        // tree-shape dependent; the graph-resident runner is exact, so
        // both must cover but need not agree.
        let data = clustered(500, 2, 6, 82);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(12));
        let r = 0.05;
        let g = UnitDiskGraph::from_mtree(&tree, r);
        let resident = fast_c_graph(&g);
        let tree_fast = fast_c(&tree, r);
        assert!(verify_coverage(&data, &resident.solution, r).is_empty());
        assert!(verify_coverage(&data, &tree_fast.solution, r).is_empty());
    }

    #[test]
    fn heuristic_labels() {
        let data = uniform(40, 2, 83);
        let g = UnitDiskGraph::build(&data, 0.2);
        assert_eq!(greedy_disc_graph(&g).heuristic, "G-DisC (Graph)");
        assert_eq!(greedy_c_graph(&g).heuristic, "G-C (Graph)");
        assert_eq!(fast_c_graph(&g).heuristic, "Fast-C (Graph)");
    }

    #[test]
    fn isolated_objects_terminate() {
        use disc_metric::{Dataset, Metric, Point};
        let data = Dataset::new(
            "iso",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(5.0, 0.0),
                Point::new2(0.0, 5.0),
                Point::new2(5.0, 5.0),
            ],
        );
        let g = UnitDiskGraph::build(&data, 0.5);
        assert_eq!(greedy_disc_graph(&g).size(), 4);
        assert_eq!(greedy_c_graph(&g).size(), 4);
        assert_eq!(fast_c_graph(&g).size(), 4);
    }

    #[test]
    fn zoom_in_graph_matches_tree_backed() {
        use crate::zoom_in::{greedy_zoom_in, zoom_in};
        let data = clustered(400, 2, 5, 84);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let r = 0.1;
        let g = StratifiedDiskGraph::from_mtree(&tree, r);
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        for r_new in [0.08, 0.05, 0.02] {
            let tree_z = zoom_in(&tree, &prev, r_new);
            let graph_z = zoom_in_graph(&tree, &g, &prev, r_new);
            assert_eq!(
                graph_z.result.solution, tree_z.result.solution,
                "r'={r_new}"
            );
            assert_eq!(graph_z.result.node_accesses, 0);
            assert_eq!(graph_z.prep_accesses, 0);
            assert_eq!(graph_z.result.radius, r_new);

            let tree_gz = greedy_zoom_in(&tree, &prev, r_new);
            let graph_gz = greedy_zoom_in_graph(&g, &prev, r_new);
            assert_eq!(
                graph_gz.result.solution, tree_gz.result.solution,
                "greedy r'={r_new}"
            );
            assert!(crate::verify::verify_disc(&data, &graph_gz.result.solution, r_new).is_valid());
        }
    }

    #[test]
    fn zoom_out_graph_matches_tree_backed_all_variants() {
        use crate::zoom_out::greedy_zoom_out;
        let data = clustered(400, 2, 5, 85);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let r = 0.04;
        let r_new = 0.1;
        let g = StratifiedDiskGraph::from_mtree(&tree, r_new);
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        for v in [
            ZoomOutVariant::Plain,
            ZoomOutVariant::GreedyA,
            ZoomOutVariant::GreedyB,
            ZoomOutVariant::GreedyC,
        ] {
            let tree_z = greedy_zoom_out(&tree, &prev, r_new, v);
            let graph_z = zoom_out_graph(&tree, &g, &prev, r_new, v);
            assert_eq!(graph_z.result.solution, tree_z.result.solution, "{v:?}");
            assert_eq!(graph_z.result.node_accesses, 0, "{v:?}");
            assert_eq!(
                graph_z.result.heuristic,
                format!("{} (Graph)", v.name()),
                "{v:?}"
            );
        }
    }

    #[test]
    fn multi_radius_graph_matches_tree_backed() {
        use crate::multi_radius::{multi_radius_basic_disc, multi_radius_greedy_disc};
        let data = clustered(350, 2, 5, 86);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(9));
        // Fine radii near the origin, coarse elsewhere.
        let radii: Vec<f64> = data
            .ids()
            .map(|id| {
                let p = data.point(id);
                if (p.coord(0).powi(2) + p.coord(1).powi(2)).sqrt() < 0.5 {
                    0.03
                } else {
                    0.12
                }
            })
            .collect();
        let r_max = radii.iter().cloned().fold(0.0, f64::max);
        let g = StratifiedDiskGraph::from_mtree(&tree, r_max);
        for pruned in [true, false] {
            assert_eq!(
                multi_radius_graph(&tree, &g, &radii, false).solution,
                multi_radius_basic_disc(&tree, &radii, pruned).solution,
                "basic, pruned={pruned}"
            );
            assert_eq!(
                multi_radius_graph(&tree, &g, &radii, true).solution,
                multi_radius_greedy_disc(&tree, &radii, pruned).solution,
                "greedy, pruned={pruned}"
            );
        }
        let basic = multi_radius_graph(&tree, &g, &radii, false);
        assert_eq!(basic.heuristic, "MR-B-DisC (Graph)");
        assert_eq!(basic.node_accesses, 0);
        assert_eq!(
            multi_radius_graph(&tree, &g, &radii, true).heuristic,
            "MR-G-DisC (Graph)"
        );
    }

    #[test]
    fn zoom_graph_runners_charge_zero_accesses_and_distances() {
        let data = clustered(300, 2, 4, 87);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let r = 0.09;
        let g = StratifiedDiskGraph::from_mtree(&tree, r);
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        tree.reset_node_accesses();
        tree.reset_distance_computations();
        let _ = zoom_in_graph(&tree, &g, &prev, 0.05);
        let _ = greedy_zoom_in_graph(&g, &prev, 0.05);
        let prev_small = greedy_disc(&tree, 0.03, GreedyVariant::Grey, true);
        tree.reset_node_accesses();
        tree.reset_distance_computations();
        let _ = zoom_out_graph(&tree, &g, &prev_small, r, ZoomOutVariant::GreedyB);
        let _ = multi_radius_graph(&tree, &g, &vec![r; data.len()], true);
        assert_eq!(
            tree.node_accesses(),
            0,
            "graph runners must not touch nodes"
        );
        assert_eq!(
            tree.distance_computations(),
            0,
            "graph runners must not compute distances"
        );
    }

    #[test]
    #[should_panic(expected = "cannot cover the previous radius")]
    fn zoom_in_graph_rejects_undersized_graph() {
        let data = uniform(80, 2, 88);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let g = StratifiedDiskGraph::from_mtree(&tree, 0.05);
        let prev = greedy_disc(&tree, 0.2, GreedyVariant::Grey, true);
        let _ = greedy_zoom_in_graph(&g, &prev, 0.1);
    }

    #[test]
    fn renumbered_graph_reproduces_external_solutions() {
        // Leaf-order renumbering must be invisible in external ids:
        // every runner, fed the renumbered dataset/tree/graph, returns
        // byte-identical solutions to its run on the original numbering.
        use crate::zoom_in::{greedy_zoom_in, zoom_in};
        use crate::zoom_out::greedy_zoom_out;
        let data = clustered(400, 2, 5, 89);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        let order: Vec<ObjId> = tree.objects_in_leaf_order_uncounted();
        let data2 = tree.data().renumbered(&order);
        let tree2 = tree.relabeled(&data2, &order);
        let r = 0.06;

        let g = UnitDiskGraph::from_mtree(&tree, r);
        let g2 = UnitDiskGraph::from_mtree(&tree2, r);
        assert!(
            g2.permutation().is_some(),
            "leaf order is not identity here"
        );
        assert_eq!(
            greedy_disc_graph(&g).solution,
            greedy_disc_graph(&g2).solution
        );
        assert_eq!(greedy_c_graph(&g).solution, greedy_c_graph(&g2).solution);
        assert_eq!(fast_c_graph(&g).solution, fast_c_graph(&g2).solution);

        let r_max = 0.1;
        let s = StratifiedDiskGraph::from_mtree(&tree, r_max);
        let s2 = StratifiedDiskGraph::from_mtree(&tree2, r_max);
        let prev = greedy_disc(&tree, r_max, GreedyVariant::Grey, true);
        for r_new in [0.07, 0.03] {
            assert_eq!(
                zoom_in_graph(&tree, &s, &prev, r_new).result.solution,
                zoom_in_graph(&tree2, &s2, &prev, r_new).result.solution,
                "zoom-in r'={r_new}"
            );
            assert_eq!(
                zoom_in_graph(&tree2, &s2, &prev, r_new).result.solution,
                zoom_in(&tree, &prev, r_new).result.solution,
                "zoom-in vs tree-backed r'={r_new}"
            );
            assert_eq!(
                greedy_zoom_in_graph(&s, &prev, r_new).result.solution,
                greedy_zoom_in_graph(&s2, &prev, r_new).result.solution,
                "greedy zoom-in r'={r_new}"
            );
            assert_eq!(
                greedy_zoom_in_graph(&s2, &prev, r_new).result.solution,
                greedy_zoom_in(&tree, &prev, r_new).result.solution,
                "greedy zoom-in vs tree-backed r'={r_new}"
            );
        }
        let prev_small = greedy_disc(&tree, 0.03, GreedyVariant::Grey, true);
        for v in [
            ZoomOutVariant::Plain,
            ZoomOutVariant::GreedyA,
            ZoomOutVariant::GreedyB,
            ZoomOutVariant::GreedyC,
        ] {
            assert_eq!(
                zoom_out_graph(&tree2, &s2, &prev_small, r_max, v)
                    .result
                    .solution,
                greedy_zoom_out(&tree, &prev_small, r_max, v)
                    .result
                    .solution,
                "zoom-out {v:?}"
            );
        }
        let radii: Vec<f64> = data
            .ids()
            .map(|id| if id % 3 == 0 { 0.04 } else { r_max })
            .collect();
        for greedy in [false, true] {
            assert_eq!(
                multi_radius_graph(&tree, &s, &radii, greedy).solution,
                multi_radius_graph(&tree2, &s2, &radii, greedy).solution,
                "multi-radius greedy={greedy}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Graph-resident heuristics over the self-join graph equal the
        /// tree-backed exact variants (and the index-free references)
        /// for arbitrary data, radii and tree capacities.
        #[test]
        fn resident_equals_tree_backed_exact(
            seed in 0u64..2_000,
            r in 0.02..0.4f64,
            cap in 4usize..12,
        ) {
            let data = uniform(100, 2, seed);
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            let g = UnitDiskGraph::from_mtree(&tree, r);

            let disc = greedy_disc_graph(&g);
            prop_assert_eq!(
                &disc.solution,
                &greedy_disc(&tree, r, GreedyVariant::Grey, true).solution
            );
            prop_assert_eq!(&disc.solution, &greedy_disc_ref(&g));
            prop_assert!(verify_disc(&data, &disc.solution, r).is_valid());

            let cover_tree = greedy_c(&tree, r).solution;
            prop_assert_eq!(&greedy_c_graph(&g).solution, &cover_tree);
            prop_assert_eq!(&fast_c_graph(&g).solution, &cover_tree);
        }
    }
}
