//! The DisC diversity heuristics and zooming operators — the primary
//! contribution of *Drosou & Pitoura, "DisC Diversity: Result
//! Diversification based on Dissimilarity and Coverage", VLDB 2013* —
//! implemented over the M-tree index of [`disc_mtree`] with node-access
//! accounting.
//!
//! ## Computing DisC diverse subsets (paper Sections 2 and 5)
//!
//! * [`basic_disc`] — Basic-DisC: one left-to-right pass over the leaf
//!   chain; every still-white object is selected and its neighbourhood
//!   greyed. Optional pruning (the paper's Pruning Rule).
//! * [`greedy_disc`] — Greedy-DisC (Algorithm 1): always select the white
//!   object covering the most uncovered objects. Four update strategies:
//!   [`GreedyVariant::Grey`], [`GreedyVariant::White`] and their Lazy
//!   counterparts, matching the paper's Grey-/White-/Lazy-Greedy-DisC.
//! * [`greedy_c`] — Greedy-C: drops the independence requirement and also
//!   considers grey candidates (r-C diverse subsets).
//! * [`fast_c`] — Fast-C: Greedy-C with bottom-up range queries that stop
//!   climbing at the first grey ancestor (cheaper, possibly larger
//!   results).
//!
//! ## Graph-resident execution ([`resident`])
//!
//! * [`greedy_disc_graph`] / [`greedy_c_graph`] / [`fast_c_graph`] — the
//!   same heuristics over any [`disc_graph::Adjacency`]: a
//!   [`disc_graph::UnitDiskGraph`] materialised once (typically via the
//!   M-tree range self-join) or a stratified prefix view, with zero tree
//!   queries in the selection loop. Exact runners are pinned
//!   byte-identical to their tree-backed counterparts; see [`resident`]
//!   for the memory-vs-query trade.
//! * [`zoom_in_graph`] / [`greedy_zoom_in_graph`] / [`zoom_out_graph`] /
//!   [`multi_radius_graph`] — the adaptive-radius operators over a
//!   [`disc_graph::StratifiedDiskGraph`] built once at the largest
//!   radius of interest: every smaller radius reads sorted-adjacency
//!   prefixes, so a whole zooming sweep costs no more distance
//!   computations than the one annotated self-join. Also pinned
//!   byte-identical to the tree-backed operators.
//!
//! ## Adaptive diversification (paper Sections 3 and 5.2)
//!
//! * [`zoom_in()`] / [`greedy_zoom_in`] — adapt a solution to a smaller
//!   radius, keeping it a superset of the previous one (Lemma 5).
//! * [`zoom_out()`] / [`greedy_zoom_out`] — adapt to a larger radius in two
//!   passes (Algorithm 3) with the paper's three greedy variants.
//! * [`local_zoom`] — re-diversify only the neighbourhood of one selected
//!   object (Figures 1(d) and 2).
//!
//! ## Validation
//!
//! * [`verify_disc`] / [`verify_coverage`] — brute-force checks of
//!   Definition 1 used by tests and examples.
//!
//! ## Cancellation
//!
//! Every selection runner has a `*_checked` twin taking an optional
//! [`disc_metric::CancelToken`] — the same cooperative primitive the
//! graph builders poll. A checked runner polls the token once per
//! selection round (plus once per black object in the zooming
//! preparation passes) and returns `Err(Cancelled)` mid-scan: no
//! partially built solution escapes, and counters charge exactly the
//! work performed before the checkpoint fired. With a token that never
//! cancels the checked runners are byte-identical to the plain ones —
//! the serving layer relies on this to enforce per-request deadlines
//! without perturbing solutions.
//!
//! All algorithms are deterministic: ties break towards the smallest
//! object id, so results are reproducible and cross-checkable against the
//! reference implementations in `disc-graph`.

pub mod basic;
pub mod counts;
pub mod cover;
pub mod greedy;
pub mod heap;
pub mod local;
pub mod multi_radius;
pub mod par;
pub mod resident;
pub mod result;
pub mod runner;
pub mod sharded;
pub mod stream;
pub mod verify;
pub mod weighted;
pub mod zoom_in;
pub mod zoom_out;

pub use basic::{basic_disc, BasicOrder};
pub use cover::{fast_c, greedy_c};
pub use greedy::{greedy_disc, greedy_disc_with_update_radius, GreedyVariant};
pub use local::{local_zoom, LocalZoomResult};
pub use multi_radius::{
    multi_radius_basic_disc, multi_radius_basic_disc_checked, multi_radius_greedy_disc,
    multi_radius_greedy_disc_checked, verify_multi_radius,
};
pub use resident::{
    fast_c_graph, fast_c_graph_checked, greedy_c_graph, greedy_c_graph_checked, greedy_disc_graph,
    greedy_disc_graph_checked, greedy_zoom_in_graph, greedy_zoom_in_graph_checked,
    greedy_zoom_in_live, greedy_zoom_in_live_checked, multi_radius_graph,
    multi_radius_graph_checked, zoom_in_graph, zoom_in_graph_checked, zoom_out_graph,
    zoom_out_graph_checked,
};
pub use result::{DiscResult, ZoomResult};
pub use runner::Heuristic;
pub use sharded::{
    build_sharded, build_sharded_with, ShardedBuild, ShardedBuildConfig, ShardedBuildStats,
    DEFAULT_SHARDS,
};
pub use stream::{RepairError, RepairReport, RepairableSolution};
pub use verify::{verify_coverage, verify_disc, VerifyReport};
pub use weighted::{solution_weight, weighted_disc};
pub use zoom_in::{greedy_zoom_in, greedy_zoom_in_checked, zoom_in, zoom_in_checked};
pub use zoom_out::{greedy_zoom_out, greedy_zoom_out_checked, zoom_out, ZoomOutVariant};

use disc_metric::cancel::{CancelToken, Cancelled};

/// Polls an optional cancellation token: the shared checkpoint of every
/// `*_checked` selection runner. `None` never cancels, so the plain
/// runners delegate to the checked implementations at zero cost.
#[inline]
pub(crate) fn checkpoint(cancel: Option<&CancelToken>) -> Result<(), Cancelled> {
    match cancel {
        Some(token) => token.checkpoint(),
        None => Ok(()),
    }
}

/// Unwraps a checked-runner result on the `None`-token path, where
/// cancellation is impossible by construction.
#[inline]
pub(crate) fn never_cancelled<T>(result: Result<T, Cancelled>) -> T {
    match result {
        Ok(value) => value,
        Err(Cancelled) => unreachable!("no cancellation token was supplied"),
    }
}
