//! The traced run's serial replay: requests of the timed phase, once
//! through `disc_cli::worker::execute` (the whole service time of a
//! request, no queue or contention) and once through the layer calls
//! it is made of, each inside a span.

use std::path::Path;
use std::time::Instant;

use disc_cli::cache::SolutionCache;
use disc_cli::worker::{execute, solution_hash};
use disc_cli::ServeState;
use disc_core::{greedy_disc_graph, greedy_zoom_in_graph, RepairableSolution};
use disc_graph::StratifiedDiskGraph;

use crate::check::{solve_chain, Checks};
use crate::gen::Req;
use crate::trace::Tracer;
use crate::traffic::{request, Record, Summary};

/// Span names the replay records, one per layer call.
pub const EXECUTE: &str = "cli.execute";
pub const VIEW_COPY: &str = "graph.view_copy";
pub const GREEDY: &str = "core.greedy";
pub const ZOOM_IN: &str = "core.zoom_in";
pub const INSERT: &str = "graph.insert";
pub const REMOVE: &str = "graph.remove";
pub const REPAIR: &str = "core.repair";

/// What the replay measured besides its spans.
#[derive(Default)]
pub struct Replayed {
    /// Live latency minus serial service time, per replayed request.
    pub wait_ms: Vec<f64>,
    /// Distance computations per insert.
    pub insert_dc: Vec<f64>,
    /// Time of the reads' layer calls with the tracer on, and of the
    /// same calls with it off.
    pub traced_ms: f64,
    pub untraced_ms: f64,
}

/// The layer calls a zoom (one radius) or a sweep (a descending chain)
/// is made of: view copy and greedy at the first radius, then one
/// zoom-in per further radius. Returns each step's solution hash.
fn solve(tracer: &mut Tracer, g: &StratifiedDiskGraph, radii: &[f64]) -> Result<Vec<u64>, String> {
    let unit = tracer
        .span(VIEW_COPY, || {
            g.try_view(radii[0]).map(|v| v.to_unit_disk_graph())
        })
        .map_err(|e| e.to_string())?;
    let mut prev = tracer.span(GREEDY, || greedy_disc_graph(&unit));
    let mut hashes = vec![solution_hash(&prev.solution)];
    for &r in &radii[1..] {
        prev = tracer
            .span(ZOOM_IN, || greedy_zoom_in_graph(g, &prev, r))
            .result;
        hashes.push(solution_hash(&prev.solution));
    }
    Ok(hashes)
}

/// Runs a read's layer calls traced and, back to back, untraced, adding
/// each pass's time to `out`; returns the traced pass's hashes. The
/// order alternates with `k`, so neither pass always runs second.
fn solve_paired(
    tracer: &mut Tracer,
    out: &mut Replayed,
    k: usize,
    g: &StratifiedDiskGraph,
    radii: &[f64],
) -> Result<Vec<u64>, String> {
    let mut hashes = Vec::new();
    let order = if k.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    };
    for traced in order {
        let t = Instant::now();
        if traced {
            hashes = solve(tracer, g, radii)?;
            out.traced_ms += t.elapsed().as_secs_f64() * 1e3;
        } else {
            solve(&mut Tracer::new(false), g, radii)?;
            out.untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    Ok(hashes)
}

/// Replays `records` (in submission order) against a fresh open of the
/// snapshot at `path`, after the `prelude` the live server got before
/// them.
pub fn replay(
    path: &Path,
    prelude: &[Req],
    records: &[Record],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Replayed, String> {
    let state = ServeState::open(path).map_err(|e| format!("replay open: {e}"))?;
    let cache = SolutionCache::new(16);
    for (i, req) in prelude.iter().enumerate() {
        let reply = execute(&state, &cache, &request(i as u64, req));
        if let Summary::Failed(e) = Summary::of(&reply) {
            return Err(format!("replay prelude: {e}"));
        }
    }
    // Mutations go through `execute` on `state` and, separately, through
    // the catalog and repair calls on this mirror, so both stay in step.
    let mut mirror = state.catalog().clone();
    let mut tracker = {
        let top = solve_chain(mirror.graph(), &[state.r_max])?;
        RepairableSolution::from_result(&mirror, &top[0]).map_err(|e| format!("bootstrap: {e}"))?
    };

    let mut out = Replayed::default();
    for (k, rec) in records.iter().enumerate() {
        let t = Instant::now();
        let reply = tracer.span(EXECUTE, || {
            execute(&state, &cache, &request(rec.id, &rec.req))
        });
        let service = t.elapsed();
        out.wait_ms
            .push((rec.latency.as_secs_f64() - service.as_secs_f64()) * 1e3);
        let summary = Summary::of(&reply);
        match (&rec.req, &summary) {
            (Req::Zoom(_), Summary::Zoom { cached: true, .. }) => {}
            (Req::Zoom(r), Summary::Zoom { hash, .. }) => {
                let got = solve_paired(tracer, &mut out, k, state.catalog().graph(), &[*r])?;
                checks.expect(got == [*hash], || {
                    format!("replayed zoom r={r}: layer calls and execute disagree")
                });
            }
            (Req::Sweep(radii), Summary::Sweep { hashes }) => {
                let got = solve_paired(tracer, &mut out, k, state.catalog().graph(), radii)?;
                checks.expect(got == *hashes, || {
                    "replayed sweep: layer calls and execute disagree".into()
                });
            }
            (Req::Insert(coords), Summary::Mutation { .. }) => {
                let dc = mirror.distance_computations();
                let live = mirror.len() as f64;
                let receipt = tracer
                    .span(INSERT, || mirror.insert(coords))
                    .map_err(|e| format!("replayed insert: {e}"))?;
                let made = (mirror.distance_computations() - dc) as f64;
                checks.expect(made == live, || {
                    format!("insert made {made} distance computations, live n was {live}")
                });
                out.insert_dc.push(made);
                tracer
                    .span(REPAIR, || tracker.repair_insert(&receipt))
                    .map_err(|e| format!("repair insert: {e}"))?;
            }
            (Req::Delete(ext), Summary::Mutation { .. }) => {
                let receipt = tracer
                    .span(REMOVE, || {
                        mirror.remove_external(*ext as disc_metric::ObjId)
                    })
                    .map_err(|e| format!("replayed delete: {e}"))?;
                tracer
                    .span(REPAIR, || tracker.repair_remove(&mirror, &receipt))
                    .map_err(|e| format!("repair delete: {e}"))?;
            }
            (req, summary) => {
                return Err(format!("replayed request {k} ({req:?}) ended {summary:?}"))
            }
        }
    }
    Ok(out)
}
