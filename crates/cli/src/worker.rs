//! Request execution: deadline enforcement, panic isolation, and the
//! actual calls into the graph-resident DisC runners.
//!
//! Everything here is **index-free**: a snapshot persists the dataset
//! and the stratified disk graph but not the M-tree, so serving uses
//! exactly the graph-resident selection runners
//! ([`disc_core::greedy_disc_graph_checked`] for one radius and a
//! sweep's first step, [`disc_core::greedy_zoom_in_live_checked`]
//! chains for the further sweep steps). The parity guarantee — a
//! served solution is byte-identical to the same runner called
//! in-process — holds by construction, because these are the same
//! functions, and the `*_checked` runners are pinned byte-identical to
//! their plain twins when the token never fires.
//!
//! Both solve on the catalog's live view
//! ([`disc_graph::StreamingCatalog::view`]: per slot the base prefix
//! plus the appended prefix, one binary search per row, deleted objects
//! absent) under the catalog read lock. A zoom, a sweep's first step
//! and the repair-tracker bootstrap hand it straight to Greedy-DisC,
//! and each further sweep step runs
//! [`disc_core::greedy_zoom_in_live_checked`] on the view at its
//! radius. No request copies a view into an id-sorted CSR, and none
//! waits for a compaction: the runners read rows as neighbour sets, so
//! the answer on the live view equals the answer on the compacted
//! graph, byte for byte. Nothing here calls `graph()`.
//!
//! Two diagnostic ops ride along: `sleep` (occupies a worker, polling
//! its token — the saturation and deadline tests are built from it) and
//! `panic` (panics on purpose — the isolation test). Both are part of
//! the wire protocol so operators can probe a live pool.
//!
//! The streaming verbs `insert` and `delete` mutate the catalog under
//! the write lock — an overlay write, O(n + degree), plus a compaction
//! once the overlay passes 1/8 of the base — and invalidate **only the
//! affected radii** in the
//! [`SolutionCache`]: an entry survives an insert when one of its
//! selected objects covers the new point at the entry's radius (the
//! point joins the covered set, the cached cover stays valid), and
//! survives a delete when the removed object was not selected (a
//! covered object leaving cannot break independence or domination).
//! Surviving entries are valid DisC covers of the mutated catalog;
//! they are byte-identical to a fresh solve only until a mutation
//! touches their neighborhood — the same bounded-drift contract
//! [`disc_core::RepairableSolution`] documents.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use disc_core::{
    greedy_disc_graph, greedy_disc_graph_checked, greedy_zoom_in_live_checked, DiscResult,
    RepairableSolution,
};
use disc_graph::{InsertReceipt, RemoveReceipt, StreamingCatalog};
use disc_metric::{CancelToken, ObjId};
use disc_store::fnv1a_64;

use crate::cache::{CachedSolution, SolutionCache};
use crate::error::CliError;
use crate::state::ServeState;

/// What a request asks for.
#[derive(Debug, Clone)]
pub enum Op {
    /// One DisC solution at `radius` (graph-resident greedy).
    Zoom {
        /// Query radius, `0 < radius ≤ r_max`.
        radius: f64,
    },
    /// A descending chain of radii: full greedy at the first, then
    /// greedy zoom-in for each subsequent radius.
    Sweep {
        /// Strictly descending radii, all in `(0, r_max]`.
        radii: Vec<f64>,
    },
    /// Diagnostic: hold a worker for `ms` milliseconds, honouring the
    /// deadline token while doing so.
    Sleep {
        /// How long to occupy the worker.
        ms: u64,
    },
    /// Diagnostic: panic inside the worker. The pool must survive.
    Panic,
    /// Streaming mutation: insert one point into the live catalog. The
    /// new object takes the next never-used external id.
    Insert {
        /// Coordinates, `dim` values in dataset axis order.
        coords: Vec<f64>,
    },
    /// Streaming mutation: remove the object with this external id.
    Delete {
        /// External id to remove; tombstoned forever afterwards.
        external: ObjId,
    },
}

/// One admitted unit of work.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id echoed back in the reply.
    pub id: u64,
    /// What to do.
    pub op: Op,
    /// Absolute deadline; expired requests return `cancelled` without
    /// running, running requests observe it through a [`CancelToken`].
    pub deadline: Option<Instant>,
}

impl Request {
    /// Wire name of the op, echoed in every reply.
    pub fn op_name(&self) -> &'static str {
        match self.op {
            Op::Zoom { .. } => "zoom",
            Op::Sweep { .. } => "sweep",
            Op::Sleep { .. } => "sleep",
            Op::Panic => "panic",
            Op::Insert { .. } => "insert",
            Op::Delete { .. } => "delete",
        }
    }
}

/// How a request ended.
#[derive(Debug)]
pub enum Outcome {
    /// A zoom solved (or served from cache).
    Zoomed {
        /// The per-radius solution.
        value: Arc<CachedSolution>,
        /// Whether it came from the solution cache.
        cached: bool,
        /// Whether it was served on the degraded path (admission
        /// rejected, answered from cache instead of shed).
        degraded: bool,
    },
    /// A sweep solved every step.
    Swept {
        /// One solution per requested radius, in request order.
        steps: Vec<Arc<CachedSolution>>,
    },
    /// A sleep ran to completion.
    Slept {
        /// The requested duration.
        ms: u64,
    },
    /// An insert was applied to the live catalog.
    Inserted {
        /// External id assigned to the new object.
        external: ObjId,
        /// Neighbors within `r_max` the insert linked the new object to.
        neighbors: usize,
        /// Live object count after the mutation.
        n: usize,
        /// Cache entries dropped because the new point broke their
        /// cover (no selected object within the entry's radius).
        invalidated: usize,
        /// Selection churn this mutation caused in the maintained
        /// `r_max` cover: `newly_selected + unselected` from the
        /// [`disc_core::RepairableSolution`] repair (0 when the repair
        /// left the selected set untouched, and for the bootstrap
        /// mutation itself).
        drift: usize,
    },
    /// A delete was applied to the live catalog.
    Deleted {
        /// The removed (now tombstoned) external id.
        external: ObjId,
        /// Surviving neighbors the object had within `r_max`.
        neighbors: usize,
        /// Live object count after the mutation.
        n: usize,
        /// Cache entries dropped because they had selected the removed
        /// object.
        invalidated: usize,
        /// Selection churn in the maintained `r_max` cover (see
        /// [`Outcome::Inserted::drift`]); deleting a selected object
        /// counts 1 plus every neighbour the repair promoted.
        drift: usize,
    },
    /// The deadline fired before completion; no partial state escaped.
    Cancelled,
    /// The worker caught a panic from this request; the pool lives on.
    Panicked,
    /// The admission queue was full and no cached answer existed.
    Shed {
        /// Queue capacity at the time of the shed.
        capacity: usize,
    },
    /// The request was invalid or failed; the message says why.
    Failed {
        /// Rendered error.
        error: String,
    },
}

/// A finished request: id and op echoed, outcome attached.
#[derive(Debug)]
pub struct Reply {
    /// Id from the request.
    pub id: u64,
    /// Wire name of the op.
    pub op: &'static str,
    /// How it ended.
    pub outcome: Outcome,
}

/// FNV-1a 64 over the solution ids as little-endian `u64`s — the wire
/// hash that lets a script pin a served solution against an in-process
/// run without shipping the id list.
pub fn solution_hash(solution: &[ObjId]) -> u64 {
    let mut bytes = Vec::with_capacity(solution.len() * 8);
    for &id in solution {
        bytes.extend_from_slice(&(id as u64).to_le_bytes());
    }
    fnv1a_64(&bytes)
}

fn cacheable(result: DiscResult) -> Arc<CachedSolution> {
    let hash = solution_hash(&result.solution);
    Arc::new(CachedSolution {
        radius: result.radius,
        solution: result.solution,
        hash,
    })
}

/// One DisC solution at `radius ∈ (0, r_max]`, via the graph-resident
/// greedy runner on the catalog's live view. Holds the catalog read
/// lock for the duration of the solve.
pub fn solve_zoom(
    state: &ServeState,
    radius: f64,
    cancel: Option<&CancelToken>,
) -> Result<Arc<CachedSolution>, CliError> {
    validate_radii(&[radius], state.r_max)?;
    let catalog = state.live_catalog();
    let view = catalog.view(radius)?;
    let result = greedy_disc_graph_checked(&view, cancel)?;
    Ok(cacheable(result))
}

/// Validates a zoom radius or a sweep's radii: non-empty, finite,
/// strictly descending, all within `(0, r_max]`.
pub fn validate_radii(radii: &[f64], r_max: f64) -> Result<(), CliError> {
    if radii.is_empty() {
        return Err(CliError::Usage("sweep needs at least one radius".into()));
    }
    for &r in radii {
        if !r.is_finite() || r <= 0.0 || r > r_max {
            return Err(CliError::Usage(format!(
                "radius {r} outside the serveable range (0, {r_max}]"
            )));
        }
    }
    for window in radii.windows(2) {
        if window[1] >= window[0] {
            return Err(CliError::Usage(format!(
                "sweep radii must be strictly descending, got {} then {}",
                window[0], window[1]
            )));
        }
    }
    Ok(())
}

/// A descending radius sweep: full greedy at the first radius, then a
/// greedy zoom-in chain — each step is byte-identical to calling the
/// same runners in-process. One catalog read lock spans the whole
/// chain, so every step of a sweep sees the same catalog state even
/// while mutations are queued.
pub fn solve_sweep(
    state: &ServeState,
    radii: &[f64],
    cancel: Option<&CancelToken>,
) -> Result<Vec<Arc<CachedSolution>>, CliError> {
    validate_radii(radii, state.r_max)?;
    let catalog = state.live_catalog();
    let mut steps = Vec::with_capacity(radii.len());
    let view = catalog.view(radii[0])?;
    let mut prev = greedy_disc_graph_checked(&view, cancel)?;
    steps.push(cacheable(prev.clone()));
    for &r in &radii[1..] {
        prev = greedy_zoom_in_live_checked(&catalog.view(r)?, &prev, cancel)?.result;
        steps.push(cacheable(prev.clone()));
    }
    Ok(steps)
}

/// Sleeps `ms` milliseconds in 1 ms slices, polling the token between
/// slices so a deadline interrupts promptly.
fn run_sleep(ms: u64, cancel: Option<&CancelToken>) -> Result<(), CliError> {
    for _ in 0..ms {
        if let Some(token) = cancel {
            token.checkpoint()?;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if let Some(token) = cancel {
        token.checkpoint()?;
    }
    Ok(())
}

/// Bootstraps the maintained `r_max` cover from a fresh greedy solve
/// over the catalog's *current* object set (so the mutation that
/// triggered the bootstrap contributes no drift — there was no prior
/// selection to drift from).
fn bootstrap_tracker(catalog: &StreamingCatalog, r_max: f64) -> Option<RepairableSolution> {
    let view = catalog.view(r_max).ok()?;
    let result = greedy_disc_graph(&view);
    RepairableSolution::from_result(catalog, &result).ok()
}

/// Folds one mutation receipt into the maintained `r_max` cover and
/// returns the selection churn (`newly_selected + unselected`). Called
/// with the catalog write guard held, so tracker and catalog move in
/// lock-step. A repair rejection means tracker and catalog fell out of
/// step (only reachable after a contained panic between the two
/// updates): the tracker is dropped so the next mutation
/// re-bootstraps, and the mutation itself stands.
fn track_mutation(
    state: &ServeState,
    catalog: &StreamingCatalog,
    receipt: TrackReceipt<'_>,
) -> usize {
    let mut tracker = state.tracker();
    match tracker.as_mut() {
        Some(rs) => {
            let report = match receipt {
                TrackReceipt::Insert(r) => rs.repair_insert(r),
                TrackReceipt::Remove(r) => rs.repair_remove(catalog, r),
            };
            match report {
                Ok(report) => report.newly_selected + report.unselected,
                Err(_) => {
                    *tracker = None;
                    0
                }
            }
        }
        None => {
            *tracker = bootstrap_tracker(catalog, state.r_max);
            0
        }
    }
}

/// Which streaming receipt a mutation produced.
enum TrackReceipt<'a> {
    /// An insert's receipt.
    Insert(&'a InsertReceipt),
    /// A delete's receipt (catalog already mutated).
    Remove(&'a RemoveReceipt),
}

fn run_op(
    state: &ServeState,
    cache: &SolutionCache,
    op: &Op,
    cancel: Option<&CancelToken>,
) -> Result<Outcome, CliError> {
    match op {
        Op::Zoom { radius } => {
            if let Some(hit) = cache.get(*radius) {
                return Ok(Outcome::Zoomed {
                    value: hit,
                    cached: true,
                    degraded: false,
                });
            }
            // Observe the mutation generation before the catalog read
            // lock: if an insert/delete lands while this solve runs,
            // `put_if_current` rejects the (now pre-mutation) solution
            // instead of caching a stale cover.
            let generation = cache.generation();
            let value = solve_zoom(state, *radius, cancel)?;
            cache.put_if_current(generation, Arc::clone(&value));
            Ok(Outcome::Zoomed {
                value,
                cached: false,
                degraded: false,
            })
        }
        // Sweep steps are deliberately NOT cached: a step at radius r
        // continues the chain from the radius above it, so its solution
        // differs from a standalone zoom at r — caching it would let a
        // later `zoom r=…` serve the wrong answer. The cache holds only
        // standalone zoom solutions.
        Op::Sweep { radii } => Ok(Outcome::Swept {
            steps: solve_sweep(state, radii, cancel)?,
        }),
        Op::Sleep { ms } => {
            run_sleep(*ms, cancel)?;
            Ok(Outcome::Slept { ms: *ms })
        }
        Op::Panic => panic!("injected panic (diagnostic op)"),
        Op::Insert { coords } => {
            let mut catalog = state.catalog_mut();
            let receipt = catalog.insert(coords)?;
            let n = catalog.len();
            let drift = track_mutation(state, &catalog, TrackReceipt::Insert(&receipt));
            // Invalidate while still holding the write lock, so no
            // reader can observe the mutated catalog next to a stale
            // cache. An entry at radius r stays valid iff some selected
            // object covers the new point within r.
            let invalidated = cache.invalidate_if(|cached| {
                !receipt
                    .neighbors
                    .iter()
                    .any(|&(b, d)| d <= cached.radius && cached.solution.contains(&b))
            });
            drop(catalog);
            Ok(Outcome::Inserted {
                external: receipt.external,
                neighbors: receipt.neighbors.len(),
                n,
                invalidated,
                drift,
            })
        }
        Op::Delete { external } => {
            let mut catalog = state.catalog_mut();
            let receipt = catalog.remove_external(*external)?;
            let n = catalog.len();
            let drift = track_mutation(state, &catalog, TrackReceipt::Remove(&receipt));
            // A cover survives a delete iff the removed object was
            // merely covered (grey): losing a selected object breaks
            // domination for its neighborhood.
            let invalidated = cache.invalidate_if(|cached| cached.solution.contains(external));
            drop(catalog);
            Ok(Outcome::Deleted {
                external: receipt.external,
                neighbors: receipt.neighbors.len(),
                n,
                invalidated,
                drift,
            })
        }
    }
}

/// Runs one request to a reply: deadline pre-check, token construction,
/// panic containment. Never panics itself; a panicking op becomes
/// [`Outcome::Panicked`] and the calling worker keeps serving.
pub fn execute(state: &ServeState, cache: &SolutionCache, req: &Request) -> Reply {
    let id = req.id;
    let op_name = req.op_name();
    // A request whose deadline already passed is answered `cancelled`
    // without touching the graph: queue wait counts against the
    // deadline, exactly like time spent scanning would.
    let token = match req.deadline {
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Reply {
                    id,
                    op: op_name,
                    outcome: Outcome::Cancelled,
                };
            }
            Some(CancelToken::with_deadline(remaining))
        }
        None => None,
    };
    let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_op(state, cache, &req.op, token.as_ref())
    })) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) if e.exit_code() == crate::error::EXIT_CANCELLED => Outcome::Cancelled,
        Ok(Err(e)) => Outcome::Failed {
            error: e.to_string(),
        },
        Err(_panic) => Outcome::Panicked,
    };
    Reply {
        id,
        op: op_name,
        outcome,
    }
}
