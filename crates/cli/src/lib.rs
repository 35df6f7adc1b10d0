//! Operator tooling for DisC diversity snapshots: the `disc` binary and
//! the hardened serving core behind it.
//!
//! The compute crates answer "which objects form a covering,
//! independent subset at radius r"; this crate answers "how do I run
//! that for real" — build a snapshot, query it, keep a process serving
//! it under deadlines, saturation, and corrupted files, and triage a
//! snapshot that will not load.
//!
//! # OPERATIONS
//!
//! ## Verbs
//!
//! | verb          | what it does                                                   |
//! |---------------|----------------------------------------------------------------|
//! | `disc build`  | generate a synthetic dataset, materialise the stratified disk graph at `--radius`, write one snapshot file |
//! | `disc zoom`   | open a snapshot, solve one radius (`--radius`) or a descending chain (`--radii`), print one JSON line per radius |
//! | `disc serve`  | open a snapshot once, then serve zoom/sweep requests and `insert`/`delete` mutations from stdin on a fixed worker pool, JSON replies on stdout |
//! | `disc doctor` | non-fail-fast triage of a snapshot file: per-section checksum report, truncation point, version/endianness diagnosis, and the exact accept/reject verdict serving would reach |
//!
//! ## Exit codes (stable; scripts may depend on them)
//!
//! | code | meaning                                  | typical cause                         |
//! |------|------------------------------------------|---------------------------------------|
//! | 0    | success                                  |                                       |
//! | 2    | usage error                              | unknown verb, bad flag, bad value     |
//! | 3    | snapshot rejected ([`disc_store::StoreError`]) | bit rot, truncation, version skew |
//! | 4    | I/O failure                              | missing file, permissions             |
//! | 5    | graph error ([`disc_graph::GraphError`]) | radius outside `(0, r_max]`           |
//! | 6    | dataset error                            | invalid generated/decoded points      |
//! | 7    | self-join error                          | invalid build radius                  |
//! | 8    | deadline cancelled                       | `--deadline-ms` expired mid-solve     |
//! | 9    | overloaded                               | admission queue full, nothing cached  |
//!
//! ## Deadline semantics
//!
//! A request's `deadline_ms` is a wall-clock budget measured from
//! submission. Time spent queued counts: a request whose deadline
//! expires while waiting is answered `cancelled` without touching the
//! graph. A running request carries a [`disc_metric::CancelToken`];
//! the selection runners poll it once per selection round, so expiry
//! mid-scan returns a clean `cancelled` reply — no partial solution is
//! ever serialised, cached, or counted as completed.
//!
//! ## Admission and shedding
//!
//! The pool has `--workers` threads behind a bounded queue of
//! `--queue` slots and **never blocks the reader**. When the queue is
//! full, a zoom at a radius the pool has already answered is served
//! from a small per-radius LRU cache with `"degraded":true` (correct
//! answer, stale latency); anything else is shed immediately with
//! `"status":"shed"` (exit code 9's family on the wire). The
//! `stats` protocol line reports exact counters satisfying
//! `submitted == admitted + degraded + shed` and
//! `admitted == completed + cancelled + panicked + failed`.
//!
//! A panicking request (including the deliberate `panic` diagnostic
//! op) is caught in the worker, answered `"status":"panicked"`,
//! counted, and the worker keeps serving — one poisoned request
//! cannot take down the pool.
//!
//! ## Serve protocol
//!
//! One request per line on stdin; one JSON object per line on stdout
//! (a `ready` banner first, a final `stats` object at shutdown):
//!
//! ```text
//! id=1 zoom r=0.05 deadline_ms=250
//! id=2 sweep radii=0.2,0.1,0.05
//! id=3 sleep ms=40
//! id=4 panic
//! id=5 insert coords=0.31,0.62
//! id=6 delete ext=17
//! stats
//! quit
//! ```
//!
//! A request line holds at most [`serve::MAX_LINE_BYTES`] bytes
//! (64 KiB, newline not counted), and a sweep names at most
//! [`serve::MAX_SWEEP_RADII`] radii (64): each radius is a full solve.
//! A longer line or sweep gets a `{"op":"parse","status":"error",…}`
//! reply; the rest of an over-long line is skipped up to its newline
//! without being buffered, and serving goes on.
//!
//! Replies carry the solution **hash** (FNV-1a 64 over the selected
//! ids, little-endian), not the id list; `disc zoom` prints the same
//! hash for the same snapshot and radius because both paths call the
//! same graph-resident runners — served answers are byte-identical to
//! in-process ones by construction.
//!
//! ## Streaming mutations
//!
//! `insert coords=<c1,...>` adds one point to the live catalog (next
//! never-reused external id, exactly n distance computations to find
//! its edges, which go to the catalog's mutation overlay); `delete
//! ext=<id>` tombstones an external id forever.
//! Both reply `{"status":"ok","external":…,"neighbors":…,"n":…,
//! "invalidated":…}` where `invalidated` counts the per-radius cache
//! entries dropped — only the radii whose cached cover the mutation
//! broke are invalidated (an insert covered by a cached solution, or a
//! delete of a non-selected object, keeps the entry). Surviving
//! entries stay valid DisC covers of the mutated catalog under the
//! same bounded-drift contract as [`disc_core::RepairableSolution`];
//! an unknown/tombstoned `ext` is a usage error reply. A mutated
//! catalog persists its `next_external`, sorted tombstone list and
//! explicit external ids in the snapshot's ext-ids section; a dense
//! catalog has `next_external = n` and no tombstones. Snapshots are
//! written as format version 4; legacy versions 2 and 3 still load for
//! serving.
//!
//! ## Doctor output
//!
//! `disc doctor --snapshot f.snap` prints a fixed-shape report: a
//! `snapshot:`/`magic:`/`version:`/`endian:`/`length:` header block,
//! one `checks:` line per checksummed region (named `header`,
//! `section table`, `meta`, `coords`, `offsets`, `neighbors`,
//! `dists`, `ext ids`, `name`) with `ok`, `MISMATCH (stored …, computed …)`, or
//! `MISSING`, and a final `verdict: clean` or
//! `verdict: REJECTED: <reason>` line that always matches what
//! `disc serve` would do with the file, because the verdict *is*
//! [`disc_store::decode_stream`]'s, the open `disc serve` and
//! `disc zoom` run.

#![warn(missing_docs)]

pub mod admission;
pub mod args;
pub mod cache;
pub mod doctor;
pub mod error;
pub mod serve;
pub mod state;
pub mod verbs;
pub mod worker;

pub use error::CliError;
pub use serve::{CounterSnapshot, ServeConfig, Server};
pub use state::ServeState;
pub use verbs::run;
