//! Serve-under-fault acceptance suite.
//!
//! Pins the hardened serving contract end to end:
//!
//! - a fault-injected snapshot is rejected at startup with the owning
//!   section named (exit-code family 3), never opened partially;
//! - deadline-expired requests come back `cancelled` with exact
//!   counters and no partial state (the cache stays clean);
//! - one panicking request does not take down the pool — requests
//!   after the panic are served;
//! - saturation sheds with a typed overload reply, or serves degraded
//!   from cache when the radius was answered before;
//! - served solutions are byte-identical to the in-process
//!   graph-resident runners at every radius, including through the
//!   stdin/stdout line protocol;
//! - an over-long request line or an over-long sweep is a parse error
//!   reply, and the loop keeps serving.

use std::io::{BufRead, BufReader, Cursor, Read};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use disc_cli::error::CliError;
use disc_cli::serve::{
    parse_line, run_lines, LineCmd, ServeConfig, Server, Sink, MAX_LINE_BYTES, MAX_SWEEP_RADII,
};
use disc_cli::state::ServeState;
use disc_cli::worker::{solution_hash, Op, Outcome, Reply, Request};
use disc_core::{greedy_disc_graph, greedy_zoom_in_graph};
use disc_graph::StratifiedDiskGraph;
use disc_store::fault::{corrupt, Fault};
use disc_store::SectionId;

const R_MAX: f64 = 0.3;

fn dataset() -> disc_metric::Dataset {
    disc_datasets::synthetic::clustered(400, 2, 4, 7)
}

/// Writes a small clean snapshot to a fresh temp path.
fn snapshot_file(tag: &str) -> std::path::PathBuf {
    let data = dataset();
    let graph = StratifiedDiskGraph::build(&data, R_MAX);
    let dir = std::env::temp_dir().join("disc-cli-serve-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}-{}.snap", std::process::id()));
    disc_store::write_snapshot(&path, &data, &graph).expect("write snapshot");
    path
}

fn open(tag: &str) -> Arc<ServeState> {
    let path = snapshot_file(tag);
    let state = ServeState::open(&path).expect("clean snapshot opens");
    let _ = std::fs::remove_file(&path);
    state
}

/// A sink that collects replies and lets tests wait for a count.
#[derive(Default)]
struct Collect {
    replies: Mutex<Vec<(u64, &'static str, String)>>,
    arrived: Condvar,
}

impl Collect {
    fn wait_for(&self, n: usize, timeout: Duration) -> Vec<(u64, &'static str, String)> {
        let deadline = Instant::now() + timeout;
        let mut replies = self.replies.lock().expect("collect lock");
        while replies.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "timed out waiting for {n} replies");
            let (guard, _) = self
                .arrived
                .wait_timeout(replies, left)
                .expect("collect wait");
            replies = guard;
        }
        replies.clone()
    }
}

fn status_of(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Zoomed {
            cached, degraded, ..
        } => format!("ok cached={cached} degraded={degraded}"),
        Outcome::Swept { .. } => "ok".into(),
        Outcome::Slept { .. } => "ok".into(),
        Outcome::Inserted { invalidated, .. } => format!("inserted invalidated={invalidated}"),
        Outcome::Deleted { invalidated, .. } => format!("deleted invalidated={invalidated}"),
        Outcome::Cancelled => "cancelled".into(),
        Outcome::Panicked => "panicked".into(),
        Outcome::Shed { .. } => "shed".into(),
        Outcome::Failed { error } => format!("error: {error}"),
    }
}

impl Sink for Collect {
    fn deliver(&self, reply: &Reply) {
        self.replies.lock().expect("collect lock").push((
            reply.id,
            reply.op,
            status_of(&reply.outcome),
        ));
        self.arrived.notify_all();
    }

    fn info(&self, _line: &str) {}
}

fn zoom(id: u64, radius: f64) -> Request {
    Request {
        id,
        op: Op::Zoom { radius },
        deadline: None,
    }
}

fn sleep_req(id: u64, ms: u64) -> Request {
    Request {
        id,
        op: Op::Sleep { ms },
        deadline: None,
    }
}

// ------------------------------------------------------------------
// Startup: fault-injected snapshots are typed rejections.
// ------------------------------------------------------------------

#[test]
fn corrupted_snapshot_rejected_at_startup_naming_the_section() {
    let path = snapshot_file("startup-reject");
    let bytes = std::fs::read(&path).expect("read snapshot back");
    // Coords payload starts at byte 328 in every format version.
    let bad = corrupt(
        &bytes,
        Fault::BitFlip {
            offset: 360,
            bit: 4,
        },
    );
    let bad_path = path.with_extension("corrupt.snap");
    std::fs::write(&bad_path, &bad).expect("write corrupted copy");

    let err = match ServeState::open(&bad_path) {
        Err(e) => e,
        Ok(_) => unreachable!("corrupted snapshot must not open"),
    };
    assert_eq!(err.exit_code(), 3, "corrupt snapshot is exit-code 3");
    match &err {
        CliError::Store(disc_store::StoreError::ChecksumMismatch { section, .. }) => {
            assert_eq!(*section, SectionId::Coords)
        }
        other => unreachable!("expected coords checksum mismatch, got {other:?}"),
    }
    assert!(
        err.to_string().contains("coords"),
        "message must name the owning section: {err}"
    );

    // Truncation and version skew are equally typed at startup.
    let cut = corrupt(&bytes, Fault::TruncateAt(bytes.len() - 8));
    std::fs::write(&bad_path, &cut).expect("write truncated copy");
    let err = ServeState::open(&bad_path)
        .err()
        .expect("truncated rejected");
    assert_eq!(err.exit_code(), 3);

    let skew = corrupt(&bytes, Fault::VersionSkew(9));
    std::fs::write(&bad_path, &skew).expect("write skewed copy");
    let err = ServeState::open(&bad_path).err().expect("skew rejected");
    assert_eq!(err.exit_code(), 3);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bad_path);
}

#[test]
fn asymmetric_snapshot_refused_by_doctor_and_serve_naming_the_section() {
    // Rows 0:[2,3] 1:[0] 2:[0] 3:[0], sealed with valid checksums: every
    // entry is valid, but (1, 0) has no mirror, and Greedy-DisC would
    // answer the dependent set {0, 1}.
    let bytes = disc_store::encode_parts(&disc_store::SnapshotParts {
        name: "asymmetric",
        metric: disc_metric::Metric::Euclidean,
        dim: 2,
        coords: &[0.0, 0.0, 0.25, 0.0, 0.1, 0.0, 0.0, 0.2],
        radius: R_MAX,
        offsets: &[0, 2, 3, 4, 5],
        neighbors: &[2, 3, 0, 0, 0],
        dists: &[0.1, 0.2, 0.25, 0.1, 0.2],
        ext_ids: None,
    })
    .expect("structurally consistent parts encode");
    let dir = std::env::temp_dir().join("disc-cli-serve-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("asymmetric-{}.snap", std::process::id()));
    std::fs::write(&path, &bytes).expect("write snapshot");
    for verb in ["doctor", "serve"] {
        let argv: Vec<String> = [verb, "--snapshot", &path.display().to_string()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = disc_cli::run(&argv).expect_err("asymmetric snapshot is refused");
        assert_eq!(err.exit_code(), 3, "{verb}: {err}");
        assert!(
            matches!(
                err,
                CliError::Store(disc_store::StoreError::Asymmetric {
                    below: 3,
                    entries: 5
                })
            ),
            "{verb}: {err:?}"
        );
        assert!(
            err.to_string().contains("neighbors section"),
            "{verb} must name the section: {err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

// ------------------------------------------------------------------
// Parity: served solutions == in-process graph-resident runners.
// ------------------------------------------------------------------

#[test]
fn served_solutions_are_byte_identical_to_in_process_runners() {
    let state = open("parity");
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 3,
            queue: 16,
            cache: 16,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    // In-process references, exactly the functions serving uses: a
    // standalone zoom at r is the full greedy runner at r; a sweep is
    // full greedy at the top radius then the zoom-in chain.
    let radii = [0.3, 0.15, 0.075];
    let cat = state.catalog();
    let standalone: Vec<_> = radii
        .iter()
        .map(|&r| greedy_disc_graph(&cat.graph().view(r).to_unit_disk_graph()))
        .collect();
    let top = standalone[0].clone();
    let mid = greedy_zoom_in_graph(cat.graph(), &top, radii[1]).result;
    let low = greedy_zoom_in_graph(cat.graph(), &mid, radii[2]).result;
    drop(cat);
    let chain = [&top, &mid, &low];

    for (i, &r) in radii.iter().enumerate() {
        server.submit(zoom(i as u64, r));
    }
    // A sweep must reproduce the identical chain in one request.
    server.submit(Request {
        id: 99,
        op: Op::Sweep {
            radii: radii.to_vec(),
        },
        deadline: None,
    });
    assert!(server.drain(Duration::from_secs(30)), "pool drains");

    // Compare through the solver API (the sink only carries statuses;
    // solutions are checked against a direct worker call).
    for (i, (&r, want)) in radii.iter().zip(&standalone).enumerate() {
        let got = disc_cli::worker::solve_zoom(&state, r, None).expect("solve");
        assert_eq!(got.solution, want.solution, "radius {r} (index {i})");
        assert_eq!(got.hash, solution_hash(&want.solution));
    }
    let sweep = disc_cli::worker::solve_sweep(&state, &radii, None).expect("sweep");
    for (step, want) in sweep.iter().zip(chain) {
        assert_eq!(step.solution, want.solution);
    }

    let snap = server.shutdown();
    assert_eq!(snap.submitted, 4);
    assert_eq!(snap.admitted, 4);
    assert_eq!(snap.completed, 4);
    assert_eq!(
        snap.shed + snap.degraded + snap.cancelled + snap.panicked + snap.failed,
        0
    );
    assert!(snap.is_consistent(), "{snap:?}");
    // The zoom at 0.3 ran before the sweep cached anything or after —
    // either way every reply was an ok.
    let replies = sink.wait_for(4, Duration::from_secs(1));
    assert!(replies.iter().all(|(_, _, s)| s.starts_with("ok")));
}

// ------------------------------------------------------------------
// Deadlines: expiry in queue and mid-scan, counters exact, no
// partial state.
// ------------------------------------------------------------------

#[test]
fn expired_deadlines_cancel_cleanly_with_exact_counters() {
    let state = open("deadline");
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 8,
            cache: 8,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    // Occupy the single worker long enough that the deadlined request
    // expires while queued.
    server.submit(sleep_req(1, 120));
    server.submit(Request {
        id: 2,
        op: Op::Zoom { radius: 0.1 },
        deadline: Some(Instant::now() + Duration::from_millis(10)),
    });
    // A mid-scan expiry: the sleep op polls its token every millisecond.
    server.submit(Request {
        id: 3,
        op: Op::Sleep { ms: 10_000 },
        deadline: Some(Instant::now() + Duration::from_millis(180)),
    });
    assert!(server.drain(Duration::from_secs(30)), "pool drains");

    let replies = sink.wait_for(3, Duration::from_secs(1));
    let status = |id: u64| {
        replies
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .map(|(_, _, s)| s.clone())
            .expect("reply present")
    };
    assert_eq!(status(1), "ok");
    assert_eq!(status(2), "cancelled", "queue-expired request");
    assert_eq!(status(3), "cancelled", "mid-scan-expired request");

    let snap = server.shutdown();
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.admitted, 3);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.cancelled, 2);
    assert_eq!(snap.failed + snap.panicked + snap.shed + snap.degraded, 0);
    assert!(snap.is_consistent(), "{snap:?}");

    // No partial state: the cancelled zoom must not have populated the
    // cache — a fresh zoom at the same radius is computed, not cached.
    let fresh = disc_cli::worker::solve_zoom(&state, 0.1, None).expect("solve");
    let reference = greedy_disc_graph(&state.catalog().graph().view(0.1).to_unit_disk_graph());
    assert_eq!(fresh.solution, reference.solution);
}

// ------------------------------------------------------------------
// Panic isolation: the pool survives and keeps serving.
// ------------------------------------------------------------------

#[test]
fn panicking_request_does_not_kill_the_pool() {
    let state = open("panic");
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 8,
            cache: 8,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    server.submit(Request {
        id: 1,
        op: Op::Panic,
        deadline: None,
    });
    // Served-after-panic: the same single worker must answer this.
    server.submit(zoom(2, 0.1));
    assert!(server.drain(Duration::from_secs(30)), "pool drains");

    let replies = sink.wait_for(2, Duration::from_secs(1));
    assert_eq!(replies[0].2, "panicked");
    assert!(
        replies[1].2.starts_with("ok"),
        "served after panic: {replies:?}"
    );

    let snap = server.shutdown();
    assert_eq!(snap.panicked, 1);
    assert_eq!(snap.completed, 1);
    assert!(snap.is_consistent(), "{snap:?}");
}

// ------------------------------------------------------------------
// Saturation: typed shed, degraded cache service.
// ------------------------------------------------------------------

#[test]
fn saturation_sheds_typed_and_serves_degraded_from_cache() {
    let state = open("saturate");
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 1,
            cache: 8,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    // Warm the cache while the pool is idle.
    server.submit(zoom(1, 0.1));
    assert!(server.drain(Duration::from_secs(30)), "warm-up drains");

    // Saturate: one sleep occupies the worker, one fills the queue.
    server.submit(sleep_req(2, 250));
    std::thread::sleep(Duration::from_millis(50)); // worker picked up #2
    server.submit(sleep_req(3, 1));

    // Queue now full: a cached radius is served degraded...
    server.submit(zoom(4, 0.1));
    // ...an uncached radius is shed with the typed overload reply.
    server.submit(zoom(5, 0.2));

    // Degraded and shed replies are delivered synchronously by submit.
    let replies = sink.wait_for(3, Duration::from_secs(1));
    let status = |id: u64| {
        replies
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .map(|(_, _, s)| s.clone())
            .expect("reply present")
    };
    assert_eq!(status(4), "ok cached=true degraded=true");
    assert_eq!(status(5), "shed");

    assert!(server.drain(Duration::from_secs(30)), "pool drains");
    let snap = server.shutdown();
    assert_eq!(snap.submitted, 5);
    assert_eq!(snap.admitted, 3);
    assert_eq!(snap.degraded, 1);
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.completed, 3);
    assert!(snap.cache_hits >= 1);
    assert!(snap.is_consistent(), "{snap:?}");

    // The typed error behind the wire reply carries the capacity.
    let overload = CliError::Overloaded { capacity: 1 };
    assert_eq!(overload.exit_code(), 9);
}

// ------------------------------------------------------------------
// Line protocol end to end.
// ------------------------------------------------------------------

#[test]
fn line_protocol_round_trips_and_matches_runner_hashes() {
    let state = open("protocol");
    let cat = state.catalog();
    let reference = greedy_disc_graph(&cat.graph().view(0.1).to_unit_disk_graph());
    let want_hash = format!("{:#018x}", solution_hash(&reference.solution));
    // The sweep's 0.1 step continues the chain from 0.2 — a different
    // solution (and hash) than the standalone zoom at 0.1.
    let sweep_top = greedy_disc_graph(&cat.graph().view(0.2).to_unit_disk_graph());
    let sweep_step = greedy_zoom_in_graph(cat.graph(), &sweep_top, 0.1).result;
    let sweep_hash = format!("{:#018x}", solution_hash(&sweep_step.solution));
    drop(cat);

    // One worker keeps execution strictly FIFO, so the mutations run
    // after the zoom/sweep solves and cannot perturb their hashes.
    let input = Cursor::new(
        "id=1 zoom r=0.1\n\
         id=2 sweep radii=0.2,0.1\n\
         this is not a command\n\
         id=3 panic\n\
         id=4 insert coords=0.5,0.5\n\
         id=5 delete ext=0\n\
         stats\n\
         quit\n",
    );
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::new(disc_cli::serve::JsonSink::new(Arc::clone(&out)));
    let snap = run_lines(
        state,
        ServeConfig {
            workers: 1,
            queue: 8,
            cache: 8,
        },
        input,
        sink,
    )
    .expect("serve loop runs");

    assert_eq!(snap.submitted, 5);
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.panicked, 1);
    assert!(snap.is_consistent(), "{snap:?}");

    let text = String::from_utf8(out.lock().expect("out lock").clone()).expect("utf8");
    assert!(text.contains("\"op\":\"ready\""), "{text}");
    assert!(
        text.contains(&want_hash),
        "zoom hash must match in-process: {text}"
    );
    assert!(
        text.contains(&sweep_hash),
        "sweep chain hash must match in-process: {text}"
    );
    assert!(text.contains("\"status\":\"panicked\""), "{text}");
    assert!(
        text.contains("\"op\":\"insert\",\"status\":\"ok\",\"external\":400"),
        "insert takes the next external id: {text}"
    );
    assert!(
        text.contains("\"op\":\"delete\",\"status\":\"ok\",\"external\":0"),
        "delete echoes the tombstoned id: {text}"
    );
    assert!(
        text.contains("\"op\":\"parse\""),
        "malformed line reported: {text}"
    );
    assert!(text.contains("\"op\":\"stats\""), "{text}");

    // parse_line grammar corners.
    assert!(matches!(parse_line("stats"), Ok(LineCmd::Stats)));
    assert!(matches!(parse_line("quit"), Ok(LineCmd::Quit)));
    assert!(parse_line("id=1 zoom").is_err(), "zoom needs r=");
    assert!(parse_line("zoom r=0.1").is_err(), "id required");
    assert!(parse_line("id=1 warp r=0.1").is_err(), "unknown op");
    assert!(parse_line("id=1 insert").is_err(), "insert needs coords=");
    assert!(parse_line("id=1 delete").is_err(), "delete needs ext=");
    assert!(parse_line("id=1 delete ext=zap").is_err(), "ext is a u64");
    assert!(
        matches!(
            parse_line("id=1 insert coords=0.5,0.5"),
            Ok(LineCmd::Request(Request {
                op: Op::Insert { .. },
                ..
            }))
        ),
        "insert parses"
    );
    assert!(
        matches!(
            parse_line("id=1 delete ext=7"),
            Ok(LineCmd::Request(Request {
                op: Op::Delete { external: 7 },
                ..
            }))
        ),
        "delete parses"
    );
}

// ------------------------------------------------------------------
// Born-expired deadlines: clean shed through `cancelled` at submit.
// ------------------------------------------------------------------

#[test]
fn born_expired_requests_never_reach_a_worker_or_the_cache() {
    let state = open("born-expired");
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 1,
            cache: 8,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    // Occupy the single worker and fill the single queue slot, so a
    // request that consumed a slot here would have to be shed.
    server.submit(sleep_req(1, 200));
    std::thread::sleep(Duration::from_millis(50)); // worker picked up #1
    server.submit(sleep_req(2, 1));

    // Born expired (0 ms budget): answered `cancelled` synchronously at
    // submit — no queue slot, no worker, no cache write.
    server.submit(Request {
        id: 3,
        op: Op::Zoom { radius: 0.1 },
        deadline: Some(Instant::now()),
    });
    let replies = sink.wait_for(1, Duration::from_secs(1));
    let born = replies
        .iter()
        .find(|(rid, _, _)| *rid == 3)
        .expect("synchronous reply");
    assert_eq!(born.2, "cancelled");

    assert!(server.drain(Duration::from_secs(30)), "pool drains");

    // The per-radius LRU stays unpolluted: a later zoom at the same
    // radius is computed, not served from cache.
    server.submit(zoom(4, 0.1));
    assert!(server.drain(Duration::from_secs(30)), "follow-up drains");
    let replies = sink.wait_for(4, Duration::from_secs(1));
    let status = |id: u64| {
        replies
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .map(|(_, _, s)| s.clone())
            .expect("reply present")
    };
    assert_eq!(status(4), "ok cached=false degraded=false");

    let snap = server.shutdown();
    assert_eq!(snap.submitted, 4);
    assert_eq!(snap.admitted, 4);
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.cancelled, 1);
    // shed == 0 proves the born-expired request consumed no queue slot:
    // the queue was full the moment it arrived.
    assert_eq!(snap.shed + snap.degraded + snap.failed + snap.panicked, 0);
    assert_eq!(snap.cache_hits, 0, "the cancelled zoom touched no cache");
    assert!(snap.is_consistent(), "{snap:?}");
}

// ------------------------------------------------------------------
// Streaming mutations: only the affected radii leave the cache.
// ------------------------------------------------------------------

#[test]
fn mutations_invalidate_only_the_affected_radii() {
    let state = open("mutate");
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 8,
            cache: 8,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    // Warm the cache at one radius, then pick a selected (black) and a
    // merely-covered (grey) object plus the black's coordinates.
    let r = 0.12;
    server.submit(zoom(1, r));
    assert!(server.drain(Duration::from_secs(30)), "warm-up drains");
    let solution = disc_cli::worker::solve_zoom(&state, r, None)
        .expect("solve")
        .solution
        .clone();
    let black = solution[0];
    let (grey, black_coords) = {
        let cat = state.catalog();
        let grey = cat
            .live_externals()
            .into_iter()
            .find(|e| !solution.contains(e))
            .expect("some live object is unselected");
        let v = cat.internal_of(black).expect("selected object is live");
        let dim = cat.data().dim();
        let coords = cat.data().flat_coords()[v * dim..(v + 1) * dim].to_vec();
        (grey, coords)
    };

    // FIFO through the single worker: each mutation lands before the
    // zoom probing the cache behind it.
    server.submit(Request {
        id: 2,
        op: Op::Insert {
            coords: black_coords,
        },
        deadline: None,
    });
    server.submit(zoom(3, r));
    server.submit(Request {
        id: 4,
        op: Op::Delete { external: grey },
        deadline: None,
    });
    server.submit(zoom(5, r));
    server.submit(Request {
        id: 6,
        op: Op::Delete { external: black },
        deadline: None,
    });
    server.submit(zoom(7, r));
    server.submit(Request {
        id: 8,
        op: Op::Delete {
            external: 1_000_000,
        },
        deadline: None,
    });
    assert!(server.drain(Duration::from_secs(30)), "pool drains");

    let replies = sink.wait_for(8, Duration::from_secs(1));
    let status = |id: u64| {
        replies
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .map(|(_, _, s)| s.clone())
            .expect("reply present")
    };
    // A duplicate of a selected object is covered at distance zero:
    // the cached cover stays valid.
    assert_eq!(status(2), "inserted invalidated=0");
    assert_eq!(status(3), "ok cached=true degraded=false");
    // Deleting a grey removes a covered object; nothing breaks.
    assert_eq!(status(4), "deleted invalidated=0");
    assert_eq!(status(5), "ok cached=true degraded=false");
    // Deleting the black breaks every cover that selected it.
    assert_eq!(status(6), "deleted invalidated=1");
    assert_eq!(status(7), "ok cached=false degraded=false");
    // An unknown external id is a typed failure reply, not a panic.
    assert!(status(8).starts_with("error:"), "{replies:?}");

    let snap = server.shutdown();
    assert_eq!(snap.submitted, 8);
    assert_eq!(snap.admitted, 8);
    assert_eq!(snap.completed, 7);
    assert_eq!(snap.failed, 1);
    assert!(snap.is_consistent(), "{snap:?}");

    // The post-mutation answer is byte-identical to a fresh in-process
    // solve over the mutated catalog.
    let fresh = disc_cli::worker::solve_zoom(&state, r, None).expect("solve");
    let reference = greedy_disc_graph(&state.catalog().graph().view(r).to_unit_disk_graph());
    assert_eq!(fresh.solution, reference.solution);
}

// ------------------------------------------------------------------
// Graph-level request errors are typed failures, not panics.
// ------------------------------------------------------------------

#[test]
fn out_of_range_radius_is_a_typed_failure() {
    let state = open("bad-radius");
    let err = match disc_cli::worker::solve_zoom(&state, R_MAX * 2.0, None) {
        Err(e) => e,
        Ok(_) => unreachable!("radius beyond r_max must fail"),
    };
    assert_eq!(err.exit_code(), 2, "usage error family: {err}");

    // And through the pool it becomes a status=error reply.
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        state,
        ServeConfig::default(),
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );
    server.submit(zoom(1, R_MAX * 2.0));
    assert!(server.drain(Duration::from_secs(30)));
    let replies = sink.wait_for(1, Duration::from_secs(1));
    assert!(replies[0].2.starts_with("error:"), "{replies:?}");
    let snap = server.shutdown();
    assert_eq!(snap.failed, 1);
    assert!(snap.is_consistent());
}

#[test]
fn zero_radius_zooms_are_usage_errors_and_cache_nothing() {
    let state = open("zero-radius");
    for r in [0.0, -0.0] {
        let err = match disc_cli::worker::solve_zoom(&state, r, None) {
            Err(e) => e,
            Ok(_) => unreachable!("radius {r} is outside (0, r_max]"),
        };
        assert_eq!(err.exit_code(), 2, "usage error family: {err}");
    }

    // `-0` keys the same cache slot as `0`, so had the first request
    // cached its answer, the other two would be hits.
    let input = Cursor::new("id=1 zoom r=0\nid=2 zoom r=-0\nid=3 zoom r=0\nquit\n");
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::new(disc_cli::serve::JsonSink::new(Arc::clone(&out)));
    let snap = run_lines(state, ServeConfig::default(), input, sink).expect("serve loop runs");
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.failed, 3, "{snap:?}");
    assert_eq!(snap.completed + snap.cache_hits, 0, "{snap:?}");
    assert!(snap.is_consistent(), "{snap:?}");

    let text = String::from_utf8(out.lock().expect("out lock").clone()).expect("utf8");
    let usage = format!("\"status\":\"error\",\"error\":\"usage error: radius 0 outside the serveable range (0, {R_MAX}]\"");
    let usage_neg = usage.replace("radius 0", "radius -0");
    for (id, want) in [(1, &usage), (2, &usage_neg), (3, &usage)] {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{{\"id\":{id},")))
            .unwrap_or_else(|| panic!("no reply for id {id}: {text}"));
        assert!(line.contains(want.as_str()), "id {id}: {line}");
    }
}

// ------------------------------------------------------------------
// Streaming mutations surface their repair drift in the counters.
// ------------------------------------------------------------------

#[test]
fn mutation_drift_accumulates_into_the_stats_counter() {
    use disc_metric::{Dataset, Metric, Point};

    // Three isolated points at r_max = 1.0: the maintained cover
    // selects every object, so each mutation's drift is hand-checkable.
    let data = Dataset::new(
        "drift-test",
        Metric::Euclidean,
        vec![
            Point::new2(0.0, 0.0),
            Point::new2(10.0, 0.0),
            Point::new2(20.0, 0.0),
        ],
    );
    let graph = StratifiedDiskGraph::build(&data, 1.0);
    let catalog = disc_graph::StreamingCatalog::try_new(data, graph).expect("fresh pair");
    let state = ServeState::from_catalog(catalog);

    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 16,
            cache: 4,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );

    let insert = |id: u64, x: f64, y: f64| Request {
        id,
        op: Op::Insert { coords: vec![x, y] },
        deadline: None,
    };
    // external 3 — first mutation bootstraps the tracker from the
    // post-insert catalog: no prior selection to drift from.
    server.submit(insert(1, 30.0, 0.0));
    // external 4 — isolated, promoted to a new black: drift 1.
    server.submit(insert(2, 40.0, 0.0));
    // external 5 — covered by 4's black at distance 0.1: drift 0.
    server.submit(insert(3, 40.1, 0.0));
    // Deleting the black at (40, 0) unselects it and re-promotes its
    // orphaned neighbour 5: drift 2.
    server.submit(Request {
        id: 4,
        op: Op::Delete { external: 4 },
        deadline: None,
    });
    assert!(server.drain(Duration::from_secs(30)), "pool drains");
    let snap = server.shutdown();
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.drift, 3, "{snap:?}");
    assert!(snap.is_consistent(), "{snap:?}");
    assert!(
        disc_cli::serve::render_stats(&snap).contains("\"drift\":3"),
        "the stats line carries the cumulative drift"
    );
}

// ------------------------------------------------------------------
// Answers served after mutations come from the catalog's overlay and
// equal the compacted graph's and a from-scratch build's.
// ------------------------------------------------------------------

/// Hashes of Greedy-DisC at each of `zooms` and of the sweep chain
/// `sweep` on `g`, in external ids.
fn reference_hashes(g: &StratifiedDiskGraph, zooms: &[f64], sweep: &[f64]) -> Vec<u64> {
    let mut out: Vec<u64> = zooms
        .iter()
        .map(|&r| solution_hash(&greedy_disc_graph(&g.view(r).to_unit_disk_graph()).solution))
        .collect();
    let mut prev = greedy_disc_graph(&g.view(sweep[0]).to_unit_disk_graph());
    out.push(solution_hash(&prev.solution));
    for &r in &sweep[1..] {
        prev = greedy_zoom_in_graph(g, &prev, r).result;
        out.push(solution_hash(&prev.solution));
    }
    out
}

#[test]
fn answers_after_mutations_match_the_compacted_graph_and_a_rebuild() {
    use disc_cli::cache::SolutionCache;
    use disc_cli::worker::execute;

    let state = open("post-mutation");
    let cache = SolutionCache::new(8);
    let request = |id: u64, op: Op| Request {
        id,
        op,
        deadline: None,
    };
    // A selected and an unselected object of the r_max cover, and the
    // coordinates of the selected one.
    let top = disc_cli::worker::solve_zoom(&state, R_MAX, None)
        .expect("solve")
        .solution
        .clone();
    let (black, grey, black_coords) = {
        let cat = state.live_catalog();
        let grey = cat
            .live_externals()
            .into_iter()
            .find(|e| !top.contains(e))
            .expect("an unselected object");
        let v = cat.internal_of(top[0]).expect("live");
        (top[0], grey, cat.data().row(v).to_vec())
    };
    let n = state.n();
    let mutations = [
        Op::Insert {
            coords: black_coords,
        },
        Op::Insert {
            coords: vec![5.0, 5.0],
        },
        Op::Insert {
            coords: vec![0.5, 0.5],
        },
        Op::Delete { external: grey },
        Op::Delete { external: black },
        Op::Delete { external: n + 1 },
        Op::Delete { external: 7 },
        Op::Insert {
            coords: vec![0.45, 0.55],
        },
    ];
    for (id, op) in mutations.into_iter().enumerate() {
        let reply = execute(&state, &cache, &request(id as u64, op));
        assert!(
            matches!(
                reply.outcome,
                Outcome::Inserted { .. } | Outcome::Deleted { .. }
            ),
            "mutation {id}: {:?}",
            reply.outcome
        );
    }
    assert!(
        !state.live_catalog().is_compact(),
        "the mutations are pending in the overlay"
    );

    // Radii no request asked before, so nothing comes from the cache.
    let zooms = [0.07, 0.21];
    let sweep = [0.29, 0.15, 0.05];
    let mut served = Vec::new();
    for (k, &r) in zooms.iter().enumerate() {
        match execute(&state, &cache, &zoom(100 + k as u64, r)).outcome {
            Outcome::Zoomed { value, cached, .. } => {
                assert!(!cached, "r={r} was never asked");
                served.push(value.hash);
            }
            other => panic!("zoom r={r}: {other:?}"),
        }
    }
    let reply = execute(
        &state,
        &cache,
        &request(
            200,
            Op::Sweep {
                radii: sweep.to_vec(),
            },
        ),
    );
    match reply.outcome {
        Outcome::Swept { steps } => served.extend(steps.iter().map(|s| s.hash)),
        other => panic!("sweep: {other:?}"),
    }
    assert!(
        !state.live_catalog().is_compact(),
        "serving compacted nothing"
    );

    // The compacted graph: `catalog()` folds the overlay in first.
    let cat = state.catalog();
    assert!(cat.is_compact());
    assert_eq!(served, reference_hashes(cat.graph(), &zooms, &sweep));

    // A from-scratch build of the live points, numbered by external id.
    let perm = disc_metric::IdPermutation::try_new_sparse(cat.live_externals())
        .expect("live ids are unique");
    let data = disc_metric::Dataset::from_flat(
        "rebuild",
        cat.data().metric(),
        cat.data().dim(),
        cat.data().flat_coords().to_vec(),
    )
    .with_permutation(Some(Arc::new(perm)));
    let fresh = StratifiedDiskGraph::build(&data, R_MAX);
    assert_eq!(fresh, *cat.graph(), "compaction equals a rebuild");
    assert_eq!(served, reference_hashes(&fresh, &zooms, &sweep));
}

#[test]
fn stats_report_the_overlay_and_its_compaction() {
    use disc_metric::{Dataset, Metric, Point};

    // 100 objects on a line one apart at r_max = 1.5: 198 directed
    // entries, so 25 appended entries pass 1/8 of the base.
    let data = Dataset::new(
        "overlay-stats",
        Metric::Euclidean,
        (0..100).map(|i| Point::new2(i as f64, 0.0)).collect(),
    );
    let graph = StratifiedDiskGraph::build(&data, 1.5);
    let catalog = disc_graph::StreamingCatalog::try_new(data, graph).expect("fresh pair");
    let state = ServeState::from_catalog(catalog);
    let sink = Arc::new(Collect::default());
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            workers: 1,
            queue: 16,
            cache: 4,
        },
        Arc::<Collect>::clone(&sink) as Arc<dyn Sink>,
    );
    let insert = |id: u64, x: f64| Request {
        id,
        op: Op::Insert {
            coords: vec![x, 0.0],
        },
        deadline: None,
    };
    let settle = |server: &Server| {
        assert!(server.drain(Duration::from_secs(30)), "pool drains");
        server.counters()
    };

    let snap = settle(&server);
    assert_eq!(
        (snap.appended, snap.tombstoned, snap.compactions),
        (0, 0, 0)
    );
    // x = 10.5 lies within 1.5 of 9, 10, 11 and 12: 8 entries.
    server.submit(insert(1, 10.5));
    let snap = settle(&server);
    assert_eq!(
        (snap.appended, snap.tombstoned, snap.compactions),
        (8, 0, 0)
    );
    server.submit(Request {
        id: 2,
        op: Op::Delete { external: 50 },
        deadline: None,
    });
    let snap = settle(&server);
    assert_eq!(
        (snap.appended, snap.tombstoned, snap.compactions),
        (8, 1, 0)
    );
    let line = disc_cli::serve::render_stats(&snap);
    assert!(
        line.contains("\"appended\":8,\"tombstoned\":1,\"compactions\":0"),
        "{line}"
    );

    // Two more such inserts leave 24 entries pending (24 · 8 ≤ 198); a
    // fourth makes 32, passes 1/8 of the base and compacts.
    for (id, x) in [(3, 20.5), (4, 30.5)] {
        server.submit(insert(id, x));
    }
    let snap = settle(&server);
    assert_eq!(
        (snap.appended, snap.tombstoned, snap.compactions),
        (24, 1, 0)
    );
    server.submit(insert(5, 40.5));
    let snap = settle(&server);
    assert_eq!(
        (snap.appended, snap.tombstoned, snap.compactions),
        (0, 0, 1)
    );
    assert!(snap.is_consistent(), "{snap:?}");
    assert_eq!(snap.completed, 5);

    let snap = server.shutdown();
    assert_eq!(snap.completed, 5);
    assert!(
        disc_cli::serve::render_stats(&snap).contains("\"completed\":5,"),
        "the request counters keep their meaning"
    );
    assert!(disc_cli::serve::render_stats(&snap).contains("\"compactions\":1}"));
    assert_eq!(state.n(), 103);
}

// ------------------------------------------------------------------
// Bounded request lines and sweeps.
// ------------------------------------------------------------------

/// Runs the line loop on one worker over `input` and returns the final
/// counters and every output line.
fn serve_lines(tag: &str, input: impl BufRead) -> (disc_cli::CounterSnapshot, String) {
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::new(disc_cli::serve::JsonSink::new(Arc::clone(&out)));
    let config = ServeConfig {
        workers: 1,
        queue: 8,
        cache: 8,
    };
    let snap = run_lines(open(tag), config, input, sink).expect("serve loop runs");
    let text = String::from_utf8(out.lock().expect("out lock").clone()).expect("utf8");
    (snap, text)
}

fn parse_errors(text: &str) -> usize {
    text.matches("\"op\":\"parse\",\"status\":\"error\"")
        .count()
}

#[test]
fn over_long_line_is_one_parse_error_then_serving_continues() {
    // A zoom padded to exactly the cap is served; one byte more is not.
    let pad = |line: &str, len: usize| format!("{line}{}", " ".repeat(len - line.len()));
    let at_cap = pad("id=1 zoom r=0.1", MAX_LINE_BYTES);
    let over = pad("id=2 zoom r=0.1", MAX_LINE_BYTES + 1);
    let text = format!("{at_cap}\n{over}\nid=3 zoom r=0.1\nquit\n");
    // Small reads, so the long lines span many buffer fills.
    let (snap, out) = serve_lines(
        "long-line",
        BufReader::with_capacity(1000, Cursor::new(text)),
    );
    assert_eq!(parse_errors(&out), 1, "{out}");
    assert!(
        out.contains(&format!("request line longer than {MAX_LINE_BYTES} bytes")),
        "{out}"
    );
    assert_eq!((snap.submitted, snap.completed), (2, 2));
    assert!(
        out.contains("{\"id\":1,") && out.contains("{\"id\":3,"),
        "{out}"
    );
    assert!(!out.contains("{\"id\":2,"), "{out}");
    assert!(snap.is_consistent(), "{snap:?}");
}

#[test]
fn endless_line_without_newline_ends_the_run_with_one_parse_error() {
    let endless = BufReader::new(std::io::repeat(b'a').take(8 * MAX_LINE_BYTES as u64));
    let (snap, out) = serve_lines("endless-line", endless);
    assert_eq!(parse_errors(&out), 1, "{out}");
    assert_eq!(snap.submitted, 0);
}

#[test]
fn sweep_over_the_radii_cap_is_a_parse_error() {
    let radii: Vec<String> = (1..=MAX_SWEEP_RADII + 1)
        .map(|i| format!("{}", R_MAX / i as f64))
        .collect();
    let text = format!("id=1 sweep radii={}\nquit\n", radii.join(","));
    let (snap, out) = serve_lines("radii-cap", Cursor::new(text));
    assert_eq!(parse_errors(&out), 1, "{out}");
    assert!(
        out.contains(&format!("radii takes at most {MAX_SWEEP_RADII} radii")),
        "{out}"
    );
    assert_eq!(snap.submitted, 0);
}
