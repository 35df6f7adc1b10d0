//! Implementations of the four `disc` verbs and the top-level dispatch.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use disc_core::{build_sharded_with, ShardedBuildConfig};
use disc_metric::CancelToken;

use crate::args::{self, BuildArgs, Command, DoctorArgs, ServeArgs, ZoomArgs};
use crate::error::CliError;
use crate::serve::{run_lines, JsonSink, ServeConfig};
use crate::state::ServeState;
use crate::worker::{solve_sweep, solve_zoom};

/// Parses and runs one invocation; the caller maps the error to an
/// exit code.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    match args::parse(argv)? {
        Command::Help => {
            println!("{}", args::USAGE);
            Ok(())
        }
        Command::Build(build) => run_build(&build),
        Command::Zoom(zoom) => run_zoom(&zoom),
        Command::Serve(serve) => run_serve(&serve),
        Command::Doctor(doctor) => run_doctor(&doctor),
    }
}

/// `disc build`: generate points, materialise the stratified graph at
/// `--radius` through the sharded production pipeline
/// ([`disc_core::build_sharded_with`]: spatial partition, per-shard
/// M-tree self-joins, boundary cross-joins, shard-ordered CSR fill —
/// not the O(n²) reference build), write the snapshot.
///
/// The pipeline renumbers objects into the shard plan's canonical
/// split order before any join — a spatially local order, so edge
/// endpoints land in near-contiguous CSR rows — and the snapshot
/// persists the internal↔external bijection in its ext-ids section;
/// every served solution and wire hash stays in external ids.
///
/// `--shards` defaults to [`disc_core::DEFAULT_SHARDS`]. The snapshot
/// is **byte-identical at every `--shards` value** and at every worker
/// count (`SELF_JOIN_THREADS` forces the build's worker count; CI pins
/// both with sha256 matrices).
///
/// The snapshot streams to `--out` through [`disc_store::write_snapshot`],
/// so the write holds one chunk, not the file.
///
/// The one JSON line on stdout carries the build's exact counters
/// (`distance_computations`, `node_accesses`, `boundary_join_dc`), its
/// per-phase wall clocks as `phase_ms` (partition, renumber, tree,
/// intra_join, boundary_join, merge, assembly — the `phase_ms` keys of
/// the scale rows in `BENCH_report.json`, from
/// [`disc_core::ShardedBuildStats`]) and, where the kernel reports it,
/// the process's memory high-water mark as `peak_rss_mib`.
fn run_build(build: &BuildArgs) -> Result<(), CliError> {
    if !(build.radius.is_finite() && build.radius > 0.0) {
        return Err(CliError::Usage(format!(
            "--radius must be finite and positive, got {}",
            build.radius
        )));
    }
    if build.n == 0 {
        return Err(CliError::Usage("--n must be at least 1".into()));
    }
    let data = if build.uniform {
        disc_datasets::synthetic::uniform(build.n, build.dim, build.seed)
    } else {
        disc_datasets::synthetic::clustered(build.n, build.dim, build.clusters, build.seed)
    };
    let threads = std::env::var("SELF_JOIN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let config = ShardedBuildConfig {
        threads,
        ..ShardedBuildConfig::default()
    };
    let built = build_sharded_with(&data, build.radius, build.shards, config, None)?;
    let bytes = disc_store::write_snapshot(&build.out, &built.data, &built.graph)?;
    let peak = peak_rss_mib().map_or(String::new(), |mib| format!("\"peak_rss_mib\":{mib:.1},"));
    let s = &built.stats;
    println!(
        "{{\"op\":\"build\",\"status\":\"ok\",\"path\":{:?},\"n\":{},\"dim\":{},\"edges\":{},\"r_max\":{},\"bytes\":{},\
         \"shards\":{},\"boundary_pairs\":{},\"distance_computations\":{},\"node_accesses\":{},\
         \"boundary_join_dc\":{},{peak}\
         \"phase_ms\":{{\"partition\":{:.1},\"renumber\":{:.1},\"tree\":{:.1},\"intra_join\":{:.1},\
         \"boundary_join\":{:.1},\"merge\":{:.1},\"assembly\":{:.1}}}}}",
        build.out.display().to_string(),
        built.data.len(),
        built.data.dim(),
        built.graph.edge_count(),
        build.radius,
        bytes,
        s.shards,
        s.boundary_pairs_joined,
        s.distance_computations(),
        s.node_accesses,
        s.boundary_join_dc,
        s.partition_ms,
        s.renumber_ms,
        s.tree_ms,
        s.intra_join_ms,
        s.boundary_join_ms,
        s.merge_ms,
        s.assembly_ms,
    );
    Ok(())
}

/// This process's resident-set high-water mark (`VmHWM` in
/// `/proc/self/status`), in MiB; `None` where the kernel does not
/// report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `disc zoom`: open, solve the radius (or descending chain), print
/// one JSON line per radius. The hashes printed here are byte-for-byte
/// the hashes `disc serve` reports for the same snapshot and radii —
/// both call the same graph-resident runners.
///
/// The radius chain is validated up front (by [`solve_zoom`] and
/// [`solve_sweep`] themselves) — non-descending or duplicate radii, and
/// radii outside `(0, r_max]`, are a typed usage error (exit code 2)
/// before any solve starts.
fn run_zoom(zoom: &ZoomArgs) -> Result<(), CliError> {
    let state = ServeState::open(&zoom.snapshot)?;
    let token = zoom
        .deadline_ms
        .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
    let steps = if zoom.radii.len() == 1 {
        vec![solve_zoom(&state, zoom.radii[0], token.as_ref())?]
    } else {
        solve_sweep(&state, &zoom.radii, token.as_ref())?
    };
    for step in steps {
        println!(
            "{{\"op\":\"zoom\",\"status\":\"ok\",\"radius\":{},\"size\":{},\"hash\":\"{:#018x}\"}}",
            step.radius,
            step.solution.len(),
            step.hash,
        );
    }
    Ok(())
}

/// `disc serve`: the worker pool over stdin/stdout.
fn run_serve(serve: &ServeArgs) -> Result<(), CliError> {
    let state = ServeState::open(&serve.snapshot)?;
    // Request panics are caught, counted, and answered; the default
    // hook's full backtrace would just scare the operator. One line.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("disc: worker contained a request panic: {info}");
    }));
    let config = ServeConfig {
        workers: serve.workers,
        queue: serve.queue,
        cache: serve.cache,
    };
    let sink = Arc::new(JsonSink::new(Arc::new(Mutex::new(std::io::stdout()))));
    let stdin = std::io::stdin();
    run_lines(state, config, stdin.lock(), sink)?;
    Ok(())
}

/// `disc doctor`: full triage to stdout; exit 0 only if the snapshot
/// would be accepted for serving.
fn run_doctor(doctor: &DoctorArgs) -> Result<(), CliError> {
    let bytes = disc_store::read_snapshot(&doctor.snapshot)?;
    let report = disc_store::inspect(bytes.as_bytes());
    print!(
        "{}",
        crate::doctor::render(&doctor.snapshot.display().to_string(), &report)
    );
    report.verdict.map_err(CliError::from)
}
