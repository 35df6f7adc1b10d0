//! The repository benchmark: seeded build → open → zoom journeys over
//! the DisC serving pipeline, measured end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name|all|a,b,...> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs the same journey through the layers' public
//! functions, `S` times: a set-up (`build_sharded_with` →
//! `write_snapshot` → `read_snapshot` → `decode_stream` →
//! `ServeState::from_catalog` → `Server::start` → one warm-up
//! insert/delete pair), the first zoom at `r_max`, a timed segment of
//! `--seconds / S` (a closed loop with 2 requests in flight), and a
//! write segment of mutations from one writer with no reads running.
//! Correctness checks run along the way; any failure makes the exit
//! code 1.
//!
//! The last stdout line is the result: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The line before it is the run's provenance.
//! Several workloads (`all`, or a comma list) run one child process
//! each, so every peak RSS is the workload's own; the final line then
//! prefixes each metric with its workload.

mod check;
mod gen;
mod journey;
mod layers;
mod report;
mod spec;
mod trace;
mod traffic;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use disc_core::ShardedBuildStats;

use crate::check::Checks;
use crate::gen::{popular, Req, Stream};
use crate::report::{json_str, mean, median, percentile, Metric};
use crate::spec::{Spec, NAMES, SHARDS};
use crate::trace::Tracer;
use crate::traffic::{Record, Summary};

const USAGE: &str =
    "usage: perfbench --workload <name|all|a,b,...> --seed <n> --seconds <s> --trace <0|1>";

/// Requests the load generator keeps outstanding.
const IN_FLIGHT: usize = 2;

/// Zooms of the first timed segment the traced run replays (its sweeps
/// and mutations all replay), which bounds the replay's time.
const REPLAY_ZOOMS: usize = 8;

/// Where snapshots are written, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                for name in value.split(',') {
                    if name == "all" {
                        args.workloads.extend(NAMES);
                    } else {
                        let known = NAMES.iter().find(|n| **n == name);
                        args.workloads
                            .push(known.ok_or_else(|| format!("unknown workload {name:?}"))?);
                    }
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() > 1 {
        return run_children(&args);
    }
    let spec = match spec::spec(args.workloads[0]) {
        Some(s) => s,
        None => unreachable!("parse_args only admits known workloads"),
    };
    match run(&spec, &args) {
        Ok(out) => {
            println!("{}", out.provenance);
            let metrics = out.metrics.iter().map(|m| (m.name, m.value, m.unit));
            println!(
                "{}",
                report::result_line(out.attempted, out.failed, metrics)
            );
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload in its own child process and merges the results.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in &args.workloads {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        // A child that fails a check prints a result with `failed > 0`;
        // one that cannot run or errors out prints none, counted below.
        let stdout = match output {
            Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
            Err(e) => {
                eprintln!("perfbench: {name}: cannot run: {e}");
                String::new()
            }
        };
        print!("{stdout}");
        match stdout.lines().last().and_then(parse_result) {
            Some((a, f, m)) => {
                attempted += a;
                failed += f;
                metrics.extend(m.into_iter().map(|(k, v, u)| (format!("{name}.{k}"), v, u)));
            }
            None => {
                eprintln!("perfbench: {name}: no result line");
                failed += 1;
            }
        }
    }
    let merged = metrics.iter().map(|(k, v, u)| (k.as_str(), *v, u.as_str()));
    println!("{}", report::result_line(attempted, failed, merged));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Parsed = (u64, u64, Vec<(String, f64, String)>);

/// Reads back a result line this program printed.
fn parse_result(line: &str) -> Option<Parsed> {
    let int_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest[..rest.find(',')?].trim().parse().ok()
    };
    let attempted = int_after("\"attempted\":")?;
    let failed = int_after("\"failed\":")?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(q) = rest.find('"') {
        let name_end = q + 1 + rest[q + 1..].find('"')?;
        let name = rest[q + 1..name_end].to_string();
        let v = rest.find("\"value\": ")? + 9;
        let value: f64 = rest[v..v + rest[v..].find(',')?].trim().parse().ok()?;
        let u = rest.find("\"unit\": \"")? + 9;
        let unit_end = u + rest[u..].find('"')?;
        metrics.push((name, value, rest[u..unit_end].to_string()));
        rest = &rest[unit_end + 1..];
        rest = &rest[rest.find('}')? + 1..];
    }
    Some((attempted, failed, metrics))
}

/// A finished single-workload run.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    provenance: String,
}

/// Per-set-up figures kept after its server is gone.
struct SetupFigures {
    setup_s: f64,
    build_s: f64,
    open_s: f64,
    first_zoom_ms: f64,
    stats: ShardedBuildStats,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies(records: &[Record], pick: impl Fn(&Record) -> bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| pick(r))
        .map(|r| ms(r.latency))
        .collect()
}

/// A zoom that ran the solve: its radius was not in the solution cache.
fn missed(r: &Record) -> bool {
    matches!(r.summary, Summary::Zoom { cached: false, .. })
}

fn is_sweep(r: &Record) -> bool {
    matches!(r.req, Req::Sweep(_))
}

fn failed_requests(records: &[Record]) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r.summary, Summary::Failed(_)))
        .count() as u64
}

/// A scratch file removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let data = gen::points(spec, args.seed);
    let mut stream = Stream::new(spec, &data, args.seed);
    let warmup = vec![stream.next_mutation(), stream.next_mutation()];

    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let snapshot =
        Scratch(PathBuf::from(WORK_DIR).join(format!("{}-{}.snap", spec.name, std::process::id())));
    let path = snapshot.0.as_path();
    let stream = &mut stream;
    let warmup = warmup.as_slice();

    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let mut requests = 0u64;
    let mut failed_reqs = 0u64;
    let mut figures = Vec::new();
    let mut first: Option<(u64, usize, u64, usize)> = None;
    let mut timed: Vec<Record> = Vec::new();
    let mut written: Vec<Record> = Vec::new();
    let mut replay_set: Vec<Record> = Vec::new();
    let mut timed_s = 0.0;
    // The timed phase is split evenly across the set-ups, so every
    // metric samples the whole run rather than one stretch of it.
    let segment = Duration::from_secs_f64(args.seconds as f64 / spec.setups as f64);
    let last = spec.setups - 1;

    for i in 0..spec.setups {
        let s = journey::setup(spec, &data, path, workers, warmup, &mut tracer)?;
        let mut live = s.live;
        failed_reqs +=
            failed_requests(&s.warmup) + failed_requests(std::slice::from_ref(&s.first_zoom));
        figures.push(SetupFigures {
            setup_s: s.setup_s,
            build_s: s.build_s,
            open_s: s.open_s,
            first_zoom_ms: ms(s.first_zoom.latency),
            stats: s.stats,
        });
        checks.expect(s.decoded_n == s.n && s.decoded_edges == s.edges, || {
            format!(
                "decoded catalog has n={} edges={}, the build n={} edges={}",
                s.decoded_n, s.decoded_edges, s.n, s.edges
            )
        });
        match &first {
            None => {
                let cat = live.state().catalog();
                checks.ok(check::rows_match_linear_scan(&cat, 16, args.seed));
                drop(cat);
                first = Some((s.table_checksum, s.edges, s.snapshot_bytes, s.csr_bytes));
            }
            Some((sum, edges, ..)) => {
                checks.expect(s.table_checksum == *sum && s.edges == *edges, || {
                    format!(
                        "set-up {i} wrote table checksum {:#x} with {} edges, set-up 0 {sum:#x} with {edges}",
                        s.table_checksum, s.edges
                    )
                });
            }
        }

        // Fill the solution cache with the other popular radii (the
        // first zoom put r_max there), so the timed segment sees the
        // steady state: popular radii hit, fresh ones miss.
        let mut cache_fill = Vec::new();
        for r in &popular(spec.r_max)[1..] {
            cache_fill.push(live.call(Req::Zoom(*r))?);
        }
        failed_reqs += failed_requests(&cache_fill);

        // Timed segment: closed loop, IN_FLIGHT outstanding.
        let dc0 = live.state().catalog().distance_computations();
        let t = Instant::now();
        let reads = live.closed_loop(stream, IN_FLIGHT, |_| t.elapsed() >= segment)?;
        timed_s += t.elapsed().as_secs_f64();
        let dc1 = live.state().catalog().distance_computations();
        checks.expect(
            dc1 - dc0 == check::insert_distance_computations(&reads),
            || {
                format!(
                "timed phase: catalog made {} distance computations, its inserts account for {}",
                dc1 - dc0,
                check::insert_distance_computations(&reads)
            )
            },
        );
        if i == last && spec.reads_per_mutation == 0 {
            for failure in check::read_parity(live.state(), &reads) {
                checks.expect(false, || failure);
            }
        }

        // Write segment: one writer, no reads running, so a mutation's
        // latency is its own service time (two writers would alternate
        // between serving and waiting on the write lock).
        let mut mutations = std::iter::from_fn(|| Some(stream.next_mutation()));
        let writes = live.closed_loop(&mut mutations, 1, |k| k >= spec.writes_per_setup)?;
        let dc2 = live.state().catalog().distance_computations();
        checks.expect(
            dc2 - dc1 == check::insert_distance_computations(&writes),
            || {
                format!(
                "write phase: catalog made {} distance computations, its inserts account for {}",
                dc2 - dc1,
                check::insert_distance_computations(&writes)
            )
            },
        );
        if i == last && spec.reads_per_mutation > 0 {
            let cat = live.state().catalog();
            checks.ok(check::matches_from_scratch(
                &cat,
                SHARDS,
                &[spec.r_max, spec.r_max / 4.0],
            ));
        }

        let sent = (1 + s.warmup.len() + cache_fill.len() + reads.len() + writes.len()) as u64;
        let counters = live.shutdown();
        checks.expect(counters.is_consistent(), || {
            format!("set-up {i} counters inconsistent: {counters:?}")
        });
        checks.expect(counters.submitted == sent, || {
            format!(
                "server counted {} submissions, the benchmark sent {sent}",
                counters.submitted
            )
        });
        let refused = counters.shed + counters.cancelled + counters.failed + counters.panicked;
        failed_reqs += refused.max(failed_requests(&reads) + failed_requests(&writes));
        requests += sent;
        if i == 0 {
            let mut zooms = 0;
            replay_set = reads
                .iter()
                .chain(&writes)
                .filter(|r| {
                    let zoom = matches!(r.req, Req::Zoom(_));
                    zooms += usize::from(zoom);
                    !zoom || zooms <= REPLAY_ZOOMS
                })
                .cloned()
                .collect();
        }
        timed.extend(reads);
        written.extend(writes);
    }
    let Some((_, edges, snapshot_bytes, csr_bytes)) = first else {
        return Err("a workload needs at least one set-up".into());
    };

    let live_mutations: Vec<&Record> = timed
        .iter()
        .chain(&written)
        .filter(|r| r.req.is_mutation())
        .collect();
    let metrics = if args.trace {
        // The replayed server first gets what the live one got before
        // its timed segment: the warm-up, the first zoom, the cache fill.
        let prelude: Vec<Req> = warmup
            .iter()
            .cloned()
            .chain(popular(spec.r_max).map(Req::Zoom))
            .collect();
        let replayed = layers::replay(path, &prelude, &replay_set, &mut tracer, &mut checks)?;
        layer_metrics(
            &tracer,
            &figures,
            &replayed,
            &timed,
            &live_mutations,
            edges,
            snapshot_bytes,
            csr_bytes,
        )?
    } else {
        // Zoom latency is over cache misses: a hit costs microseconds,
        // and mixing the two puts the median at an arbitrary rank of
        // the misses. The hit share is `cli.cache_hit_ratio`.
        let zooms = latencies(&timed, missed);
        let sweeps = latencies(&timed, is_sweep);
        // Mutation latency is over the write segments, on every
        // workload. The ~40 mutations a run of `serve_mixed_10k`'s
        // timed stream holds wait behind reads for a random share of a
        // read, and their p90 spreads more across seeds than its bound.
        let muts = latencies(&written, |r| r.req.is_mutation());
        let reads = timed.iter().filter(|r| !r.req.is_mutation()).count();
        if zooms.is_empty() || sweeps.is_empty() || muts.is_empty() {
            return Err(format!(
                "too few samples: {} zooms, {} sweeps, {} mutations",
                zooms.len(),
                sweeps.len(),
                muts.len()
            ));
        }
        let pick = |f: fn(&SetupFigures) -> f64| median(&figures.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric {
                name: "setup_s",
                value: pick(|f| f.setup_s),
                unit: "s",
            },
            Metric {
                name: "build_s",
                value: pick(|f| f.build_s),
                unit: "s",
            },
            Metric {
                name: "open_s",
                value: pick(|f| f.open_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: report::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
                unit: "MiB",
            },
            Metric {
                name: "snapshot_mib",
                value: snapshot_bytes as f64 / (1 << 20) as f64,
                unit: "MiB",
            },
            Metric {
                name: "first_zoom_ms",
                value: pick(|f| f.first_zoom_ms),
                unit: "ms",
            },
            Metric {
                name: "zoom_p50_ms",
                value: percentile(&zooms, 50.0),
                unit: "ms",
            },
            Metric {
                name: "zoom_p90_ms",
                value: percentile(&zooms, 90.0),
                unit: "ms",
            },
            Metric {
                name: "read_rps",
                value: reads as f64 / timed_s,
                unit: "1/s",
            },
            Metric {
                name: "sweep_p50_ms",
                value: percentile(&sweeps, 50.0),
                unit: "ms",
            },
            Metric {
                name: "mutation_p50_ms",
                value: percentile(&muts, 50.0),
                unit: "ms",
            },
            Metric {
                name: "mutation_p90_ms",
                value: percentile(&muts, 90.0),
                unit: "ms",
            },
        ]
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", m.name));
    }

    let attempted = requests + checks.run;
    let failed = failed_reqs + checks.failures.len() as u64;
    let zoom_n = timed
        .iter()
        .filter(|r| matches!(r.req, Req::Zoom(_)))
        .count();
    let miss_n = timed.iter().filter(|r| missed(r)).count();
    let sweep_n = timed.iter().filter(|r| is_sweep(r)).count();
    let write_n = written.len();
    // The traced run replays these; an untraced one replays nothing.
    let replay_n = if args.trace { replay_set.len() } else { 0 };
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"commit\": {}, \"nproc\": {workers}, \
         \"features\": \"parallel\", \"rustc\": {}, \"n\": {}, \"r_max\": {}, \"shards\": {}, \"edges\": {edges}, \
         \"setups\": {}, \"timed_s\": {timed_s}, \"in_flight\": {IN_FLIGHT}, \"writers\": 1, \
         \"samples\": {{\"zoom\": {zoom_n}, \"zoom_miss\": {miss_n}, \"sweep\": {sweep_n}, \"mutation\": {}, \"write_segment_mutation\": {write_n}, \"replayed\": {replay_n}}}, \
         \"open_page_cache\": \"warm: the snapshot is read right after it is written\", \
         \"checks\": {}, \"check_failures\": [{}]}}}}",
        json_str(spec.name),
        args.seed,
        args.trace,
        json_str(&report::commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        spec.n,
        spec.r_max,
        SHARDS,
        spec.setups,
        live_mutations.len(),
        checks.run,
        checks.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
    );
    eprintln!(
        "perfbench: {} seed={} {:.1}s timed: {zoom_n} zooms, {sweep_n} sweeps, {} mutations; {} checks, {} failed",
        spec.name,
        args.seed,
        timed_s,
        live_mutations.len(),
        checks.run,
        failed
    );
    for m in &metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        provenance,
    })
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    tracer: &Tracer,
    figures: &[SetupFigures],
    replayed: &layers::Replayed,
    timed: &[Record],
    mutations: &[&Record],
    edges: usize,
    snapshot_bytes: u64,
    csr_bytes: usize,
) -> Result<Vec<Metric>, String> {
    let stat = |f: fn(&ShardedBuildStats) -> f64| {
        median(&figures.iter().map(|s| f(&s.stats)).collect::<Vec<_>>())
    };
    let s = figures[0].stats;
    let join_dc = (s.intra_join_dc + s.boundary_join_dc) as f64;
    let span = |name: &str| -> Result<f64, String> {
        let d = tracer.durations(name);
        if d.is_empty() {
            Err(format!("no {name} span recorded"))
        } else {
            Ok(median(&d))
        }
    };
    let zoom_replies: Vec<bool> = timed
        .iter()
        .filter_map(|r| match r.summary {
            Summary::Zoom { cached, .. } => Some(cached),
            _ => None,
        })
        .collect();
    let per_mutation = |f: fn(&Summary) -> usize| {
        mean(
            &mutations
                .iter()
                .map(|r| f(&r.summary) as f64)
                .collect::<Vec<_>>(),
        )
    };
    if replayed.insert_dc.is_empty() || replayed.untraced_ms == 0.0 {
        return Err("the traced run replayed no insert or no solving read".into());
    }
    Ok(vec![
        Metric {
            name: "mtree.partition_ms",
            value: stat(|s| s.partition_ms),
            unit: "ms",
        },
        Metric {
            name: "mtree.tree_ms",
            value: stat(|s| s.tree_ms),
            unit: "ms",
        },
        Metric {
            name: "mtree.intra_join_ms",
            value: stat(|s| s.intra_join_ms),
            unit: "ms",
        },
        Metric {
            name: "mtree.boundary_join_ms",
            value: stat(|s| s.boundary_join_ms),
            unit: "ms",
        },
        Metric {
            name: "mtree.join_dc",
            value: join_dc,
            unit: "count",
        },
        Metric {
            name: "mtree.node_accesses",
            value: s.node_accesses as f64,
            unit: "count",
        },
        Metric {
            name: "mtree.edges_per_join_dc",
            value: edges as f64 / join_dc,
            unit: "ratio",
        },
        Metric {
            name: "mtree.boundary_dc_share",
            value: s.boundary_dc_share(),
            unit: "ratio",
        },
        Metric {
            name: "metric.renumber_ms",
            value: stat(|s| s.renumber_ms),
            unit: "ms",
        },
        Metric {
            name: "metric.join_ns_per_dc",
            value: stat(|s| (s.intra_join_ms + s.boundary_join_ms) * 1e6) / join_dc,
            unit: "ns",
        },
        Metric {
            name: "graph.merge_ms",
            value: stat(|s| s.merge_ms),
            unit: "ms",
        },
        Metric {
            name: "graph.assembly_ms",
            value: stat(|s| s.assembly_ms),
            unit: "ms",
        },
        Metric {
            name: "graph.csr_mib",
            value: csr_bytes as f64 / (1 << 20) as f64,
            unit: "MiB",
        },
        Metric {
            name: "store.write_ms",
            value: span(journey::STORE_WRITE)?,
            unit: "ms",
        },
        Metric {
            name: "store.read_ms",
            value: span(journey::STORE_READ)?,
            unit: "ms",
        },
        Metric {
            name: "store.decode_ms",
            value: span(journey::STORE_DECODE)?,
            unit: "ms",
        },
        Metric {
            name: "store.bytes_per_edge",
            value: snapshot_bytes as f64 / edges as f64,
            unit: "B",
        },
        Metric {
            name: "graph.view_copy_ms",
            value: span(layers::VIEW_COPY)?,
            unit: "ms",
        },
        Metric {
            name: "graph.insert_ms",
            value: span(layers::INSERT)?,
            unit: "ms",
        },
        Metric {
            name: "graph.remove_ms",
            value: span(layers::REMOVE)?,
            unit: "ms",
        },
        Metric {
            name: "graph.insert_dc",
            value: mean(&replayed.insert_dc),
            unit: "count",
        },
        Metric {
            name: "core.greedy_ms",
            value: span(layers::GREEDY)?,
            unit: "ms",
        },
        Metric {
            name: "core.zoom_in_ms",
            value: span(layers::ZOOM_IN)?,
            unit: "ms",
        },
        Metric {
            name: "core.repair_ms",
            value: span(layers::REPAIR)?,
            unit: "ms",
        },
        Metric {
            name: "core.drift_per_mutation",
            value: per_mutation(|s| match s {
                Summary::Mutation { drift, .. } => *drift,
                _ => 0,
            }),
            unit: "count",
        },
        Metric {
            name: "cli.service_ms",
            value: span(layers::EXECUTE)?,
            unit: "ms",
        },
        Metric {
            name: "cli.wait_p95_ms",
            value: percentile(&replayed.wait_ms, 95.0),
            unit: "ms",
        },
        Metric {
            name: "cli.cache_hit_ratio",
            value: zoom_replies.iter().filter(|c| **c).count() as f64 / zoom_replies.len() as f64,
            unit: "ratio",
        },
        Metric {
            name: "cli.invalidated_per_mutation",
            value: per_mutation(|s| match s {
                Summary::Mutation { invalidated, .. } => *invalidated,
                _ => 0,
            }),
            unit: "count",
        },
        Metric {
            name: "tracing_overhead_pct",
            value: (replayed.traced_ms / replayed.untraced_ms - 1.0) * 100.0,
            unit: "%",
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_result_reads_back_a_result_line() {
        let line = report::result_line(7, 1, [("setup_s", 1.5, "s"), ("read_rps", 20.25, "1/s")]);
        let (a, f, m) = parse_result(&line).expect("parses");
        assert_eq!((a, f), (7, 1));
        assert_eq!(
            m,
            vec![
                ("setup_s".to_string(), 1.5, "s".to_string()),
                ("read_rps".to_string(), 20.25, "1/s".to_string())
            ]
        );
    }

    #[test]
    fn args_accept_single_workloads_and_lists() {
        let argv: Vec<String> =
            "--workload serve_zoom_10k,build_clustered_50k --seed 9 --seconds 3 --trace 1"
                .split(' ')
                .map(String::from)
                .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(a.workloads, vec!["serve_zoom_10k", "build_clustered_50k"]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
    }
}
