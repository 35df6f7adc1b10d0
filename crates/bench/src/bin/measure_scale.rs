//! Scale-tier sharded-build measurement — the `BENCH_scale.json`
//! producer for the 10^5–10^6 object tier.
//!
//! Runs the full [`disc_core::build_sharded_with`] pipeline (spatial
//! partitioning, per-shard M-trees, intra-shard self-joins, boundary
//! cross-joins, shard-ordered CSR fill) over a clustered and a
//! uniform 2-D workload and records, per workload: the per-phase
//! wall-clocks, the exact distance/node accounting (deterministic at
//! every worker count), the boundary-join share of the join work, and
//! the process peak RSS (`VmHWM`).
//!
//! The binary *fails* (non-zero exit) when the boundary joins charge
//! 25% or more of the total join distance computations on the
//! clustered workload — the overhead bound that keeps the sharded
//! pipeline honest as a scale-out story (boundary work must stay a
//! fringe, not a second all-pairs join). Smoke tiers (`SCALE_N` below
//! `100_000`) report the share but skip the gate: the degree-targeted
//! radius grows as `1/sqrt(n)`, so at small `n` the boundary bands
//! are proportionally thicker and the share is not comparable to the
//! acceptance tier's.
//!
//! Usage: `cargo run --release -p disc-bench --bin measure_scale
//! [-- <output-path>]` (default `BENCH_scale.json`).
//!
//! * `SCALE_N` — object count (default `100_000`; CI smoke uses
//!   `20_000`).
//! * `SCALE_SHARDS` — shard count (default `8`).
//! * `SCALE_MILLION=1` — additionally run the 10^6 tier (off by
//!   default: its clustered build peaks near 10 GiB, the CSR plus the
//!   edge lists of the shards still being filled).
//! * `SELF_JOIN_THREADS` — worker threads (default: one per core).
//!
//! The radius per tier targets a mean degree of ~60 on the uniform
//! workload (`r = sqrt(60 / (π·n))`), so edge volume grows linearly
//! with `n` instead of quadratically; the clustered workload reuses
//! the same radius and lands denser (its local neighbourhoods are
//! tighter), which is exactly the regime the boundary-share gate
//! cares about.

use disc_bench::{measure_scale, peak_rss_kib, self_join_threads_from_env, BENCH_SEED};
use disc_datasets::synthetic::{clustered, uniform};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let n: usize = std::env::var("SCALE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let shards: usize = std::env::var("SCALE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let million = std::env::var("SCALE_MILLION").is_ok_and(|v| v == "1");
    let threads = self_join_threads_from_env().unwrap_or(0);

    let mut tiers = vec![n];
    if million {
        tiers.push(1_000_000);
    }

    let mut rows = Vec::new();
    for tier_n in tiers {
        // Degree-60 target on the uniform square: n·π·r² ≈ 60.
        let radius = (60.0 / (std::f64::consts::PI * tier_n as f64)).sqrt();
        eprintln!(
            "measure_scale: n={tier_n} dim=2 seed={BENCH_SEED} r={radius:.5} \
             shards={shards} threads={}",
            if threads == 0 {
                "auto".to_string()
            } else {
                threads.to_string()
            }
        );
        for (workload, data) in [
            ("clustered", clustered(tier_n, 2, 8, BENCH_SEED)),
            ("uniform", uniform(tier_n, 2, BENCH_SEED)),
        ] {
            let m = measure_scale(&data, workload, radius, shards, threads);
            let s = &m.stats;
            eprintln!(
                "  {workload}: {} edges (mean degree {:.1}), {:.0}ms total \
                 (partition {:.0} + renumber {:.0} + tree {:.0} + intra {:.0} \
                 + boundary {:.0} + merge {:.0} + assembly {:.0}), \
                 {} dc (boundary share {:.2}%), {} pairs joined of {}, \
                 peak RSS {} MiB",
                s.edges,
                m.mean_degree,
                m.build_ms,
                s.partition_ms,
                s.renumber_ms,
                s.tree_ms,
                s.intra_join_ms,
                s.boundary_join_ms,
                s.merge_ms,
                s.assembly_ms,
                s.distance_computations(),
                s.boundary_dc_share() * 100.0,
                s.boundary_pairs_joined,
                s.boundary_pairs_considered,
                m.peak_rss_kib / 1024
            );
            if workload == "clustered" && tier_n >= 100_000 {
                assert!(
                    m.boundary_share_bounded(),
                    "boundary-join overhead gate: boundary joins charged {:.1}% \
                     of the join distance computations on the clustered workload \
                     (bound: 25%)",
                    s.boundary_dc_share() * 100.0
                );
            }
            rows.push(m.to_json());
        }
    }

    let json = format!(
        "{{\n  \"seed\": {BENCH_SEED},\n  \"shards\": {shards},\n  \
         \"peak_rss_kib\": {},\n  \"workloads\": [\n    {}\n  ]\n}}\n",
        peak_rss_kib(),
        rows.join(",\n    ")
    );
    std::fs::write(&out_path, &json).expect("write scale report");
    eprintln!("measure_scale: wrote {out_path}; boundary-share gate passed");
    println!("{json}");
}
