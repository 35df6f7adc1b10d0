//! The gated cost-model report: writes `BENCH_report.json` (see
//! [`disc_bench::build_report`]) and exits non-zero, naming every
//! failed gate, after the file is on disk.
//!
//! Usage: `cargo run --release -p disc-bench --bin report [--
//! <output-path>]` (default `BENCH_report.json`). The fig9
//! sections run on the clustered workload at n = 10_000 and the scale
//! tier at n = 10^5; `SCALE_MILLION=1` adds the 10^6 tier, whose
//! clustered build peaks near 10 GiB (the CSR plus the edge lists of
//! the shards still being filled). The scale tier's builds run on
//! [`disc_core::DEFAULT_SHARDS`] shards with one worker per core; the
//! fig9 sections' self-joins are serial traversals.

use std::path::Path;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_report.json".to_string());
    let mut scale_tiers = vec![100_000];
    if std::env::var("SCALE_MILLION").is_ok_and(|v| v == "1") {
        scale_tiers.push(1_000_000);
    }
    let report = disc_bench::build_report(10_000, &scale_tiers);
    if let Err(e) = report.write(Path::new(&out)) {
        eprintln!("report: {e}");
        std::process::exit(1);
    }
    eprintln!("report: wrote {out}; every gate passed");
}
