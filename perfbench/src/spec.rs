//! The workload table: what each workload builds and what traffic it
//! sends. `BENCHMARK.json` carries the one-line reason for each.

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["build_clustered_50k", "serve_zoom_10k", "serve_mixed_10k"];

/// Gaussian clusters of every workload's 2-D point distribution.
pub const CLUSTERS: usize = 8;

/// Shards of every sharded build.
pub const SHARDS: usize = 8;

/// One workload's parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Initial object count.
    pub n: usize,
    /// Build radius (the largest serveable radius).
    pub r_max: f64,
    /// Set-ups (build → write → open → start) per run; set-up metrics
    /// report their median.
    pub setups: usize,
    /// One mutation after every this many reads in the timed phase (0:
    /// the timed phase only reads).
    pub reads_per_mutation: usize,
    /// Mutations of the write segment after each set-up's timed
    /// segment, sent by one writer with no reads running (the mutation
    /// latency metrics).
    pub writes_per_setup: usize,
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "build_clustered_50k" => Spec {
            name: "build_clustered_50k",
            n: 50_000,
            r_max: 0.019544,
            setups: 4,
            reads_per_mutation: 0,
            writes_per_setup: 25,
        },
        "serve_zoom_10k" => Spec {
            name: "serve_zoom_10k",
            n: 10_000,
            r_max: 0.08,
            setups: 5,
            reads_per_mutation: 0,
            writes_per_setup: 24,
        },
        "serve_mixed_10k" => Spec {
            name: "serve_mixed_10k",
            n: 10_000,
            r_max: 0.08,
            setups: 5,
            reads_per_mutation: 2,
            writes_per_setup: 24,
        },
        _ => return None,
    })
}
