//! Pins the `disc build` verb end to end through the binary: it writes
//! a snapshot that loads, and its one JSON line on stdout reports the
//! build's node accesses as `node_accesses`, its per-phase wall clocks
//! under `phase_ms`, with the `phase_ms` keys of the scale rows in
//! `BENCH_report.json`, and the process's memory high-water mark as
//! `peak_rss_mib`. Without `--shards` it builds on 8 shards and writes
//! the bytes of a one-shard build.

use std::path::Path;
use std::process::Command;

const PHASES: [&str; 7] = [
    "partition",
    "renumber",
    "tree",
    "intra_join",
    "boundary_join",
    "merge",
    "assembly",
];

/// The `"phase_ms":{...}` object of a build line as `(key, value)`
/// pairs (the line is flat JSON written by the verb; no serde here).
fn phase_ms(line: &str) -> Vec<(String, f64)> {
    let start = line.find("\"phase_ms\":{").expect("phase_ms object") + "\"phase_ms\":{".len();
    let body = &line[start..];
    let body = &body[..body.find('}').expect("closing brace")];
    body.split(',')
        .map(|field| {
            let (key, value) = field.split_once(':').expect("key:value");
            let value = value.parse().unwrap_or_else(|_| panic!("number: {field}"));
            (key.trim_matches('"').to_string(), value)
        })
        .collect()
}

#[test]
fn build_line_reports_every_phase_timing() {
    let dir = std::env::temp_dir().join("disc-cli-build");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join(format!("phases-{}.snap", std::process::id()));
    for shards in ["1", "3"] {
        let run = Command::new(env!("CARGO_BIN_EXE_disc"))
            .args(["build", "--out"])
            .arg(&out)
            .args(["--n", "600", "--clusters", "4", "--seed", "5"])
            .args(["--radius", "0.1", "--shards", shards])
            .output()
            .expect("run disc build");
        assert!(run.status.success(), "exit {:?}", run.status);
        let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
        let line = stdout.lines().next().expect("one JSON line");
        assert!(
            line.starts_with("{\"op\":\"build\",\"status\":\"ok\""),
            "{line}"
        );

        let phases = phase_ms(line);
        let keys: Vec<&str> = phases.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, PHASES, "shards={shards}");
        for (key, ms) in &phases {
            assert!(
                ms.is_finite() && *ms >= 0.0,
                "{key} = {ms}, shards={shards}"
            );
        }
        let field = |key: &str| -> f64 {
            line.split_once(&format!("\"{key}\":"))
                .and_then(|(_, rest)| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{key} number: {line}"))
        };
        let accesses = field("node_accesses");
        assert!(
            accesses > 0.0,
            "node_accesses = {accesses}, shards={shards}"
        );
        let peak = field("peak_rss_mib");
        assert!(peak > 0.0, "peak_rss_mib = {peak}, shards={shards}");
        let bytes = disc_store::read_snapshot(&out).expect("read snapshot");
        disc_store::decode(bytes.as_bytes()).expect("the written snapshot decodes");
    }
    let _ = std::fs::remove_file(&out);
}

#[test]
fn default_build_uses_eight_shards_and_writes_the_one_shard_bytes() {
    let dir = std::env::temp_dir().join("disc-cli-build");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let build = |out: &Path, shards: &[&str]| -> String {
        let run = Command::new(env!("CARGO_BIN_EXE_disc"))
            .args(["build", "--out"])
            .arg(out)
            .args(["--n", "600", "--clusters", "4", "--seed", "5"])
            .args(["--radius", "0.1"])
            .args(shards)
            .output()
            .expect("run disc build");
        assert!(run.status.success(), "exit {:?}", run.status);
        String::from_utf8(run.stdout).expect("utf-8 stdout")
    };
    let pid = std::process::id();
    let default_out = dir.join(format!("default-{pid}.snap"));
    let one_out = dir.join(format!("one-shard-{pid}.snap"));
    let line = build(&default_out, &[]);
    assert!(line.contains("\"shards\":8,"), "{line}");
    build(&one_out, &["--shards", "1"]);
    let default_bytes = std::fs::read(&default_out).expect("read default build");
    let one_bytes = std::fs::read(&one_out).expect("read one-shard build");
    assert!(
        default_bytes == one_bytes,
        "default and --shards 1 snapshots differ"
    );
    let _ = std::fs::remove_file(&default_out);
    let _ = std::fs::remove_file(&one_out);
}
