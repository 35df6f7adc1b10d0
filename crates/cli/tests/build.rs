//! Pins the `disc build` verb end to end through the binary: it writes
//! a snapshot that loads, and its one JSON line on stdout reports the
//! build's per-phase wall clocks under `phase_ms`, with the same keys
//! `BENCH_scale.json` uses, and the process's memory high-water mark
//! as `peak_rss_mib`.

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
        let peak: f64 = line
            .split_once("\"peak_rss_mib\":")
            .and_then(|(_, rest)| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("peak_rss_mib number: {line}"));
        assert!(peak > 0.0, "peak_rss_mib = {peak}, shards={shards}");
        let bytes = disc_store::read_snapshot(&out).expect("read snapshot");
        disc_store::decode(bytes.as_bytes()).expect("the written snapshot decodes");
    }
    let _ = std::fs::remove_file(&out);
}
