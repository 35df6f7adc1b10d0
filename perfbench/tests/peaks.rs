//! Two workloads in one invocation each report their own peak RSS: the
//! larger workload runs first, so a process-wide high-water mark carried
//! into the second would make it report at least the first's peak.

use std::process::Command;

fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"))
        + key.len();
    let end = at + line[at..].find(',').expect("value is followed by its unit");
    line[at..end].parse().expect("a number")
}

#[test]
fn each_workload_reports_its_own_peak_rss() {
    let work = std::env::temp_dir().join(format!("perfbench-peaks-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "build_clustered_50k,serve_zoom_10k"])
        .args(["--seed", "3", "--seconds", "1", "--trace", "0"])
        .current_dir(&work)
        .output()
        .expect("run perfbench");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let build = metric(last, "build_clustered_50k.peak_rss_mib");
    let serve = metric(last, "serve_zoom_10k.peak_rss_mib");
    assert!(serve > 0.0 && build > 0.0);
    assert!(
        serve < build,
        "the second workload reported {serve} MiB, the first {build} MiB: its peak is not its own"
    );
    // Each child printed its own provenance and result line too.
    assert_eq!(stdout.matches("{\"provenance\"").count(), 2);
}
