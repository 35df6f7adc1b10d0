//! `disc doctor`: render a [`SnapshotReport`] for a human holding a
//! damaged file.
//!
//! The triage itself lives in [`disc_store::inspect`] — same layout
//! knowledge as the loader, no fail-fast, verdict pinned to
//! [`disc_store::decode_stream`], the serving open. This module only
//! formats: one line per checksummed region using the store's
//! canonical section names (`header`, `section table`, `meta`,
//! `coords`, `offsets`, `neighbors`, `dists`, `ext ids`, `name`), the
//! header diagnosis — its `version:` line marks 4 supported, 2 and 3
//! supported legacy, anything else unsupported — and a final
//! `verdict:` line a script can grep.

use disc_store::{
    SectionCheck, SnapshotReport, DENSE_VERSION, ENDIAN_MARKER, STREAM_VERSION, VERSION,
};

fn render_check(check: &SectionCheck) -> String {
    let status = match check.computed {
        Some(computed) if computed == check.stored => "ok".to_string(),
        Some(computed) => format!(
            "MISMATCH (stored {:#018x}, computed {computed:#018x})",
            check.stored
        ),
        None => "MISSING (extends past end of file)".to_string(),
    };
    format!(
        "  {:<14} offset {:>8}  len {:>10}  {status}",
        check.section.to_string(),
        check.offset,
        check.len
    )
}

/// Renders the full doctor report. The last line is always
/// `verdict: clean` or `verdict: REJECTED: <reason>` — what a serving
/// process does with this exact file.
pub fn render(label: &str, report: &SnapshotReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("snapshot: {label} ({} bytes)\n", report.have));
    out.push_str(&format!(
        "magic:    {}\n",
        if report.magic_ok {
            "ok"
        } else {
            "BAD (not a DisC snapshot)"
        }
    ));
    match report.version {
        Some(v) if v == VERSION => out.push_str(&format!("version:  {v} (supported)\n")),
        Some(v) if v == DENSE_VERSION || v == STREAM_VERSION => {
            out.push_str(&format!("version:  {v} (supported, legacy)\n"))
        }
        Some(v) => out.push_str(&format!(
            "version:  {v} (UNSUPPORTED, this build reads {DENSE_VERSION}, {STREAM_VERSION} \
             and {VERSION})\n"
        )),
        None => out.push_str("version:  unreadable (header missing)\n"),
    }
    match report.endian {
        Some(m) if m == ENDIAN_MARKER => out.push_str("endian:   ok\n"),
        Some(m) => out.push_str(&format!("endian:   MISMATCH (marker reads {m:#010x})\n")),
        None => out.push_str("endian:   unreadable (header missing)\n"),
    }
    match (report.declared_len, report.truncated_to) {
        (Some(declared), Some(_)) => out.push_str(&format!(
            "length:   TRUNCATED (file declares {declared} bytes, only {} present)\n",
            report.have
        )),
        (Some(declared), None) => {
            out.push_str(&format!("length:   {declared} declared, all present\n"))
        }
        (None, _) => out.push_str("length:   unreadable (header missing)\n"),
    }
    if report.checks.is_empty() {
        out.push_str("checks:   none possible (buffer too short)\n");
    } else {
        out.push_str("checks:\n");
        for check in &report.checks {
            out.push_str(&render_check(check));
            out.push('\n');
        }
    }
    match &report.verdict {
        Ok(()) => out.push_str("verdict: clean\n"),
        Err(e) => out.push_str(&format!("verdict: REJECTED: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_graph::StratifiedDiskGraph;
    use disc_metric::{Dataset, Metric, Point};
    use disc_store::fault::{corrupt, Fault};
    use disc_store::{inspect, AlignedBytes};

    fn snapshot() -> Vec<u8> {
        let data = Dataset::new(
            "doctor-test",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(0.3, 0.0),
                Point::new2(0.0, 0.4),
                Point::new2(2.0, 2.0),
            ],
        );
        let graph = StratifiedDiskGraph::build(&data, 1.0);
        match disc_store::encode(&data, &graph) {
            Ok(b) => b,
            Err(e) => unreachable!("valid inputs encode: {e}"),
        }
    }

    #[test]
    fn clean_report_says_clean_and_lists_every_section() {
        let bytes = AlignedBytes::copy_from(&snapshot());
        let text = render("test.snap", &inspect(bytes.as_bytes()));
        assert!(text.contains("verdict: clean"));
        for name in [
            "header",
            "section table",
            "meta",
            "coords",
            "offsets",
            "neighbors",
            "dists",
            "name",
        ] {
            assert!(
                text.contains(name),
                "missing section line for {name}: {text}"
            );
        }
        assert!(!text.contains("MISMATCH"));
    }

    #[test]
    fn coords_corruption_names_coords_in_both_check_and_verdict() {
        // Coords payload starts at 296 (table ends 248, meta is 48).
        let bad = corrupt(
            &snapshot(),
            Fault::BitFlip {
                offset: 300,
                bit: 1,
            },
        );
        let bytes = AlignedBytes::copy_from(&bad);
        let text = render("bad.snap", &inspect(bytes.as_bytes()));
        assert!(text.contains("coords"));
        assert!(text.contains("MISMATCH"));
        assert!(text.contains("verdict: REJECTED:"));
        assert!(!text.contains("verdict: clean"));
    }

    #[test]
    fn truncated_file_reports_truncation_and_missing_region() {
        let full = snapshot();
        let cut = corrupt(&full, Fault::TruncateAt(full.len() - 8));
        let bytes = AlignedBytes::copy_from(&cut);
        let text = render("cut.snap", &inspect(bytes.as_bytes()));
        assert!(text.contains("TRUNCATED"));
        assert!(text.contains("MISSING"));
        assert!(text.contains("verdict: REJECTED:"));
    }
}
