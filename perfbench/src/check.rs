//! Correctness checks. Each check counts as one attempted operation; a
//! failed check fails the run and counts in `failed`.

use std::collections::{BTreeMap, BTreeSet};

use disc_cli::worker::solution_hash;
use disc_cli::ServeState;
use disc_core::{build_sharded, greedy_disc_graph, greedy_zoom_in_graph, DiscResult};
use disc_graph::{StratifiedDiskGraph, StreamingCatalog};
use disc_metric::Dataset;

use crate::gen::{Req, Rng};
use crate::traffic::{Record, Summary};

/// Checks run and the messages of those that failed.
#[derive(Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.expect(true, String::new),
            Err(msg) => self.expect(false, || msg),
        }
    }
}

/// In-process Greedy-DisC at `radii[0]`, then the Greedy-Zoom-In chain
/// through the rest: the runners `zoom` and `sweep` are served by.
pub fn solve_chain(g: &StratifiedDiskGraph, radii: &[f64]) -> Result<Vec<DiscResult>, String> {
    let view = g.try_view(radii[0]).map_err(|e| format!("view: {e}"))?;
    let mut out = vec![greedy_disc_graph(&view.to_unit_disk_graph())];
    for &r in &radii[1..] {
        let step = greedy_zoom_in_graph(g, &out[out.len() - 1], r).result;
        out.push(step);
    }
    Ok(out)
}

/// Graph rows of `samples` seeded objects equal a linear scan within
/// `r_max` over the catalog's live points.
pub fn rows_match_linear_scan(
    cat: &StreamingCatalog,
    samples: usize,
    seed: u64,
) -> Result<(), String> {
    let (data, g) = (cat.data(), cat.graph());
    let mut rng = Rng::new(seed, 0x524F_5753);
    for _ in 0..samples {
        let v = rng.below(data.len());
        let scan: BTreeSet<usize> = (0..data.len())
            .filter(|&u| u != v && data.dist(u, v) <= g.radius())
            .collect();
        let row: BTreeSet<usize> = g.neighbors(v).iter().copied().collect();
        if row != scan || row.len() != g.neighbors(v).len() {
            return Err(format!(
                "row {v}: graph has {} neighbors, linear scan finds {}",
                g.neighbors(v).len(),
                scan.len()
            ));
        }
    }
    Ok(())
}

/// Every read reply of a phase with no mutations matches the
/// in-process runners at the same radii: every zoom radius asked
/// (popular and fresh) and the sweep chain.
pub fn read_parity(state: &ServeState, records: &[Record]) -> Vec<String> {
    let cat = state.catalog();
    let mut zooms: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut sweep: Option<(Vec<f64>, Vec<Vec<u64>>)> = None;
    for rec in records {
        match (&rec.req, &rec.summary) {
            (Req::Zoom(r), Summary::Zoom { hash, .. }) => {
                zooms.entry(r.to_bits()).or_default().push(*hash);
            }
            (Req::Sweep(radii), Summary::Sweep { hashes }) => {
                sweep
                    .get_or_insert_with(|| (radii.clone(), Vec::new()))
                    .1
                    .push(hashes.clone());
            }
            _ => {}
        }
    }
    let mut failures = Vec::new();
    for (bits, hashes) in zooms {
        let r = f64::from_bits(bits);
        match solve_chain(cat.graph(), &[r]) {
            Ok(s) => {
                let want = solution_hash(&s[0].solution);
                if let Some(h) = hashes.iter().find(|&&h| h != want) {
                    failures.push(format!("zoom r={r}: served {h:#x}, in-process {want:#x}"));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    if let Some((radii, served)) = sweep {
        match solve_chain(cat.graph(), &radii) {
            Ok(steps) => {
                let want: Vec<u64> = steps.iter().map(|s| solution_hash(&s.solution)).collect();
                if served.iter().any(|h| *h != want) {
                    failures.push(format!(
                        "sweep {radii:?}: served hashes differ from in-process"
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    failures
}

/// Distance computations the catalog must have made for a phase's
/// inserts: one per live object at each insert (`n` after it, minus 1).
pub fn insert_distance_computations(records: &[Record]) -> u64 {
    records
        .iter()
        .map(|r| match r.summary {
            Summary::Mutation {
                insert: true, n, ..
            } => n as u64 - 1,
            _ => 0,
        })
        .sum()
}

/// The mutated catalog's greedy solutions at `radii` equal those of a
/// from-scratch `build_sharded` over its live points, in external ids.
///
/// The rebuild numbers the live points densely in external-id order,
/// so its ids rank objects exactly as the catalog's external ids do
/// (greedy breaks ties by that rank); its solutions map back through
/// the sorted external ids.
pub fn matches_from_scratch(
    cat: &StreamingCatalog,
    shards: usize,
    radii: &[f64],
) -> Result<(), String> {
    let data = cat.data();
    let mut by_external: Vec<(usize, usize)> = cat
        .live_externals()
        .into_iter()
        .enumerate()
        .map(|(internal, external)| (external, internal))
        .collect();
    by_external.sort_unstable();
    let coords = by_external
        .iter()
        .flat_map(|&(_, i)| data.row(i).iter().copied())
        .collect();
    let rebuilt = Dataset::try_from_flat("rebuild", data.metric(), data.dim(), coords)
        .map_err(|e| e.to_string())?;
    let fresh = build_sharded(&rebuilt, cat.r_max(), shards).map_err(|e| e.to_string())?;
    for &r in radii {
        let mine = solve_chain(cat.graph(), &[r])?;
        let scratch = solve_chain(&fresh.graph, &[r])?;
        let scratch: Vec<usize> = scratch[0]
            .solution
            .iter()
            .map(|&rank| by_external[rank].0)
            .collect();
        if mine[0].solution != scratch {
            return Err(format!(
                "r={r}: mutated catalog selects {} objects, from-scratch build {}",
                mine[0].solution.len(),
                scratch.len()
            ));
        }
    }
    Ok(())
}
