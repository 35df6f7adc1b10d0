//! Section 6 "bottom-up" experiment: the paper found that executing
//! range queries bottom-up instead of top-down changed node accesses by
//! less than 5% in most cases. This experiment issues one range query per
//! object in both modes and compares the totals.

use disc_datasets::Workload;
use disc_mtree::RangeHit;

use crate::scale::Scale;
use crate::table::{fmt_f64, Table};

fn radii(scale: Scale, w: Workload) -> Vec<f64> {
    let all = scale.radii(w);
    match scale {
        Scale::Full => all,
        Scale::Quick => vec![all[all.len() / 2]],
    }
}

/// Runs the experiment on the Uniform and Clustered workloads.
pub fn run(scale: Scale) -> Vec<Table> {
    [Workload::Uniform, Workload::Clustered]
        .iter()
        .map(|&w| {
            let data = scale.dataset(w);
            let tree = scale.tree(&data);
            let radii = radii(scale, w);
            let mut table = Table::new(
                format!("Top-down vs bottom-up range queries ({})", w.name()),
                vec![
                    "radius".into(),
                    "top-down".into(),
                    "bottom-up".into(),
                    "difference %".into(),
                ],
            );
            let mut hits: Vec<RangeHit> = Vec::new();
            for &r in &radii {
                tree.reset_node_accesses();
                for id in 0..data.len() {
                    tree.range_query(data.row(id), r, None, &mut hits);
                }
                let td = tree.reset_node_accesses();
                for id in 0..data.len() {
                    tree.range_query_bottom_up(id, r, None, false, &mut hits);
                }
                let bu = tree.reset_node_accesses();
                let diff = 100.0 * (bu as f64 - td as f64) / td as f64;
                table.push_row(vec![
                    r.to_string(),
                    td.to_string(),
                    bu.to_string(),
                    fmt_f64(diff),
                ]);
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_stays_small() {
        for t in run(Scale::Quick) {
            for row in &t.rows {
                let diff: f64 = row[3].parse().unwrap();
                assert!(
                    diff.abs() < 25.0,
                    "{}: bottom-up should be within a small factor, got {diff}%",
                    t.title
                );
            }
        }
    }
}
