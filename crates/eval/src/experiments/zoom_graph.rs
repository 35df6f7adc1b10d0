//! Graph-resident zooming over the radius-stratified graph: the
//! zoom-in sweep of Figures 11–13 re-run with a single
//! `StratifiedDiskGraph` build instead of per-step range queries.
//!
//! For each workload the sweep radii are taken in descending order;
//! the tree-backed side computes Greedy-DisC at the largest radius and
//! Greedy-Zoom-In for each smaller one (per-step distance computations
//! shown), while the graph-resident side pays one distance-annotated
//! self-join at `r_max` and then adapts through sorted-adjacency
//! prefixes at **zero** additional distance computations. Solutions are
//! asserted byte-identical step by step, so the table is a pure cost
//! comparison.

use disc_core::{greedy_disc, greedy_zoom_in, greedy_zoom_in_graph, GreedyVariant};
use disc_datasets::Workload;
use disc_graph::StratifiedDiskGraph;

use crate::scale::Scale;
use crate::table::Table;

/// Runs the experiment: one cost table per workload.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();
    for w in [Workload::Clustered, Workload::Cities] {
        let data = scale.dataset(w);
        let tree = scale.tree(&data);
        let mut radii = scale.zoom_radii(w);
        radii.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let r_max = radii[0];

        let mut columns = vec!["series".to_string(), format!("r={r_max} (build)")];
        columns.extend(radii[1..].iter().map(|r| format!("r'={r}")));
        let mut table = Table::new(
            format!(
                "Zoom-in sweep distance computations ({}): tree-backed vs stratified graph",
                w.name()
            ),
            columns,
        );

        // Tree-backed chained sweep, per-step distance computations.
        tree.reset_distance_computations();
        let mut tree_row = vec!["Greedy-Zoom-In (tree)".to_string()];
        let mut prev = greedy_disc(&tree, r_max, GreedyVariant::Grey, true);
        tree_row.push(tree.reset_distance_computations().to_string());
        let mut tree_sols = vec![prev.solution.clone()];
        for &r_new in &radii[1..] {
            prev = greedy_zoom_in(&tree, &prev, r_new).result;
            tree_row.push(tree.reset_distance_computations().to_string());
            tree_sols.push(prev.solution.clone());
        }

        // Graph-resident sweep: one build, then zero distances.
        tree.reset_distance_computations();
        let strat = StratifiedDiskGraph::from_mtree(&tree, r_max);
        let build_dc = tree.reset_distance_computations();
        let mut graph_row = vec![
            "Greedy-Zoom-In (stratified graph)".to_string(),
            build_dc.to_string(),
        ];
        let mut prev_g = disc_core::greedy_disc_graph(&strat.view(r_max));
        assert_eq!(
            prev_g.solution,
            tree_sols[0],
            "{}: r_max solutions",
            w.name()
        );
        for (i, &r_new) in radii[1..].iter().enumerate() {
            prev_g = greedy_zoom_in_graph(&strat, &prev_g, r_new).result;
            assert_eq!(
                prev_g.solution,
                tree_sols[i + 1],
                "{}: r'={r_new} solutions",
                w.name()
            );
            graph_row.push(tree.reset_distance_computations().to_string());
        }
        table.push_row(tree_row);
        table.push_row(graph_row);
        out.push(table);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tables_with_zero_graph_sweep_cost() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            // The graph row's post-build cells are all zero...
            let graph = &t.rows[1];
            assert!(graph[2..].iter().all(|c| c == "0"), "{}", t.title);
            // ...and the one-time build costs less than the tree-backed
            // sweep's total.
            let build: u64 = graph[1].parse().unwrap();
            let tree_total: u64 = t.rows[0][1..]
                .iter()
                .map(|c| c.parse::<u64>().unwrap())
                .sum();
            assert!(build < tree_total, "{}: {build} !< {tree_total}", t.title);
        }
    }
}
