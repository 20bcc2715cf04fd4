//! **Figures 6 and 7** — four observables of the paper's three-phase
//! scenario, for Polystyrene K ∈ {8, 4, 2} and the T-Man baseline:
//! homogeneity (6a), proximity (6b), data points per node (7a) and
//! communication cost (7b: units per node per round). Each
//! configuration runs once; all four figures read the same runs.
//!
//! Engine only: proximity (6b) is read off the engine's history.
//!
//! ```sh
//! figures fig6_7_quality --cols 80 --rows 40 --runs 25   # full paper scale
//! ```

use crate::report::{ascii_plot, series_rows};
use crate::{
    lab_config, render_reshaping_table, run_quality, steady_state, Args, Output, ReshapingRow,
};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::Series;
use polystyrene_protocol::{LinkProfile, PaperScenario};
use std::time::Instant;

/// The flags Figs. 6 and 7 read; they run each K of the paper and the
/// T-Man baseline.
pub const FLAGS: &[&str] = &["cols", "rows", "runs", "seed", "out"];

/// Runs Figs. 6 and 7.
pub fn run(args: &Args) -> Output {
    let runs = args.get("runs", 3);
    let paper = PaperScenario {
        cols: args.get("cols", 40),
        rows: args.get("rows", 20),
        ..Default::default()
    };
    println!(
        "Figs. 6-7 scenario: {}-node torus, failure at r={}, reinjection at r={:?}, {runs} runs",
        paper.node_count(),
        paper.failure_round,
        paper.inject_round,
    );

    // (label, homogeneity, proximity, points per node, cost per node)
    let mut series: Vec<(String, [Vec<f64>; 4])> = Vec::new();
    let mut rows = Vec::new();
    let base = lab_config(
        4,
        SplitStrategy::Advanced,
        args.get("seed", 1),
        LinkProfile::ideal(),
    );
    // (K, T-Man alone): the paper's three stacks, then its baseline.
    for (k, tman_only) in [(8usize, false), (4, false), (2, false), (4, true)] {
        let label = if tman_only {
            "TMan".to_string()
        } else {
            format!("Polystyrene_K{k}")
        };
        let mut cfg = base;
        cfg.poly.replication = k;
        let started = Instant::now();
        let (summary, proximity) = run_quality(&paper, &cfg, tman_only, runs);
        let elapsed = started.elapsed();
        let points = summary[Series::PointsPerNode].means();
        let cost = summary[Series::CostUnits].means();
        // T-Man alone never replicates: one point per founder.
        let expected = if tman_only { 1 } else { 1 + k };
        let pre_failure = points
            .get(paper.failure_round as usize - 1)
            .copied()
            .unwrap_or(f64::NAN);
        println!(
            "{label}: points/node before failure {pre_failure:.2} (expect {expected}), \
             steady after failure {:.2}, cost/node steady {:.1} units",
            steady_state(
                &points[..paper.inject_round.unwrap_or(paper.total_rounds) as usize],
                10
            ),
            steady_state(&cost, 10),
        );
        rows.push(ReshapingRow::from_summary(
            label.clone(),
            paper.node_count(),
            &summary,
            elapsed,
        ));
        series.push((
            label,
            [summary[Series::Homogeneity].means(), proximity.means(), points, cost],
        ));
    }
    println!(
        "\n{}",
        render_reshaping_table("Reshaping after the failure", &rows)
    );

    let mut out = Output::default();
    for (i, (title, file)) in [
        (
            "Fig. 6a — homogeneity (lower is better)",
            "fig6a_homogeneity.csv",
        ),
        (
            "Fig. 6b — proximity (lower is better)",
            "fig6b_proximity.csv",
        ),
        (
            "Fig. 7a — data points per node",
            "fig7a_points_per_node.csv",
        ),
        (
            "Fig. 7b — message cost per node (units)",
            "fig7b_cost_per_node.csv",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let refs: Vec<(&str, &[f64])> = series
            .iter()
            .map(|(label, s)| (label.as_str(), s[i].as_slice()))
            .collect();
        println!("\n{}", ascii_plot(title, &refs, 14, 72));
        let (headers, csv_rows) = series_rows(&refs);
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        out.csv(file, &headers_ref, &csv_rows);
    }
    println!(
        "\nExpected shape (paper Fig. 6): Polystyrene homogeneity returns below\n\
         H after ≲10 rounds for every K and drops near zero after reinjection,\n\
         while T-Man plateaus after the failure (5.25 at paper scale) and\n\
         keeps a residual offset (0.35) after reinjection.\n\
         Expected shape (paper Fig. 7): points/node sits at 1+K before the\n\
         failure, spikes right after it (eager re-replication of recovered\n\
         ghosts) and decays as migration deduplicates; cost is dominated by\n\
         T-Man position updates (93.6% for K=8 in the paper), with Polystyrene\n\
         adding only migration traffic and incremental backup deltas."
    );
    out
}
