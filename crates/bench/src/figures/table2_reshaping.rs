//! **Table II** — reshaping time and reliability on the 40×80 torus for
//! K ∈ {2, 4, 8}, averaged over repeated runs with 95 % confidence
//! intervals — on any execution substrate via `--substrate`.
//!
//! Paper values (cycle engine): K=2 → 5.00 ± 0.000 rounds / 87.73 ±
//! 0.18 %; K=4 → 6.96 ± 0.083 / 96.88 ± 0.10; K=8 → 9.08 ± 0.114 /
//! 99.80 ± 0.03.
//!
//! ```sh
//! figures table2_reshaping --runs 25
//! figures table2_reshaping --substrate cluster --cols 16 --rows 8 --runs 2
//! ```

use crate::{lab_config, render_reshaping_table, reshaping_row, Args, Output};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::SubstrateKind;
use polystyrene_protocol::PaperScenario;

/// The flags Table II reads; it sweeps K itself. `--net-*` reaches the
/// substrates that honor a network model.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "runs",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "out",
];

/// Runs Table II.
pub fn run(args: &Args) -> Output {
    let (cols, rows, runs) = (args.get("cols", 80), args.get("rows", 40), args.get("runs", 5));
    let substrate = args.get("substrate", SubstrateKind::Engine);
    let (seed, link) = (args.get("seed", 1), args.link(2, 1));
    // Table II only needs the failure phase: converge 20 rounds, crash
    // half the torus, watch the reshaping.
    let paper = PaperScenario::reshaping_only(cols, rows, 20, 40);
    println!(
        "Table II scenario on {substrate}: {}-node torus, failure at r=20, {runs} runs per K\n",
        paper.node_count(),
    );
    let results: Vec<_> = [2usize, 4, 8]
        .iter()
        .map(|&k| {
            let cfg = lab_config(k, SplitStrategy::Advanced, seed, link);
            reshaping_row(substrate, &paper, &cfg, runs, format!("K={k}"))
        })
        .collect();
    println!(
        "{}",
        render_reshaping_table(
            &format!("Table II — reshaping time and reliability ({cols}×{rows} torus, {substrate})"),
            &results
        )
    );
    let csv_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.reshaping.mean),
                format!("{:.3}", r.reshaping.half_width),
                format!("{:.2}", r.reliability.mean),
                format!("{:.2}", r.reliability.half_width),
            ]
        })
        .collect();
    let mut out = Output::default();
    out.csv(
        "table2_reshaping.csv",
        &[
            "K",
            "reshaping_mean",
            "reshaping_ci95",
            "reliability_mean",
            "reliability_ci95",
        ],
        &csv_rows,
    );
    println!(
        "\nExpected shape (paper Table II): reshaping time grows with K\n\
         (more redundant copies to deduplicate: 5.00 → 6.96 → 9.08 rounds)\n\
         while reliability grows towards 1 − 0.5^(K+1) (87.7 → 96.9 → 99.8 %)."
    );
    out
}
