//! **Figure 10b** — impact of the `SPLIT` function on the reshaping time
//! (K = 4): `SPLIT_BASIC` vs the PD and MD heuristics vs the combined
//! `SPLIT_ADVANCED`. At 51 200 nodes the paper reports PD alone cutting
//! the reshaping time by 2.76× and PD+MD by 2.90× (down to 10 rounds).
//! Runs on any execution substrate via `--substrate` (default: engine).
//!
//! ```sh
//! figures fig10b_split --max-nodes 51200 --runs 25   # full paper scale (slow!)
//! ```

use crate::{
    default_max_nodes, lab_config, render_reshaping_table, reshaping_row, scaling_sizes, Args,
    Output,
};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::SubstrateKind;
use polystyrene_sim::prelude::PaperScenario;

/// The flags Fig. 10b reads; it sweeps the grid itself.
pub const FLAGS: &[&str] = &[
    "max-nodes",
    "runs",
    "k",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "out",
];

/// Runs the Fig. 10b sweep.
pub fn run(args: &Args) -> Output {
    let (runs, k) = (args.get("runs", 3), args.get("k", 4));
    let substrate = args.get("substrate", SubstrateKind::Engine);
    let (seed, link) = (args.get("seed", 1), args.link(2, 1));
    let sizes = scaling_sizes(args.get("max-nodes", default_max_nodes(substrate)));
    println!(
        "Fig. 10b sweep on {substrate}: sizes {:?}, K = {k}, {runs} runs each, all split functions\n",
        sizes.iter().map(|&(c, r)| c * r).collect::<Vec<_>>(),
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for strategy in SplitStrategy::ALL {
        let cfg = lab_config(k, strategy, seed, link);
        let rows: Vec<_> = sizes
            .iter()
            .map(|&(cols, rows)| {
                let paper = PaperScenario::reshaping_only(cols, rows, 20, 80);
                let label = format!("{} nodes", cols * rows);
                reshaping_row(substrate, &paper, &cfg, runs, label)
            })
            .collect();
        println!(
            "{}",
            render_reshaping_table(&format!("Fig. 10b — {strategy}"), &rows)
        );
        for r in &rows {
            csv_rows.push(vec![
                strategy.name().to_string(),
                r.nodes.to_string(),
                format!("{:.3}", r.reshaping.mean),
                format!("{:.3}", r.reshaping.half_width),
                r.unreshaped.to_string(),
            ]);
        }
    }
    let mut out = Output::default();
    out.csv(
        "fig10b_split.csv",
        &[
            "split",
            "nodes",
            "reshaping_mean",
            "reshaping_ci95",
            "unreshaped_runs",
        ],
        &csv_rows,
    );
    println!(
        "\nExpected shape (paper Fig. 10b): Split_Basic degrades steeply with\n\
         size; the diameter heuristic (PD) recovers most of the gap; adding the\n\
         displacement heuristic (MD) brings a further small improvement\n\
         (÷2.76 → ÷2.90 at 51 200 nodes in the paper)."
    );
    out
}
