//! **Table II** — reshaping time and reliability on the 40×80 torus for
//! K ∈ {2, 4, 8}, averaged over repeated runs with 95 % confidence
//! intervals — on any execution substrate via `--substrate`.
//!
//! Paper values (cycle engine): K=2 → 5.00 ± 0.000 rounds / 87.73 ±
//! 0.18 %; K=4 → 6.96 ± 0.083 / 96.88 ± 0.10; K=8 → 9.08 ± 0.114 /
//! 99.80 ± 0.03.
//!
//! ```sh
//! cargo run --release -p polystyrene-bench --bin table2_reshaping -- --runs 25
//! cargo run --release -p polystyrene-bench --bin table2_reshaping -- \
//!     --substrate cluster --cols 16 --rows 8 --runs 2
//! ```

use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::{render_reshaping_table, reshaping_row, CommonArgs};
use polystyrene_sim::prelude::*;

// `--substrate` picks the backend; `--net-*` flags reach the ones that
// honor a network model through the shared lab configuration.

fn main() {
    let args = CommonArgs::parse(CommonArgs {
        runs: 5,
        ..Default::default()
    });
    // Table II only needs the failure phase: converge 20 rounds, crash
    // half the torus, watch the reshaping.
    let paper = PaperScenario::reshaping_only(args.cols, args.rows, 20, 40);
    println!(
        "Table II scenario on {}: {}-node torus, failure at r=20, {} runs per K\n",
        args.substrate,
        paper.node_count(),
        args.runs
    );
    let rows: Vec<_> = [2usize, 4, 8]
        .iter()
        .map(|&k| {
            let mut cfg = args.lab_config(SplitStrategy::Advanced);
            cfg.poly.replication = k;
            reshaping_row(args.substrate, &paper, &cfg, args.runs, format!("K={k}"))
        })
        .collect();
    println!(
        "{}",
        render_reshaping_table(
            &format!(
                "Table II — reshaping time and reliability ({}×{} torus, {})",
                args.cols, args.rows, args.substrate
            ),
            &rows
        )
    );
    let csv_rows: Vec<Vec<String>> = rows
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
    write_csv(
        args.out.join("table2_reshaping.csv"),
        &[
            "K",
            "reshaping_mean",
            "reshaping_ci95",
            "reliability_mean",
            "reliability_ci95",
        ],
        &csv_rows,
    )
    .expect("failed to write CSV");
    println!("CSV written to {}", args.out.display());
    println!(
        "\nExpected shape (paper Table II): reshaping time grows with K\n\
         (more redundant copies to deduplicate: 5.00 → 6.96 → 9.08 rounds)\n\
         while reliability grows towards 1 − 0.5^(K+1) (87.7 → 96.9 → 99.8 %)."
    );
}
