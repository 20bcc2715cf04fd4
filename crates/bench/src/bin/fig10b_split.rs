//! **Figure 10b** — impact of the `SPLIT` function on the reshaping time
//! (K = 4): `SPLIT_BASIC` vs the PD and MD heuristics vs the combined
//! `SPLIT_ADVANCED`. At 51 200 nodes the paper reports PD alone cutting
//! the reshaping time by 2.76× and PD+MD by 2.90× (down to 10 rounds).
//!
//! ```sh
//! cargo run --release -p polystyrene-bench --bin fig10b_split -- \
//!     --max-nodes 51200 --runs 25       # full paper scale (slow!)
//! ```

use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::{render_reshaping_table, reshaping_row, scaling_sizes, CommonArgs};
use polystyrene_lab::SubstrateKind;
use polystyrene_sim::prelude::{write_csv, PaperScenario};

// Runs on any execution substrate via `--substrate` (default: engine).

fn main() {
    let args = CommonArgs::parse_with(
        CommonArgs {
            runs: 3,
            ..Default::default()
        },
        &["max-nodes"],
    );
    // Thread-per-node substrates default to a much smaller sweep.
    let default_max = match args.substrate {
        SubstrateKind::Engine | SubstrateKind::Netsim => 6400,
        SubstrateKind::Cluster | SubstrateKind::Tcp => 400,
    };
    let max_nodes = args.extra_usize("max-nodes", default_max);
    let sizes = scaling_sizes(max_nodes);
    println!(
        "Fig. 10b sweep on {}: sizes {:?}, K = {}, {} runs each, all split functions\n",
        args.substrate,
        sizes.iter().map(|&(c, r)| c * r).collect::<Vec<_>>(),
        args.k,
        args.runs
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for strategy in SplitStrategy::ALL {
        let cfg = args.lab_config(strategy);
        let rows: Vec<_> = sizes
            .iter()
            .map(|&(cols, rows)| {
                let paper = PaperScenario::reshaping_only(cols, rows, 20, 80);
                let label = format!("{} nodes", cols * rows);
                reshaping_row(args.substrate, &paper, &cfg, args.runs, label)
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
    write_csv(
        args.out.join("fig10b_split.csv"),
        &[
            "split",
            "nodes",
            "reshaping_mean",
            "reshaping_ci95",
            "unreshaped_runs",
        ],
        &csv_rows,
    )
    .expect("failed to write CSV");
    println!("CSV written to {}", args.out.display());
    println!(
        "\nExpected shape (paper Fig. 10b): Split_Basic degrades steeply with\n\
         size; the diameter heuristic (PD) recovers most of the gap; adding the\n\
         displacement heuristic (MD) brings a further small improvement\n\
         (÷2.76 → ÷2.90 at 51 200 nodes in the paper)."
    );
}
