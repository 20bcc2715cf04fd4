//! **Figure 10a** — reshaping time vs network size for K ∈ {2, 4, 8}
//! with `SPLIT_ADVANCED`. The paper reports near-logarithmic growth,
//! reaching 14.08 ± 0.11 rounds at 51 200 nodes with K = 8; the sweep
//! here continues one step past the paper's largest measured run, to
//! the 100 000-node top of its axis (`--max-nodes 102400`, a 320×320
//! torus on the slab-pooled engine).
//!
//! Runs on any execution substrate via `--substrate` (default: the
//! cycle engine, the only one that reaches paper scale on one box —
//! live substrates spawn threads per node, so their default sweep is
//! capped lower). Each table row reports its wall-clock cost, so
//! observation-path performance regressions are visible in the sweep
//! output itself, and the JSON and CSV carry the process's peak
//! resident set after each row beside it.
//!
//! ```sh
//! cargo run --release -p polystyrene-bench --bin fig10a_scaling -- \
//!     --max-nodes 102400 --runs 25      # full axis scale (slow!)
//! cargo run --release -p polystyrene-bench --bin fig10a_scaling -- \
//!     --substrate netsim --max-nodes 1600 --runs 3
//! ```

use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::{
    json_f64, peak_rss_mb, render_reshaping_table, reshaping_row, scaling_sizes, CommonArgs,
    ReshapingRow,
};
use polystyrene_lab::SubstrateKind;
use polystyrene_sim::prelude::{write_csv, PaperScenario, ENGINE_PHASES};

/// One K's rows, each with the process's `VmHWM` once it finished
/// (MB). Sizes ascend within a K and K = 8 runs first, so each K = 8
/// reading is that row's own peak; later K only repeat smaller sizes.
type Sweep = (usize, Vec<ReshapingRow>, Vec<f64>);

/// The machine-readable sweep artifact: per-row wall-clock in a
/// `wall_secs` object and peak memory in a `peak_rss_mb` object, plus
/// per-row reshaping means as `entries`, the same shape `baseline_diff`
/// already gates for the matrix and netsim artifacts. Rows are labeled
/// `K<k>/n=<nodes>`; on the deterministic engine substrate the
/// reshaping means are gated exactly and the 12 800-node wall-clock
/// rides the relative gate. `baseline_diff` does not read
/// `peak_rss_mb` (resident size depends on the allocator and the box).
fn sweep_json(substrate: SubstrateKind, runs: usize, sweeps: &[Sweep]) -> String {
    let all: Vec<(String, &ReshapingRow, f64)> = sweeps
        .iter()
        .flat_map(|(k, rows, rss)| {
            rows.iter()
                .zip(rss)
                .map(move |(r, &rss)| (format!("K{k}/n={}", r.nodes), r, rss))
        })
        .collect();
    let per_row = |value: &dyn Fn(&ReshapingRow, f64) -> f64| {
        all.iter()
            .map(|(label, r, rss)| format!("\"{label}\":{}", json_f64(value(r, *rss), 3)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let wall_secs = per_row(&|r, _| r.elapsed.as_secs_f64());
    let peak_rss = per_row(&|_, rss| rss);
    let entries = all
        .iter()
        .map(|(label, r, _)| {
            format!(
                "{{\"label\":\"{label}\",\"nodes\":{},\"mean_reshaping_rounds\":{},\"unreshaped_runs\":{},\"reliability_mean\":{}}}",
                r.nodes,
                json_f64(r.reshaping.mean, 2),
                r.unreshaped,
                json_f64(r.reliability.mean, 2),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"figure\":\"fig10a_scaling\",\"substrate\":\"{substrate}\",\"runs\":{runs},\
         \"wall_secs\":{{{wall_secs}}},\"peak_rss_mb\":{{{peak_rss}}},\"entries\":[{entries}]}}\n"
    )
}

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
        "Fig. 10a sweep on {}: sizes {:?}, K ∈ {{2, 4, 8}}, {} runs each\n",
        args.substrate,
        sizes.iter().map(|&(c, r)| c * r).collect::<Vec<_>>(),
        args.runs
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    for &k in &[8usize, 4, 2] {
        let mut cfg = args.lab_config(SplitStrategy::Advanced);
        cfg.poly.replication = k;
        let (rows, rss): (Vec<_>, Vec<_>) = sizes
            .iter()
            .map(|&(cols, rows)| {
                let paper = PaperScenario::reshaping_only(cols, rows, 20, 60);
                let label = format!("{} nodes", cols * rows);
                let row = reshaping_row(args.substrate, &paper, &cfg, args.runs, label);
                (row, peak_rss_mb())
            })
            .collect();
        println!(
            "{}",
            render_reshaping_table(
                &format!("Fig. 10a — Polystyrene_K{k} on {}", args.substrate),
                &rows
            )
        );
        // The engine's phase ledger, one line per row.
        for r in &rows {
            let Some(phase_ms) = r.phase_ms else { continue };
            let split: Vec<String> = ENGINE_PHASES
                .iter()
                .zip(phase_ms)
                .map(|(name, ms)| format!("{name} {ms:.2}"))
                .collect();
            println!(
                "  phases (ms/round) {}: {} | sum {:.2}",
                r.label,
                split.join(", "),
                phase_ms.iter().sum::<f64>()
            );
        }
        for (r, rss) in rows.iter().zip(&rss) {
            csv_rows.push(vec![
                k.to_string(),
                r.nodes.to_string(),
                format!("{:.3}", r.reshaping.mean),
                format!("{:.3}", r.reshaping.half_width),
                format!("{:.3}", r.elapsed.as_secs_f64()),
                format!("{rss:.1}"),
            ]);
        }
        sweeps.push((k, rows, rss));
    }
    write_csv(
        args.out.join("fig10a_scaling.csv"),
        &[
            "K",
            "nodes",
            "reshaping_mean",
            "reshaping_ci95",
            "wall_secs",
            "peak_rss_mb",
        ],
        &csv_rows,
    )
    .expect("failed to write CSV");
    let json_path = args.out.join("fig10a_scaling.json");
    std::fs::write(&json_path, sweep_json(args.substrate, args.runs, &sweeps))
        .expect("failed to write JSON");
    println!("CSV written to {}", args.out.display());
    println!("JSON written to {}", json_path.display());
    println!(
        "\nExpected shape (paper Fig. 10a): reshaping time grows roughly\n\
         logarithmically with network size and increases with K at every size."
    );
}
