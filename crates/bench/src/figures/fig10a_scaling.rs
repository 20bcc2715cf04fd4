//! **Figure 10a** — reshaping time vs network size for K ∈ {2, 4, 8}
//! with `SPLIT_ADVANCED`. The paper reports near-logarithmic growth,
//! reaching 14.08 ± 0.11 rounds at 51 200 nodes with K = 8; the sweep
//! here continues one step past the paper's largest measured run, to
//! the 100 000-node top of its axis (`--max-nodes 102400`, a 320×320
//! torus on the slab-pooled engine).
//!
//! Runs on any execution substrate via `--substrate` (default: the
//! cycle engine, the only one that reaches paper scale on one box —
//! the live clusters tick in wall-clock time, so their default sweep
//! is capped lower; see [`default_max_nodes`]). Each table row reports
//! its wall-clock cost, so observation-path performance regressions are
//! visible in the sweep output itself, and the JSON carries the
//! process's peak resident set after each row beside it.
//!
//! ```sh
//! figures fig10a_scaling --max-nodes 102400 --runs 25   # full axis scale (slow!)
//! figures fig10a_scaling --substrate netsim --max-nodes 1600 --runs 3
//! ```

use crate::{
    default_max_nodes, lab_config, peak_rss_mb, render_reshaping_table, reshaping_row,
    scaling_sizes, Args, Output, ReshapingRow,
};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::{json_f64, json_object, SubstrateKind};
use polystyrene_sim::prelude::{PaperScenario, ENGINE_PHASES};

/// The flags Fig. 10a reads; it sweeps K and the grid itself.
pub const FLAGS: &[&str] = &[
    "max-nodes",
    "runs",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "out",
];

/// One K's rows, each with the process's `VmHWM` once it finished
/// (MB). Sizes ascend within a K and K = 8 runs first, so each K = 8
/// reading is that row's own peak; later K only repeat smaller sizes.
type Sweep = (usize, Vec<ReshapingRow>, Vec<f64>);

/// The machine-readable sweep artifact: per-row wall-clock in a
/// `wall_secs` object and peak memory in a `peak_rss_mb` object, plus
/// per-row reshaping means as `entries`, the same shape `figures diff`
/// already gates for the matrix and netsim artifacts. Rows are labeled
/// `K<k>/n=<nodes>`; on the deterministic engine substrate the
/// reshaping means are gated exactly and the 12 800-node wall-clock
/// rides the relative gate. `figures diff` does not read `peak_rss_mb`
/// (resident size depends on the allocator and the box).
fn sweep_json(substrate: SubstrateKind, runs: usize, sweeps: &[Sweep]) -> String {
    let all: Vec<(String, &ReshapingRow, f64)> = sweeps
        .iter()
        .flat_map(|(k, rows, rss)| {
            rows.iter()
                .zip(rss)
                .map(move |(r, &rss)| (format!("K{k}/n={}", r.nodes), r, rss))
        })
        .collect();
    let wall_secs = json_object(
        all.iter()
            .map(|(label, r, _)| (label, json_f64(r.elapsed.as_secs_f64(), 3))),
    );
    let peak_rss = json_object(all.iter().map(|(label, _, rss)| (label, json_f64(*rss, 3))));
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
         \"wall_secs\":{wall_secs},\"peak_rss_mb\":{peak_rss},\"entries\":[{entries}]}}\n"
    )
}

/// Runs the Fig. 10a sweep.
pub fn run(args: &Args) -> Output {
    let runs = args.get("runs", 3);
    let substrate = args.get("substrate", SubstrateKind::Engine);
    let (seed, link) = (args.get("seed", 1), args.link(2, 1));
    let sizes = scaling_sizes(args.get("max-nodes", default_max_nodes(substrate)));
    println!(
        "Fig. 10a sweep on {substrate}: sizes {:?}, K ∈ {{2, 4, 8}}, {runs} runs each\n",
        sizes.iter().map(|&(c, r)| c * r).collect::<Vec<_>>(),
    );

    let mut sweeps: Vec<Sweep> = Vec::new();
    for &k in &[8usize, 4, 2] {
        let cfg = lab_config(k, SplitStrategy::Advanced, seed, link);
        let (rows, rss): (Vec<_>, Vec<_>) = sizes
            .iter()
            .map(|&(cols, rows)| {
                let paper = PaperScenario::reshaping_only(cols, rows, 20, 60);
                let label = format!("{} nodes", cols * rows);
                let row = reshaping_row(substrate, &paper, &cfg, runs, label);
                (row, peak_rss_mb())
            })
            .collect();
        println!(
            "{}",
            render_reshaping_table(&format!("Fig. 10a — Polystyrene_K{k} on {substrate}"), &rows)
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
        sweeps.push((k, rows, rss));
    }
    let mut out = Output::default();
    out.file("fig10a_scaling.json", sweep_json(substrate, runs, &sweeps));
    println!(
        "\nExpected shape (paper Fig. 10a): reshaping time grows roughly\n\
         logarithmically with network size and increases with K at every size."
    );
    out
}
