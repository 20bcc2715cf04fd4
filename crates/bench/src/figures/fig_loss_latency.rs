//! **Loss/latency sweep** (beyond the paper) — convergence and recovery
//! quality vs message-drop rate and link latency. The paper's
//! evaluation assumes reliable atomic exchanges; this figure measures
//! how far the protocol degrades when the fabric delays, reorders and
//! loses messages — and pins that it still recovers the shape at 10%
//! loss.
//!
//! Runs through the unified experiment plane on any substrate with a
//! network model: the discrete-event kernel by default (`--substrate
//! netsim`, the only one honoring latency/jitter), or the live clusters
//! (which honor the loss probability at their send boundary). The cycle
//! engine has no fabric to disturb and is rejected.
//!
//! Two sweep modes share the machinery:
//!
//! * the default **loss sweep** holds the grid fixed and sweeps the
//!   drop rate (`LOSSES` plus any explicit `--net-loss`);
//! * `--sweep-nodes MAX` holds the drop rate fixed (`--net-loss`,
//!   defaulting to 5%) and sweeps the population over the standard
//!   scaling grids up to `MAX` nodes — the netsim scale axis, timed
//!   per row, with each row's peak resident memory beside its time.
//!
//! Emits machine-readable JSON (one record per sweep point plus a
//! `wall_secs` object with each row's wall-clock and a `peak_rss_mb`
//! object with the process's peak resident set after each row, via the
//! shared emitter) for the CI perf/quality trajectory, and fails if any
//! netsim loss-sweep point at or below 10% loss fails to recover — so
//! the artifact upload doubles as a regression gate.
//!
//! ```sh
//! figures fig_loss_latency --cols 40 --rows 25 --runs 3 --net-latency 2 --net-jitter 1
//! figures fig_loss_latency --sweep-nodes 25600 --runs 1
//! ```

use crate::{lab_config, peak_rss_mb, scaling_sizes, Args, Output, ALLOCATIONS};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::{
    build_substrate, json_f64, json_object, run_experiment, summary_json, ExperimentSummary,
    Series, SubstrateKind,
};
use polystyrene_membership::NodeId;
use polystyrene_netsim::prelude::{LinkProfile, NetSim, SubstrateConfig};
use polystyrene_protocol::{PaperScenario, Scenario, ScenarioEvent};
use polystyrene_space::torus::Torus2;
use std::sync::atomic::Ordering;

/// The flags the loss/latency sweep reads.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "runs",
    "k",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "partition-rounds",
    "sweep-nodes",
    "out",
];

/// Measures steady-state heap allocations per netsim round on the
/// netsim allocation gate's 256-node scenario (same grid, seed and link
/// profile, so the numbers are directly comparable), off the `figures`
/// binary's counting allocator: the sweep artifact carries the
/// deterministic `allocs_per_round` scalar so `figures diff` catches
/// allocation regressions in CI, not just in `tests/gates.rs`.
/// Deterministic: the run is fully seeded and its 256 nodes never fill
/// a second kernel lane, so the count is the same on any core count and
/// `figures diff` gates it exactly against the committed baseline.
///
/// # Panics
///
/// In a process without the counting allocator, which would read 0.
fn measure_allocs_per_round() -> u64 {
    const ROUNDS: u64 = 8;
    assert!(
        ALLOCATIONS.load(Ordering::Relaxed) > 0,
        "allocs_per_round needs the figures binary's counting allocator"
    );
    let mut cfg = SubstrateConfig::default();
    cfg.area = 256.0;
    cfg.seed = 21;
    cfg.link = LinkProfile {
        latency: 2,
        jitter: 1,
        loss: 0.05,
    };
    let mut sim = NetSim::new(
        Torus2::new(32.0, 8.0),
        polystyrene_space::shapes::torus_grid(32, 8, 1.0),
        cfg,
    );
    sim.run(10); // warm-up: views fill, pools reach steady capacity
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        sim.step();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) / ROUNDS
}

/// The baseline drop rates swept (≥ 3 points, per the netsim acceptance
/// bar); an explicit `--net-loss` is merged in as an extra point.
const LOSSES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Drop rate of the `--sweep-nodes` scale sweep when `--net-loss` is
/// left at zero: lossless scaling rows would not exercise the retry and
/// parking machinery the scale axis is meant to time.
const SCALE_SWEEP_LOSS: f64 = 0.05;

/// The sweep's drop-rate points: the baseline plus `--net-loss` when it
/// names a rate not already swept — the flag must never be a silent
/// no-op.
fn sweep_losses(net_loss: f64) -> Vec<f64> {
    let mut losses = LOSSES.to_vec();
    if !losses.iter().any(|&l| (l - net_loss).abs() < 1e-12) {
        losses.push(net_loss);
        losses.sort_by(|a, b| a.partial_cmp(b).expect("validated probabilities"));
    }
    losses
}
/// Rounds of convergence before the catastrophic failure.
const FAILURE_ROUND: u32 = 20;
/// Observation rounds after the failure (lossy recovery at 1k nodes
/// needs ~50-60 rounds; see the JSON for the measured reshaping times).
const TAIL_ROUNDS: u32 = 80;

/// What every row of one sweep shares.
struct Plan {
    substrate: SubstrateKind,
    runs: usize,
    partition_rounds: u32,
    /// K, split, base seed and link; each row sets its loss and area.
    base: SubstrateConfig,
}

/// One completed sweep row: everything the report, the JSON emitter and
/// the recovery gate need.
struct SweepRow {
    /// Entry label in the JSON (`loss=0.05` or `n=1600`).
    label: String,
    /// Population of this row's grid.
    nodes: usize,
    /// Drop rate this row ran under.
    loss: f64,
    summary: ExperimentSummary,
    /// Wall-clock for the row's runs, in seconds.
    wall_secs: f64,
    /// The process's peak resident set once the row is done, in MB
    /// (NaN where `/proc` has no `VmHWM`). Scale rows ascend in size,
    /// so there it is the row's own peak; loss rows share one size, so
    /// there it is the peak of the rows so far. Not gated.
    peak_rss_mb: f64,
}

/// The sweep's scenario on `paper`'s grid: converge, kill the right
/// half-torus, and — with `--partition-rounds N` — additionally isolate
/// the left quarter of the surviving founders for N rounds
/// mid-recovery, expressed as a scripted [`ScenarioEvent::Partition`]
/// (substrates without a fabric to cut no-op it). The partition window
/// *extends* the scenario, so the post-heal recovery budget stays the
/// full `TAIL_ROUNDS` regardless of the flag.
fn sweep_scenario(cols: usize, rows: usize, partition_rounds: u32) -> (PaperScenario, Scenario<[f64; 2]>) {
    let paper =
        PaperScenario::reshaping_only(cols, rows, FAILURE_ROUND, TAIL_ROUNDS + partition_rounds);
    let mut scenario = paper.script();
    if partition_rounds > 0 {
        let quarter = cols as f64 / 4.0;
        let minority: Vec<NodeId> = paper
            .shape()
            .iter()
            .enumerate()
            .filter(|(_, p)| p[0] < quarter)
            .map(|(i, _)| NodeId::new(i as u64))
            .collect();
        scenario = scenario.at(
            FAILURE_ROUND,
            ScenarioEvent::Partition {
                groups: vec![minority],
                rounds: partition_rounds,
            },
        );
    }
    (paper, scenario)
}

/// Runs one sweep row (`plan.runs` seeded repetitions of the scripted
/// scenario on a `cols × rows` grid at `loss`) and times it.
fn run_row(plan: &Plan, cols: usize, rows: usize, loss: f64, label: String) -> SweepRow {
    let (paper, scenario) = sweep_scenario(cols, rows, plan.partition_rounds);
    let mut base = plan.base;
    base.link.loss = loss;
    base.area = (cols * rows) as f64;
    let started = std::time::Instant::now();
    let mut summary = ExperimentSummary::default();
    for run in 0..plan.runs {
        let mut cfg = base;
        cfg.seed = base.seed + run as u64;
        let mut substrate = build_substrate(
            plan.substrate,
            Torus2::new(cols as f64, rows as f64),
            paper.shape(),
            &cfg,
        );
        summary.push(&run_experiment(substrate.as_mut(), &scenario));
    }
    let row = SweepRow {
        label,
        nodes: cols * rows,
        loss,
        summary,
        wall_secs: started.elapsed().as_secs_f64(),
        peak_rss_mb: peak_rss_mb(),
    };
    report_row(&row, plan.runs);
    row
}

/// Prints one row's headline numbers.
fn report_row(row: &SweepRow, runs: usize) {
    let reshaping = match row.summary.mean_reshaping_rounds() {
        Some(mean) => format!(
            "{mean:.1} rounds ({}/{} runs)",
            row.summary.recovered_runs(),
            runs
        ),
        None => "never".to_string(),
    };
    let last = |s| row.summary[s].last().map_or(f64::NAN, |v| v.mean());
    println!(
        "{:>10} → reshaping {reshaping}, final homogeneity {:.3} (ref {:.3}), \
         survival {:.1}%, {:.1} pts/node, {:.1}s wall, {:.0} MB peak RSS",
        row.label,
        last(Series::Homogeneity),
        last(Series::ReferenceHomogeneity),
        last(Series::SurvivingPoints) * 100.0,
        last(Series::PointsPerNode),
        row.wall_secs,
        row.peak_rss_mb,
    );
}

/// The recovery gate's failure report: names every tripped sweep row
/// with its size, drop rate, recovery ratio and the reshaping rounds
/// actually observed — a bare "no recovery at loss=0.1" forced a rerun
/// just to learn which scale failed and how close it came.
fn gate_failure_report(failed: &[&SweepRow]) -> String {
    let rows: Vec<String> = failed
        .iter()
        .map(|r| {
            let observed = match r.summary.mean_reshaping_rounds() {
                Some(mean) => format!("mean reshaping {mean:.1} rounds"),
                None => format!("no run reshaped within {TAIL_ROUNDS} tail rounds"),
            };
            format!(
                "  {}: {} nodes at {:.0}% loss — {}/{} runs recovered, {}",
                r.label,
                r.nodes,
                r.loss * 100.0,
                r.summary.recovered_runs(),
                r.summary.runs,
                observed
            )
        })
        .collect();
    format!(
        "recovery gate (<= 10% loss must recover) tripped on {} sweep row(s):\n{}",
        failed.len(),
        rows.join("\n")
    )
}

/// Runs the loss sweep, or the scale sweep with `--sweep-nodes`.
pub fn run(args: &Args) -> Output {
    let (cols, rows) = (args.get("cols", 40), args.get("rows", 25)); // 1000 nodes — the sweep's minimum scale
    let substrate = args.get("substrate", SubstrateKind::Netsim);
    let link = args.link(2, 1);
    let plan = Plan {
        substrate,
        runs: args.get("runs", 1),
        partition_rounds: args.get("partition-rounds", 0),
        base: lab_config(
            args.get("k", 4),
            SplitStrategy::Advanced,
            args.get("seed", 1),
            link,
        ),
    };
    let sweep_nodes = args.get("sweep-nodes", 0);
    assert!(
        substrate.has_network_model(),
        "the loss/latency sweep needs a substrate with a network model \
         (netsim, cluster or tcp — the cycle engine has no fabric to disturb)"
    );
    assert!(
        sweep_nodes == 0 || substrate == SubstrateKind::Netsim,
        "--sweep-nodes is the netsim scale axis; the live clusters cannot take it"
    );
    assert!(
        sweep_nodes > 0 || cols * rows >= 1000 || substrate != SubstrateKind::Netsim,
        "the netsim loss/latency sweep is specified at >= 1k nodes (got {})",
        cols * rows
    );
    // The live clusters cannot take the netsim default of 1000 nodes × 4
    // sweep points on modest hardware: demand an explicit small grid
    // instead of silently grinding the box.
    assert!(
        cols * rows <= 256 || substrate == SubstrateKind::Netsim,
        "{substrate} runs every node in wall-clock ticks on a few worker threads: pass \
         --cols/--rows with <= 256 nodes (e.g. --cols 8 --rows 8), got {}",
        cols * rows
    );

    // One summary per sweep point, every run through the one unified
    // driver with the one (possibly partition-extended) script.
    let mut sweep: Vec<SweepRow> = Vec::new();
    if sweep_nodes > 0 {
        let loss = if link.loss > 0.0 {
            link.loss
        } else {
            SCALE_SWEEP_LOSS
        };
        let sizes = scaling_sizes(sweep_nodes);
        assert!(!sizes.is_empty(), "--sweep-nodes below the smallest grid");
        println!(
            "Scale sweep on {substrate}: up to {} nodes at {:.0}% loss, latency {} ± {} ticks, {} run(s) per size\n",
            sizes.last().map(|&(c, r)| c * r).unwrap_or(0),
            loss * 100.0,
            link.latency,
            link.jitter,
            plan.runs,
        );
        for (c, r) in sizes {
            sweep.push(run_row(&plan, c, r, loss, format!("n={}", c * r)));
        }
    } else {
        let losses = sweep_losses(link.loss);
        println!(
            "Loss/latency sweep on {substrate}: {} nodes, losses {losses:?}, latency {} ± {} ticks, {} run(s) per point{}\n",
            cols * rows,
            link.latency,
            link.jitter,
            plan.runs,
            if plan.partition_rounds > 0 {
                format!(
                    ", {}-round partition during recovery",
                    plan.partition_rounds
                )
            } else {
                String::new()
            },
        );
        for &loss in &losses {
            sweep.push(run_row(&plan, cols, rows, loss, format!("loss={loss}")));
        }
    }

    // Allocation telemetry for the CI trajectory: only the deterministic
    // netsim substrate measures it (the live substrates' thread and
    // socket machinery would make the count scheduling-dependent). The
    // probe reuses the netsim allocation gate's 256-node scenario, so the
    // artifact scalar and the local gate speak the same unit.
    let allocs_per_round = (substrate == SubstrateKind::Netsim)
        .then(measure_allocs_per_round)
        .inspect(|n| println!("\nnetsim steady-state: {n} allocations/round (256-node probe)"));

    let entries: Vec<(String, &ExperimentSummary)> =
        sweep.iter().map(|r| (r.label.clone(), &r.summary)).collect();
    let per_row =
        |value: fn(&SweepRow) -> f64| json_object(sweep.iter().map(|r| (&r.label, json_f64(value(r), 3))));
    let mut meta: Vec<(&str, String)> = vec![
        ("substrate", format!("\"{substrate}\"")),
        (
            "mode",
            format!("\"{}\"", if sweep_nodes > 0 { "scale" } else { "loss" }),
        ),
        ("nodes", (cols * rows).to_string()),
        ("runs", plan.runs.to_string()),
        ("failure_round", FAILURE_ROUND.to_string()),
        ("tail_rounds", TAIL_ROUNDS.to_string()),
        ("partition_rounds", plan.partition_rounds.to_string()),
        ("latency", link.latency.to_string()),
        ("jitter", link.jitter.to_string()),
        // Per-row wall-clock, for the baseline differ and the scale
        // axis: quality regressions and time regressions travel in
        // the same artifact.
        ("wall_secs", per_row(|r| r.wall_secs)),
        // Per-row peak memory beside it; `figures diff` does not read
        // it (resident size depends on the allocator and the box).
        ("peak_rss_mb", per_row(|r| r.peak_rss_mb)),
    ];
    if let Some(n) = allocs_per_round {
        // Steady-state heap allocations per round on the 256-node
        // probe — exact on netsim, so `figures diff` gates it with no
        // noise floor.
        meta.push(("allocs_per_round", n.to_string()));
    }
    let mut out = Output::default();
    out.file(
        "fig_loss_latency.json",
        summary_json("fig_loss_latency", &meta, &entries),
    );

    // Regression gate: the protocol must recover everywhere at <= 10%
    // loss. Only the plain netsim kill scenario at the pinned 1k scale
    // is gated — an explicit `--partition-rounds`, a wall-clock
    // substrate (scheduling-sensitive runs), or the scale sweep (whose
    // larger grids legitimately need more than the fixed tail budget)
    // makes the run a diagnostic, not a baseline.
    if sweep_nodes > 0 {
        println!("(recovery gate skipped: --sweep-nodes rows are a scale diagnostic)");
    } else if plan.partition_rounds > 0 {
        println!("(recovery gate skipped: custom partition scenario)");
    } else if substrate != SubstrateKind::Netsim {
        println!("(recovery gate skipped: gate is pinned on the deterministic netsim substrate)");
    } else {
        let failed: Vec<&SweepRow> = sweep
            .iter()
            .filter(|r| r.loss <= 0.10 && r.summary.recovered_runs() < r.summary.runs)
            .collect();
        if failed.is_empty() {
            println!("OK: recovery holds at every drop rate <= 10%");
        } else {
            out.fail(gate_failure_report(&failed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unrecovered_row(label: &str, nodes: usize, loss: f64, runs: usize) -> SweepRow {
        let mut summary = ExperimentSummary::default();
        summary.runs = runs;
        SweepRow {
            label: label.to_string(),
            nodes,
            loss,
            summary,
            wall_secs: 1.0,
            peak_rss_mb: 1.0,
        }
    }

    #[test]
    fn gate_failure_report_names_size_loss_and_observed_rounds() {
        let a = unrecovered_row("loss=0.1", 1000, 0.10, 3);
        let b = unrecovered_row("n=6400", 6400, 0.05, 1);
        let report = gate_failure_report(&[&a, &b]);
        assert!(report.starts_with("recovery gate"));
        assert!(report.contains("tripped on 2 sweep row(s)"));
        assert!(
            report.contains("loss=0.1: 1000 nodes at 10% loss — 0/3 runs recovered"),
            "missing per-row size/loss/ratio detail:\n{report}"
        );
        assert!(
            report.contains(&format!("no run reshaped within {TAIL_ROUNDS} tail rounds")),
            "missing observed-rounds detail:\n{report}"
        );
        assert!(report.contains("n=6400: 6400 nodes at 5% loss — 0/1 runs recovered"));
    }

    #[test]
    fn gate_failure_report_shows_partial_recovery_means() {
        // A row where some runs reshaped: the mean must be printed so the
        // report says how close the gate came.
        let mut row = unrecovered_row("loss=0.05", 1000, 0.05, 2);
        row.summary.reshaping_rounds = vec![Some(41), None];
        let report = gate_failure_report(&[&row]);
        assert!(
            report.contains("1/2 runs recovered, mean reshaping 41.0 rounds"),
            "partial recovery must report the observed mean:\n{report}"
        );
    }
}
