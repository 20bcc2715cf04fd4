//! **TCP loopback benchmark** (beyond the paper) — the reproduction's
//! numbers off a real network stack: the catastrophic-failure scenario
//! at ≥ 256 socket-connected nodes on localhost, with the in-process
//! runtime as the baseline the wire must not degrade.
//!
//! Both deployments run the identical node loop (`NodeRuntime` behind
//! its fabric seam) with identical protocol parameters, driven by the
//! *same* scenario script through the *same* unified experiment driver
//! (`polystyrene-lab`); the only difference is the fabric — in-process
//! mailboxes vs length-framed codec bytes over cached TCP connections.
//! The figure measures reshaping denominated in protocol ticks from the
//! kill (wall-clock kill hiccups can't distort it), plus frames/sec
//! over loopback, and **gates** on the measured deployment reshaping
//! within 2× of the in-process ticks: serialization, framing and socket
//! IO may cost wall-clock time, but they must not cost *protocol*
//! rounds. `--substrate` swaps the measured side (default: tcp), so the
//! same harness compares any substrate against the in-process baseline.
//!
//! The default 50 ms tick is sized for modest CI hardware: at 256 nodes
//! a shorter tick saturates small core counts with connection churn and
//! stretches rounds anyway (the node loop's fixed-delay pacing), without
//! changing the round-denominated result the gate checks.
//!
//! ```sh
//! figures fig_tcp_loopback --cols 16 --rows 16 --tick-ms 50
//! ```

use crate::{lab_config, Args, Output};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::{
    build_substrate, json_f64, run_experiment, summary_json, ExperimentSummary, LiveSubstrate,
    Series, SubstrateKind,
};
use polystyrene_protocol::PaperScenario;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use polystyrene_transport::TcpCluster;
use std::time::{Duration, Instant};

/// Rounds of convergence before the catastrophic failure.
const FAILURE_ROUND: u32 = 15;
/// Observation rounds after the failure.
const TAIL_ROUNDS: u32 = 60;

/// One deployment's aggregate plus the transport counters the unified
/// record deliberately does not carry.
struct SubstrateResult {
    label: String,
    summary: ExperimentSummary,
    /// Total wall clock across the runs.
    elapsed: Duration,
    /// Frames written to sockets, summed (TCP only; other fabrics have
    /// no frame counter — `None` keeps the JSON honest instead of
    /// faking 0).
    frames: Option<u64>,
}

/// The flags the loopback benchmark reads.
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
    "tick-ms",
    "out",
];

/// Runs the measured substrate against the in-process baseline.
pub fn run(args: &Args) -> Output {
    // 256 nodes — the loopback benchmark's base scale.
    let (cols, rows) = (args.get("cols", 16), args.get("rows", 16));
    let (runs, k, tick_ms) = (args.get("runs", 1), args.get("k", 4), args.get("tick-ms", 50));
    let measured_kind = args.get("substrate", SubstrateKind::Tcp);
    assert!(
        measured_kind != SubstrateKind::Cluster,
        "the in-process cluster IS the baseline: pick a different --substrate to measure"
    );
    let nodes = cols * rows;
    let paper = PaperScenario::reshaping_only(cols, rows, FAILURE_ROUND, TAIL_ROUNDS);
    let scenario = paper.script();
    let mut base = lab_config(k, SplitStrategy::Advanced, args.get("seed", 1), args.link(2, 1));
    base.tick = Duration::from_millis(tick_ms);
    base.round_timeout = Duration::from_secs(30);
    println!(
        "{measured_kind} vs in-process: {nodes} nodes, K={k}, {tick_ms} ms ticks, \
         failure at round {FAILURE_ROUND}, observed {TAIL_ROUNDS} rounds\n",
    );

    let mut results = Vec::new();
    for kind in [SubstrateKind::Cluster, measured_kind] {
        let started = Instant::now();
        let mut summary = ExperimentSummary::default();
        let mut frames = (kind == SubstrateKind::Tcp).then_some(0u64);
        for run in 0..runs {
            let mut cfg = base;
            cfg.seed = base.seed + run as u64;
            cfg.area = paper.area();
            let space = Torus2::new(cols as f64, rows as f64);
            let shape = shapes::torus_grid(cols, rows, 1.0);
            if kind == SubstrateKind::Tcp {
                // Built concretely so the socket frame counter stays
                // readable; the driving is the shared path regardless.
                let mut substrate = LiveSubstrate::new(
                    TcpCluster::spawn(space, shape, cfg),
                    cfg.seed,
                    cfg.round_timeout,
                );
                summary.push(&run_experiment(&mut substrate, &scenario));
                *frames.as_mut().unwrap() += substrate.cluster().sent_frames();
            } else {
                let mut substrate = build_substrate(kind, space, shape, &cfg);
                summary.push(&run_experiment(substrate.as_mut(), &scenario));
            }
        }
        results.push(SubstrateResult {
            label: if kind == SubstrateKind::Cluster {
                "in-process".to_string()
            } else {
                format!("{kind}-measured")
            },
            summary,
            elapsed: started.elapsed(),
            frames,
        });
    }

    for r in &results {
        let reshaping = match r.summary.mean_reshaping_ticks() {
            Some(m) => format!(
                "{m:.1} ticks ({}/{} runs)",
                r.summary.recovered_runs(),
                runs
            ),
            None => "never".to_string(),
        };
        let throughput = match r.frames {
            Some(n) => format!(", {n} frames ({:.0}/s)", n as f64 / r.elapsed.as_secs_f64()),
            None => String::new(),
        };
        let last = |s| r.summary[s].last().map_or(f64::NAN, |v| v.mean());
        let (final_h, final_survival) = (last(Series::Homogeneity), last(Series::SurvivingPoints));
        println!(
            "{:>16}: reshaping {reshaping}, final homogeneity {final_h:.3}, survival {:.1}%, \
             {:.1} s wall{throughput}",
            r.label,
            final_survival * 100.0,
            r.elapsed.as_secs_f64(),
        );
    }

    let entries: Vec<(String, &ExperimentSummary)> = results
        .iter()
        .map(|r| (r.label.clone(), &r.summary))
        .collect();
    let mut meta = vec![
        ("nodes", nodes.to_string()),
        ("k", k.to_string()),
        ("tick_ms", tick_ms.to_string()),
        ("runs", runs.to_string()),
        ("failure_round", FAILURE_ROUND.to_string()),
        ("tail_rounds", TAIL_ROUNDS.to_string()),
    ];
    if let Some(r) = results.iter().find(|r| r.frames.is_some()) {
        let frames = r.frames.unwrap();
        meta.push(("frames", frames.to_string()));
        meta.push((
            "frames_per_sec",
            json_f64(frames as f64 / r.elapsed.as_secs_f64(), 0),
        ));
    }
    let mut out = Output::default();
    out.file(
        "fig_tcp_loopback.json",
        summary_json("fig_tcp_loopback", &meta, &entries),
    );

    // Regression gate: the wire may cost wall-clock, never protocol
    // rounds — mean measured reshaping must stay within 2× of the
    // in-process mean, plus a couple of ticks of integer-noise headroom
    // so a single-run CI invocation comparing small counts (observation
    // sampling quantizes to whole rounds) does not flap.
    let (Some(baseline), Some(measured)) = (
        results[0].summary.mean_reshaping_ticks(),
        results[1].summary.mean_reshaping_ticks(),
    ) else {
        out.fail("a deployment never reshaped".into());
        return out;
    };
    if results.iter().any(|r| r.summary.recovered_runs() < runs) {
        out.fail("not every run reshaped".into());
    } else if measured > baseline.max(1.0) * 2.0 + 2.0 {
        out.fail(format!(
            "{} reshaped in {measured:.1} ticks vs {baseline:.1} in-process (> 2x)",
            results[1].label
        ));
    } else {
        println!(
            "OK: {} reshaping within 2x of in-process ({measured:.1} vs {baseline:.1} ticks)",
            results[1].label
        );
    }
    out
}
