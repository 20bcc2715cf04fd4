//! **Traffic figure** — query availability while the shape reshapes:
//! the traffic plane's anchor artifact. A seeded key/value workload
//! (`--traffic-rate` lookups per round over `--traffic-keys` keys,
//! `--read-fraction` reads) rides the paper's catastrophe scenario —
//! converge → kill the right half-torus → recover — on any execution
//! substrate, and the per-round served fraction is gated: the kill must
//! visibly dent availability, and the recovered shape must serve the
//! tail of the run at ≥99% (deterministic substrates) or ≥80%
//! (wall-clock substrates, whose round boundaries snapshot queries
//! mid-flight).
//!
//! Emits one merged `fig_traffic.json` (uploaded as
//! `BENCH_traffic.json`) with one entry per substrate, and fails when a
//! gate does.
//!
//! ```sh
//! figures fig_traffic
//! figures fig_traffic --substrate cluster
//! ```

use crate::{Args, Output};
use polystyrene_lab::{
    build_substrate, json_f64, json_object, json_strings, key_universe,
    run_experiment_with_traffic, summary_json, ExperimentSummary, LabConfig, Series, SubstrateKind,
    TrafficLoad,
};
use polystyrene_protocol::{Scenario, ScenarioEvent};
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use std::sync::Arc;
use std::time::Duration;

/// Scenario length in rounds.
const ROUNDS: u32 = 40;
/// The round the right half-torus dies.
const KILL_ROUND: u32 = 20;
/// Rounds right after the kill inspected for the availability dip.
const DIP_WINDOW: usize = 6;
/// Rounds at the end of the run that must be served near-perfectly.
const TAIL_ROUNDS: usize = 5;
/// Hop budget of every query.
const TTL: u32 = 16;

/// The flags the traffic figure reads; without `--substrate` it runs
/// the engine and netsim.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "runs",
    "k",
    "seed",
    "substrate",
    "traffic-rate",
    "traffic-keys",
    "read-fraction",
    "out",
];

/// Converge 20 rounds → kill the right half-torus → observe the served
/// fraction while the survivors reshape over the full space.
fn traffic_scenario(cols: usize) -> Scenario<[f64; 2]> {
    Scenario::new(ROUNDS).at(
        KILL_ROUND,
        ScenarioEvent::FailOriginalRegion(Arc::new(move |p: &[f64; 2]| p[0] >= cols as f64 / 2.0)),
    )
}

/// Runs the traffic figure.
pub fn run(args: &Args) -> Output {
    let (cols, rows, runs, k) = (
        args.get("cols", 8),
        args.get("rows", 4),
        args.get("runs", 3),
        args.get("k", 4),
    );
    let (traffic_rate, traffic_keys, read_fraction) = (
        args.get("traffic-rate", 16),
        args.traffic_keys(64),
        args.read_fraction(),
    );
    let base_seed: u64 = args.get("seed", 1);
    let scenario = traffic_scenario(cols);
    let keys = key_universe(traffic_keys, cols, rows);
    let kinds: Vec<SubstrateKind> = if args.given("substrate") {
        vec![args.get("substrate", SubstrateKind::Engine)]
    } else {
        vec![SubstrateKind::Engine, SubstrateKind::Netsim]
    };
    println!(
        "Traffic figure: {cols}×{rows} torus, {traffic_rate} queries/round over {traffic_keys} keys \
         (ttl {TTL}), right half killed at round {KILL_ROUND}, on {:?}\n",
        kinds.iter().map(|k| k.name()).collect::<Vec<_>>()
    );

    let mut cfg = LabConfig::default();
    cfg.area = (cols * rows) as f64;
    cfg.tman.view_cap = 20;
    cfg.tman.m = 8;
    cfg.poly.replication = k;
    cfg.tick = Duration::from_millis(8);

    let mut out = Output::default();
    let mut summaries: Vec<(String, ExperimentSummary)> = Vec::new();
    let mut walls: Vec<(String, f64)> = Vec::new();
    for &kind in &kinds {
        let started = std::time::Instant::now();
        let mut summary = ExperimentSummary::default();
        for run in 0..runs {
            let seed = base_seed + run as u64;
            cfg.seed = seed;
            let mut substrate = build_substrate(
                kind,
                Torus2::new(cols as f64, rows as f64),
                shapes::torus_grid(cols, rows, 1.0),
                &cfg,
            );
            let mut load = TrafficLoad::new(keys.clone(), traffic_rate, read_fraction, TTL, seed);
            let trace = run_experiment_with_traffic(substrate.as_mut(), &scenario, Some(&mut load));
            drop(substrate); // live clusters shut down here, before the next spawn
            summary.push(&trace);
        }

        // Availability trajectory over the run: converged plateau →
        // kill-round dip → recovered tail.
        let means = summary[Series::TrafficAvailability].means();
        let tail = means[means.len() - TAIL_ROUNDS..]
            .iter()
            .copied()
            .sum::<f64>()
            / TAIL_ROUNDS as f64;
        let dip = means[KILL_ROUND as usize..KILL_ROUND as usize + DIP_WINDOW]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        // The wall-clock substrates drain their counters against a live
        // snapshot: queries still in flight at the round boundary count
        // against the round they were offered in and resolve into a
        // later one, so their per-round served fraction sits a notch
        // below the deterministic substrates' even at steady state.
        let deterministic = matches!(kind, SubstrateKind::Engine | SubstrateKind::Netsim);
        let tail_floor = if deterministic { 0.99 } else { 0.80 };
        if tail < tail_floor {
            out.fail(format!(
                "{kind}: tail availability {tail:.4} below the {tail_floor:.2} recovery floor"
            ));
        }
        // The kill must be visible in the traffic plane: losing half the
        // address space cannot leave the served fraction intact. The
        // wall-clock substrates are exempt — their kill lands mid-tick
        // and the dent can fall between observation snapshots.
        if deterministic && dip > tail - 0.02 {
            out.fail(format!(
                "{kind}: no availability dip at the kill (min {dip:.4} vs tail {tail:.4})"
            ));
        }
        println!(
            "{kind:>8}: availability mean {:.4}, kill dip {:.4}, tail {:.4}, p99 latency {:.1} \
             hops, {:.1}s",
            summary.mean(Series::TrafficAvailability).unwrap_or(f64::NAN),
            dip,
            tail,
            summary[Series::TrafficP99]
                .last()
                .map_or(f64::NAN, |s| s.mean()),
            started.elapsed().as_secs_f64(),
        );
        summaries.push((kind.name().to_string(), summary));
        walls.push((kind.name().to_string(), started.elapsed().as_secs_f64()));
    }

    let entries: Vec<(String, &ExperimentSummary)> = summaries
        .iter()
        .map(|(label, s)| (label.clone(), s))
        .collect();
    let json = summary_json(
        "fig_traffic",
        &[
            ("nodes", (cols * rows).to_string()),
            ("k", k.to_string()),
            ("rounds", ROUNDS.to_string()),
            ("kill_round", KILL_ROUND.to_string()),
            ("runs", runs.to_string()),
            ("traffic_rate", traffic_rate.to_string()),
            ("traffic_keys", traffic_keys.to_string()),
            ("read_fraction", json_f64(read_fraction, 3)),
            ("ttl", TTL.to_string()),
            ("substrates", json_strings(&kinds)),
            // Per-substrate wall-clock, for the baseline differ.
            (
                "wall_secs",
                json_object(walls.iter().map(|(label, secs)| (label, json_f64(*secs, 3)))),
            ),
        ],
        &entries,
    );
    out.file("fig_traffic.json", json);
    if out.failures().is_empty() {
        println!(
            "OK: the workload collapses at the kill and is served again by the reshaped \
             substrate(s): {:?}",
            kinds.iter().map(|k| k.name()).collect::<Vec<_>>()
        );
    }
    out
}
