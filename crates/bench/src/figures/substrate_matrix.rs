//! **Substrate matrix** — the experiment plane's anchor artifact: one
//! shared failure script (converge → kill the right half-torus → churn
//! → re-inject) executed on *every* execution substrate through the one
//! `Substrate` seam and the one driver, asserting that the population
//! arithmetic is identical across the whole matrix and that every
//! substrate recovers the shape.
//!
//! This is the CI smoke step for the paper's core claim: the
//! self-organizing shape survives the same failure scenario regardless
//! of how messages move. Emits one merged `substrate_matrix.json`
//! (uploaded as `BENCH_matrix.json`) with one entry per substrate, and
//! fails on any disagreement or non-recovery.
//!
//! ```sh
//! figures substrate_matrix
//! figures substrate_matrix --substrate tcp
//! ```

use crate::{Args, Output};
use polystyrene_lab::{
    build_substrate, json_f64, json_object, json_strings, run_experiment, summary_json,
    ExperimentSummary, ExperimentTrace, SubstrateKind,
};
use polystyrene_protocol::{region_ids, Scenario, ScenarioEvent, SubstrateConfig};
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use std::time::Duration;

/// Converge 20 rounds → kill the right half-torus → 2 rounds of 5%
/// churn → re-inject `cols/2 × rows` fresh nodes → observe to round 55.
fn shared_scenario(cols: usize, rows: usize) -> Scenario<[f64; 2]> {
    Scenario::new(55)
        .at(
            20,
            ScenarioEvent::FailNodes(region_ids(
                &shapes::torus_grid(cols, rows, 1.0),
                shapes::in_right_half(cols as f64),
            )),
        )
        .at(
            25,
            ScenarioEvent::Churn {
                rate: 0.05,
                rounds: 2,
            },
        )
        .at(
            35,
            ScenarioEvent::Inject(shapes::torus_grid_offset(cols / 2, rows, 1.0)),
        )
}

/// The flags the matrix reads; without `--substrate` it runs all four.
pub const FLAGS: &[&str] = &["cols", "rows", "k", "seed", "substrate", "out"];

/// Runs the matrix.
pub fn run(args: &Args) -> Output {
    let (cols, rows, k) = (args.get("cols", 8), args.get("rows", 4), args.get("k", 4));
    let scenario = shared_scenario(cols, rows);
    let kinds: Vec<SubstrateKind> = if args.given("substrate") {
        vec![args.get("substrate", SubstrateKind::Engine)]
    } else {
        SubstrateKind::ALL.to_vec()
    };
    println!(
        "Substrate matrix: {}×{} torus, the shared failure+churn+inject script on {:?}\n",
        cols,
        rows,
        kinds.iter().map(|k| k.name()).collect::<Vec<_>>()
    );

    let mut cfg = SubstrateConfig::default();
    cfg.area = (cols * rows) as f64;
    cfg.seed = args.get::<u64>("seed", 1) + 10; // seed 11 = the historical equivalence anchor
    cfg.tman.view_cap = 20;
    cfg.tman.m = 8;
    cfg.poly.replication = k;
    // 8 ms leaves debug-build message handling headroom per round on a
    // loaded CI box for the wall-clock substrates.
    cfg.tick = Duration::from_millis(8);

    let mut out = Output::default();
    let mut reference_populations: Option<Vec<usize>> = None;
    let mut summaries: Vec<(String, ExperimentSummary)> = Vec::new();
    let mut walls: Vec<(String, f64)> = Vec::new();
    for &kind in &kinds {
        let started = std::time::Instant::now();
        let mut substrate = build_substrate(
            kind,
            Torus2::new(cols as f64, rows as f64),
            shapes::torus_grid(cols, rows, 1.0),
            &cfg,
        );
        let trace: ExperimentTrace = run_experiment(substrate.as_mut(), &scenario);
        drop(substrate); // live clusters shut down here, before the next spawn
        let populations = trace.populations();
        match &reference_populations {
            None => reference_populations = Some(populations.clone()),
            Some(reference) => {
                if *reference != populations {
                    out.fail(format!(
                        "{kind}: population arithmetic diverged from {}'s",
                        kinds[0]
                    ));
                }
            }
        }
        // Recovery: the deterministic substrates must end below the
        // reference bound; the wall-clock ones are snapshot-noisy
        // (points mid-migration), so their bar is the tail minimum
        // against a loosened threshold.
        let recovered = match kind {
            SubstrateKind::Engine | SubstrateKind::Netsim => {
                let last = trace.final_observation().expect("ran");
                last.homogeneity < last.reference_homogeneity
            }
            SubstrateKind::Cluster | SubstrateKind::Tcp => trace
                .observations
                .iter()
                .skip(40)
                .any(|o| o.homogeneity < o.reference_homogeneity.max(1.0)),
        };
        if !recovered {
            out.fail(format!("{kind}: shape did not recover"));
        }
        let last = trace.final_observation().expect("ran");
        if last.surviving_points <= 0.6 {
            out.fail(format!(
                "{kind}: lost too many points ({:.2})",
                last.surviving_points
            ));
        }
        println!(
            "{kind:>8}: final alive {} (expect {}), homogeneity {:.3} (ref {:.3}), \
             survival {:.1}%, {:.1}s",
            last.alive_nodes,
            reference_populations.as_ref().unwrap().last().unwrap(),
            last.homogeneity,
            last.reference_homogeneity,
            last.surviving_points * 100.0,
            started.elapsed().as_secs_f64(),
        );
        let mut summary = ExperimentSummary::default();
        summary.push(&trace);
        summaries.push((kind.name().to_string(), summary));
        walls.push((kind.name().to_string(), started.elapsed().as_secs_f64()));
    }

    let entries: Vec<(String, &ExperimentSummary)> = summaries
        .iter()
        .map(|(label, s)| (label.clone(), s))
        .collect();
    let json = summary_json(
        "substrate_matrix",
        &[
            ("nodes", (cols * rows).to_string()),
            ("k", k.to_string()),
            ("rounds", 55.to_string()),
            ("substrates", json_strings(&kinds)),
            // Per-substrate wall-clock, for the baseline differ.
            (
                "wall_secs",
                json_object(walls.iter().map(|(label, secs)| (label, json_f64(*secs, 3)))),
            ),
        ],
        &entries,
    );
    out.file("substrate_matrix.json", json);
    if out.failures().is_empty() {
        println!(
            "OK: identical population arithmetic and shape recovery across {} substrate(s)",
            kinds.len()
        );
    }
    out
}
