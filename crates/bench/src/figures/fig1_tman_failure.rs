//! **Figure 1** — catastrophic correlated failure under plain T-Man,
//! against the full stack's recovery.
//!
//! Reproduces the three panels of paper Fig. 1 on the cycle engine —
//! (a) the random initial overlay, (b) the converged torus, (c) the
//! broken shape after the right half crashes; T-Man heals links but the
//! torus is gone for good — then runs the *same* failure script with
//! the full Polystyrene stack on `--substrate` (default: the engine)
//! through the unified experiment driver, which recovers the shape the
//! baseline cannot. Both runs share one scenario value and one driver.
//!
//! ```sh
//! figures fig1_tman_failure --cols 80 --rows 40
//! figures fig1_tman_failure --cols 16 --rows 8 --substrate cluster
//! ```

use crate::snapshot::dump;
use crate::{lab_config, run_summary, Args, Output};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::{run_experiment, SubstrateKind};
use polystyrene_protocol::{region_ids, PaperScenario, Scenario, ScenarioEvent, SubstrateConfig};
use polystyrene_sim::engine::Engine;
use polystyrene_space::torus::Torus2;
use polystyrene_space::shapes;

/// The flags Fig. 1 reads: one run of each stack. `--k`, `--substrate`
/// and `--net-*` set up the full stack's contrast run.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "k",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "out",
];

/// Runs Fig. 1 and its contrast run.
pub fn run(args: &Args) -> Output {
    let (cols, rows, k, seed) = (
        args.get("cols", 40),
        args.get("rows", 20),
        args.get("k", 4),
        args.get("seed", 1),
    );
    let substrate = args.get("substrate", SubstrateKind::Engine);
    let link = args.link(2, 1);
    let paper = PaperScenario {
        cols,
        rows,
        ..Default::default()
    };
    let (w, h) = paper.extents();
    let mut out = Output::default();

    // ------------------------------------------------------------------
    // Panels a-c: the T-Man-only baseline, engine-rendered (the density
    // snapshots need engine internals), driven segment by segment
    // through the one experiment driver.
    // ------------------------------------------------------------------
    let mut cfg = SubstrateConfig::default();
    cfg.area = paper.area();
    cfg.seed = seed;
    let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
    engine.disable_polystyrene();
    let panel = |engine: &_, label: &str, out: &mut Output| {
        dump(engine, &paper, &format!("Fig. 1{label}"), &format!("fig1{label}"), out);
    };

    panel(&engine, "a_round0", &mut out);
    run_experiment(&mut engine, &Scenario::new(paper.failure_round));
    panel(&engine, "b_converged", &mut out);
    let dead_half = region_ids(&paper.shape(), shapes::in_right_half(w));
    // T-Man heals links in ~20 rounds.
    let kill_script = Scenario::new(20).at(0, ScenarioEvent::FailNodes(dead_half));
    run_experiment(&mut engine, &kill_script);
    panel(&engine, "c_after_failure", &mut out);

    let m = engine.history().last().unwrap();
    println!(
        "T-Man healed its links (proximity {:.2}) but the shape is lost:\n\
         homogeneity {:.2} vs reference {:.2} — the paper reports the same\n\
         plateau (5.25 for the 80×40 torus).",
        m.proximity, m.homogeneity, m.reference_homogeneity
    );

    // ------------------------------------------------------------------
    // The contrast panel: the identical failure with the full stack, on
    // whatever substrate was asked for.
    // ------------------------------------------------------------------
    let reshaping_only = PaperScenario::reshaping_only(cols, rows, paper.failure_round, 40);
    let summary = run_summary(
        substrate,
        &reshaping_only,
        &lab_config(k, SplitStrategy::Advanced, seed, link),
        1,
    );
    match summary.mean_reshaping_rounds() {
        Some(rounds) => println!(
            "\nFull Polystyrene stack on {substrate}: same failure, shape recovered in {rounds:.0} rounds\n\
             (K={k}) — the contrast the paper's Fig. 1 motivates."
        ),
        None => println!(
            "\nFull Polystyrene stack on {substrate}: did NOT recover within {} rounds — unexpected;\n\
             inspect the configuration.",
            reshaping_only.total_rounds - paper.failure_round
        ),
    }
    out
}
