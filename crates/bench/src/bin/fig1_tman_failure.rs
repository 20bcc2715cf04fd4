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
//! cargo run --release -p polystyrene-bench --bin fig1_tman_failure -- \
//!     --cols 80 --rows 40
//! cargo run --release -p polystyrene-bench --bin fig1_tman_failure -- \
//!     --cols 16 --rows 8 --substrate cluster
//! ```

use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::{run_summary, CommonArgs};
use polystyrene_lab::{build_engine, run_experiment, LabConfig};
use polystyrene_protocol::{PaperScenario, Scenario, ScenarioEvent};
use polystyrene_sim::prelude::*;
use polystyrene_space::torus::Torus2;
use std::sync::Arc;

fn main() {
    let args = CommonArgs::parse(CommonArgs {
        cols: 40,
        rows: 20,
        ..Default::default()
    });
    let paper = args.paper_scenario();
    let (w, h) = paper.extents();

    // ------------------------------------------------------------------
    // Panels a-c: the T-Man-only baseline, engine-rendered (the density
    // snapshots need engine internals), driven segment by segment
    // through the one experiment driver.
    // ------------------------------------------------------------------
    let mut cfg = LabConfig::default();
    cfg.area = paper.area();
    cfg.seed = args.seed;
    cfg.tman_only = true;
    let mut engine = build_engine(Torus2::new(w, h), paper.shape(), &cfg);

    let cells_x = args.cols.min(72);
    let cells_y = args.rows.min(24);
    let dump = |engine: &Engine<Torus2>, label: &str, out: &std::path::Path| {
        let snap = Snapshot::capture(engine, 4);
        println!(
            "--- Fig. 1{label} (round {}, {} alive) ---",
            snap.round,
            snap.positions.len()
        );
        println!("{}", snap.render_density(w, h, cells_x, cells_y));
        snap.write_positions_csv(out.join(format!("fig1{label}.csv")))
            .expect("failed to write CSV");
    };

    dump(&engine, "a_round0", &args.out);
    run_experiment(&mut engine, &Scenario::new(paper.failure_round));
    dump(&engine, "b_converged", &args.out);
    let kill_script: Scenario<[f64; 2]> = Scenario::new(20) // T-Man heals links in ~20 rounds
        .at(
            0,
            ScenarioEvent::FailOriginalRegion(Arc::new(move |p: &[f64; 2]| p[0] >= w / 2.0)),
        );
    run_experiment(&mut engine, &kill_script);
    dump(&engine, "c_after_failure", &args.out);

    let m = engine.history().last().unwrap();
    println!(
        "T-Man healed its links (proximity {:.2}) but the shape is lost:\n\
         homogeneity {:.2} vs reference {:.2} — the paper reports the same\n\
         plateau (5.25 for the 80×40 torus).",
        m.proximity, m.homogeneity, m.reference_homogeneity
    );
    println!("CSV point clouds written to {}", args.out.display());

    // ------------------------------------------------------------------
    // The contrast panel: the identical failure with the full stack, on
    // whatever substrate was asked for.
    // ------------------------------------------------------------------
    let reshaping_only =
        PaperScenario::reshaping_only(args.cols, args.rows, paper.failure_round, 40);
    let summary = run_summary(
        args.substrate,
        &reshaping_only,
        &args.lab_config(SplitStrategy::Advanced),
        1,
    );
    match summary.mean_reshaping_rounds() {
        Some(rounds) => println!(
            "\nFull Polystyrene stack on {}: same failure, shape recovered in {rounds:.0} rounds\n\
             (K={}) — the contrast the paper's Fig. 1 motivates.",
            args.substrate, args.k
        ),
        None => println!(
            "\nFull Polystyrene stack on {}: did NOT recover within {} rounds — unexpected;\n\
             inspect the configuration.",
            args.substrate,
            reshaping_only.total_rounds - paper.failure_round
        ),
    }
}
