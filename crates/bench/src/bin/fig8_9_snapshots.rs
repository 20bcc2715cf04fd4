//! **Figures 8 & 9** — visual repair and reinjection snapshots.
//!
//! Fig. 8: Polystyrene (K = `--k`, default 4) two rounds after the
//! half-torus failure (repair started) and eight rounds after (repair
//! complete). Fig. 9: the overlay 25 rounds after fresh nodes are
//! re-injected, under T-Man alone vs under Polystyrene. Engine only
//! (the snapshots read engine internals).
//!
//! ```sh
//! cargo run --release -p polystyrene-bench --bin fig8_9_snapshots -- \
//!     --cols 80 --rows 40
//! ```

use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::CommonArgs;
use polystyrene_lab::build_engine;
use polystyrene_sim::prelude::*;
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;

fn main() {
    let args = CommonArgs::parse_engine_only(CommonArgs {
        cols: 40,
        rows: 20,
        ..Default::default()
    });
    let paper = args.paper_scenario();
    let (w, h) = paper.extents();
    let cells_x = args.cols.min(72);
    let cells_y = args.rows.min(24);

    let dump = |engine: &Engine<Torus2>, label: &str| {
        let snap = Snapshot::capture(engine, 4);
        println!(
            "--- {label} (round {}, {} alive) ---",
            snap.round,
            snap.positions.len()
        );
        println!("{}", snap.render_density(w, h, cells_x, cells_y));
        snap.write_positions_csv(args.out.join(format!("{label}.csv")))
            .expect("failed to write CSV");
    };

    for (name, tman_only) in [
        (format!("Polystyrene_K{}", args.k), false),
        ("TMan".into(), true),
    ] {
        let mut cfg = args.lab_config(SplitStrategy::Advanced);
        cfg.area = paper.area();
        cfg.tman_only = tman_only;
        let mut engine = build_engine(Torus2::new(w, h), paper.shape(), &cfg);
        engine.run(paper.failure_round);
        engine.fail_original_region(&shapes::in_right_half(w));
        if !tman_only {
            engine.run(2);
            dump(&engine, &format!("fig8a_repair_started_{name}"));
            engine.run(6);
            dump(&engine, &format!("fig8b_repair_completed_{name}"));
            engine.run(paper.inject_round.unwrap_or(100) - paper.failure_round - 8);
        } else {
            engine.run(paper.inject_round.unwrap_or(100) - paper.failure_round);
        }
        engine.inject(&shapes::torus_grid_offset(args.cols / 2, args.rows, 1.0));
        engine.run(25);
        dump(&engine, &format!("fig9_reinjection_{name}"));
        let m = engine.history().last().unwrap();
        println!(
            "{name}: homogeneity {:.3} (reference {:.3})\n",
            m.homogeneity, m.reference_homogeneity
        );
    }
    println!("CSV point clouds written to {}", args.out.display());
    println!(
        "Expected shape (paper Figs. 8-9): under Polystyrene the hole left by\n\
         the failure fills within ~8 rounds, and after reinjection the torus is\n\
         uniformly dense (homogeneity ≈ 0.035 at paper scale); under T-Man the\n\
         re-injected nodes stay on their injection lattice and the original\n\
         half-torus stays torn (homogeneity ≈ 0.35)."
    );
}
