//! Elastic scaling: shrink under churn, then re-provision fresh capacity.
//!
//! Cloud deployments both lose and (re)gain resources: the paper's Phase 3
//! re-injects 1600 empty nodes after the catastrophe and shows Polystyrene
//! redistributing the shape across them (Fig. 9), which T-Man alone cannot
//! do. This example scales a torus down 50 % (random churn rather than a
//! single regional blast) and then doubles capacity back, watching the
//! shape follow the fleet.
//!
//! ```sh
//! cargo run --release --example elastic_scaling
//! ```

use polystyrene_repro::prelude::*;

fn main() {
    let (cols, rows) = (32, 16);
    let mut config = EngineConfig::default();
    config.area = (cols * rows) as f64;
    config.poly.replication = 4;
    let mut engine = Engine::new(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        config,
    );

    engine.run(20);
    println!(
        "steady state: {} nodes, homogeneity {:.3}",
        engine.alive_count(),
        engine.compute_metrics().homogeneity
    );

    // Scale-in: churn takes out half the fleet over five waves.
    for wave in 1..=5 {
        engine.fail_random_fraction(0.13);
        engine.run(4);
        let m = engine.history().last().unwrap();
        println!(
            "churn wave {wave}: {} nodes left, homogeneity {:.3} (H {:.3})",
            m.alive_nodes, m.homogeneity, m.reference_homogeneity
        );
    }
    engine.run(10);
    let shrunk = *engine.history().last().unwrap();
    assert!(
        shrunk.homogeneity < shrunk.reference_homogeneity,
        "the half-size fleet must still cover the full torus"
    );

    // Scale-out: re-provision a fresh batch of empty nodes.
    let fresh = engine.inject(&shapes::torus_grid_offset(cols, rows / 2, 1.0));
    println!("\nre-provisioned {} empty nodes", fresh.len());
    for _ in 0..15 {
        engine.step();
    }
    let grown = *engine.history().last().unwrap();
    println!(
        "after scale-out: {} nodes, homogeneity {:.3} (H {:.3}), {:.2} points/node",
        grown.alive_nodes, grown.homogeneity, grown.reference_homogeneity, grown.points_per_node
    );
    assert!(
        grown.homogeneity < shrunk.homogeneity,
        "denser fleet ⇒ finer coverage"
    );

    // The fresh nodes are not freeloading: most now host data points.
    let busy = fresh
        .iter()
        .filter(|&&id| {
            !engine
                .poly_state(id)
                .map(|s| s.guests.is_empty())
                .unwrap_or(true)
        })
        .count();
    println!("{busy}/{} fresh nodes acquired data points", fresh.len());
    assert!(
        busy * 2 > fresh.len(),
        "the shape must spread onto new capacity"
    );
}
