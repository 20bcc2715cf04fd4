//! Quickstart: the paper's headline result in ~30 lines.
//!
//! Build a torus overlay, kill half of it in one correlated blow, and
//! watch Polystyrene re-form the full torus within a few gossip rounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use polystyrene_repro::prelude::*;

fn main() {
    // A 40×20 torus: 800 nodes, each founding one data point of the shape.
    let (cols, rows) = (40, 20);
    let mut config = EngineConfig::default();
    config.area = (cols * rows) as f64;
    config.poly.replication = 4;
    let mut engine = Engine::new(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        config,
    );

    // Phase 1: let T-Man converge while Polystyrene replicates.
    engine.run(20);
    let m = engine.compute_metrics();
    println!(
        "converged: proximity {:.2}, homogeneity {:.3}",
        m.proximity, m.homogeneity
    );

    // Phase 2: a datacenter hosting the right half of the torus dies.
    let killed = engine.fail_original_region(&shapes::in_right_half(cols as f64));
    println!(
        "catastrophe: {} of {} nodes crashed simultaneously",
        killed.len(),
        cols * rows
    );

    // Watch the survivors re-adopt the dead half's data points and migrate.
    for _ in 0..12 {
        let m = engine.step();
        println!(
            "round {:>2}: homogeneity {:.3} (target < {:.3}), proximity {:.2}, {:.1} points/node",
            m.round, m.homogeneity, m.reference_homogeneity, m.proximity, m.points_per_node
        );
    }

    let final_metrics = engine.history().last().unwrap();
    let reshaped = final_metrics.homogeneity < final_metrics.reference_homogeneity;
    println!(
        "\nshape {} — {:.1}% of the original data points survived",
        if reshaped {
            "RE-FORMED"
        } else {
            "still degraded"
        },
        final_metrics.surviving_points * 100.0
    );
    assert!(reshaped, "the torus should have re-formed");
}
