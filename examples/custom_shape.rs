//! Custom shapes and custom metric spaces.
//!
//! Polystyrene's only requirement on the data space is a distance function
//! (paper Sec. III-A). This example runs the *same* engine on (a) a 1-D
//! modular ring — the Chord/Pastry shape — and (b) an irregular two-blob
//! shape in the Euclidean plane, and verifies shape preservation through a
//! half-fleet catastrophe on both.
//!
//! ```sh
//! cargo run --release --example custom_shape
//! ```

use polystyrene_repro::prelude::*;

fn ring_demo() {
    println!("=== ring overlay (1-D modular space) ===");
    let n = 256;
    let circumference = 256.0;
    let mut config = SubstrateConfig::default();
    // Reference homogeneity is 2-D; for the ring we track raw homogeneity.
    config.area = circumference;
    config.poly.replication = 4;
    let shape = shapes::ring_points(n, circumference);
    let mut engine = Engine::new(Ring::new(circumference), shape, config);

    engine.run(15);
    let before = engine.compute_metrics().homogeneity;
    // One contiguous arc of the ring — half the key space — goes down.
    engine.kill_region(&|&p| p >= circumference / 2.0);
    let at_failure = engine.compute_metrics().homogeneity;
    engine.run(20);
    let after = engine.history().last().unwrap().homogeneity;
    println!("homogeneity: converged {before:.3} → failure {at_failure:.3} → healed {after:.3}");
    assert!(after < at_failure / 4.0, "ring failed to heal: {after:.3}");
}

fn blob_demo() {
    println!("=== irregular shape (two Euclidean blobs) ===");
    // An hourglass of two circles joined by a line — nothing grid-like.
    let mut shape = shapes::circle_points(120, 10.0);
    shape.extend(
        shapes::circle_points(120, 10.0)
            .into_iter()
            .map(|[x, y]| [x + 40.0, y]),
    );
    shape.extend(shapes::line_points(60, [10.0, 0.0], [30.0, 0.0]));
    let n = shape.len();
    let mut config = SubstrateConfig::default();
    config.area = 600.0; // rough footprint, only used for reporting
    config.poly.replication = 6;
    let mut engine = Engine::new(Euclidean2, shape, config);

    engine.run(15);
    // The right blob's hosting site dies entirely.
    let killed = engine.kill_region(&|p| p[0] >= 20.0);
    println!("{killed} of {n} nodes crashed", killed = killed.len());
    let at_failure = engine.compute_metrics().homogeneity;
    engine.run(25);
    let after = engine.history().last().unwrap().homogeneity;
    println!("homogeneity: failure {at_failure:.3} → healed {after:.3}");
    assert!(
        after < at_failure / 3.0,
        "survivors failed to re-cover the right blob: {after:.3}"
    );
}

fn main() {
    ring_demo();
    println!();
    blob_demo();
    println!("\nthe same protocol preserved both shapes — no code changed, only the metric space");
}
