//! Fault-tolerance integration tests beyond the paper's single-blast
//! scenario: repeated catastrophes, continuous churn, and combined
//! churn + regional failure.

use polystyrene_repro::prelude::*;

fn engine(cols: usize, rows: usize, k: usize, seed: u64) -> Engine<Torus2> {
    let mut cfg = SubstrateConfig::default();
    cfg.area = (cols * rows) as f64;
    cfg.seed = seed;
    cfg.poly.replication = k;
    Engine::new(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        cfg,
    )
}

#[test]
fn survives_two_successive_catastrophes() {
    // Kill the right half, heal, then kill the (original) top half of the
    // survivors' region. 75 % of the founding fleet ends up dead.
    let mut e = engine(16, 16, 6, 1);
    e.run(15);
    e.fail_original_region(&shapes::in_right_half(16.0));
    e.run(20);
    let after_first = *e.history().last().unwrap();
    assert!(after_first.homogeneity < after_first.reference_homogeneity);

    e.fail_original_region(&|p: &[f64; 2]| p[1] >= 8.0);
    assert_eq!(e.alive_count(), 64);
    e.run(30);
    let after_second = *e.history().last().unwrap();
    assert!(
        after_second.homogeneity < 1.5 * after_second.reference_homogeneity,
        "second catastrophe not absorbed: {} vs H {}",
        after_second.homogeneity,
        after_second.reference_homogeneity
    );
    // K=6 over two 50% blasts: most points still alive.
    assert!(after_second.surviving_points > 0.85);
}

#[test]
fn rides_out_continuous_churn() {
    let mut e = engine(16, 8, 4, 2);
    e.run(12);
    // 5 % of the fleet dies every 3 rounds for 10 waves (~40 % attrition).
    for _ in 0..10 {
        e.fail_random_fraction(0.05);
        e.run(3);
    }
    e.run(10);
    let m = *e.history().last().unwrap();
    assert!(m.alive_nodes < 100 && m.alive_nodes > 60);
    assert!(
        m.homogeneity < 1.3 * m.reference_homogeneity,
        "churn broke the shape: {} vs H {}",
        m.homogeneity,
        m.reference_homogeneity
    );
    // Ten compounding 5 % waves with only 3 rounds of re-replication in
    // between lose a few percent of points per wave tail; ~0.85+ survival
    // is the expected regime for K = 4 (a single 50 % blast keeps ~0.97).
    assert!(
        m.surviving_points > 0.82,
        "churn lost points: {}",
        m.surviving_points
    );
}

#[test]
fn churn_then_regional_blast() {
    let mut e = engine(16, 8, 6, 3);
    e.run(12);
    e.fail_random_fraction(0.2);
    e.run(6);
    e.fail_original_region(&shapes::in_right_half(16.0));
    e.run(25);
    let m = *e.history().last().unwrap();
    assert!(
        m.homogeneity < 1.3 * m.reference_homogeneity,
        "combined failure not absorbed: {} vs H {}",
        m.homogeneity,
        m.reference_homogeneity
    );
}

#[test]
fn single_survivor_holds_the_whole_shape_memory() {
    // Extreme case: kill everyone except one column. The survivors'
    // ghosts must carry a large share of the shape.
    let mut e = engine(8, 4, 8, 4);
    e.run(15);
    e.fail_original_region(&|p: &[f64; 2]| p[0] >= 1.0);
    assert_eq!(e.alive_count(), 4);
    e.run(20);
    let m = *e.history().last().unwrap();
    // With K=8 and only 4 survivors, each point needed one of its 9
    // copies to land on those 4 nodes; expect a meaningful fraction.
    assert!(
        m.surviving_points > 0.5,
        "too little of the shape survived: {}",
        m.surviving_points
    );
    // Every surviving point has been reactivated into someone's guests.
    let guests_total: usize = e
        .alive_ids()
        .iter()
        .map(|&id| e.poly_state(id).unwrap().guests.len())
        .sum();
    assert!(guests_total as f64 >= 32.0 * m.surviving_points - 1.0);
}

#[test]
fn evolving_shape_is_tracked() {
    // Paper footnote 1: the target shape may keep evolving. Shift the
    // whole torus shape by a quarter turn and verify nodes follow.
    let mut e = engine(16, 8, 4, 5);
    e.run(15);
    assert!(e.compute_metrics().homogeneity < 0.1);
    let space = *e.space();
    e.morph_shape(|p: &[f64; 2]| space.normalize([p[0] + 4.0, p[1]]));
    // Immediately after the morph, published positions lag the points...
    let lag = e.compute_metrics().homogeneity;
    assert!(lag < 1e-9 + 4.0 + 1e-9, "morph moved points at most 4 away");
    // ...but projection re-aligns them the very next round.
    e.run(3);
    let m = *e.history().last().unwrap();
    assert!(
        m.homogeneity < 0.1,
        "nodes failed to follow the morphed shape: {}",
        m.homogeneity
    );
}
