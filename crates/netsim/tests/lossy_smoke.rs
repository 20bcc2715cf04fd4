//! CI smoke: a small network on a lossy, laggy fabric survives the
//! paper's catastrophic failure and reshapes — the claim the netsim
//! substrate exists to test, at a size that runs in seconds.

use polystyrene_netsim::prelude::*;
use polystyrene_protocol::observe::reshaping_time;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;

const COLS: usize = 16;
const ROWS: usize = 8;

fn lossy_config(seed: u64, loss: f64) -> NetSimConfig {
    let mut cfg = NetSimConfig::default();
    cfg.area = (COLS * ROWS) as f64;
    cfg.seed = seed;
    cfg.tman.view_cap = 20;
    cfg.tman.m = 8;
    cfg.link = LinkProfile {
        latency: 2,
        jitter: 1,
        loss,
    };
    cfg
}

#[test]
fn recovers_from_half_torus_failure_under_ten_percent_loss() {
    let mut sim = NetSim::new(
        Torus2::new(COLS as f64, ROWS as f64),
        shapes::torus_grid(COLS, ROWS, 1.0),
        lossy_config(42, 0.10),
    );
    sim.run(20);
    let killed = sim.fail_original_region(&shapes::in_right_half(COLS as f64));
    assert_eq!(killed.len(), COLS * ROWS / 2);
    sim.run(40);
    let reshaping = reshaping_time(sim.history(), 20);
    assert!(
        reshaping.is_some(),
        "no recovery under 10% loss in 40 rounds (final homogeneity {} vs reference {})",
        sim.history().last().unwrap().homogeneity,
        sim.history().last().unwrap().reference_homogeneity
    );
    let last = sim.history().last().unwrap();
    assert!(
        last.surviving_points > 0.85,
        "too many points lost under 10% loss: {}",
        last.surviving_points
    );
    assert!(
        last.dropped_messages > 0,
        "a 10% lossy fabric that dropped nothing is not lossy"
    );
}

#[test]
fn lossy_runs_replay_bit_identically() {
    let run = |seed: u64| {
        let mut sim = NetSim::new(
            Torus2::new(COLS as f64, ROWS as f64),
            shapes::torus_grid(COLS, ROWS, 1.0),
            lossy_config(seed, 0.10),
        );
        sim.run(10);
        sim.fail_original_region(&shapes::in_right_half(COLS as f64));
        sim.run(10);
        sim.history().to_vec()
    };
    assert_eq!(run(7), run(7), "same seed must replay bit-identically");
    assert_ne!(run(7), run(8), "different seeds must diverge");
}
