//! Golden bit-identity: the cycle engine's seeded histories are frozen.
//!
//! The fingerprints below were captured from the engine as it existed
//! *before* the protocol stack was extracted into `polystyrene-protocol`
//! (the monolithic `rps_phase`/`tman_phase`/… implementation), and have
//! survived every refactor since — including the move onto the unified
//! experiment plane: `run_experiment` must consume entropy in exactly
//! the order the engine's original scenario driver did. Any change to
//! the protocol core, the engine driver, the measurement pass, or the
//! lab driver that shifts a single RNG draw or reorders one exchange
//! shows up here.

use polystyrene_lab::run_experiment;
use polystyrene_sim::prelude::*;
use polystyrene_space::prelude::*;

/// FNV-1a over the bit patterns of every field of every round.
fn fingerprint(metrics: &[RoundMetrics]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x100000001b3);
    };
    for m in metrics {
        mix(m.round as u64);
        mix(m.alive_nodes as u64);
        for f in [
            m.proximity,
            m.homogeneity,
            m.reference_homogeneity,
            m.points_per_node,
            m.cost_units,
            m.tman_cost_share,
            m.surviving_points,
        ] {
            mix(f.to_bits());
        }
    }
    hash
}

fn paper_history(seed: u64) -> Vec<RoundMetrics> {
    let paper = PaperScenario {
        cols: 16,
        rows: 8,
        step: 1.0,
        failure_round: 12,
        inject_round: Some(30),
        total_rounds: 45,
    };
    let mut cfg = EngineConfig::default();
    cfg.area = paper.area();
    cfg.seed = seed;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let (w, h) = paper.extents();
    let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
    run_experiment(&mut engine, &paper.script());
    engine.history().to_vec()
}

#[test]
fn paper_scenario_history_is_bit_identical_to_pre_refactor_engine() {
    let history = paper_history(42);
    assert_eq!(history.len(), 45);
    // Spot values of the final round, for a readable diff when the
    // fingerprint trips.
    let last = history.last().unwrap();
    assert_eq!(last.alive_nodes, 128);
    assert_eq!(last.proximity.to_bits(), 0x3fef5477b008bb13);
    assert_eq!(last.homogeneity.to_bits(), 0x3fb8000000000000);
    assert_eq!(last.cost_units.to_bits(), 0x4050cc0000000000);
    assert_eq!(last.surviving_points.to_bits(), 0x3fef800000000000);
    assert_eq!(
        fingerprint(&history),
        0xbdb363b4cfacecbb,
        "seed-42 history diverged from the pre-refactor engine"
    );
}

#[test]
fn second_seed_history_is_bit_identical_too() {
    let history = paper_history(7);
    let last = history.last().unwrap();
    assert_eq!(last.alive_nodes, 128);
    assert_eq!(last.proximity.to_bits(), 0x3fef599ff40784a4);
    assert_eq!(last.homogeneity.to_bits(), 0x3fb6000000000000);
    assert_eq!(last.cost_units.to_bits(), 0x4051580000000000);
    assert_eq!(last.surviving_points.to_bits(), 0x3fef400000000000);
    assert_eq!(
        fingerprint(&history),
        0x442fe1e078e83cb8,
        "seed-7 history diverged from the pre-refactor engine"
    );
}
