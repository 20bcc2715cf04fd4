//! Convergence of the threaded runtime, promoted from the old
//! `probe_homogeneity` example into a real regression test: a live
//! cluster driven through an event-free shared [`Scenario`] on the
//! unified experiment plane must settle into the paper's steady state —
//! homogeneity near zero and stored points per node near `1 + K` —
//! instead of the unbounded guest duplication the mailbox-starvation
//! death spiral used to produce (points/node exploding past 100).
//!
//! Wall-clock caution: scheduler jitter can stretch a tick past the
//! heartbeat timeout, causing *false* suspicion → spurious recovery →
//! a transient replica spike (the legitimate dynamic of paper Fig. 7a,
//! drained by migration dedup). The assertions therefore gate on the
//! **minimum** over the tail window — a healthy cluster dips back to the
//! steady state between spikes, while a true death spiral grows
//! monotonically and can never pass — and on an 8 ms tick, which leaves
//! debug-build message handling headroom on a loaded CI box.

use polystyrene_lab::{build_substrate, run_experiment, LabConfig, SubstrateKind};
use polystyrene_protocol::Scenario;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use std::time::Duration;

#[test]
fn cluster_settles_at_one_plus_k_points_per_node() {
    let (cols, rows) = (8usize, 4usize);
    let k = 4;
    let mut cfg = LabConfig::default();
    cfg.area = (cols * rows) as f64;
    cfg.tick = Duration::from_millis(8);
    cfg.poly.replication = k;
    let mut substrate = build_substrate(
        SubstrateKind::Cluster,
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        &cfg,
    );

    // 60 event-free rounds through the unified experiment driver.
    let scenario: Scenario<[f64; 2]> = Scenario::new(60);
    let trace = run_experiment(substrate.as_mut(), &scenario);
    assert_eq!(trace.observations.len(), 60);

    // Nobody died, nothing was lost, and the cluster made progress.
    let last = trace.final_observation().unwrap();
    assert_eq!(last.alive_nodes, cols * rows);
    assert!(last.ticks >= 60, "cluster stalled at {} ticks", last.ticks);
    assert!(
        last.surviving_points >= 0.95,
        "points vanished: {}",
        last.surviving_points
    );

    // Steady state over the tail window (a single snapshot can catch
    // points mid-migration or a transient post-recovery replica spike).
    let tail = &trace.observations[30..];
    let best_homogeneity = tail
        .iter()
        .map(|o| o.homogeneity)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_homogeneity < 0.3,
        "homogeneity never settled: best {best_homogeneity}"
    );
    // Replication converged to ≈ 1 + K stored points per node…
    let best_points = tail
        .iter()
        .map(|o| o.points_per_node)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_points > 1.0 + k as f64 * 0.5,
        "replication never took hold: {best_points} points/node"
    );
    // …and never entered a death spiral: a runaway grows monotonically,
    // so even the window minimum would sit far above the steady state.
    assert!(
        best_points < 2.0 * (1 + k) as f64,
        "stored points ran away: window minimum {best_points} per node"
    );
}
