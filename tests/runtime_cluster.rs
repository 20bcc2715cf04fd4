//! Integration tests of the threaded deployment: the full stack over
//! the worker pool, channels and heartbeat failure detection.

use polystyrene_repro::prelude::*;
use std::time::Duration;

fn config(k: usize) -> SubstrateConfig {
    let mut c = SubstrateConfig::default();
    c.seed = 1;
    c.tman.view_cap = 30;
    c.tman.m = 10;
    // 8 ms leaves debug-build message handling comfortable headroom per
    // round even on a loaded CI box; at 3 ms the protocol clock stretches
    // under contention and wall-clock assertions below get flaky.
    c.tick = Duration::from_millis(8);
    c.poly.replication = k;
    c
}

/// Lets every alive node run `ticks` more protocol rounds (at the 8 ms
/// tick, `ticks × 8` ms on an idle box, longer on a loaded one).
fn advance(cluster: &Cluster<Torus2>, ticks: u64) {
    let target = cluster.observe().ticks + ticks;
    assert!(
        cluster.await_ticks(target, Duration::from_secs(30)),
        "the cluster stalled"
    );
}

/// Best homogeneity observed until it drops below `threshold` or
/// `timeout` elapses.
///
/// A single wall-clock snapshot of an asynchronous cluster can catch
/// data points mid-migration (cloned into a request, not yet placed by
/// the reply), and exactly when convergence completes depends on
/// scheduling. The meaningful steady-state property is that the cluster
/// *settles* within a bounded window, not the value at one instant.
fn settled_homogeneity(cluster: &Cluster<Torus2>, threshold: f64, timeout: Duration) -> f64 {
    let deadline = std::time::Instant::now() + timeout;
    let mut best = f64::INFINITY;
    loop {
        best = best.min(cluster.observe().homogeneity);
        if best < threshold || std::time::Instant::now() > deadline {
            return best;
        }
        std::thread::sleep(Duration::from_millis(6));
    }
}

#[test]
fn full_lifecycle_failover_and_reinjection() {
    let (cols, rows) = (8, 4);
    let mut cluster = Cluster::<Torus2>::spawn(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        config(4),
    );
    assert!(cluster.await_ticks(15, Duration::from_secs(15)));
    let steady = cluster.observe();
    assert_eq!(steady.alive_nodes, 32);
    let settled = settled_homogeneity(&cluster, 0.2, Duration::from_secs(8));
    assert!(settled < 0.2, "homogeneity {settled}");
    assert!(
        steady.points_per_node > 3.5,
        "replication lagging: {}",
        steady.points_per_node
    );

    // Catastrophe: the right half dies mid-flight.
    let dead_half = region_ids(
        &shapes::torus_grid(cols, rows, 1.0),
        shapes::in_right_half(cols as f64),
    );
    assert_eq!(dead_half.len(), 16);
    assert!(dead_half.iter().all(|&id| cluster.kill(id)));
    advance(&cluster, 62);
    let healed = cluster.observe();
    assert_eq!(healed.alive_nodes, 16);
    assert!(
        healed.surviving_points > 0.80,
        "lost too many points: {}",
        healed.surviving_points
    );
    assert!(
        healed.homogeneity < 2.0,
        "homogeneity {}",
        healed.homogeneity
    );

    // Re-provision: fresh empty nodes join and absorb load.
    for pos in shapes::torus_grid_offset(cols / 2, rows, 1.0) {
        cluster.inject(pos);
    }
    advance(&cluster, 62);
    let grown = cluster.observe();
    assert_eq!(grown.alive_nodes, 32);
    assert!(
        grown.homogeneity <= healed.homogeneity + 0.3,
        "injection degraded coverage: {} vs {}",
        grown.homogeneity,
        healed.homogeneity
    );
    cluster.shutdown();
}

#[test]
fn heartbeat_detector_triggers_recovery_without_oracle() {
    // Unlike the simulator there is no ground-truth detector here: ghosts
    // must be reactivated purely from missed heartbeats.
    let mut cluster = Cluster::<Torus2>::spawn(
        Torus2::new(6.0, 4.0),
        shapes::torus_grid(6, 4, 1.0),
        config(6),
    );
    assert!(cluster.await_ticks(12, Duration::from_secs(15)));
    cluster.kill(NodeId::new(0));
    cluster.kill(NodeId::new(1));
    advance(&cluster, 50);
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, 22);
    // Points 0 and 1 must have been recovered by some backup holder.
    assert!(
        obs.surviving_points > 0.9,
        "recovery never happened: {}",
        obs.surviving_points
    );
    cluster.shutdown();
}

#[test]
fn sequential_kills_do_not_wedge_the_cluster() {
    let mut cluster = Cluster::<Torus2>::spawn(
        Torus2::new(6.0, 4.0),
        shapes::torus_grid(6, 4, 1.0),
        config(3),
    );
    assert!(cluster.await_ticks(8, Duration::from_secs(15)));
    for id in 0..8 {
        cluster.kill(NodeId::new(id));
        advance(&cluster, 5);
    }
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, 16);
    // Cluster still making progress.
    let before = cluster.observe().ticks;
    advance(&cluster, 25);
    assert!(cluster.observe().ticks > before, "cluster wedged");
    cluster.shutdown();
}
