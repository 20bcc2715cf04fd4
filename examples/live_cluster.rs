//! A live threaded deployment: the paper's system model for real.
//!
//! Spawns the nodes over a pool of worker threads, gossiping over
//! channels with heartbeat failure detection, kills a third of the fleet mid-flight, and watches
//! the shape recover — no simulator, no synchronized rounds.
//!
//! ```sh
//! cargo run --release --example live_cluster
//! ```

use polystyrene_repro::prelude::*;
use std::time::Duration;

fn main() {
    let (cols, rows) = (9, 6);
    let mut config = RuntimeConfig::default();
    config.tick = Duration::from_millis(5);
    config.poly.replication = 4;

    let cluster = Cluster::<Torus2>::spawn(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        config,
    );
    println!("spawned {} nodes", cluster.alive_ids().len());

    assert!(cluster.await_ticks(15, Duration::from_secs(20)));
    let steady = cluster.observe();
    println!(
        "steady state: {} nodes, {:.2} points/node, homogeneity {:.3}",
        steady.alive_nodes, steady.points_per_node, steady.homogeneity
    );

    // Crash-stop a contiguous third of the torus: nodes die with their
    // mailboxes; survivors must notice via heartbeat timeouts.
    let killed = cluster.kill_region(|p| p[0] >= 6.0);
    println!("killed {} nodes (no goodbye messages)", killed.len());

    cluster.run_for(Duration::from_millis(600));
    let healed = cluster.observe();
    println!(
        "after recovery: {} nodes, {:.1}% points surviving, homogeneity {:.3}",
        healed.alive_nodes,
        healed.surviving_points * 100.0,
        healed.homogeneity
    );
    assert!(healed.surviving_points > 0.85);
    assert!(healed.homogeneity < steady.homogeneity + 1.5);

    cluster.shutdown();
    println!("orderly shutdown complete");
}
