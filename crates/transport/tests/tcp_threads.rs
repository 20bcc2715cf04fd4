//! A TCP cluster's thread count is the pool's plus the fabric's one I/O
//! thread, whatever the node and connection count.
//!
//! This test is alone in its binary on purpose: it reads the whole
//! process's `Threads:` line, so a sibling test running a cluster of its
//! own beside it would be counted too.

#![cfg(target_os = "linux")]

use polystyrene_space::prelude::*;
use polystyrene_transport::{TcpCluster, TcpConfig};
use std::time::Duration;

/// Safety valve of one await, sized so a loaded CI box never reaches it.
const MAX_WAIT: Duration = Duration::from_secs(60);

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads line");
    line.trim().parse().expect("Threads is a count")
}

/// Runs a `side` x `side` grid over loopback sockets until every node
/// has both sent and received, and returns the process's thread count
/// while it is up.
fn threads_under_a_grid(side: usize) -> usize {
    let mut config = TcpConfig::default();
    config.runtime.area = (side * side) as f64;
    let cluster = TcpCluster::spawn(
        Torus2::new(side as f64, side as f64),
        shapes::torus_grid(side, side, 1.0),
        config,
    );
    assert!(cluster.await_ticks(5, MAX_WAIT), "the cluster stalled");
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, side * side);
    // Replicas only travel as frames: every node's listener has been
    // accepted from and read.
    assert!(
        obs.points_per_node > 2.0,
        "{} stored points per node: nothing crossed the sockets",
        obs.points_per_node
    );
    let threads = process_threads();
    cluster.shutdown();
    threads
}

#[test]
fn threads_do_not_grow_with_nodes_or_connections() {
    // libtest's main thread plus the one running this test.
    let harness = process_threads();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let small = threads_under_a_grid(8);
    assert_eq!(
        process_threads(),
        harness,
        "shutdown joins every thread it started"
    );
    let large = threads_under_a_grid(16);
    assert_eq!(
        process_threads(),
        harness,
        "shutdown joins every thread it started"
    );

    // A worker per core at most, and one I/O thread for the fabric: four
    // times the nodes, and their connections, add no thread.
    assert_eq!(small - harness, parallelism.min(64) + 1);
    assert_eq!(large - harness, parallelism.min(256) + 1);
}
