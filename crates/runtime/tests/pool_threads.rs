//! A cluster's thread count is the pool's, whatever the node count.
//!
//! This test is alone in its binary on purpose: it reads the whole
//! process's `Threads:` line, so a sibling test running a cluster of its
//! own beside it would be counted too.

#![cfg(target_os = "linux")]

use polystyrene_protocol::SubstrateConfig;
use polystyrene_runtime::Cluster;
use polystyrene_space::prelude::*;
use std::time::Duration;

/// Safety valve of one await, sized so a loaded CI box never reaches it.
const MAX_WAIT: Duration = Duration::from_secs(60);

/// Ticks the 16x16 grid gets to replicate every point `K` times.
const REPLICATION_BUDGET: u64 = 60;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads line");
    line.trim().parse().expect("Threads is a count")
}

/// Waits up to 5 s for the process's thread count to come back to
/// `harness` and returns the last reading. `join` returns once a thread
/// has cleared its tid, which can be before the kernel drops it from
/// `Threads:`, so the count read right after `shutdown()` may still
/// include threads that are joined.
fn threads_after_reaping(harness: usize) -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let threads = process_threads();
        if threads == harness || std::time::Instant::now() > deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs a `side` x `side` in-process grid and returns the process's
/// thread count while it is up, after `check` has had its look.
fn threads_under_a_grid(side: usize, check: impl FnOnce(&Cluster<Torus2>)) -> usize {
    let mut config = SubstrateConfig::default();
    config.area = (side * side) as f64;
    config.seed = 1;
    config.tman.view_cap = 30;
    config.tman.m = 10;
    let mut cluster = Cluster::<Torus2>::spawn(
        Torus2::new(side as f64, side as f64),
        shapes::torus_grid(side, side, 1.0),
        config,
    );
    assert!(cluster.await_ticks(2, MAX_WAIT), "the cluster stalled");
    assert_eq!(cluster.observe().alive_nodes, side * side);
    check(&cluster);
    let threads = process_threads();
    cluster.shutdown();
    threads
}

#[test]
fn threads_do_not_grow_with_nodes() {
    // libtest's main thread plus the one running this test.
    let harness = process_threads();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let small = threads_under_a_grid(8, |_| {});
    assert_eq!(
        threads_after_reaping(harness),
        harness,
        "shutdown joins every thread it started"
    );
    // 256 nodes: the first live grid that does not fit in one T-Man view
    // (30 entries here, 20 in the benchmark's sizing).
    let large = threads_under_a_grid(16, |cluster| {
        let k = SubstrateConfig::default().poly.replication;
        let mut obs = cluster.observe();
        while obs.ticks < REPLICATION_BUDGET && obs.points_per_node < (1 + k) as f64 {
            assert!(
                cluster.await_ticks(obs.ticks + 1, MAX_WAIT),
                "the cluster stalled"
            );
            obs = cluster.observe();
        }
        assert!(
            obs.points_per_node >= (1 + k) as f64,
            "{} stored points per node after {} ticks, expected 1 + K = {}",
            obs.points_per_node,
            obs.ticks,
            1 + k
        );
        assert!(
            obs.homogeneity < obs.reference_homogeneity,
            "homogeneity {} against the reference {}",
            obs.homogeneity,
            obs.reference_homogeneity
        );
    });

    // One thread per worker, and a worker per core at most: four times
    // the nodes add no thread (short of a machine with more than 64
    // cores, which gives the larger grid the workers it can use).
    assert_eq!(small - harness, parallelism.min(64));
    assert_eq!(large - harness, parallelism.min(256));
}
