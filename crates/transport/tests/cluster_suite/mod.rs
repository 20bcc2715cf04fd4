//! The live-cluster suite, written once over [`Transport`] and run on
//! each transport by its own test binary (`cluster_in_process.rs`,
//! `cluster_tcp.rs`), so every harness behaviour is checked on both and
//! the two binaries load the box no more than the in-file suites did.
//!
//! Nothing here waits on the wall clock: progress is awaited in protocol
//! ticks ([`Cluster::await_ticks`]) and convergence is polled under a
//! tick budget ([`settle`]). `MAX_WAIT` is only the safety valve of one
//! await, sized so that a loaded CI box never reaches it.

use polystyrene_membership::NodeId;
use polystyrene_protocol::observe::RoundObservation;
use polystyrene_protocol::LinkProfile;
use polystyrene_runtime::{Cluster, Transport, GATEWAY_INGRESS_BOUND};
use polystyrene_space::prelude::*;
use std::time::Duration;

pub type Point = [f64; 2];

const MAX_WAIT: Duration = Duration::from_secs(30);

/// A transport as this suite drives it.
pub trait Under: Transport<Point> {
    /// Whether protocol messages cross the transport as frames.
    const FRAMED: bool;
    /// A millisecond-tick configuration with `replication` backups per
    /// point over `link`.
    fn fast_config(link: LinkProfile, replication: usize) -> Self::Config;
}

fn spawn_on<T: Under>(
    cols: usize,
    rows: usize,
    link: LinkProfile,
    replication: usize,
) -> Cluster<Torus2, T> {
    Cluster::spawn(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        T::fast_config(link, replication),
    )
}

/// A K=3 grid over ideal links.
fn spawn_grid<T: Under>(cols: usize, rows: usize) -> Cluster<Torus2, T> {
    spawn_on(cols, rows, LinkProfile::ideal(), 3)
}

fn lossy(loss: f64) -> LinkProfile {
    LinkProfile {
        loss,
        ..LinkProfile::ideal()
    }
}

/// Waits until every alive node has run `ticks` rounds in all.
fn reach<T: Under>(cluster: &Cluster<Torus2, T>, ticks: u64) {
    assert!(cluster.await_ticks(ticks, MAX_WAIT), "the cluster stalled");
}

/// Lets every alive node run `ticks` more rounds.
fn advance<T: Under>(cluster: &Cluster<Torus2, T>, ticks: u64) {
    reach(cluster, cluster.observe().ticks + ticks);
}

/// Observes once per tick until `done` holds or `budget` ticks have
/// passed; returns the last observation for the caller to assert on.
fn settle<T: Under>(
    cluster: &Cluster<Torus2, T>,
    budget: u64,
    done: impl Fn(&RoundObservation) -> bool,
) -> RoundObservation {
    let mut obs = cluster.observe();
    for _ in 0..budget {
        if done(&obs) {
            break;
        }
        advance(cluster, 1);
        obs = cluster.observe();
    }
    obs
}

pub fn spawns_and_reports<T: Under>() {
    let cluster = spawn_grid::<T>(6, 4);
    reach(&cluster, 5);
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, 24);
    // Migrations may have points in flight at snapshot time; replicas
    // keep them alive, so survival stays (near) perfect.
    assert!(
        obs.surviving_points >= 0.95,
        "points vanished: {}",
        obs.surviving_points
    );
    assert!(obs.ticks >= 5);
    assert_eq!(
        cluster.sent_frames() > 0,
        T::FRAMED,
        "frames are counted exactly where messages travel as bytes"
    );
    cluster.shutdown();
}

pub fn replication_reaches_one_plus_k<T: Under>() {
    let cluster = spawn_grid::<T>(6, 4);
    reach(&cluster, 10);
    let obs = cluster.observe();
    // Every node hosts its own point plus K=3 replicas of others.
    assert!(
        obs.points_per_node > 3.0,
        "replication never took hold: {} points/node",
        obs.points_per_node
    );
    cluster.shutdown();
}

pub fn kill_is_crash_stop<T: Under>() {
    let cluster = spawn_grid::<T>(4, 4);
    reach(&cluster, 3);
    assert!(cluster.kill(NodeId::new(0)));
    assert!(!cluster.kill(NodeId::new(0)), "second kill must be a no-op");
    // Immediately: a kill does not wait for the worker to drop the
    // node, and the node's last report must not count.
    assert_eq!(cluster.observe().alive_nodes, 15);
    assert!(!cluster.is_alive(NodeId::new(0)));
    // The survivors keep making progress without the dead peer.
    let before = cluster.observe().ticks;
    advance(&cluster, 5);
    let obs = cluster.observe();
    assert!(obs.ticks >= before + 5, "cluster wedged after a kill");
    assert_eq!(obs.alive_nodes, 15);
    cluster.shutdown();
}

/// `observe` hides the reports of dead nodes, so look at the board
/// itself: a round of the victim that was under way when the kill landed
/// may still publish, and it is the victim's worker that must take the
/// report down once the node can publish no more.
pub fn a_killed_node_never_reappears_on_the_board<T: Under>() {
    let cluster = spawn_grid::<T>(4, 4);
    reach(&cluster, 3);
    let victim = NodeId::new(5);
    let on_board = || cluster.reported_ids().contains(&victim);
    assert!(on_board(), "every node has published by tick 3");
    assert!(cluster.kill(victim));
    for _ in 0..50 {
        if !on_board() {
            break;
        }
        advance(&cluster, 1);
    }
    assert!(!on_board(), "the victim's report outlived it");
    advance(&cluster, 5);
    assert!(!on_board(), "the victim published after it was dropped");
    assert_eq!(cluster.reported_ids().len(), 15);
    cluster.shutdown();
}

pub fn catastrophic_failure_recovers_points<T: Under>() {
    // K=4: a point dies only with its holder and all four backups, so a
    // 50% failure leaves ~97% of the points. At K=3 (~94%) 32 points are
    // a lottery whose tail reaches the floor below about once in a
    // thousand runs (a binomial draw, the same whether kills are joined
    // one by one or land together).
    let cluster = spawn_on::<T>(8, 4, LinkProfile::ideal(), 4);
    // Let replication converge first.
    reach(&cluster, 12);
    let killed = cluster.kill_region(shapes::in_right_half(8.0));
    assert_eq!(killed.len(), 16);
    // Heartbeat timeouts + recovery + migration, all tick-denominated.
    let obs = settle(&cluster, 200, |o| {
        o.surviving_points > 0.75 && o.homogeneity < 2.0
    });
    assert_eq!(obs.alive_nodes, 16);
    assert!(
        obs.surviving_points > 0.75,
        "too many points lost: {}",
        obs.surviving_points
    );
    // And the survivors spread back over the shape.
    assert!(
        obs.homogeneity < 2.0,
        "shape not recovered: homogeneity {}",
        obs.homogeneity
    );
    cluster.shutdown();
}

pub fn injection_spawns_empty_joiners<T: Under>() {
    let cluster = spawn_grid::<T>(4, 4);
    reach(&cluster, 5);
    let id = cluster.inject([0.5, 0.5]);
    assert!(id.as_u64() >= 16);
    // Returns once the joiner has published its first round.
    reach(&cluster, 1);
    assert_eq!(cluster.observe().alive_nodes, 17);
    cluster.shutdown();
}

pub fn lossy_cluster_still_replicates_and_counts_drops<T: Under>() {
    let cluster = spawn_on::<T>(6, 4, lossy(0.10), 3);
    reach(&cluster, 12);
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, 24);
    assert!(
        cluster.injected_drops() > 0,
        "a 10% lossy fabric that dropped nothing is not lossy"
    );
    // The protocol absorbs the loss: replication still takes hold and
    // no point is destroyed (loss can only duplicate, never destroy).
    assert!(
        obs.points_per_node > 2.5,
        "replication never took hold under loss: {} points/node",
        obs.points_per_node
    );
    assert!(
        obs.surviving_points >= 0.95,
        "points vanished under transit loss: {}",
        obs.surviving_points
    );
    cluster.shutdown();
}

pub fn traffic_queries_resolve<T: Under>() {
    let cluster = spawn_grid::<T>(6, 4);
    reach(&cluster, 10);
    let keys: Vec<Point> = (0..6).map(|i| [i as f64 + 0.5, 1.5]).collect();
    for _ in 0..10 {
        cluster.offer_traffic(&keys, 32);
        advance(&cluster, 5);
    }
    // Every offered query resolves or expires within the query timeout
    // (8 ticks) of its gateway registering it.
    let obs = settle(&cluster, 40, |o| {
        o.traffic.offered >= 60 && o.traffic.delivered + o.traffic.dropped >= o.traffic.offered
    });
    assert_eq!(
        obs.traffic.offered, 60,
        "gateways must register every admitted query: {:?}",
        obs.traffic
    );
    assert!(
        obs.traffic.availability() > 0.8,
        "a healthy cluster must serve most queries: {:?}",
        obs.traffic
    );
    cluster.shutdown();
}

pub fn oversized_offer_is_shed_at_the_gateway<T: Under>() {
    // One node ⇒ one gateway: a single offer larger than the ingress
    // bound must be refused whole, deterministically (the gauge cannot
    // admit it no matter how fast the node drains).
    let cluster = spawn_grid::<T>(1, 1);
    reach(&cluster, 2);
    let oversized = GATEWAY_INGRESS_BOUND + 44;
    let keys = vec![[0.5, 0.5]; oversized];
    cluster.offer_traffic(&keys, 8);
    assert_eq!(cluster.shed_queries(), oversized as u64);
    assert_eq!(cluster.observe().traffic.shed, oversized as u64);
    // A batch that fits is admitted and registers.
    cluster.offer_traffic(&keys[..8], 8);
    let obs = settle(&cluster, 20, |o| o.traffic.offered >= 8);
    assert_eq!(
        obs.traffic.offered, 8,
        "an in-bound batch must be admitted: {:?}",
        obs.traffic
    );
    assert_eq!(
        obs.traffic.shed, oversized as u64,
        "admission must not shed"
    );
    cluster.shutdown();
}

/// Issuing a query at a node crosses no link: a link that loses every
/// message must neither eat an admitted batch nor leave its gauge
/// charged (which would saturate the gateway at the ingress bound and
/// shed everything after the 32nd offer).
pub fn lossy_links_do_not_leak_the_gateway_gauge<T: Under>() {
    let cluster = spawn_on::<T>(1, 1, lossy(1.0), 3);
    reach(&cluster, 2);
    let keys = vec![[0.5, 0.5]; 8];
    for _ in 0..40 {
        cluster.offer_traffic(&keys, 8);
        advance(&cluster, 1);
    }
    assert_eq!(cluster.shed_queries(), 0, "the gateway gauge leaked");
    let obs = settle(&cluster, 20, |o| o.traffic.offered >= 320);
    assert_eq!(obs.traffic.offered, 320, "{:?}", obs.traffic);
    cluster.shutdown();
}

pub fn shutdown_is_idempotent_and_drop_safe<T: Under>() {
    let cluster = spawn_grid::<T>(3, 3);
    cluster.shutdown();
    cluster.shutdown();
    assert_eq!(cluster.observe().alive_nodes, 0);
    drop(cluster); // Drop impl must not panic on an empty cluster
}

/// One `#[test]` per suite body, on transport `$t`.
macro_rules! cluster_suite {
    ($t:ty) => {
        cluster_suite!(@tests $t:
            spawns_and_reports,
            replication_reaches_one_plus_k,
            kill_is_crash_stop,
            a_killed_node_never_reappears_on_the_board,
            catastrophic_failure_recovers_points,
            injection_spawns_empty_joiners,
            lossy_cluster_still_replicates_and_counts_drops,
            traffic_queries_resolve,
            oversized_offer_is_shed_at_the_gateway,
            lossy_links_do_not_leak_the_gateway_gauge,
            shutdown_is_idempotent_and_drop_safe,
        );
    };
    (@tests $t:ty: $($body:ident),* $(,)?) => {
        $(
            #[test]
            fn $body() {
                cluster_suite::$body::<$t>();
            }
        )*
    };
}
