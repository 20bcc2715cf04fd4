//! The experiment plane's side of the substrate seam.
//!
//! [`Substrate`] itself lives beside the script language
//! ([`polystyrene_protocol::scenario`]) and is re-exported here: the
//! cycle engine and the discrete-event kernel implement it in their own
//! crates, and the live [`Cluster`], over whichever transport, plugs in
//! through [`LiveSubstrate`], which owns the round bookkeeping (tick
//! targets, victim entropy) that an asynchronous cluster needs and
//! deterministic simulators don't.
//!
//! [`build_substrate`] is the `scenario × substrate` switchboard: given
//! a [`SubstrateKind`] and one [`SubstrateConfig`], it returns any of the four
//! backends behind `Box<dyn Substrate>`, so every figure and
//! every cross-substrate test is one `--substrate` flag away from
//! running on a different execution model.

use polystyrene::prelude::DataPoint;
use polystyrene_membership::NodeId;
use polystyrene_netsim::NetSim;
use polystyrene_protocol::observe::{RoundObservation, TrafficStats};
use polystyrene_protocol::scenario::select_victims;
pub use polystyrene_protocol::scenario::Substrate;
use polystyrene_protocol::SubstrateConfig;
use polystyrene_runtime::{Cluster, Transport};
use polystyrene_sim::engine::Engine;
use polystyrene_space::torus::Torus2;
use polystyrene_space::MetricSpace;
use polystyrene_transport::TcpCluster;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// A wall-clock deployment viewed as a [`Substrate`]: one scenario round
/// is "every alive node has completed one more local tick", and victim
/// selection for random-failure events draws from a seeded RNG owned
/// here (live nodes have their own entropy; this one only picks who
/// dies).
///
/// Wall-clock asynchrony means live runs are *not* bit-reproducible
/// (unlike the deterministic substrates): observations are one snapshot
/// per round, for trend assertions rather than exact replay.
pub struct LiveSubstrate<C> {
    cluster: C,
    rng: StdRng,
    target_ticks: u64,
    /// Cumulative per-node cost at the end of the previous round — live
    /// clusters report running totals (no round boundary to reset at),
    /// and differencing them here recovers the per-round `cost_units`
    /// the deterministic substrates report directly.
    cost_baseline: f64,
    /// Cumulative traffic counters at the previous drain —
    /// `(offered, delivered, dropped, shed)` — differenced for the same
    /// reason as `cost_baseline`.
    traffic_baseline: (u64, u64, u64, u64),
}

impl<S: MetricSpace, T: Transport<S::Point>> LiveSubstrate<Cluster<S, T>> {
    /// Wraps a running cluster. Its `seed` also drives victim selection
    /// for random-failure and churn events, and its `round_timeout`
    /// bounds how long one round may take (a safety valve: freshly
    /// injected nodes start at tick zero and need wall-clock time to
    /// catch up). The repository benchmark passes both values again.
    ///
    /// # Panics
    ///
    /// Panics if `seed` or `round_timeout` is not the cluster's own.
    pub fn new(cluster: Cluster<S, T>, seed: u64, round_timeout: Duration) -> Self {
        let config = cluster.config();
        assert_eq!(
            (seed, round_timeout),
            (config.seed, config.round_timeout),
            "LiveSubstrate::new got (seed, round_timeout) other than its cluster's"
        );
        Self {
            cluster,
            rng: StdRng::seed_from_u64(seed),
            target_ticks: 0,
            cost_baseline: 0.0,
            traffic_baseline: (0, 0, 0, 0),
        }
    }

    /// The wrapped cluster (e.g. for transport-specific counters).
    pub fn cluster(&self) -> &Cluster<S, T> {
        &self.cluster
    }

    /// Unwraps the cluster.
    pub fn into_inner(self) -> Cluster<S, T> {
        self.cluster
    }
}

impl<S: MetricSpace, T: Transport<S::Point>> Substrate<S::Point> for LiveSubstrate<Cluster<S, T>> {
    fn crash(&mut self, id: NodeId) -> bool {
        self.cluster.kill(id)
    }

    fn original_points(&self) -> &[DataPoint<S::Point>] {
        self.cluster.original_points()
    }

    fn kill_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let victims = select_victims(self.cluster.alive_ids(), fraction, &mut self.rng);
        self.kill_nodes(&victims)
    }

    fn inject(&mut self, positions: &[S::Point]) -> Vec<NodeId> {
        positions
            .iter()
            .map(|p| self.cluster.inject(p.clone()))
            .collect()
    }

    fn offer_traffic(&mut self, keys: &[S::Point], ttl: u32) {
        self.cluster.offer_traffic(keys, ttl);
    }

    fn drain_traffic(&mut self) -> TrafficStats {
        // Live nodes publish running totals plus a trailing sample
        // window; differencing the totals recovers per-drain counters,
        // while the window's hop/latency estimates pass through.
        let cumulative = self.cluster.observe().traffic;
        let stats = TrafficStats {
            offered: cumulative.offered.saturating_sub(self.traffic_baseline.0),
            delivered: cumulative.delivered.saturating_sub(self.traffic_baseline.1),
            dropped: cumulative.dropped.saturating_sub(self.traffic_baseline.2),
            shed: cumulative.shed.saturating_sub(self.traffic_baseline.3),
            ..cumulative
        };
        self.traffic_baseline = (
            cumulative.offered,
            cumulative.delivered,
            cumulative.dropped,
            cumulative.shed,
        );
        stats
    }

    fn step(&mut self) -> RoundObservation {
        self.target_ticks += 1;
        // A round that runs into `round_timeout` is still a round: the
        // trace shows where the cluster was when the wait gave up.
        let round_timeout = self.cluster.config().round_timeout;
        let _ = self.cluster.await_ticks(self.target_ticks, round_timeout);
        let mut obs = self.cluster.observe();
        obs.round = self.target_ticks as u32;
        let cumulative = obs.cost_units;
        // Clamp: a crash removes its victim's running total from the sum,
        // which can pull the cumulative average backwards.
        obs.cost_units = (cumulative - self.cost_baseline).max(0.0);
        self.cost_baseline = cumulative;
        // Traffic flows through the drain seam; the raw cumulative
        // counters would not be comparable with the per-round stats the
        // deterministic substrates report.
        obs.traffic = TrafficStats::default();
        obs
    }

    fn observe(&self) -> RoundObservation {
        let mut obs = self.cluster.observe();
        obs.round = self.target_ticks as u32;
        obs.cost_units = (obs.cost_units - self.cost_baseline).max(0.0);
        obs.traffic = TrafficStats::default();
        obs
    }
}

/// The four execution substrates, as a value — what `--substrate`
/// parses into and [`build_substrate`] dispatches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubstrateKind {
    /// The cycle engine: atomic exchanges, bit-reproducible.
    Engine,
    /// The discrete-event network kernel: latency, loss, partitions —
    /// deterministic *and* asynchronous.
    Netsim,
    /// The threaded in-process cluster: real asynchrony over channels.
    Cluster,
    /// The TCP deployment: framed codec bytes over loopback sockets.
    Tcp,
}

impl SubstrateKind {
    /// Every substrate, in canonical matrix order.
    pub const ALL: [SubstrateKind; 4] = [
        SubstrateKind::Engine,
        SubstrateKind::Netsim,
        SubstrateKind::Cluster,
        SubstrateKind::Tcp,
    ];

    /// The flag-value name of this substrate.
    pub fn name(self) -> &'static str {
        match self {
            SubstrateKind::Engine => "engine",
            SubstrateKind::Netsim => "netsim",
            SubstrateKind::Cluster => "cluster",
            SubstrateKind::Tcp => "tcp",
        }
    }

    /// Whether this substrate honors a network model (loss, latency,
    /// partitions).
    pub fn has_network_model(self) -> bool {
        !matches!(self, SubstrateKind::Engine)
    }
}

impl std::fmt::Display for SubstrateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SubstrateKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "engine" => Ok(SubstrateKind::Engine),
            "netsim" => Ok(SubstrateKind::Netsim),
            "cluster" => Ok(SubstrateKind::Cluster),
            "tcp" => Ok(SubstrateKind::Tcp),
            other => Err(format!(
                "unknown substrate {other:?}: expected engine, netsim, cluster or tcp"
            )),
        }
    }
}

/// The experiment plane's configuration under its old name, kept while
/// the repository benchmark names it: the one [`SubstrateConfig`], which
/// drives all four backends.
pub type LabConfig = SubstrateConfig;

/// Builds the requested execution substrate over a torus-grid shape —
/// the switchboard behind every `--substrate` flag. The scenario then
/// runs through [`crate::run_experiment`] identically on whatever this
/// returns.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn build_substrate(
    kind: SubstrateKind,
    space: Torus2,
    shape: Vec<[f64; 2]>,
    cfg: &SubstrateConfig,
) -> Box<dyn Substrate<[f64; 2]>> {
    match kind {
        SubstrateKind::Engine => Box::new(Engine::new(space, shape, *cfg)),
        SubstrateKind::Netsim => Box::new(NetSim::new(space, shape, *cfg)),
        SubstrateKind::Cluster => Box::new(LiveSubstrate::new(
            Cluster::<Torus2>::spawn(space, shape, *cfg),
            cfg.seed,
            cfg.round_timeout,
        )),
        SubstrateKind::Tcp => Box::new(LiveSubstrate::new(
            TcpCluster::spawn(space, shape, *cfg),
            cfg.seed,
            cfg.round_timeout,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_kind_round_trips_through_names() {
        for kind in SubstrateKind::ALL {
            assert_eq!(kind.name().parse::<SubstrateKind>().unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert!("enginee".parse::<SubstrateKind>().is_err());
        assert!(!SubstrateKind::Engine.has_network_model());
        assert!(SubstrateKind::Tcp.has_network_model());
    }

    #[test]
    fn build_substrate_hands_the_config_over_unchanged() {
        use polystyrene::prelude::{BackupPlacement, ProjectionStrategy, SplitStrategy};
        let mut cfg = SubstrateConfig::default();
        cfg.poly.replication = 8;
        cfg.poly.split = SplitStrategy::Basic;
        cfg.poly.projection = ProjectionStrategy::FirstGuest;
        cfg.poly.backup_placement = BackupPlacement::NeighborhoodBiased;
        cfg.seed = 7;
        cfg.area = 32.0;
        cfg.link.latency = 3;
        let space = Torus2::new(8.0, 4.0);
        let shape = polystyrene_space::shapes::torus_grid(8, 4, 1.0);
        let mut engine = Engine::new(space, shape.clone(), cfg);
        let mut kernel = NetSim::new(space, shape.clone(), cfg);
        assert_eq!(engine.config(), &cfg);
        assert_eq!(kernel.config(), &cfg);
        // What `build_substrate` returns runs the histories of those two.
        for (kind, direct) in [
            (
                SubstrateKind::Engine,
                &mut engine as &mut dyn Substrate<[f64; 2]>,
            ),
            (SubstrateKind::Netsim, &mut kernel),
        ] {
            let mut built = build_substrate(kind, space, shape.clone(), &cfg);
            for _ in 0..3 {
                assert_eq!(built.step(), direct.step(), "{kind}");
            }
        }
        // The full stack replicates every point K times; the baseline
        // never stores more than its own point.
        assert!(engine.history()[2].points_per_node > 1.0);
        let mut baseline = Engine::new(space, shape, cfg);
        baseline.disable_polystyrene();
        for _ in 0..3 {
            assert_eq!(baseline.step().points_per_node, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "other than its cluster's")]
    fn live_substrate_rejects_a_seed_its_cluster_was_not_spawned_with() {
        let mut cfg = SubstrateConfig::default();
        cfg.seed = 3;
        let cluster = Cluster::<Torus2>::spawn(
            Torus2::new(2.0, 2.0),
            polystyrene_space::shapes::torus_grid(2, 2, 1.0),
            cfg,
        );
        let _ = LiveSubstrate::new(cluster, 4, cfg.round_timeout);
    }

    #[test]
    fn engine_trace_is_the_engine_history() {
        // The quality figures aggregate the trace and read proximity off
        // the history: round r of one must be round r of the other.
        let paper = polystyrene_protocol::PaperScenario {
            cols: 8,
            rows: 4,
            failure_round: 5,
            inject_round: Some(12),
            total_rounds: 18,
        };
        let (w, h) = paper.extents();
        for tman_only in [false, true] {
            let mut cfg = SubstrateConfig::default();
            cfg.area = paper.area();
            cfg.seed = 1;
            let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
            if tman_only {
                engine.disable_polystyrene();
            }
            let trace = crate::run_experiment(&mut engine, &paper.script());
            assert_eq!(trace.observations.len(), 18);
            assert_eq!(engine.history().len(), 18);
            for (obs, metrics) in trace.observations.iter().zip(engine.history()) {
                assert_eq!(*obs, metrics.observation);
            }
        }
    }
}
