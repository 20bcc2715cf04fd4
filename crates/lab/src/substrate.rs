//! The one seam every execution substrate stands behind.
//!
//! [`Substrate`] is that seam: kill, inject, partition, step, observe.
//! The cycle engine and the discrete-event kernel implement it
//! directly, with one body (their kill, join and traffic methods share
//! signatures); the live [`Cluster`], over whichever transport, plugs in
//! through [`LiveSubstrate`], which owns the round bookkeeping (tick
//! targets, victim entropy) that an asynchronous cluster needs and
//! deterministic simulators don't.
//!
//! [`build_substrate`] is the `scenario × substrate` switchboard: given
//! a [`SubstrateKind`] and one [`LabConfig`], it returns any of the four
//! backends behind `Box<dyn Substrate>`, so every figure and
//! every cross-substrate test is one `--substrate` flag away from
//! running on a different execution model.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_membership::NodeId;
use polystyrene_netsim::{NetSim, NetSimConfig};
use polystyrene_protocol::observe::{RoundObservation, TrafficStats};
use polystyrene_protocol::scenario::select_victims;
use polystyrene_protocol::LinkProfile;
use polystyrene_runtime::{Cluster, RuntimeConfig, Transport};
use polystyrene_sim::engine::{Engine, EngineConfig};
use polystyrene_space::torus::Torus2;
use polystyrene_space::MetricSpace;
use polystyrene_topology::TManConfig;
use polystyrene_transport::{TcpCluster, TcpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// What a scenario needs from an execution substrate — implemented by
/// all four backends, so failure injection, observation and round
/// advancement have exactly one meaning across the whole matrix.
pub trait Substrate<P> {
    /// Crashes every alive founding node whose original data point
    /// satisfies `predicate`; returns the crashed ids.
    fn kill_region(&mut self, predicate: &(dyn Fn(&P) -> bool + Send + Sync)) -> Vec<NodeId>;
    /// Crashes a uniformly random `fraction` of the alive population;
    /// returns the crashed ids.
    fn kill_fraction(&mut self, fraction: f64) -> Vec<NodeId>;
    /// Crashes these specific nodes (dead ones are skipped); returns the
    /// ids actually crashed.
    fn kill_nodes(&mut self, ids: &[NodeId]) -> Vec<NodeId>;
    /// Injects fresh, empty nodes at `positions`; returns the new ids.
    fn inject(&mut self, positions: &[P]) -> Vec<NodeId>;
    /// Installs a network partition
    /// (see [`polystyrene_protocol::ScenarioEvent::Partition`]).
    /// Default: no-op, for substrates without a network fabric to cut —
    /// the cycle engine's atomic exchanges and the live cluster's
    /// reliable channels cannot model one.
    fn partition(&mut self, _groups: &[Vec<NodeId>]) {}
    /// Heals a previously installed partition. Default: no-op.
    fn heal(&mut self) {}
    /// Offers application queries — one per key, each entering at a
    /// uniformly random alive gateway and resolving hop-by-hop through
    /// node views. Default: no-op, so scenario-only substrates (and the
    /// driver tests' recorders) need not carry a traffic plane.
    fn offer_traffic(&mut self, _keys: &[P], _ttl: u32) {}
    /// Collects and resets the traffic accounting accumulated since the
    /// previous drain — the per-round [`TrafficStats`] the experiment
    /// driver stores into its observations. Default: zero stats.
    fn drain_traffic(&mut self) -> TrafficStats {
        TrafficStats::default()
    }
    /// Runs one protocol round (one engine cycle, one event-kernel
    /// round, or one tick-equivalent of wall-clock progress on a live
    /// cluster) and returns the observation measured at its end.
    fn step(&mut self) -> RoundObservation;
    /// Measures the current state without advancing. On the
    /// deterministic substrates this re-reads the last round's metrics
    /// (or measures round zero) and consumes no entropy; on the live
    /// clusters it reads the observation board.
    fn observe(&self) -> RoundObservation;
}

/// The one [`Substrate`] impl of the deterministic drivers, which share
/// their kill, join and traffic signatures; `$extra` holds what only one
/// of them has.
macro_rules! deterministic_substrate {
    ($driver:ident { $($extra:item)* }) => {
        impl<S: MetricSpace> Substrate<S::Point> for $driver<S> {
            fn kill_region(
                &mut self,
                predicate: &(dyn Fn(&S::Point) -> bool + Send + Sync),
            ) -> Vec<NodeId> {
                self.fail_original_region(predicate)
            }

            fn kill_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
                self.fail_random_fraction(fraction)
            }

            fn kill_nodes(&mut self, ids: &[NodeId]) -> Vec<NodeId> {
                ids.iter().copied().filter(|&id| self.crash(id)).collect()
            }

            fn inject(&mut self, positions: &[S::Point]) -> Vec<NodeId> {
                $driver::inject(self, positions)
            }

            fn offer_traffic(&mut self, keys: &[S::Point], ttl: u32) {
                $driver::offer_traffic(self, keys, ttl);
            }

            fn drain_traffic(&mut self) -> TrafficStats {
                let mut samples = Vec::new();
                let (offered, delivered, dropped) = $driver::drain_traffic(self, &mut samples);
                TrafficStats::from_samples(offered, delivered, dropped, &mut samples)
            }

            fn step(&mut self) -> RoundObservation {
                $driver::step(self).observation
            }

            fn observe(&self) -> RoundObservation {
                match self.history().last() {
                    Some(m) => m.observation,
                    None => self.compute_metrics().observation,
                }
            }

            $($extra)*
        }
    };
}

deterministic_substrate!(Engine {});

deterministic_substrate!(NetSim {
    fn partition(&mut self, groups: &[Vec<NodeId>]) {
        // The kernel-level cut severs both fabrics — protocol gossip and
        // query traffic — so a partition is a partition for everyone.
        NetSim::set_partition(self, groups);
    }

    fn heal(&mut self) {
        NetSim::heal(self);
    }
});

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
    round_timeout: Duration,
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

impl<C> LiveSubstrate<C> {
    /// Wraps a running cluster. `seed` drives victim selection for
    /// random-failure and churn events; `round_timeout` bounds how long
    /// one round may take (a safety valve: freshly injected nodes start
    /// at tick zero and need wall-clock time to catch up).
    pub fn new(cluster: C, seed: u64, round_timeout: Duration) -> Self {
        Self {
            cluster,
            rng: StdRng::seed_from_u64(seed),
            target_ticks: 0,
            round_timeout,
            cost_baseline: 0.0,
            traffic_baseline: (0, 0, 0, 0),
        }
    }

    /// The wrapped cluster (e.g. for transport-specific counters).
    pub fn cluster(&self) -> &C {
        &self.cluster
    }

    /// Unwraps the cluster.
    pub fn into_inner(self) -> C {
        self.cluster
    }
}

impl<S: MetricSpace, T: Transport<S::Point>> Substrate<S::Point> for LiveSubstrate<Cluster<S, T>> {
    fn kill_region(
        &mut self,
        predicate: &(dyn Fn(&S::Point) -> bool + Send + Sync),
    ) -> Vec<NodeId> {
        self.cluster.kill_region(predicate)
    }

    fn kill_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        // Sorted first: alive_ids comes out of a HashMap, and the shared
        // selection must shuffle a well-defined base order.
        let mut alive = self.cluster.alive_ids();
        alive.sort();
        let mut victims = select_victims(alive, fraction, &mut self.rng);
        victims.retain(|&id| self.cluster.kill(id));
        victims
    }

    fn kill_nodes(&mut self, ids: &[NodeId]) -> Vec<NodeId> {
        ids.iter()
            .copied()
            .filter(|&id| self.cluster.kill(id))
            .collect()
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
        let _ = self
            .cluster
            .await_ticks(self.target_ticks, self.round_timeout);
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

/// The substrate-agnostic slice of an experiment's configuration: the
/// protocol parameters every backend applies, plus the knobs only some
/// honor (documented per field). One value drives all four backends, so
/// a `--substrate` sweep compares like with like.
#[derive(Clone, Copy, Debug)]
pub struct LabConfig {
    /// Polystyrene parameters (K, split strategy, projection, …).
    pub poly: PolystyreneConfig,
    /// T-Man parameters.
    pub tman: TManConfig,
    /// Surface area of the data space, for the reference homogeneity.
    pub area: f64,
    /// Master seed: engine/netsim runs are bit-reproducible under it;
    /// on the live substrates it seeds node entropy and victim
    /// selection, but wall-clock scheduling still varies.
    pub seed: u64,
    /// Link faults. Netsim honors all of it; the live clusters honor
    /// the loss probability at the send boundary; the cycle engine has
    /// no fabric and ignores it.
    pub link: LinkProfile,
    /// Protocol tick of the live substrates (ignored by the
    /// deterministic ones).
    pub tick: Duration,
    /// Per-round safety timeout of the live substrates.
    pub round_timeout: Duration,
    /// Run plain T-Man without the Polystyrene layer — the paper's
    /// baseline. Only the cycle engine can switch the layer off.
    pub tman_only: bool,
}

impl Default for LabConfig {
    fn default() -> Self {
        Self {
            poly: PolystyreneConfig::default(),
            tman: TManConfig::default(),
            area: 3200.0,
            seed: 1,
            link: LinkProfile::ideal(),
            tick: Duration::from_millis(10),
            round_timeout: Duration::from_secs(10),
            tman_only: false,
        }
    }
}

impl LabConfig {
    /// The live-cluster slice of this configuration — public so
    /// harnesses that must construct a cluster concretely (e.g. to read
    /// transport-specific counters) still share the one mapping.
    pub fn runtime(&self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::default();
        cfg.tick = self.tick;
        cfg.tman = self.tman;
        cfg.poly = self.poly;
        cfg.link = self.link;
        cfg.seed = self.seed;
        cfg.area = self.area;
        cfg
    }
}

/// Builds the cycle engine over a torus-grid shape — the one place a
/// [`LabConfig`] becomes an [`EngineConfig`], shared by
/// [`build_substrate`] and the figures that read engine internals
/// (proximity, snapshots). `cfg.tman_only` switches the Polystyrene
/// layer off: the paper's T-Man baseline.
pub fn build_engine(space: Torus2, shape: Vec<[f64; 2]>, cfg: &LabConfig) -> Engine<Torus2> {
    let mut e = EngineConfig::default();
    e.tman = cfg.tman;
    e.poly = cfg.poly;
    e.area = cfg.area;
    e.seed = cfg.seed;
    let mut engine = Engine::new(space, shape, e);
    if cfg.tman_only {
        engine.disable_polystyrene();
    }
    engine
}

/// Builds the requested execution substrate over a torus-grid shape —
/// the switchboard behind every `--substrate` flag. The scenario then
/// runs through [`crate::run_experiment`] identically on whatever this
/// returns.
///
/// # Panics
///
/// Panics if `cfg.tman_only` is set for anything but the cycle engine
/// (only the engine can switch the Polystyrene layer off), or if the
/// underlying backend rejects the configuration.
pub fn build_substrate(
    kind: SubstrateKind,
    space: Torus2,
    shape: Vec<[f64; 2]>,
    cfg: &LabConfig,
) -> Box<dyn Substrate<[f64; 2]>> {
    assert!(
        !cfg.tman_only || kind == SubstrateKind::Engine,
        "the T-Man-only baseline needs the cycle engine (--substrate engine)"
    );
    match kind {
        SubstrateKind::Engine => Box::new(build_engine(space, shape, cfg)),
        SubstrateKind::Netsim => {
            let mut n = NetSimConfig::default();
            n.tman = cfg.tman;
            n.poly = cfg.poly;
            n.area = cfg.area;
            n.seed = cfg.seed;
            n.link = cfg.link;
            Box::new(NetSim::new(space, shape, n))
        }
        SubstrateKind::Cluster => Box::new(LiveSubstrate::new(
            Cluster::<Torus2>::spawn(space, shape, cfg.runtime()),
            cfg.seed,
            cfg.round_timeout,
        )),
        SubstrateKind::Tcp => {
            let mut t = TcpConfig::default();
            t.runtime = cfg.runtime();
            Box::new(LiveSubstrate::new(
                TcpCluster::spawn(space, shape, t),
                cfg.seed,
                cfg.round_timeout,
            ))
        }
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
    fn build_engine_applies_the_lab_config() {
        use polystyrene::prelude::{BackupPlacement, ProjectionStrategy, SplitStrategy};
        let mut cfg = LabConfig::default();
        cfg.poly.replication = 8;
        cfg.poly.split = SplitStrategy::Basic;
        cfg.poly.projection = ProjectionStrategy::FirstGuest;
        cfg.poly.backup_placement = BackupPlacement::NeighborhoodBiased;
        cfg.seed = 7;
        cfg.area = 32.0;
        let shape = polystyrene_space::shapes::torus_grid(8, 4, 1.0);
        let mut engine = build_engine(Torus2::new(8.0, 4.0), shape.clone(), &cfg);
        let applied = engine.config();
        assert_eq!(applied.poly, cfg.poly);
        assert_eq!(applied.tman, cfg.tman);
        assert_eq!(applied.seed, 7);
        assert_eq!(applied.area, 32.0);
        // The full stack replicates every point K times; the baseline
        // never stores more than its own point.
        engine.run(3);
        assert!(engine.history()[2].points_per_node > 1.0);
        cfg.tman_only = true;
        let mut baseline = build_engine(Torus2::new(8.0, 4.0), shape, &cfg);
        baseline.run(3);
        assert!(baseline.history().iter().all(|m| m.points_per_node == 1.0));
    }

    #[test]
    fn engine_trace_is_the_engine_history() {
        // The quality figures aggregate the trace and read proximity off
        // the history: round r of one must be round r of the other.
        let paper = polystyrene_protocol::PaperScenario {
            cols: 8,
            rows: 4,
            step: 1.0,
            failure_round: 5,
            inject_round: Some(12),
            total_rounds: 18,
        };
        let (w, h) = paper.extents();
        for tman_only in [false, true] {
            let mut cfg = LabConfig::default();
            cfg.area = paper.area();
            cfg.tman_only = tman_only;
            let mut engine = build_engine(Torus2::new(w, h), paper.shape(), &cfg);
            let trace = crate::run_experiment(&mut engine, &paper.script());
            assert_eq!(trace.observations.len(), 18);
            assert_eq!(engine.history().len(), 18);
            for (obs, metrics) in trace.observations.iter().zip(engine.history()) {
                assert_eq!(*obs, metrics.observation);
            }
        }
    }

    #[test]
    #[should_panic(expected = "T-Man-only baseline needs the cycle engine")]
    fn tman_only_rejected_off_engine() {
        let mut cfg = LabConfig::default();
        cfg.tman_only = true;
        let _ = build_substrate(
            SubstrateKind::Netsim,
            Torus2::new(4.0, 4.0),
            polystyrene_space::shapes::torus_grid(4, 4, 1.0),
            &cfg,
        );
    }
}
