//! The cycle-driven simulation engine (PeerSim substitute).
//!
//! PeerSim's cycle-driven mode — what the paper used ("All results were
//! computed with PeerSim", Sec. IV-B) — activates every node once per
//! round in arbitrary order, with pairwise gossip exchanges applied
//! atomically. The per-node protocol itself lives in
//! [`polystyrene_protocol::ProtocolNode`]; this engine is a *driver*: it
//! activates each node phase-by-phase across the population and
//! executes the resulting effects synchronously — a [`Effect::Send`] is
//! delivered to the destination node in the same instant, which is
//! exactly the atomic pairwise exchange of the cycle model:
//!
//! ```text
//!   Polystyrene   (recovery → backup → migration, Steps 2-4 of Fig. 4)
//!   T-Man         (topology construction, Step 1')
//!   RPS           (Cyclon-style peer sampling; traffic not accounted)
//! ```
//!
//! A round runs the layers bottom-up in [`Phase::ALL`] order, the one
//! schedule every driver shares: the engine only skips the heartbeat
//! (it supplies the failure verdicts itself) and fans the RNG-free
//! recovery phase out across cores.
//!
//! Reachability probes are answered from ground truth *before* a request
//! is built, so no entropy is spent on exchanges that cannot happen —
//! seeded histories are bit-identical to the engine that predates the
//! protocol extraction. The engine also injects failures and fresh
//! nodes, and measures the paper's five metrics after each round.
//!
//! # Ground truth and the hot loop
//!
//! Ground truth — who is really alive, the founding shape, the driver
//! stream, the failure knowledge — is the [`World`] the engine shares
//! with the event kernel, and so are founding, victim selection, the
//! position refresh and the census; the engine derefs to it for every
//! read. What is the engine's own is the synchronous dispatch, the
//! proximity metric and the phase ledger. A crash enters the failure
//! knowledge at once: the engine runs the oracle detector of the paper's
//! cycle model.
//!
//! The population lives in the World's [`NodePool`](polystyrene_protocol::pool::NodePool):
//! dense recycled slots with generation ids, a slot-indexed position
//! slab, and an incrementally maintained sorted alive list (see the pool
//! module docs for the layout). The phase pipeline drives each node
//! through the sink-based `*_into` protocol entry points with one
//! engine-owned [`EffectSink`] and one reusable dispatch queue, so a
//! steady-state round performs no per-activation allocation. Failure
//! verdicts are kept in a dense flag table instead of taking a read lock
//! per view-membership test. All of it is bit-identical to the boxed
//! `Vec<Option<ProtocolNode>>` layout it replaced — same activation
//! order, same RNG draws, same delivery order — which is pinned by the
//! golden-history fingerprint suites.

use crate::metrics::RoundMetrics;
use polystyrene::prelude::DataPoint;
use polystyrene_membership::NodeId;
use polystyrene_protocol::observe::{RoundObservation, TrafficStats};
use polystyrene_protocol::{
    par, Channel, Effect, EffectSink, Event, Phase, Substrate, SubstrateConfig, Wire, World,
    UNITS_PER_DESCRIPTOR,
};
use polystyrene_space::MetricSpace;
use polystyrene_topology::TopologyConstruction;
use std::collections::VecDeque;
use std::ops::Deref;
use std::time::Instant;

/// The rows of [`Engine::phase_ns`]: every protocol phase in
/// [`Phase::ALL`] order (the engine never runs the heartbeat, so its
/// row reads 0), then the engine's own passes — the position refresh
/// and the measurement pass split into the census and the proximity
/// metric.
pub const ENGINE_PHASES: [&str; PROXIMITY_ROW + 1] = {
    let mut rows = [""; PROXIMITY_ROW + 1];
    let mut i = 0;
    while i < REFRESH_ROW {
        rows[i] = Phase::ALL[i].name();
        i += 1;
    }
    rows[REFRESH_ROW] = "position_refresh";
    rows[CENSUS_ROW] = "census";
    rows[PROXIMITY_ROW] = "proximity";
    rows
};

/// The ledger rows of the engine's own passes, after the phases.
const REFRESH_ROW: usize = Phase::ALL.len();
const CENSUS_ROW: usize = REFRESH_ROW + 1;
const PROXIMITY_ROW: usize = REFRESH_ROW + 2;

/// Neighborhood size of the proximity metric ("we represent the 4
/// closest nodes returned by T-Man").
const REPORT_NEIGHBORS: usize = 4;

/// The engine's configuration under its old name, kept while the
/// repository benchmark names it: the one [`SubstrateConfig`]. The
/// engine reads `tman`, `poly`, `area` and `seed`.
pub type EngineConfig = SubstrateConfig;

/// The cycle-driven simulator: a [`World`] plus synchronous dispatch.
/// Derefs to its `World` for every read of the population.
///
/// # Example
///
/// ```
/// use polystyrene_sim::prelude::*;
/// use polystyrene_space::prelude::*;
///
/// let space = Torus2::new(8.0, 4.0);
/// let shape = shapes::torus_grid(8, 4, 1.0);
/// let mut cfg = SubstrateConfig::default();
/// cfg.area = 32.0;
/// let mut engine = Engine::new(space, shape, cfg);
/// let metrics = engine.step();
/// assert_eq!(metrics.alive_nodes, 32);
/// ```
pub struct Engine<S: MetricSpace> {
    world: World<S>,
    config: SubstrateConfig,
    /// T-Man alone: [`Engine::disable_polystyrene`] was called.
    tman_only: bool,
    history: Vec<RoundMetrics>,
    /// Reusable per-node `(distance sum, samples)` of the proximity pass.
    proximity: Vec<(f64, usize)>,
    /// The one effect buffer every activation pushes into.
    sink: EffectSink<S::Point>,
    /// Reusable synchronous-delivery queue of [`Engine::dispatch`].
    queue: VecDeque<(NodeId, Effect<S::Point>)>,
    /// Wall-clock nanoseconds spent in each of [`ENGINE_PHASES`] since
    /// the engine was built. Kept off [`RoundMetrics`], whose histories
    /// are compared for equality.
    phase_ns: [u64; ENGINE_PHASES.len()],
}

impl<S: MetricSpace> Deref for Engine<S> {
    type Target = World<S>;

    fn deref(&self) -> &World<S> {
        &self.world
    }
}

impl<S: MetricSpace> Engine<S> {
    /// Builds a network of `shape.len()` nodes, node `i` founding data
    /// point `i` at `shape[i]`, and bootstraps both gossip layers with
    /// uniformly random contacts ([`World::found`]).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or `config` is invalid.
    pub fn new(space: S, shape: Vec<S::Point>, config: SubstrateConfig) -> Self {
        Self {
            world: World::found(space, &shape, &config),
            config,
            tman_only: false,
            history: Vec::new(),
            proximity: Vec::new(),
            sink: EffectSink::new(),
            queue: VecDeque::new(),
            phase_ns: [0; ENGINE_PHASES.len()],
        }
    }

    /// Turns the Polystyrene layer off for every later round: its
    /// recovery, backup and migration phases no longer run, which leaves
    /// the paper's baseline, T-Man alone (Sec. IV-A, Figs. 1 and 6–9).
    /// Only the cycle engine has this switch.
    pub fn disable_polystyrene(&mut self) {
        self.tman_only = true;
    }

    /// The engine configuration.
    pub fn config(&self) -> &SubstrateConfig {
        &self.config
    }

    /// Ids of currently alive nodes, ascending: [`World::alive_ids`],
    /// under the name the repository benchmark calls it by.
    pub fn alive_id_slice(&self) -> &[NodeId] {
        self.world.alive_ids()
    }

    /// Per-round metric history.
    pub fn history(&self) -> &[RoundMetrics] {
        &self.history
    }

    /// The phase ledger: wall-clock nanoseconds spent in each of
    /// [`ENGINE_PHASES`] (same index) over every round so far. One clock
    /// read per phase boundary; a skipped phase reads zero (the
    /// heartbeat always, recovery, backup and migration when Polystyrene
    /// is disabled).
    pub fn phase_ns(&self) -> [u64; ENGINE_PHASES.len()] {
        self.phase_ns
    }

    /// The published position of a node, if alive.
    ///
    /// Reads the live node state, not the slab: mid-round callers (the
    /// probe ground truth of `Engine::dispatch`) need the position as
    /// of *now*, including moves earlier in the same round.
    pub fn position_of(&self, id: NodeId) -> Option<S::Point> {
        self.world.pool.get(id).map(|c| c.poly.pos.clone())
    }

    /// Number of migration-split points the node currently has parked,
    /// if alive — counted without materializing the id list.
    pub fn parked_points_of(&self, id: NodeId) -> Option<usize> {
        self.world.pool.get(id).map(|c| c.parked_points())
    }

    /// The `k` closest T-Man neighbors a node currently reports.
    pub fn neighbors_of(&self, id: NodeId, k: usize) -> Vec<NodeId> {
        match self.world.pool.get(id) {
            Some(node) => node
                .tman
                .closest(&node.poly.pos, k)
                .into_iter()
                .map(|d| d.id)
                .collect(),
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Application traffic
    // ------------------------------------------------------------------

    /// The per-wire offer path: one [`Wire::Query`] event per key,
    /// dispatched to completion individually. Nothing drives load
    /// through it; it stays only as the reference the batched path must
    /// match outcome for outcome
    /// (`batched_offers_match_the_unbatched_outcome_set` in the lab's
    /// `substrates` tests).
    pub fn offer_traffic_unbatched(&mut self, keys: &[S::Point], ttl: u32) {
        let mut sink = std::mem::take(&mut self.sink);
        for key in keys {
            let Some((gateway, qid)) = self.world.gateways.draw(self.world.pool.alive_ids()) else {
                break;
            };
            sink.clear();
            let node = self.world.pool.get_mut(gateway).expect("alive id");
            node.on_event_into(
                Event::Message {
                    from: gateway,
                    wire: Wire::Query {
                        qid,
                        origin: gateway,
                        key: key.clone(),
                        ttl,
                        hops: 0,
                    },
                },
                &mut self.world.rng,
                &mut sink,
            );
            if !sink.is_empty() {
                self.dispatch(gateway, &mut sink);
            }
        }
        self.sink = sink;
    }

    /// Drains every alive node's gateway-side traffic counters, appending
    /// completion samples to `samples` and returning the summed
    /// `(offered, delivered, dropped)`. Exchanges are atomic here, so any
    /// query still pending at drain time was lost to a stale view entry
    /// (its hop was sent to a dead node) and is written off immediately.
    pub fn drain_traffic(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64) {
        for node in self.world.pool.slots_mut().iter_mut().flatten() {
            node.expire_all_pending_queries();
        }
        self.world.pool.drain_traffic(samples)
    }

    // ------------------------------------------------------------------
    // The target shape
    // ------------------------------------------------------------------

    /// Morphs the target shape in place (paper footnote 1: the shape
    /// "could, however, keep evolving as the algorithm executes"): applies
    /// `transform` to every data point — the originals that define the
    /// shape and every live guest and ghost copy. Nodes then migrate to
    /// follow their moved points over the next rounds.
    pub fn morph_shape(&mut self, transform: impl Fn(&S::Point) -> S::Point) {
        for point in &mut self.world.original_points {
            point.pos = transform(&point.pos);
        }
        for node in self.world.pool.slots_mut().iter_mut().flatten() {
            for g in &mut node.poly.guests {
                g.pos = transform(&g.pos);
            }
            for g in node.poly.ghosts.items_mut() {
                g.pos = transform(&g.pos);
            }
        }
    }

    // ------------------------------------------------------------------
    // The round loop
    // ------------------------------------------------------------------

    /// Runs one full round — every protocol phase of [`Phase::ALL`] across
    /// the population, then the position refresh — and returns the
    /// metrics measured at the end of it.
    pub fn step(&mut self) -> RoundMetrics {
        self.world.begin_round();
        let mut clock = Instant::now();
        for (row, phase) in Phase::ALL.into_iter().enumerate() {
            match phase {
                // The engine supplies its own verdicts: no detector
                // listens for beacons, and skipping the phase keeps its
                // activation shuffle off the rng.
                Phase::Heartbeat => continue,
                // T-Man alone: Polystyrene's three phases never run.
                Phase::Recovery | Phase::Backup | Phase::Migration if self.tman_only => continue,
                Phase::Recovery => self.recovery_phase(),
                _ => self.run_phase(phase),
            }
            self.stamp(row, &mut clock);
        }
        // The phases above are the last movers of the round, so the
        // refresh also brings the position slab up to date for the
        // proximity pass. The cycle model has no fabric to partition.
        self.world.refresh_positions(|_, _| false);
        self.stamp(REFRESH_ROW, &mut clock);
        let observation = self.world.measure();
        self.stamp(CENSUS_ROW, &mut clock);
        let mut proximity = std::mem::take(&mut self.proximity);
        let metrics = self.metrics_from(observation, &mut proximity);
        self.proximity = proximity;
        self.stamp(PROXIMITY_ROW, &mut clock);
        self.history.push(metrics);
        metrics
    }

    /// Charges the time since `clock` to row `row` of the ledger and
    /// restarts `clock` from the same reading.
    fn stamp(&mut self, row: usize, clock: &mut Instant) {
        let now = Instant::now();
        self.phase_ns[row] += (now - *clock).as_nanos() as u64;
        *clock = now;
    }

    /// Runs `rounds` consecutive rounds.
    pub fn run(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// One protocol phase across the whole population, each node
    /// activated once in a fresh random order (the cycle-driven model).
    fn run_phase(&mut self, phase: Phase) {
        // Taken and restored around the sweep, like the buffers below:
        // `dispatch` needs the whole engine mutably.
        let known = std::mem::take(&mut self.world.detected);
        let detected = |id: NodeId| known.is_failed(id);
        let order = self.world.shuffled_order();
        let mut sink = std::mem::take(&mut self.sink);
        for &id in &order {
            let Some(node) = self.world.pool.get_mut(id) else {
                continue;
            };
            sink.clear();
            node.on_phase_into(phase, &detected, &mut self.world.rng, &mut sink);
            if !sink.is_empty() {
                self.dispatch(id, &mut sink);
            }
        }
        self.sink = sink;
        self.world.order = order;
        self.world.detected = known;
    }

    /// Executes one node's queued effects synchronously: probes are
    /// answered from ground truth (with the peer's live position — the
    /// atomic exchange of the cycle model), sends are delivered to the
    /// destination node in the same instant, and wire traffic is
    /// converted to the paper's cost units as it passes through. Drains
    /// `sink` into the engine's reusable queue and hands it back empty to
    /// the event handlers for their follow-up effects. The asynchronous
    /// drivers share
    /// [`polystyrene_protocol::ProtocolNode::execute_effects`] instead,
    /// which delivers nothing itself and never sees a live position.
    fn dispatch(&mut self, origin: NodeId, sink: &mut EffectSink<S::Point>) {
        let mut queue = std::mem::take(&mut self.queue);
        debug_assert!(queue.is_empty());
        queue.extend(sink.drain().map(|e| (origin, e)));
        while let Some((at, effect)) = queue.pop_front() {
            match effect {
                Effect::Probe { peer, channel } => {
                    let event = if self.world.pool.contains(peer) {
                        Event::ProbeOk {
                            peer,
                            channel,
                            pos: self.position_of(peer),
                        }
                    } else {
                        // Imperfect detection: the exchange times out; a
                        // T-Man request was still paid for.
                        if channel == Channel::Topology {
                            self.world.cost.tman_units +=
                                (self.config.tman.m * UNITS_PER_DESCRIPTOR) as u64;
                        }
                        Event::PeerUnreachable { peer, channel }
                    };
                    let node = self.world.pool.get_mut(at).expect("active node vanished");
                    node.on_event_into(event, &mut self.world.rng, sink);
                    queue.extend(sink.drain().map(|e| (at, e)));
                }
                Effect::Send { to, wire } => {
                    self.world.cost.charge_wire(&wire);
                    if let Some(node) = self.world.pool.get_mut(to) {
                        let event = Event::Message { from: at, wire };
                        node.on_event_into(event, &mut self.world.rng, sink);
                        queue.extend(sink.drain().map(|e| (to, e)));
                    } else {
                        // A send to an undetected-dead node is simply
                        // lost — its payload buffer goes back to the pool.
                        sink.pool.recycle_wire(wire);
                    }
                }
            }
        }
        self.queue = queue;
    }

    /// Recovery pass (Step 3 of Fig. 4, Algorithm 2): reactivate ghosts of
    /// crashed holders. Purely local, no traffic, no randomness — which
    /// makes it the one protocol step that parallelizes freely: each node
    /// only touches its own state, so the outcome is identical in any
    /// activation order and the pass fans out across the pool's slots.
    fn recovery_phase(&mut self) {
        let World { pool, detected, .. } = &mut self.world;
        let detected = |id: NodeId| detected.is_failed(id);
        // The pass's sum, the points reactivated, is not needed here.
        par::sum_mut(pool.slots_mut(), |slot| {
            slot.as_mut().map_or(0, |node| {
                node.recover_ghosts(&detected).reactivated_points as u64
            })
        });
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Measures the paper's metrics over the current state: the World's
    /// census ([`World::measure_fresh`], which keeps its own speed-ups —
    /// a grid index for holderless points at scale, a fan-out summed in
    /// point order), plus the engine's proximity and cost split. The
    /// round loop reuses the World's and the engine's tables; this
    /// public entry point measures into throwaway ones, so ad-hoc
    /// callers pay the allocations instead of holding them.
    pub fn compute_metrics(&self) -> RoundMetrics {
        self.metrics_from(self.world.measure_fresh(), &mut Vec::new())
    }

    /// The proximity half of the measurement pass, assembled with the
    /// World's stamped census `observation` into the round's metrics.
    fn metrics_from(
        &self,
        observation: RoundObservation,
        per_node: &mut Vec<(f64, usize)>,
    ) -> RoundMetrics {
        let pool = &self.world.pool;
        // Proximity: mean distance to the k closest T-Man neighbors,
        // measured against the neighbors' *true* current positions (the
        // slab mirrors them whenever measurement runs), fanned out and
        // folded back in id order.
        par::map_into(pool.alive_ids(), per_node, |&id| {
            let node = pool.get(id).expect("alive id");
            let mut acc = 0.0;
            let mut samples = 0usize;
            // Visitor form of `closest`: same ranking, same order, no
            // per-node result vector (the read shares no scratch, so
            // this is safe under the fan-out).
            node.tman
                .for_closest(&node.poly.pos, REPORT_NEIGHBORS, |d| {
                    if let Some(actual) = pool.position(d.id) {
                        acc += self.world.space.distance(&node.poly.pos, actual);
                        samples += 1;
                    }
                });
            (acc, samples)
        });
        let (proximity_acc, proximity_samples) = per_node
            .iter()
            .fold((0.0, 0usize), |(a, n), &(pa, pn)| (a + pa, n + pn));
        let proximity = if proximity_samples == 0 {
            0.0
        } else {
            proximity_acc / proximity_samples as f64
        };

        RoundMetrics {
            observation,
            proximity,
            tman_cost_share: self.world.cost.tman_share(),
        }
    }

    /// Positions of all alive nodes, for the snapshot figures (1, 8, 9) —
    /// read off the pool's position slab in ascending id order.
    pub fn snapshot_positions(&self) -> Vec<(NodeId, S::Point)> {
        let pool = &self.world.pool;
        pool.alive_ids()
            .iter()
            .map(|&id| (id, pool.position(id).expect("alive id").clone()))
            .collect()
    }
}

impl<S: MetricSpace> Substrate<S::Point> for Engine<S> {
    /// Crashes one specific node; returns whether it was alive. The pool
    /// frees and recycles the slot; the id is never reused. The crash
    /// enters the failure knowledge at once: the perfect detector of the
    /// paper's evaluation.
    fn crash(&mut self, id: NodeId) -> bool {
        if self.world.pool.remove(id).is_none() {
            return false;
        }
        self.world.detected.mark(id);
        true
    }

    /// Injects fresh nodes at the given positions: no data points, `pos`
    /// initialized (Sec. IV-A Phase 3), both gossip layers bootstrapped
    /// from random alive contacts ([`World::join`]: joiners never
    /// bootstrap each other). Returns the new ids.
    fn inject(&mut self, positions: &[S::Point]) -> Vec<NodeId> {
        self.world.join(positions)
    }

    fn original_points(&self) -> &[DataPoint<S::Point>] {
        &self.world.original_points
    }

    /// Crashes a uniformly random fraction of the alive population
    /// (uncorrelated churn), drawn by the World's
    /// [`random_victims`](World::random_victims).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    fn kill_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let victims = self.world.random_victims(fraction);
        self.kill_nodes(&victims)
    }

    /// Offers one query per key through a random alive gateway each, and
    /// routes them to completion within the call — the cycle model's
    /// atomic-exchange semantics applied to the traffic plane. Gateways
    /// are drawn from the dedicated traffic RNG and query handling draws
    /// no entropy at all, so the protocol stream is untouched.
    ///
    /// Co-gateway queries share one [`Wire::QueryBatch`] envelope: every
    /// gateway is drawn first, in key order (the exact rng stream and
    /// qid assignment of the per-wire path), then the round's queries
    /// are grouped per gateway
    /// ([`Gateways::group`](polystyrene_protocol::pool::Gateways::group))
    /// and each batch is dispatched at once.
    fn offer_traffic(&mut self, keys: &[S::Point], ttl: u32) {
        self.world
            .gateways
            .group(self.world.pool.alive_ids(), keys.len());
        let mut sink = std::mem::take(&mut self.sink);
        while let Some((gateway, queries)) = self
            .world
            .gateways
            .next_batch(keys, ttl, |_| sink.pool.take_queries())
        {
            sink.clear();
            let node = self.world.pool.get_mut(gateway).expect("alive id");
            node.on_event_into(
                Event::Message {
                    from: gateway,
                    wire: Wire::QueryBatch { queries },
                },
                &mut self.world.rng,
                &mut sink,
            );
            if !sink.is_empty() {
                self.dispatch(gateway, &mut sink);
            }
        }
        self.sink = sink;
    }

    fn drain_traffic(&mut self) -> TrafficStats {
        let mut samples = Vec::new();
        let (offered, delivered, dropped) = Engine::drain_traffic(self, &mut samples);
        TrafficStats::from_samples(offered, delivered, dropped, &mut samples)
    }

    fn step(&mut self) -> RoundObservation {
        Engine::step(self).observation
    }

    fn observe(&self) -> RoundObservation {
        match self.history.last() {
            Some(m) => m.observation,
            None => self.compute_metrics().observation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene::prelude::*;
    use polystyrene_protocol::observe::reference_homogeneity;
    use polystyrene_protocol::ProtocolNode;
    use polystyrene_space::prelude::*;
    use polystyrene_space::shapes;
    use polystyrene_topology::TManConfig;

    fn tiny_config(seed: u64) -> SubstrateConfig {
        SubstrateConfig {
            tman: TManConfig {
                view_cap: 20,
                m: 8,
                psi: 3,
            },
            poly: PolystyreneConfig {
                replication: 3,
                ..PolystyreneConfig::default()
            },
            area: 64.0,
            seed,
            ..SubstrateConfig::default()
        }
    }

    fn tiny_engine(seed: u64) -> Engine<Torus2> {
        let space = Torus2::new(16.0, 4.0);
        let shape = shapes::torus_grid(16, 4, 1.0);
        Engine::new(space, shape, tiny_config(seed))
    }

    #[test]
    fn construction_invariants() {
        let e = tiny_engine(1);
        assert_eq!(e.alive_count(), 64);
        assert_eq!(e.original_points().len(), 64);
        assert_eq!(e.round(), 0);
        // Every node initially hosts exactly its own point.
        for &id in e.alive_ids() {
            let s = e.poly_state(id).unwrap();
            assert_eq!(s.guests.len(), 1);
            assert_eq!(s.guests[0].id.as_u64(), id.as_u64());
        }
    }

    #[test]
    fn phase_ledger_charges_exactly_the_phases_that_ran() {
        let skipped_without_poly = ["recovery", "backup", "migration"];
        for poly in [true, false] {
            let mut e = tiny_engine(3);
            if !poly {
                e.disable_polystyrene();
            }
            e.run(3);
            for (name, ns) in ENGINE_PHASES.into_iter().zip(e.phase_ns()) {
                let skipped =
                    name == "heartbeat" || (!poly && skipped_without_poly.contains(&name));
                if skipped {
                    assert_eq!(ns, 0, "{name} is skipped but was charged (poly {poly})");
                } else {
                    assert!(ns > 0, "{name} ran but reads 0 (poly {poly})");
                }
            }
        }
    }

    #[test]
    fn initial_homogeneity_is_zero() {
        let e = tiny_engine(2);
        let m = e.compute_metrics();
        assert!(m.homogeneity.abs() < 1e-12, "each node hosts its own point");
        assert_eq!(m.surviving_points, 1.0);
    }

    #[test]
    fn compute_metrics_reads_what_step_measured() {
        // `step` measures into reused tables, `compute_metrics` into
        // throwaway ones: both must read the same state the same way,
        // through a half-torus kill and the reshaping after it.
        let mut e = tiny_engine(12);
        for round in 1..=8 {
            if round == 5 {
                e.kill_region(&shapes::in_right_half(16.0));
            }
            let stepped = e.step();
            let fresh = e.compute_metrics();
            assert_eq!(fresh, stepped, "round {round}");
            assert_eq!(fresh, *e.history().last().unwrap(), "round {round}");
            assert_eq!(e.compute_metrics(), fresh, "round {round}: second call");
        }
        assert_eq!(e.alive_count(), 32);
    }

    #[test]
    fn convergence_brings_proximity_down() {
        let mut e = tiny_engine(3);
        e.run(15);
        let m = e.history().last().unwrap();
        // On a unit-step grid the 4 closest neighbors are at distance 1.
        assert!(
            m.proximity < 1.6,
            "proximity failed to converge: {}",
            m.proximity
        );
        // Steady state: replication reached, so stored points ≈ 1 + K.
        assert!(
            (m.points_per_node - 4.0).abs() < 0.8,
            "expected ≈ 1+K=4 stored points, got {}",
            m.points_per_node
        );
    }

    #[test]
    fn converged_neighbors_are_the_grid_neighbors() {
        let mut cfg = SubstrateConfig::default();
        cfg.area = 32.0;
        cfg.tman.view_cap = 16;
        cfg.tman.m = 6;
        let space = Torus2::new(8.0, 4.0);
        let mut e = Engine::new(space, shapes::torus_grid(8, 4, 1.0), cfg);
        e.run(10);
        for &id in e.alive_ids() {
            let neighbors = e.neighbors_of(id, 4);
            assert_eq!(neighbors.len(), 4);
            let at = e.position_of(id).unwrap();
            for n in neighbors {
                let d = space.distance(&at, &e.position_of(n).unwrap());
                assert!(d <= 1.5, "{id:?} reports {n:?} at distance {d}");
            }
        }
    }

    #[test]
    fn catastrophic_failure_and_recovery() {
        let mut e = tiny_engine(4);
        e.run(12);
        let killed = e.kill_region(&shapes::in_right_half(16.0));
        assert_eq!(killed.len(), 32);
        assert_eq!(e.alive_count(), 32);
        let at_failure = e.compute_metrics();
        assert!(at_failure.homogeneity > 1.0, "half the shape just vanished");
        e.run(15);
        let m = *e.history().last().unwrap();
        assert!(
            m.homogeneity < m.reference_homogeneity,
            "failed to reshape: homogeneity {} vs reference {}",
            m.homogeneity,
            m.reference_homogeneity
        );
        // Most points survived (K = 3 over 50% failure ⇒ ~94%).
        assert!(
            m.surviving_points > 0.80,
            "reliability {}",
            m.surviving_points
        );
    }

    #[test]
    fn tman_views_never_outgrow_their_cap() {
        // 256 nodes against a 20-entry cap: every exchange overflows the
        // view, and the kill and the joiners add purges and cold views.
        let mut cfg = tiny_config(5);
        cfg.area = 256.0;
        let cap = cfg.tman.view_cap;
        let mut e = Engine::new(
            Torus2::new(16.0, 16.0),
            shapes::torus_grid(16, 16, 1.0),
            cfg,
        );
        for round in 0..50 {
            if round == 20 {
                e.kill_region(&shapes::in_right_half(16.0));
            }
            if round == 35 {
                e.inject(&shapes::torus_grid(4, 4, 4.0));
            }
            e.step();
            for node in e.pool.slots().iter().flatten() {
                assert!(node.tman.view_entries().len() <= cap);
                assert!(
                    node.tman.view_capacity() <= cap,
                    "round {round}: {} holds room for {} descriptors, cap {cap}",
                    node.id(),
                    node.tman.view_capacity()
                );
            }
        }
    }

    /// The census fields measured the slow, obvious way: every point
    /// against every alive node. Returns the observation and how many
    /// points had no holder.
    fn exhaustive_census(e: &Engine<Torus2>) -> (RoundObservation, usize) {
        let nodes: Vec<&ProtocolNode<Torus2>> = e.pool.slots().iter().flatten().collect();
        let (mut homogeneity, mut surviving, mut holderless) = (0.0, 0, 0);
        for point in e.original_points() {
            let hosts = |n: &&ProtocolNode<Torus2>| n.poly.guests.iter().any(|g| g.id == point.id);
            let ghosted =
                |n: &&ProtocolNode<Torus2>| n.poly.ghosts.items().iter().any(|g| g.id == point.id);
            let held = nodes.iter().any(hosts);
            holderless += usize::from(!held);
            surviving += usize::from(held || nodes.iter().any(ghosted));
            homogeneity += nodes
                .iter()
                .filter(|n| !held || hosts(n))
                .map(|n| e.space().distance(&point.pos, &n.poly.pos))
                .fold(f64::INFINITY, f64::min);
        }
        let n = e.original_points().len() as f64;
        let stored: usize = nodes.iter().map(|n| n.poly.stored_points()).sum();
        let observation = RoundObservation {
            alive_nodes: nodes.len(),
            homogeneity: homogeneity / n,
            reference_homogeneity: reference_homogeneity(e.config().area, nodes.len()),
            surviving_points: surviving as f64 / n,
            points_per_node: stored as f64 / nodes.len() as f64,
            ..RoundObservation::default()
        };
        (observation, holderless)
    }

    #[test]
    fn grid_index_metrics_identical_to_exhaustive() {
        // 512 nodes, 256 left after the kill: the census's grid path
        // (GRID_INDEX_MIN_NODES) serves every round with a holderless
        // point, and must match the exhaustive reference bit for bit
        // through convergence, catastrophe and reshaping.
        use polystyrene_protocol::observe::GRID_INDEX_MIN_NODES;
        let mut cfg = tiny_config(11);
        cfg.area = 512.0;
        let mut e = Engine::new(
            Torus2::new(32.0, 16.0),
            shapes::torus_grid(32, 16, 1.0),
            cfg,
        );
        let mut gridded_rounds = 0;
        for round in 1..=14 {
            if round == 7 {
                e.kill_region(&shapes::in_right_half(32.0));
            }
            let m = e.step();
            let (reference, holderless) = exhaustive_census(&e);
            let census = RoundObservation {
                round: 0,
                ticks: 0,
                cost_units: 0.0,
                ..m.observation
            };
            assert_eq!(census, reference, "round {round}");
            assert_eq!(
                census.homogeneity.to_bits(),
                reference.homogeneity.to_bits(),
                "round {round}"
            );
            if holderless > 0 && m.alive_nodes >= GRID_INDEX_MIN_NODES {
                gridded_rounds += 1;
            }
        }
        assert!(gridded_rounds >= 3, "grid path ran {gridded_rounds} times");
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let mut a = tiny_engine(7);
        let mut b = tiny_engine(7);
        a.run(8);
        b.run(8);
        assert_eq!(a.history(), b.history());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = tiny_engine(7);
        let mut b = tiny_engine(8);
        a.run(5);
        b.run(5);
        assert_ne!(a.history(), b.history());
    }

    #[test]
    fn injection_adds_empty_nodes_that_acquire_points() {
        let mut e = tiny_engine(5);
        e.run(10);
        e.kill_region(&shapes::in_right_half(16.0));
        e.run(10);
        let fresh = e.inject(&shapes::torus_grid_offset(16, 2, 1.0));
        assert_eq!(fresh.len(), 32);
        assert_eq!(e.alive_count(), 64);
        for &id in &fresh {
            assert!(e.poly_state(id).unwrap().guests.is_empty());
        }
        e.run(15);
        let with_points = fresh
            .iter()
            .filter(|&&id| !e.poly_state(id).unwrap().guests.is_empty())
            .count();
        assert!(
            with_points > fresh.len() / 2,
            "only {with_points}/32 injected nodes acquired data points"
        );
    }

    #[test]
    fn random_failure_fraction() {
        let mut e = tiny_engine(6);
        e.run(3);
        let killed = e.kill_fraction(0.25);
        assert_eq!(killed.len(), 16);
        assert_eq!(e.alive_count(), 48);
    }

    #[test]
    fn crash_is_idempotent() {
        let mut e = tiny_engine(9);
        e.crash(NodeId::new(0));
        e.crash(NodeId::new(0));
        assert_eq!(e.alive_count(), 63);
    }

    /// The per-phase verdict table as `detector_flags()` rebuilt it from
    /// the crash records before the engine kept a [`FailureTable`] up to
    /// date, at the engine's one detection delay, zero.
    fn detector_flags_reference(records: &[NodeId], next_id: usize) -> Vec<bool> {
        let mut flags = vec![false; next_id];
        for id in records {
            if let Some(f) = flags.get_mut(id.index()) {
                *f = true;
            }
        }
        flags
    }

    #[test]
    fn failure_knowledge_matches_the_rebuilt_flags_through_crash_delay_and_inject() {
        let mut e = Engine::new(
            Torus2::new(16.0, 4.0),
            shapes::torus_grid(16, 4, 1.0),
            tiny_config(21),
        );
        let mut records: Vec<NodeId> = Vec::new();
        // The table the phases read, after a crash and after a round,
        // against the one the old code would have rebuilt for them.
        let check = |e: &Engine<Torus2>, records: &[NodeId]| {
            let next_id = e.pool.peek_next_id().index();
            let flags = detector_flags_reference(records, next_id);
            for probe in 0..next_id + 8 {
                assert_eq!(
                    e.detected.is_failed(NodeId::new(probe as u64)),
                    flags.get(probe).copied().unwrap_or(false),
                    "round {}: verdict on n{probe}",
                    e.round()
                );
            }
        };
        let step_and_check = |e: &mut Engine<Torus2>, records: &[NodeId]| {
            e.step();
            check(e, records);
        };
        let crash = |e: &mut Engine<Torus2>, records: &mut Vec<_>, raw: u64| {
            e.crash(NodeId::new(raw));
            records.push(NodeId::new(raw));
            check(e, records);
        };

        step_and_check(&mut e, &records);
        crash(&mut e, &mut records, 2);
        crash(&mut e, &mut records, 40);
        e.crash(NodeId::new(2)); // already dead: no second record
        step_and_check(&mut e, &records);
        crash(&mut e, &mut records, 7);
        step_and_check(&mut e, &records);
        // Ids issued after construction, one of them crashed in turn.
        let fresh = e.inject(&[[1.5, 1.5], [9.5, 2.5]]);
        assert_eq!(fresh, [64, 65].map(NodeId::new));
        step_and_check(&mut e, &records);
        crash(&mut e, &mut records, 65);
        crash(&mut e, &mut records, 0);
        for _ in 0..5 {
            step_and_check(&mut e, &records);
        }
        let known = (0..80)
            .filter(|&i| e.detected.is_failed(NodeId::new(i)))
            .count();
        assert_eq!(known, records.len());
    }

    #[test]
    fn cost_accounting_is_dominated_by_tman() {
        let mut e = tiny_engine(10);
        e.run(10);
        let m = e.history().last().unwrap();
        assert!(m.cost_units > 0.0);
        assert!(
            m.tman_cost_share > 0.5,
            "T-Man should dominate traffic (paper Fig. 7b), got {}",
            m.tman_cost_share
        );
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn empty_shape_rejected() {
        let _ = Engine::new(Torus2::new(4.0, 4.0), Vec::new(), tiny_config(0));
    }

    #[test]
    fn localized_backups_crumble_under_correlated_failure() {
        // Paper Sec. III-D: random placement is chosen *because* failures
        // are correlated. Localized placement must lose far more points
        // when a whole region dies.
        let run = |placement: BackupPlacement| {
            let mut cfg = tiny_config(22);
            cfg.poly.replication = 3;
            cfg.poly.backup_placement = placement;
            let space = Torus2::new(16.0, 4.0);
            let mut e = Engine::new(space, shapes::torus_grid(16, 4, 1.0), cfg);
            e.run(12);
            e.kill_region(&shapes::in_right_half(16.0));
            e.run(5);
            e.history().last().unwrap().surviving_points
        };
        let random = run(BackupPlacement::UniformRandom);
        let local = run(BackupPlacement::NeighborhoodBiased);
        assert!(
            random > local + 0.15,
            "random placement ({random:.3}) should clearly beat localized \
             ({local:.3}) under a regional blast"
        );
        // Localized backups sit in the dead region: roughly only the
        // surviving half's own points remain.
        assert!(
            local < 0.75,
            "localized placement suspiciously good: {local:.3}"
        );
    }
}
