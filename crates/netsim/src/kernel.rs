//! The discrete-event kernel: a calendar future-event queue driving the
//! sans-IO protocol stack through an explicit network model.
//!
//! Where the cycle engine applies every [`Effect::Send`] synchronously —
//! the atomic pairwise exchange of PeerSim's cycle-driven mode — this
//! kernel hands each send to a [`NetworkModel`] and schedules the
//! delivery as a future event keyed by `(deliver_at, seq)`: messages can
//! arrive later in the round, in a *later round*, out of order with
//! respect to other links, or never (loss, partitions). Crashes and
//! their detection are events too: a crash at time `t` enters the
//! survivors' failure knowledge only when its `Detect` event fires at
//! `t + detection_delay`.
//!
//! The protocol stack is the unchanged [`ProtocolNode`] both other
//! substrates drive, stored in the same dense
//! [`polystyrene_protocol::pool::NodePool`] slab the cycle engine uses —
//! activation order, liveness and positions come off the pool's sorted
//! alive list instead of a grow-only id-indexed vector. Reachability
//! probes are answered from the *kernel's failure knowledge* (what has
//! been detected so far) — not from ground truth, so an undetected crash
//! lets exchanges start and then time out, exactly as a deployment would
//! experience it. Partitions never fail a probe: nothing crashed, so the
//! failure detector has nothing to say — the opened exchange's traffic
//! simply vanishes in the fabric, and views survive the window intact
//! (see `execute`).
//!
//! # What the kernel simulates, and what it takes from an oracle
//!
//! Everything the protocol *sends* is simulated: each wire message is an
//! event with a fate drawn from the network model, charged in the
//! paper's cost units at the send boundary and counted in
//! `sent_messages` / `dropped_messages`. Two things are not messages:
//!
//! * **Reachability probes** read the kernel's failure knowledge (see
//!   above) — an oracle with a configurable lag, blind to partitions.
//! * **The per-round position refresh** (paper Sec. IV-B: "T-Man must
//!   update their positions in its view in each round, causing most of
//!   the traffic") runs at every round boundary as the pool pass the
//!   cycle engine also runs, [`NodePool::refresh_view_positions`]: each
//!   T-Man view entry whose subject is alive takes the subject's current
//!   position and age zero, instantly and without loss. It is *costed*
//!   like the engine's — one descriptor per entry whose position
//!   changed, on the T-Man bucket of the round's cost — but draws no
//!   fate, enters no queue and moves neither message counter. Without
//!   it a survivor that Polystyrene has moved lives on in other views
//!   at its old coordinates (its fresh descriptor only circulates near
//!   where it now is, and views are capped by *believed* distance), and
//!   greedy forwarding bounces between believed and true positions
//!   until the hop budget runs out.
//!
//! The refresh respects the fabric where that is a yes/no question:
//! an entry is skipped — old position kept, age still growing — while
//! the protocol fabric's [`NetworkModel::blocked`] separates holder and
//! subject, and picked up at the first round boundary after the heal.
//! Entries naming dead subjects are never refreshed; they age until
//! the failure knowledge purges them. Link loss and latency do not
//! apply to it: a lossy link delays gossip, not this pass.
//!
//! The hot loop is allocation-free in steady state: future events live
//! in a [`CalendarQueue`] of reusable per-tick buckets, node effects are
//! pushed into one kernel-owned [`EffectSink`] and dispatched through
//! one reusable queue, and the per-round measurement pass reuses dense
//! point-id-indexed holder/ghost tables instead of rebuilding hash maps.
//!
//! Determinism: one seeded RNG drives bootstrap, activation orders and
//! node entropy in a fixed order; the network model draws from its own
//! seeded stream in event order. Identical configurations replay
//! bit-identical histories — pinned across the pool/queue/metrics swap
//! by `tests/golden_history.rs`.

use crate::config::NetSimConfig;
use crate::metrics::{reference_homogeneity, NetRoundMetrics};
use crate::queue::CalendarQueue;
use polystyrene::prelude::*;
use polystyrene_membership::{Descriptor, FailureTable, NodeId};
use polystyrene_protocol::pool::NodePool;
use polystyrene_protocol::{
    Channel, Effect, EffectSink, Event, Fate, FaultyNetwork, NetworkModel, ProtocolNode, QueryItem,
    RoundCost, Wire,
};
use polystyrene_space::MetricSpace;
use polystyrene_topology::TopologyConstruction;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Seed offset separating the network model's entropy stream from the
/// kernel's, so link faults and protocol randomness never interleave.
const NET_SEED_TAG: u64 = 0x6e65_7473_696d; // "netsim"

use polystyrene_protocol::TRAFFIC_SEED_TAG;

/// A queued future event. The tick it fires at and its position within
/// that tick are carried by the [`CalendarQueue`] (bucket + FIFO slot),
/// not stored per event.
enum Pending<P> {
    /// A wire message completes its transit.
    Deliver {
        from: NodeId,
        to: NodeId,
        wire: Wire<P>,
    },
    /// A node runs its local protocol round (all phases back-to-back).
    Activate { id: NodeId },
    /// A past crash becomes visible to the survivors' failure knowledge.
    Detect { id: NodeId },
    /// A scheduled crash fires.
    Crash { id: NodeId },
}

/// Reusable dense tables for the per-round measurement pass, replacing
/// the `HashMap<PointId, Vec<usize>>` / `HashSet<PointId>` the kernel
/// used to rebuild every round. Founding point ids are contiguous from
/// zero, so point-id-indexed vectors cover them exactly; holder entries
/// are pool *slot* indices, read back off the dense slot array.
#[derive(Default)]
struct MeasureScratch {
    /// Slot of every alive node, in ascending-id order.
    alive_slots: Vec<u32>,
    /// Point-id-indexed holder slots (guests + parked handouts).
    holders: Vec<Vec<u32>>,
    /// Point-id-indexed "some alive node still stores this point".
    existing: Vec<bool>,
}

impl MeasureScratch {
    fn reset(&mut self, n_points: usize) {
        self.alive_slots.clear();
        for h in &mut self.holders {
            h.clear();
        }
        self.holders.resize_with(n_points, Vec::new);
        self.existing.clear();
        self.existing.resize(n_points, false);
    }
}

/// The discrete-event network simulator — the third execution substrate,
/// between the cycle engine (deterministic, atomic exchanges) and the
/// threaded runtime (real asynchrony, no determinism): deterministic
/// *and* asynchronous.
///
/// # Example
///
/// ```
/// use polystyrene_netsim::prelude::*;
/// use polystyrene_space::prelude::*;
///
/// let mut cfg = NetSimConfig::default();
/// cfg.area = 32.0;
/// cfg.link.loss = 0.05; // 5% of messages vanish in transit
/// let mut sim = NetSim::new(Torus2::new(8.0, 4.0), shapes::torus_grid(8, 4, 1.0), cfg);
/// let m = sim.step();
/// assert_eq!(m.alive_nodes, 32);
/// ```
pub struct NetSim<S: MetricSpace> {
    space: S,
    config: NetSimConfig,
    nodes: NodePool<S>,
    original_points: Vec<DataPoint<S::Point>>,
    net: Box<dyn NetworkModel + Sync>,
    /// The network model application-plane queries ride. A separate
    /// fault/jitter stream from `net`, so query traffic never perturbs
    /// the protocol plane's draw order — golden histories stay
    /// byte-identical with traffic enabled.
    traffic_net: Box<dyn NetworkModel>,
    /// Gateway-selection stream for [`Self::offer_traffic`].
    traffic_rng: StdRng,
    /// Query ids, unique per simulator.
    next_qid: u64,
    /// Query messages currently in transit — kept out of `in_flight`,
    /// which feeds the pinned protocol metric history.
    traffic_in_flight: usize,
    /// Crashes the population's failure knowledge has caught up with —
    /// consulted once per view entry by every activation and once per
    /// probe, hence the dense table.
    detected: FailureTable,
    queue: CalendarQueue<Pending<S::Point>>,
    now: u64,
    round: u32,
    rng: StdRng,
    history: Vec<NetRoundMetrics>,
    sent_messages: u64,
    dropped_messages: u64,
    /// Messages currently in transit (scheduled, not yet popped).
    in_flight: usize,
    /// This round's traffic in the paper's cost units, tallied at the
    /// send boundary (a dropped message still cost its sender the bytes).
    cost: RoundCost,
    /// Kernel-owned effect sink every node activation/delivery pushes
    /// into — one buffer for the whole simulation instead of a fresh
    /// `Vec` per protocol call.
    sink: EffectSink<S::Point>,
    /// Reusable effect-dispatch queue for [`Self::execute`].
    pending: VecDeque<(NodeId, Effect<S::Point>)>,
    /// Reusable activation-order buffer for [`Self::step`].
    order: Vec<NodeId>,
    /// Reusable measurement tables for [`Self::step`].
    scratch: MeasureScratch,
    /// Reusable `(gateway, qid, key index)` scratch of the batched
    /// [`Self::offer_traffic`] grouping pass.
    traffic_batch: Vec<(NodeId, u64, usize)>,
}

impl<S: MetricSpace> NetSim<S> {
    /// Builds a network of `shape.len()` nodes, node `i` founding data
    /// point `i` at `shape[i]` — the same founding convention as the
    /// other substrates — with the standard [`FaultyNetwork`] built from
    /// `config.link`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or the configuration is invalid.
    pub fn new(space: S, shape: Vec<S::Point>, config: NetSimConfig) -> Self {
        let net = Box::new(FaultyNetwork::new(config.link, config.seed ^ NET_SEED_TAG));
        Self::with_network(space, shape, config, net)
    }

    /// Builds the simulator around a custom [`NetworkModel`] (asymmetric
    /// links, channel-selective loss, …). `config.link` is ignored in
    /// favor of the model. `Sync` because the position-refresh pass asks
    /// [`NetworkModel::blocked`] from its worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or the configuration is invalid.
    pub fn with_network(
        space: S,
        shape: Vec<S::Point>,
        config: NetSimConfig,
        net: Box<dyn NetworkModel + Sync>,
    ) -> Self {
        assert!(!shape.is_empty(), "cannot simulate an empty network");
        config.validate();
        let protocol = config.protocol();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = shape.len();
        let original_points: Vec<DataPoint<S::Point>> = shape
            .iter()
            .enumerate()
            .map(|(i, p)| DataPoint::new(PointId::new(i as u64), p.clone()))
            .collect();

        let mut nodes: NodePool<S> = NodePool::with_capacity(n);
        for (i, origin) in original_points.iter().enumerate() {
            let mut contacts = Vec::new();
            while contacts.len() < config.rps_view_cap.min(n - 1) {
                let j = rng.random_range(0..n);
                if j != i
                    && !contacts
                        .iter()
                        .any(|d: &Descriptor<S::Point>| d.id.index() == j)
                {
                    contacts.push(Descriptor::new(NodeId::new(j as u64), shape[j].clone()));
                }
                if contacts.len() >= config.rps_view_cap || n <= 1 {
                    break;
                }
            }
            let mut boot = Vec::new();
            for _ in 0..config.tman_bootstrap {
                let j = rng.random_range(0..n);
                if j != i {
                    boot.push(Descriptor::new(NodeId::new(j as u64), shape[j].clone()));
                }
            }
            let space = space.clone();
            let id = nodes.insert_with(move |id| {
                ProtocolNode::new(
                    id,
                    space,
                    protocol,
                    PolyState::with_initial_point(origin.clone()),
                    contacts,
                    boot,
                )
            });
            debug_assert_eq!(id.index(), i, "founding ids are positional");
        }

        Self {
            space,
            config,
            nodes,
            original_points,
            net,
            traffic_net: Box::new(FaultyNetwork::new(
                config.link,
                config.seed ^ TRAFFIC_SEED_TAG,
            )),
            traffic_rng: StdRng::seed_from_u64(config.seed ^ TRAFFIC_SEED_TAG),
            next_qid: 0,
            traffic_in_flight: 0,
            detected: FailureTable::new(),
            queue: CalendarQueue::new(),
            now: 0,
            round: 0,
            rng,
            history: Vec::new(),
            sent_messages: 0,
            dropped_messages: 0,
            in_flight: 0,
            cost: RoundCost::default(),
            sink: EffectSink::new(),
            pending: VecDeque::new(),
            order: Vec::new(),
            scratch: MeasureScratch::default(),
            traffic_batch: Vec::new(),
        }
    }

    /// The current round number (rounds completed so far).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The simulator configuration.
    pub fn config(&self) -> &NetSimConfig {
        &self.config
    }

    /// Ids of currently alive nodes, sorted ascending — a borrow of the
    /// pool's incrementally maintained list, not a fresh `Vec`.
    pub fn alive_ids(&self) -> &[NodeId] {
        self.nodes.alive_ids()
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.alive_count()
    }

    /// The node pool itself — slot handles, positions, generation
    /// checks — for diagnostics and the freelist property tests.
    pub fn pool(&self) -> &NodePool<S> {
        &self.nodes
    }

    /// The initial data points defining the target shape.
    pub fn original_points(&self) -> &[DataPoint<S::Point>] {
        &self.original_points
    }

    /// Per-round metric history.
    pub fn history(&self) -> &[NetRoundMetrics] {
        &self.history
    }

    /// Read access to a node's Polystyrene state, if alive.
    pub fn poly_state(&self, id: NodeId) -> Option<&PolyState<S::Point>> {
        self.nodes.get(id).map(|c| &c.poly)
    }

    /// Messages currently in transit (scheduled but undelivered).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Mutable access to the network model (install partitions, tweak a
    /// custom model mid-run).
    pub fn network_mut(&mut self) -> &mut dyn NetworkModel {
        self.net.as_mut()
    }

    // ------------------------------------------------------------------
    // Traffic plane — application queries over the live fabric
    // ------------------------------------------------------------------

    /// Mutable access to the traffic plane's network model. Partitions
    /// installed on the protocol fabric via [`Self::network_mut`] do not
    /// automatically apply here; [`Self::set_partition`] /
    /// [`Self::heal`] cut and restore both planes at once.
    pub fn traffic_network_mut(&mut self) -> &mut dyn NetworkModel {
        self.traffic_net.as_mut()
    }

    /// Installs a partition on both the protocol and traffic fabrics.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>]) {
        self.net.set_partition(groups);
        self.traffic_net.set_partition(groups);
    }

    /// Heals both fabrics.
    pub fn heal(&mut self) {
        self.net.heal();
        self.traffic_net.heal();
    }

    /// Query messages currently in transit on the traffic fabric.
    pub fn traffic_in_flight(&self) -> usize {
        self.traffic_in_flight
    }

    /// A node's current T-Man view entries, if alive — the hearsay the
    /// traffic plane forwards over and `routing::ViewOracle` is built
    /// from.
    pub fn view_entries_of(&self, id: NodeId) -> Option<&[Descriptor<S::Point>]> {
        self.nodes.get(id).map(|c| c.tman.view_entries())
    }

    /// `(stale, total)` T-Man view entries against ground truth — see
    /// [`NodePool::stale_view_entries`]. A diagnostic, not a metric.
    pub fn stale_view_entries(&self) -> (u64, u64) {
        self.nodes.stale_view_entries()
    }

    /// Injects one query per key at a uniformly random alive gateway.
    /// Co-gateway queries share one [`Wire::QueryBatch`] envelope,
    /// scheduled as a *single* self-addressed kernel event at the
    /// current instant — the start of the next [`Self::step`] — and then
    /// forward hop-by-hop through node views as (batched) messages on
    /// the traffic fabric. Gateways are drawn first, in key order
    /// against one borrow of the alive list — the exact rng stream and
    /// qid assignment of the per-wire path — so batching changes the
    /// envelope count, never a query's gateway or id. Gateway choice and
    /// query transit draw from dedicated streams, so enabling traffic
    /// leaves the protocol history byte-identical.
    pub fn offer_traffic(&mut self, keys: &[S::Point], ttl: u32) {
        if self.nodes.alive_count() == 0 {
            return;
        }
        let mut batch = std::mem::take(&mut self.traffic_batch);
        batch.clear();
        {
            let alive = self.nodes.alive_ids();
            let n = alive.len();
            for idx in 0..keys.len() {
                let gateway = alive[self.traffic_rng.random_range(0..n)];
                self.next_qid += 1;
                batch.push((gateway, self.next_qid, idx));
            }
        }
        batch.sort_unstable();
        let mut at = 0;
        while at < batch.len() {
            let gateway = batch[at].0;
            let mut queries = self.sink.take_queries();
            while at < batch.len() && batch[at].0 == gateway {
                let (_, qid, idx) = batch[at];
                queries.push(QueryItem {
                    qid,
                    origin: gateway,
                    key: keys[idx].clone(),
                    ttl,
                    hops: 0,
                });
                at += 1;
            }
            self.schedule(
                self.now,
                Pending::Deliver {
                    from: gateway,
                    to: gateway,
                    wire: Wire::QueryBatch { queries },
                },
            );
        }
        self.traffic_batch = batch;
    }

    /// The per-wire offer path: one [`Wire::Query`] delivery event per
    /// key. Nothing drives load through it; it stays only as the
    /// reference the batched path must match outcome for outcome
    /// (`batched_offers_match_the_unbatched_outcome_set` in the lab's
    /// `substrates` tests).
    pub fn offer_traffic_unbatched(&mut self, keys: &[S::Point], ttl: u32) {
        if self.nodes.alive_count() == 0 {
            return;
        }
        for key in keys {
            let n = self.nodes.alive_count();
            let gateway = self.nodes.alive_ids()[self.traffic_rng.random_range(0..n)];
            self.next_qid += 1;
            let wire = Wire::Query {
                qid: self.next_qid,
                origin: gateway,
                key: key.clone(),
                ttl,
                hops: 0,
            };
            self.schedule(
                self.now,
                Pending::Deliver {
                    from: gateway,
                    to: gateway,
                    wire,
                },
            );
        }
    }

    /// Drains per-node traffic accounting accumulated since the last
    /// call: returns `(offered, delivered, dropped)` totals and appends
    /// each resolved query's `(hops, latency)` sample to `samples`.
    /// Node clocks advance once per activation here, so latency is in
    /// *rounds* and an unanswered query expires as dropped after
    /// `query_timeout_ticks` rounds.
    pub fn drain_traffic(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64) {
        let mut offered = 0;
        let mut delivered = 0;
        let mut dropped = 0;
        for node in self.nodes.slots_mut().iter_mut().flatten() {
            let (o, de, dr) = node.take_traffic(samples);
            offered += o;
            delivered += de;
            dropped += dr;
        }
        (offered, delivered, dropped)
    }

    // ------------------------------------------------------------------
    // Failure injection — everything is an event
    // ------------------------------------------------------------------

    /// Crashes a node immediately (no-op if already dead): the node stops
    /// processing from this instant, messages already in flight toward it
    /// will evaporate at delivery, and its `Detect` event — the moment
    /// survivors' failure knowledge learns of the crash — fires
    /// `detection_delay_ticks` later.
    pub fn crash(&mut self, id: NodeId) -> bool {
        if self.nodes.remove(id).is_none() {
            return false;
        }
        if self.config.detection_delay_ticks == 0 {
            self.detected.mark(id);
        } else {
            let at = self.now + self.config.detection_delay_ticks;
            self.schedule(at, Pending::Detect { id });
        }
        true
    }

    /// Schedules a crash `in_ticks` simulated time units from now — mid-
    /// round crashes, correlated cascades, anything a script can express
    /// in time rather than rounds.
    pub fn schedule_crash(&mut self, id: NodeId, in_ticks: u64) {
        let at = self.now + in_ticks;
        self.schedule(at, Pending::Crash { id });
    }

    /// Crashes every alive founding node whose original data point
    /// satisfies `predicate` (the shared regional-failure path). Returns
    /// the crashed ids.
    pub fn fail_original_region(
        &mut self,
        predicate: &(dyn Fn(&S::Point) -> bool + Send + Sync),
    ) -> Vec<NodeId> {
        let killed =
            polystyrene_protocol::select_region_victims(&self.original_points, predicate, &|id| {
                self.nodes.contains(id)
            });
        for &id in &killed {
            self.crash(id);
        }
        killed
    }

    /// Crashes a uniformly random fraction of the alive population, with
    /// victim selection shared with the other substrates. Returns the
    /// crashed ids. (The one copy of the alive list is forced by the
    /// shared selector's shuffle-in-place contract.)
    pub fn fail_random_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let killed = polystyrene_protocol::scenario::select_victims(
            self.nodes.alive_ids().to_vec(),
            fraction,
            &mut self.rng,
        );
        for &id in &killed {
            self.crash(id);
        }
        killed
    }

    /// Injects fresh empty nodes at `positions`, bootstrapped from random
    /// alive contacts drawn through the shared
    /// [`polystyrene_protocol::sample_bootstrap_contacts`] path (same
    /// semantics as the cycle engine's inject). Returns the new ids.
    ///
    /// All contact sampling reads the pre-inject population directly off
    /// the pool's alive list (new joiners never bootstrap each other);
    /// positions are borrowed and cloned once, into the node that owns
    /// them.
    pub fn inject(&mut self, positions: &[S::Point]) -> Vec<NodeId> {
        let protocol = self.config.protocol();
        let mut seeds = Vec::with_capacity(positions.len());
        {
            let Self {
                nodes, rng, config, ..
            } = &mut *self;
            let alive = nodes.alive_ids();
            let pos_of = |j: NodeId| nodes.get(j).map(|c| c.poly.pos.clone());
            for _ in positions {
                seeds.push((
                    polystyrene_protocol::sample_bootstrap_contacts(
                        alive,
                        &pos_of,
                        config.rps_view_cap,
                        rng,
                    ),
                    polystyrene_protocol::sample_bootstrap_contacts(
                        alive,
                        &pos_of,
                        config.tman_bootstrap,
                        rng,
                    ),
                ));
            }
        }
        let mut new_ids = Vec::with_capacity(positions.len());
        for (pos, (contacts, boot)) in positions.iter().zip(seeds) {
            let space = self.space.clone();
            let pos = pos.clone();
            let id = self.nodes.insert_with(move |id| {
                ProtocolNode::new(
                    id,
                    space,
                    protocol,
                    PolyState::empty_at(pos),
                    contacts,
                    boot,
                )
            });
            new_ids.push(id);
        }
        new_ids
    }

    // ------------------------------------------------------------------
    // The round loop
    // ------------------------------------------------------------------

    /// Runs one protocol round: every alive node's activation — its full
    /// local phase pipeline, [`ProtocolNode::on_round_into`] — is scheduled at
    /// a random offset within the round's tick span, then the event queue
    /// processes activations and message deliveries interleaved in
    /// `(time, seq)` order up to the round boundary, where the position
    /// refresh runs. Returns the metrics measured at the end of the round.
    ///
    /// The per-node jitter is load-bearing, not cosmetic: gossip
    /// deployments (and PeerSim's event-driven mode) phase-shift node
    /// cycles, and without it every node would open its migration
    /// exchange at the same instant — under any nonzero latency all
    /// requests would then land on responders that are themselves
    /// mid-exchange, and the network would busy-bounce forever.
    pub fn step(&mut self) -> NetRoundMetrics {
        self.round += 1;
        self.cost.reset();
        let round_start = self.now;
        let round_end = round_start + self.config.ticks_per_round;
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend_from_slice(self.nodes.alive_ids());
        order.shuffle(&mut self.rng);
        for &id in &order {
            let offset = self.rng.random_range(0..self.config.ticks_per_round);
            self.schedule(round_start + offset, Pending::Activate { id });
        }
        self.order = order;
        // Everything due before the round boundary — activations, the
        // deliveries they cause, crashes, detections — happens now, in
        // time order; later arrivals stay queued for future rounds.
        self.drain(round_end - 1);
        self.now = round_end;
        self.position_refresh();
        let mut scratch = std::mem::take(&mut self.scratch);
        let metrics = self.measure_into(&mut scratch);
        self.scratch = scratch;
        self.history.push(metrics);
        metrics
    }

    /// Runs `rounds` consecutive rounds.
    pub fn run(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// The paper's per-round position refresh (Sec. IV-B), at the round
    /// boundary: the pool pass the cycle engine runs, charged the same
    /// way, and stopped only by a partition of the protocol fabric (the
    /// module docs say what that models and what it does not). While a
    /// partition is installed `blocked` costs two tree lookups per view
    /// entry; no benchmark workload partitions, so that is unmeasured.
    fn position_refresh(&mut self) {
        let net = &*self.net;
        let changed = self
            .nodes
            .refresh_view_positions(|holder, subject| net.blocked(holder, subject));
        self.cost.tman_units += changed * self.config.cost.units_per_descriptor as u64;
    }

    fn schedule(&mut self, at: u64, what: Pending<S::Point>) {
        if let Pending::Deliver { wire, .. } = &what {
            if wire.channel() == Channel::Query {
                self.traffic_in_flight += 1;
            } else {
                self.in_flight += 1;
            }
        }
        self.queue.push(at, what);
    }

    /// Executes the effects currently in the sink as `origin`'s output:
    /// probes are answered from the kernel's failure knowledge, sends are
    /// routed through the network model. Cascading effects (a probe
    /// answer opening an exchange) flow through one reusable dispatch
    /// queue.
    fn execute(&mut self, origin: NodeId) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.extend(self.sink.drain().map(|e| (origin, e)));
        while let Some((at, effect)) = pending.pop_front() {
            match effect {
                Effect::Probe { peer, channel } => {
                    // Failure *knowledge*, not ground truth: an undetected
                    // crash passes the probe and the exchange later times
                    // out. Partitions deliberately do NOT fail probes —
                    // the probe asks the local failure detector, which a
                    // partition never updates (nothing crashed); the
                    // opened exchange's traffic then vanishes in transit
                    // instead. This keeps partitions non-destructive:
                    // views are not purged, so the fabric heals cleanly
                    // when the mask lifts.
                    let event = if !self.detected.is_failed(peer) {
                        Event::ProbeOk {
                            peer,
                            channel,
                            pos: None,
                        }
                    } else {
                        Event::PeerUnreachable { peer, channel }
                    };
                    let Self {
                        nodes, rng, sink, ..
                    } = &mut *self;
                    let node = nodes.get_mut(at).expect("active node vanished");
                    node.on_event_into(event, rng, sink);
                    pending.extend(self.sink.drain().map(|e| (at, e)));
                }
                Effect::Send { to, wire } => {
                    if wire.channel() == Channel::Query {
                        // Application traffic rides its own fabric and is
                        // metered node-side (a query dropped here simply
                        // never resolves and expires at its origin): the
                        // protocol plane's counters, cost tally and rng
                        // streams are untouched.
                        match self.traffic_net.route(at, to, Channel::Query, self.now) {
                            Fate::Drop => self.sink.recycle_wire(wire),
                            Fate::Deliver { delay } => {
                                let deliver_at = self.now + delay;
                                self.schedule(deliver_at, Pending::Deliver { from: at, to, wire });
                            }
                        }
                        continue;
                    }
                    self.sent_messages += 1;
                    self.cost.charge_wire(&self.config.cost, &wire);
                    match self.net.route(at, to, wire.channel(), self.now) {
                        Fate::Drop => {
                            self.dropped_messages += 1;
                            // Lost in the fabric: the payload buffer goes
                            // back to the sink's pool.
                            self.sink.recycle_wire(wire);
                        }
                        Fate::Deliver { delay } => {
                            let deliver_at = self.now + delay;
                            self.schedule(deliver_at, Pending::Deliver { from: at, to, wire });
                        }
                    }
                }
            }
        }
        self.pending = pending;
    }

    /// Processes every queued event with `at <= limit` in `(at, seq)`
    /// order, advancing the simulated clock to each event's time.
    fn drain(&mut self, limit: u64) {
        while let Some((at, what)) = self.queue.pop_next(limit) {
            self.now = self.now.max(at);
            match what {
                Pending::Detect { id } => {
                    self.detected.mark(id);
                }
                Pending::Crash { id } => {
                    self.crash(id);
                }
                Pending::Activate { id } => {
                    {
                        // Split borrow: `detected` cannot change during
                        // one activation, so the closure reads it in
                        // place — no per-activation snapshot clone.
                        let Self {
                            nodes,
                            detected,
                            rng,
                            sink,
                            ..
                        } = &mut *self;
                        // Crashed since it was scheduled: the activation
                        // evaporates with the node.
                        let Some(node) = nodes.get_mut(id) else {
                            continue;
                        };
                        let fd = |peer: NodeId| detected.is_failed(peer);
                        node.on_round_into(&fd, rng, sink);
                    }
                    if !self.sink.is_empty() {
                        self.execute(id);
                    }
                }
                Pending::Deliver { from, to, wire } => {
                    if wire.channel() == Channel::Query {
                        self.traffic_in_flight -= 1;
                    } else {
                        self.in_flight -= 1;
                    }
                    let delivered = {
                        let Self {
                            nodes, rng, sink, ..
                        } = &mut *self;
                        match nodes.get_mut(to) {
                            Some(node) => {
                                node.on_event_into(Event::Message { from, wire }, rng, sink);
                                true
                            }
                            // A message to a node that died mid-flight
                            // evaporates; its buffer is recycled.
                            None => {
                                sink.recycle_wire(wire);
                                false
                            }
                        }
                    };
                    if delivered && !self.sink.is_empty() {
                        self.execute(to);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Measures the quality metrics over the current state (exhaustive
    /// nearest-node scans off the pool's dense slot arrays). Neither this
    /// pass nor the event queue is where the kernel's time goes: the
    /// PR 11 ledger puts the queue at 12–16 ns per push + pop against
    /// microseconds of protocol work per event.
    ///
    /// Allocates fresh scratch tables; the round loop goes through the
    /// kernel-owned reusable scratch instead.
    pub fn compute_metrics(&self) -> NetRoundMetrics {
        self.measure_into(&mut MeasureScratch::default())
    }

    /// The measurement body, writing its working set into `scratch` so
    /// the per-round path reuses one set of dense tables.
    fn measure_into(&self, scratch: &mut MeasureScratch) -> NetRoundMetrics {
        let n_points = self.original_points.len();
        scratch.reset(n_points);
        let alive_count = self.nodes.alive_count();
        let slots = self.nodes.slots();

        let mut stored = 0usize;
        let mut parked_points = 0usize;
        for &id in self.nodes.alive_ids() {
            let slot = self.nodes.slot_of(id).expect("alive id has a slot") as u32;
            scratch.alive_slots.push(slot);
            let node = slots[slot as usize].as_ref().expect("alive slot occupied");
            for g in &node.poly.guests {
                debug_assert!(g.id.index() < n_points, "guests hold founding points");
                scratch.holders[g.id.index()].push(slot);
                scratch.existing[g.id.index()] = true;
            }
            for pts in node.poly.ghosts.values() {
                for p in pts {
                    scratch.existing[p.id.index()] = true;
                }
            }
            // Mid-handover points physically remain on the responder
            // until the initiator takes custody: they are not lost, and
            // they are *held here* for the homogeneity measurement (the
            // bytes are on this node, whatever the ownership paperwork
            // says).
            for pid in node.parked_point_ids() {
                scratch.holders[pid.index()].push(slot);
                scratch.existing[pid.index()] = true;
                parked_points += 1;
            }
            stored += node.poly.stored_points();
        }

        let pos_of = |slot: u32| {
            &slots[slot as usize]
                .as_ref()
                .expect("holder alive")
                .poly
                .pos
        };
        let mut homogeneity_acc = 0.0;
        let mut surviving = 0usize;
        for point in &self.original_points {
            let holders = &scratch.holders[point.id.index()];
            let candidates: &[u32] = if holders.is_empty() {
                &scratch.alive_slots
            } else {
                holders
            };
            let nearest = candidates
                .iter()
                .map(|&s| self.space.distance(&point.pos, pos_of(s)))
                .fold(f64::INFINITY, f64::min);
            if nearest.is_finite() {
                homogeneity_acc += nearest;
            }
            if scratch.existing[point.id.index()] {
                surviving += 1;
            }
        }
        let homogeneity = if self.original_points.is_empty() || alive_count == 0 {
            f64::INFINITY
        } else {
            homogeneity_acc / self.original_points.len() as f64
        };

        NetRoundMetrics {
            round: self.round,
            alive_nodes: alive_count,
            homogeneity,
            reference_homogeneity: reference_homogeneity(self.config.area, alive_count),
            surviving_points: if self.original_points.is_empty() {
                1.0
            } else {
                surviving as f64 / self.original_points.len() as f64
            },
            points_per_node: if alive_count == 0 {
                0.0
            } else {
                stored as f64 / alive_count as f64
            },
            parked_points,
            in_flight: self.in_flight,
            sent_messages: self.sent_messages,
            dropped_messages: self.dropped_messages,
            cost_per_node: if alive_count == 0 {
                0.0
            } else {
                self.cost.total() as f64 / alive_count as f64
            },
            tman_cost_share: self.cost.tman_share(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_protocol::LinkProfile;
    use polystyrene_space::prelude::*;
    use polystyrene_space::shapes;

    fn tiny_config(seed: u64) -> NetSimConfig {
        let mut cfg = NetSimConfig::default();
        cfg.tman = polystyrene_topology::TManConfig {
            view_cap: 20,
            m: 8,
            psi: 3,
        };
        cfg.poly = PolystyreneConfig::builder().replication(3).build();
        cfg.rps_view_cap = 10;
        cfg.rps_shuffle_len = 5;
        cfg.tman_bootstrap = 5;
        cfg.area = 64.0;
        cfg.seed = seed;
        cfg
    }

    fn tiny_sim(seed: u64, link: LinkProfile) -> NetSim<Torus2> {
        let mut cfg = tiny_config(seed);
        cfg.link = link;
        NetSim::new(Torus2::new(16.0, 4.0), shapes::torus_grid(16, 4, 1.0), cfg)
    }

    #[test]
    fn construction_invariants() {
        let sim = tiny_sim(1, LinkProfile::ideal());
        assert_eq!(sim.alive_count(), 64);
        assert_eq!(sim.original_points().len(), 64);
        for &id in sim.alive_ids() {
            let s = sim.poly_state(id).expect("alive");
            assert_eq!(s.guests.len(), 1);
            assert_eq!(s.guests[0].id.as_u64(), id.as_u64());
        }
        let m = sim.compute_metrics();
        assert!(m.homogeneity.abs() < 1e-12);
        assert_eq!(m.surviving_points, 1.0);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let lossy = LinkProfile {
            latency: 3,
            jitter: 2,
            loss: 0.05,
        };
        let mut a = tiny_sim(7, lossy);
        let mut b = tiny_sim(7, lossy);
        a.run(8);
        b.run(8);
        assert_eq!(a.history(), b.history());
        let mut c = tiny_sim(8, lossy);
        c.run(8);
        assert_ne!(a.history(), c.history());
    }

    #[test]
    fn ideal_link_converges_like_the_engine() {
        let mut sim = tiny_sim(3, LinkProfile::ideal());
        sim.run(15);
        let m = sim.history().last().expect("ran");
        assert!(
            (m.points_per_node - 4.0).abs() < 0.8,
            "expected ≈ 1+K=4 stored points, got {}",
            m.points_per_node
        );
        assert_eq!(m.dropped_messages, 0);
        assert_eq!(m.parked_points, 0, "acks land instantly at zero latency");
    }

    #[test]
    fn latency_defers_deliveries_across_rounds() {
        // Latency of two full rounds: replies straddle round boundaries,
        // so traffic must be in flight at round ends.
        let link = LinkProfile {
            latency: 2 * NetSimConfig::default().ticks_per_round,
            jitter: 4,
            loss: 0.0,
        };
        let mut sim = tiny_sim(4, link);
        sim.run(6);
        assert!(
            sim.history().iter().any(|m| m.in_flight > 0),
            "two-round latency must leave messages in flight at round ends"
        );
        // The protocol still makes progress: points replicate.
        let m = sim.history().last().expect("ran");
        assert!(m.points_per_node > 1.5, "no replication under latency");
    }

    #[test]
    fn catastrophic_failure_recovers_under_loss() {
        let link = LinkProfile {
            latency: 2,
            jitter: 1,
            loss: 0.05,
        };
        let mut sim = tiny_sim(5, link);
        sim.run(12);
        let killed = sim.fail_original_region(&shapes::in_right_half(16.0));
        assert_eq!(killed.len(), 32);
        assert_eq!(sim.alive_count(), 32);
        sim.run(20);
        let m = sim.history().last().expect("ran");
        assert!(
            m.homogeneity < m.reference_homogeneity,
            "failed to reshape under 5% loss: {} vs reference {}",
            m.homogeneity,
            m.reference_homogeneity
        );
        assert!(
            m.surviving_points > 0.8,
            "too many points lost: {}",
            m.surviving_points
        );
        assert!(m.dropped_messages > 0, "5% loss must actually drop");
    }

    #[test]
    fn detection_delay_defers_failure_knowledge() {
        let mut cfg = tiny_config(6);
        // Two full rounds pass before survivors learn of a crash.
        cfg.detection_delay_ticks = cfg.ticks_per_round * 2;
        let mut sim = NetSim::new(Torus2::new(16.0, 4.0), shapes::torus_grid(16, 4, 1.0), cfg);
        sim.run(10);
        sim.crash(NodeId::new(0));
        assert!(
            !sim.detected.is_failed(NodeId::new(0)),
            "crash must not be known before its Detect event"
        );
        sim.run(3);
        assert!(
            sim.detected.is_failed(NodeId::new(0)),
            "Detect event must have fired"
        );
    }

    #[test]
    fn failure_knowledge_matches_a_set_oracle_through_crash_detect_and_inject() {
        use std::collections::BTreeSet;
        let ticks = NetSimConfig::default().ticks_per_round;
        for delay in [0, ticks / 2, 2 * ticks + 3] {
            let mut cfg = tiny_config(13);
            cfg.detection_delay_ticks = delay;
            let mut sim = NetSim::new(Torus2::new(16.0, 4.0), shapes::torus_grid(16, 4, 1.0), cfg);
            // Every crash of the script as `(time it takes effect, id,
            // called directly)`. What the survivors should know at any
            // instant follows from these alone: a direct crash under a
            // zero delay is known at once; anything else once its Detect
            // (or, under a zero delay, its Crash) event has been drained,
            // i.e. is strictly before the current round boundary.
            let mut crashes: Vec<(u64, NodeId, bool)> = Vec::new();
            let check = |sim: &NetSim<Torus2>, crashes: &[(u64, NodeId, bool)], when: &str| {
                let oracle: BTreeSet<NodeId> = crashes
                    .iter()
                    .filter(|&&(at, _, direct)| (direct && delay == 0) || at + delay < sim.now())
                    .map(|&(_, id, _)| id)
                    .collect();
                for probe in (0..80).map(NodeId::new) {
                    assert_eq!(
                        sim.detected.is_failed(probe),
                        oracle.contains(&probe),
                        "delay {delay}, {when}: knowledge of {probe} at t = {}",
                        sim.now()
                    );
                }
            };
            let crash = |sim: &mut NetSim<Torus2>, crashes: &mut Vec<_>, raw: u64| {
                assert!(sim.crash(NodeId::new(raw)));
                crashes.push((sim.now(), NodeId::new(raw), true));
            };
            let crash_later =
                |sim: &mut NetSim<Torus2>, crashes: &mut Vec<_>, raw: u64, dt: u64| {
                    sim.schedule_crash(NodeId::new(raw), dt);
                    crashes.push((sim.now() + dt, NodeId::new(raw), false));
                };

            sim.run(3);
            check(&sim, &crashes, "before any crash");
            crash(&mut sim, &mut crashes, 2);
            crash(&mut sim, &mut crashes, 5);
            assert!(!sim.crash(NodeId::new(2)), "already dead");
            check(&sim, &crashes, "right after two direct crashes");
            sim.step();
            check(&sim, &crashes, "one round later");
            crash_later(&mut sim, &mut crashes, 7, ticks / 2);
            check(&sim, &crashes, "mid-round crash scheduled");
            sim.step();
            check(&sim, &crashes, "mid-round crash fired");
            // Ids issued after construction: beyond anything the table
            // has been sized for so far.
            let fresh = sim.inject(&[[1.5, 1.5], [9.5, 2.5], [12.5, 0.5]]);
            assert_eq!(fresh, [64, 65, 66].map(NodeId::new));
            check(&sim, &crashes, "after inject");
            sim.step();
            crash(&mut sim, &mut crashes, 65);
            crash_later(&mut sim, &mut crashes, 66, 1);
            crash(&mut sim, &mut crashes, 0);
            for round in 0..5 {
                check(&sim, &crashes, &format!("tail round {round}"));
                sim.step();
            }
            check(&sim, &crashes, "end");
            assert_eq!(
                (0..80)
                    .filter(|&i| sim.detected.is_failed(NodeId::new(i)))
                    .count(),
                crashes.len(),
                "every crash of the script is known by the end"
            );
        }
    }

    #[test]
    fn scheduled_crash_fires_mid_round() {
        let mut sim = tiny_sim(7, LinkProfile::ideal());
        sim.run(2);
        sim.schedule_crash(NodeId::new(3), sim.config().ticks_per_round / 2);
        assert_eq!(sim.alive_count(), 64, "not yet");
        sim.step();
        assert_eq!(sim.alive_count(), 63, "crash event fired within the round");
    }

    #[test]
    fn partition_drops_cross_traffic_and_heals() {
        let mut sim = tiny_sim(8, LinkProfile::ideal());
        sim.run(8);
        // Cut node 0 off from everyone.
        sim.network_mut().set_partition(&[vec![NodeId::new(0)]]);
        let before = sim.compute_metrics().dropped_messages;
        sim.run(4);
        let during = sim.compute_metrics().dropped_messages;
        assert!(
            during > before,
            "an isolated node's traffic must be dropped"
        );
        sim.network_mut().heal();
        let healed = sim.compute_metrics().dropped_messages;
        sim.run(4);
        let m = sim.history().last().expect("ran");
        assert_eq!(
            m.dropped_messages, healed,
            "a healed ideal fabric must not drop"
        );
        assert!(
            m.homogeneity < m.reference_homogeneity,
            "healed and settled"
        );
    }

    #[test]
    fn position_refresh_stops_at_a_partition_and_resumes_on_heal() {
        let mut sim = tiny_sim(14, LinkProfile::ideal());
        sim.run(12);
        assert_eq!(sim.stale_view_entries().0, 0, "converged views are current");
        // Cut the torus in two (the right half is "the rest of the
        // network"), then crash the right half's outer columns so its
        // survivors move while the left half cannot hear of it.
        let on_left = |id: NodeId| id.index() % 16 < 8;
        let left: Vec<NodeId> = (0..64).map(NodeId::new).filter(|&id| on_left(id)).collect();
        sim.set_partition(std::slice::from_ref(&left));
        let at_cut: Vec<[f64; 2]> = (0..64)
            .map(|i| sim.poly_state(NodeId::new(i)).expect("alive").pos)
            .collect();
        for id in (0..64).map(NodeId::new).filter(|id| id.index() % 16 >= 12) {
            sim.crash(id);
        }
        let rounds = 6;
        sim.run(rounds);

        // Every view entry whose subject is alive, with the subject's
        // true position: (holder, entry, truth).
        fn audit(sim: &NetSim<Torus2>) -> Vec<(NodeId, Descriptor<[f64; 2]>, [f64; 2])> {
            let mut out = Vec::new();
            for &holder in sim.alive_ids() {
                for entry in sim.view_entries_of(holder).expect("alive") {
                    if let Some(subject) = sim.poly_state(entry.id) {
                        out.push((holder, *entry, subject.pos));
                    }
                }
            }
            out
        }
        let (mut across, mut held_back, mut oldest) = (0, 0, 0);
        for (holder, entry, truth) in audit(&sim) {
            if on_left(holder) == on_left(entry.id) {
                assert_eq!(
                    entry.pos, truth,
                    "{holder} -> {} is on one side of the cut",
                    entry.id
                );
                assert_eq!(entry.age, 0, "refreshed entries are fresh");
                continue;
            }
            across += 1;
            assert!(
                entry.age > 0,
                "{holder} -> {} crossed the cut: age 0",
                entry.id
            );
            oldest = oldest.max(entry.age);
            if truth != at_cut[entry.id.index()] {
                assert_ne!(
                    entry.pos, truth,
                    "{holder} learned {}'s move across the cut",
                    entry.id
                );
                held_back += 1;
            }
        }
        assert!(across > 0, "no view straddles the cut");
        assert!(
            held_back > 0,
            "nobody moved behind the cut: the test shows nothing"
        );
        assert!(
            oldest >= rounds,
            "an entry nothing touched ages once per round"
        );
        let (stale, _) = sim.stale_view_entries();
        assert!(stale >= held_back, "the audit and the diagnostic disagree");

        // Healed: the next round boundary brings every entry up to date.
        sim.heal();
        sim.step();
        for (holder, entry, truth) in audit(&sim) {
            assert_eq!(entry.pos, truth, "{holder} -> {} after heal", entry.id);
            assert_eq!(entry.age, 0);
        }
        assert_eq!(sim.stale_view_entries().0, 0);
    }

    #[test]
    fn injected_nodes_recycle_slots_of_the_dead() {
        let mut sim = tiny_sim(9, LinkProfile::ideal());
        sim.run(3);
        let victim = NodeId::new(5);
        let victim_slot = sim.pool().slot_ref(victim).expect("alive");
        assert!(sim.crash(victim));
        let fresh = sim.inject(&[[3.5, 1.5]]);
        assert_eq!(fresh, vec![NodeId::new(64)], "ids stay monotonic");
        let fresh_slot = sim.pool().slot_ref(fresh[0]).expect("alive");
        assert_eq!(fresh_slot.slot, victim_slot.slot, "slot recycled");
        assert!(fresh_slot.gen > victim_slot.gen, "generation bumped");
        assert!(sim.poly_state(victim).is_none(), "dead id stays dead");
        assert_eq!(sim.alive_count(), 64);
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn empty_shape_rejected() {
        let _ = NetSim::new(Torus2::new(4.0, 4.0), Vec::new(), NetSimConfig::default());
    }

    #[test]
    fn traffic_leaves_protocol_history_untouched() {
        // The byte-identity contract behind the golden fingerprints: a
        // run serving query traffic every round must replay the exact
        // protocol history of a quiet run — same seeds, same lossy link.
        let lossy = LinkProfile {
            latency: 3,
            jitter: 2,
            loss: 0.05,
        };
        let mut quiet = tiny_sim(7, lossy);
        let mut loaded = tiny_sim(7, lossy);
        let keys: Vec<[f64; 2]> = (0..8).map(|i| [i as f64 * 2.0 + 0.5, 1.5]).collect();
        let mut samples = Vec::new();
        for _ in 0..8 {
            quiet.step();
            loaded.offer_traffic(&keys, 32);
            loaded.step();
            loaded.drain_traffic(&mut samples);
        }
        assert_eq!(quiet.history(), loaded.history());
        assert_eq!(quiet.compute_metrics(), loaded.compute_metrics());
    }

    #[test]
    fn queries_resolve_over_a_converged_fabric() {
        let mut sim = tiny_sim(11, LinkProfile::ideal());
        sim.run(12);
        let keys: Vec<[f64; 2]> = (0..16).map(|i| [i as f64 + 0.5, 1.5]).collect();
        let mut samples = Vec::new();
        let (mut offered, mut delivered) = (0, 0);
        for _ in 0..12 {
            sim.offer_traffic(&keys, 32);
            sim.step();
            let (o, d, _) = sim.drain_traffic(&mut samples);
            offered += o;
            delivered += d;
        }
        assert_eq!(offered, 16 * 12, "every query reaches a live gateway");
        assert!(
            delivered as f64 >= 0.99 * offered as f64,
            "converged fabric must serve queries: {delivered}/{offered}"
        );
        assert_eq!(samples.len() as u64, delivered);
        assert!(
            samples.iter().all(|&(hops, _)| hops <= 32),
            "hop counts stay within the ttl"
        );
    }

    #[test]
    fn partitioned_traffic_expires_as_dropped() {
        let mut sim = tiny_sim(12, LinkProfile::ideal());
        sim.run(10);
        // Cut both planes down the middle, then offer traffic: queries
        // whose greedy path crosses the cut vanish on the traffic fabric
        // and expire at their origins as drops.
        let (left, right): (Vec<NodeId>, Vec<NodeId>) =
            sim.alive_ids().iter().partition(|id| id.index() % 16 < 8);
        sim.set_partition(&[left, right]);
        let keys: Vec<[f64; 2]> = (0..16).map(|i| [i as f64 + 0.5, 1.5]).collect();
        let mut samples = Vec::new();
        let (mut offered, mut delivered, mut dropped) = (0, 0, 0);
        // Enough rounds past the query timeout for expiries to land.
        for _ in 0..16 {
            sim.offer_traffic(&keys, 32);
            sim.step();
            let (o, d, dr) = sim.drain_traffic(&mut samples);
            offered += o;
            delivered += d;
            dropped += dr;
        }
        assert!(dropped > 0, "cross-cut queries must expire as dropped");
        assert!(
            delivered + dropped <= offered,
            "conservation: {delivered} + {dropped} vs {offered}"
        );
    }
}
