//! [`ProtocolNode`]: the full per-node Polystyrene stack as one sans-IO
//! state machine.
//!
//! The node owns the three protocol layers of paper Fig. 3 —
//! `PeerSampling` (Cyclon RPS), `TMan` (topology construction) and
//! `PolyState` (the Polystyrene layer proper) — plus the bookkeeping an
//! asynchronous deployment needs (heartbeat records, the one-in-flight
//! migration lock). It performs **no IO**: drivers feed [`Event`]s in and
//! execute the returned [`Effect`]s.
//!
//! Two driving styles are supported by the same code paths:
//!
//! * **phase-wise** ([`ProtocolNode::on_phase_into`]): a cycle-driven engine
//!   activates every node once per phase in a global order, applying
//!   effects synchronously — the PeerSim model of the paper's evaluation.
//!   Entropy is drawn from the driver's RNG in exactly the order the
//!   pre-extraction engine drew it, so seeded histories are bit-identical
//!   (under an RNG-free projection such as the default medoid);
//! * **tick-wise** ([`ProtocolNode::on_tick_into`]): an asynchronous runtime
//!   runs all phases back-to-back on a local timer, with the node's
//!   built-in heartbeat detector supplying failure verdicts and a
//!   post-recovery re-projection compensating for migrations that may
//!   stall (see [`ProtocolNode::on_tick_into`]). The event kernel runs
//!   the same round with its own failure knowledge
//!   ([`ProtocolNode::on_round_into`]). Both asynchronous drivers execute
//!   the effects through one loop, [`ProtocolNode::execute_effects`]:
//!   the driver only says whether a peer is reachable and carries a
//!   send.
//!
//! The traffic plane's greedy routing is one per-query rule,
//! `route_query`: register at the gateway, forward to the strictly
//! closer view entry while the hop budget lasts, else complete at the
//! gateway or answer it. [`Wire::Query`] and [`Wire::QueryBatch`] are two
//! envelopes over it, and every completion goes through
//! `complete_query`.

use crate::config::{ProtocolConfig, MIGRATION_TIMEOUT_TICKS, QUERY_TIMEOUT_TICKS};
use crate::wire::{Channel, Effect, EffectSink, Event, QueryItem, QueryReplyItem, Wire};
use polystyrene::prelude::*;
use polystyrene::recovery::{recover, RecoveryOutcome};
use polystyrene_membership::{Descriptor, NodeId, PeerSampling};
use polystyrene_space::MetricSpace;
use polystyrene_topology::{TMan, TopologyConstruction};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One step of the per-tick protocol pipeline (paper Fig. 4).
///
/// [`ProtocolNode::on_tick_into`] runs them in [`Phase::ALL`] order; the
/// cycle engine walks the same constant, running each phase across the
/// whole population before moving to the next, which is exactly
/// PeerSim's cycle-driven semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Liveness beacons along the backup relationships.
    Heartbeat,
    /// Cyclon shuffle initiation.
    PeerSampling,
    /// T-Man view maintenance and exchange initiation (Step 1' of Fig. 4).
    Topology,
    /// Ghost reactivation (Step 3, Algorithm 2).
    Recovery,
    /// Replica placement and pushes (Steps 2/2', Algorithm 1).
    Backup,
    /// Pull-push data-point exchange initiation (Step 4, Algorithm 3).
    Migration,
}

impl Phase {
    /// Every phase, in execution order: the one round schedule that the
    /// cycle engine, the event kernel and the live node loop all run.
    /// The protocol order is written here and nowhere else.
    pub const ALL: [Phase; 6] = [
        Phase::Heartbeat,
        Phase::PeerSampling,
        Phase::Topology,
        Phase::Recovery,
        Phase::Backup,
        Phase::Migration,
    ];

    /// The phase's snake-case label (ledger rows, reports).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Heartbeat => "heartbeat",
            Phase::PeerSampling => "peer_sampling",
            Phase::Topology => "topology",
            Phase::Recovery => "recovery",
            Phase::Backup => "backup",
            Phase::Migration => "migration",
        }
    }
}

/// Size of the candidate pool drawn per backup round, as a function of
/// the replication factor K: replacements for failed targets must be
/// found even when many draws collide or are already enrolled.
fn backup_pool_size(replication: usize) -> usize {
    replication * 4 + 8
}

/// Bookkeeping of the one in-flight migration exchange (Sec. III-F).
#[derive(Clone, Debug)]
struct PendingMigration {
    partner: NodeId,
    /// Exchange generation: a reply only resolves this exchange if it
    /// echoes the generation (a slower, already-timed-out exchange's
    /// reply takes the late-absorb path instead).
    xid: u64,
    started: u64,
    /// Ids of the guests shipped in the request, sorted for binary
    /// search (the buffer is pooled — guest ids are unique within a
    /// node, so a sorted `Vec` is an exact stand-in for the old
    /// `BTreeSet`). The responder's reply only redistributes *these*
    /// points plus its own — anything the node acquires while the
    /// exchange is in flight (a recovery reactivating ghosts, say) is
    /// unknown to the split and must survive the guest-set replacement
    /// when the reply lands.
    shipped: Vec<PointId>,
}

/// Points a migration responder mailed back to an initiator but does not
/// consider delivered yet. A split moves ownership of these points out of
/// the responder's guest set; over an unreliable transport the carrying
/// [`Wire::MigrationReply`] may never arrive, so they stay parked here
/// until the initiator's [`Wire::MigrationAck`] lands — or are re-adopted
/// after the migration timeout (possibly duplicating them, never losing
/// them).
#[derive(Clone, Debug)]
struct ParkedHandout<P> {
    /// Generation of the exchange that produced this handout; only an
    /// ack echoing it clears the parking (a stale ack from a previous
    /// generation must not release a newer handout whose reply is still
    /// in flight — that would let a subsequent reply drop destroy the
    /// points).
    xid: u64,
    points: Vec<DataPoint<P>>,
    started: u64,
}

/// The full protocol stack of one node, transport-agnostic.
pub struct ProtocolNode<S: MetricSpace> {
    id: NodeId,
    space: S,
    config: ProtocolConfig,
    /// Peer-sampling layer (bottom of paper Fig. 3).
    pub rps: PeerSampling<S::Point>,
    /// Topology-construction layer.
    pub tman: TMan<S>,
    /// The Polystyrene layer: guests, ghosts, backups, position.
    pub poly: PolyState<S::Point>,
    /// Heartbeat bookkeeping: last local tick we heard from a peer.
    last_seen: BTreeMap<NodeId, u64>,
    /// Local protocol clock, advanced by [`ProtocolNode::on_tick_into`] only —
    /// a cycle driver resolves every exchange within one activation, so
    /// it never needs the clock.
    clock: u64,
    /// In-flight migration, if any.
    pending_migration: Option<PendingMigration>,
    /// Exchange-generation counter for migrations this node initiates.
    migration_seq: u64,
    /// Migration-split points handed out but not yet acknowledged, by
    /// initiator (see [`ParkedHandout`]).
    handouts: BTreeMap<NodeId, ParkedHandout<S::Point>>,
    /// Queries this node gatewayed that still await a
    /// [`Wire::QueryReply`], by query id → local clock at issue.
    pending_queries: BTreeMap<u64, u64>,
    /// Queries issued through this gateway since the last drain.
    traffic_offered: u64,
    /// Query completions recorded since the last drain, as
    /// `(hops, latency ticks)` pairs.
    traffic_samples: Vec<(u32, u64)>,
    /// Pending queries written off by lazy timeout since the last drain.
    traffic_dropped: u64,
}

impl<S: MetricSpace> ProtocolNode<S> {
    /// Builds a node around an initial Polystyrene state (founder or
    /// empty joiner), bootstrapping the two gossip layers from the given
    /// contact sets.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ProtocolConfig::validate`].
    pub fn new(
        id: NodeId,
        space: S,
        config: ProtocolConfig,
        poly: PolyState<S::Point>,
        rps_contacts: Vec<Descriptor<S::Point>>,
        tman_contacts: Vec<Descriptor<S::Point>>,
    ) -> Self {
        config.validate();
        let mut rps = PeerSampling::new(config.rps_view_cap, config.rps_shuffle_len);
        rps.bootstrap(rps_contacts);
        let mut tman = TMan::new(space.clone(), config.tman);
        tman.integrate(id, &poly.pos, &tman_contacts);
        Self {
            id,
            space,
            config,
            rps,
            tman,
            poly,
            last_seen: BTreeMap::new(),
            clock: 0,
            pending_migration: None,
            migration_seq: 0,
            handouts: BTreeMap::new(),
            pending_queries: BTreeMap::new(),
            traffic_offered: 0,
            traffic_samples: Vec::new(),
            traffic_dropped: 0,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Local ticks executed so far (zero under a cycle driver).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The partner of the in-flight migration, if one is pending.
    pub fn pending_migration(&self) -> Option<NodeId> {
        self.pending_migration.as_ref().map(|p| p.partner)
    }

    /// Number of migration-split points currently parked awaiting an
    /// initiator's [`Wire::MigrationAck`] (zero under a synchronous
    /// driver, whose acks arrive in the same instant as the replies).
    pub fn parked_points(&self) -> usize {
        self.handouts.values().map(|h| h.points.len()).sum()
    }

    /// The parked handout points' ids. Survival accounting must count
    /// these: mid-handover a point may exist *only* here (the carrying
    /// reply still in flight), yet it is not lost.
    pub fn parked_point_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.handouts
            .values()
            .flat_map(|h| h.points.iter().map(|p| p.id))
    }

    /// Advances the node's local protocol clock by one unit without
    /// running any phase — for drivers (and tests) that pass time
    /// explicitly between individual [`ProtocolNode::on_phase_into`] calls,
    /// so the tick-denominated timeouts (the in-flight migration lock,
    /// the parked-handout re-adoption) make progress.
    ///
    /// Do **not** combine with [`ProtocolNode::on_tick_into`] or
    /// [`ProtocolNode::on_round_into`]: both advance the clock themselves (the
    /// discrete-event network simulator drives nodes through `on_round_into`
    /// alone), and adding this on top would halve every timeout.
    pub fn advance_clock(&mut self) {
        self.clock += 1;
    }

    /// A fresh descriptor of this node at its current position.
    pub fn descriptor(&self) -> Descriptor<S::Point> {
        Descriptor::new(self.id, self.poly.pos.clone())
    }

    /// Whether the built-in heartbeat detector is active. Drivers with an
    /// external detector disable it via `heartbeat_timeout_ticks ==
    /// u32::MAX`, and the node then skips all liveness bookkeeping — a
    /// cycle engine delivering millions of messages must not grow an
    /// O(population) `last_seen` map per node that nothing ever reads.
    fn heartbeats_enabled(&self) -> bool {
        self.config.heartbeat_timeout_ticks != u32::MAX
    }

    /// Records that `peer` showed signs of life just now.
    pub fn heard_from(&mut self, peer: NodeId) {
        if self.heartbeats_enabled() {
            self.last_seen.insert(peer, self.clock);
        }
    }

    /// Starts monitoring `peer` without resetting an existing record.
    fn heard_from_if_new(&mut self, peer: NodeId) {
        if self.heartbeats_enabled() {
            self.last_seen.entry(peer).or_insert(self.clock);
        }
    }

    /// Peers the built-in heartbeat detector currently suspects: monitored
    /// nodes not heard from within `heartbeat_timeout_ticks`. Peers never
    /// monitored draw no opinion — the paper's "possibly imperfect"
    /// detector (Sec. III-A) built from real silence, not an oracle.
    pub fn suspects(&self) -> BTreeSet<NodeId> {
        let timeout = u64::from(self.config.heartbeat_timeout_ticks);
        self.last_seen
            .iter()
            .filter(|&(_, &seen)| self.clock.saturating_sub(seen) > timeout)
            .map(|(&id, _)| id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Traffic plane
    // ------------------------------------------------------------------

    /// Queries gatewayed through this node still awaiting a reply.
    pub fn pending_query_count(&self) -> usize {
        self.pending_queries.len()
    }

    /// Drains the gateway-side traffic counters accumulated since the
    /// last call: appends the `(hops, latency ticks)` completion samples
    /// to `samples` and returns `(offered, delivered, dropped)`.
    ///
    /// Expiry is lazy: pending queries older than
    /// [`QUERY_TIMEOUT_TICKS`] are written off as dropped
    /// here, at observation time, so the timeout never touches the
    /// protocol phases or their entropy.
    pub fn take_traffic(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64) {
        let timeout = u64::from(QUERY_TIMEOUT_TICKS);
        let clock = self.clock;
        let before = self.pending_queries.len();
        self.pending_queries
            .retain(|_, &mut issued| clock.saturating_sub(issued) <= timeout);
        self.traffic_dropped += (before - self.pending_queries.len()) as u64;
        let delivered = self.traffic_samples.len() as u64;
        samples.append(&mut self.traffic_samples);
        let offered = std::mem::take(&mut self.traffic_offered);
        let dropped = std::mem::take(&mut self.traffic_dropped);
        (offered, delivered, dropped)
    }

    /// Writes every still-pending query off as dropped right now — for
    /// atomic (cycle) drivers, whose exchanges resolve within the round
    /// they start in: a query still unanswered at drain time lost a hop
    /// to a stale view entry and can never complete later.
    pub fn expire_all_pending_queries(&mut self) {
        self.traffic_dropped += self.pending_queries.len() as u64;
        self.pending_queries.clear();
    }

    /// The view entry strictly closer to `key` than this node itself —
    /// the next hop of greedy query forwarding. Deterministic (pure
    /// argmin over the T-Man view, no entropy) and strictly improving,
    /// so routes terminate without a visited set.
    ///
    /// The winner is the first entry attaining the least `distance` to
    /// `key` below the node's own. The view is held in rank order (see
    /// [`TMan`]), so an exact tie goes to the entry the holder ranks
    /// first. Entries at one position always tie, and such entries occur
    /// while the shape reshapes: among them the lowest id wins. The scan
    /// runs once per query hop over the whole view, so it compares
    /// squared distances and takes the root only of entries that might
    /// win: `distance` is a
    /// non-decreasing function of `distance_sq` (see
    /// [`MetricSpace::distance_sq`]), hence an entry whose square is
    /// *strictly* above the bar's cannot be strictly below the bar, and
    /// skipping it never changes the answer. Everything else — ties
    /// included, which a rounded root or a rounded square can collapse —
    /// goes through the exact `distance` comparison.
    fn closer_view_entry(&self, key: &S::Point) -> Option<NodeId> {
        // The bar an entry must beat, and that same point's square.
        let mut bar = self.space.distance(&self.poly.pos, key);
        let mut bar_sq = self.space.distance_sq(&self.poly.pos, key);
        let mut best = None;
        for entry in self.tman.view_entries() {
            let sq = self.space.distance_sq(&entry.pos, key);
            if sq > bar_sq {
                continue;
            }
            let d = self.space.distance(&entry.pos, key);
            if d < bar {
                (bar, bar_sq, best) = (d, sq, Some(entry.id));
            }
        }
        best
    }

    /// The per-query rule both query envelopes serve. A query injected at
    /// its own gateway (`origin == self.id`, zero hops) is registered
    /// there. While `hops < ttl` it goes on to the
    /// [`closer_view_entry`](Self::closer_view_entry), one hop more;
    /// otherwise it ends here, completed at its gateway or answered to it
    /// with this node's position. The envelope's `forward` and `answer`
    /// get `sink`, the destination and the outgoing item.
    fn route_query(
        &mut self,
        mut query: QueryItem<S::Point>,
        sink: &mut EffectSink<S::Point>,
        forward: impl FnOnce(&mut EffectSink<S::Point>, NodeId, QueryItem<S::Point>),
        answer: impl FnOnce(&mut EffectSink<S::Point>, NodeId, QueryReplyItem<S::Point>),
    ) {
        let (qid, origin, hops) = (query.qid, query.origin, query.hops);
        if origin == self.id && hops == 0 {
            self.traffic_offered += 1;
            self.pending_queries.insert(qid, self.clock);
        }
        match self.closer_view_entry(&query.key) {
            Some(next) if hops < query.ttl => {
                query.hops += 1;
                forward(sink, next, query);
            }
            // Terminal: nobody in the view is closer (greedy minimum —
            // ideally the key's true closest node) or the budget ran out.
            _ if origin == self.id => self.complete_query(qid, hops, false),
            _ => {
                let pos = self.poly.pos.clone();
                answer(sink, origin, QueryReplyItem { qid, hops, pos });
            }
        }
    }

    /// Completes a query this node gatewayed: forgets `qid` and records
    /// its hops with the gateway ticks since issue when a reply brought
    /// it back (`by_reply`), zero when it ended at the gateway itself. A
    /// qid no longer pending (written off at a drain) records nothing.
    fn complete_query(&mut self, qid: u64, hops: u32, by_reply: bool) {
        if let Some(issued) = self.pending_queries.remove(&qid) {
            let latency = self.clock.saturating_sub(issued);
            let latency = if by_reply { latency } else { 0 };
            self.traffic_samples.push((hops, latency));
        }
    }

    // ------------------------------------------------------------------
    // Driving surface
    // ------------------------------------------------------------------

    /// One full local protocol round for asynchronous drivers: advances
    /// the clock, snapshots the heartbeat detector's verdicts, and runs
    /// every [`Phase`] in order.
    ///
    /// Unlike the phase-wise cycle driver — whose synchronous migration
    /// exchanges re-project every participant within the same round — an
    /// asynchronous node may go rounds without completing a migration
    /// (busy bounces, unreachable candidates), so a recovery that
    /// reactivated ghosts re-projects the position immediately: the
    /// topology layer must not keep advertising coordinates unrelated to
    /// the newly adopted guests.
    ///
    /// Like every entry point, it pushes its effects into a
    /// caller-supplied (and typically reused) sink instead of allocating
    /// a `Vec` per activation.
    pub fn on_tick_into<R: Rng + ?Sized>(&mut self, rng: &mut R, sink: &mut EffectSink<S::Point>) {
        self.clock += 1;
        let suspects = self.suspects();
        let fd = move |id: NodeId| suspects.contains(&id);
        self.run_local_round(&fd, rng, sink);
    }

    /// One full local protocol round with failure verdicts supplied by
    /// the driver — the asynchronous *phase-external* twin of
    /// [`ProtocolNode::on_tick_into`], for drivers that own the failure
    /// knowledge themselves (the discrete-event network simulator feeds
    /// its crash-detection events here) but still deliver effects
    /// asynchronously, so the clock must advance and recoveries must
    /// re-project immediately.
    pub fn on_round_into<R: Rng + ?Sized>(
        &mut self,
        fd: &dyn Fn(NodeId) -> bool,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        self.clock += 1;
        self.run_local_round(fd, rng, sink);
    }

    /// Shared body of [`ProtocolNode::on_tick_into`] / [`ProtocolNode::on_round_into`]:
    /// every phase in order, with the asynchronous-driver recovery rule
    /// (re-project right away — a migration that would otherwise fix the
    /// position may stall for rounds).
    fn run_local_round<R: Rng + ?Sized>(
        &mut self,
        fd: &dyn Fn(NodeId) -> bool,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        for phase in Phase::ALL {
            if phase == Phase::Recovery {
                if !self.recover_ghosts(fd).is_empty() {
                    self.poly.project(&self.space, &self.config.poly, rng);
                }
                continue;
            }
            self.on_phase_into(phase, fd, rng, sink);
        }
    }

    /// One protocol phase, with failure verdicts supplied by the driver —
    /// the cycle-driven entry point (the engine passes its simulated
    /// detector; [`ProtocolNode::on_tick_into`] passes the heartbeat one).
    /// The cycle engine's hot path: one sink serves the whole
    /// population, so the steady state of a phase sweep performs no
    /// effect allocation at all.
    pub fn on_phase_into<R: Rng + ?Sized>(
        &mut self,
        phase: Phase,
        fd: &dyn Fn(NodeId) -> bool,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        match phase {
            Phase::Heartbeat => self.heartbeat_phase(sink),
            Phase::PeerSampling => self.peer_sampling_phase(sink),
            Phase::Topology => self.topology_phase(fd, rng, sink),
            Phase::Recovery => {
                self.recover_ghosts(fd);
            }
            Phase::Backup => self.backup_phase(fd, rng, sink),
            Phase::Migration => self.migration_phase(fd, rng, sink),
        }
    }

    /// Handles one driver event, pushing the follow-up effects.
    pub fn on_event_into<R: Rng + ?Sized>(
        &mut self,
        event: Event<S::Point>,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        match event {
            Event::ProbeOk { peer, channel, pos } => {
                self.open_exchange(peer, channel, pos, rng, sink)
            }
            Event::PeerUnreachable { peer, channel } => {
                self.peer_unreachable(peer, channel);
            }
            Event::Message { from, wire } => {
                self.heard_from(from);
                self.handle_message(from, wire, rng, sink);
            }
        }
    }

    /// Executes a sink's effects the way both asynchronous drivers do,
    /// the event kernel's lanes and the live node loop. The sink's
    /// effects join the back of `effects`, the caller's reusable queue,
    /// and run in FIFO order; the follow-ups each one causes queue
    /// behind them. `effects` is left empty.
    ///
    /// * A probe asks `reachable(peer)` and the node gets
    ///   [`Event::ProbeOk`] with `pos: None` (the peer's position stays
    ///   what the view believes) or [`Event::PeerUnreachable`].
    /// * A send is handed to `send(to, wire)`. A `false`, an observable
    ///   delivery failure, comes back as [`Event::PeerUnreachable`] on
    ///   the wire's channel.
    ///
    /// The cycle engine keeps its own dispatch: it delivers a send to the
    /// destination node within the same call, answers probes from ground
    /// truth with the peer's live position and charges a T-Man request
    /// for an unreachable probe. Sharing this loop would make it branch
    /// on its caller.
    pub fn execute_effects<R: Rng + ?Sized>(
        &mut self,
        effects: &mut VecDeque<Effect<S::Point>>,
        sink: &mut EffectSink<S::Point>,
        rng: &mut R,
        mut reachable: impl FnMut(NodeId) -> bool,
        mut send: impl FnMut(NodeId, Wire<S::Point>) -> bool,
    ) {
        effects.extend(sink.drain());
        while let Some(effect) = effects.pop_front() {
            let event = match effect {
                Effect::Probe { peer, channel } => {
                    if reachable(peer) {
                        Event::ProbeOk {
                            peer,
                            channel,
                            pos: None,
                        }
                    } else {
                        Event::PeerUnreachable { peer, channel }
                    }
                }
                Effect::Send { to, wire } => {
                    let channel = wire.channel();
                    if send(to, wire) {
                        continue;
                    }
                    Event::PeerUnreachable { peer: to, channel }
                }
            };
            self.on_event_into(event, rng, sink);
            effects.extend(sink.drain());
        }
    }

    /// Recovery pass (Algorithm 2): reactivate ghosts of failed holders.
    /// RNG-free and purely local, which is why cycle drivers may fan it
    /// out across cores; [`ProtocolNode::on_phase_into`] routes
    /// [`Phase::Recovery`] here.
    pub fn recover_ghosts(&mut self, fd: &dyn Fn(NodeId) -> bool) -> RecoveryOutcome {
        recover(&mut self.poly, fd)
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    fn heartbeat_phase(&mut self, sink: &mut EffectSink<S::Point>) {
        // No detector, no beacons: when the driver supplies failure
        // verdicts externally (heartbeat_timeout_ticks == u32::MAX),
        // nothing would ever consume these sends.
        if !self.heartbeats_enabled() {
            return;
        }
        // Heartbeats along the backup relationships (Sec. III-A suggests
        // "a reactive ping mechanism, or heartbeats"), one per peer: a
        // backup target that also pushes its replica here gets one, not two.
        let poly = &self.poly;
        let holders_only = poly.ghosts.keys().filter(|&q| !poly.backups.contains(q));
        for peer in poly.backups.keys().chain(holders_only) {
            sink.push(Effect::Send {
                to: peer,
                wire: Wire::Heartbeat,
            });
        }
    }

    fn peer_sampling_phase(&mut self, sink: &mut EffectSink<S::Point>) {
        if let Some(partner) = self.rps.begin_round() {
            sink.push(Effect::Probe {
                peer: partner,
                channel: Channel::PeerSampling,
            });
        }
    }

    fn topology_phase<R: Rng + ?Sized>(
        &mut self,
        fd: &dyn Fn(NodeId) -> bool,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        // Freshen the view: age entries, purge detected failures, and
        // fold in one random RPS descriptor (the random injection that
        // "guarantees the convergence of the topology", Sec. II-B).
        self.tman.begin_round();
        self.tman.purge_failed(&|id| fd(id));
        let random_contact = self.rps.view().random(rng).cloned();
        if let Some(d) = random_contact {
            if !fd(d.id) && d.id != self.id {
                self.tman.integrate(self.id, &self.poly.pos, &[d]);
            }
        }
        if let Some(partner) = self.tman.select_partner(&self.poly.pos, rng) {
            sink.push(Effect::Probe {
                peer: partner,
                channel: Channel::Topology,
            });
        }
    }

    fn backup_phase<R: Rng + ?Sized>(
        &mut self,
        fd: &dyn Fn(NodeId) -> bool,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        let k = self.config.poly.replication;
        // Candidate backup targets come from the random peer-sampling
        // layer (Sec. III-D: "we spread copies as randomly as possible …
        // using the underlying peer-sampling layer"), or from the
        // topology layer for the localized-placement ablation.
        let mut pool = sink.take_ids();
        match self.config.poly.backup_placement {
            BackupPlacement::UniformRandom => {
                self.rps
                    .random_peers_into(backup_pool_size(k), rng, &mut pool)
            }
            BackupPlacement::NeighborhoodBiased => {
                self.tman
                    .closest_ids_into(&self.poly.pos, backup_pool_size(k), &mut pool)
            }
        };
        let mut ids_scratch = sink.pool.take_point_ids();
        let mut pool_iter = pool.drain(..);
        let self_id = self.id;
        let pushes = plan_backups_with(
            &mut self.poly,
            self_id,
            k,
            fd,
            || pool_iter.next(),
            &mut ids_scratch,
            || sink.pool.take_points(),
        );
        drop(pool_iter);
        sink.put_ids(pool);
        sink.pool.put_point_ids(ids_scratch);
        for push in pushes {
            self.heard_from_if_new(push.target);
            sink.push(Effect::Send {
                to: push.target,
                wire: Wire::BackupPush {
                    points: push.points,
                    added_points: push.added_points,
                    removed_ids: push.removed_ids,
                },
            });
        }
    }

    fn migration_phase<R: Rng + ?Sized>(
        &mut self,
        fd: &dyn Fn(NodeId) -> bool,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        // Re-adopt parked handouts whose ack never came: the reply (or
        // its ack) was lost in transit, or the initiator crashed. Taking
        // the points back may duplicate them (if the reply did land) but
        // can never lose them — the at-least-once direction.
        let timeout = u64::from(MIGRATION_TIMEOUT_TICKS);
        let mut ids = sink.take_ids();
        ids.extend(
            self.handouts
                .iter()
                .filter(|(_, h)| self.clock.saturating_sub(h.started) > timeout)
                .map(|(&id, _)| id),
        );
        for id in ids.drain(..) {
            let handout = self.handouts.remove(&id).expect("collected above");
            self.poly.absorb_guests(handout.points);
        }
        // One in-flight exchange at a time (Sec. III-F); a partner that
        // never answered is presumed dead after the timeout.
        if let Some(pending) = &self.pending_migration {
            if self.clock.saturating_sub(pending.started) > timeout {
                self.pending_migration = None;
            }
        }
        if self.pending_migration.is_some() {
            sink.put_ids(ids);
            return;
        }
        // Candidates: the ψ closest topology neighbors plus one random
        // RPS peer (Algorithm 3 lines 1-2) — gathered in the same
        // scratch, empty again after the drain above.
        self.tman
            .closest_ids_into(&self.poly.pos, self.config.tman.psi, &mut ids);
        ids.extend(self.rps.random_peer(rng));
        let self_id = self.id;
        ids.retain(|&c| c != self_id && !fd(c));
        if ids.is_empty() {
            sink.put_ids(ids);
            return;
        }
        let q = ids[rng.random_range(0..ids.len())];
        sink.put_ids(ids);
        sink.push(Effect::Probe {
            peer: q,
            channel: Channel::Migration,
        });
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn open_exchange<R: Rng + ?Sized>(
        &mut self,
        peer: NodeId,
        channel: Channel,
        pos: Option<S::Point>,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        match channel {
            Channel::PeerSampling => {
                let mut descriptors = sink.pool.take_descriptors();
                self.rps
                    .make_request_into(self.descriptor(), peer, rng, &mut descriptors);
                sink.push(Effect::Send {
                    to: peer,
                    wire: Wire::RpsRequest { descriptors },
                });
            }
            Channel::Topology => {
                // Rank the buffer for where the partner actually is (when
                // the driver knows) or where the view believes it is.
                let mut descriptors = sink.pool.take_descriptors();
                let target = match &pos {
                    Some(p) => Some(p),
                    None => self.tman.position_of(peer),
                };
                let Some(target) = target else {
                    sink.pool.put_descriptors(descriptors);
                    return;
                };
                self.tman.prepare_message_into(
                    Descriptor::new(self.id, self.poly.pos.clone()),
                    target,
                    &mut descriptors,
                );
                sink.push(Effect::Send {
                    to: peer,
                    wire: Wire::TManRequest {
                        from_pos: self.poly.pos.clone(),
                        descriptors,
                    },
                });
            }
            Channel::Migration => {
                self.migration_seq += 1;
                let xid = self.migration_seq;
                let mut shipped = sink.pool.take_point_ids();
                shipped.extend(self.poly.guests.iter().map(|g| g.id));
                shipped.sort_unstable();
                self.pending_migration = Some(PendingMigration {
                    partner: peer,
                    xid,
                    started: self.clock,
                    shipped,
                });
                let mut guests = sink.pool.take_points();
                guests.extend(self.poly.guests.iter().cloned());
                sink.push(Effect::Send {
                    to: peer,
                    wire: Wire::MigrationRequest {
                        xid,
                        from_pos: self.poly.pos.clone(),
                        guests,
                    },
                });
            }
            // Backups, heartbeats and queries are fire-and-forget: no
            // probe is ever issued for them, so there is nothing to open.
            Channel::Backup | Channel::Heartbeat | Channel::Query => {}
        }
    }

    fn peer_unreachable(&mut self, peer: NodeId, channel: Channel) {
        match channel {
            Channel::PeerSampling => {
                // Timed-out contact: drop it (Cyclon's self-healing).
                self.rps.remove_failed(|id| id == peer);
            }
            Channel::Topology => {
                self.tman.purge_failed(&|id| id == peer);
            }
            Channel::Migration => {
                if self.pending_migration() == Some(peer) {
                    self.pending_migration = None;
                }
                // A reply we handed points to never made it (the driver
                // saw the delivery fail): re-adopt them right away rather
                // than waiting out the ack timeout.
                if let Some(handout) = self.handouts.remove(&peer) {
                    self.poly.absorb_guests(handout.points);
                }
            }
            Channel::Backup | Channel::Heartbeat | Channel::Query => {
                // Lost replica / beacon / query hop: the heartbeat
                // detector (or the gateway's query timeout) notices the
                // silence; nothing to unwind here.
            }
        }
    }

    fn handle_message<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        wire: Wire<S::Point>,
        rng: &mut R,
        sink: &mut EffectSink<S::Point>,
    ) {
        match wire {
            Wire::Heartbeat => {}
            Wire::RpsRequest { descriptors } => {
                let mut reply = sink.pool.take_descriptors();
                self.rps
                    .handle_request_into(self.id, &descriptors, rng, &mut reply);
                sink.push(Effect::Send {
                    to: from,
                    wire: Wire::RpsReply {
                        sent: descriptors,
                        descriptors: reply,
                    },
                });
            }
            Wire::RpsReply { sent, descriptors } => {
                self.rps.handle_reply(self.id, &sent, &descriptors);
                sink.pool.put_descriptors(sent);
                sink.pool.put_descriptors(descriptors);
            }
            Wire::TManRequest {
                from_pos,
                descriptors,
            } => {
                let mut reply = sink.pool.take_descriptors();
                self.tman
                    .prepare_message_into(self.descriptor(), &from_pos, &mut reply);
                self.tman.integrate(self.id, &self.poly.pos, &descriptors);
                sink.pool.put_descriptors(descriptors);
                sink.push(Effect::Send {
                    to: from,
                    wire: Wire::TManReply { descriptors: reply },
                });
            }
            Wire::TManReply { descriptors } => {
                self.tman.integrate(self.id, &self.poly.pos, &descriptors);
                sink.pool.put_descriptors(descriptors);
            }
            Wire::MigrationRequest {
                xid,
                from_pos,
                guests,
            } => {
                if self.pending_migration.is_some() {
                    // Busy: bounce the guests back untouched (the pairwise
                    // exclusivity requirement of Algorithm 3).
                    sink.push(Effect::Send {
                        to: from,
                        wire: Wire::MigrationReply {
                            xid,
                            points: guests,
                            busy: true,
                            pulled: 0,
                            pushed: 0,
                        },
                    });
                    return;
                }
                // A still-parked handout for the same initiator means our
                // previous reply (or its ack) never made it and the
                // initiator gave up and retried: take those points back
                // into the union before splitting again.
                if let Some(stale) = self.handouts.remove(&from) {
                    self.poly.absorb_guests(stale.points);
                }
                let mut incoming = sink.pool.take_point_ids();
                incoming.extend(guests.iter().map(|g| g.id));
                incoming.sort_unstable();
                let outcome = absorb_and_split(
                    &self.space,
                    &self.config.poly,
                    &mut self.poly,
                    &from_pos,
                    guests,
                    rng,
                );
                // Park the part of the reply only *we* could lose: our own
                // contribution to the split. The initiator's shipped
                // points need no parking — it keeps them until the reply
                // lands (its timeout re-owns them), so re-adopting those
                // too would duplicate the whole shipped set on every lost
                // reply instead of the minimal at-least-once remainder.
                let mut own_contribution = sink.pool.take_points();
                own_contribution.extend(
                    outcome
                        .for_initiator
                        .iter()
                        .filter(|p| incoming.binary_search(&p.id).is_err())
                        .cloned(),
                );
                sink.pool.put_point_ids(incoming);
                if own_contribution.is_empty() {
                    sink.pool.put_points(own_contribution);
                } else {
                    self.handouts.insert(
                        from,
                        ParkedHandout {
                            xid,
                            points: own_contribution,
                            started: self.clock,
                        },
                    );
                }
                sink.push(Effect::Send {
                    to: from,
                    wire: Wire::MigrationReply {
                        xid,
                        points: outcome.for_initiator,
                        busy: false,
                        pulled: outcome.pulled,
                        pushed: outcome.pushed,
                    },
                });
            }
            Wire::MigrationReply {
                xid, points, busy, ..
            } => {
                // Only the reply echoing the *current* generation resolves
                // the pending exchange; a stale reply (we timed out and
                // retried) falls through to the late-absorb path below and
                // must not disturb the newer exchange's state.
                let resolves_pending = self
                    .pending_migration
                    .as_ref()
                    .is_some_and(|p| p.partner == from && p.xid == xid);
                if resolves_pending {
                    let pending = self.pending_migration.take().expect("matched above");
                    if !busy {
                        // Points acquired while the exchange was in
                        // flight survive the adoption (see `adopt_reply`).
                        if let Some(spare) = adopt_reply(&mut self.poly, points, &pending.shipped) {
                            sink.pool.put_points(spare);
                        }
                        self.poly.project(&self.space, &self.config.poly, rng);
                        // Confirm custody so the responder un-parks its
                        // handout instead of re-adopting it at timeout.
                        sink.push(Effect::Send {
                            to: from,
                            wire: Wire::MigrationAck { xid },
                        });
                    } else {
                        // Busy bounce: the points are a subset of guests
                        // we still hold — only the buffer is salvageable.
                        sink.pool.put_points(points);
                    }
                    sink.pool.put_point_ids(pending.shipped);
                } else if !busy {
                    // Late reply after our timeout: the responder already
                    // gave these points away, so we are their only owner —
                    // dropping them would lose data. Absorb instead; any
                    // duplication with our kept guests dedups by id. The
                    // ack carries the stale generation, so it can only
                    // clear *this* reply's handout, never a newer one.
                    self.poly.absorb_guests(points);
                    self.poly.project(&self.space, &self.config.poly, rng);
                    sink.push(Effect::Send {
                        to: from,
                        wire: Wire::MigrationAck { xid },
                    });
                } else {
                    // A stale *busy* bounce is ignored outright: its
                    // points are a subset of guests we still hold.
                    sink.pool.put_points(points);
                }
            }
            Wire::MigrationAck { xid } => {
                // The initiator holds the handed-out points: stop parking —
                // but only for the acknowledged generation.
                if self.handouts.get(&from).is_some_and(|h| h.xid == xid) {
                    if let Some(handout) = self.handouts.remove(&from) {
                        sink.pool.put_points(handout.points);
                    }
                }
            }
            Wire::BackupPush { points, .. } => {
                self.poly.store_ghosts(from, &points);
                sink.pool.put_points(points);
            }
            Wire::Query {
                qid,
                origin,
                key,
                ttl,
                hops,
            } => self.route_query(
                QueryItem {
                    qid,
                    origin,
                    key,
                    ttl,
                    hops,
                },
                sink,
                |sink, to, q| {
                    let wire = Wire::Query {
                        qid: q.qid,
                        origin: q.origin,
                        key: q.key,
                        ttl: q.ttl,
                        hops: q.hops,
                    };
                    sink.push(Effect::Send { to, wire })
                },
                |sink, to, QueryReplyItem { qid, hops, pos }| {
                    let wire = Wire::QueryReply { qid, hops, pos };
                    sink.push(Effect::Send { to, wire })
                },
            ),
            Wire::QueryReply { qid, hops, .. } => self.complete_query(qid, hops, true),
            Wire::QueryBatch { mut queries } => {
                // Every item goes through the one per-query rule; the
                // forwards regroup by next hop and the answers by origin,
                // so one envelope in yields at most one envelope per
                // destination out instead of one effect per query.
                let mut forwards = sink.take_query_groups();
                let mut replies = sink.take_reply_groups();
                for query in queries.drain(..) {
                    self.route_query(
                        query,
                        sink,
                        |sink, to, q| {
                            group_for(&mut forwards, to, || sink.pool.take_queries()).push(q)
                        },
                        |sink, to, r| {
                            group_for(&mut replies, to, || sink.pool.take_replies()).push(r)
                        },
                    );
                }
                sink.pool.put_queries(queries);
                for (to, queries) in forwards.drain(..) {
                    sink.push(Effect::Send {
                        to,
                        wire: Wire::QueryBatch { queries },
                    });
                }
                sink.put_query_groups(forwards);
                for (to, replies) in replies.drain(..) {
                    sink.push(Effect::Send {
                        to,
                        wire: Wire::QueryReplyBatch { replies },
                    });
                }
                sink.put_reply_groups(replies);
            }
            Wire::QueryReplyBatch { mut replies } => {
                for QueryReplyItem { qid, hops, .. } in replies.drain(..) {
                    self.complete_query(qid, hops, true);
                }
                sink.pool.put_replies(replies);
            }
        }
    }
}

/// The buffer of `groups` bound for `to`, opened with `take` (a pooled
/// buffer) on that destination's first item.
fn group_for<T>(
    groups: &mut Vec<(NodeId, Vec<T>)>,
    to: NodeId,
    take: impl FnOnce() -> Vec<T>,
) -> &mut Vec<T> {
    let slot = groups.iter().position(|(dest, _)| *dest == to);
    let slot = slot.unwrap_or_else(|| {
        groups.push((to, take()));
        groups.len() - 1
    });
    &mut groups[slot].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The effects one sink entry point pushes, collected for assertions.
    fn collect(run: impl FnOnce(&mut EffectSink<[f64; 2]>)) -> Vec<Effect<[f64; 2]>> {
        let mut sink = EffectSink::new();
        run(&mut sink);
        sink.drain().collect()
    }

    fn desc(id: u64, x: f64, y: f64) -> Descriptor<[f64; 2]> {
        Descriptor::new(NodeId::new(id), [x, y])
    }

    fn founder(id: u64, x: f64, contacts: Vec<Descriptor<[f64; 2]>>) -> ProtocolNode<Euclidean2> {
        let mut config = ProtocolConfig::default();
        config.rps_view_cap = 8;
        config.rps_shuffle_len = 4;
        config.tman.view_cap = 8;
        config.tman.m = 4;
        config.tman.psi = 2;
        config.poly.replication = 2;
        ProtocolNode::new(
            NodeId::new(id),
            Euclidean2,
            config,
            PolyState::with_initial_point(DataPoint::new(PointId::new(id), [x, 0.0])),
            contacts.clone(),
            contacts,
        )
    }

    /// Synchronous two-node loopback: runs `a`'s effects against `b`,
    /// delivering sends and answering probes from ground truth — a
    /// miniature cycle driver.
    fn loopback(
        a: &mut ProtocolNode<Euclidean2>,
        b: &mut ProtocolNode<Euclidean2>,
        effects: Vec<Effect<[f64; 2]>>,
        rng: &mut StdRng,
    ) {
        let mut queue: Vec<(bool, Effect<[f64; 2]>)> =
            effects.into_iter().map(|e| (true, e)).collect();
        while !queue.is_empty() {
            let (from_a, effect) = queue.remove(0);
            let (me, other) = if from_a {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            match effect {
                Effect::Probe { peer, channel } => {
                    let pos = if peer == other.id() {
                        Some(other.poly.pos)
                    } else {
                        None
                    };
                    let event = if pos.is_some() {
                        Event::ProbeOk { peer, channel, pos }
                    } else {
                        Event::PeerUnreachable { peer, channel }
                    };
                    queue.extend(
                        collect(|sink| me.on_event_into(event, rng, sink))
                            .into_iter()
                            .map(|e| (from_a, e)),
                    );
                }
                Effect::Send { to, wire } => {
                    if to == other.id() {
                        let event = Event::Message {
                            from: me.id(),
                            wire,
                        };
                        queue.extend(
                            collect(|sink| other.on_event_into(event, rng, sink))
                                .into_iter()
                                .map(|e| (!from_a, e)),
                        );
                    }
                    // Sends to anyone else are lost in this two-node world.
                }
            }
        }
    }

    #[test]
    fn full_tick_between_two_nodes_exchanges_all_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0)]);
        let mut b = founder(1, 1.0, vec![desc(0, 0.0, 0.0)]);
        for _ in 0..6 {
            let ea = collect(|sink| a.on_tick_into(&mut rng, sink));
            loopback(&mut a, &mut b, ea, &mut rng);
            let eb = collect(|sink| b.on_tick_into(&mut rng, sink));
            loopback(&mut b, &mut a, eb, &mut rng);
        }
        // Both learned each other on the topology layer…
        assert!(a.tman.view_entries().iter().any(|d| d.id == b.id()));
        assert!(b.tman.view_entries().iter().any(|d| d.id == a.id()));
        // …replication took hold in both directions…
        assert!(!a.poly.ghosts.is_empty() || !b.poly.ghosts.is_empty());
        // …and every data point still has exactly one primary holder.
        assert_eq!(a.poly.guests.len() + b.poly.guests.len(), 2);
    }

    #[test]
    fn unreachable_peer_is_purged_from_both_views() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = founder(0, 0.0, vec![desc(9, 2.0, 0.0)]);
        assert!(a.rps.view().contains(NodeId::new(9)));
        a.on_event_into(
            Event::PeerUnreachable {
                peer: NodeId::new(9),
                channel: Channel::PeerSampling,
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        assert!(!a.rps.view().contains(NodeId::new(9)));
        assert!(a.tman.view_entries().iter().any(|d| d.id == NodeId::new(9)));
        a.on_event_into(
            Event::PeerUnreachable {
                peer: NodeId::new(9),
                channel: Channel::Topology,
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        assert!(a.tman.view_entries().is_empty());
    }

    #[test]
    fn busy_responder_bounces_migration_untouched() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = founder(1, 1.0, vec![desc(0, 0.0, 0.0)]);
        // Put b mid-exchange with node 7.
        let opened = collect(|sink| {
            b.on_event_into(
                Event::ProbeOk {
                    peer: NodeId::new(7),
                    channel: Channel::Migration,
                    pos: None,
                },
                &mut rng,
                sink,
            )
        });
        assert!(matches!(
            opened.as_slice(),
            [Effect::Send {
                wire: Wire::MigrationRequest { .. },
                ..
            }]
        ));
        assert_eq!(b.pending_migration(), Some(NodeId::new(7)));
        let incoming = vec![DataPoint::new(PointId::new(40), [0.5, 0.0])];
        let effects = collect(|sink| {
            b.on_event_into(
                Event::Message {
                    from: NodeId::new(0),
                    wire: Wire::MigrationRequest {
                        xid: 7,
                        from_pos: [0.0, 0.0],
                        guests: incoming.clone(),
                    },
                },
                &mut rng,
                sink,
            )
        });
        match effects.as_slice() {
            [Effect::Send {
                to,
                wire: Wire::MigrationReply { points, busy, .. },
            }] => {
                assert_eq!(*to, NodeId::new(0));
                assert!(busy);
                assert_eq!(points.len(), incoming.len());
            }
            other => panic!("expected a busy bounce, got {other:?}"),
        }
        // b's own guests were not disturbed.
        assert_eq!(b.poly.guests.len(), 1);
    }

    #[test]
    fn migration_splits_conserve_points_and_report_legs() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = founder(1, 10.0, vec![desc(0, 0.0, 0.0)]);
        b.poly
            .absorb_guests(vec![DataPoint::new(PointId::new(30), [9.0, 0.0])]);
        let effects = collect(|sink| {
            b.on_event_into(
                Event::Message {
                    from: NodeId::new(0),
                    wire: Wire::MigrationRequest {
                        xid: 7,
                        from_pos: [0.0, 0.0],
                        guests: vec![DataPoint::new(PointId::new(20), [1.0, 0.0])],
                    },
                },
                &mut rng,
                sink,
            )
        });
        match effects.as_slice() {
            [Effect::Send {
                wire:
                    Wire::MigrationReply {
                        points,
                        busy,
                        pulled,
                        pushed,
                        ..
                    },
                ..
            }] => {
                assert!(!busy);
                assert_eq!(*pulled, 2, "responder contributed its two guests");
                assert_eq!(points.len() + b.poly.guests.len(), 3, "conservation");
                assert_eq!(*pushed, b.poly.guests.len());
            }
            other => panic!("expected a split reply, got {other:?}"),
        }
    }

    /// A responder at x = 10 holding its own point plus one near the
    /// initiator (x = 0.3): the split hands back the shipped point *and*
    /// one the responder contributed — only the latter needs parking.
    fn responder_with_contribution(rng: &mut StdRng) -> ProtocolNode<Euclidean2> {
        let mut b = founder(1, 10.0, vec![desc(0, 0.0, 0.0)]);
        b.poly
            .absorb_guests(vec![DataPoint::new(PointId::new(30), [0.3, 0.0])]);
        let effects = collect(|sink| {
            b.on_event_into(
                Event::Message {
                    from: NodeId::new(0),
                    wire: Wire::MigrationRequest {
                        xid: 7,
                        from_pos: [0.0, 0.0],
                        guests: vec![DataPoint::new(PointId::new(20), [1.0, 0.0])],
                    },
                },
                rng,
                sink,
            )
        });
        match effects.as_slice() {
            [Effect::Send {
                wire: Wire::MigrationReply { points, busy, .. },
                ..
            }] => {
                assert!(!busy);
                assert!(
                    points.iter().any(|p| p.id == PointId::new(30)),
                    "the contributed point must travel to the initiator"
                );
                assert!(
                    points.iter().any(|p| p.id == PointId::new(20)),
                    "the shipped point must come back"
                );
            }
            other => panic!("expected a split reply, got {other:?}"),
        }
        b
    }

    #[test]
    fn split_reply_parks_own_contribution_until_ack() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = responder_with_contribution(&mut rng);
        // Only point 30 is parked: the shipped point 20 stays safe with
        // the initiator until the reply lands, so parking it too would
        // just duplicate it on every lost reply.
        assert_eq!(
            b.parked_point_ids().collect::<Vec<_>>(),
            vec![PointId::new(30)]
        );
        // A stale ack — from an exchange generation the initiator already
        // timed out — must NOT release this handout: its reply may still
        // be dropped, and the parking is the only safety copy.
        b.on_event_into(
            Event::Message {
                from: NodeId::new(0),
                wire: Wire::MigrationAck { xid: 6 },
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        assert_eq!(
            b.parked_points(),
            1,
            "a stale-generation ack must not clear a newer handout"
        );
        let follow_up = collect(|sink| {
            b.on_event_into(
                Event::Message {
                    from: NodeId::new(0),
                    wire: Wire::MigrationAck { xid: 7 },
                },
                &mut rng,
                sink,
            )
        });
        assert!(follow_up.is_empty());
        assert_eq!(b.parked_points(), 0, "ack must clear the handout");
    }

    #[test]
    fn stale_reply_takes_the_late_path_without_touching_the_new_exchange() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0)]);
        // Exchange 1 with node 1, which times out…
        a.on_event_into(
            Event::ProbeOk {
                peer: NodeId::new(1),
                channel: Channel::Migration,
                pos: None,
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        for _ in 0..=MIGRATION_TIMEOUT_TICKS {
            a.advance_clock();
        }
        a.on_phase_into(
            Phase::Migration,
            &|id| id != NodeId::new(1),
            &mut rng,
            &mut EffectSink::new(),
        );
        // …then exchange 2 with the same partner.
        a.on_event_into(
            Event::ProbeOk {
                peer: NodeId::new(1),
                channel: Channel::Migration,
                pos: None,
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        assert_eq!(a.pending_migration(), Some(NodeId::new(1)));
        // The slow reply to exchange 1 finally lands: it must be absorbed
        // via the late path and acked with ITS generation — exchange 2
        // stays pending, so its real reply can still resolve it.
        let effects = collect(|sink| {
            a.on_event_into(
                Event::Message {
                    from: NodeId::new(1),
                    wire: Wire::MigrationReply {
                        xid: 1,
                        points: vec![DataPoint::new(PointId::new(77), [0.5, 0.0])],
                        busy: false,
                        pulled: 1,
                        pushed: 0,
                    },
                },
                &mut rng,
                sink,
            )
        });
        match effects.as_slice() {
            [Effect::Send {
                wire: Wire::MigrationAck { xid },
                ..
            }] => assert_eq!(*xid, 1, "the ack must carry the stale generation"),
            other => panic!("expected a stale-generation ack, got {other:?}"),
        }
        assert!(a.poly.guests.iter().any(|g| g.id == PointId::new(77)));
        assert_eq!(
            a.pending_migration(),
            Some(NodeId::new(1)),
            "the stale reply must not resolve the newer exchange"
        );
    }

    #[test]
    fn unacked_handout_is_readopted_after_timeout() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut b = responder_with_contribution(&mut rng);
        assert_eq!(b.parked_points(), 1);
        // The ack never arrives (reply lost in transit). Past the timeout
        // the migration phase re-adopts the parked contribution.
        for _ in 0..=MIGRATION_TIMEOUT_TICKS {
            b.advance_clock();
        }
        b.on_phase_into(
            Phase::Migration,
            &|_| false,
            &mut rng,
            &mut EffectSink::new(),
        );
        assert_eq!(b.parked_points(), 0);
        assert!(
            b.poly.guests.iter().any(|g| g.id == PointId::new(30)),
            "the contributed point must be owned again"
        );
    }

    #[test]
    fn failed_reply_delivery_readopts_handout_immediately() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = responder_with_contribution(&mut rng);
        assert_eq!(b.parked_points(), 1);
        b.on_event_into(
            Event::PeerUnreachable {
                peer: NodeId::new(0),
                channel: Channel::Migration,
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        assert_eq!(b.parked_points(), 0);
        assert!(
            b.poly.guests.iter().any(|g| g.id == PointId::new(30)),
            "the contributed point must be owned again"
        );
    }

    #[test]
    fn effect_loop_reports_unreachable_peers_and_keeps_fifo_order() {
        let mut rng = StdRng::seed_from_u64(13);
        let (near, gone) = (NodeId::new(1), NodeId::new(9));
        let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0), desc(9, 2.0, 0.0)]);
        assert!(a.tman.view_entries().iter().any(|d| d.id == gone));
        let mut sink = EffectSink::new();
        for effect in [
            Effect::Probe {
                peer: gone,
                channel: Channel::PeerSampling,
            },
            Effect::Probe {
                peer: near,
                channel: Channel::Topology,
            },
            Effect::Send {
                to: gone,
                wire: Wire::TManReply {
                    descriptors: Vec::new(),
                },
            },
            Effect::Send {
                to: near,
                wire: Wire::Heartbeat,
            },
        ] {
            sink.push(effect);
        }
        let (mut queue, mut sent) = (VecDeque::new(), Vec::new());
        a.execute_effects(
            &mut queue,
            &mut sink,
            &mut rng,
            |peer| peer != gone,
            |to, wire| {
                sent.push((to, wire.kind()));
                to != gone
            },
        );
        assert!(queue.is_empty() && sink.is_empty());
        // The unreachable probe purged the RPS view only; the failed
        // send's channel came from its wire, a T-Man one.
        assert!(!a.rps.view().contains(gone));
        assert!(a.tman.view_entries().iter().all(|d| d.id != gone));
        assert!(a.rps.view().contains(near));
        // The reachable probe opened a T-Man exchange, whose request
        // queued behind the two sends that were waiting already.
        assert_eq!(
            sent,
            vec![
                (gone, "tman_reply"),
                (near, "heartbeat"),
                (near, "tman_request")
            ]
        );
    }

    #[test]
    fn heartbeat_silence_raises_suspicion_and_recovery_reactivates() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0)]);
        a.on_event_into(
            Event::Message {
                from: NodeId::new(5),
                wire: Wire::BackupPush {
                    points: vec![DataPoint::new(PointId::new(50), [3.0, 0.0])],
                    added_points: 1,
                    removed_ids: 0,
                },
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        assert!(a.suspects().is_empty());
        // While the ghosts are held, 5 is monitored: the first tick
        // heartbeats it back.
        let effects = collect(|sink| a.on_tick_into(&mut rng, sink));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, wire: Wire::Heartbeat } if *to == NodeId::new(5)
        )));
        // Silence past the heartbeat timeout: suspicion arises and the
        // same tick's recovery phase reactivates the ghosts.
        for _ in 0..=a.config().heartbeat_timeout_ticks {
            a.on_tick_into(&mut rng, &mut EffectSink::new());
        }
        assert!(a.suspects().contains(&NodeId::new(5)));
        assert!(a.poly.ghosts.is_empty());
        assert!(a.poly.guests.iter().any(|g| g.id == PointId::new(50)));
    }

    #[test]
    fn empty_backup_push_keeps_its_holder_monitored() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0)]);
        let push = |points| Event::Message {
            from: NodeId::new(5),
            wire: Wire::BackupPush {
                points,
                added_points: 0,
                removed_ids: 1,
            },
        };
        let one = vec![DataPoint::new(PointId::new(50), [3.0, 0.0])];
        a.on_event_into(push(one), &mut rng, &mut EffectSink::new());
        a.on_event_into(push(Vec::new()), &mut rng, &mut EffectSink::new());
        assert!(
            !a.poly.ghosts.is_empty(),
            "an empty replica keeps its holder"
        );
        assert_eq!(a.poly.stored_points(), 1);
        let effects = collect(|sink| a.on_tick_into(&mut rng, sink));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, wire: Wire::Heartbeat } if *to == NodeId::new(5)
        )));
    }

    #[test]
    fn a_peer_in_both_custody_roles_gets_one_heartbeat_per_tick() {
        let mut rng = StdRng::seed_from_u64(7);
        // 5 is the only contact, so the first tick enrolls it as a backup.
        let mut a = founder(0, 0.0, vec![desc(5, 1.0, 0.0)]);
        a.on_tick_into(&mut rng, &mut EffectSink::new());
        assert!(a.poly.backups.contains(NodeId::new(5)));
        // 5 also replicates its own guests here.
        a.on_event_into(
            Event::Message {
                from: NodeId::new(5),
                wire: Wire::BackupPush {
                    points: vec![DataPoint::new(PointId::new(50), [1.0, 0.0])],
                    added_points: 1,
                    removed_ids: 0,
                },
            },
            &mut rng,
            &mut EffectSink::new(),
        );
        let effects = collect(|sink| a.on_tick_into(&mut rng, sink));
        let beats = effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { to, wire: Wire::Heartbeat } if *to == NodeId::new(5)))
            .count();
        assert_eq!(beats, 1);
    }

    /// What a node sent for the queries it handled, whichever envelope
    /// carried it: `(to, qid, hops, None)` per forward, `(to, qid, hops,
    /// Some(pos))` per answer to a gateway.
    type Sent = (NodeId, u64, u32, Option<[f64; 2]>);

    /// Delivers queries `(qid, origin, key, ttl, hops)`, then replies
    /// `(qid, hops, pos)`, from `from` to `node`: each in its own
    /// `Wire::Query` or `Wire::QueryReply`, or each kind in one batch.
    /// Returns what the node sent, which must travel in the envelope kind
    /// it came in.
    fn deliver(
        node: &mut ProtocolNode<Euclidean2>,
        from: u64,
        queries: &[(u64, u64, [f64; 2], u32, u32)],
        replies: &[(u64, u32, [f64; 2])],
        batched: bool,
        rng: &mut StdRng,
    ) -> Vec<Sent> {
        let from = NodeId::new(from);
        let wires: Vec<Wire<[f64; 2]>> = if batched {
            let queries = queries
                .iter()
                .map(|&(qid, origin, key, ttl, hops)| QueryItem {
                    qid,
                    origin: NodeId::new(origin),
                    key,
                    ttl,
                    hops,
                });
            let replies = replies
                .iter()
                .map(|&(qid, hops, pos)| QueryReplyItem { qid, hops, pos });
            let (queries, replies) = (queries.collect(), replies.collect());
            vec![
                Wire::QueryBatch { queries },
                Wire::QueryReplyBatch { replies },
            ]
        } else {
            let queries = queries
                .iter()
                .map(|&(qid, origin, key, ttl, hops)| Wire::Query {
                    qid,
                    origin: NodeId::new(origin),
                    key,
                    ttl,
                    hops,
                });
            let replies =
                replies
                    .iter()
                    .map(|&(qid, hops, pos)| Wire::QueryReply { qid, hops, pos });
            queries.chain(replies).collect()
        };
        let mut sent = Vec::new();
        for wire in wires {
            let event = Event::Message { from, wire };
            for effect in collect(|sink| node.on_event_into(event, rng, sink)) {
                let Effect::Send { to, wire } = effect else {
                    panic!("a query handler only sends, got {effect:?}");
                };
                match wire {
                    Wire::Query { qid, hops, .. } if !batched => sent.push((to, qid, hops, None)),
                    Wire::QueryReply { qid, hops, pos } if !batched => {
                        sent.push((to, qid, hops, Some(pos)))
                    }
                    Wire::QueryBatch { queries } if batched => {
                        sent.extend(queries.iter().map(|q| (to, q.qid, q.hops, None)))
                    }
                    Wire::QueryReplyBatch { replies } if batched => {
                        sent.extend(replies.iter().map(|r| (to, r.qid, r.hops, Some(r.pos))))
                    }
                    other => panic!("unexpected send (batched {batched}): {other:?}"),
                }
            }
        }
        sent
    }

    /// Injects query `(qid, key, ttl)` at `node` through its own gateway,
    /// as a driver would: a message from the node itself with zero hops.
    fn inject_query(
        node: &mut ProtocolNode<Euclidean2>,
        (qid, key, ttl): (u64, [f64; 2], u32),
        batched: bool,
        rng: &mut StdRng,
    ) -> Vec<Sent> {
        let id = node.id().as_u64();
        deliver(node, id, &[(qid, id, key, ttl, 0)], &[], batched, rng)
    }

    #[test]
    fn query_with_no_closer_neighbor_completes_at_the_gateway() {
        for batched in [false, true] {
            let mut rng = StdRng::seed_from_u64(21);
            // a's only view entry (node 1 at x=1) is farther from the key
            // than a itself: the query terminates locally, zero hops.
            let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0)]);
            let sent = inject_query(&mut a, (7, [-0.4, 0.0], 8), batched, &mut rng);
            assert!(sent.is_empty(), "local completion sends nothing");
            let mut samples = Vec::new();
            let (offered, delivered, dropped) = a.take_traffic(&mut samples);
            assert_eq!((offered, delivered, dropped), (1, 1, 0));
            assert_eq!(samples, vec![(0, 0)]);
            assert_eq!(a.pending_query_count(), 0);
        }
    }

    #[test]
    fn query_forwards_to_the_strictly_closest_view_entry() {
        for batched in [false, true] {
            let mut rng = StdRng::seed_from_u64(22);
            let mut a = founder(0, 0.0, vec![desc(1, 1.0, 0.0), desc(2, 3.0, 0.0)]);
            let sent = inject_query(&mut a, (9, [3.1, 0.0], 8), batched, &mut rng);
            // The argmin of the view, not just any closer entry.
            assert_eq!(sent, vec![(NodeId::new(2), 9, 1, None)]);
            assert_eq!(a.pending_query_count(), 1);
            // The remote terminus answers; the gateway records the completion.
            deliver(&mut a, 2, &[], &[(9, 1, [3.0, 0.0])], batched, &mut rng);
            let mut samples = Vec::new();
            let (offered, delivered, dropped) = a.take_traffic(&mut samples);
            assert_eq!((offered, delivered, dropped), (1, 1, 0));
            assert_eq!(samples, vec![(1, 0)]);
        }
    }

    #[test]
    fn non_origin_terminus_replies_to_the_gateway() {
        for batched in [false, true] {
            let mut rng = StdRng::seed_from_u64(23);
            let mut b = founder(1, 1.0, vec![desc(5, 9.0, 0.0)]);
            // b is the closest to the key among what it can see: terminal.
            let q = (4, 0, [1.2, 0.0], 8, 3);
            let sent = deliver(&mut b, 0, &[q], &[], batched, &mut rng);
            assert_eq!(sent, vec![(NodeId::new(0), 4, 3, Some([1.0, 0.0]))]);
            // Relaying leaves no gateway state behind on the terminus.
            assert_eq!(b.pending_query_count(), 0);
        }
    }

    #[test]
    fn exhausted_ttl_terminates_at_the_current_hop() {
        for batched in [false, true] {
            let mut rng = StdRng::seed_from_u64(24);
            let mut b = founder(1, 1.0, vec![desc(2, 3.0, 0.0)]);
            // Node 2 is strictly closer to the key, but the budget is spent.
            let q = (5, 0, [3.0, 0.0], 2, 2);
            assert_eq!(
                deliver(&mut b, 0, &[q], &[], batched, &mut rng),
                vec![(NodeId::new(0), 5, 2, Some([1.0, 0.0]))],
                "a spent budget must answer from where the query stands"
            );
        }
    }

    #[test]
    fn unanswered_query_is_written_off_at_drain_after_the_timeout() {
        for batched in [false, true] {
            let mut rng = StdRng::seed_from_u64(25);
            let mut a = founder(0, 0.0, vec![desc(2, 3.0, 0.0)]);
            let sent = inject_query(&mut a, (11, [3.0, 0.0], 8), batched, &mut rng);
            assert_eq!(sent.len(), 1, "forwarded into the (lossy) world");
            let mut samples = Vec::new();
            // Drains before the timeout leave the query pending…
            let (offered, delivered, dropped) = a.take_traffic(&mut samples);
            assert_eq!((offered, delivered, dropped), (1, 0, 0));
            assert_eq!(a.pending_query_count(), 1);
            // …and once the gateway's clock passes the timeout, the next
            // drain writes it off as dropped-in-hole.
            for _ in 0..=QUERY_TIMEOUT_TICKS {
                a.advance_clock();
            }
            let (offered, delivered, dropped) = a.take_traffic(&mut samples);
            assert_eq!((offered, delivered, dropped), (0, 0, 1));
            assert!(samples.is_empty());
            assert_eq!(a.pending_query_count(), 0);
        }
    }

    #[test]
    fn both_envelopes_route_the_same_queries_alike() {
        // Twin gateways at x = 0, one per envelope, each handed the same
        // queries from three senders (itself and two remote gateways):
        // keys on a grid around the view, with spent and unspent budgets.
        let view = vec![
            desc(1, 1.0, 0.0),
            desc(2, 3.0, 0.0),
            desc(3, -2.0, 0.0),
            desc(4, 0.0, 2.5),
        ];
        let key = |i: u64| [(i % 7) as f64 - 3.0, (i / 7 % 4) as f64 - 1.0];
        let mut outcomes = Vec::new();
        for batched in [false, true] {
            let mut rng = StdRng::seed_from_u64(26);
            let mut gateway = founder(0, 0.0, view.clone());
            let mut sent = Vec::new();
            for from in [0, 7, 8] {
                let hops = if from == 0 { 0 } else { 2 };
                let ttl = |i: u64| 2 + i as u32 % 2;
                let queries = (0..28).map(|i| (from * 100 + i, from, key(i), ttl(i), hops));
                let queries: Vec<_> = queries.collect();
                let got = deliver(&mut gateway, from, &queries, &[], batched, &mut rng);
                sent.extend(got);
            }
            sent.sort_by_key(|&(to, qid, hops, _)| (to, qid, hops));
            // The forwarded injections come back answered.
            let replies: Vec<_> = sent
                .iter()
                .filter(|s| s.1 < 100)
                .map(|s| (s.1, s.2, [0.5, 0.5]))
                .collect();
            deliver(&mut gateway, 2, &[], &replies, batched, &mut rng);
            let mut samples = Vec::new();
            let counts = gateway.take_traffic(&mut samples);
            samples.sort_unstable();
            outcomes.push((sent, counts, samples));
        }
        let (sent, counts, _) = &outcomes[0];
        let forwards = sent.iter().filter(|s| s.3.is_none()).count();
        assert!(forwards > 0 && forwards < sent.len(), "{sent:?}");
        assert_eq!((counts.0, counts.2), (28, 0));
        assert_eq!(outcomes[0], outcomes[1], "the envelopes disagree");
    }

    #[test]
    fn empty_joiner_initiates_migration_to_attract_points() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut config = ProtocolConfig::default();
        config.rps_view_cap = 8;
        config.rps_shuffle_len = 4;
        config.tman.view_cap = 8;
        config.tman.m = 4;
        config.tman.psi = 2;
        let mut joiner = ProtocolNode::new(
            NodeId::new(3),
            Euclidean2,
            config,
            PolyState::empty_at([0.5, 0.0]),
            vec![desc(0, 0.0, 0.0)],
            vec![desc(0, 0.0, 0.0)],
        );
        let effects =
            collect(|sink| joiner.on_phase_into(Phase::Migration, &|_| false, &mut rng, sink));
        assert!(
            matches!(
                effects.as_slice(),
                [Effect::Probe {
                    channel: Channel::Migration,
                    ..
                }]
            ),
            "a node with no guests must still initiate exchanges (paper Phase 3)"
        );
    }

    /// `closer_view_entry` as it stood before the squared-distance
    /// pre-filter, verbatim: argmin of `distance` with strict `<`, so the
    /// first entry attaining the minimum wins.
    fn closer_view_entry_reference<S: MetricSpace>(
        node: &ProtocolNode<S>,
        key: &S::Point,
    ) -> Option<NodeId> {
        let own = node.space.distance(&node.poly.pos, key);
        let mut best: Option<(NodeId, f64)> = None;
        for entry in node.tman.view_entries() {
            let d = node.space.distance(&entry.pos, key);
            if d < own && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((entry.id, d));
            }
        }
        best.map(|(id, _)| id)
    }

    /// A node at `pos` whose T-Man view holds `view` (ids 1, 2, … in the
    /// given order before T-Man ranks them).
    fn routing_node<S: MetricSpace>(
        space: S,
        pos: S::Point,
        view: Vec<S::Point>,
    ) -> ProtocolNode<S> {
        let contacts: Vec<_> = view
            .into_iter()
            .zip(1u64..)
            .map(|(p, id)| Descriptor::new(NodeId::new(id), p))
            .collect();
        let node = ProtocolNode::new(
            NodeId::new(0),
            space,
            ProtocolConfig::default(),
            PolyState::empty_at(pos),
            Vec::new(),
            contacts.clone(),
        );
        assert_eq!(node.tman.view_entries().len(), contacts.len());
        node
    }

    fn assert_next_hop_matches_reference<S: MetricSpace>(
        node: &ProtocolNode<S>,
        keys: &[S::Point],
    ) {
        for key in keys {
            assert_eq!(
                node.closer_view_entry(key),
                closer_view_entry_reference(node, key),
                "next hop toward {key:?} from {:?} over {:?}",
                node.poly.pos,
                node.tman.view_entries()
            );
        }
    }

    #[test]
    fn next_hop_breaks_exact_ties_like_the_reference_argmin() {
        // Four entries at distance exactly 5 from the origin (two of them
        // co-located), two whose *squares* sit an ulp either side of 25
        // but whose roots round to the same 5.0, and one strictly
        // farther.
        let above = [3.0000000000000004, 4.0];
        let below = [3.0, 3.9999999999999996];
        let origin = [0.0, 0.0];
        assert!(Euclidean2.distance_sq(&above, &origin) > 25.0);
        assert!(Euclidean2.distance_sq(&below, &origin) < 25.0);
        assert_eq!(Euclidean2.distance(&above, &origin), 5.0);
        assert_eq!(Euclidean2.distance(&below, &origin), 5.0);
        let ring_of_five = vec![
            [3.0, 4.0],
            above,
            [4.0, 3.0],
            [3.0, 4.0],
            below,
            [-5.0, 0.0],
            [6.0, 0.0],
        ];
        for rotate in 0..ring_of_five.len() {
            let mut view = ring_of_five.clone();
            view.rotate_left(rotate);
            let node = routing_node(Euclidean2, [7.0, 0.0], view.clone());
            assert_next_hop_matches_reference(&node, &[[0.0, 0.0], [3.0, 4.0], [7.0, 0.0]]);
            // The same ties across the torus seam.
            let seam = |p: [f64; 2]| [(p[0] + 80.0) % 80.0, (p[1] + 40.0) % 40.0];
            let node = routing_node(
                Torus2::new(80.0, 40.0),
                seam([7.0, 0.0]),
                view.iter().copied().map(seam).collect(),
            );
            assert_next_hop_matches_reference(&node, &[[0.0, 0.0], [79.5, 39.5], [40.0, 20.0]]);
        }
        // Ring: mirror images around the key are exact ties.
        let node = routing_node(
            Ring::new(100.0),
            50.0,
            vec![3.0, 97.0, 3.0, 10.0, 90.0, 99.5, 0.5],
        );
        assert_next_hop_matches_reference(&node, &[0.0, 100.0, 50.0, 3.0, 98.25]);
    }

    #[test]
    fn next_hop_is_none_when_no_entry_is_strictly_closer() {
        // Co-located with the node, or as far as the node: not a hop.
        let node = routing_node(
            Euclidean2,
            [5.0, 0.0],
            vec![[5.0, 0.0], [0.0, 5.0], [9.0, 9.0]],
        );
        assert_eq!(node.closer_view_entry(&[0.0, 0.0]), None);
        assert_next_hop_matches_reference(&node, &[[0.0, 0.0], [5.0, 0.0]]);
        // A NaN key orders nothing.
        assert_eq!(node.closer_view_entry(&[f64::NAN, 0.0]), None);
        assert_next_hop_matches_reference(&node, &[[f64::NAN, 0.0]]);
    }

    mod next_hop_properties {
        use super::*;
        use proptest::prelude::*;

        /// Lattice coordinates: few distinct values, so views are full of
        /// co-located entries and exact distance ties.
        fn lattice(cells: u32, step: f64) -> impl Strategy<Value = f64> {
            (0..cells).prop_map(move |c| f64::from(c) * step)
        }

        fn lattice2(nx: u32, ny: u32, step: f64) -> impl Strategy<Value = [f64; 2]> {
            [lattice(nx, step), lattice(ny, step)].prop_map(|[x, y]| [x, y])
        }

        proptest! {
            #[test]
            fn torus_next_hop_matches_reference(
                pos in lattice2(16, 8, 0.5),
                view in proptest::collection::vec(lattice2(16, 8, 0.5), 0..60),
                keys in proptest::collection::vec(lattice2(32, 16, 0.25), 1..8),
            ) {
                let node = routing_node(Torus2::new(8.0, 4.0), pos, view);
                assert_next_hop_matches_reference(&node, &keys);
            }

            #[test]
            fn ring_next_hop_matches_reference(
                pos in lattice(40, 0.1),
                view in proptest::collection::vec(lattice(40, 0.1), 0..60),
                keys in proptest::collection::vec(lattice(80, 0.05), 1..8),
            ) {
                let node = routing_node(Ring::new(4.0), pos, view);
                assert_next_hop_matches_reference(&node, &keys);
            }

            #[test]
            fn euclidean_next_hop_matches_reference(
                pos in lattice2(12, 12, 1.0),
                view in proptest::collection::vec(lattice2(12, 12, 1.0), 0..60),
                keys in proptest::collection::vec(lattice2(24, 24, 0.5), 1..8),
            ) {
                let node = routing_node(Euclidean2, pos, view);
                assert_next_hop_matches_reference(&node, &keys);
            }

            #[test]
            fn continuous_torus_next_hop_matches_reference(
                pos in [0.0..80.0f64, 0.0..40.0f64],
                view in proptest::collection::vec([0.0..80.0f64, 0.0..40.0f64], 0..100),
                keys in proptest::collection::vec([0.0..80.0f64, 0.0..40.0f64], 1..8),
            ) {
                let node = routing_node(Torus2::new(80.0, 40.0), pos, view);
                assert_next_hop_matches_reference(&node, &keys);
            }
        }
    }
}
