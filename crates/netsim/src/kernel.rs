//! The discrete-event kernel: a calendar future-event queue driving the
//! sans-IO protocol stack through an explicit network model.
//!
//! Where the cycle engine applies every [`Effect::Send`] synchronously —
//! the atomic pairwise exchange of PeerSim's cycle-driven mode — this
//! kernel hands each send to a [`FaultyNetwork`] and schedules the
//! delivery as a future event keyed by `(deliver_at, seq)`: messages can
//! arrive later in the round, in a *later round*, out of order with
//! respect to other links, or never (loss, partitions). Crashes and
//! their detection are events too: a crash at time `t` enters the
//! survivors' failure knowledge only when its `Detect` event fires at
//! `t + detection_delay_ticks` (at once when that is 0, as on the cycle
//! engine).
//!
//! The protocol stack is the unchanged [`ProtocolNode`] both other
//! substrates drive, and the kernel stands on the same ground truth as
//! the cycle engine: a [`World`] — the dense
//! [`NodePool`](polystyrene_protocol::pool::NodePool) slab, the founding
//! shape, the kernel's stream, the failure knowledge — with the
//! founding, victim selection, position refresh and census written once
//! there. The kernel derefs to it for every read; its own are the
//! calendar queue, the lanes, both fabrics and the per-node streams.
//!
//! Reachability probes are answered from the *kernel's failure
//! knowledge* (what has been detected so far) — not from ground truth,
//! so an undetected crash lets exchanges start and then time out,
//! exactly as a deployment would experience it. Partitions never fail a
//! probe: nothing crashed, so the failure detector has nothing to say —
//! the opened exchange's traffic simply vanishes in the fabric, and
//! views survive the window intact (see `Lane::serve`).
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
//!   cycle engine also runs, [`World::refresh_positions`]: each
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
//! the protocol fabric's [`FaultyNetwork::blocked`] separates holder and
//! subject, and picked up at the first round boundary after the heal.
//! Entries naming dead subjects are never refreshed; they age until
//! the failure knowledge purges them. Link loss and latency do not
//! apply to it: a lossy link delays gossip, not this pass.
//!
//! The hot loop is allocation-free in steady state: future events live
//! in a [`CalendarQueue`], per-tick lists threaded through one slab of
//! event cells that a pop frees for the next push (so it holds as many
//! cells as were ever queued at once, not a ring of buckets each sized
//! for its busiest tick), node effects are pushed into the lanes'
//! [`EffectSink`]s and dispatched through their reusable queues by
//! [`ProtocolNode::execute_effects`], and the
//! per-round measurement pass is the World's census
//! ([`World::measure`]), whose dense point-id-indexed tables are kept
//! from round to round.
//!
//! # Determinism
//!
//! Identical configurations replay bit-identical histories, on any
//! number of cores — pinned by `tests/golden_history.rs`. Four kinds
//! of seeded stream, one per kind of decision:
//!
//! * the **kernel's** (`seed`) draws bootstrap contacts, each round's
//!   activation order and offsets, and random victims;
//! * every **node's own** ([`node_seed`]`(seed, id)`, the rule the live
//!   substrates use) draws everything its handlers decide: gossip
//!   partners, shuffles, backup candidates, projections;
//! * the **protocol fabric's** and the **traffic fabric's** draw each
//!   message's fate.
//!
//! They are separate generators, not all separate sequences:
//! `node_seed(seed, 0)` is `seed`, so node 0's handlers replay the
//! numbers the kernel's stream spends on bootstrap contacts and
//! activation orders (the live substrates' rule, kept value for value;
//! a tag mixed into it would re-pin their goldens as well). Replay does
//! not lean on the two being distinct; that node 0's choices are
//! independent of the driver's is not claimed.
//!
//! A handler touches its node, its node's stream, the read-only failure
//! knowledge and a buffer pool, and probes are answered from that
//! knowledge without looking at the peer. So the activations and
//! deliveries queued for one tick — a *wave* — cannot observe each
//! other's outcome, except through a node they share, and are served in
//! parallel *lanes* that each own a contiguous chunk of the node slots
//! and serve their nodes' events in wave order.
//!
//! Order lives in the sequential merge stage that follows: every send
//! is tagged with the position of the event that caused it, and the
//! sends are counted, charged, given a fate and queued in that order —
//! the two fabric streams are drawn in event order, and zero-latency
//! sends land at the back of the tick's bucket to form the next wave,
//! exactly as a one-event-at-a-time FIFO would have it. Crashes and
//! detections, which do change what later handlers see, are applied
//! between runs of a wave, never inside one.
//!
//! The lane count (the machine's parallelism) therefore decides which
//! thread runs a handler and nothing a handler can see: one lane on one
//! core is the same history as seven on two
//! (`lane_count_never_shows`). Which pool a buffer retires into does
//! depend on it, and is not protocol state.

use crate::metrics::NetRoundMetrics;
use crate::queue::CalendarQueue;
use polystyrene_membership::{FailureTable, NodeId};
use polystyrene_protocol::observe::RoundObservation;
use polystyrene_protocol::{
    node_seed, par, region_ids, Channel, Effect, EffectSink, Event, Fate, FaultyNetwork,
    ProtocolNode, SubstrateConfig, Wire, World, TRAFFIC_SEED_TAG,
};
use polystyrene_space::MetricSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Deref;

/// Seed offset separating the network model's entropy stream from the
/// kernel's, so link faults and protocol randomness never interleave.
const NET_SEED_TAG: u64 = 0x6e65_7473_696d; // "netsim"

/// Events that justify a lane: a wave is spread over one lane per
/// `LANE_LOAD` events it holds (at most one per core), and a run is
/// served on worker threads once it holds two lanes' worth. Starting and
/// joining a thread costs what a few dozen handlers do; below this, and
/// so for the whole of a small population's run (the unit tests, the
/// 256-node allocation and heap gates), everything stays on lane 0 and
/// the calling thread. The outcome is the same either way.
const LANE_LOAD: usize = 128;

/// A queued future event. The tick it fires at and its position within
/// that tick are carried by the [`CalendarQueue`] (bucket + list
/// position), not stored per event.
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

/// One `Activate` or `Deliver` of the run being served, staged on the
/// lane that owns its node.
struct Staged<P> {
    /// Position in the run — the order the merge stage restores.
    index: u32,
    /// The node's slot, counted from the start of the lane's chunk.
    slot: u32,
    /// The sender and payload to deliver; `None` for an activation.
    message: Option<(NodeId, Wire<P>)>,
}

/// A send a staged event caused, waiting for the merge stage.
struct Outbound<P> {
    /// [`Staged::index`] of the event that caused it.
    index: u32,
    from: NodeId,
    to: NodeId,
    wire: Wire<P>,
}

/// A worker's share of a run: the events of the nodes in one contiguous
/// chunk of the slot array, and everything serving them needs besides
/// the nodes and their entropy — all reusable scratch.
struct Lane<S: MetricSpace> {
    /// The effect buffer and payload pool this lane's nodes push into.
    /// Lane 0's doubles as the kernel's own (query offers, wires that
    /// die in the merge stage).
    sink: EffectSink<S::Point>,
    events: Vec<Staged<S::Point>>,
    /// Dispatch queue of the event being served
    /// ([`ProtocolNode::execute_effects`]): a probe's answer can append
    /// further effects behind the ones already waiting.
    effects: VecDeque<Effect<S::Point>>,
    /// Sends caused so far, ascending in `index`.
    out: VecDeque<Outbound<S::Point>>,
}

impl<S: MetricSpace> Lane<S> {
    fn new() -> Self {
        Self {
            sink: EffectSink::new(),
            events: Vec::new(),
            effects: VecDeque::new(),
            out: VecDeque::new(),
        }
    }

    /// Serves the staged events in order against this lane's chunk of
    /// the slot array and of the rng slab: every handler runs on its own
    /// node with that node's entropy, probes are answered on the spot
    /// from the failure knowledge, and the sends pile up in `out`.
    fn serve(
        &mut self,
        nodes: &mut [Option<ProtocolNode<S>>],
        rngs: &mut [StdRng],
        detected: &FailureTable,
    ) {
        let Self {
            sink,
            events,
            effects,
            out,
        } = self;
        let fd = |peer: NodeId| detected.is_failed(peer);
        for Staged {
            index,
            slot,
            message,
        } in events.drain(..)
        {
            let node = nodes[slot as usize]
                .as_mut()
                .expect("staged for a live node");
            let rng = &mut rngs[slot as usize];
            match message {
                None => node.on_round_into(&fd, rng, sink),
                Some((from, wire)) => node.on_event_into(Event::Message { from, wire }, rng, sink),
            }
            let from = node.id();
            // Failure *knowledge*, not ground truth: an undetected crash
            // passes the probe and the exchange later times out.
            // Partitions deliberately do NOT fail probes — the probe asks
            // the local failure detector, which a partition never updates
            // (nothing crashed); the opened exchange's traffic then
            // vanishes in transit instead. This keeps partitions
            // non-destructive: views are not purged, so the fabric heals
            // cleanly when the mask lifts. Every send succeeds here: its
            // fate is drawn in the merge stage.
            node.execute_effects(
                effects,
                sink,
                rng,
                |peer| !detected.is_failed(peer),
                |to, wire| {
                    out.push_back(Outbound {
                        index,
                        from,
                        to,
                        wire,
                    });
                    true
                },
            );
        }
    }
}

/// The kernel's configuration under its old name, kept while the
/// repository benchmark names it: the one [`SubstrateConfig`]. The
/// kernel reads `tman`, `poly`, `area`, `seed`, `link`,
/// `ticks_per_round` and `detection_delay_ticks`.
pub type NetSimConfig = SubstrateConfig;

/// The discrete-event network simulator — the third execution substrate,
/// between the cycle engine (deterministic, atomic exchanges) and the
/// threaded runtime (real asynchrony, no determinism): deterministic
/// *and* asynchronous. A [`World`] plus an event fabric; derefs to its
/// `World` for every read of the population.
///
/// # Example
///
/// ```
/// use polystyrene_netsim::prelude::*;
/// use polystyrene_space::prelude::*;
///
/// let mut cfg = SubstrateConfig::default();
/// cfg.area = 32.0;
/// cfg.link.loss = 0.05; // 5% of messages vanish in transit
/// let mut sim = NetSim::new(Torus2::new(8.0, 4.0), shapes::torus_grid(8, 4, 1.0), cfg);
/// let m = sim.step();
/// assert_eq!(m.alive_nodes, 32);
/// ```
pub struct NetSim<S: MetricSpace> {
    world: World<S>,
    config: SubstrateConfig,
    net: FaultyNetwork,
    /// The fabric application-plane queries ride. A separate
    /// fault/jitter stream from `net`, so query traffic never perturbs
    /// the protocol plane's draw order — golden histories stay
    /// byte-identical with traffic enabled.
    traffic_net: FaultyNetwork,
    /// Query messages currently in transit — kept out of `in_flight`,
    /// which feeds the pinned protocol metric history.
    traffic_in_flight: usize,
    queue: CalendarQueue<Pending<S::Point>>,
    now: u64,
    /// Every node's private entropy stream, slot-indexed beside the
    /// pool's slot array and seeded by [`node_seed`] when the slot is
    /// filled (slots recycle, streams do not).
    rngs: Vec<StdRng>,
    /// The lanes a run's events are spread over — as many as the machine
    /// runs threads, never empty; a wave uses as many of them as it has
    /// work for. How many there are decides which thread serves a node
    /// and nothing else.
    lanes: Vec<Lane<S>>,
    /// Events staged on the lanes for the run being assembled.
    staged: usize,
    /// Runs served on worker threads so far.
    parallel_runs: u64,
    history: Vec<NetRoundMetrics>,
    sent_messages: u64,
    dropped_messages: u64,
    /// Messages currently in transit (scheduled, not yet popped).
    in_flight: usize,
}

impl<S: MetricSpace> Deref for NetSim<S> {
    type Target = World<S>;

    fn deref(&self) -> &World<S> {
        &self.world
    }
}

impl<S: MetricSpace> NetSim<S> {
    /// Builds a network of `shape.len()` nodes, node `i` founding data
    /// point `i` at `shape[i]` — the same founding convention as the
    /// other substrates — with both fabrics (protocol and traffic plane)
    /// built from `config.link` ([`World::found`]).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or the configuration is invalid.
    pub fn new(space: S, shape: Vec<S::Point>, config: SubstrateConfig) -> Self {
        let world = World::found(space, &shape, &config);
        // Founding slots are positional, and so is the rng slab.
        let rngs = world
            .alive_ids()
            .iter()
            .map(|&id| StdRng::seed_from_u64(node_seed(config.seed, id)))
            .collect();
        Self {
            world,
            config,
            net: FaultyNetwork::new(config.link, config.seed ^ NET_SEED_TAG),
            traffic_net: FaultyNetwork::new(config.link, config.seed ^ TRAFFIC_SEED_TAG),
            traffic_in_flight: 0,
            queue: CalendarQueue::new(),
            now: 0,
            rngs,
            lanes: (0..par::threads()).map(|_| Lane::new()).collect(),
            staged: 0,
            parallel_runs: 0,
            history: Vec::new(),
            sent_messages: 0,
            dropped_messages: 0,
            in_flight: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SubstrateConfig {
        &self.config
    }

    /// Per-round metric history.
    pub fn history(&self) -> &[NetRoundMetrics] {
        &self.history
    }

    /// Messages currently in transit (scheduled but undelivered).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Runs of events served on worker threads so far — a diagnostic for
    /// tests and the bench gates, not part of any history: zero on one
    /// core, and while no run holds two lanes' worth of events.
    #[doc(hidden)]
    pub fn parallel_runs(&self) -> u64 {
        self.parallel_runs
    }

    // ------------------------------------------------------------------
    // Traffic plane — application queries over the live fabric
    // ------------------------------------------------------------------

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
        self.world
            .gateways
            .group(self.world.pool.alive_ids(), keys.len());
        while let Some((gateway, queries)) = self
            .world
            .gateways
            .next_batch(keys, ttl, |_| self.lanes[0].sink.pool.take_queries())
        {
            self.schedule(
                self.now,
                Pending::Deliver {
                    from: gateway,
                    to: gateway,
                    wire: Wire::QueryBatch { queries },
                },
            );
        }
    }

    /// The per-wire offer path: one [`Wire::Query`] delivery event per
    /// key. Nothing drives load through it; it stays only as the
    /// reference the batched path must match outcome for outcome
    /// (`batched_offers_match_the_unbatched_outcome_set` in the lab's
    /// `substrates` tests).
    pub fn offer_traffic_unbatched(&mut self, keys: &[S::Point], ttl: u32) {
        for key in keys {
            let Some((gateway, qid)) = self.world.gateways.draw(self.world.pool.alive_ids()) else {
                break;
            };
            let wire = Wire::Query {
                qid,
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
    /// [`QUERY_TIMEOUT_TICKS`](polystyrene_protocol::config::QUERY_TIMEOUT_TICKS)
    /// rounds.
    pub fn drain_traffic(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64) {
        self.world.pool.drain_traffic(samples)
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
        if self.world.pool.remove(id).is_none() {
            return false;
        }
        if self.config.detection_delay_ticks == 0 {
            self.world.detected.mark(id);
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
    /// satisfies `predicate`. The victims are the founders' [`region_ids`], crashed in
    /// ascending order, the dead ones skipped. Returns the crashed ids.
    pub fn fail_original_region(
        &mut self,
        predicate: &(dyn Fn(&S::Point) -> bool + Send + Sync),
    ) -> Vec<NodeId> {
        let founders = self.world.original_points.iter().map(|p| &p.pos);
        region_ids(founders, predicate)
            .into_iter()
            .filter(|&id| self.crash(id))
            .collect()
    }

    /// Crashes a uniformly random fraction of the alive population,
    /// drawn by the World's [`random_victims`](World::random_victims).
    /// Returns the crashed ids.
    pub fn fail_random_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let killed = self.world.random_victims(fraction);
        for &id in &killed {
            self.crash(id);
        }
        killed
    }

    /// Injects fresh empty nodes at `positions`, bootstrapped from random
    /// alive contacts through the World's two-pass [`World::join`] (the
    /// cycle engine's inject; joiners never bootstrap each other), each
    /// with its own stream. Returns the new ids.
    pub fn inject(&mut self, positions: &[S::Point]) -> Vec<NodeId> {
        let ids = self.world.join(positions);
        for &id in &ids {
            // A recycled slot still holds its previous occupant's stream;
            // fresh slots are issued in ascending order.
            let slot = self.world.pool.slot_of(id).expect("just inserted");
            let rng = StdRng::seed_from_u64(node_seed(self.config.seed, id));
            match self.rngs.get_mut(slot) {
                Some(stream) => *stream = rng,
                None => self.rngs.push(rng),
            }
        }
        debug_assert_eq!(self.rngs.len(), self.world.pool.slot_count());
        ids
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
        self.world.begin_round();
        let round_start = self.now;
        let round_end = round_start + self.config.ticks_per_round;
        let order = self.world.shuffled_order();
        for &id in &order {
            let offset = self.world.rng.random_range(0..self.config.ticks_per_round);
            self.schedule(round_start + offset, Pending::Activate { id });
        }
        self.world.order = order;
        // Everything due before the round boundary — activations, the
        // deliveries they cause, crashes, detections — happens now, in
        // time order; later arrivals stay queued for future rounds.
        let widest = self.serve_until(round_end - 1);
        self.now = round_end;
        // The paper's per-round position refresh (Sec. IV-B), stopped
        // only by a partition of the protocol fabric (the module docs say
        // what that models and what it does not). While a partition is
        // installed `blocked` costs two tree lookups per view entry; no
        // benchmark workload partitions, so that is unmeasured.
        let net = &self.net;
        self.world
            .refresh_positions(|holder, subject| net.blocked(holder, subject));
        // Buffers are taken where a message is built and retired where
        // it is consumed, and lane 0 also feeds every query offer and
        // every narrow wave: even the pools of the lanes this round used
        // out against it before the imbalance becomes memory. (A lane the
        // round left idle would only hoard what it was handed.)
        let (hub, rest) = self.lanes[..widest].split_first_mut().expect("never empty");
        for lane in rest {
            hub.sink.pool.level_with(&mut lane.sink.pool);
        }
        let observation = self.world.measure();
        let metrics = self.metrics(observation);
        self.history.push(metrics);
        metrics
    }

    /// Runs `rounds` consecutive rounds.
    pub fn run(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.step();
        }
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

    /// Serves every queued event with `at <= limit`, one *wave* at a
    /// time: everything queued for the earliest tick is detached from
    /// the queue at once and popped straight out of its slab, and what
    /// serving it sends back into the same tick (a zero-latency hop)
    /// queues up behind it as the next wave — the order a
    /// one-event-at-a-time FIFO would serve in. Within a wave,
    /// consecutive activations and deliveries form a *run* that goes
    /// through the two stages of [`Self::serve_staged`]; a `Detect` or
    /// `Crash` changes what every later handler may see, so it closes
    /// the run before it is applied. Returns the most lanes any wave was
    /// spread over.
    fn serve_until(&mut self, limit: u64) -> usize {
        let mut widest = 1;
        while let Some(mut wave) = self.queue.take_wave(limit) {
            self.now = self.now.max(wave.tick());
            // Lanes for this wave (see `LANE_LOAD`), and slots per lane.
            let width = (wave.len() / LANE_LOAD).clamp(1, self.lanes.len());
            let chunk = self.world.pool.slot_count().div_ceil(width);
            widest = widest.max(width);
            while let Some(what) = self.queue.pop_wave(&mut wave) {
                match what {
                    Pending::Detect { id } => {
                        self.serve_staged(chunk);
                        self.world.detected.mark(id);
                    }
                    Pending::Crash { id } => {
                        self.serve_staged(chunk);
                        self.crash(id);
                    }
                    Pending::Activate { id } => self.stage(chunk, id, None),
                    Pending::Deliver { from, to, wire } => {
                        if wire.channel() == Channel::Query {
                            self.traffic_in_flight -= 1;
                        } else {
                            self.in_flight -= 1;
                        }
                        self.stage(chunk, to, Some((from, wire)));
                    }
                }
            }
            self.serve_staged(chunk);
        }
        widest
    }

    /// Appends an activation (`message` is `None`) or a delivery to the
    /// run being assembled, on the lane that owns `to`'s slot. Liveness
    /// is settled here: crashes only happen between runs.
    fn stage(&mut self, chunk: usize, to: NodeId, message: Option<(NodeId, Wire<S::Point>)>) {
        let Some(slot) = self.world.pool.slot_of(to) else {
            // Crashed since this was scheduled: an activation evaporates
            // with the node, a message in flight gives its buffer back.
            if let Some((_, wire)) = message {
                self.lanes[0].sink.pool.recycle_wire(wire);
            }
            return;
        };
        self.lanes[slot / chunk].events.push(Staged {
            index: self.staged as u32,
            slot: (slot % chunk) as u32,
            message,
        });
        self.staged += 1;
    }

    /// Serves the run staged on the lanes, in two stages.
    ///
    /// **Serve** (parallel): each lane runs its nodes' handlers in run
    /// order ([`Lane::serve`]). Lanes own disjoint chunks of the slot
    /// array and of the rng slab and only read the failure knowledge, so
    /// no handler can see what another lane did — and a node's events,
    /// all on one lane, still reach it in order. A run too small to pay
    /// for threads ([`LANE_LOAD`]) goes through the same lanes on the
    /// calling thread.
    ///
    /// **Merge** (sequential): the sends come back tagged with the
    /// position of the event that caused them and are routed in that
    /// order — counters, cost, both network models' entropy streams and
    /// the positions deliveries take in the queue are exactly those of
    /// serving the run one event at a time.
    fn serve_staged(&mut self, chunk: usize) {
        let staged = std::mem::take(&mut self.staged);
        if staged == 0 {
            return;
        }
        let fan_out = staged >= 2 * LANE_LOAD && chunk < self.world.pool.slot_count();
        self.parallel_runs += u64::from(fan_out);
        let Self {
            world, rngs, lanes, ..
        } = &mut *self;
        let World { pool, detected, .. } = world;
        let detected = &*detected;
        let mut busy = pool
            .slots_mut()
            .chunks_mut(chunk)
            .zip(rngs.chunks_mut(chunk))
            .zip(lanes.iter_mut())
            .filter(|(_, lane)| !lane.events.is_empty());
        if !fan_out {
            for ((nodes, rngs), lane) in busy {
                lane.serve(nodes, rngs, detected);
            }
        } else {
            std::thread::scope(|scope| {
                // The calling thread takes a lane too.
                let mine = busy.next();
                for ((nodes, rngs), lane) in busy {
                    scope.spawn(move || lane.serve(nodes, rngs, detected));
                }
                if let Some(((nodes, rngs), lane)) = mine {
                    lane.serve(nodes, rngs, detected);
                }
            });
        }

        // Every event sits on exactly one lane and every lane's output
        // ascends, so the lane holding the smallest pending index holds
        // all of that event's sends, in the order the node issued them.
        while let Some((index, lane)) = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(lane, l)| l.out.front().map(|o| (o.index, lane)))
            .min()
        {
            while let Some(o) = self.lanes[lane].out.pop_front_if(|o| o.index == index) {
                self.send(o.from, o.to, o.wire);
            }
        }
    }

    /// Hands one message to its fabric: counted and charged at the send
    /// boundary, then dropped or scheduled as the network model decides.
    fn send(&mut self, from: NodeId, to: NodeId, wire: Wire<S::Point>) {
        let fate = if wire.channel() == Channel::Query {
            // Application traffic rides its own fabric and is metered
            // node-side (a query dropped here simply never resolves and
            // expires at its origin): the protocol plane's counters,
            // cost tally and rng streams are untouched.
            self.traffic_net.route(from, to)
        } else {
            self.sent_messages += 1;
            self.world.cost.charge_wire(&wire);
            let fate = self.net.route(from, to);
            if fate == Fate::Drop {
                self.dropped_messages += 1;
            }
            fate
        };
        match fate {
            // Lost in the fabric: the payload buffer goes back to a pool.
            Fate::Drop => self.lanes[0].sink.pool.recycle_wire(wire),
            Fate::Deliver { delay } => {
                self.schedule(self.now + delay, Pending::Deliver { from, to, wire });
            }
        }
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Measures the quality metrics over the current state: the World's
    /// census of the pool plus the kernel's message counters.
    ///
    /// Allocates fresh census tables ([`World::measure_fresh`]); the
    /// round loop goes through the World's reusable ones instead.
    pub fn compute_metrics(&self) -> NetRoundMetrics {
        self.metrics(self.world.measure_fresh())
    }

    /// The World's stamped census `observation` with the kernel's
    /// message counters.
    fn metrics(&self, observation: RoundObservation) -> NetRoundMetrics {
        NetRoundMetrics {
            observation,
            in_flight: self.in_flight,
            sent_messages: self.sent_messages,
            dropped_messages: self.dropped_messages,
            tman_cost_share: self.world.cost.tman_share(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_membership::Descriptor;
    use polystyrene_protocol::{LinkProfile, QueryItem};
    use polystyrene_space::prelude::*;
    use polystyrene_space::shapes;

    fn tiny_config(seed: u64) -> SubstrateConfig {
        let mut cfg = SubstrateConfig::default();
        cfg.tman = polystyrene_topology::TManConfig {
            view_cap: 20,
            m: 8,
            psi: 3,
        };
        cfg.poly.replication = 3;
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
    fn compute_metrics_reads_what_step_measured() {
        // `step` measures into reused tables, `compute_metrics` into
        // throwaway ones: both must read the same state the same way,
        // through a half-torus kill and the reshaping after it, with
        // messages in flight across round boundaries.
        let lossy = LinkProfile {
            latency: 20,
            jitter: 4,
            loss: 0.05,
        };
        let mut sim = tiny_sim(12, lossy);
        for round in 1..=8 {
            if round == 5 {
                sim.fail_original_region(&shapes::in_right_half(16.0));
            }
            let stepped = sim.step();
            let fresh = sim.compute_metrics();
            assert_eq!(fresh, stepped, "round {round}");
            assert_eq!(fresh, *sim.history().last().expect("ran"), "round {round}");
            assert_eq!(sim.compute_metrics(), fresh, "round {round}: second call");
        }
        assert_eq!(sim.alive_count(), 32);
        assert!(sim.history().iter().any(|m| m.in_flight > 0));
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

    /// One run of a script that uses everything the wave loop has to get
    /// right, on `lanes` lanes: query offers large enough that runs fan
    /// out, a crash queued between two halves of an offer (a control
    /// event splitting a parallel run, and deliveries to the node it
    /// removed), a crash landing mid-round, a region kill whose `Detect`
    /// events arrive three ticks later in the middle of other traffic,
    /// and an inject into recycled slots. Returns everything observable:
    /// the history, the traffic samples and the traffic totals.
    fn scripted_run(
        link: LinkProfile,
        lanes: usize,
    ) -> (Vec<NetRoundMetrics>, Vec<(u32, u64)>, [u64; 3]) {
        let mut cfg = tiny_config(17);
        cfg.area = 512.0;
        cfg.link = link;
        cfg.detection_delay_ticks = 3;
        let mut sim = NetSim::new(
            Torus2::new(32.0, 16.0),
            shapes::torus_grid(32, 16, 1.0),
            cfg,
        );
        sim.lanes = (0..lanes).map(|_| Lane::new()).collect();
        let keys: Vec<[f64; 2]> = (0..1024)
            .map(|i| [(i % 32) as f64 + 0.5, (i / 32 % 16) as f64 + 0.5])
            .collect();
        let mut samples = Vec::new();
        let mut totals = [0; 3];
        let mut round = |sim: &mut NetSim<Torus2>, crash_between_offers: Option<u64>| {
            let (head, tail) = keys.split_at(keys.len() / 2);
            sim.offer_traffic(head, 32);
            if let Some(raw) = crash_between_offers {
                sim.schedule_crash(NodeId::new(raw), 0);
            }
            sim.offer_traffic(tail, 32);
            sim.step();
            let (offered, delivered, dropped) = sim.drain_traffic(&mut samples);
            totals[0] += offered;
            totals[1] += delivered;
            totals[2] += dropped;
        };
        for _ in 0..3 {
            round(&mut sim, None);
        }
        sim.schedule_crash(NodeId::new(40), sim.config().ticks_per_round / 2);
        round(&mut sim, Some(7));
        assert_eq!(sim.alive_count(), 510);
        sim.fail_original_region(&shapes::in_right_half(32.0));
        for _ in 0..3 {
            round(&mut sim, None);
        }
        sim.inject(&shapes::torus_grid_offset(8, 8, 1.0));
        for _ in 0..3 {
            round(&mut sim, Some(300));
        }
        assert_eq!(sim.rngs.len(), sim.pool.slot_count());
        assert!(
            sim.lanes.iter().all(|lane| lane.events.capacity() > 0),
            "{lanes} lanes: no wave was wide enough to use them all"
        );
        assert_eq!(
            sim.parallel_runs() > 0,
            lanes > 1,
            "{lanes} lanes: runs must fan out, and only then"
        );
        (sim.history().to_vec(), samples, totals)
    }

    #[test]
    fn lane_count_never_shows() {
        let lossy = |latency, jitter| LinkProfile {
            latency,
            jitter,
            loss: 0.05,
        };
        // Zero latency: a tick is a chain of waves. Latency 2 / jitter 1:
        // one wave per tick, deliveries straddling ticks and rounds.
        for link in [lossy(0, 0), lossy(2, 1)] {
            let one = scripted_run(link, 1);
            let (history, samples, totals) = &one;
            assert!(totals[1] > 0 && !samples.is_empty(), "no traffic served");
            assert!(history.last().expect("ran").dropped_messages > 0);
            for lanes in [2, 3, 7] {
                assert_eq!(scripted_run(link, lanes), one, "{lanes} lanes, {link:?}");
            }
        }
    }

    #[test]
    fn delivery_to_a_node_crashed_earlier_in_the_wave_evaporates() {
        // One wave holding a crash and a query for the node it removes,
        // in either order, on a fabric that has carried no query yet:
        // returns the `(query, reply)` buffers the pools end up with.
        let pooled_after = |crash_first: bool| {
            let mut sim = tiny_sim(15, LinkProfile::ideal());
            sim.run(3);
            let victim = NodeId::new(9);
            let now = sim.now();
            let offer = Pending::Deliver {
                from: victim,
                to: victim,
                wire: Wire::QueryBatch {
                    queries: vec![QueryItem {
                        qid: 1,
                        origin: victim,
                        key: [1.5, 2.5],
                        ttl: 8,
                        hops: 0,
                    }],
                },
            };
            if crash_first {
                sim.schedule_crash(victim, 0);
                sim.schedule(now, offer);
            } else {
                sim.schedule(now, offer);
                sim.schedule_crash(victim, 0);
            }
            assert_eq!(sim.traffic_in_flight(), 1);
            sim.step();
            assert!(sim.poly_state(victim).is_none(), "the crash fired");
            assert_eq!(sim.traffic_in_flight(), 0);
            sim.lanes.iter().fold((0, 0), |(queries, replies), lane| {
                let (_, _, _, q, r) = lane.sink.pool.pooled_counts();
                (queries + q, replies + r)
            })
        };
        assert_eq!(
            pooled_after(true),
            (1, 0),
            "the batch came back unread: nobody forwarded or answered it"
        );
        let (_, replies) = pooled_after(false);
        assert!(replies > 0, "ahead of the crash the same query is served");
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
            latency: 2 * SubstrateConfig::default().ticks_per_round,
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
        let ticks = SubstrateConfig::default().ticks_per_round;
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
        sim.set_partition(&[vec![NodeId::new(0)]]);
        let before = sim.compute_metrics().dropped_messages;
        sim.run(4);
        let during = sim.compute_metrics().dropped_messages;
        assert!(
            during > before,
            "an isolated node's traffic must be dropped"
        );
        sim.heal();
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
        let victim_slot = sim.pool.slot_ref(victim).expect("alive");
        assert!(sim.crash(victim));
        let fresh = sim.inject(&[[3.5, 1.5]]);
        assert_eq!(fresh, vec![NodeId::new(64)], "ids stay monotonic");
        let fresh_slot = sim.pool.slot_ref(fresh[0]).expect("alive");
        assert_eq!(fresh_slot.slot, victim_slot.slot, "slot recycled");
        assert!(fresh_slot.gen > victim_slot.gen, "generation bumped");
        assert!(sim.poly_state(victim).is_none(), "dead id stays dead");
        assert_eq!(sim.alive_count(), 64);
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn empty_shape_rejected() {
        let _ = NetSim::new(
            Torus2::new(4.0, 4.0),
            Vec::new(),
            SubstrateConfig::default(),
        );
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
