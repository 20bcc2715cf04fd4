//! One live node: the IO driver around the sans-IO [`ProtocolNode`],
//! run by a pool worker ([`crate::worker`]) beside its siblings.
//!
//! All protocol logic — RPS shuffles, T-Man exchanges, recovery, backup,
//! migration, heartbeat bookkeeping — lives in `polystyrene-protocol`
//! and is byte-for-byte the same state machine the cycle simulator
//! drives. A `NodeRuntime` only does IO: its worker feeds it the
//! messages addressed to it (`handle`, into
//! [`ProtocolNode::on_event_into`]) and calls `tick` when its wall-clock
//! deadline passes ([`ProtocolNode::on_tick_into`]); both
//! execute the returned effects over the node's [`NodeFabric`] through
//! the loop the event kernel runs too
//! ([`ProtocolNode::execute_effects`]) — probes
//! answered from the fabric's address book, sends mapped to transport
//! deliveries (in-process mailboxes or framed TCP, the node cannot
//! tell), failed deliveries reported back as [`Event::PeerUnreachable`].
//! The node owns its clock: `next_tick` is its own deadline, re-armed by
//! its own pacing rule, whichever thread happens to run it.

use crate::fabric::NodeFabric;
use crate::observe::ObservationBoard;
use crate::worker::Resident;
use polystyrene::prelude::PointId;
use polystyrene_membership::NodeId;
use polystyrene_protocol::{
    node_seed, wire_units, Effect, EffectSink, Event, ProtocolNode, SubstrateConfig, Wire,
};
use polystyrene_space::MetricSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bound on the recent resolved-query samples a node republishes to the
/// observation board: enough for a stable tail-latency estimate, small
/// enough that the per-tick report refill stays cheap.
const MAX_TRAFFIC_SAMPLES: usize = 128;

/// Rewrites `ids` with `from`, keeping its allocation.
fn refill(ids: &mut Vec<PointId>, from: impl Iterator<Item = PointId>) {
    ids.clear();
    ids.extend(from);
}

/// Everything a live node owns.
pub struct NodeRuntime<S: MetricSpace> {
    node: ProtocolNode<S>,
    tick: std::time::Duration,
    /// When this node's next round is due.
    next_tick: Instant,
    fabric: Box<dyn NodeFabric<S::Point>>,
    board: Arc<ObservationBoard<S::Point>>,
    rng: StdRng,
    /// Cumulative units this node has handed to the fabric, in the
    /// paper's prices ([`wire_units`]) — charged at the send boundary
    /// whether or not the delivery succeeds (the bytes left the node
    /// either way).
    sent_units: u64,
    /// Node-owned effect buffer every protocol call pushes into — one
    /// buffer (and payload pool) for the node's lifetime instead of a
    /// fresh `Vec` per tick and per inbound message.
    sink: EffectSink<S::Point>,
    /// Reusable dispatch queue of [`Self::execute`], empty between
    /// calls.
    queue: VecDeque<Effect<S::Point>>,
    /// Cumulative traffic-plane gateway counters, published every tick.
    traffic_offered: u64,
    traffic_delivered: u64,
    traffic_dropped: u64,
    /// Trailing window of resolved-query `(hops, latency)` samples.
    traffic_recent: Vec<(u32, u64)>,
    /// This gateway's admission gauge, shared with the cluster's offer
    /// path: the offer side adds admitted queries, this node subtracts
    /// them as it handles the injections — the backpressure signal that
    /// makes the offer path shed instead of flooding a slow mailbox.
    ingress: Arc<AtomicUsize>,
}

impl<S: MetricSpace> NodeRuntime<S> {
    /// Wraps `node`, built by the cluster with its bootstrap contacts,
    /// in the IO driver: the node's tick period and stream come from
    /// `config`, its sends and probes go through `fabric`.
    pub fn new(
        node: ProtocolNode<S>,
        config: SubstrateConfig,
        fabric: Box<dyn NodeFabric<S::Point>>,
        board: Arc<ObservationBoard<S::Point>>,
        ingress: Arc<AtomicUsize>,
    ) -> Self {
        Self {
            rng: StdRng::seed_from_u64(node_seed(config.seed, node.id())),
            node,
            tick: config.tick,
            next_tick: Instant::now() + config.tick,
            fabric,
            board,
            sent_units: 0,
            sink: EffectSink::new(),
            queue: VecDeque::new(),
            traffic_offered: 0,
            traffic_delivered: 0,
            traffic_dropped: 0,
            traffic_recent: Vec::new(),
            ingress,
        }
    }

    /// One local protocol round, then publish to the observation plane.
    fn on_tick(&mut self) {
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        self.node.on_tick_into(&mut self.rng, &mut sink);
        self.execute(&mut sink);
        self.sink = sink;
        // Fold the tick's traffic accounting into the cumulative
        // counters the board publishes; the sample window is bounded so
        // the per-tick report refill cannot grow with load.
        let (offered, delivered, dropped) = self.node.take_traffic(&mut self.traffic_recent);
        self.traffic_offered += offered;
        self.traffic_delivered += delivered;
        self.traffic_dropped += dropped;
        if self.traffic_recent.len() > MAX_TRAFFIC_SAMPLES {
            let excess = self.traffic_recent.len() - MAX_TRAFFIC_SAMPLES;
            self.traffic_recent.drain(..excess);
        }
        let (node, poly) = (&self.node, &self.node.poly);
        self.board.publish_with(node.id(), &poly.pos, |report| {
            refill(&mut report.guest_ids, poly.guests.iter().map(|p| p.id));
            let ghosts = poly.ghosts.items().iter();
            refill(&mut report.ghost_ids, ghosts.map(|p| p.id));
            refill(&mut report.parked_point_ids, node.parked_point_ids());
            report.stored_points = poly.stored_points();
            report.ticks = node.clock();
            report.cost_units = self.sent_units;
            report.traffic_offered = self.traffic_offered;
            report.traffic_delivered = self.traffic_delivered;
            report.traffic_dropped = self.traffic_dropped;
            report.traffic_samples.clone_from(&self.traffic_recent);
        });
    }

    /// Executes effects against the real transport
    /// ([`ProtocolNode::execute_effects`]): probes consult the fabric's
    /// address book (no ground truth here, and the peer's position stays
    /// whatever the view believes), sends go through the fabric, and a
    /// send whose destination is observably gone comes back as
    /// [`Event::PeerUnreachable`] (message lost, crash-stop style).
    fn execute(&mut self, sink: &mut EffectSink<S::Point>) {
        // Both closures need the fabric, one at a time.
        let fabric = RefCell::new(&mut self.fabric);
        let sent_units = &mut self.sent_units;
        self.node.execute_effects(
            &mut self.queue,
            sink,
            &mut self.rng,
            |peer| fabric.borrow_mut().contains(peer),
            |to, wire| {
                // Charged whether or not the delivery succeeds. The
                // fabric takes ownership of the wire (in-process delivery
                // hands the very buffer to the receiver), so there is
                // nothing to recycle on this path.
                *sent_units += wire_units(&wire);
                fabric.borrow_mut().send(to, wire)
            },
        );
    }
}

impl<S: MetricSpace> Resident<S::Point> for NodeRuntime<S> {
    fn id(&self) -> NodeId {
        self.node.id()
    }

    fn next_tick(&self) -> Instant {
        self.next_tick
    }

    fn handle(&mut self, from: NodeId, wire: Wire<S::Point>) {
        // Self-addressed query wires are gateway injections from the
        // cluster's offer path — the only self-sends in the system.
        // Handling one frees its admission-gauge slots.
        if from == self.node.id() {
            let injected = match &wire {
                Wire::Query { .. } => 1,
                Wire::QueryBatch { queries } => queries.len(),
                _ => 0,
            };
            if injected > 0 {
                // Saturating: a harness injecting queries by hand (no
                // gauge charge) must not wrap the gauge into a
                // permanently-full reading.
                let _ = self
                    .ingress
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        Some(v.saturating_sub(injected))
                    });
            }
        }
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        self.node
            .on_event_into(Event::Message { from, wire }, &mut self.rng, &mut sink);
        self.execute(&mut sink);
        self.sink = sink;
    }

    fn tick(&mut self) -> Instant {
        self.on_tick();
        // Fixed-delay pacing, deliberately: `tick` is the idle gap
        // *between* rounds, not a fixed rate. Scheduling relative to now
        // (instead of `next_tick + tick`) is the node's backpressure:
        // when handling and ticking outrun the period, the protocol
        // clock slows with the machine. Pinning the rate here looks more
        // faithful but is unstable — migration timeouts are
        // tick-denominated, so a node that ticks on schedule while its
        // partners lag times out exchanges that are merely slow, and the
        // late-reply absorb path then duplicates guests without bound
        // (observed: >100 stored points/node in debug builds, vs the
        // 1 + K steady state).
        self.next_tick = Instant::now() + self.tick;
        self.next_tick
    }
}
