//! The sans-IO surface: what crosses the wire ([`Wire`]), what the driver
//! feeds in ([`Event`]) and what the node asks for ([`Effect`]).

use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};

/// The protocol layer an exchange belongs to — used to route
/// delivery-failure feedback to the right purge logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Cyclon shuffles.
    PeerSampling,
    /// T-Man view exchanges.
    Topology,
    /// Pull-push data-point migration (paper Algorithm 3).
    Migration,
    /// Replica pushes (paper Algorithm 1).
    Backup,
    /// Liveness beacons.
    Heartbeat,
    /// Application-plane key lookups (the traffic plane).
    Query,
}

/// Everything that can cross the network between two protocol nodes.
///
/// The cycle engine delivers these atomically (the paper's reliable
/// in-order TCP stand-in); asynchronous drivers — the threaded runtime
/// and the discrete-event network simulator — may delay, drop, or reorder
/// any of them. The vocabulary is designed so that every loss is safe in
/// the *at-least-once* direction: a dropped message can duplicate a data
/// point (both endpoints keep a copy) but never destroy the last copy.
/// The migration pull-push exchange achieves this with [`Wire::MigrationAck`]:
/// the responder parks the points it handed out until the initiator
/// acknowledges them, and re-adopts them if the acknowledgment never
/// arrives.
#[derive(Clone, Debug, PartialEq)]
pub enum Wire<P> {
    /// Cyclon shuffle request (peer-sampling layer).
    RpsRequest {
        /// Shuffled-out descriptors.
        descriptors: Vec<Descriptor<P>>,
    },
    /// Cyclon shuffle reply.
    RpsReply {
        /// Descriptors the initiator originally sent (for slot reuse).
        sent: Vec<Descriptor<P>>,
        /// Responder's shuffled-out descriptors.
        descriptors: Vec<Descriptor<P>>,
    },
    /// T-Man view exchange request.
    TManRequest {
        /// Initiator's current position (for the ranked reply).
        from_pos: P,
        /// The initiator's `m` best descriptors for the recipient.
        descriptors: Vec<Descriptor<P>>,
    },
    /// T-Man view exchange reply.
    TManReply {
        /// The responder's `m` best descriptors for the initiator.
        descriptors: Vec<Descriptor<P>>,
    },
    /// Migration pull-push request (paper Algorithm 3): the initiator
    /// ships its whole guest set; the responder runs `SPLIT` and returns
    /// the initiator's share.
    MigrationRequest {
        /// Exchange generation, from the initiator's private counter.
        /// Echoed by the reply and its ack so that, over a delaying
        /// fabric, a *stale* reply (from an exchange the initiator
        /// already timed out and retried) can never be mistaken for the
        /// current one — and a stale ack can never clear a newer parked
        /// handout.
        xid: u64,
        /// Initiator's current position (`pos_p` of the split).
        from_pos: P,
        /// Initiator's guests (the *pull* leg).
        guests: Vec<DataPoint<P>>,
    },
    /// Migration reply carrying the initiator's share (the *push* leg),
    /// or — when `busy` — the untouched original guests, because the
    /// responder was itself mid-exchange ("q should not be interacting
    /// with anyone else than p while the exchange occurs", Sec. III-F).
    MigrationReply {
        /// The request's exchange generation, echoed back.
        xid: u64,
        /// Points now owned by the initiator.
        points: Vec<DataPoint<P>>,
        /// Whether this is a busy-bounce rather than a real split.
        busy: bool,
        /// Points the responder contributed to the union — the *pull* leg
        /// of the paper's traffic accounting (Sec. IV-A cost units).
        pulled: usize,
        /// Points the responder kept after the split — the *push* leg.
        pushed: usize,
    },
    /// Confirms that a (non-busy) [`Wire::MigrationReply`] was received
    /// and applied. The responder of a migration split no longer owns the
    /// points it mailed back to the initiator; until this ack arrives it
    /// *parks* them, and re-adopts them after a timeout — so a dropped
    /// reply duplicates points (benign, deduplicated by id within a node)
    /// instead of losing them. Synchronous drivers deliver the ack in the
    /// same instant as the reply, making the parking invisible.
    MigrationAck {
        /// The acknowledged reply's exchange generation: the responder
        /// only un-parks the handout of *this* generation, so an ack for
        /// an older exchange cannot clear a newer handout whose reply is
        /// still in flight.
        xid: u64,
    },
    /// Replica push (paper Algorithm 1): `ghosts[from] ← points`, with
    /// the incremental-delta accounting of Sec. III-D.
    BackupPush {
        /// Full replica to store — the in-memory message always carries
        /// the whole guest set (`b.ghosts[p] ← guests`).
        points: Vec<DataPoint<P>>,
        /// Points added with respect to the previous push to this target.
        /// Together with `removed_ids` this models the incremental-delta
        /// *traffic accounting* of Sec. III-D (only the delta would cross
        /// a real serialized transport); pushes with an empty delta are
        /// elided entirely by `plan_backups`.
        added_points: usize,
        /// Point ids removed since the previous push (counted as bare ids).
        removed_ids: usize,
    },
    /// Liveness beacon along backup relationships.
    Heartbeat,
    /// Application-plane key lookup hopping greedily toward `key`: each
    /// node forwards to the view entry strictly closest to the key, so
    /// the route is served entirely from local knowledge — exactly what
    /// degrades when the overlay loses its shape. Handling a query draws
    /// **no protocol entropy** (forwarding is a deterministic argmin over
    /// the view), so enabling traffic cannot shift a single rng draw of
    /// the fingerprint-pinned protocol schedules.
    Query {
        /// Query generation id, unique per origin substrate.
        qid: u64,
        /// The gateway node that issued the lookup and awaits the reply.
        origin: NodeId,
        /// The key's position in the data space.
        key: P,
        /// Remaining hop budget.
        ttl: u32,
        /// Hops taken so far.
        hops: u32,
    },
    /// Terminal answer to a [`Wire::Query`], sent straight back to the
    /// origin by the node whose view has no entry closer to the key.
    QueryReply {
        /// The answered query's generation id.
        qid: u64,
        /// Hops the query took to reach the terminal node.
        hops: u32,
        /// The terminal node's position (the resolved "responsible"
        /// location for the key).
        pos: P,
    },
    /// A batch of co-destined queries sharing one envelope. Semantically
    /// identical to delivering each [`Wire::Query`] item in order; the
    /// batch only amortizes per-message dispatch (one kernel event, one
    /// frame, one mailbox send). Each item keeps its own `hops`/`ttl`, so
    /// grouping by next-hop preserves per-query hop accounting exactly.
    QueryBatch {
        /// The batched queries, in offer/forward order.
        queries: Vec<QueryItem<P>>,
    },
    /// A batch of co-destined query replies (all bound for the same
    /// origin gateway), the terminal counterpart of [`Wire::QueryBatch`].
    QueryReplyBatch {
        /// The batched replies, in resolution order.
        replies: Vec<QueryReplyItem<P>>,
    },
}

/// One query of a [`Wire::QueryBatch`] — the payload fields of
/// [`Wire::Query`] as a plain struct, so co-destined queries can share
/// an envelope (and a pooled buffer) without losing per-query state.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryItem<P> {
    /// Query generation id, unique per origin substrate.
    pub qid: u64,
    /// The gateway node that issued the lookup and awaits the reply.
    pub origin: NodeId,
    /// The key's position in the data space.
    pub key: P,
    /// Remaining hop budget.
    pub ttl: u32,
    /// Hops taken so far.
    pub hops: u32,
}

/// One reply of a [`Wire::QueryReplyBatch`] — the payload fields of
/// [`Wire::QueryReply`] as a plain struct.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReplyItem<P> {
    /// The answered query's generation id.
    pub qid: u64,
    /// Hops the query took to reach the terminal node.
    pub hops: u32,
    /// The terminal node's position.
    pub pos: P,
}

impl<P> Wire<P> {
    /// The protocol layer this payload belongs to.
    pub fn channel(&self) -> Channel {
        match self {
            Wire::RpsRequest { .. } | Wire::RpsReply { .. } => Channel::PeerSampling,
            Wire::TManRequest { .. } | Wire::TManReply { .. } => Channel::Topology,
            Wire::MigrationRequest { .. }
            | Wire::MigrationReply { .. }
            | Wire::MigrationAck { .. } => Channel::Migration,
            Wire::BackupPush { .. } => Channel::Backup,
            Wire::Heartbeat => Channel::Heartbeat,
            Wire::Query { .. }
            | Wire::QueryReply { .. }
            | Wire::QueryBatch { .. }
            | Wire::QueryReplyBatch { .. } => Channel::Query,
        }
    }

    /// Short tag for logging and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Wire::RpsRequest { .. } => "rps_request",
            Wire::RpsReply { .. } => "rps_reply",
            Wire::TManRequest { .. } => "tman_request",
            Wire::TManReply { .. } => "tman_reply",
            Wire::MigrationRequest { .. } => "migration_request",
            Wire::MigrationReply { .. } => "migration_reply",
            Wire::MigrationAck { .. } => "migration_ack",
            Wire::BackupPush { .. } => "backup_push",
            Wire::Heartbeat => "heartbeat",
            Wire::Query { .. } => "query",
            Wire::QueryReply { .. } => "query_reply",
            Wire::QueryBatch { .. } => "query_batch",
            Wire::QueryReplyBatch { .. } => "query_reply_batch",
        }
    }
}

/// Everything a driver can feed into [`crate::node::ProtocolNode::on_event_into`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event<P> {
    /// A wire message arrived from `from`.
    Message {
        /// The sender.
        from: NodeId,
        /// The payload.
        wire: Wire<P>,
    },
    /// The driver resolved an earlier [`Effect::Probe`]: the peer is
    /// reachable — the node now builds and sends the actual request.
    ///
    /// `pos` optionally carries the peer's current position when the
    /// driver knows it (a synchronous cycle driver does — the atomic
    /// exchange of the cycle model implies both endpoints see each
    /// other's live state); an asynchronous driver passes `None` and the
    /// node falls back to its view's belief.
    ProbeOk {
        /// The probed peer.
        peer: NodeId,
        /// Which exchange the probe was for.
        channel: Channel,
        /// The peer's current position, if the driver knows it.
        pos: Option<P>,
    },
    /// The driver could not reach `peer` (probe refused, send failed, or
    /// an exchange timed out at the transport level).
    PeerUnreachable {
        /// The unreachable peer.
        peer: NodeId,
        /// Which exchange failed.
        channel: Channel,
    },
}

/// Everything a node can ask its driver to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect<P> {
    /// Check whether `peer` is reachable before opening an exchange on
    /// `channel`; the driver must answer with [`Event::ProbeOk`] or
    /// [`Event::PeerUnreachable`].
    Probe {
        /// The peer to probe.
        peer: NodeId,
        /// The exchange the probe is for.
        channel: Channel,
    },
    /// Deliver `wire` to `to` (fire-and-forget; the driver reports a
    /// known-failed delivery back as [`Event::PeerUnreachable`]).
    Send {
        /// The destination.
        to: NodeId,
        /// The payload.
        wire: Wire<P>,
    },
}

/// Total element capacity one payload kind may retain across all its
/// pooled buffers. A batch driver keeps hundreds of payloads in flight
/// per round (one request plus one reply per node), so the bound is on
/// retained *elements*, not buffer count: surplus returns beyond the
/// budget are dropped, capping the pool's resident memory at roughly
/// `MAX_POOLED_ELEMENTS × size_of::<element>()` per kind regardless of
/// network size.
const MAX_POOLED_ELEMENTS: usize = 1 << 21;

/// Largest element capacity worth retaining. A burst (a catastrophic
/// failure shipping a 100k-point payload) must not pin its peak buffer in
/// the pool forever: oversized buffers are dropped on return.
const MAX_POOLED_CAPACITY: usize = 4096;

/// A recycler for the three payload buffer shapes that cross the wire:
/// `Vec<Descriptor<P>>` (gossip views), `Vec<DataPoint<P>>` (migration and
/// backup payloads) and `Vec<PointId>` (id scratch for membership tests).
///
/// Every [`Wire`] payload used to be allocated fresh by the sender and
/// dropped by the receiver — the dominant steady-state allocation source
/// once the drivers went slab-based. The pool lives inside the driver's
/// [`EffectSink`], so sender and receiver share it under a batch driver:
/// a request's buffer is recycled by the receiving node's handler and
/// comes back out for the very next reply.
///
/// Buffers are cleared on return (a recycled buffer can never leak stale
/// descriptors into a fresh payload) and bounded two ways: each buffer
/// holds at most `MAX_POOLED_CAPACITY` elements of capacity, and each
/// kind retains at most `MAX_POOLED_ELEMENTS` elements of capacity in
/// total — enough for every in-flight payload of a large batch round to
/// recycle, small enough that a one-off spike cannot pin unbounded
/// memory.
#[derive(Debug)]
pub struct BufPool<P> {
    descriptors: Stack<Descriptor<P>>,
    points: Stack<DataPoint<P>>,
    point_ids: Stack<PointId>,
    queries: Stack<QueryItem<P>>,
    replies: Stack<QueryReplyItem<P>>,
}

/// The retained buffers of one payload kind.
#[derive(Debug)]
struct Stack<T> {
    bufs: Vec<Vec<T>>,
    /// Element capacity retained across `bufs`.
    retained: usize,
}

impl<T> Stack<T> {
    fn new() -> Self {
        Self {
            bufs: Vec::new(),
            retained: 0,
        }
    }

    fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        let cap = buf.capacity();
        if cap > 0 && cap <= MAX_POOLED_CAPACITY && self.retained + cap <= MAX_POOLED_ELEMENTS {
            self.retained += cap;
            self.bufs.push(buf);
        }
    }

    fn take(&mut self) -> Vec<T> {
        match self.bufs.pop() {
            Some(buf) => {
                self.retained -= buf.capacity();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Moves buffers from the fuller of the two stacks to the other
    /// until their counts differ by at most one, or the receiver's
    /// element budget would drop the next one: a surplus the other side
    /// cannot hold stays pooled where it is.
    fn level_with(&mut self, other: &mut Self) {
        let (from, to) = if self.bufs.len() > other.bufs.len() {
            (self, other)
        } else {
            (other, self)
        };
        while from.bufs.len() > to.bufs.len() + 1 {
            let cap = from.bufs.last().map_or(0, Vec::capacity);
            if to.retained + cap > MAX_POOLED_ELEMENTS {
                break;
            }
            to.put(from.take());
        }
    }
}

impl<P> BufPool<P> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            descriptors: Stack::new(),
            points: Stack::new(),
            point_ids: Stack::new(),
            queries: Stack::new(),
            replies: Stack::new(),
        }
    }

    /// A cleared descriptor buffer (pooled capacity when available).
    pub fn take_descriptors(&mut self) -> Vec<Descriptor<P>> {
        self.descriptors.take()
    }

    /// Returns a descriptor buffer to the pool.
    pub fn put_descriptors(&mut self, buf: Vec<Descriptor<P>>) {
        self.descriptors.put(buf);
    }

    /// A cleared data-point buffer (pooled capacity when available).
    pub fn take_points(&mut self) -> Vec<DataPoint<P>> {
        self.points.take()
    }

    /// Returns a data-point buffer to the pool.
    pub fn put_points(&mut self, buf: Vec<DataPoint<P>>) {
        self.points.put(buf);
    }

    /// A cleared point-id buffer (pooled capacity when available).
    pub fn take_point_ids(&mut self) -> Vec<PointId> {
        self.point_ids.take()
    }

    /// Returns a point-id buffer to the pool.
    pub fn put_point_ids(&mut self, buf: Vec<PointId>) {
        self.point_ids.put(buf);
    }

    /// A cleared query-batch buffer (pooled capacity when available).
    pub fn take_queries(&mut self) -> Vec<QueryItem<P>> {
        self.queries.take()
    }

    /// Returns a query-batch buffer to the pool.
    pub fn put_queries(&mut self, buf: Vec<QueryItem<P>>) {
        self.queries.put(buf);
    }

    /// A cleared reply-batch buffer (pooled capacity when available).
    pub fn take_replies(&mut self) -> Vec<QueryReplyItem<P>> {
        self.replies.take()
    }

    /// Returns a reply-batch buffer to the pool.
    pub fn put_replies(&mut self, buf: Vec<QueryReplyItem<P>>) {
        self.replies.put(buf);
    }

    /// Evens out the two pools' retained buffers, kind by kind. A driver
    /// that serves its nodes from several pools (the event kernel's
    /// lanes) calls this between rounds: buffers are taken where a
    /// message is built and retired where it is consumed, so without it
    /// one pool allocates what another hoards.
    pub fn level_with(&mut self, other: &mut Self) {
        self.descriptors.level_with(&mut other.descriptors);
        self.points.level_with(&mut other.points);
        self.point_ids.level_with(&mut other.point_ids);
        self.queries.level_with(&mut other.queries);
        self.replies.level_with(&mut other.replies);
    }

    /// Salvages the payload buffers of a wire message that reached the end
    /// of its life without transferring ownership — dropped by the fabric,
    /// addressed to a dead node, or fully consumed by a handler.
    pub fn recycle_wire(&mut self, wire: Wire<P>) {
        match wire {
            Wire::RpsRequest { descriptors } | Wire::TManReply { descriptors } => {
                self.put_descriptors(descriptors);
            }
            Wire::RpsReply { sent, descriptors } => {
                self.put_descriptors(sent);
                self.put_descriptors(descriptors);
            }
            Wire::TManRequest { descriptors, .. } => self.put_descriptors(descriptors),
            Wire::MigrationRequest { guests, .. } => self.put_points(guests),
            Wire::MigrationReply { points, .. } => self.put_points(points),
            Wire::BackupPush { points, .. } => self.put_points(points),
            Wire::QueryBatch { queries } => self.put_queries(queries),
            Wire::QueryReplyBatch { replies } => self.put_replies(replies),
            Wire::MigrationAck { .. }
            | Wire::Heartbeat
            | Wire::Query { .. }
            | Wire::QueryReply { .. } => {}
        }
    }

    /// Buffers currently retained per kind: `(descriptors, points,
    /// point_ids, queries, replies)` — test/diagnostic surface for the
    /// retention bounds.
    pub fn pooled_counts(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.descriptors.bufs.len(),
            self.points.bufs.len(),
            self.point_ids.bufs.len(),
            self.queries.bufs.len(),
            self.replies.bufs.len(),
        )
    }

    /// Element capacity currently retained per kind: `(descriptors,
    /// points, point_ids, queries, replies)`. Each component is bounded
    /// by the per-kind element budget [`BufPool::max_pooled_elements`].
    pub fn pooled_elements(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.descriptors.retained,
            self.points.retained,
            self.point_ids.retained,
            self.queries.retained,
            self.replies.retained,
        )
    }

    /// The per-kind retained-element budget (test/diagnostic surface).
    pub fn max_pooled_elements() -> usize {
        MAX_POOLED_ELEMENTS
    }

    /// The per-buffer retained-capacity cap (test/diagnostic surface).
    pub fn max_pooled_capacity() -> usize {
        MAX_POOLED_CAPACITY
    }
}

impl<P> Default for BufPool<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// A reusable buffer the phase pipeline pushes [`Effect`]s into.
///
/// Returning a freshly allocated `Vec<Effect>` per call would cost two to
/// six allocations per node per round, which dominates the cycle engine's
/// hot loop past ~50k nodes. A driver owns **one** sink, clears it between
/// activations, and passes it to the `on_*_into` entry points; the effect
/// and id scratch capacities warm up over the first round and are reused
/// for the rest of the run.
#[derive(Debug)]
pub struct EffectSink<P> {
    effects: Vec<Effect<P>>,
    /// Scratch for the phases' per-call `Vec<NodeId>` temporaries
    /// (expired handouts, migration candidates, backup pools). Taken with
    /// `mem::take` while a phase runs so it can coexist with effect
    /// pushes, and handed back — cleared but with capacity intact — when
    /// the phase finishes.
    ids: Vec<NodeId>,
    /// Recycler for wire payload buffers; shared between every node a
    /// batch driver activates with this sink, so a consumed request's
    /// buffer resurfaces for the next reply. Phases and drivers take
    /// and return payload buffers here directly.
    pub pool: BufPool<P>,
    /// Scratch for grouping a query batch's forwards by next-hop (the
    /// outer slots survive between activations; the inner buffers come
    /// from and return to the pool).
    query_groups: Vec<(NodeId, Vec<QueryItem<P>>)>,
    /// Scratch for grouping a query batch's terminal replies by origin.
    reply_groups: Vec<(NodeId, Vec<QueryReplyItem<P>>)>,
}

impl<P> EffectSink<P> {
    /// An empty sink.
    pub fn new() -> Self {
        Self {
            effects: Vec::new(),
            ids: Vec::new(),
            pool: BufPool::new(),
            query_groups: Vec::new(),
            reply_groups: Vec::new(),
        }
    }

    /// Queues one effect for the driver.
    pub fn push(&mut self, effect: Effect<P>) {
        self.effects.push(effect);
    }

    /// The effects queued so far.
    pub fn effects(&self) -> &[Effect<P>] {
        &self.effects
    }

    /// Number of queued effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether no effects are queued.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// Clears the queued effects, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.effects.clear();
    }

    /// Removes and yields the queued effects, keeping capacity.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect<P>> {
        self.effects.drain(..)
    }

    /// Borrows the id scratch out of the sink (empty, capacity warm).
    /// Return it with [`EffectSink::put_ids`] so the capacity survives to
    /// the next activation.
    pub fn take_ids(&mut self) -> Vec<NodeId> {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids
    }

    /// Hands the id scratch back after a phase is done with it.
    pub fn put_ids(&mut self, mut ids: Vec<NodeId>) {
        ids.clear();
        self.ids = ids;
    }

    /// Borrows the per-next-hop query grouping scratch (empty, outer
    /// capacity warm). Return it with [`EffectSink::put_query_groups`].
    pub fn take_query_groups(&mut self) -> Vec<(NodeId, Vec<QueryItem<P>>)> {
        let mut groups = std::mem::take(&mut self.query_groups);
        groups.clear();
        groups
    }

    /// Hands the query grouping scratch back, recycling any inner
    /// buffers still attached to it.
    pub fn put_query_groups(&mut self, mut groups: Vec<(NodeId, Vec<QueryItem<P>>)>) {
        for (_, buf) in groups.drain(..) {
            self.pool.put_queries(buf);
        }
        self.query_groups = groups;
    }

    /// Borrows the per-origin reply grouping scratch (empty, outer
    /// capacity warm). Return it with [`EffectSink::put_reply_groups`].
    pub fn take_reply_groups(&mut self) -> Vec<(NodeId, Vec<QueryReplyItem<P>>)> {
        let mut groups = std::mem::take(&mut self.reply_groups);
        groups.clear();
        groups
    }

    /// Hands the reply grouping scratch back, recycling any inner
    /// buffers still attached to it.
    pub fn put_reply_groups(&mut self, mut groups: Vec<(NodeId, Vec<QueryReplyItem<P>>)>) {
        for (_, buf) in groups.drain(..) {
            self.pool.put_replies(buf);
        }
        self.reply_groups = groups;
    }
}

impl<P> Default for EffectSink<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_sink_reuses_capacity_across_rounds() {
        let mut sink: EffectSink<f64> = EffectSink::new();
        sink.push(Effect::Probe {
            peer: NodeId::new(1),
            channel: Channel::Topology,
        });
        sink.push(Effect::Send {
            to: NodeId::new(2),
            wire: Wire::Heartbeat,
        });
        assert_eq!(sink.len(), 2);
        let drained: Vec<_> = sink.drain().collect();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());

        let mut ids = sink.take_ids();
        ids.extend([NodeId::new(7), NodeId::new(8)]);
        let cap = ids.capacity();
        sink.put_ids(ids);
        let again = sink.take_ids();
        assert!(again.is_empty());
        assert!(again.capacity() >= cap, "scratch capacity must survive");
        sink.put_ids(again);
    }

    #[test]
    fn kinds_and_channels_are_consistent() {
        let wires: Vec<Wire<f64>> = vec![
            Wire::RpsRequest {
                descriptors: vec![],
            },
            Wire::TManReply {
                descriptors: vec![],
            },
            Wire::MigrationReply {
                xid: 1,
                points: vec![],
                busy: false,
                pulled: 0,
                pushed: 0,
            },
            Wire::MigrationAck { xid: 1 },
            Wire::BackupPush {
                points: vec![],
                added_points: 0,
                removed_ids: 0,
            },
            Wire::Heartbeat,
            Wire::Query {
                qid: 9,
                origin: NodeId::new(3),
                key: 0.5,
                ttl: 16,
                hops: 2,
            },
            Wire::QueryReply {
                qid: 9,
                hops: 4,
                pos: 0.25,
            },
            Wire::QueryBatch {
                queries: vec![QueryItem {
                    qid: 11,
                    origin: NodeId::new(3),
                    key: 0.5,
                    ttl: 16,
                    hops: 0,
                }],
            },
            Wire::QueryReplyBatch {
                replies: vec![QueryReplyItem {
                    qid: 11,
                    hops: 3,
                    pos: 0.75,
                }],
            },
        ];
        let kinds: Vec<&str> = wires.iter().map(Wire::kind).collect();
        assert_eq!(
            kinds,
            vec![
                "rps_request",
                "tman_reply",
                "migration_reply",
                "migration_ack",
                "backup_push",
                "heartbeat",
                "query",
                "query_reply",
                "query_batch",
                "query_reply_batch"
            ]
        );
        assert_eq!(wires[0].channel(), Channel::PeerSampling);
        assert_eq!(wires[1].channel(), Channel::Topology);
        assert_eq!(wires[2].channel(), Channel::Migration);
        assert_eq!(wires[3].channel(), Channel::Migration);
        assert_eq!(wires[4].channel(), Channel::Backup);
        assert_eq!(wires[5].channel(), Channel::Heartbeat);
        assert_eq!(wires[6].channel(), Channel::Query);
        assert_eq!(wires[7].channel(), Channel::Query);
        assert_eq!(wires[8].channel(), Channel::Query);
        assert_eq!(wires[9].channel(), Channel::Query);
    }

    #[test]
    fn batch_buffers_pool_and_come_back_empty() {
        let mut pool: BufPool<f64> = BufPool::new();
        let mut queries = pool.take_queries();
        queries.push(QueryItem {
            qid: 1,
            origin: NodeId::new(2),
            key: 0.5,
            ttl: 8,
            hops: 0,
        });
        let qcap = queries.capacity();
        pool.recycle_wire(Wire::QueryBatch { queries });
        let again = pool.take_queries();
        assert!(again.is_empty(), "recycled batch buffers retain nothing");
        assert!(again.capacity() >= qcap);
        pool.put_queries(again);

        let mut replies = pool.take_replies();
        replies.push(QueryReplyItem {
            qid: 1,
            hops: 2,
            pos: 0.25,
        });
        pool.recycle_wire(Wire::QueryReplyBatch { replies });
        let again = pool.take_replies();
        assert!(again.is_empty());
        let (_, _, _, q, r) = pool.pooled_counts();
        assert_eq!((q, r), (1, 0), "taken reply buffer left the pool");
    }

    #[test]
    fn levelling_evens_out_each_kind_and_keeps_the_books() {
        let (mut a, mut b): (BufPool<f64>, BufPool<f64>) = (BufPool::new(), BufPool::new());
        for cap in 1..=7 {
            a.put_points(Vec::with_capacity(cap));
        }
        b.put_queries(Vec::with_capacity(4));
        a.level_with(&mut b);
        assert_eq!((a.pooled_counts().1, b.pooled_counts().1), (4, 3));
        assert_eq!(
            a.pooled_counts().3 + b.pooled_counts().3,
            1,
            "a lone buffer stays where it is or moves, never doubles"
        );
        // Retained-element accounting follows the buffers.
        let retained = |pool: &mut BufPool<f64>| {
            let claimed = pool.pooled_elements().1;
            let mut held = 0;
            for _ in 0..pool.pooled_counts().1 {
                held += pool.take_points().capacity();
            }
            assert_eq!(pool.pooled_elements().1, 0);
            (claimed, held)
        };
        let ((claimed_a, held_a), (claimed_b, held_b)) = (retained(&mut a), retained(&mut b));
        assert_eq!(claimed_a, held_a);
        assert_eq!(claimed_b, held_b);
        assert!(held_a + held_b >= (1..=7).sum::<usize>());
        // Levelling from the emptier side is the same operation.
        b.put_replies(Vec::with_capacity(2));
        b.put_replies(Vec::with_capacity(2));
        b.put_replies(Vec::with_capacity(2));
        a.level_with(&mut b);
        assert_eq!((a.pooled_counts().4, b.pooled_counts().4), (1, 2));
        // A receiver at its element budget is handed nothing: the donor's
        // surplus stays pooled instead of being dropped on arrival.
        let full = MAX_POOLED_ELEMENTS / MAX_POOLED_CAPACITY;
        for _ in 0..full {
            a.put_point_ids(Vec::with_capacity(MAX_POOLED_CAPACITY));
        }
        assert_eq!(a.pooled_elements().2, MAX_POOLED_ELEMENTS);
        for _ in 0..full + 40 {
            b.put_point_ids(Vec::with_capacity(1));
        }
        let donor = (b.pooled_counts().2, b.pooled_elements().2);
        a.level_with(&mut b);
        assert_eq!(a.pooled_counts().2, full);
        assert_eq!((b.pooled_counts().2, b.pooled_elements().2), donor);
    }

    #[test]
    fn grouping_scratch_recycles_inner_buffers() {
        let mut sink: EffectSink<f64> = EffectSink::new();
        let mut groups = sink.take_query_groups();
        let mut inner = sink.pool.take_queries();
        inner.push(QueryItem {
            qid: 1,
            origin: NodeId::new(2),
            key: 0.5,
            ttl: 8,
            hops: 0,
        });
        groups.push((NodeId::new(7), inner));
        sink.put_query_groups(groups);
        // The abandoned inner buffer must have been salvaged into the pool.
        assert_eq!(sink.pool.pooled_counts().3, 1);
        let groups = sink.take_query_groups();
        assert!(groups.is_empty());
        sink.put_query_groups(groups);
    }
}
