//! The live cluster harness: spawns node threads over a [`Transport`],
//! injects crashes and fresh joiners, offers traffic, observes global
//! health, and shuts everything down.

use crate::config::RuntimeConfig;
use crate::fabric::Transport;
use crate::harness::{contacts_from_board, contacts_from_shape};
use crate::message::Message;
use crate::node::NodeRuntime;
use crate::observe::{observe, ObservationBoard};
use crate::registry::Registry;
use crate::traffic::GatewayTraffic;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::observe::RoundObservation;
use polystyrene_protocol::select_region_victims;
use polystyrene_space::MetricSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the harness keeps per alive node.
struct Node<P> {
    mailbox: Sender<Message<P>>,
    /// Admission gauge shared with the node thread: queries accepted
    /// into the mailbox but not yet handled. The offer path sheds
    /// against it instead of flooding a slow node.
    ingress: Arc<AtomicUsize>,
    /// The node thread plus the transport's service threads.
    threads: Vec<JoinHandle<()>>,
}

/// A running Polystyrene deployment: one thread per node, exchanging
/// messages over the transport `T` (in-process mailboxes by default;
/// `polystyrene-transport` supplies loopback TCP).
///
/// See the crate-level docs for an end-to-end example.
pub struct Cluster<S: MetricSpace, T: Transport<S::Point> = Registry<<S as MetricSpace>::Point>> {
    space: S,
    config: RuntimeConfig,
    transport: Arc<T>,
    board: Arc<ObservationBoard<S::Point>>,
    original_points: Vec<DataPoint<S::Point>>,
    /// The alive nodes: the harness's authority on who is alive.
    nodes: Mutex<HashMap<NodeId, Node<S::Point>>>,
    /// Threads of killed nodes, joined at shutdown. A kill is crash-stop:
    /// it must not wait for the dying threads (a node mid-write to
    /// another dead peer can take a full io timeout to notice), or
    /// killing a region would stall the harness while the survivors'
    /// clocks keep running.
    graveyard: Mutex<Vec<JoinHandle<()>>>,
    next_id: Mutex<u64>,
    rng: Mutex<StdRng>,
    /// Traffic-plane offer state: the dedicated gateway-draw stream,
    /// the qid counter, the cumulative shed count and the batching
    /// scratch.
    traffic: Mutex<GatewayTraffic>,
}

impl<S: MetricSpace, T: Transport<S::Point>> Cluster<S, T> {
    /// Spawns one node per position of `shape`, each founding the data
    /// point at its position.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty, the configuration is invalid, or the
    /// transport cannot allocate a node's endpoint.
    pub fn spawn(space: S, shape: Vec<S::Point>, config: T::Config) -> Self {
        assert!(!shape.is_empty(), "cannot spawn an empty cluster");
        let transport = Arc::new(T::open(config));
        let config = T::runtime(&config);
        let original_points: Vec<DataPoint<S::Point>> = shape
            .iter()
            .enumerate()
            .map(|(i, p)| DataPoint::new(PointId::new(i as u64), p.clone()))
            .collect();
        let cluster = Self {
            space,
            config,
            transport,
            board: ObservationBoard::new(),
            original_points: original_points.clone(),
            nodes: Mutex::new(HashMap::new()),
            graveyard: Mutex::new(Vec::new()),
            next_id: Mutex::new(shape.len() as u64),
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            traffic: Mutex::new(GatewayTraffic::new(config.seed)),
        };
        for (i, pos) in shape.iter().enumerate() {
            let contacts = {
                let mut rng = cluster.rng.lock();
                contacts_from_shape(&shape, i, cluster.config.bootstrap_contacts, &mut rng)
            };
            cluster.spawn_node(
                NodeId::new(i as u64),
                Some(original_points[i].clone()),
                pos.clone(),
                contacts,
            );
        }
        cluster
    }

    fn spawn_node(
        &self,
        id: NodeId,
        origin: Option<DataPoint<S::Point>>,
        position: S::Point,
        contacts: Vec<Descriptor<S::Point>>,
    ) {
        let (tx, rx) = crossbeam::channel::unbounded();
        // Attached before the node runs: a peer that learns of this node
        // can reach it from the first tick.
        let (fabric, mut threads) = self.transport.attach(id, tx.clone());
        let ingress = Arc::new(AtomicUsize::new(0));
        let node = NodeRuntime::new(
            id,
            self.space.clone(),
            self.config,
            origin,
            position,
            contacts,
            fabric,
            Arc::clone(&self.board),
            rx,
            Arc::clone(&ingress),
        );
        threads.push(
            std::thread::Builder::new()
                .name(format!("poly-{id}"))
                .spawn(move || node.run())
                .expect("failed to spawn node thread"),
        );
        self.nodes.lock().insert(
            id,
            Node {
                mailbox: tx,
                ingress,
                threads,
            },
        );
    }

    /// The original data points (the target shape).
    pub fn original_points(&self) -> &[DataPoint<S::Point>] {
        &self.original_points
    }

    /// Ids currently alive.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.nodes.lock().keys().copied().collect()
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.lock().contains_key(&id)
    }

    /// Protocol messages lost in transit to the injected link faults
    /// (zero on an ideal link).
    pub fn injected_drops(&self) -> u64 {
        self.transport.injected_drops()
    }

    /// Frames the transport has written to the wire so far (zero on the
    /// in-process transport, which moves values).
    pub fn sent_frames(&self) -> u64 {
        self.transport.sent_frames()
    }

    /// Hard-crashes a node: detaches it from the transport (its mailbox
    /// backlog is lost to peers) and signals its threads to stop
    /// *without waiting for them*, so killing half a torus costs
    /// milliseconds while the survivors' clocks run. No goodbye
    /// messages: peers notice through failed sends and heartbeat
    /// timeouts. The dying threads (which exit within one mailbox poll)
    /// are joined by [`Cluster::shutdown`]. Returns whether the node was
    /// alive.
    pub fn kill(&self, id: NodeId) -> bool {
        let Some(node) = self.nodes.lock().remove(&id) else {
            return false;
        };
        // Detach first: probes and delivery reports turn negative before
        // the thread even sees the signal.
        self.transport.detach(id);
        let _ = node.mailbox.send(Message::Shutdown);
        self.graveyard.lock().extend(node.threads);
        self.board.remove(id);
        true
    }

    /// Crashes every founding node whose original data point satisfies
    /// `predicate`: the paper's correlated regional failure, with victim
    /// selection shared with every other substrate through
    /// [`select_region_victims`]. Returns the crashed ids.
    pub fn kill_region(&self, predicate: impl Fn(&S::Point) -> bool + Send + Sync) -> Vec<NodeId> {
        let victims =
            select_region_victims(&self.original_points, &predicate, &|id| self.is_alive(id));
        victims.into_iter().filter(|&id| self.kill(id)).collect()
    }

    /// Injects a fresh node with no data points at `position`
    /// (the paper's Phase 3 joiners), bootstrapped from alive contacts.
    /// Returns its id.
    pub fn inject(&self, position: S::Point) -> NodeId {
        let id = {
            let mut next = self.next_id.lock();
            let id = NodeId::new(*next);
            *next += 1;
            id
        };
        let alive = self.alive_ids();
        let contacts: Vec<Descriptor<S::Point>> = {
            let mut rng = self.rng.lock();
            contacts_from_board(
                &alive,
                &self.board.snapshot(),
                self.config.bootstrap_contacts,
                &mut rng,
            )
        };
        self.spawn_node(id, None, position, contacts);
        id
    }

    /// Lets the cluster run for a wall-clock duration.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Offers one application query per key, each issued through a
    /// uniformly random alive gateway node. Keys that draw the same
    /// gateway share one self-addressed
    /// [`polystyrene_protocol::Wire::QueryBatch`] envelope, put straight
    /// into the gateway's mailbox: issuing a query at a node crosses no
    /// link, so the transport (and its loss model) sees only the
    /// forwarding hops. Admission is bounded per gateway
    /// ([`crate::GATEWAY_INGRESS_BOUND`]), and batches refused at a full
    /// gateway are *shed*: counted in the observation plane's
    /// `traffic.shed`, separate from queries that expired in flight.
    pub fn offer_traffic(&self, keys: &[S::Point], ttl: u32) {
        let nodes = self.nodes.lock();
        let alive: Vec<NodeId> = nodes.keys().copied().collect();
        self.traffic.lock().offer(
            keys,
            ttl,
            &alive,
            |id| nodes.get(&id).map(|n| Arc::clone(&n.ingress)),
            |gateway, wire| {
                let _ = nodes[&gateway].mailbox.send(Message::Protocol {
                    from: gateway,
                    wire,
                });
            },
        );
    }

    /// Queries shed at gateway ingress so far (cumulative).
    pub fn shed_queries(&self) -> u64 {
        self.traffic.lock().shed()
    }

    /// Blocks until every alive node has executed at least `ticks` local
    /// rounds (with a safety timeout of `max_wait`).
    pub fn await_ticks(&self, ticks: u64, max_wait: Duration) {
        let deadline = std::time::Instant::now() + max_wait;
        loop {
            let obs = self.observe();
            // Every *alive* node must have published and progressed:
            // counting only publishers would return before slow starters
            // ever appear on the board.
            let alive = self.nodes.lock().len();
            if obs.alive_nodes >= alive && obs.alive_nodes > 0 && obs.ticks >= ticks {
                return;
            }
            if std::time::Instant::now() > deadline {
                return;
            }
            std::thread::sleep(self.config.tick);
        }
    }

    /// Measures cluster health from the observation plane, reported as
    /// the unified [`RoundObservation`] record. Reports are filtered to
    /// the alive nodes: kills do not wait for the dying threads, and a
    /// node may publish one last report after its crash, which must not
    /// count. The traffic counters are cumulative (node threads publish
    /// running totals), including the offer-side shed count stamped
    /// here.
    pub fn observe(&self) -> RoundObservation {
        let mut snapshot = self.board.snapshot();
        {
            let nodes = self.nodes.lock();
            snapshot.retain(|id, _| nodes.contains_key(id));
        }
        let mut obs = observe(
            &self.space,
            &self.original_points,
            &snapshot,
            self.config.area,
        );
        obs.traffic.shed = self.traffic.lock().shed();
        obs
    }

    /// Orderly shutdown: stops every node and joins its threads,
    /// including those of previously killed nodes. Threads a transport
    /// did not hand over at attach (per-connection readers) wind down on
    /// their own once their node is detached.
    pub fn shutdown(&self) {
        for id in self.alive_ids() {
            self.kill(id);
        }
        let handles: Vec<JoinHandle<()>> = self.graveyard.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<S: MetricSpace, T: Transport<S::Point>> Drop for Cluster<S, T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
