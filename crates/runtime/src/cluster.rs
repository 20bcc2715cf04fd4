//! The live cluster harness: starts the worker pool, builds nodes over
//! a [`Transport`] and hands them to their workers, injects crashes and
//! fresh joiners, offers traffic, observes global health, and shuts
//! everything down.

use crate::config::live_protocol;
use crate::fabric::Transport;
use crate::node::NodeRuntime;
use crate::observe::{observe, ObservationBoard};
use crate::registry::Registry;
use crate::traffic::GatewayTraffic;
use crate::worker::{inbox, Inbox, Mailbox, Post, Worker};
use polystyrene::prelude::{DataPoint, PolyState};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::observe::{Census, RoundObservation};
use polystyrene_protocol::{
    founder_contacts, founding_points, joiner_contacts, ProtocolNode, SubstrateConfig,
};
use polystyrene_space::MetricSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the harness keeps per alive node.
struct Node<P> {
    mailbox: Mailbox<P>,
    /// Admission gauge shared with the node: queries accepted into the
    /// mailbox but not yet handled. The offer path sheds against it
    /// instead of flooding a slow node.
    ingress: Arc<AtomicUsize>,
}

/// A running Polystyrene deployment: nodes multiplexed over a fixed pool
/// of worker threads ([`crate::worker`]), exchanging messages over the
/// transport `T` (in-process mailboxes by default;
/// `polystyrene-transport` supplies loopback TCP).
///
/// The cluster is a value owned by the thread that drives it, as the
/// deterministic drivers' `World` is: what changes who is alive or what
/// is offered (kills, joins, traffic, shutdown) takes `&mut self`, and
/// the harness state is plain fields. The workers share only the
/// observation board, the transport and each node's ingress gauge.
/// [`Self::alive_ids`] ascends, so every draw over the alive set
/// (joiners' contacts, gateways, victims) is a function of the seed.
///
/// See the crate-level docs for an end-to-end example.
pub struct Cluster<S: MetricSpace, T: Transport<S::Point> = Registry<<S as MetricSpace>::Point>> {
    space: S,
    config: SubstrateConfig,
    transport: Arc<T>,
    board: Arc<ObservationBoard<S::Point>>,
    original_points: Vec<DataPoint<S::Point>>,
    /// The alive nodes, by ascending id: the harness's authority on who
    /// is alive.
    nodes: BTreeMap<NodeId, Node<S::Point>>,
    /// One inbox per pool worker; node `id` lives on worker
    /// `id % workers.len()` from adoption to its kill.
    workers: Vec<Inbox<S::Point>>,
    /// The worker threads, joined at shutdown.
    pool: Vec<JoinHandle<()>>,
    /// Next id [`Self::inject`] issues. Never wraps: [`NodeId::new`]
    /// panics, naming the `u32::MAX` bound, once the id space is spent.
    next_id: u64,
    rng: StdRng,
    /// Traffic-plane offer state: the dedicated gateway-draw stream,
    /// the qid counter, the cumulative shed count and the batching
    /// scratch.
    traffic: GatewayTraffic,
    /// The measurement tables [`Cluster::observe`] reuses: the one lock
    /// of the harness, there only because `observe` must take `&self`
    /// (the experiment plane's `Substrate::observe` reads a cluster it
    /// holds shared).
    census: Mutex<Census<S::Point>>,
}

impl<S: MetricSpace, T: Transport<S::Point>> Cluster<S, T> {
    /// Spawns one node per position of `shape`, each founding the data
    /// point at its position. Founders draw their bootstrap contacts
    /// from the cluster's stream in id order, by the rule every
    /// substrate founds by ([`founder_contacts`]).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty, the configuration is invalid, the
    /// transport cannot allocate a node's endpoint, or a worker thread
    /// cannot be started.
    pub fn spawn(space: S, shape: Vec<S::Point>, config: impl Into<SubstrateConfig>) -> Self {
        let config = config.into();
        assert!(!shape.is_empty(), "cannot spawn an empty cluster");
        config.validate();
        let transport = Arc::new(T::open(&config));
        let board = ObservationBoard::new();
        // As many workers as the machine runs at once, never more than
        // there are nodes to run: past that a thread only adds a stack,
        // an allocator arena and context switches.
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (workers, pool) = (0..parallelism.min(shape.len()))
            .map(|i| {
                let (inbox, posts) = inbox();
                let worker = Worker::new(posts, Arc::clone(&board));
                let thread = std::thread::Builder::new()
                    .name(format!("poly-worker-{i}"))
                    .spawn(move || worker.run())
                    .expect("failed to spawn worker thread");
                (inbox, thread)
            })
            .unzip();
        let original_points = founding_points(&shape);
        let mut cluster = Self {
            space,
            config,
            transport,
            board,
            original_points: original_points.clone(),
            nodes: BTreeMap::new(),
            workers,
            pool,
            next_id: shape.len() as u64,
            rng: StdRng::seed_from_u64(config.seed),
            traffic: GatewayTraffic::new(config.seed),
            census: Mutex::new(Census::new()),
        };
        let rps_view_cap = live_protocol(&config).rps_view_cap;
        for (i, origin) in original_points.into_iter().enumerate() {
            let (rps, tman) = founder_contacts(i, &shape, rps_view_cap, &mut cluster.rng);
            let poly = PolyState::with_initial_point(origin);
            cluster.spawn_node(NodeId::new(i as u64), poly, rps, tman);
        }
        cluster
    }

    fn spawn_node(
        &mut self,
        id: NodeId,
        poly: PolyState<S::Point>,
        rps: Vec<Descriptor<S::Point>>,
        tman: Vec<Descriptor<S::Point>>,
    ) {
        let node = ProtocolNode::new(
            id,
            self.space.clone(),
            live_protocol(&self.config),
            poly,
            rps,
            tman,
        );
        let worker = &self.workers[id.index() % self.workers.len()];
        let mailbox = Mailbox::new(id, worker.clone());
        // Attached before the node runs: a peer that learns of this node
        // can reach it from the first tick (what arrives before the
        // adoption below has been taken in is discarded, as a message to
        // a node not yet listening would be).
        let fabric = self.transport.attach(mailbox.clone());
        let ingress = Arc::new(AtomicUsize::new(0));
        let node = NodeRuntime::new(
            node,
            self.config,
            fabric,
            Arc::clone(&self.board),
            Arc::clone(&ingress),
        );
        // A worker that is gone (it panicked, or the cluster was shut
        // down) adopts nothing: the node never runs, `await_ticks` says
        // so, and `shutdown` reports why.
        let _ = worker.0.send(Post::Adopt(Box::new(node)));
        self.nodes.insert(id, Node { mailbox, ingress });
    }

    /// The configuration the cluster was spawned with.
    pub fn config(&self) -> &SubstrateConfig {
        &self.config
    }

    /// The original data points (the target shape).
    pub fn original_points(&self) -> &[DataPoint<S::Point>] {
        &self.original_points
    }

    /// Ids currently alive, ascending.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// The transport the cluster's messages travel over, for what it
    /// alone knows (where a TCP node listens).
    pub fn transport(&self) -> &T {
        &self.transport
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
    /// backlog is lost to peers) and tells its worker to drop it
    /// *without waiting for that*, so killing half a torus costs
    /// milliseconds while the survivors' clocks run. No goodbye
    /// messages: peers notice through failed sends and heartbeat
    /// timeouts. The worker removes the node's report when it drops the
    /// node; the transport closes the node's endpoint on its own time
    /// (a TCP node's listener and accepted connections, by the fabric's
    /// I/O thread, within one wake-up). Returns whether the node was
    /// alive.
    pub fn kill(&mut self, id: NodeId) -> bool {
        let Some(node) = self.nodes.remove(&id) else {
            return false;
        };
        // Detach first: probes and delivery reports turn negative before
        // the worker even sees the signal.
        self.transport.detach(id);
        node.mailbox.retire();
        true
    }

    /// Injects a fresh node with no data points at `position`
    /// (the paper's Phase 3 joiners), bootstrapped from alive contacts
    /// by the rule every substrate joins by ([`joiner_contacts`]).
    /// Returns its id.
    pub fn inject(&mut self, position: S::Point) -> NodeId {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let alive = self.alive_ids();
        let rps_view_cap = live_protocol(&self.config).rps_view_cap;
        // Positions resolve through the board, read in place: an alive
        // node that has not published yet is skipped.
        let (rps, tman) = self.board.read(|reports| {
            joiner_contacts(
                &alive,
                &|peer| reports.get(&peer).map(|r| r.pos.clone()),
                rps_view_cap,
                &mut self.rng,
            )
        });
        self.spawn_node(id, PolyState::empty_at(position), rps, tman);
        id
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
    pub fn offer_traffic(&mut self, keys: &[S::Point], ttl: u32) {
        let alive = self.alive_ids();
        let nodes = &self.nodes;
        self.traffic.offer(
            keys,
            ttl,
            &alive,
            |id| nodes.get(&id).map(|n| Arc::clone(&n.ingress)),
            |gateway, wire| {
                nodes[&gateway].mailbox.send(gateway, wire);
            },
        );
    }

    /// Queries shed at gateway ingress so far (cumulative).
    pub fn shed_queries(&self) -> u64 {
        self.traffic.shed()
    }

    /// Blocks until every alive node has executed at least `ticks` local
    /// rounds, or `max_wait` (a safety timeout) has passed. Returns
    /// whether the target was reached: `false` means the cluster stalled
    /// (a node never started, a worker died), which the caller should
    /// fail on rather than discover through a later assertion.
    #[must_use = "false means the cluster stalled before reaching the target"]
    pub fn await_ticks(&self, ticks: u64, max_wait: Duration) -> bool {
        let deadline = Instant::now() + max_wait;
        loop {
            // Every *alive* node must have published and progressed:
            // counting only publishers would return before slow starters
            // ever appear on the board.
            let alive = self.nodes.len();
            let (reported, slowest) = self.board.progress(|id| self.is_alive(id));
            if alive > 0 && reported >= alive && slowest >= ticks {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(self.config.tick);
        }
    }

    /// Measures cluster health from the observation plane, reported as
    /// the unified [`RoundObservation`] record, reading the board in
    /// place under its lock. Reports are filtered to the alive nodes: a
    /// kill does not wait for the worker to drop the node, which may
    /// publish one last report after its crash, and that must not count.
    /// The traffic counters are cumulative (nodes publish running
    /// totals), including the offer-side shed count stamped here.
    pub fn observe(&self) -> RoundObservation {
        let mut census = self.census.lock().unwrap_or_else(PoisonError::into_inner);
        let mut obs = self.board.read(|reports| {
            observe(
                &mut census,
                &self.space,
                &self.original_points,
                self.config.area,
                reports
                    .iter()
                    .filter(|(&id, _)| self.is_alive(id))
                    .map(|(_, report)| report),
            )
        });
        obs.traffic.shed = self.traffic.shed();
        obs
    }

    /// Ids that have a report on the observation board, alive or not;
    /// [`Cluster::observe`] never shows the difference.
    #[doc(hidden)]
    pub fn reported_ids(&self) -> Vec<NodeId> {
        self.board.ids()
    }

    /// Orderly shutdown: kills every node, stops the workers and joins
    /// them, then has the transport stop and join whatever threads it
    /// runs of its own ([`Transport::close`]; the TCP fabric's I/O
    /// thread, none in process).
    ///
    /// # Panics
    ///
    /// Resumes the first panic any of those threads died of (a worker
    /// takes every node it runs down with it, and the run must not pass
    /// on the survivors), unless the caller is already unwinding.
    pub fn shutdown(&mut self) {
        for id in self.alive_ids() {
            self.kill(id);
        }
        for (inbox, _) in &self.workers {
            let _ = inbox.send(Post::Stop);
        }
        let mut panic = None;
        for worker in self.pool.drain(..) {
            if let Err(payload) = worker.join() {
                panic.get_or_insert(payload);
            }
        }
        // After the workers: until they stop, nodes are still sending.
        if let Err(payload) = self.transport.close() {
            panic.get_or_insert(payload);
        }
        if let Some(payload) = panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<S: MetricSpace, T: Transport<S::Point>> Drop for Cluster<S, T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NodeFabric;
    use polystyrene_protocol::Wire;
    use polystyrene_space::prelude::*;

    type Point = [f64; 2];

    /// The in-process transport, except that node 0's sending half
    /// panics: a stand-in for any bug inside a node's handler.
    struct Poisoned(Arc<Registry<Point>>);

    struct PoisonedFabric;

    impl NodeFabric<Point> for PoisonedFabric {
        fn send(&mut self, _: NodeId, _: Wire<Point>) -> bool {
            panic!("poisoned fabric");
        }

        fn contains(&mut self, _: NodeId) -> bool {
            true
        }
    }

    impl Transport<Point> for Poisoned {
        fn open(config: &SubstrateConfig) -> Self {
            Self(Arc::new(Registry::open(config)))
        }

        fn attach(self: &Arc<Self>, mailbox: Mailbox<Point>) -> Box<dyn NodeFabric<Point>> {
            let poisoned = mailbox.id() == NodeId::new(0);
            let fabric = self.0.attach(mailbox);
            if poisoned {
                Box::new(PoisonedFabric)
            } else {
                fabric
            }
        }

        fn detach(&self, id: NodeId) {
            self.0.detach(id);
        }

        fn injected_drops(&self) -> u64 {
            self.0.injected_drops()
        }

        fn sent_frames(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_worker_panic_resurfaces_at_shutdown() {
        let mut config = SubstrateConfig::default();
        config.tick = Duration::from_millis(2);
        let mut cluster = Cluster::<Torus2, Poisoned>::spawn(
            Torus2::new(2.0, 2.0),
            shapes::torus_grid(2, 2, 1.0),
            config,
        );
        // Node 0 dies in its first round, before it ever publishes, and
        // takes its worker down: the cluster can never report 4 nodes at
        // tick 1, and says so instead of returning as if it had.
        assert!(!cluster.await_ticks(1, Duration::from_millis(200)));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.shutdown()))
            .expect_err("shutdown must resume the worker's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned fabric"));
        // The threads are joined and the panic is spent: dropping the
        // cluster (a second shutdown) is quiet.
        drop(cluster);
    }
}
