//! The worker pool: a fixed set of threads, each running the loops of
//! the nodes assigned to it.
//!
//! A node is not a thread. A [`crate::Cluster`] starts
//! `min(available_parallelism(), nodes)` workers and assigns node `id`
//! to worker `id % workers` for life (no stealing: a node's messages and
//! ticks are serialized by its one worker, which is all the sans-IO
//! state machine asks for). A worker owns its nodes by value and one
//! inbox; everything that reaches one of its nodes (peer messages from
//! the transport, gateway injections, the harness's shutdown signal)
//! arrives there addressed to the node's id, put in through the node's
//! [`Mailbox`]. The worker sleeps in `recv_timeout` until the earliest
//! tick deadline among its nodes, hands arrivals to their node, and runs
//! a node's round when it is due: the loop a node thread would run, over
//! a set of nodes.
//!
//! Pacing stays per node: each keeps its own `next_tick`, re-armed
//! relative to the end of its round (the fixed-delay rule in
//! [`crate::node`]). The worker only indexes those deadlines in a heap,
//! so that finding the next one does not scan the nodes on every
//! message.

use crate::message::Message;
use crate::observe::ObservationBoard;
use polystyrene_membership::NodeId;
use polystyrene_protocol::Wire;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::ControlFlow;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Upper bound on inbox entries handled in the pre-tick drain, so a
/// sustained arrival stream can delay a round but never suppress it. Far
/// above any per-round backlog a healthy cluster produces (a node
/// receives a few dozen messages per round at most, and every due node
/// of the worker drains again before its own tick).
const MAX_DRAIN_PER_TICK: usize = 512;

/// A node as its worker runs it: [`crate::node::NodeRuntime`] minus the
/// metric space in its type, which one inbox shared by the whole
/// transport (typed by the point alone) cannot name.
pub(crate) trait Resident<P>: Send {
    /// The node's id, the address of its [`Mailbox`].
    fn id(&self) -> NodeId;
    /// When the node's next round is due.
    fn next_tick(&self) -> Instant;
    /// Feeds one arrival to the node.
    fn handle(&mut self, from: NodeId, wire: Wire<P>);
    /// Runs one round and re-arms the node; returns the new deadline.
    fn tick(&mut self) -> Instant;
}

/// What arrives in a worker's inbox.
pub(crate) enum Post<P> {
    /// A freshly built node for this worker to run from now on.
    Adopt(Box<dyn Resident<P>>),
    /// A message for one of the worker's nodes. [`Message::Shutdown`]
    /// retires the addressee; anything addressed to a node the worker
    /// does not (or no longer) run is the backlog of a crashed node and
    /// is discarded, which is what its mailbox dying used to do.
    Deliver(NodeId, Message<P>),
    /// Ends the worker, dropping whatever nodes it still runs.
    Stop,
}

/// The sending end of a worker's inbox, and a watch on its receiving
/// end: `std`'s sender cannot tell that its receiver is gone without
/// sending, so [`Mailbox::is_disconnected`] asks the watch instead.
pub(crate) type Inbox<P> = (Sender<Post<P>>, Weak<()>);

/// The receiving end of a worker's inbox, and the token its [`Inbox`]
/// watches, dropped with it.
pub(crate) type Posts<P> = (Receiver<Post<P>>, Arc<()>);

/// Opens a worker's inbox.
pub(crate) fn inbox<P>() -> (Inbox<P>, Posts<P>) {
    let (sender, receiver) = mpsc::channel();
    let alive = Arc::new(());
    ((sender, Arc::downgrade(&alive)), (receiver, alive))
}

/// The delivery handle of one node: its id plus the inbox of the worker
/// that runs it. This is what a [`crate::Transport`] is given at attach
/// and what every delivery path (registry sends, the TCP fabric's I/O
/// thread, the gateway offer) puts messages into.
pub struct Mailbox<P> {
    id: NodeId,
    inbox: Sender<Post<P>>,
    worker: Weak<()>,
}

impl<P> Clone for Mailbox<P> {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            inbox: self.inbox.clone(),
            worker: self.worker.clone(),
        }
    }
}

impl<P> Mailbox<P> {
    pub(crate) fn new(id: NodeId, (inbox, worker): Inbox<P>) -> Self {
        Self { id, inbox, worker }
    }

    /// The node this mailbox delivers to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Queues `message` for the node; `false` if its worker is gone
    /// (message lost, crash-stop style).
    pub fn send(&self, message: Message<P>) -> bool {
        self.inbox.send(Post::Deliver(self.id, message)).is_ok()
    }

    /// Whether the node's worker is gone. A `true` answer is final.
    pub fn is_disconnected(&self) -> bool {
        self.worker.strong_count() == 0
    }
}

/// One pool thread's state.
pub(crate) struct Worker<P> {
    inbox: Receiver<Post<P>>,
    /// Dropped with the worker: what its mailboxes watch.
    _alive: Arc<()>,
    board: Arc<ObservationBoard<P>>,
    nodes: HashMap<NodeId, Box<dyn Resident<P>>>,
    /// Every node's `next_tick`, earliest first. A node has exactly one
    /// live entry (pushed at adoption and after each round); the entry
    /// of a retired node is skipped when it surfaces.
    due: BinaryHeap<Reverse<(Instant, NodeId)>>,
}

impl<P: Clone> Worker<P> {
    pub(crate) fn new((inbox, alive): Posts<P>, board: Arc<ObservationBoard<P>>) -> Self {
        Self {
            inbox,
            _alive: alive,
            board,
            nodes: HashMap::new(),
            due: BinaryHeap::new(),
        }
    }

    /// The thread body: alternate message handling and rounds until a
    /// [`Post::Stop`] arrives or every sender is gone.
    pub(crate) fn run(mut self) {
        loop {
            let post = match self.due.peek() {
                None => self
                    .inbox
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
                Some(&Reverse((at, id))) => {
                    let now = Instant::now();
                    if at <= now {
                        self.due.pop();
                        if self.round(at, id).is_break() {
                            return;
                        }
                        continue;
                    }
                    self.inbox.recv_timeout(at - now)
                }
            };
            match post {
                Ok(post) => {
                    if self.accept(post).is_break() {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Takes one inbox entry; `Break` ends the worker.
    fn accept(&mut self, post: Post<P>) -> ControlFlow<()> {
        match post {
            Post::Adopt(node) => {
                self.due.push(Reverse((node.next_tick(), node.id())));
                self.nodes.insert(node.id(), node);
            }
            Post::Deliver(id, Message::Shutdown) => {
                // Dropping the node first closes the last-publish race:
                // whatever it published while the kill was in flight is
                // removed after it can publish no more.
                self.nodes.remove(&id);
                self.board.remove(id);
            }
            Post::Deliver(id, Message::Protocol { from, wire }) => {
                if let Some(node) = self.nodes.get_mut(&id) {
                    node.handle(from, wire);
                }
            }
            Post::Stop => return ControlFlow::Break(()),
        }
        ControlFlow::Continue(())
    }

    /// The deadline `at` of node `id` has passed: drain, then run its
    /// round.
    fn round(&mut self, at: Instant, id: NodeId) -> ControlFlow<()> {
        if self.nodes.get(&id).map(|node| node.next_tick()) != Some(at) {
            return ControlFlow::Continue(());
        }
        // Drain the inbox backlog before ticking: a node that has fallen
        // behind must not run catch-up ticks back-to-back while replies
        // starve in the queue, which is a death spiral (migration
        // replies time out, the late-reply absorb path duplicates
        // guests, the extra points make every subsequent tick slower).
        // The drain is bounded so messages arriving *during* the drain
        // cannot starve the tick itself: a node whose arrival rate
        // matches its handling rate must still heartbeat, and so must
        // the siblings that share its worker.
        for _ in 0..MAX_DRAIN_PER_TICK {
            match self.inbox.try_recv() {
                Ok(post) => self.accept(post)?,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return ControlFlow::Break(()),
            }
        }
        // The drain may have retired the very node that was due.
        if let Some(node) = self.nodes.get_mut(&id) {
            let next = node.tick();
            self.due.push(Reverse((next, id)));
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Generous: only a wedged worker reaches it.
    const MAX_WAIT: Duration = Duration::from_secs(30);

    /// A node that reports every round it runs and, when `echo` is set,
    /// answers every message with one more to itself.
    struct Probe {
        id: NodeId,
        next_tick: Instant,
        ticked: Sender<NodeId>,
        echo: Option<Mailbox<f64>>,
    }

    impl Resident<f64> for Probe {
        fn id(&self) -> NodeId {
            self.id
        }
        fn next_tick(&self) -> Instant {
            self.next_tick
        }
        fn handle(&mut self, from: NodeId, wire: Wire<f64>) {
            if let Some(mailbox) = &self.echo {
                mailbox.send(Message::Protocol { from, wire });
            }
        }
        fn tick(&mut self) -> Instant {
            let _ = self.ticked.send(self.id);
            self.next_tick = Instant::now() + Duration::from_millis(1);
            self.next_tick
        }
    }

    fn heartbeat(from: NodeId) -> Message<f64> {
        Message::Protocol {
            from,
            wire: Wire::Heartbeat,
        }
    }

    #[test]
    fn every_clone_of_a_mailbox_sees_its_worker_go() {
        let (inbox, posts) = inbox();
        let mailbox = Mailbox::new(NodeId::new(1), inbox);
        let clone = mailbox.clone();
        assert!(!mailbox.is_disconnected() && !clone.is_disconnected());
        drop(posts);
        assert!(mailbox.is_disconnected());
        assert!(clone.is_disconnected(), "clones share the watch");
        assert!(!clone.send(heartbeat(NodeId::new(0))));
    }

    #[test]
    fn a_flooded_node_does_not_starve_its_worker() {
        let (inbox, rx) = inbox();
        let (ticked, ticks) = mpsc::channel();
        let (flooded, sibling) = (NodeId::new(0), NodeId::new(1));
        let mailbox = Mailbox::new(flooded, inbox.clone());
        for id in [flooded, sibling] {
            let probe = Probe {
                id,
                next_tick: Instant::now(),
                ticked: ticked.clone(),
                echo: (id == flooded).then(|| mailbox.clone()),
            };
            inbox.0.send(Post::Adopt(Box::new(probe))).unwrap();
        }
        // A backlog deeper than one drain that never shrinks: every
        // handled message queues its successor, so the inbox is never
        // empty and only the bound on the drain lets a round run.
        for _ in 0..2 * MAX_DRAIN_PER_TICK {
            assert!(mailbox.send(heartbeat(flooded)));
        }
        let worker = std::thread::spawn(move || Worker::new(rx, ObservationBoard::new()).run());
        let (mut flooded_ticks, mut sibling_ticks) = (0, 0);
        while flooded_ticks < 3 || sibling_ticks < 3 {
            let id = ticks
                .recv_timeout(MAX_WAIT)
                .expect("the flood suppressed every round");
            if id == flooded {
                flooded_ticks += 1;
            } else {
                sibling_ticks += 1;
            }
        }
        inbox.0.send(Post::Stop).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn shutdown_retires_the_node_and_its_backlog_is_discarded() {
        let (inbox, rx) = inbox();
        let (ticked, ticks) = mpsc::channel();
        let id = NodeId::new(4);
        let mailbox = Mailbox::new(id, inbox.clone());
        let probe = Probe {
            id,
            next_tick: Instant::now(),
            ticked,
            echo: None,
        };
        inbox.0.send(Post::Adopt(Box::new(probe))).unwrap();
        let worker = std::thread::spawn(move || Worker::new(rx, ObservationBoard::new()).run());
        ticks.recv_timeout(MAX_WAIT).expect("the node never ran");
        assert!(mailbox.send(Message::Shutdown));
        // The worker lives on and swallows what is still addressed to
        // the node it dropped.
        assert!(mailbox.send(heartbeat(id)));
        assert!(!mailbox.is_disconnected());
        // The node was dropped with its end of the tick channel, not
        // merely left unscheduled.
        while ticks.recv_timeout(MAX_WAIT).is_ok() {}
        inbox.0.send(Post::Stop).unwrap();
        worker.join().unwrap();
        assert!(mailbox.is_disconnected());
        assert!(!mailbox.send(heartbeat(id)));
    }
}
