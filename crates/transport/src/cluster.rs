//! The TCP transport: the cluster's messages as framed codec bytes over
//! loopback sockets.
//!
//! Every node owns a real `TcpListener`; every protocol message is one
//! length-framed codec payload ([`crate::framing`]) on a cached per-peer
//! `TcpStream`. The harness and the node loop are `polystyrene-runtime`'s
//! `Cluster` and `NodeRuntime` verbatim; only this [`Transport`] differs,
//! so any behavioral gap between the in-process cluster and this one is
//! a *wire* bug by construction, which is exactly what this substrate
//! exists to surface.
//!
//! Sending is each node's own business: its [`NodeFabric`] is a cache of
//! blocking streams it writes to from its worker. Receiving is shared:
//! the fabric's one I/O thread (`reactor.rs`) holds every node's
//! listener and every accepted stream, and puts what arrives into the
//! addressee's [`Mailbox`]. No thread belongs to a node or to a
//! connection.
//!
//! Failure semantics are crash-stop, carried by the sockets themselves:
//! detaching a node closes its listener and every connection accepted
//! on it at once, so a peer's next send hits a reset or a refused
//! reconnect, reports delivery failure, and feeds the same
//! `Event::PeerUnreachable` purge path every other substrate uses.
//! `link.loss` is honored at the send boundary through the shared
//! [`TransitLoss`] draw, so `--net-loss` experiments run over real
//! sockets too.

use crate::framing::{write_frame_into, MID_FRAME_DEADLINE};
use crate::reactor::IoThread;
use polystyrene_membership::NodeId;
use polystyrene_protocol::codec::{decode_event, encode_event_into, PointCodec};
use polystyrene_protocol::{Event, SubstrateConfig, Wire};
use polystyrene_runtime::{Cluster, Mailbox, NodeFabric, TransitLoss, Transport};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// A running TCP deployment: the one live [`Cluster`] with every
/// message crossing a loopback socket. Per node: one listener and the
/// connections accepted on it, all served by the fabric's single I/O
/// thread and delivering into the node's [`Mailbox`]; the nodes
/// themselves run on the cluster's worker pool.
pub type TcpCluster<S> = Cluster<S, TcpFabric>;

/// Outgoing connections a node keeps open at once; the
/// least-recently-*used* is closed when a send to a new peer needs a
/// slot. Bounds the deployment's file-descriptor footprint at
/// `nodes × cap` connections instead of `nodes²`, while the LRU policy
/// keeps the stable working set — heartbeat targets, the topology
/// neighborhood — cached across the one-shot random-peer traffic (RPS
/// shuffles) that would churn a FIFO cache into a connect-per-message
/// storm.
pub const CONNECTION_CAP: usize = 24;

/// Timeout for opening a connection and for a blocked write (a peer that
/// accepts but never drains is indistinguishable from a dead one past
/// this point).
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The TCP deployment's configuration under its old shape, kept while
/// the repository benchmark builds one: a wrapper around the one
/// [`SubstrateConfig`], which [`Cluster::spawn`] takes it as. The
/// connection cap and the socket timeout are the constants above.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpConfig {
    /// The deployment's configuration.
    pub runtime: SubstrateConfig,
}

impl From<TcpConfig> for SubstrateConfig {
    fn from(config: TcpConfig) -> Self {
        config.runtime
    }
}

/// The shared socket-level address book plus fault-injection state:
/// the TCP analogue of the runtime's `Registry`.
pub struct TcpFabric {
    /// Where each attached node listens.
    addrs: RwLock<HashMap<NodeId, SocketAddr>>,
    loss: TransitLoss,
    sent_frames: AtomicU64,
    /// The receiving half: every listener and accepted stream.
    io: IoThread,
}

impl TcpFabric {
    /// Where node `id` listens; `None` once it is detached.
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.addrs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .copied()
    }

    fn contains(&self, id: NodeId) -> bool {
        self.addrs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&id)
    }
}

impl<P: PointCodec + Clone + Send + 'static> Transport<P> for TcpFabric {
    fn open(config: &SubstrateConfig) -> Self {
        Self {
            addrs: RwLock::new(HashMap::new()),
            loss: TransitLoss::new(config),
            sent_frames: AtomicU64::new(0),
            io: IoThread::start(MID_FRAME_DEADLINE),
        }
    }

    /// Binds the node's loopback listener and hands it to the I/O
    /// thread, with how to deliver what arrives on it.
    fn attach(self: &Arc<Self>, mailbox: Mailbox<P>) -> Box<dyn NodeFabric<P>> {
        let id = mailbox.id();
        let listener =
            TcpListener::bind("127.0.0.1:0").expect("failed to bind a loopback listener");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        listener
            .set_nonblocking(true)
            .expect("loopback listener accepts nonblocking mode");
        self.addrs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, addr);
        // Connections made before the thread has taken the listener in
        // wait in its backlog.
        self.io.attach(
            id,
            listener,
            Box::new(move |payload| match decode_event::<P>(payload) {
                Ok(Event::Message { from, wire }) => mailbox.send(from, wire),
                // A decode error, or an event kind that has no business
                // crossing the wire. Dropping the connection is safe:
                // the protocol already tolerates message loss, and the
                // peer reconnects.
                _ => false,
            }),
        );
        Box::new(TcpLink::new(id, Arc::clone(self)))
    }

    /// Deregisters the address and has the I/O thread close the node's
    /// listener and every connection accepted on it, without waiting
    /// for that. Peers discover the crash through their sockets (resets
    /// on cached connections, refused reconnects).
    fn detach(&self, id: NodeId) {
        if self
            .addrs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id)
            .is_some()
        {
            self.io.detach(id);
        }
    }

    fn close(&self) -> std::thread::Result<()> {
        self.io.close()
    }

    fn injected_drops(&self) -> u64 {
        self.loss.lost()
    }

    fn sent_frames(&self) -> u64 {
        self.sent_frames.load(Ordering::Relaxed)
    }
}

/// One node's sending half: the per-peer connection cache behind the
/// [`NodeFabric`] surface. Owned exclusively by its node.
struct TcpLink<P> {
    id: NodeId,
    fabric: Arc<TcpFabric>,
    conns: HashMap<NodeId, TcpStream>,
    /// Recency order for LRU eviction: front = coldest, back = just
    /// used. Every successful cache hit refreshes its entry.
    order: VecDeque<NodeId>,
    /// Reusable encode buffer: every outgoing frame is serialized into
    /// this one allocation instead of a fresh `Vec` per send.
    buf: Vec<u8>,
    /// Reusable frame-assembly scratch for [`write_frame_into`] — the
    /// length-prefixed copy that goes to `write_all` in one syscall.
    frame: Vec<u8>,
    _point: std::marker::PhantomData<P>,
}

impl<P> TcpLink<P> {
    fn new(id: NodeId, fabric: Arc<TcpFabric>) -> Self {
        Self {
            id,
            conns: HashMap::new(),
            order: VecDeque::new(),
            fabric,
            buf: Vec::new(),
            frame: Vec::new(),
            _point: std::marker::PhantomData,
        }
    }

    fn drop_conn(&mut self, to: NodeId) {
        if self.conns.remove(&to).is_some() {
            self.order.retain(|&id| id != to);
        }
    }

    /// Marks `to` most-recently-used.
    fn touch(&mut self, to: NodeId) {
        self.order.retain(|&id| id != to);
        self.order.push_back(to);
    }

    /// Writes one frame to `to`, connecting if no cached stream exists.
    /// `false` = observable delivery failure (connect refused, write
    /// error/timeout); the broken stream is dropped either way.
    fn try_write(&mut self, to: NodeId, addr: SocketAddr, payload: &[u8]) -> bool {
        if !self.conns.contains_key(&to) {
            let Ok(stream) = TcpStream::connect_timeout(&addr, IO_TIMEOUT) else {
                return false;
            };
            // Frames are small and latency-sensitive at millisecond
            // ticks; a blocked write past the timeout is treated as a
            // dead peer rather than hanging the node (and the worker it
            // shares with its siblings).
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            while self.conns.len() >= CONNECTION_CAP {
                match self.order.pop_front() {
                    Some(old) => {
                        self.conns.remove(&old);
                    }
                    None => break,
                }
            }
            self.conns.insert(to, stream);
        }
        self.touch(to);
        let mut frame = std::mem::take(&mut self.frame);
        let ok = {
            let stream = self.conns.get_mut(&to).expect("inserted above");
            write_frame_into(stream, payload, &mut frame).is_ok()
        };
        self.frame = frame;
        if !ok {
            self.drop_conn(to);
        }
        ok
    }
}

impl<P: PointCodec + Clone + Send + 'static> NodeFabric<P> for TcpLink<P> {
    fn send(&mut self, to: NodeId, wire: Wire<P>) -> bool {
        if self.fabric.loss.loses(self.id, to) {
            return self.fabric.contains(to);
        }
        let Some(addr) = self.fabric.addr_of(to) else {
            // Deregistered: close any cached stream so a later rebind of
            // the same port cannot resurrect the old connection.
            self.drop_conn(to);
            return false;
        };
        let mut payload = std::mem::take(&mut self.buf);
        encode_event_into(
            &mut payload,
            &Event::Message {
                from: self.id,
                wire,
            },
        );
        // Reconnect-on-failure, but only when the first attempt went
        // through a *pre-existing cached* stream — it may be stale (the
        // peer restarted, or evicted this end's connection from its own
        // accept side), so one fresh connection gets one more chance. A
        // failed fresh connect is retried by nothing: repeating it with
        // nothing changed would just double the blocking time on an
        // unreachable peer before the crash-stop report.
        let had_cached = self.conns.contains_key(&to);
        let delivered = self.try_write(to, addr, &payload)
            || (had_cached && self.try_write(to, addr, &payload));
        self.buf = payload;
        if delivered {
            self.fabric.sent_frames.fetch_add(1, Ordering::Relaxed);
        }
        delivered
    }

    fn contains(&mut self, id: NodeId) -> bool {
        self.fabric.contains(id)
    }
}
