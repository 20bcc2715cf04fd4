//! The transport seam: what carries a cluster's messages.
//!
//! Two traits split it. [`Transport`] is the cluster-level half: the
//! deployment-wide state (an address book, counters, a loss model)
//! opened once from its configuration, to which [`crate::Cluster`]
//! attaches each node's [`Mailbox`]. [`NodeFabric`] is the node-level
//! half an attach hands back: how one node sends a wire message and
//! answers a reachability probe. The shared [`Registry`] implements the
//! pair over in-process mailboxes ([`RegistryFabric`]);
//! `polystyrene-transport` implements it over framed loopback sockets.
//! The harness and the node loop are the same code over both.
//!
//! [`TransitLoss`] is the one piece of send-boundary behaviour every
//! transport shares: the `link.loss` draw.

use crate::config::RuntimeConfig;
use crate::registry::Registry;
use crate::worker::Mailbox;
use polystyrene_membership::NodeId;
use polystyrene_protocol::{Fate, FaultyNetwork, Wire};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A deployment's message fabric, as [`crate::Cluster`] sees it.
pub trait Transport<P>: Send + Sync + Sized + 'static {
    /// Deployment parameters: the node-loop [`RuntimeConfig`] plus
    /// whatever the transport itself needs.
    type Config: Copy;

    /// The node-loop slice of `config`.
    fn runtime(config: &Self::Config) -> RuntimeConfig;

    /// Opens an empty fabric.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    fn open(config: Self::Config) -> Self;

    /// Makes node `mailbox.id()` reachable: whatever arrives for it is
    /// put into `mailbox`. Returns the node's sending half. A transport
    /// starts no thread per node; what threads it has are its own, from
    /// [`Transport::open`] to [`Transport::close`].
    ///
    /// # Panics
    ///
    /// Panics if the transport cannot allocate the node's endpoint.
    fn attach(self: &Arc<Self>, mailbox: Mailbox<P>) -> Box<dyn NodeFabric<P>>;

    /// Makes `id` unreachable, crash-stop: sends to it fail observably
    /// from now on and whatever endpoint it had is closed.
    fn detach(&self, id: NodeId);

    /// Stops and joins the transport's own threads, once every node is
    /// detached. `Err` carries the payload of a panic one of them died
    /// of, for [`crate::Cluster::shutdown`] to re-raise as it does a
    /// worker's. A transport without threads has nothing to do.
    fn close(&self) -> std::thread::Result<()> {
        Ok(())
    }

    /// Protocol messages lost in transit to the injected link faults.
    fn injected_drops(&self) -> u64;

    /// Frames written to the wire so far; zero on a transport that moves
    /// values, not bytes.
    fn sent_frames(&self) -> u64;
}

/// The send-boundary loss draw: `link.loss` of a [`FaultyNetwork`], the
/// only link parameter a wall-clock transport honors (latency would need
/// timers, and nothing installs a partition mask on a live cluster).
/// Installed only when it can drop something, so a lossless deployment
/// takes no lock per send.
#[derive(Default)]
pub struct TransitLoss {
    /// One entropy stream, several sending threads: serialized.
    model: Option<Mutex<FaultyNetwork>>,
    lost: AtomicU64,
}

/// Decouples the loss stream from the node rngs, which derive from the
/// same base seed ("loss" in ASCII).
const LOSS_SEED_TAG: u64 = 0x6c6f_7373;

impl TransitLoss {
    /// The loss model `config.link` asks for.
    pub fn new(config: &RuntimeConfig) -> Self {
        let model = FaultyNetwork::new(config.link, config.seed ^ LOSS_SEED_TAG);
        Self {
            model: (config.link.loss > 0.0).then(|| Mutex::new(model)),
            lost: AtomicU64::new(0),
        }
    }

    /// Draws the fate of one protocol message; `true` means it vanishes
    /// in transit (and is counted). The sender must still report what
    /// the real send would have: loss is silent, only a dead peer is
    /// observable.
    pub fn loses(&self, from: NodeId, to: NodeId) -> bool {
        let lost = self.model.as_ref().is_some_and(|m| {
            let mut model = m.lock().unwrap_or_else(PoisonError::into_inner);
            model.route(from, to) == Fate::Drop
        });
        if lost {
            self.lost.fetch_add(1, Ordering::Relaxed);
        }
        lost
    }

    /// Messages lost so far.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }
}

/// One node's view of the deployment's message fabric.
///
/// Methods take `&mut self` because a fabric may own per-node mutable
/// state (a connection cache, buffered writers); each node owns its
/// fabric exclusively.
pub trait NodeFabric<P>: Send {
    /// Delivers `wire` from this node to `to`. Returns `false` only for
    /// an *observable* delivery failure (unknown destination, dead
    /// mailbox, refused or reset connection) — the crash-stop signal the
    /// node surfaces as `Event::PeerUnreachable`. Silent transit loss
    /// must return `true`.
    fn send(&mut self, to: NodeId, wire: Wire<P>) -> bool;

    /// Whether `id` is currently reachable according to the fabric's
    /// address book — the answer to a protocol reachability probe.
    fn contains(&mut self, id: NodeId) -> bool;
}

/// The in-process fabric: sends become mailbox messages through the
/// shared [`Registry`].
pub struct RegistryFabric<P> {
    id: NodeId,
    registry: Arc<Registry<P>>,
}

impl<P> RegistryFabric<P> {
    /// A fabric view for node `id` over the shared registry.
    pub fn new(id: NodeId, registry: Arc<Registry<P>>) -> Self {
        Self { id, registry }
    }
}

impl<P: Clone + Send> NodeFabric<P> for RegistryFabric<P> {
    fn send(&mut self, to: NodeId, wire: Wire<P>) -> bool {
        self.registry.send(to, self.id, wire)
    }

    fn contains(&mut self, id: NodeId) -> bool {
        self.registry.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{inbox, Post};

    #[test]
    fn registry_fabric_wraps_sends_with_the_sender_id() {
        let registry: Arc<Registry<f64>> = Registry::new();
        let (tx, (rx, _worker)) = inbox();
        registry.register(Mailbox::new(NodeId::new(2), tx));
        let mut fabric = RegistryFabric::new(NodeId::new(1), Arc::clone(&registry));
        assert!(fabric.contains(NodeId::new(2)));
        assert!(!fabric.contains(NodeId::new(9)));
        assert!(fabric.send(NodeId::new(2), Wire::Heartbeat));
        match rx.recv().unwrap() {
            Post::Deliver { to, from, wire } => {
                assert_eq!(to, NodeId::new(2));
                assert_eq!(from, NodeId::new(1));
                assert_eq!(wire, Wire::Heartbeat);
            }
            _ => panic!("expected a protocol message delivered to node 2"),
        }
        assert!(!fabric.send(NodeId::new(9), Wire::Heartbeat));
    }
}
