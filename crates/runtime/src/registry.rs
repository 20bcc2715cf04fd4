//! Shared address book: node id → [`Mailbox`].
//!
//! The in-process [`Transport`]. A send looks the destination's mailbox
//! up and puts the message into its worker's inbox; sending to a crashed
//! node (deregistered, or its worker gone) loses the message and reports
//! it, like a TCP connection reset under crash-stop.
//!
//! With `link.loss` set, [`TransitLoss`] injects *transit* loss on top
//! of the crash-stop semantics: a dropped message vanishes silently (the
//! sender still sees success, since loss in flight is not observable,
//! unlike a dead mailbox), so live-cluster scenarios exercise lossy
//! links through the same model the discrete-event simulator uses.
//! Scripted [`ScenarioEvent::Partition`] windows are the simulator's
//! domain and a documented no-op on a cluster.
//!
//! [`ScenarioEvent::Partition`]: polystyrene_protocol::ScenarioEvent::Partition

use crate::config::RuntimeConfig;
use crate::fabric::{NodeFabric, RegistryFabric, TransitLoss, Transport};
use crate::worker::Mailbox;
use polystyrene_membership::NodeId;
use polystyrene_protocol::Wire;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Thread-safe address book shared by every node of an in-process
/// [`crate::Cluster`].
pub struct Registry<P> {
    inner: RwLock<HashMap<NodeId, Mailbox<P>>>,
    loss: TransitLoss,
}

impl<P> Default for Registry<P> {
    fn default() -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            loss: TransitLoss::default(),
        }
    }
}

impl<P> Registry<P> {
    /// An empty, lossless registry behind an `Arc`, ready to share
    /// across threads.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a node's mailbox under the node's id.
    pub fn register(&self, mailbox: Mailbox<P>) {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(mailbox.id(), mailbox);
    }

    /// Removes a node (crash or shutdown). Subsequent sends to it are
    /// dropped.
    pub fn deregister(&self, id: NodeId) {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Sends `wire` from `from` to `to`; returns `false` if the
    /// destination is unknown or its mailbox is gone (message lost,
    /// crash-stop style).
    ///
    /// Every message passes the [`TransitLoss`] draw first. The
    /// crash-stop contract is unchanged by it: an injected drop reports
    /// exactly what the real send would have, so delivery-failure
    /// feedback (and the view purging built on it) does not depend on
    /// whether the loss draw fired.
    pub fn send(&self, to: NodeId, from: NodeId, wire: Wire<P>) -> bool {
        if self.loss.loses(from, to) {
            return self.contains(to);
        }
        // Sent under the read lock: the inbox is unbounded, so the send
        // cannot block, and no sender is cloned per message.
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&to)
            .is_some_and(|mailbox| mailbox.send(from, wire))
    }

    /// Whether `id` currently has a registered, *live* mailbox: the
    /// answer to a protocol reachability probe. A node whose worker is
    /// gone (crashed without deregistering) is dead to the send path, so
    /// probes and the injected-drop report must agree with it.
    pub fn contains(&self, id: NodeId) -> bool {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .is_some_and(|mailbox| !mailbox.is_disconnected())
    }
}

impl<P: Clone + Send + Sync + 'static> Transport<P> for Registry<P> {
    type Config = RuntimeConfig;

    fn runtime(config: &RuntimeConfig) -> RuntimeConfig {
        *config
    }

    fn open(config: RuntimeConfig) -> Self {
        config.validate();
        Self {
            loss: TransitLoss::new(&config),
            ..Self::default()
        }
    }

    fn attach(self: &Arc<Self>, mailbox: Mailbox<P>) -> Box<dyn NodeFabric<P>> {
        let id = mailbox.id();
        self.register(mailbox);
        Box::new(RegistryFabric::new(id, Arc::clone(self)))
    }

    fn detach(&self, id: NodeId) {
        self.deregister(id);
    }

    fn injected_drops(&self) -> u64 {
        self.loss.lost()
    }

    fn sent_frames(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{inbox, Post, Posts};

    /// Registers node 1 on a fresh worker inbox and returns the worker's
    /// end of it.
    fn register_node_1(registry: &Registry<f64>) -> Posts<f64> {
        let (tx, rx) = inbox();
        registry.register(Mailbox::new(NodeId::new(1), tx));
        rx
    }

    fn is_heartbeat_for_node_1(post: Post<f64>) -> bool {
        matches!(
            post,
            Post::Deliver { to, wire: Wire::Heartbeat, .. } if to == NodeId::new(1)
        )
    }

    fn heartbeat_to(registry: &Registry<f64>, to: u64) -> bool {
        registry.send(NodeId::new(to), NodeId::new(0), Wire::Heartbeat)
    }

    #[test]
    fn register_send_deregister() {
        let registry: Arc<Registry<f64>> = Registry::new();
        let (rx, _worker) = register_node_1(&registry);
        assert!(registry.contains(NodeId::new(1)));
        assert!(!registry.contains(NodeId::new(2)));
        assert!(heartbeat_to(&registry, 1));
        assert!(is_heartbeat_for_node_1(rx.recv().unwrap()));
        registry.deregister(NodeId::new(1));
        assert!(!heartbeat_to(&registry, 1));
        assert!(!registry.contains(NodeId::new(1)));
    }

    #[test]
    fn send_to_unknown_is_lost_not_fatal() {
        let registry: Arc<Registry<f64>> = Registry::new();
        assert!(!heartbeat_to(&registry, 42));
    }

    #[test]
    fn send_to_dropped_receiver_reports_loss() {
        let registry: Arc<Registry<f64>> = Registry::new();
        let rx = register_node_1(&registry);
        drop(rx); // the node's worker died without deregistering it
        assert!(!heartbeat_to(&registry, 1));
    }

    /// A registry whose link drops every protocol message in transit.
    fn all_loss() -> Registry<f64> {
        let mut config = RuntimeConfig::default();
        config.link.loss = 1.0;
        Registry::open(config)
    }

    #[test]
    fn injected_loss_is_silent_but_counted() {
        let registry = all_loss();
        let (rx, _worker) = register_node_1(&registry);
        assert!(
            heartbeat_to(&registry, 1),
            "transit loss must be invisible to the sender (the mailbox exists)"
        );
        assert_eq!(registry.injected_drops(), 1);
        assert!(rx.try_recv().is_err(), "the message must not arrive");
        // Crash-stop reporting stays exact: a dead mailbox is observable
        // even while the model is dropping everything.
        assert!(!heartbeat_to(&registry, 9));
    }

    #[test]
    fn crash_stop_reporting_is_consistent_under_injected_loss() {
        for (registry, drops) in [(Registry::default(), 0), (all_loss(), 1)] {
            let rx = register_node_1(&registry);
            // Worker gone, node not deregistered: still in the book.
            drop(rx);
            // The real send path and the injected-drop path give the same
            // verdict (not `contains_key`, which would say `true` on the
            // drop path and suppress the PeerUnreachable feedback the
            // failure detector relies on), and probes agree with both.
            assert!(!heartbeat_to(&registry, 1));
            assert!(
                !registry.contains(NodeId::new(1)),
                "a probe must not report a crashed node reachable while sends report it dead"
            );
            assert_eq!(registry.injected_drops(), drops);
        }
    }
}
