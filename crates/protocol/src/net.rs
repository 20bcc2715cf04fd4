//! The network model: what happens to a message between two nodes.
//!
//! The sans-IO [`crate::node::ProtocolNode`] never sees a network; its
//! *drivers* do. The cycle engine delivers everything atomically; the
//! discrete-event simulator delays, drops and partitions, and the
//! threaded runtime can inject loss into its in-process channels. Those
//! two hand every outgoing message to a [`FaultyNetwork`] and obey the
//! returned [`Fate`].
//!
//! [`FaultyNetwork`] models per-link latency with uniform jitter,
//! independent drop probability, and a partition mask — deterministic
//! under a fixed seed, so the discrete-event simulator stays replayable.
//! The degenerate profile ([`LinkProfile::ideal`]) delivers everything
//! instantly and losslessly, which is how the simulator reproduces the
//! cycle engine's behavior.

use polystyrene_membership::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// What the network decides to do with one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver after `delay` simulated time units (zero = this instant).
    Deliver {
        /// Transit time in the driver's time units.
        delay: u64,
    },
    /// The message is lost in transit. The *sender cannot tell*: a driver
    /// must not surface a drop as a delivery failure (loss is silent;
    /// only a crashed destination is observable, crash-stop style).
    Drop,
}

/// Per-link delivery profile: fixed base latency, uniform extra jitter,
/// and an independent drop probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// Base transit time, in the driver's time units.
    pub latency: u64,
    /// Uniform extra transit time in `[0, jitter]` (inclusive).
    pub jitter: u64,
    /// Probability in `[0, 1]` that a message is lost in transit.
    pub loss: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        Self::ideal()
    }
}

impl LinkProfile {
    /// The degenerate profile: instant, lossless delivery. A driver built
    /// on this behaves like a reliable synchronous fabric.
    pub fn ideal() -> Self {
        Self {
            latency: 0,
            jitter: 0,
            loss: 0.0,
        }
    }

    /// Whether this profile can ever perturb a message.
    pub fn is_ideal(&self) -> bool {
        self.latency == 0 && self.jitter == 0 && self.loss == 0.0
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss),
            "link loss probability must be in [0, 1], got {}",
            self.loss
        );
    }
}

/// Group index of a node under a partition mask: listed nodes use their
/// group, everyone else shares the implicit "rest of the network" group.
const REST_OF_NETWORK: usize = usize::MAX;

/// The network fabric: one [`LinkProfile`] for every link plus an
/// optional partition mask, with a private seeded RNG so identical seeds
/// replay identical loss and jitter streams. Driven from one thread per
/// driver; the threaded runtime serializes access behind a lock.
pub struct FaultyNetwork {
    profile: LinkProfile,
    rng: StdRng,
    /// Partition mask: node → group index. `None` = fully connected.
    partition: Option<BTreeMap<NodeId, usize>>,
}

impl FaultyNetwork {
    /// Builds a network with the given profile; `seed` fixes the loss and
    /// jitter streams.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`LinkProfile::validate`].
    pub fn new(profile: LinkProfile, seed: u64) -> Self {
        profile.validate();
        Self {
            profile,
            rng: StdRng::seed_from_u64(seed),
            partition: None,
        }
    }

    fn group_of(&self, id: NodeId) -> usize {
        match &self.partition {
            Some(groups) => groups.get(&id).copied().unwrap_or(REST_OF_NETWORK),
            None => REST_OF_NETWORK,
        }
    }

    /// Decides the fate of a message from `from` to `to`: dropped across
    /// a partition (no draw spent), else lost with the profile's
    /// probability, else delivered after its latency plus jitter.
    pub fn route(&mut self, from: NodeId, to: NodeId) -> Fate {
        if self.blocked(from, to) {
            return Fate::Drop;
        }
        if self.profile.loss > 0.0 && self.rng.random_bool(self.profile.loss) {
            return Fate::Drop;
        }
        let delay = if self.profile.jitter > 0 {
            self.profile.latency + self.rng.random_range(0..=self.profile.jitter)
        } else {
            self.profile.latency
        };
        Fate::Deliver { delay }
    }

    /// Whether the pair is currently separated by a partition: a stable,
    /// draw-free query. The drivers do *not* consult it for reachability
    /// probes — a partition is invisible to a failure detector (nothing
    /// crashed), only to traffic.
    pub fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.partition.is_some() && self.group_of(from) != self.group_of(to)
    }

    /// Installs a partition: nodes listed in different groups cannot
    /// exchange messages. Nodes absent from every group form one implicit
    /// extra group ("the rest of the network"), so a script can name just
    /// the minority side. Replaces any previous partition.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>]) {
        let mut mask = BTreeMap::new();
        for (g, members) in groups.iter().enumerate() {
            for &id in members {
                mask.insert(id, g);
            }
        }
        self.partition = Some(mask);
    }

    /// Removes the partition, if any.
    pub fn heal(&mut self) {
        self.partition = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u64) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn ideal_profile_delivers_everything_instantly() {
        let mut net = FaultyNetwork::new(LinkProfile::ideal(), 1);
        for i in 0..100 {
            assert_eq!(net.route(n(i), n(i + 1)), Fate::Deliver { delay: 0 });
        }
    }

    #[test]
    fn latency_and_jitter_bound_the_delay() {
        let profile = LinkProfile {
            latency: 5,
            jitter: 3,
            loss: 0.0,
        };
        let mut net = FaultyNetwork::new(profile, 2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            match net.route(n(0), n(1)) {
                Fate::Deliver { delay } => {
                    assert!((5..=8).contains(&delay), "delay {delay} out of range");
                    seen.insert(delay);
                }
                Fate::Drop => panic!("lossless profile dropped a message"),
            }
        }
        assert_eq!(seen.len(), 4, "jitter must cover [latency, latency+jitter]");
    }

    #[test]
    fn loss_rate_is_roughly_honored_and_deterministic() {
        let profile = LinkProfile {
            latency: 0,
            jitter: 0,
            loss: 0.3,
        };
        let run = |seed: u64| {
            let mut net = FaultyNetwork::new(profile, seed);
            (0..1000).map(|_| net.route(n(0), n(1))).collect::<Vec<_>>()
        };
        let a = run(9);
        assert_eq!(a, run(9), "same seed must replay the same fate stream");
        let drops = a.iter().filter(|f| **f == Fate::Drop).count();
        assert!(
            (200..400).contains(&drops),
            "30% loss produced {drops}/1000 drops"
        );
    }

    #[test]
    fn partition_blocks_across_groups_and_heals() {
        let mut net = FaultyNetwork::new(LinkProfile::ideal(), 3);
        net.set_partition(&[vec![n(1), n(2)], vec![n(3)]]);
        assert!(net.blocked(n(1), n(3)), "different groups");
        assert!(!net.blocked(n(1), n(2)), "same group");
        assert!(net.blocked(n(1), n(7)), "listed vs rest of network");
        assert!(!net.blocked(n(7), n(8)), "the rest talk among themselves");
        assert_eq!(net.route(n(1), n(3)), Fate::Drop);
        net.heal();
        assert!(!net.blocked(n(1), n(3)));
        assert_eq!(net.route(n(1), n(3)), Fate::Deliver { delay: 0 });
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn out_of_range_loss_rejected() {
        let _ = FaultyNetwork::new(
            LinkProfile {
                latency: 0,
                jitter: 0,
                loss: 1.5,
            },
            0,
        );
    }
}
