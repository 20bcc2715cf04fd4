//! Runtime deployment configuration.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_protocol::{LinkProfile, ProtocolConfig};
use polystyrene_topology::TManConfig;
use std::time::Duration;

/// RPS view capacity of a live node.
const RPS_VIEW_CAP: usize = 12;
/// Descriptors per RPS shuffle of a live node.
const RPS_SHUFFLE_LEN: usize = 6;
/// Random contacts seeded into each node's layers at spawn.
pub(crate) const BOOTSTRAP_CONTACTS: usize = 8;

/// Parameters of a threaded Polystyrene deployment. The RPS sizing and
/// the bootstrap contact count are the constants above, the migration
/// timeout is [`ProtocolConfig`]'s default, and messages are priced by
/// [`polystyrene_protocol::wire_units`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Protocol tick: each node initiates one gossip round per tick.
    ///
    /// This is the idle gap *between* rounds (fixed-delay pacing), not a
    /// guaranteed rate: a node whose message handling outruns the period
    /// slows its protocol clock accordingly. Since every tick-denominated
    /// timeout (heartbeats, migration) stretches with it, the protocol
    /// degrades gracefully under load instead of timing out exchanges
    /// that are merely slow.
    pub tick: Duration,
    /// Ticks without a heartbeat after which a monitored peer is suspected
    /// — the detection lag of the paper's "possibly imperfect" detector.
    pub heartbeat_timeout_ticks: u32,
    /// T-Man parameters.
    pub tman: TManConfig,
    /// Polystyrene parameters.
    pub poly: PolystyreneConfig,
    /// Link-fault injection for the in-process fabric. The runtime honors
    /// the loss probability (messages silently vanish in transit, drawn
    /// by a [`polystyrene_protocol::FaultyNetwork`] at the send
    /// boundary); latency and jitter need a timer fabric and are the
    /// discrete-event simulator's domain — they are ignored here.
    pub link: LinkProfile,
    /// Base RNG seed (each node derives its own from this and its id).
    pub seed: u64,
    /// Surface area of the data space, for the reference homogeneity
    /// reported by the observation plane (3200 for the paper's 80×40
    /// torus).
    pub area: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(10),
            heartbeat_timeout_ticks: 4,
            tman: TManConfig {
                view_cap: 30,
                m: 10,
                psi: 5,
            },
            poly: PolystyreneConfig::default(),
            link: LinkProfile::ideal(),
            seed: 1,
            area: 3200.0,
        }
    }
}

impl RuntimeConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on a zero heartbeat timeout or a zero tick.
    pub fn validate(&self) {
        assert!(!self.tick.is_zero(), "tick must be non-zero");
        assert!(
            self.heartbeat_timeout_ticks > 0,
            "heartbeat timeout must be at least one tick"
        );
        self.link.validate();
        self.poly.validate();
        self.tman.validate();
    }

    /// The protocol-level slice of this configuration, handed to each
    /// node's sans-IO [`polystyrene_protocol::ProtocolNode`].
    pub fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig {
            tman: self.tman,
            poly: self.poly,
            rps_view_cap: RPS_VIEW_CAP,
            rps_shuffle_len: RPS_SHUFFLE_LEN,
            heartbeat_timeout_ticks: self.heartbeat_timeout_ticks,
            ..ProtocolConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RuntimeConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "tick must be non-zero")]
    fn zero_tick_rejected() {
        let mut c = RuntimeConfig::default();
        c.tick = Duration::ZERO;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "heartbeat timeout")]
    fn zero_heartbeat_rejected() {
        let mut c = RuntimeConfig::default();
        c.heartbeat_timeout_ticks = 0;
        c.validate();
    }
}
