//! Configuration shared by every driver: the per-node protocol
//! parameters ([`ProtocolConfig`]) and the one experiment configuration
//! all four substrates are built from ([`SubstrateConfig`]).

use crate::net::LinkProfile;
use polystyrene::prelude::PolystyreneConfig;
use polystyrene_topology::TManConfig;
use std::time::Duration;

/// Ticks an initiated migration may stay unanswered before the initiator
/// gives up and unlocks (asynchronous drivers only).
pub const MIGRATION_TIMEOUT_TICKS: u32 = 3;

/// Ticks a gateway waits for a [`crate::wire::Wire::QueryReply`] before
/// writing the query off as dropped-in-hole. Expiry is lazy (checked when
/// traffic counters are drained), so the timeout never touches the
/// protocol phases or their entropy.
pub const QUERY_TIMEOUT_TICKS: u32 = 8;

/// Parameters of one node's protocol stack, independent of how it is
/// driven (cycle engine or threaded runtime).
///
/// The tick-denominated timeouts (the heartbeat field here and the two
/// constants above) only matter to asynchronous drivers: a cycle driver
/// never advances a node's clock, so none of them fires there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// T-Man parameters (view cap 100, m = 20, ψ = 5 in the paper).
    pub tman: TManConfig,
    /// Polystyrene parameters (K, split strategy, projection, …).
    pub poly: PolystyreneConfig,
    /// RPS view capacity.
    pub rps_view_cap: usize,
    /// Descriptors exchanged per RPS shuffle.
    pub rps_shuffle_len: usize,
    /// Ticks without a heartbeat after which a monitored peer is suspected
    /// by the node's built-in detector (asynchronous drivers only;
    /// [`u32::MAX`] disables the detector *and* its per-message liveness
    /// bookkeeping for drivers with an external detector).
    pub heartbeat_timeout_ticks: u32,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            tman: TManConfig::default(),
            poly: PolystyreneConfig::default(),
            rps_view_cap: 20,
            rps_shuffle_len: 8,
            heartbeat_timeout_ticks: 4,
        }
    }
}

impl ProtocolConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration is invalid or the heartbeat
    /// timeout is zero.
    pub fn validate(&self) {
        self.tman.validate();
        self.poly.validate();
        assert!(
            self.heartbeat_timeout_ticks > 0,
            "heartbeat timeout must be at least one tick"
        );
        // rps_view_cap / rps_shuffle_len are validated by PeerSampling::new.
    }
}

/// One experiment's configuration, for whichever substrate runs it: the
/// cycle engine, the event kernel (netsim) or a live cluster (in-process
/// or TCP). Each field says which substrates read it; the others ignore
/// it, so one value drives all four and a `--substrate` sweep compares
/// like with like. The protocol fields it does not carry are
/// [`ProtocolConfig`]'s defaults on the deterministic substrates (with
/// the built-in detector off: the [`World`](crate::World) supplies the
/// failure knowledge) and the live RPS sizing on the clusters.
///
/// Defaults are the paper's evaluation settings (Sec. IV-A: T-Man's view
/// of 100 with m = 20 and ψ = 5, the 80×40 torus's area of 3200) with an
/// ideal link, seed 0, a 10 ms tick, a 10 s round timeout, a 4-tick
/// heartbeat detector and 16 kernel ticks per round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubstrateConfig {
    /// T-Man parameters. Every substrate.
    pub tman: TManConfig,
    /// Polystyrene parameters (K, split strategy, projection, …). Every
    /// substrate.
    pub poly: PolystyreneConfig,
    /// Surface area of the data space, for the reference homogeneity.
    /// Every substrate.
    pub area: f64,
    /// Master seed. Engine and netsim runs are bit-identical under it;
    /// on the live clusters it seeds node entropy, the loss draw and the
    /// harness draws, but wall-clock scheduling still varies.
    pub seed: u64,
    /// Link faults. Netsim honors all of it, in its own ticks; the live
    /// clusters honor the loss probability at the send boundary; the
    /// cycle engine has no fabric and ignores it.
    pub link: LinkProfile,
    /// Protocol tick of the live clusters: the idle gap between a node's
    /// rounds (fixed-delay pacing, not a guaranteed rate, so every
    /// tick-denominated timeout stretches with a slow node).
    pub tick: Duration,
    /// Per-round safety timeout of the live clusters when the experiment
    /// plane steps them.
    pub round_timeout: Duration,
    /// Ticks without a heartbeat after which a live node suspects a
    /// monitored peer: the detection lag of the paper's "possibly
    /// imperfect" detector (Sec. III-A). Live clusters only; the
    /// deterministic substrates switch the built-in detector off.
    pub heartbeat_timeout_ticks: u32,
    /// Netsim time units per protocol round. Latency is expressed in the
    /// same units, so `latency >= ticks_per_round` means a message
    /// arrives in a later round than it was sent in. Node activations
    /// are jittered uniformly over this span, so a larger value also
    /// means fewer migration collisions.
    pub ticks_per_round: u64,
    /// Netsim time units between a crash and the survivors' failure
    /// knowledge reporting it (0: at once, as on the cycle engine).
    pub detection_delay_ticks: u64,
    /// Run plain T-Man without the Polystyrene layer: the paper's
    /// baseline ("T-Man alone", Sec. IV-A). Only the cycle engine can
    /// switch the layer off; the other substrates reject it.
    pub tman_only: bool,
}

impl Default for SubstrateConfig {
    fn default() -> Self {
        Self {
            tman: TManConfig::default(),
            poly: PolystyreneConfig::default(),
            area: 3200.0,
            seed: 0,
            link: LinkProfile::ideal(),
            tick: Duration::from_millis(10),
            round_timeout: Duration::from_secs(10),
            heartbeat_timeout_ticks: 4,
            ticks_per_round: 16,
            detection_delay_ticks: 0,
            tman_only: false,
        }
    }
}

impl SubstrateConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on an invalid sub-configuration, a zero tick, a zero
    /// heartbeat timeout or a zero `ticks_per_round`.
    pub fn validate(&self) {
        self.tman.validate();
        self.poly.validate();
        self.link.validate();
        assert!(!self.tick.is_zero(), "tick must be non-zero");
        assert!(
            self.heartbeat_timeout_ticks > 0,
            "heartbeat timeout must be at least one tick"
        );
        assert!(
            self.ticks_per_round >= 1,
            "a round must span at least one simulated time unit"
        );
    }

    /// This configuration, unchanged: what the repository benchmark
    /// hands a live cluster, under the name it calls it by.
    pub fn runtime(&self) -> SubstrateConfig {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ProtocolConfig::default().validate();
    }

    #[test]
    fn default_is_valid_and_ideal() {
        let cfg = SubstrateConfig::default();
        cfg.validate();
        assert!(cfg.link.is_ideal());
    }

    #[test]
    #[should_panic(expected = "at least one simulated time unit")]
    fn zero_round_span_rejected() {
        let mut cfg = SubstrateConfig::default();
        cfg.ticks_per_round = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_link_rejected() {
        let mut cfg = SubstrateConfig::default();
        cfg.link.loss = -0.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tick must be non-zero")]
    fn zero_tick_rejected() {
        let mut cfg = SubstrateConfig::default();
        cfg.tick = Duration::ZERO;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "heartbeat timeout")]
    fn zero_heartbeat_rejected() {
        let mut cfg = SubstrateConfig::default();
        cfg.heartbeat_timeout_ticks = 0;
        cfg.validate();
    }
}
