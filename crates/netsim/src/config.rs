//! Configuration of the discrete-event network simulator.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_protocol::LinkProfile;
use polystyrene_topology::TManConfig;

/// Simulator-level configuration: protocol parameters plus the network
/// model and the event-kernel knobs. The protocol fields it does not
/// carry take [`ProtocolConfig`](polystyrene_protocol::ProtocolConfig)'s
/// defaults, with the built-in heartbeat detector off (the kernel's
/// [`World`](polystyrene_protocol::World) builds that configuration for
/// both deterministic drivers; crash and `Detect` events supply the
/// failure knowledge). Node clocks advance once per round, so the
/// migration timeout counts rounds, and it fires here: a reply can be
/// delayed or dropped. Messages are priced by the cycle engine's
/// [`polystyrene_protocol::wire_units`] at this kernel's send boundary.
///
/// Defaults match the cycle engine's paper settings, with an ideal
/// (instant, lossless) link — under which the simulator reproduces the
/// cycle engine's per-round population arithmetic exactly (the
/// equivalence anchor pinned by
/// `deterministic_substrates_agree_exactly_and_recover` in the
/// workspace's `tests/cross_substrate.rs`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetSimConfig {
    /// T-Man parameters (view cap 100, m = 20, ψ = 5 in the paper).
    pub tman: TManConfig,
    /// Polystyrene parameters (K, split strategy, projection, …).
    pub poly: PolystyreneConfig,
    /// The link model every message is routed through.
    pub link: LinkProfile,
    /// Simulated time units per protocol round. Latency is expressed in
    /// the same units, so `latency >= ticks_per_round` means a message
    /// arrives in a *later* round than it was sent in. Node activations
    /// are jittered uniformly over this span, so a larger value also
    /// means fewer migration collisions (busy bounces): round-trip
    /// exchanges occupy a smaller fraction of the round.
    pub ticks_per_round: u64,
    /// Simulated time units between a crash and the round survivors'
    /// failure knowledge reports it (0 = the engine's perfect detector).
    pub detection_delay_ticks: u64,
    /// Surface area of the data space, for the reference homogeneity.
    pub area: f64,
    /// Master seed; every run with the same seed is bit-identical.
    pub seed: u64,
}

impl Default for NetSimConfig {
    fn default() -> Self {
        Self {
            tman: TManConfig::default(),
            poly: PolystyreneConfig::default(),
            link: LinkProfile::ideal(),
            ticks_per_round: 16,
            detection_delay_ticks: 0,
            area: 3200.0,
            seed: 0,
        }
    }
}

impl NetSimConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on an invalid sub-configuration or a zero
    /// `ticks_per_round`.
    pub fn validate(&self) {
        self.tman.validate();
        self.poly.validate();
        self.link.validate();
        assert!(
            self.ticks_per_round >= 1,
            "a round must span at least one simulated time unit"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_ideal() {
        let cfg = NetSimConfig::default();
        cfg.validate();
        assert!(cfg.link.is_ideal());
    }

    #[test]
    #[should_panic(expected = "at least one simulated time unit")]
    fn zero_round_span_rejected() {
        let mut cfg = NetSimConfig::default();
        cfg.ticks_per_round = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_link_rejected() {
        let mut cfg = NetSimConfig::default();
        cfg.link.loss = -0.5;
        cfg.validate();
    }
}
