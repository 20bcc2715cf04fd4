//! Protocol-level configuration shared by every driver.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_topology::TManConfig;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ProtocolConfig::default().validate();
    }
}
