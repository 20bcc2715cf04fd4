//! What a live node runs beyond the shared [`SubstrateConfig`]: the
//! live RPS sizing and the protocol configuration derived from both.

use polystyrene_protocol::{ProtocolConfig, SubstrateConfig};

/// RPS view capacity of a live node.
const RPS_VIEW_CAP: usize = 12;
/// Descriptors per RPS shuffle of a live node.
const RPS_SHUFFLE_LEN: usize = 6;

/// The protocol configuration each live node's sans-IO
/// [`polystyrene_protocol::ProtocolNode`] is built with: `config`'s T-Man,
/// Polystyrene and heartbeat parameters, with the RPS sizing above. The
/// bootstrap draws and the migration and query timeouts are the protocol
/// crate's; messages are priced by [`polystyrene_protocol::wire_units`].
pub fn live_protocol(config: &SubstrateConfig) -> ProtocolConfig {
    ProtocolConfig {
        tman: config.tman,
        poly: config.poly,
        rps_view_cap: RPS_VIEW_CAP,
        rps_shuffle_len: RPS_SHUFFLE_LEN,
        heartbeat_timeout_ticks: config.heartbeat_timeout_ticks,
    }
}
