//! Deterministic discrete-event network simulator for the Polystyrene
//! reproduction — the third execution substrate.
//!
//! The cycle engine (`polystyrene-sim`) models the paper's evaluation:
//! atomic, reliable pairwise exchanges, perfect failure detection. The
//! threaded runtime (`polystyrene-runtime`) is real asynchrony over
//! in-process channels, but wall-clock scheduling makes its runs
//! unrepeatable — and its fabric never delays or reorders. This crate
//! fills the gap between them: a seeded event kernel ([`kernel::NetSim`])
//! with an *explicit network model* —
//!
//! * per-link latency with uniform jitter,
//! * independent message-drop probability,
//! * partition masks installed and healed by scenario scripts,
//! * crash detection lag expressed as future events,
//!
//! — all deterministic under a fixed seed, driving the **unchanged**
//! sans-IO [`polystyrene_protocol::ProtocolNode`]. Messages become future
//! events in a calendar queue ([`queue::CalendarQueue`]) ordered by
//! `(deliver_at, seq)`; a zero-latency, zero-loss
//! configuration collapses to round-synchronized delivery and reproduces
//! the cycle engine's per-round population arithmetic (pinned by
//! `deterministic_substrates_agree_exactly_and_recover` in the
//! workspace's `tests/cross_substrate.rs`), which anchors every lossy
//! result to the validated baseline. Both drivers stand on one
//! [`polystyrene_protocol::world::World`]: they found, join, pick
//! victims, refresh positions and measure through it, and offer queries
//! through the shared [`polystyrene_protocol::pool`].
//!
//! A node's effects run through the asynchronous effect loop the live
//! node loop runs too,
//! [`polystyrene_protocol::ProtocolNode::execute_effects`]: the kernel
//! only answers reachability and takes each send into its merge stage.
//!
//! Not everything is a message. Reachability probes are answered from
//! the kernel's (lagged) failure knowledge, and the paper's per-round
//! T-Man position refresh is the same instantaneous, costed pool pass
//! the cycle engine runs, applied at each round boundary and stopped
//! only by partitions — see "What the kernel simulates" in [`kernel`].
//!
//! The kernel is built from the one
//! [`SubstrateConfig`] every
//! substrate takes. Beyond the protocol fields, area and seed it reads
//! the link profile, `ticks_per_round` and `detection_delay_ticks`, and
//! it rejects `tman_only`, which only the cycle engine honors.
//!
//! Scenario scripts are the shared ones: the experiment plane
//! (`polystyrene-lab`) plugs [`kernel::NetSim`] in as one of its
//! `Substrate`s, so any script written for the engine or the live
//! cluster — including churn windows and the partition events only a
//! substrate with a network model can honor — runs here unchanged.
//!
//! # Example: convergence under a lossy, laggy network
//!
//! ```
//! use polystyrene_netsim::prelude::*;
//! use polystyrene_space::prelude::*;
//!
//! let mut cfg = SubstrateConfig::default();
//! cfg.area = 32.0;
//! cfg.link = LinkProfile { latency: 2, jitter: 1, loss: 0.05 };
//! let mut sim = NetSim::new(Torus2::new(8.0, 4.0), shapes::torus_grid(8, 4, 1.0), cfg);
//! sim.run(10);
//! let m = sim.history().last().unwrap();
//! assert_eq!(m.alive_nodes, 32);
//! assert!(m.points_per_node > 1.0, "replication despite loss");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod metrics;
pub mod queue;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::kernel::{NetSim, NetSimConfig};
    pub use crate::metrics::{reference_homogeneity, NetRoundMetrics};
    pub use crate::queue::CalendarQueue;
    pub use polystyrene_protocol::{Fate, FaultyNetwork, LinkProfile, SubstrateConfig};
}

pub use prelude::*;
