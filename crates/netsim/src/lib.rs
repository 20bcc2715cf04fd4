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
//! result to the validated baseline. Both drivers found, join and offer
//! queries to their populations through the shared
//! [`polystyrene_protocol::pool`].
//!
//! Not everything is a message. Reachability probes are answered from
//! the kernel's (lagged) failure knowledge, and the paper's per-round
//! T-Man position refresh is the same instantaneous, costed pool pass
//! the cycle engine runs, applied at each round boundary and stopped
//! only by partitions — see "What the kernel simulates" in [`kernel`].
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
//! let mut cfg = NetSimConfig::default();
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

pub mod config;
pub mod kernel;
pub mod metrics;
pub mod queue;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::NetSimConfig;
    pub use crate::kernel::NetSim;
    pub use crate::metrics::{reference_homogeneity, NetRoundMetrics};
    pub use crate::queue::CalendarQueue;
    pub use polystyrene_protocol::{Fate, FaultyNetwork, LinkProfile};
}

pub use prelude::*;
