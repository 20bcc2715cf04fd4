//! Round-based discrete-event simulator for the Polystyrene
//! reproduction — the stand-in for PeerSim \[26\], which the
//! paper used for all results ("All results were computed with PeerSim",
//! Sec. IV-B).
//!
//! * [`engine`] — the cycle-driven engine running the full stack
//!   (RPS → T-Man → Polystyrene) with failure and churn injection, over
//!   the ground truth it shares with the event kernel
//!   ([`polystyrene_protocol::world::World`]). It is built from the one
//!   [`SubstrateConfig`] every
//!   substrate takes, reads its T-Man, Polystyrene, area, seed and
//!   `tman_only` fields, and reports a crash to the survivors at once:
//!   the oracle detector of the paper's cycle model;
//! * [`metrics`] — the paper's five metrics (proximity, homogeneity,
//!   reference homogeneity / reshaping time, data points per node,
//!   message cost, priced by [`polystyrene_protocol::cost`]).
//!
//! The figures' output (tables, plots, CSVs and point-cloud snapshots)
//! is the `figures` driver's, in `polystyrene-bench`.
//!
//! # Scaling: the grid-index census
//!
//! The per-round measurement pass needs a "nearest alive node" answer
//! for every data point that currently lacks a holder — after a
//! catastrophic failure that is up to half of all points, so an
//! exhaustive scan makes each round `O(points × nodes)` and walls the
//! simulator at a few thousand peers. The shared
//! [`Census`](polystyrene_protocol::observe::Census) therefore builds a
//! spatial-grid candidate index (`polystyrene_topology::rank::GridIndex`,
//! bucketed by `Torus2`/`Ring` coordinates) over the alive nodes
//! whenever some point is holderless and the population reaches
//! [`GRID_INDEX_MIN_NODES`](polystyrene_protocol::observe::GRID_INDEX_MIN_NODES),
//! and answers those queries in `O(1)` expected per point. The index is
//! exact, so metrics are bit-identical to the exhaustive scan that
//! smaller networks and spaces without grid support fall back to. There
//! is no switch: nothing observable depends on which path ran. Together
//! with the fan-out of the rng-free phases (recovery, position
//! refresh, measurement), this is what lets `fig10a_scaling` complete
//! 10k+-node runs.
//!
//! # Example: the paper's headline result, in miniature
//!
//! ```
//! use polystyrene_sim::prelude::*;
//! use polystyrene_space::prelude::*;
//!
//! // A 16×4 torus of 64 nodes.
//! let mut cfg = SubstrateConfig::default();
//! cfg.area = 64.0;
//! cfg.tman.view_cap = 20;
//! cfg.tman.m = 8;
//! let mut engine = Engine::new(Torus2::new(16.0, 4.0), shapes::torus_grid(16, 4, 1.0), cfg);
//!
//! // Converge, then kill the right half of the torus.
//! engine.run(10);
//! engine.fail_original_region(&shapes::in_right_half(16.0));
//! assert!(engine.compute_metrics().homogeneity > 1.0);
//!
//! // A few rounds later the survivors have re-formed the full torus.
//! engine.run(12);
//! let m = engine.history().last().unwrap();
//! assert!(m.homogeneity < m.reference_homogeneity);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::engine::{Engine, EngineConfig, ENGINE_PHASES};
    pub use crate::metrics::{reference_homogeneity, RoundMetrics};
    pub use polystyrene_protocol::scenario::{PaperScenario, Scenario, ScenarioEvent};
    pub use polystyrene_protocol::SubstrateConfig;
}

pub use prelude::*;
