//! One experiment plane over every execution substrate.
//!
//! The reproduction grew four ways to execute the same protocol stack —
//! the cycle engine (`polystyrene-sim`), the discrete-event network
//! kernel (`polystyrene-netsim`), the threaded in-process cluster
//! (`polystyrene-runtime`) and the TCP deployment
//! (`polystyrene-transport`) — precisely to test the paper's core claim
//! (conf_icdcs_BougetKKT14): the self-organizing shape survives the
//! *same* failure scenarios regardless of how messages move. This crate
//! is the plane that makes the claim checkable by construction:
//!
//! * [`Substrate`] — the one seam (kill / inject / partition / step /
//!   observe) all four backends implement;
//! * [`build_substrate`] — the `--substrate engine|netsim|cluster|tcp`
//!   switchboard behind every figure's `--substrate`; its engine arm,
//!   [`build_engine`], also serves the figures that read engine
//!   internals (proximity, snapshots, the T-Man-only baseline);
//! * [`run_experiment`] — the single scenario driver (churn windows,
//!   partition masks, failure bookkeeping) producing an
//!   [`ExperimentTrace`] of unified
//!   [`polystyrene_protocol::RoundObservation`]s;
//! * [`TrafficLoad`] over a [`key_universe`] — the seeded query workload
//!   [`run_experiment_with_traffic`] offers each round, resolved by the
//!   nodes' own greedy forwarding;
//! * [`ExperimentSummary`] / [`summary_json`] — streaming
//!   min/mean/max aggregation over repeated seeded runs and the one
//!   hand-rolled JSON emitter every `BENCH_*.json` artifact shares; the
//!   [`Series`] table names each per-round series they track once.
//!
//! Scenario × substrate composes freely: any script written in
//! [`polystyrene_protocol::Scenario`] runs unchanged on anything
//! [`build_substrate`] returns.
//!
//! # Example: the same script on two substrates
//!
//! ```
//! use polystyrene_lab::{build_substrate, run_experiment, LabConfig, SubstrateKind};
//! use polystyrene_membership::NodeId;
//! use polystyrene_protocol::{Scenario, ScenarioEvent};
//! use polystyrene_space::prelude::*;
//!
//! let scenario: Scenario<[f64; 2]> =
//!     Scenario::new(4).at(1, ScenarioEvent::FailNodes(vec![NodeId::new(1), NodeId::new(2)]));
//! let mut cfg = LabConfig::default();
//! cfg.area = 16.0;
//! for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
//!     let mut substrate = build_substrate(
//!         kind,
//!         Torus2::new(4.0, 4.0),
//!         shapes::torus_grid(4, 4, 1.0),
//!         &cfg,
//!     );
//!     let trace = run_experiment(substrate.as_mut(), &scenario);
//!     assert_eq!(trace.populations(), vec![16, 14, 14, 14]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod substrate;
pub mod traffic;

pub use experiment::{
    json_f64, json_object, json_strings, run_experiment, run_experiment_with_traffic, summary_json,
    ExperimentSummary, ExperimentTrace, RoundStat, Series, SeriesStats,
};
pub use polystyrene_protocol::observe::{RoundObservation, TrafficStats};
pub use substrate::{
    build_engine, build_substrate, LabConfig, LiveSubstrate, Substrate, SubstrateKind,
};
pub use traffic::{key_universe, TrafficDist, TrafficLoad};
