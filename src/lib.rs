//! # Polystyrene reproduction — facade crate
//!
//! One-stop re-export of the full reproduction of *Polystyrene: the
//! Decentralized Data Shape That Never Dies* (Bouget, Kermarrec, Kervadec,
//! Taïani — ICDCS 2014):
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | spaces | [`space`] | metric spaces, medoids, diameters, shapes, stats |
//! | membership | [`membership`] | node ids, gossip views, RPS, the drivers' failure table |
//! | topology | [`topology`] | T-Man, distance ranking, the spatial-grid index |
//! | **core** | [`core`] | the Polystyrene layer (projection, backup, recovery, migration, splits) |
//! | **protocol** | [`protocol`] | the sans-IO per-node state machine, the deterministic drivers' shared population (founding, joins, query entry) + shared scenario scripts |
//! | simulation | [`sim`] | cycle-driven engine + every paper experiment |
//! | network simulation | [`netsim`] | deterministic discrete-event substrate: latency, loss, partitions |
//! | deployment | [`runtime`] | message-passing cluster, node loops on a fixed worker pool |
//! | wire deployment | [`transport`] | the byte codec, length-framed, over real TCP sockets |
//! | **experiment plane** | [`lab`] | one `Substrate` seam + one driver over all four substrates, and the query workload of the traffic plane |
//!
//! See `README.md` for the quickstart, the architecture ("Workspace
//! layout") and the `figures` driver ("Reproducing the paper's
//! figures").
//!
//! # Example
//!
//! ```
//! use polystyrene_repro::prelude::*;
//!
//! // Build the paper's torus in miniature, kill half of it, watch it heal.
//! let mut cfg = SubstrateConfig::default();
//! cfg.area = 128.0;
//! let mut engine = Engine::new(
//!     Torus2::new(16.0, 8.0),
//!     shapes::torus_grid(16, 8, 1.0),
//!     cfg,
//! );
//! engine.run(12);
//! // The engine and the event kernel share this kill signature, and
//! // `inject(&positions)` and `crash(id) -> bool` besides.
//! engine.fail_original_region(&shapes::in_right_half(16.0));
//! engine.run(15);
//! let m = engine.history().last().unwrap();
//! assert!(m.homogeneity < m.reference_homogeneity, "the shape must re-form");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use polystyrene as core;
pub use polystyrene_lab as lab;
pub use polystyrene_membership as membership;
pub use polystyrene_netsim as netsim;
pub use polystyrene_protocol as protocol;
pub use polystyrene_runtime as runtime;
pub use polystyrene_sim as sim;
pub use polystyrene_space as space;
pub use polystyrene_topology as topology;
pub use polystyrene_transport as transport;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use polystyrene::prelude::*;
    pub use polystyrene_lab::{
        build_substrate, key_universe, run_experiment, run_experiment_with_traffic, summary_json,
        ExperimentSummary, ExperimentTrace, LiveSubstrate, Substrate, SubstrateKind, TrafficLoad,
    };
    pub use polystyrene_membership::{Descriptor, NodeId, PeerSampling, View};
    pub use polystyrene_netsim::{NetRoundMetrics, NetSim};
    pub use polystyrene_protocol::prelude::*;
    pub use polystyrene_runtime::Cluster;
    pub use polystyrene_sim::{Engine, RoundMetrics, ENGINE_PHASES};
    pub use polystyrene_space::prelude::*;
    pub use polystyrene_topology::{TMan, TManConfig, TopologyConstruction};
    pub use polystyrene_transport::TcpCluster;
}
