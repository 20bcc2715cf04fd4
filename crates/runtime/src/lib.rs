//! The live deployment of the Polystyrene stack: one [`Cluster`] of
//! nodes, run by a fixed pool of worker threads, over a pluggable
//! [`Transport`].
//!
//! The paper's system model is "a set of message-passing nodes that
//! communicate over reliable channels (e.g. TCP)" with "a (possibly
//! imperfect) failure detector" implemented by "a reactive ping mechanism,
//! or heartbeats" (Sec. III-A). The simulators abstract all of that into
//! rounds; this crate drives the *same* sans-IO state machine
//! (`polystyrene_protocol::ProtocolNode`) asynchronously:
//!
//! * a pool of `min(available_parallelism(), nodes)` worker threads,
//!   each running the loops of the nodes assigned to it ([`worker`]): a
//!   node is a value with a [`Mailbox`] into its worker's inbox and a
//!   tick deadline of its own, not a thread;
//! * a wall-clock tick per node driving gossip initiation, so rounds
//!   are only loosely synchronized across nodes;
//! * a heartbeat failure detector along the backup relationships (origins
//!   heartbeat their backups and vice versa), with a configurable timeout;
//! * crash injection that kills a node mid-flight, losing whatever was in
//!   its mailbox: exactly the crash-stop model.
//!
//! The channel is incidental, so it is a type parameter. The default
//! transport, [`Registry`], hands messages from inbox to inbox
//! in-process; `polystyrene-transport` carries them as framed bytes over
//! loopback TCP. Harness, node loop, gateway admission and loss
//! injection are this crate's code over both. So is the harness's test
//! suite, which therefore lives where both transports are in scope
//! (`polystyrene-transport`, `tests/cluster_in_process.rs` and
//! `tests/cluster_tcp.rs`); this crate's own `cargo test` reaches
//! [`Cluster`] only through the example below.
//!
//! # Example
//!
//! ```
//! use polystyrene_runtime::{Cluster, RuntimeConfig};
//! use polystyrene_space::prelude::*;
//!
//! let mut config = RuntimeConfig::default();
//! config.tick = std::time::Duration::from_millis(4);
//! let shape = shapes::torus_grid(4, 4, 1.0);
//! let cluster = Cluster::<Torus2>::spawn(Torus2::new(4.0, 4.0), shape, config);
//! cluster.run_for(std::time::Duration::from_millis(80));
//! let m = cluster.observe();
//! assert_eq!(m.alive_nodes, 16);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod fabric;
pub mod harness;
pub mod message;
pub mod node;
pub mod observe;
pub mod registry;
pub mod traffic;
pub mod worker;

pub use cluster::Cluster;
pub use config::RuntimeConfig;
pub use fabric::{NodeFabric, RegistryFabric, TransitLoss, Transport};
pub use message::Message;
pub use polystyrene_protocol::observe::RoundObservation;
pub use registry::Registry;
pub use traffic::{GatewayTraffic, GATEWAY_INGRESS_BOUND};
pub use worker::Mailbox;
