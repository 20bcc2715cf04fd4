//! The TCP transport of the live cluster, the fourth execution
//! substrate: the pinned byte codec (`polystyrene_protocol::codec`),
//! length-framed ([`framing`]), over real loopback sockets
//! ([`cluster::TcpFabric`]).
//!
//! Everywhere else messages move as Rust values: through synchronous
//! calls (cycle engine), a discrete-event queue (netsim), or in-process
//! mailboxes (the cluster's default transport). Here they move as
//! *bytes*: every protocol message is encoded, framed, written to a
//! `TcpStream`, reassembled from partial reads on the far side, and
//! decoded, so framing bugs, decoder fragility against corrupt input,
//! and inconsistent delivery reporting become reachable by tests instead
//! of lying latent until a real deployment.
//!
//! A node sends from its own worker, through a cache of blocking streams
//! to the peers it talks to. Nothing receives per node or per
//! connection: one I/O thread per fabric holds every listener and every
//! accepted stream, non-blocking, waits for readiness on all of them at
//! once (`polling`, level-triggered), and reassembles, decodes and
//! delivers whatever arrives. A deployment is the worker pool plus that
//! one thread, whatever its node and connection count, and a killed
//! node's sockets all close at once.
//!
//! This crate is only the transport. The harness and the node loop are
//! `polystyrene-runtime`'s `Cluster` and `NodeRuntime`:
//! [`TcpCluster<S>`] is `Cluster<S, TcpFabric>`, spawned from the same
//! `SubstrateConfig` as the in-process cluster, so whatever runs there
//! runs unchanged here:
//!
//! ```
//! use polystyrene_protocol::SubstrateConfig;
//! use polystyrene_transport::TcpCluster;
//! use polystyrene_space::prelude::*;
//!
//! let mut config = SubstrateConfig::default();
//! config.tick = std::time::Duration::from_millis(4);
//! let shape = shapes::torus_grid(3, 3, 1.0);
//! let mut cluster = TcpCluster::spawn(Torus2::new(3.0, 3.0), shape, config);
//! assert!(cluster.await_ticks(3, std::time::Duration::from_secs(10)));
//! assert_eq!(cluster.observe().alive_nodes, 9);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod framing;
mod reactor;

pub use cluster::{TcpCluster, TcpConfig, TcpFabric};
