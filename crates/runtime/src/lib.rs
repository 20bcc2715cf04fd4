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
//! Two rules are the deterministic substrates' own, not copies: founders
//! and joiners draw their bootstrap contacts through
//! `polystyrene_protocol::{founder_contacts, joiner_contacts}` (the
//! cluster's stream, the live RPS view cap), and each node executes its
//! effects through `ProtocolNode::execute_effects`, the loop the event
//! kernel's lanes run, with its fabric answering reachability and
//! carrying the sends.
//!
//! A cluster is spawned from the one
//! [`SubstrateConfig`](polystyrene_protocol::SubstrateConfig) every
//! substrate takes: it reads the tick, the heartbeat timeout, the link's
//! loss probability, the seed and the area, and it rejects `tman_only`.
//! Each node's protocol configuration is [`config::live_protocol`]: the
//! shared T-Man, Polystyrene and heartbeat parameters with the live RPS
//! sizing.
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
//! Channels and locks are `std`'s. A [`Cluster`] is owned by the thread
//! that drives it: who is alive, the id counter, the bootstrap and
//! gateway streams and the worker handles are plain fields, changed
//! through `&mut self`. A lock guards only what other threads share:
//! the observation board (nodes publish, the harness reads), the
//! in-process [`Registry`] and the TCP address book (every node's
//! fabric resolves peers through them), [`TransitLoss`] (every sender
//! draws from it) and the TCP fabric's I/O-thread handle (the fabric is
//! shared with every node, so [`Transport::close`] takes `&self`). The
//! cluster's census tables are its one lock of its own, since
//! [`Cluster::observe`] takes `&self`. Every lock is taken with
//! `unwrap_or_else(PoisonError::into_inner)`: a worker that panics while
//! holding one must not poison it, so that [`Cluster::shutdown`]
//! resurfaces the worker's own panic, not a `PoisonError` raised on the
//! harness thread.
//!
//! # Example
//!
//! ```
//! use polystyrene_protocol::SubstrateConfig;
//! use polystyrene_runtime::Cluster;
//! use polystyrene_space::prelude::*;
//!
//! let mut config = SubstrateConfig::default();
//! config.tick = std::time::Duration::from_millis(4);
//! let shape = shapes::torus_grid(4, 4, 1.0);
//! let mut cluster = Cluster::<Torus2>::spawn(Torus2::new(4.0, 4.0), shape, config);
//! // Twenty protocol rounds (80 ms at this tick), however loaded the box.
//! let target = cluster.observe().ticks + 20;
//! assert!(cluster.await_ticks(target, std::time::Duration::from_secs(30)));
//! let m = cluster.observe();
//! assert_eq!(m.alive_nodes, 16);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod fabric;
pub mod node;
pub mod observe;
pub mod registry;
pub mod traffic;
pub mod worker;

pub use cluster::Cluster;
pub use fabric::{NodeFabric, RegistryFabric, TransitLoss, Transport};
pub use polystyrene_protocol::observe::RoundObservation;
pub use registry::Registry;
pub use traffic::{GatewayTraffic, GATEWAY_INGRESS_BOUND};
pub use worker::Mailbox;
