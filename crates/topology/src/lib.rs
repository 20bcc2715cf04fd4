//! Gossip-based topology construction for the Polystyrene reproduction.
//!
//! "Topology construction protocols seek to self-organize a network so that
//! each node ends up connected to its k closest nodes" (paper Sec. II-B).
//! Polystyrene is an add-on layer over such a protocol (paper Fig. 3); this
//! crate provides the one the paper evaluates (Sec. IV):
//!
//! * [`tman::TMan`] — T-Man (Jelasity, Montresor, Babaoglu — the paper's
//!   reference \[1\]): ranked gossip exchanges of the `m` best descriptors
//!   with a partner drawn from the `ψ` closest neighbors;
//! * [`TopologyConstruction`] — T-Man's interface as the stack calls it;
//! * [`rank`] — the distance-ranking kernels behind T-Man's view, and the
//!   spatial-grid candidate index the census uses.
//!
//! # Example
//!
//! ```
//! use polystyrene_space::prelude::*;
//! use polystyrene_membership::{Descriptor, NodeId};
//! use polystyrene_topology::{TMan, TManConfig, TopologyConstruction};
//!
//! let space = Torus2::new(80.0, 40.0);
//! let mut tman = TMan::new(space, TManConfig::default());
//! tman.integrate(NodeId::new(0), &[0.0, 0.0], &[
//!     Descriptor::new(NodeId::new(1), [1.0, 0.0]),
//!     Descriptor::new(NodeId::new(2), [40.0, 20.0]),
//! ]);
//! let near = tman.closest(&[0.0, 0.0], 1);
//! assert_eq!(near[0].id, NodeId::new(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rank;
pub mod tman;
pub mod traits;

pub use tman::{tman_exchange, ExchangeStats, TMan, TManConfig};
pub use traits::TopologyConstruction;
