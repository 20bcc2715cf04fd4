//! Membership substrate for the Polystyrene reproduction: node identities,
//! gossip views, the peer-sampling service and the drivers' failure table.
//!
//! Polystyrene (ICDCS 2014) sits on a classic two-layer gossip stack
//! (paper Fig. 2 and Sec. III-A): the bottom layer is a *peer-sampling
//! service* (RPS) that "provides each node with a random sample of the rest
//! of the network", and both layers assume "a (possibly imperfect) failure
//! detector". This crate implements those substrates from scratch:
//!
//! * [`NodeId`] / [`Descriptor`] — node identities and the `(id, position,
//!   age)` records gossip protocols exchange;
//! * [`View`] — the bounded, deduplicated neighbor lists every gossip layer
//!   maintains;
//! * [`rps::PeerSampling`] — a Cyclon-style shuffling peer sampler
//!   (Voulgaris et al., cited as \[17\]/\[21\] in the paper);
//! * [`FailureTable`] — the dense set of known crashes the single-threaded
//!   drivers answer per-entry failure checks from.
//!
//! # Example
//!
//! ```
//! use polystyrene_membership::{Descriptor, NodeId, View};
//!
//! let mut view: View<[f64; 2]> = View::new(3);
//! view.insert(Descriptor::new(NodeId::new(1), [0.0, 0.0]));
//! view.insert(Descriptor::new(NodeId::new(2), [1.0, 0.0]));
//! assert_eq!(view.len(), 2);
//! assert!(view.contains(NodeId::new(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptor;
pub mod fd;
pub mod id;
pub mod rps;
pub mod view;

pub use descriptor::Descriptor;
pub use fd::FailureTable;
pub use id::{IdHashMap, IdHasher, NodeId};
pub use rps::PeerSampling;
pub use view::View;
