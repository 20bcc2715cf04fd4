//! # Polystyrene — the decentralized data shape that never dies
//!
//! A from-scratch Rust implementation of *Polystyrene* (Simon Bouget,
//! Anne-Marie Kermarrec, Hoel Kervadec, François Taïani — ICDCS 2014,
//! DOI 10.1109/ICDCS.2014.37): a shape-preserving add-on layer for
//! decentralized topology-construction protocols.
//!
//! ## The idea
//!
//! Topology-construction protocols (such as T-Man) organize nodes
//! along a target shape — a torus, a ring — but when a *correlated
//! catastrophic failure* wipes out a whole region (say, a datacenter
//! hosting one half of the torus), surviving nodes heal their links yet
//! the overall shape is lost forever. Polystyrene fixes this by
//! **decoupling data points from physical nodes**: positions become
//! passive, replicated data that surviving nodes re-adopt and re-balance,
//! so the shape itself survives — merely at a lower sampling density.
//!
//! Four epidemic mechanisms cooperate (paper Fig. 4):
//!
//! 1. **Projection** ([`projection`]) — a node's published position is the
//!    medoid of its hosted data points (`guests`);
//! 2. **Backup** ([`backup`], paper Algorithm 1) — guests are replicated
//!    as `ghosts` on `K` random nodes;
//! 3. **Recovery** ([`recovery`], Algorithm 2) — ghosts of crashed holders
//!    are reactivated into guests;
//! 4. **Migration** ([`migration`], Algorithm 3) — pairwise guest
//!    exchanges driven by a [`split::SplitStrategy`] (Algorithms 4 and 5)
//!    re-balance points towards a density-aware tessellation, a
//!    decentralized 2-means step per exchange.
//!
//! ## Quick start
//!
//! ```
//! use polystyrene::prelude::*;
//! use polystyrene_space::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let space = Torus2::new(8.0, 8.0);
//! let cfg = PolystyreneConfig::default();
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // Two nodes, each hosting its own original data point.
//! let mut p = PolyState::with_initial_point(DataPoint::new(PointId::new(0), [0.0, 0.0]));
//! let mut q = PolyState::with_initial_point(DataPoint::new(PointId::new(1), [1.0, 0.0]));
//!
//! // A migration exchange re-partitions the union of their guests: q
//! // splits what p ships, p adopts its share and re-projects.
//! let shipped = vec![PointId::new(0)];
//! let reply = absorb_and_split(&space, &cfg, &mut q, &p.pos, p.guests.clone(), &mut rng);
//! adopt_reply(&mut p, reply.for_initiator, &shipped);
//! p.project(&space, &cfg, &mut rng);
//! assert_eq!(p.guests.len() + q.guests.len(), 2);
//! ```
//!
//! The `polystyrene-sim` crate drives this state machine for thousands of
//! nodes and reproduces every figure of the paper; `polystyrene-runtime`
//! runs it over real threads and channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod config;
pub mod datapoint;
pub mod migration;
pub mod projection;
pub mod recovery;
pub mod reliability;
pub mod split;
pub mod state;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::backup::{plan_backups, plan_backups_with, push_cost_units, BackupPush};
    pub use crate::config::{BackupPlacement, PolystyreneConfig};
    pub use crate::datapoint::{DataPoint, PointId};
    pub use crate::migration::{absorb_and_split, adopt_reply, SplitOutcome};
    pub use crate::projection::ProjectionStrategy;
    pub use crate::recovery::{recover, RecoveryOutcome};
    pub use crate::reliability::{required_replication, survival_probability};
    pub use crate::split::{split, SplitStrategy};
    pub use crate::state::PolyState;
}

pub use prelude::*;
