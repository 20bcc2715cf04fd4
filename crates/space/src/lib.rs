//! Metric spaces and geometry for the Polystyrene reproduction.
//!
//! Polystyrene (Bouget, Kermarrec, Kervadec, Taïani — ICDCS 2014) only
//! requires its data space to be a *metric space*: "The only constraint on
//! this data space is that a distance can be computed between any two data
//! points" (Sec. III-A). This crate provides that abstraction plus every
//! geometric primitive the protocol stack needs:
//!
//! * the [`MetricSpace`] trait ([`point`]), with implementations for
//!   Euclidean `R^d` ([`euclidean`]), the flat 2-D torus used throughout the
//!   paper's evaluation ([`torus`]), a 1-D modular ring ([`ring`]), and a
//!   discrete set space with Jaccard distance ([`setspace`]) standing in for
//!   the "list of items" profile spaces the paper mentions;
//! * **medoid** computation ([`medoid`]) — the projection operator of
//!   Polystyrene's Step 1 (Sec. III-C), chosen over the centroid because
//!   division is ill-defined in modular spaces;
//! * **diameter** computation ([`diameter`]) — the PD heuristic of
//!   `SPLIT_ADVANCED` (Algorithm 5): exact up to a threshold, sampled
//!   above it (the paper suggests sampling beyond ~30 points);
//! * target **shape generators** ([`shapes`]) — the 80×40 torus grid of
//!   Sec. IV-A and friends;
//! * summary **statistics** ([`stats`]) — means and 95 % confidence
//!   intervals used for every table in the evaluation.
//!
//! # Example
//!
//! ```
//! use polystyrene_space::medoid::medoid_index_by;
//! use polystyrene_space::prelude::*;
//!
//! // The paper's evaluation space: an 80x40 logical torus with step 1.
//! let space = Torus2::new(80.0, 40.0);
//! let a = [1.0, 1.0];
//! let b = [79.0, 39.0];
//! // Wrap-around: the two corners are only sqrt(8) apart on the torus.
//! assert!((space.distance(&a, &b) - 8.0f64.sqrt()).abs() < 1e-12);
//!
//! let grid = shapes::torus_grid(80, 40, 1.0);
//! assert_eq!(grid.len(), 3200);
//! let m = medoid_index_by(&space, &grid[..10], |p| p).unwrap();
//! assert!(grid[..10].contains(&grid[m]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diameter;
pub mod euclidean;
pub mod medoid;
pub mod point;
pub mod ring;
pub mod setspace;
pub mod shapes;
pub mod stats;
pub mod torus;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::euclidean::{Euclidean, Euclidean2, Euclidean3};
    pub use crate::point::{GridSpec, MetricSpace};
    pub use crate::ring::Ring;
    pub use crate::setspace::{ItemSet, JaccardSpace};
    pub use crate::shapes;
    pub use crate::stats::{ci95, mean, ConfidenceInterval};
    pub use crate::torus::Torus2;
}

pub use point::{GridSpec, MetricSpace};
