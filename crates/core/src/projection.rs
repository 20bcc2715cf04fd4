//! Projection — deriving a node's published position from its guests
//! (Step 1 of paper Fig. 4).
//!
//! "At any given time, guest data points are used to derive a node's
//! actual position, which is then fed to the underlying topology
//! construction protocol. … we use a simple projection mechanism, but this
//! is an independent piece of our protocol that can be easily adapted"
//! (paper Sec. II-C). The default is the medoid (Sec. III-C); alternatives
//! are provided for the modularity ablations of
//! `crates/bench/src/bin/ablation.rs`.

use crate::datapoint::DataPoint;
use polystyrene_space::medoid::{medoid_index_by, medoid_index_sampled_by};
use polystyrene_space::MetricSpace;
use rand::Rng;

/// How a node position is computed from its guest set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjectionStrategy {
    /// The exact medoid of the guest points — the paper's choice,
    /// well-defined in any metric space (Sec. III-C).
    Medoid,
    /// Approximate medoid evaluating only this many random candidates,
    /// for nodes hosting very large guest sets.
    MedoidSampled(usize),
    /// The first guest point (an O(1) ablation; poor load balance but
    /// useful to measure how much the medoid actually buys).
    FirstGuest,
}

impl ProjectionStrategy {
    /// Projects `guests` to a position, or `None` when `guests` is empty
    /// (freshly injected nodes keep their initialization position — paper
    /// Sec. IV-A Phase 3 re-injects nodes "containing no data point, but
    /// with their pos parameters initialized").
    pub fn project<S: MetricSpace, R: Rng + ?Sized>(
        &self,
        space: &S,
        guests: &[DataPoint<S::Point>],
        rng: &mut R,
    ) -> Option<S::Point> {
        if guests.is_empty() {
            return None;
        }
        let idx = match self {
            Self::Medoid => medoid_index_by(space, guests, |g| &g.pos),
            Self::MedoidSampled(candidates) => {
                medoid_index_sampled_by(space, guests, |g| &g.pos, *candidates, rng)
            }
            Self::FirstGuest => Some(0),
        }?;
        Some(guests[idx].pos.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::PointId;
    use polystyrene_space::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pts(coords: &[[f64; 2]]) -> Vec<DataPoint<[f64; 2]>> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &c)| DataPoint::new(PointId::new(i as u64), c))
            .collect()
    }

    #[test]
    fn empty_guests_project_to_none() {
        let mut rng = StdRng::seed_from_u64(1);
        for strategy in [
            ProjectionStrategy::Medoid,
            ProjectionStrategy::MedoidSampled(4),
            ProjectionStrategy::FirstGuest,
        ] {
            assert_eq!(strategy.project(&Euclidean2, &[], &mut rng), None);
        }
    }

    #[test]
    fn medoid_projection_picks_central_point() {
        let mut rng = StdRng::seed_from_u64(1);
        let guests = pts(&[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]);
        let pos = ProjectionStrategy::Medoid
            .project(&Euclidean2, &guests, &mut rng)
            .unwrap();
        assert_eq!(pos, [1.0, 0.0]);
    }

    #[test]
    fn medoid_projection_wraps_on_torus() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Torus2::new(16.0, 16.0);
        let guests = pts(&[[15.0, 0.0], [0.0, 0.0], [1.0, 0.0]]);
        let pos = ProjectionStrategy::Medoid
            .project(&t, &guests, &mut rng)
            .unwrap();
        assert_eq!(pos, [0.0, 0.0]);
    }

    #[test]
    fn first_guest_projection_is_constant_time_choice() {
        let mut rng = StdRng::seed_from_u64(1);
        let guests = pts(&[[5.0, 5.0], [0.0, 0.0]]);
        let pos = ProjectionStrategy::FirstGuest
            .project(&Euclidean2, &guests, &mut rng)
            .unwrap();
        assert_eq!(pos, [5.0, 5.0]);
    }

    #[test]
    fn sampled_medoid_projects_to_a_member() {
        let mut rng = StdRng::seed_from_u64(3);
        let guests = pts(&[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]);
        let pos = ProjectionStrategy::MedoidSampled(2)
            .project(&Euclidean2, &guests, &mut rng)
            .unwrap();
        assert!(guests.iter().any(|g| g.pos == pos));
    }
}
