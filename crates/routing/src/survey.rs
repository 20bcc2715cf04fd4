//! Routing surveys: success rate and path quality over many random keys —
//! the quantitative form of the paper's "losing the shape … might impact
//! the system's routing efficiency".

use crate::greedy::greedy_route;
use crate::oracle::NeighborOracle;
use polystyrene_space::MetricSpace;
use rand::Rng;

/// Aggregate outcome of a routing survey.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoutingSurvey {
    /// Routes attempted.
    pub attempts: usize,
    /// Routes delivered to the node closest to their key.
    pub delivered: usize,
    /// Mean hops over delivered routes.
    pub mean_hops: f64,
    /// Mean distance from the final node to the key, over all routes.
    pub mean_final_distance: f64,
}

impl RoutingSurvey {
    /// Delivery success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempts as f64
        }
    }
}

/// Routes `attempts` lookups from random alive sources to random key
/// positions drawn by `key_gen`, and aggregates.
pub fn routing_survey<S: MetricSpace, R: Rng + ?Sized>(
    space: &S,
    oracle: &impl NeighborOracle<S::Point>,
    mut key_gen: impl FnMut(&mut R) -> S::Point,
    attempts: usize,
    ttl: usize,
    delivery_radius: f64,
    rng: &mut R,
) -> RoutingSurvey {
    let nodes = oracle.nodes();
    if nodes.is_empty() || attempts == 0 {
        return RoutingSurvey::default();
    }
    let mut delivered = 0usize;
    let mut hops_acc = 0usize;
    let mut dist_acc = 0.0f64;
    for _ in 0..attempts {
        let source = nodes[rng.random_range(0..nodes.len())];
        let key = key_gen(rng);
        let route = greedy_route(space, oracle, source, &key, ttl, delivery_radius);
        if route.delivered {
            delivered += 1;
            hops_acc += route.hops;
        }
        if route.final_distance.is_finite() {
            dist_acc += route.final_distance;
        }
    }
    RoutingSurvey {
        attempts,
        delivered,
        mean_hops: if delivered == 0 {
            0.0
        } else {
            hops_acc as f64 / delivered as f64
        },
        mean_final_distance: dist_acc / attempts as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TableOracle;
    use polystyrene_space::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn survey_on_a_healthy_ring_succeeds() {
        let t = Torus2::new(16.0, 1.0);
        let positions: Vec<[f64; 2]> = (0..16).map(|i| [i as f64, 0.0]).collect();
        let n = positions.len();
        let oracle = TableOracle::from_positions(&positions, move |i, j| {
            (i + 1) % n == j || (j + 1) % n == i
        });
        let mut rng = StdRng::seed_from_u64(1);
        let survey = routing_survey(
            &t,
            &oracle,
            |rng: &mut StdRng| [rng.random_range(0.0..16.0), 0.0],
            100,
            32,
            0.6,
            &mut rng,
        );
        assert_eq!(survey.attempts, 100);
        assert!(
            survey.success_rate() > 0.99,
            "rate {}",
            survey.success_rate()
        );
        // Ring of 16: mean greedy hop count ≲ 4.
        assert!(survey.mean_hops <= 5.0, "hops {}", survey.mean_hops);
    }

    #[test]
    fn survey_detects_a_torn_ring() {
        // Remove the wrap links and a middle segment: many keys become
        // unreachable from many sources.
        let e = Euclidean2;
        let positions: Vec<[f64; 2]> = (0..16).map(|i| [i as f64, 0.0]).collect();
        let mut oracle = TableOracle::from_positions(&positions, |i, j| i.abs_diff(j) == 1);
        for i in 7..10 {
            oracle.remove(polystyrene_membership::NodeId::new(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let survey = routing_survey(
            &e,
            &oracle,
            |rng: &mut StdRng| [rng.random_range(0.0..16.0), 0.0],
            200,
            32,
            0.6,
            &mut rng,
        );
        assert!(
            survey.success_rate() < 0.9,
            "a torn line should fail some routes: {}",
            survey.success_rate()
        );
        assert!(survey.mean_final_distance > 0.2);
    }

    #[test]
    fn empty_oracle_survey_is_empty() {
        let oracle: TableOracle<[f64; 2]> = TableOracle::from_positions(&[], |_, _| false);
        let mut rng = StdRng::seed_from_u64(3);
        let survey = routing_survey(
            &Euclidean2,
            &oracle,
            |_: &mut StdRng| [0.0, 0.0],
            10,
            8,
            0.5,
            &mut rng,
        );
        assert_eq!(survey, RoutingSurvey::default());
        assert_eq!(survey.success_rate(), 0.0);
    }
}
