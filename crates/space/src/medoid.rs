//! Medoid computation — Polystyrene's projection operator.
//!
//! A node's published position is "the guest point that minimizes the sum
//! of square distances to other guest points" (paper Sec. III-C). Unlike
//! the centroid, the medoid is always a member of the input set and is
//! well-defined in any metric space, including modular ones where division
//! is ill-defined.
//!
//! ```
//! use polystyrene_space::medoid::medoid_index_by;
//! use polystyrene_space::prelude::*;
//!
//! let t = Torus2::new(16.0, 16.0);
//! // On a torus the cluster {15, 0, 1} straddles the seam; the medoid is
//! // the middle point 0, which a naive centroid ((15+0+1)/3 ≈ 5.3) misses.
//! let pts = [[15.0, 0.0], [0.0, 0.0], [1.0, 0.0]];
//! assert_eq!(medoid_index_by(&t, &pts, |p| p).map(|i| &pts[i]), Some(&[0.0, 0.0]));
//! ```

use crate::point::MetricSpace;
use rand::seq::index::sample;
use rand::Rng;

/// Index of the medoid of `items`, or `None` if `items` is empty, over
/// any item type through a position accessor (`|p| p` for bare points),
/// so a caller holding wrapped points (e.g. id-tagged data points) needs
/// no temporary position `Vec`.
///
/// Runs in `O(n^2)` distance evaluations. Ties are broken towards the
/// lowest index, which keeps the operation deterministic.
///
/// # Example
///
/// ```
/// use polystyrene_space::medoid::medoid_index_by;
/// use polystyrene_space::prelude::*;
///
/// let pts = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]];
/// assert_eq!(medoid_index_by(&Euclidean2, &pts, |p| p), Some(1));
/// ```
pub fn medoid_index_by<S: MetricSpace, T>(
    space: &S,
    items: &[T],
    pos: impl Fn(&T) -> &S::Point,
) -> Option<usize> {
    if items.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, candidate) in items.iter().enumerate() {
        let cost: f64 = items
            .iter()
            .map(|p| space.distance_sq(pos(candidate), pos(p)))
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    Some(best)
}

/// Approximate medoid for large sets: evaluates the objective only on a
/// random sample of `candidates` items (still against the full set),
/// trading exactness for `O(candidates · n)` cost. Same accessor as
/// [`medoid_index_by`].
///
/// Falls back to the exact computation when `items.len() <= candidates`.
/// Returns `None` if `items` is empty.
pub fn medoid_index_sampled_by<S: MetricSpace, T, R: Rng + ?Sized>(
    space: &S,
    items: &[T],
    pos: impl Fn(&T) -> &S::Point,
    candidates: usize,
    rng: &mut R,
) -> Option<usize> {
    if items.len() <= candidates {
        return medoid_index_by(space, items, pos);
    }
    let picks = sample(rng, items.len(), candidates);
    let mut best = None;
    let mut best_cost = f64::INFINITY;
    for i in picks {
        let cost: f64 = items
            .iter()
            .map(|p| space.distance_sq(pos(&items[i]), pos(p)))
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best = Some(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::Euclidean2;
    use crate::ring::Ring;
    use crate::torus::Torus2;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The medoid objective: the sum of squared distances from `q` to
    /// every point of `points`.
    fn sum_sq_to<S: MetricSpace>(space: &S, q: &S::Point, points: &[S::Point]) -> f64 {
        points.iter().map(|p| space.distance_sq(q, p)).sum()
    }

    #[test]
    fn empty_has_no_medoid() {
        let pts: [[f64; 2]; 0] = [];
        assert_eq!(medoid_index_by(&Euclidean2, &pts, |p| p), None);
    }

    #[test]
    fn singleton_is_its_own_medoid() {
        assert_eq!(medoid_index_by(&Euclidean2, &[[3.0, 4.0]], |p| p), Some(0));
    }

    #[test]
    fn picks_central_point_on_a_line() {
        let pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [100.0, 0.0]];
        // The squared objective makes the outlier dominate: the medoid is
        // the cluster point closest to it (cost 9423 at x=3 vs 9610 at x=2),
        // but it must stay a member of the set.
        let m = medoid_index_by(&Euclidean2, &pts, |p| p).unwrap();
        assert_eq!(m, 3);
    }

    #[test]
    fn wraps_correctly_on_ring() {
        let r = Ring::new(16.0);
        // Cluster straddling the modular seam.
        let pts = [15.0, 0.0, 1.0];
        assert_eq!(medoid_index_by(&r, &pts, |p| p).map(|i| pts[i]), Some(0.0));
    }

    #[test]
    fn wraps_correctly_on_torus() {
        let t = Torus2::new(16.0, 16.0);
        let pts = [[15.0, 15.0], [0.0, 0.0], [1.0, 1.0]];
        assert_eq!(
            medoid_index_by(&t, &pts, |p| p).map(|i| pts[i]),
            Some([0.0, 0.0])
        );
    }

    #[test]
    fn tie_breaks_to_lowest_index() {
        // Two points: each has the same cost (d^2 to the other).
        let pts = [[0.0, 0.0], [1.0, 0.0]];
        assert_eq!(medoid_index_by(&Euclidean2, &pts, |p| p), Some(0));
    }

    #[test]
    fn sampled_equals_exact_for_small_inputs() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]];
        assert_eq!(
            medoid_index_sampled_by(&Euclidean2, &pts, |p| p, 10, &mut rng),
            medoid_index_by(&Euclidean2, &pts, |p| p)
        );
    }

    #[test]
    fn sampled_returns_none_on_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: [[f64; 2]; 0] = [];
        assert_eq!(
            medoid_index_sampled_by(&Euclidean2, &pts, |p| p, 4, &mut rng),
            None
        );
    }

    #[test]
    fn sampled_cost_close_to_exact_on_cluster() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut pts = Vec::new();
        for i in 0..200 {
            let a = i as f64 * 0.1;
            pts.push([a.cos() * 5.0, a.sin() * 5.0]);
        }
        let exact = medoid_index_by(&Euclidean2, &pts, |p| p).unwrap();
        let approx = medoid_index_sampled_by(&Euclidean2, &pts, |p| p, 40, &mut rng).unwrap();
        let exact_cost = sum_sq_to(&Euclidean2, &pts[exact], &pts);
        let approx_cost = sum_sq_to(&Euclidean2, &pts[approx], &pts);
        // The sampled medoid is near-optimal on a dense ring of points.
        assert!(approx_cost <= exact_cost * 1.25);
    }

    fn pt2() -> impl Strategy<Value = [f64; 2]> {
        [-100.0..100.0, -100.0..100.0].prop_map(|[x, y]| [x, y])
    }

    proptest! {
        #[test]
        fn medoid_is_a_member(pts in proptest::collection::vec(pt2(), 1..30)) {
            let m = medoid_index_by(&Euclidean2, &pts, |p| p).unwrap();
            prop_assert!(m < pts.len());
        }

        #[test]
        fn medoid_minimizes_objective(pts in proptest::collection::vec(pt2(), 1..25)) {
            let m = medoid_index_by(&Euclidean2, &pts, |p| p).unwrap();
            let mcost = sum_sq_to(&Euclidean2, &pts[m], &pts);
            for p in &pts {
                prop_assert!(mcost <= sum_sq_to(&Euclidean2, p, &pts) + 1e-9);
            }
        }

        #[test]
        fn sampled_medoid_is_a_member(
            pts in proptest::collection::vec(pt2(), 1..60),
            seed in 0u64..1000,
            candidates in 1usize..10,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let i = medoid_index_sampled_by(&Euclidean2, &pts, |p| p, candidates, &mut rng).unwrap();
            prop_assert!(i < pts.len());
        }
    }
}
