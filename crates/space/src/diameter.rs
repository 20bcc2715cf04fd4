//! Diameter computation — the PD heuristic of `SPLIT_ADVANCED`.
//!
//! Algorithm 5 of the paper partitions a merged guest set "along one of its
//! diameters, i.e. a pair of points (u, v) so that d(u, v) = max d(x, y)".
//! The paper notes that beyond ~30 points one can "approximate a diameter by
//! taking a sample of pairs" — both the exact and the sampled variants live
//! here, behind the one entry point [`diameter_of_by`].

use crate::point::MetricSpace;
use rand::Rng;

/// A diameter estimate: the indices of the two endpoints and their distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Diameter {
    /// Index of the first endpoint.
    pub a: usize,
    /// Index of the second endpoint.
    pub b: usize,
    /// Distance between the endpoints.
    pub length: f64,
}

/// Exact diameter by exhaustive pair enumeration, `O(n^2)` distances,
/// over any item type through a position accessor. Returns `None` for
/// sets of fewer than two items.
fn diameter_exact_by<S: MetricSpace, T>(
    space: &S,
    items: &[T],
    pos: impl Fn(&T) -> &S::Point,
) -> Option<Diameter> {
    if items.len() < 2 {
        return None;
    }
    let mut best = Diameter {
        a: 0,
        b: 1,
        length: -1.0,
    };
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let d = space.distance(pos(&items[i]), pos(&items[j]));
            if d > best.length {
                best = Diameter {
                    a: i,
                    b: j,
                    length: d,
                };
            }
        }
    }
    Some(best)
}

/// Approximate diameter from `pairs` random pairs, which the paper
/// suggests for large merged guest sets (Sec. III-F). Returns `None` for
/// sets of fewer than two items. The result is a lower bound on the true
/// diameter.
fn diameter_sampled_by<S: MetricSpace, T, R: Rng + ?Sized>(
    space: &S,
    items: &[T],
    pos: impl Fn(&T) -> &S::Point,
    pairs: usize,
    rng: &mut R,
) -> Option<Diameter> {
    let n = items.len();
    if n < 2 {
        return None;
    }
    let mut best = Diameter {
        a: 0,
        b: 1,
        length: space.distance(pos(&items[0]), pos(&items[1])),
    };
    for _ in 0..pairs {
        let i = rng.random_range(0..n);
        let mut j = rng.random_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        let d = space.distance(pos(&items[i]), pos(&items[j]));
        if d > best.length {
            best = Diameter {
                a: i,
                b: j,
                length: d,
            };
        }
    }
    Some(best)
}

/// Adaptive diameter over any item type through a position accessor
/// (`|p| p` for bare points): exact up to `exact_threshold` items,
/// sampled from `4n` random pairs above, which keeps the cost linear.
/// Returns `None` for sets of fewer than two items.
///
/// This is the policy `SPLIT_ADVANCED` uses in this reproduction, with the
/// paper's suggested threshold of ~30 points as the default in the core
/// crate. The exact enumeration breaks ties towards the first pair in
/// index order.
///
/// # Example
///
/// ```
/// use polystyrene_space::diameter::diameter_of_by;
/// use polystyrene_space::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let pts = [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]];
/// let mut rng = StdRng::seed_from_u64(0);
/// let d = diameter_of_by(&Euclidean2, &pts, |p| p, 30, &mut rng).unwrap();
/// assert_eq!((d.a, d.b, d.length), (0, 2, 5.0));
/// ```
pub fn diameter_of_by<S: MetricSpace, T, R: Rng + ?Sized>(
    space: &S,
    items: &[T],
    pos: impl Fn(&T) -> &S::Point,
    exact_threshold: usize,
    rng: &mut R,
) -> Option<Diameter> {
    if items.len() <= exact_threshold {
        diameter_exact_by(space, items, pos)
    } else {
        diameter_sampled_by(space, items, pos, items.len() * 4, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::Euclidean2;
    use crate::torus::Torus2;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_on_tiny_sets() {
        assert_eq!(diameter_exact_by(&Euclidean2, &[], |p| p), None);
        assert_eq!(diameter_exact_by(&Euclidean2, &[[0.0, 0.0]], |p| p), None);
        let d = diameter_exact_by(&Euclidean2, &[[0.0, 0.0], [3.0, 4.0]], |p| p).unwrap();
        assert_eq!(d.length, 5.0);
    }

    #[test]
    fn exact_finds_the_extremes() {
        let pts = [[0.0, 0.0], [1.0, 1.0], [-4.0, 0.0], [10.0, 0.0]];
        let d = diameter_exact_by(&Euclidean2, &pts, |p| p).unwrap();
        assert_eq!((d.a, d.b), (2, 3));
        assert_eq!(d.length, 14.0);
    }

    #[test]
    fn exact_respects_torus_wrap() {
        let t = Torus2::new(10.0, 10.0);
        // 0 and 9 are distance 1 apart on the ring; 0 and 5 are 5 apart.
        let pts = [[0.0, 0.0], [9.0, 0.0], [5.0, 0.0]];
        let d = diameter_exact_by(&t, &pts, |p| p).unwrap();
        assert_eq!((d.a, d.b, d.length), (0, 2, 5.0));
    }

    #[test]
    fn sampled_none_below_two_points() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            diameter_sampled_by(&Euclidean2, &[[1.0, 1.0]], |p| p, 10, &mut rng),
            None
        );
    }

    #[test]
    fn adaptive_switches_to_sampling() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<[f64; 2]> = (0..100).map(|i| [i as f64, 0.0]).collect();
        let exact = diameter_of_by(&Euclidean2, &pts[..10], |p| p, 30, &mut rng).unwrap();
        assert_eq!(exact.length, 9.0);
        let approx = diameter_of_by(&Euclidean2, &pts, |p| p, 30, &mut rng).unwrap();
        // 400 sampled pairs out of 4950 possible: overwhelmingly likely to
        // land close to the true diameter on a segment.
        assert!(approx.length >= 49.0);
    }

    fn pt2() -> impl Strategy<Value = [f64; 2]> {
        [-50.0..50.0, -50.0..50.0].prop_map(|[x, y]| [x, y])
    }

    proptest! {
        #[test]
        fn sampled_is_a_lower_bound(
            pts in proptest::collection::vec(pt2(), 2..40),
            seed in 0u64..500,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let exact = diameter_exact_by(&Euclidean2, &pts, |p| p).unwrap();
            let approx = diameter_sampled_by(&Euclidean2, &pts, |p| p, 20, &mut rng).unwrap();
            prop_assert!(approx.length <= exact.length + 1e-9);
        }

        #[test]
        fn endpoints_are_distinct(
            pts in proptest::collection::vec(pt2(), 2..30),
            seed in 0u64..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for d in [
                diameter_exact_by(&Euclidean2, &pts, |p| p).unwrap(),
                diameter_sampled_by(&Euclidean2, &pts, |p| p, 8, &mut rng).unwrap(),
            ] {
                prop_assert!(d.a != d.b);
                prop_assert!(d.a < pts.len() && d.b < pts.len());
            }
        }
    }
}
