//! `SPLIT` functions — how a migration exchange partitions the merged
//! guest set between the two participants (paper Sec. III-F).
//!
//! * [`SplitStrategy::Basic`] — Algorithm 4, `SPLIT_BASIC`: each point goes
//!   to the closer of the two node positions (one distributed k-means
//!   step, k = 2). Can get stuck in status-quo configurations (paper
//!   Fig. 5a).
//! * [`SplitStrategy::Advanced`] — Algorithm 5, `SPLIT_ADVANCED`: combines
//!   the **PD** heuristic (partition the points along one of their
//!   diameters) with the **MD** heuristic (assign the two clusters to the
//!   nodes so as to minimize their displacement).
//! * [`SplitStrategy::Pd`] / [`SplitStrategy::Md`] — each heuristic alone,
//!   the ablations of paper Fig. 10b.

use crate::datapoint::DataPoint;
use polystyrene_space::diameter::diameter_of_by;
use polystyrene_space::medoid::medoid_index_by;
use polystyrene_space::MetricSpace;
use rand::Rng;

/// Which `SPLIT` function migration uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SplitStrategy {
    /// `SPLIT_BASIC` (Algorithm 4): nearest-position assignment.
    Basic,
    /// Partition along a diameter only (PD), clusters assigned in
    /// diameter-endpoint order without the displacement check.
    Pd,
    /// Nearest-position partition (as `Basic`) followed by the
    /// displacement-minimizing cluster assignment (MD).
    Md,
    /// `SPLIT_ADVANCED` (Algorithm 5): PD partition + MD assignment —
    /// the paper's default for all headline results.
    Advanced,
}

impl SplitStrategy {
    /// All strategies, in the order the Fig. 10b ablation reports them.
    pub const ALL: [SplitStrategy; 4] = [
        SplitStrategy::Basic,
        SplitStrategy::Pd,
        SplitStrategy::Md,
        SplitStrategy::Advanced,
    ];

    /// Human-readable name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            SplitStrategy::Basic => "Split_Basic",
            SplitStrategy::Pd => "Split_PD",
            SplitStrategy::Md => "Split_MD",
            SplitStrategy::Advanced => "Split_Advanced (MD+PD)",
        }
    }
}

impl std::fmt::Display for SplitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Distributes `points` between a node at `pos_p` and a node at `pos_q`
/// according to `strategy`, returning `(points_for_p, points_for_q)`.
///
/// `diameter_exact_threshold` bounds the exact-diameter computation of the
/// PD heuristic (pair sampling above it, paper Sec. III-F).
///
/// The two returned vectors always partition the input: every input point
/// appears in exactly one of them.
///
/// # Example
///
/// ```
/// use polystyrene::prelude::*;
/// use polystyrene_space::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let pts = vec![
///     DataPoint::new(PointId::new(0), [0.0, 0.0]),
///     DataPoint::new(PointId::new(1), [10.0, 0.0]),
/// ];
/// let (for_p, for_q) = split(
///     &Euclidean2, SplitStrategy::Basic, pts, &[0.0, 0.0], &[10.0, 0.0], 30, &mut rng,
/// );
/// assert_eq!(for_p[0].id, PointId::new(0));
/// assert_eq!(for_q[0].id, PointId::new(1));
/// ```
#[allow(clippy::type_complexity)]
pub fn split<S: MetricSpace, R: Rng + ?Sized>(
    space: &S,
    strategy: SplitStrategy,
    points: Vec<DataPoint<S::Point>>,
    pos_p: &S::Point,
    pos_q: &S::Point,
    diameter_exact_threshold: usize,
    rng: &mut R,
) -> (Vec<DataPoint<S::Point>>, Vec<DataPoint<S::Point>>) {
    if points.len() < 2 {
        // Nothing to partition: give what exists to its closer node.
        return split_basic(space, points, pos_p, pos_q);
    }
    match strategy {
        SplitStrategy::Basic => split_basic(space, points, pos_p, pos_q),
        SplitStrategy::Pd => {
            let (u_side, v_side) =
                partition_along_diameter(space, points, diameter_exact_threshold, rng);
            (u_side, v_side)
        }
        SplitStrategy::Md => {
            let (a, b) = split_basic(space, points, pos_p, pos_q);
            assign_minimizing_displacement(space, a, b, pos_p, pos_q)
        }
        SplitStrategy::Advanced => {
            let (u_side, v_side) =
                partition_along_diameter(space, points, diameter_exact_threshold, rng);
            assign_minimizing_displacement(space, u_side, v_side, pos_p, pos_q)
        }
    }
}

/// `SPLIT_BASIC` (Algorithm 4): strict-closer points go to `p`, ties and
/// closer-to-q points go to `q` (the paper's `<` / `≤` asymmetry).
///
/// The p-side stays in the input buffer (a stable `retain`), so the
/// exchange's union `Vec` — typically a pooled wire buffer — survives as
/// one of the two outputs instead of being dropped for two fresh ones.
#[allow(clippy::type_complexity)]
fn split_basic<S: MetricSpace>(
    space: &S,
    mut points: Vec<DataPoint<S::Point>>,
    pos_p: &S::Point,
    pos_q: &S::Point,
) -> (Vec<DataPoint<S::Point>>, Vec<DataPoint<S::Point>>) {
    let for_q: Vec<DataPoint<S::Point>> = points
        .extract_if(.., |x| {
            space.distance(&x.pos, pos_p) >= space.distance(&x.pos, pos_q)
        })
        .collect();
    (points, for_q)
}

/// The PD heuristic (Algorithm 5 lines 2-4): find a diameter `(u, v)` of
/// the point set and partition by proximity to its endpoints (`<` to `u`,
/// ties to `v`).
#[allow(clippy::type_complexity)]
fn partition_along_diameter<S: MetricSpace, R: Rng + ?Sized>(
    space: &S,
    mut points: Vec<DataPoint<S::Point>>,
    exact_threshold: usize,
    rng: &mut R,
) -> (Vec<DataPoint<S::Point>>, Vec<DataPoint<S::Point>>) {
    let diameter = diameter_of_by(space, &points, |p| &p.pos, exact_threshold, rng)
        .expect("partition_along_diameter requires at least two points");
    let u = points[diameter.a].pos.clone();
    let v = points[diameter.b].pos.clone();
    // The u-side stays in the input buffer (order preserved), the v-side
    // moves out — same outputs as the old two-fresh-`Vec` build.
    let v_side: Vec<DataPoint<S::Point>> = points
        .extract_if(.., |x| {
            space.distance(&x.pos, &u) >= space.distance(&x.pos, &v)
        })
        .collect();
    (points, v_side)
}

/// The MD heuristic (Algorithm 5 lines 5-13): compute each cluster's
/// medoid and hand the clusters to `p` and `q` in whichever order
/// minimizes the total displacement
/// `d(medoid_for_p, pos_p) + d(medoid_for_q, pos_q)`.
///
/// An empty cluster contributes zero displacement (the node will simply
/// keep its position).
#[allow(clippy::type_complexity)]
fn assign_minimizing_displacement<S: MetricSpace>(
    space: &S,
    cluster_a: Vec<DataPoint<S::Point>>,
    cluster_b: Vec<DataPoint<S::Point>>,
    pos_p: &S::Point,
    pos_q: &S::Point,
) -> (Vec<DataPoint<S::Point>>, Vec<DataPoint<S::Point>>) {
    let medoid_of = |cluster: &[DataPoint<S::Point>]| -> Option<S::Point> {
        medoid_index_by(space, cluster, |p| &p.pos).map(|i| cluster[i].pos.clone())
    };
    let displacement = |m: &Option<S::Point>, target: &S::Point| -> f64 {
        m.as_ref().map_or(0.0, |m| space.distance(m, target))
    };
    let ma = medoid_of(&cluster_a);
    let mb = medoid_of(&cluster_b);
    let delta_ab = displacement(&ma, pos_p) + displacement(&mb, pos_q);
    let delta_ba = displacement(&mb, pos_p) + displacement(&ma, pos_q);
    if delta_ab < delta_ba {
        (cluster_a, cluster_b)
    } else {
        (cluster_b, cluster_a)
    }
}

/// The clustering objective the paper scores partitions with
/// (Sec. III-F): the sum over both clusters of all intra-cluster squared
/// distances. Lower is better.
pub fn partition_cost<S: MetricSpace>(
    space: &S,
    cluster_p: &[DataPoint<S::Point>],
    cluster_q: &[DataPoint<S::Point>],
) -> f64 {
    let intra = |cluster: &[DataPoint<S::Point>]| -> f64 {
        let mut acc = 0.0;
        for i in 0..cluster.len() {
            for j in (i + 1)..cluster.len() {
                // The paper's double sum counts each unordered pair twice.
                acc += 2.0 * space.distance_sq(&cluster[i].pos, &cluster[j].pos);
            }
        }
        acc
    };
    intra(cluster_p) + intra(cluster_q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::PointId;
    use polystyrene_space::prelude::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn dp(id: u64, x: f64, y: f64) -> DataPoint<[f64; 2]> {
        DataPoint::new(PointId::new(id), [x, y])
    }

    fn ids(v: &[DataPoint<[f64; 2]>]) -> BTreeSet<u64> {
        v.iter().map(|p| p.id.as_u64()).collect()
    }

    /// The worked example of paper Fig. 5, in coordinates chosen so that
    /// the geometry matches the figure: p holds {a, b, c} around `pos_p =
    /// c`, q holds {d, e, f} around `pos_q = e`, and (b, d) is the unique
    /// diameter of the union.
    ///
    ///            a(2,4)  d(3,4)
    ///
    ///   b(0,0) c(1,0)      e(4,0) f(4.1,0)
    fn figure5() -> (Vec<DataPoint<[f64; 2]>>, [f64; 2], [f64; 2]) {
        let points = vec![
            dp(0, 2.0, 4.0), // a
            dp(1, 0.0, 0.0), // b
            dp(2, 1.0, 0.0), // c
            dp(3, 3.0, 4.0), // d
            dp(4, 4.0, 0.0), // e
            dp(5, 4.1, 0.0), // f
        ];
        let pos_p = [1.0, 0.0]; // c
        let pos_q = [4.0, 0.0]; // e
        (points, pos_p, pos_q)
    }

    #[test]
    fn basic_split_reproduces_figure5_status_quo() {
        let (points, pos_p, pos_q) = figure5();
        let mut rng = StdRng::seed_from_u64(1);
        let (for_p, for_q) = split(
            &Euclidean2,
            SplitStrategy::Basic,
            points,
            &pos_p,
            &pos_q,
            30,
            &mut rng,
        );
        // "Applying SPLIT_BASIC to this configuration leads to a status
        //  quo: p and q do not exchange any point."
        assert_eq!(ids(&for_p), [0, 1, 2].into());
        assert_eq!(ids(&for_q), [3, 4, 5].into());
    }

    #[test]
    fn advanced_split_reproduces_figure5_improvement() {
        let (points, pos_p, pos_q) = figure5();
        let mut rng = StdRng::seed_from_u64(1);
        let (for_p, for_q) = split(
            &Euclidean2,
            SplitStrategy::Advanced,
            points.clone(),
            &pos_p,
            &pos_q,
            30,
            &mut rng,
        );
        // PD partitions along the diameter (b, d) into {a, d} / {b, c, e,
        // f}; MD hands the top cluster {a, d} to q and the bottom one to p.
        assert_eq!(ids(&for_p), [1, 2, 4, 5].into());
        assert_eq!(ids(&for_q), [0, 3].into());
        // And the paper's objective agrees this improves on the status quo.
        let (bp, bq) = split(
            &Euclidean2,
            SplitStrategy::Basic,
            points,
            &pos_p,
            &pos_q,
            30,
            &mut StdRng::seed_from_u64(2),
        );
        assert!(
            partition_cost(&Euclidean2, &for_p, &for_q) < partition_cost(&Euclidean2, &bp, &bq)
        );
    }

    #[test]
    fn basic_ties_go_to_q() {
        // Algorithm 4: `<` for p, `≤` for q.
        let pts = vec![dp(0, 1.0, 0.0)];
        let (for_p, for_q) = split_basic(&Euclidean2, pts, &[0.0, 0.0], &[2.0, 0.0]);
        assert!(for_p.is_empty());
        assert_eq!(for_q.len(), 1);
    }

    #[test]
    fn singleton_and_empty_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        for strategy in SplitStrategy::ALL {
            let (p, q) = split(
                &Euclidean2,
                strategy,
                Vec::new(),
                &[0.0, 0.0],
                &[1.0, 0.0],
                30,
                &mut rng,
            );
            assert!(p.is_empty() && q.is_empty());
            let (p, q) = split(
                &Euclidean2,
                strategy,
                vec![dp(0, 0.1, 0.0)],
                &[0.0, 0.0],
                &[1.0, 0.0],
                30,
                &mut rng,
            );
            assert_eq!(p.len() + q.len(), 1);
            assert_eq!(p.len(), 1, "single point near p must go to p ({strategy})");
        }
    }

    #[test]
    fn md_fixes_a_swapped_configuration() {
        // p sits amid q's points and vice versa; Basic alone would already
        // swap them, but MD must *not* undo a good assignment.
        let pts = vec![
            dp(0, 0.0, 0.0),
            dp(1, 0.2, 0.0),
            dp(2, 10.0, 0.0),
            dp(3, 10.2, 0.0),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let (for_p, for_q) = split(
            &Euclidean2,
            SplitStrategy::Md,
            pts,
            &[0.1, 0.0],
            &[10.1, 0.0],
            30,
            &mut rng,
        );
        assert_eq!(ids(&for_p), [0, 1].into());
        assert_eq!(ids(&for_q), [2, 3].into());
    }

    #[test]
    fn advanced_assigns_clusters_to_nearest_node() {
        // Two tight clusters; p is near the left one, q near the right one.
        let pts = vec![
            dp(0, 0.0, 0.0),
            dp(1, 1.0, 0.0),
            dp(2, 20.0, 0.0),
            dp(3, 21.0, 0.0),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let (for_p, for_q) = split(
            &Euclidean2,
            SplitStrategy::Advanced,
            pts,
            &[2.0, 0.0],
            &[19.0, 0.0],
            30,
            &mut rng,
        );
        assert_eq!(ids(&for_p), [0, 1].into());
        assert_eq!(ids(&for_q), [2, 3].into());
    }

    #[test]
    fn advanced_moves_points_even_from_status_quo_on_torus() {
        // Same shape as figure5 but on a torus, exercising wrap-around.
        let t = Torus2::new(16.0, 16.0);
        let pts = vec![
            dp(0, 15.0, 0.0), // left of seam
            dp(1, 0.5, 0.0),  // right of seam — same cluster via wrap
            dp(2, 8.0, 0.0),
            dp(3, 8.5, 0.0),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let (for_p, for_q) = split(
            &t,
            SplitStrategy::Advanced,
            pts,
            &[0.0, 0.0],
            &[8.2, 0.0],
            30,
            &mut rng,
        );
        assert_eq!(ids(&for_p), [0, 1].into(), "seam-straddling cluster to p");
        assert_eq!(ids(&for_q), [2, 3].into());
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(SplitStrategy::Basic.name(), "Split_Basic");
        assert_eq!(
            SplitStrategy::Advanced.to_string(),
            "Split_Advanced (MD+PD)"
        );
        assert_eq!(SplitStrategy::ALL.len(), 4);
    }

    #[test]
    fn partition_cost_counts_ordered_pairs() {
        let a = [dp(0, 0.0, 0.0), dp(1, 3.0, 4.0)];
        // One pair at squared distance 25, counted twice (i,j) and (j,i).
        assert_eq!(partition_cost(&Euclidean2, &a, &[]), 50.0);
        assert_eq!(partition_cost(&Euclidean2, &[], &a), 50.0);
    }

    fn arb_points() -> impl Strategy<Value = Vec<DataPoint<[f64; 2]>>> {
        proptest::collection::vec([-50.0..50.0f64, -50.0..50.0f64], 0..40).prop_map(|coords| {
            coords
                .into_iter()
                .enumerate()
                .map(|(i, [x, y])| dp(i as u64, x, y))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn every_strategy_partitions_the_input(
            pts in arb_points(),
            px in -50.0..50.0f64,
            qx in -50.0..50.0f64,
            seed in 0u64..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let input_ids = ids(&pts);
            for strategy in SplitStrategy::ALL {
                let (p, q) = split(
                    &Euclidean2,
                    strategy,
                    pts.clone(),
                    &[px, 0.0],
                    &[qx, 0.0],
                    8, // small threshold to exercise the sampled diameter
                    &mut rng,
                );
                prop_assert_eq!(p.len() + q.len(), pts.len());
                let mut together = ids(&p);
                together.extend(ids(&q));
                prop_assert_eq!(&together, &input_ids);
                let overlap: Vec<_> = ids(&p).intersection(&ids(&q)).cloned().collect();
                prop_assert!(overlap.is_empty(), "clusters overlap: {:?}", overlap);
            }
        }

        #[test]
        fn advanced_never_worse_than_its_own_swap(
            pts in arb_points(),
            px in -50.0..50.0f64,
            qx in -50.0..50.0f64,
            seed in 0u64..100,
        ) {
            // MD's guarantee: among the two assignments of the PD clusters,
            // the chosen one has minimal displacement.
            prop_assume!(pts.len() >= 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let pos_p = [px, 0.0];
            let pos_q = [qx, 0.0];
            let (for_p, for_q) = split(
                &Euclidean2,
                SplitStrategy::Advanced,
                pts.clone(),
                &pos_p,
                &pos_q,
                100,
                &mut rng,
            );
            let med = |c: &[DataPoint<[f64; 2]>]| -> Option<[f64; 2]> {
                medoid_index_by(&Euclidean2, c, |p| &p.pos).map(|i| c[i].pos)
            };
            let disp = |m: Option<[f64; 2]>, t: [f64; 2]| {
                m.map_or(0.0, |m| Euclidean2.distance(&m, &t))
            };
            let chosen = disp(med(&for_p), pos_p) + disp(med(&for_q), pos_q);
            let swapped = disp(med(&for_q), pos_p) + disp(med(&for_p), pos_q);
            prop_assert!(chosen <= swapped + 1e-9);
        }
    }
}
