//! Migration — the pairwise data-point exchange that re-balances the
//! shape (paper Algorithm 3, Step 4 of Fig. 4).
//!
//! ```text
//! C ← ψ closest neighbors in local T-Man view
//! C ← C ∪ { one random neighbor from RPS }
//! q ← random node from C
//! ⊲ Pair-wise pull-push exchange with q
//! all_points ← p.guests ∪ q.guests            ⊲ pull exchange
//! (points1, points2) ← SPLIT(all_points, p.pos, q.pos)
//! p.guests ← points1                           ⊲ updating one's state
//! q.guests ← points2                           ⊲ push exchange
//! ```
//!
//! "This last step is very similar to a decentralized k-means algorithm,
//! and is what allows Polystyrene to re-converge towards the desired
//! shape" (paper Sec. III-B). Partner *selection* (lines 1–3) lives in the
//! driver (simulator / runtime), which owns the T-Man view and RPS; this
//! module implements the exchange itself (lines 4–7) plus the
//! re-projection both participants perform afterwards.

use crate::config::{PolystyreneConfig, DIAMETER_EXACT_THRESHOLD};
use crate::datapoint::{dedup_by_id_in_place, DataPoint, PointId};
use crate::split::split;
use crate::state::PolyState;
use polystyrene_space::MetricSpace;
use rand::Rng;
use std::collections::BTreeSet;

/// Result of one migration exchange, with the traffic breakdown the
/// simulator converts into the paper's cost units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Points held by the initiator after the exchange.
    pub kept_by_p: usize,
    /// Points held by the responder after the exchange.
    pub kept_by_q: usize,
    /// Points that changed primary holder.
    pub transferred_points: usize,
    /// Points the responder shipped to the initiator (the *pull* leg).
    pub pulled_points: usize,
    /// Points the initiator shipped back (the *push* leg).
    pub pushed_points: usize,
    /// Duplicate copies eliminated by the union — this is what drains the
    /// post-recovery replica spike of paper Fig. 7a.
    pub deduplicated_points: usize,
}

/// Executes the pull-push exchange of Algorithm 3 between initiator `p`
/// and responder `q`, then re-projects both positions (Step 1 of Fig. 4).
///
/// The union of the two guest sets is deduplicated by [`PointId`] — after
/// a recovery wave many nodes hold redundant copies of the same points,
/// and these meetings are what removes them ("These copies rapidly
/// disappear as the migration process detects and removes them",
/// Sec. IV-B).
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
/// let cfg = PolystyreneConfig::default();
/// // q ended up with everything after a recovery; p is empty.
/// let mut p: PolyState<[f64; 2]> = PolyState::empty_at([0.0, 0.0]);
/// let mut q = PolyState::with_initial_point(DataPoint::new(PointId::new(0), [10.0, 0.0]));
/// q.absorb_guests(vec![DataPoint::new(PointId::new(1), [0.5, 0.0])]);
///
/// let out = migrate_exchange(&Euclidean2, &cfg, &mut p, &mut q, &mut rng);
/// // The point near p migrated to p; the far one stayed with q.
/// assert_eq!(p.guests.len(), 1);
/// assert_eq!(q.guests.len(), 1);
/// assert_eq!(out.transferred_points, 1);
/// ```
pub fn migrate_exchange<S: MetricSpace, R: Rng + ?Sized>(
    space: &S,
    config: &PolystyreneConfig,
    p: &mut PolyState<S::Point>,
    q: &mut PolyState<S::Point>,
    rng: &mut R,
) -> MigrationOutcome {
    let p_before: BTreeSet<PointId> = p.guests.iter().map(|g| g.id).collect();
    let q_before: BTreeSet<PointId> = q.guests.iter().map(|g| g.id).collect();

    let incoming = std::mem::take(&mut p.guests);
    let outcome = absorb_and_split(space, config, q, &p.pos, incoming, rng);
    p.guests = outcome.for_initiator;
    p.project(space, config, rng);

    let transferred = p
        .guests
        .iter()
        .filter(|x| !p_before.contains(&x.id))
        .count()
        + q.guests
            .iter()
            .filter(|x| !q_before.contains(&x.id))
            .count();

    MigrationOutcome {
        kept_by_p: p.guests.len(),
        kept_by_q: q.guests.len(),
        transferred_points: transferred,
        pulled_points: outcome.pulled,
        pushed_points: outcome.pushed,
        deduplicated_points: outcome.deduplicated,
    }
}

/// Result of the responder half of the exchange ([`absorb_and_split`]).
#[derive(Clone, Debug)]
pub struct SplitOutcome<P> {
    /// The initiator's share of the union, to be shipped back.
    pub for_initiator: Vec<DataPoint<P>>,
    /// Points the responder contributed to the union (its guests before
    /// the exchange) — the *pull* leg of the paper's traffic accounting.
    pub pulled: usize,
    /// Points the responder kept after the split — the *push* leg.
    pub pushed: usize,
    /// Duplicate copies eliminated by the union.
    pub deduplicated: usize,
}

/// The responder half of Algorithm 3 in message form — the single
/// implementation of union → dedup → `SPLIT` → re-projection that both
/// [`migrate_exchange`] and the sans-IO protocol node's
/// `MigrationRequest` handler execute, so the exchange semantics cannot
/// drift between the direct and the message-decomposed form.
///
/// Unions `incoming` (the initiator's guests, listed first so their
/// copies win deduplication) with the responder's own guests, splits the
/// union between `initiator_pos` and the responder's position, keeps the
/// responder's share, re-projects the responder, and returns the
/// initiator's share. The caller (the initiator, or [`migrate_exchange`]
/// acting for it) installs `for_initiator` and re-projects.
pub fn absorb_and_split<S: MetricSpace, R: Rng + ?Sized>(
    space: &S,
    config: &PolystyreneConfig,
    responder: &mut PolyState<S::Point>,
    initiator_pos: &S::Point,
    incoming: Vec<DataPoint<S::Point>>,
    rng: &mut R,
) -> SplitOutcome<S::Point> {
    let pulled = responder.guests.len();
    let mut all_points = incoming;
    all_points.extend(std::mem::take(&mut responder.guests));
    let total_before = all_points.len();
    dedup_by_id_in_place(&mut all_points);
    let deduplicated = total_before - all_points.len();

    let (for_initiator, for_responder) = split(
        space,
        config.split,
        all_points,
        initiator_pos,
        &responder.pos,
        DIAMETER_EXACT_THRESHOLD,
        rng,
    );
    let pushed = for_responder.len();
    responder.guests = for_responder;
    responder.project(space, config, rng);

    SplitOutcome {
        for_initiator,
        pulled,
        pushed,
        deduplicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::DataPoint;
    use crate::split::SplitStrategy;
    use polystyrene_space::prelude::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dp(id: u64, x: f64, y: f64) -> DataPoint<[f64; 2]> {
        DataPoint::new(PointId::new(id), [x, y])
    }

    fn cfg(split: SplitStrategy) -> PolystyreneConfig {
        PolystyreneConfig {
            split,
            ..PolystyreneConfig::default()
        }
    }

    #[test]
    fn exchange_conserves_points() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = PolyState::with_initial_point(dp(0, 0.0, 0.0));
        p.absorb_guests(vec![dp(1, 1.0, 0.0), dp(2, 6.0, 0.0)]);
        let mut q = PolyState::with_initial_point(dp(3, 10.0, 0.0));
        let out = migrate_exchange(
            &Euclidean2,
            &cfg(SplitStrategy::Advanced),
            &mut p,
            &mut q,
            &mut rng,
        );
        assert_eq!(p.guests.len() + q.guests.len(), 4);
        assert_eq!(out.kept_by_p, p.guests.len());
        assert_eq!(out.kept_by_q, q.guests.len());
        assert_eq!(out.pulled_points, 1);
    }

    #[test]
    fn exchange_deduplicates_shared_copies() {
        let mut rng = StdRng::seed_from_u64(2);
        // Both nodes hold a copy of point 7 (post-recovery duplication).
        let mut p = PolyState::with_initial_point(dp(7, 0.0, 0.0));
        let mut q = PolyState::with_initial_point(dp(7, 0.0, 0.0));
        q.absorb_guests(vec![dp(8, 10.0, 0.0)]);
        let out = migrate_exchange(
            &Euclidean2,
            &cfg(SplitStrategy::Basic),
            &mut p,
            &mut q,
            &mut rng,
        );
        assert_eq!(out.deduplicated_points, 1);
        let total: usize = p.guests.len() + q.guests.len();
        assert_eq!(total, 2, "duplicate of point 7 must be gone");
    }

    #[test]
    fn empty_node_pulls_its_share() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p: PolyState<[f64; 2]> = PolyState::empty_at([0.0, 0.0]);
        let mut q = PolyState::with_initial_point(dp(0, 10.0, 0.0));
        q.absorb_guests(vec![dp(1, 0.5, 0.0), dp(2, 9.5, 0.0)]);
        let out = migrate_exchange(
            &Euclidean2,
            &cfg(SplitStrategy::Basic),
            &mut p,
            &mut q,
            &mut rng,
        );
        assert_eq!(p.guests.len(), 1);
        assert_eq!(p.guests[0].id, PointId::new(1));
        assert_eq!(out.transferred_points, 1);
        // p's position moved onto its new point.
        assert_eq!(p.pos, [0.5, 0.0]);
    }

    #[test]
    fn both_positions_reprojected_to_medoids() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = PolyState::with_initial_point(dp(0, 0.0, 0.0));
        p.absorb_guests(vec![dp(1, 1.0, 0.0), dp(2, 2.0, 0.0)]);
        let mut q = PolyState::with_initial_point(dp(3, 20.0, 0.0));
        q.absorb_guests(vec![dp(4, 21.0, 0.0), dp(5, 22.0, 0.0)]);
        migrate_exchange(
            &Euclidean2,
            &cfg(SplitStrategy::Advanced),
            &mut p,
            &mut q,
            &mut rng,
        );
        assert_eq!(p.pos, [1.0, 0.0]);
        assert_eq!(q.pos, [21.0, 0.0]);
    }

    #[test]
    fn status_quo_exchange_transfers_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = PolyState::with_initial_point(dp(0, 0.0, 0.0));
        let mut q = PolyState::with_initial_point(dp(1, 10.0, 0.0));
        let out = migrate_exchange(
            &Euclidean2,
            &cfg(SplitStrategy::Basic),
            &mut p,
            &mut q,
            &mut rng,
        );
        assert_eq!(out.transferred_points, 0);
        assert_eq!(p.guests[0].id, PointId::new(0));
        assert_eq!(q.guests[0].id, PointId::new(1));
    }

    #[test]
    fn repeated_exchanges_level_loads() {
        // One node starts with every point of a small segment; repeated
        // migration with a neighbor must spread them roughly evenly —
        // the "density-aware tessellation" of Sec. II-C in miniature.
        let mut rng = StdRng::seed_from_u64(6);
        let config = cfg(SplitStrategy::Advanced);
        let mut p: PolyState<[f64; 2]> = PolyState::empty_at([0.0, 0.0]);
        let mut q: PolyState<[f64; 2]> = PolyState::empty_at([9.0, 0.0]);
        q.absorb_guests((0..10).map(|i| dp(i, i as f64, 0.0)).collect::<Vec<_>>());
        for _ in 0..6 {
            migrate_exchange(&Euclidean2, &config, &mut p, &mut q, &mut rng);
        }
        assert!(
            p.guests.len() >= 3 && q.guests.len() >= 3,
            "load did not level: p={}, q={}",
            p.guests.len(),
            q.guests.len()
        );
    }

    proptest! {
        #[test]
        fn conservation_under_all_strategies(
            p_pts in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 0..15),
            q_pts in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 0..15),
            seed in 0u64..200,
        ) {
            for strategy in SplitStrategy::ALL {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut p: PolyState<[f64; 2]> = PolyState::empty_at([-1.0, 0.0]);
                let mut q: PolyState<[f64; 2]> = PolyState::empty_at([1.0, 0.0]);
                p.absorb_guests(
                    p_pts.iter().enumerate()
                        .map(|(i, &(x, y))| dp(i as u64, x, y)).collect::<Vec<_>>(),
                );
                q.absorb_guests(
                    q_pts.iter().enumerate()
                        .map(|(i, &(x, y))| dp(1000 + i as u64, x, y)).collect::<Vec<_>>(),
                );
                let total = p.guests.len() + q.guests.len();
                let out = migrate_exchange(&Euclidean2, &cfg(strategy), &mut p, &mut q, &mut rng);
                prop_assert_eq!(p.guests.len() + q.guests.len(), total);
                prop_assert_eq!(out.deduplicated_points, 0);
                prop_assert!(out.transferred_points <= total);
                // Guests stay unique network-wide.
                let mut all: Vec<_> = p.guest_ids();
                all.extend(q.guest_ids());
                all.sort();
                let n = all.len();
                all.dedup();
                prop_assert_eq!(all.len(), n);
            }
        }
    }
}
