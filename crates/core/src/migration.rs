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
//! protocol node, which owns the T-Man view and RPS. This module holds
//! the exchange itself (lines 4–7) in the two halves a message exchange
//! splits it into, and every driver runs exactly these two:
//!
//! * [`absorb_and_split`] — the responder `q` unions the shipped guests
//!   with its own, splits, keeps its share, re-projects and returns the
//!   initiator's share;
//! * [`adopt_reply`] — the initiator `p` installs that share as its
//!   guest set, keeping whatever it acquired while the exchange was in
//!   flight, and then re-projects.

use crate::config::{PolystyreneConfig, DIAMETER_EXACT_THRESHOLD};
use crate::datapoint::{dedup_by_id_in_place, DataPoint, PointId};
use crate::split::split;
use crate::state::PolyState;
use polystyrene_space::MetricSpace;
use rand::Rng;

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

/// The responder half of Algorithm 3 in message form: union → dedup →
/// `SPLIT` → re-projection, as the protocol node's `MigrationRequest`
/// handler runs it.
///
/// Unions `incoming` (the initiator's guests, listed first so their
/// copies win deduplication) with the responder's own guests, splits the
/// union between `initiator_pos` and the responder's position, keeps the
/// responder's share, re-projects the responder, and returns the
/// initiator's share for [`adopt_reply`].
///
/// The union is deduplicated by [`PointId`] — after a recovery wave many
/// nodes hold redundant copies of the same points, and these meetings
/// are what removes them ("These copies rapidly disappear as the
/// migration process detects and removes them", Sec. IV-B).
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

/// The initiator half of Algorithm 3 in message form: installs the
/// responder's `reply` (its [`SplitOutcome::for_initiator`]) as the
/// initiator's guest set. The caller re-projects afterwards.
///
/// The split only redistributed the guests the initiator shipped, whose
/// ids `shipped` holds sorted, plus the responder's own. Anything else
/// the initiator holds now it acquired while the exchange was in flight
/// (a recovery reactivating ghosts, a late reply) and the split never
/// saw it, so it is re-absorbed rather than orphaned by the replacement.
/// `retain` keeps those points in arrival order.
///
/// Returns the replaced guest buffer, empty, when nothing was acquired,
/// so the caller can recycle it.
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
/// // p ships its guests (none); q answers with p's share of the union.
/// let shipped: Vec<PointId> = Vec::new();
/// let reply = absorb_and_split(&Euclidean2, &cfg, &mut q, &p.pos, p.guests.clone(), &mut rng);
/// // Before the reply lands, p reactivates a ghost the split never saw.
/// p.absorb_guests(vec![DataPoint::new(PointId::new(2), [-1.0, 0.0])]);
/// let spare = adopt_reply(&mut p, reply.for_initiator, &shipped);
/// p.project(&Euclidean2, &cfg, &mut rng);
/// // The point near p migrated to p, the far one stayed with q, and the
/// // reactivated point survived the adoption.
/// assert_eq!(p.guests.len(), 2);
/// assert_eq!(q.guests.len(), 1);
/// assert!(spare.is_none());
/// ```
pub fn adopt_reply<P: Clone>(
    initiator: &mut PolyState<P>,
    reply: Vec<DataPoint<P>>,
    shipped: &[PointId],
) -> Option<Vec<DataPoint<P>>> {
    let mut acquired = std::mem::replace(&mut initiator.guests, reply);
    acquired.retain(|g| shipped.binary_search(&g.id).is_err());
    if acquired.is_empty() {
        Some(acquired)
    } else {
        initiator.absorb_guests(acquired);
        None
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
    use std::collections::BTreeSet;

    fn dp(id: u64, x: f64, y: f64) -> DataPoint<[f64; 2]> {
        DataPoint::new(PointId::new(id), [x, y])
    }

    fn cfg(split: SplitStrategy) -> PolystyreneConfig {
        PolystyreneConfig {
            split,
            ..PolystyreneConfig::default()
        }
    }

    /// What one whole exchange did, beyond the two guest sets.
    struct Exchanged {
        pulled: usize,
        deduplicated: usize,
        /// Points that changed primary holder.
        transferred: usize,
    }

    /// One whole exchange between initiator `p` and responder `q`
    /// through the two halves the protocol node runs, in its RNG order:
    /// `q` answers `p`'s request, `p` adopts the reply, then `p`
    /// re-projects.
    fn exchange(
        config: &PolystyreneConfig,
        p: &mut PolyState<[f64; 2]>,
        q: &mut PolyState<[f64; 2]>,
        rng: &mut StdRng,
    ) -> Exchanged {
        let p_before: BTreeSet<PointId> = p.guests.iter().map(|g| g.id).collect();
        let q_before: BTreeSet<PointId> = q.guests.iter().map(|g| g.id).collect();
        let shipped: Vec<PointId> = p_before.iter().copied().collect();
        let outcome = absorb_and_split(&Euclidean2, config, q, &p.pos, p.guests.clone(), rng);
        let spare = adopt_reply(p, outcome.for_initiator, &shipped);
        assert!(
            spare.is_some_and(|s| s.is_empty()),
            "nothing arrived in flight"
        );
        p.project(&Euclidean2, config, rng);
        let moved = |s: &PolyState<[f64; 2]>, before: &BTreeSet<PointId>| {
            s.guests.iter().filter(|x| !before.contains(&x.id)).count()
        };
        Exchanged {
            pulled: outcome.pulled,
            deduplicated: outcome.deduplicated,
            transferred: moved(p, &p_before) + moved(q, &q_before),
        }
    }

    #[test]
    fn exchange_conserves_points() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = PolyState::with_initial_point(dp(0, 0.0, 0.0));
        p.absorb_guests(vec![dp(1, 1.0, 0.0), dp(2, 6.0, 0.0)]);
        let mut q = PolyState::with_initial_point(dp(3, 10.0, 0.0));
        let out = exchange(&cfg(SplitStrategy::Advanced), &mut p, &mut q, &mut rng);
        assert_eq!(p.guests.len() + q.guests.len(), 4);
        assert_eq!(out.pulled, 1);
    }

    #[test]
    fn exchange_deduplicates_shared_copies() {
        let mut rng = StdRng::seed_from_u64(2);
        // Both nodes hold a copy of point 7 (post-recovery duplication).
        let mut p = PolyState::with_initial_point(dp(7, 0.0, 0.0));
        let mut q = PolyState::with_initial_point(dp(7, 0.0, 0.0));
        q.absorb_guests(vec![dp(8, 10.0, 0.0)]);
        let out = exchange(&cfg(SplitStrategy::Basic), &mut p, &mut q, &mut rng);
        assert_eq!(out.deduplicated, 1);
        let total: usize = p.guests.len() + q.guests.len();
        assert_eq!(total, 2, "duplicate of point 7 must be gone");
    }

    #[test]
    fn empty_node_pulls_its_share() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p: PolyState<[f64; 2]> = PolyState::empty_at([0.0, 0.0]);
        let mut q = PolyState::with_initial_point(dp(0, 10.0, 0.0));
        q.absorb_guests(vec![dp(1, 0.5, 0.0), dp(2, 9.5, 0.0)]);
        let out = exchange(&cfg(SplitStrategy::Basic), &mut p, &mut q, &mut rng);
        assert_eq!(p.guests.len(), 1);
        assert_eq!(p.guests[0].id, PointId::new(1));
        assert_eq!(out.transferred, 1);
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
        exchange(&cfg(SplitStrategy::Advanced), &mut p, &mut q, &mut rng);
        assert_eq!(p.pos, [1.0, 0.0]);
        assert_eq!(q.pos, [21.0, 0.0]);
    }

    #[test]
    fn status_quo_exchange_transfers_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = PolyState::with_initial_point(dp(0, 0.0, 0.0));
        let mut q = PolyState::with_initial_point(dp(1, 10.0, 0.0));
        let out = exchange(&cfg(SplitStrategy::Basic), &mut p, &mut q, &mut rng);
        assert_eq!(out.transferred, 0);
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
            exchange(&config, &mut p, &mut q, &mut rng);
        }
        assert!(
            p.guests.len() >= 3 && q.guests.len() >= 3,
            "load did not level: p={}, q={}",
            p.guests.len(),
            q.guests.len()
        );
    }

    #[test]
    fn points_acquired_in_flight_survive_the_reply() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = cfg(SplitStrategy::Advanced);
        let mut p = PolyState::with_initial_point(dp(0, 0.0, 0.0));
        let mut q = PolyState::with_initial_point(dp(1, 10.0, 0.0));
        let shipped = vec![PointId::new(0)];
        let reply = absorb_and_split(
            &Euclidean2,
            &config,
            &mut q,
            &p.pos,
            p.guests.clone(),
            &mut rng,
        );
        // While the reply travels, a recovery hands p a point the split
        // never saw.
        p.absorb_guests(vec![dp(2, 1.0, 0.0)]);
        let spare = adopt_reply(&mut p, reply.for_initiator, &shipped);
        assert!(spare.is_none(), "an acquired point is no spare buffer");
        let mut held: Vec<u64> = p.guests.iter().map(|g| g.id.as_u64()).collect();
        held.sort_unstable();
        assert_eq!(
            held,
            vec![0, 2],
            "the point acquired in flight was orphaned"
        );
        assert_eq!(q.guest_ids(), vec![PointId::new(1)]);
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
                let out = exchange(&cfg(strategy), &mut p, &mut q, &mut rng);
                prop_assert_eq!(p.guests.len() + q.guests.len(), total);
                prop_assert_eq!(out.deduplicated, 0);
                prop_assert!(out.transferred <= total);
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
