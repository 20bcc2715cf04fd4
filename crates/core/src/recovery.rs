//! Recovery — reactivating ghosts of crashed holders (paper Algorithm 2,
//! Step 3 of Fig. 4).
//!
//! ```text
//! for each q ∈ keys(ghosts) ∩ failed do
//!     guests ← guests ∪ ghosts[q]      ⊲ recovery
//!     delete entry q from ghosts
//! end for
//! ```

use crate::datapoint::dedup_by_id_in_place;
use crate::state::PolyState;
use polystyrene_membership::NodeId;

/// Result of one recovery pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Origins whose ghosts were reactivated.
    pub recovered_from: Vec<NodeId>,
    /// Data points newly added to the guest set (after deduplication —
    /// a reactivated ghost the node already hosts is not counted).
    pub reactivated_points: usize,
}

impl RecoveryOutcome {
    /// Whether anything was recovered.
    pub fn is_empty(&self) -> bool {
        self.recovered_from.is_empty()
    }
}

/// Runs Algorithm 2 on `state`: every ghost run whose origin the failure
/// detector flags is merged into the guest set (holders ascending, each
/// run deduplicated against the guests as it lands) and dropped from the
/// ghost table. A flagged holder with an empty run is reported with no
/// points.
///
/// # Example
///
/// ```
/// use polystyrene::prelude::*;
/// use polystyrene::recovery::recover;
/// use polystyrene_membership::NodeId;
///
/// let mut s = PolyState::with_initial_point(DataPoint::new(PointId::new(0), [0.0, 0.0]));
/// s.store_ghosts(NodeId::new(9), &[DataPoint::new(PointId::new(1), [1.0, 1.0])]);
/// let outcome = recover(&mut s, |id| id == NodeId::new(9));
/// assert_eq!(outcome.reactivated_points, 1);
/// assert_eq!(s.guests.len(), 2);
/// assert!(s.ghosts.is_empty());
/// ```
pub fn recover<P: Clone>(
    state: &mut PolyState<P>,
    is_failed: impl Fn(NodeId) -> bool,
) -> RecoveryOutcome {
    let mut outcome = RecoveryOutcome::default();
    let PolyState { guests, ghosts, .. } = state;
    ghosts.remove_where(is_failed, |q, points| {
        let before = guests.len();
        guests.extend(points);
        dedup_by_id_in_place(guests);
        outcome.reactivated_points += guests.len() - before;
        outcome.recovered_from.push(q);
    });
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::{DataPoint, PointId};

    fn dp(id: u64, x: f64) -> DataPoint<[f64; 2]> {
        DataPoint::new(PointId::new(id), [x, 0.0])
    }

    #[test]
    fn no_failures_means_no_recovery() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        s.store_ghosts(NodeId::new(1), &[dp(10, 1.0)]);
        let outcome = recover(&mut s, |_| false);
        assert!(outcome.is_empty());
        assert_eq!(outcome.reactivated_points, 0);
        assert_eq!(s.guests.len(), 1);
        assert_eq!(s.ghosts.len(), 1);
    }

    #[test]
    fn reactivates_only_failed_origins() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        s.store_ghosts(NodeId::new(1), &[dp(10, 1.0), dp(11, 2.0)]);
        s.store_ghosts(NodeId::new(2), &[dp(12, 3.0)]);
        let outcome = recover(&mut s, |id| id == NodeId::new(1));
        assert_eq!(outcome.recovered_from, vec![NodeId::new(1)]);
        assert_eq!(outcome.reactivated_points, 2);
        assert_eq!(s.guests.len(), 3);
        assert_eq!(s.ghosts.len(), 1);
        assert!(s.ghosts.contains(NodeId::new(2)));
    }

    #[test]
    fn reactivation_dedups_against_existing_guests() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        // The ghost contains a copy of a point we already host.
        s.store_ghosts(NodeId::new(1), &[dp(0, 9.0), dp(10, 1.0)]);
        let outcome = recover(&mut s, |_| true);
        assert_eq!(outcome.reactivated_points, 1);
        assert_eq!(s.guests.len(), 2);
        // Our own copy of point 0 kept its position.
        assert_eq!(s.guests[0].pos, [0.0, 0.0]);
    }

    #[test]
    fn multiple_failed_origins_all_recovered() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        for i in 1..=4 {
            s.store_ghosts(NodeId::new(i), &[dp(10 + i, i as f64)]);
        }
        let outcome = recover(&mut s, |_| true);
        assert_eq!(outcome.recovered_from.len(), 4);
        assert_eq!(outcome.reactivated_points, 4);
        assert_eq!(s.guests.len(), 5);
        assert!(s.ghosts.is_empty());
    }

    #[test]
    fn empty_ghost_entry_recovers_zero_points() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        s.store_ghosts(NodeId::new(1), &[]);
        let outcome = recover(&mut s, |_| true);
        assert_eq!(outcome.recovered_from, vec![NodeId::new(1)]);
        assert_eq!(outcome.reactivated_points, 0);
    }

    #[test]
    fn empty_replica_holder_is_recovered_beside_full_ones() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        s.store_ghosts(NodeId::new(3), &[dp(30, 3.0)]);
        s.store_ghosts(NodeId::new(1), &[]);
        s.store_ghosts(NodeId::new(2), &[dp(20, 2.0)]);
        let outcome = recover(&mut s, |id| id != NodeId::new(2));
        assert_eq!(outcome.recovered_from, vec![NodeId::new(1), NodeId::new(3)]);
        assert_eq!(outcome.reactivated_points, 1);
        assert_eq!(s.ghosts.len(), 1);
        assert!(s.ghosts.contains(NodeId::new(2)));
    }
}
