//! Backup — replicating guests to `K` other nodes (paper Algorithm 1,
//! Steps 2/2' of Fig. 4).
//!
//! ```text
//! backups ← backups \ failed
//! backups ← backups ∪ { (K − |backups|) random nodes }
//! for each b ∈ backups do
//!     b.ghosts[p] ← guests            ⊲ push operation
//! end for
//! ```
//!
//! Backup targets are drawn uniformly at random (from the peer-sampling
//! layer) because the paper assumes *correlated* failures: spreading
//! replicas maximizes the chance that some holder survives a regional
//! outage (Sec. III-D). The paper also notes the full-copy push "could be
//! further improved by sending only incremental deltas"; this module
//! implements that optimization — each push records what actually changed
//! with respect to the previous push to the same target, pushes whose
//! delta is empty are elided entirely, and the simulator charges only the
//! delta. The record is the target's run in [`PolyState::backups`]: the
//! ids last pushed there, sorted, so a target whose last push was empty
//! is up to date, not new.

use crate::datapoint::{DataPoint, PointId};
use crate::state::PolyState;
use polystyrene_membership::NodeId;
use std::cmp::Ordering;

/// One planned replica push from a node to one of its backup targets.
#[derive(Clone, Debug, PartialEq)]
pub struct BackupPush<P> {
    /// The backup node receiving the replica.
    pub target: NodeId,
    /// The full replica the target must store (`b.ghosts[p] ← guests`).
    pub points: Vec<DataPoint<P>>,
    /// Whether the target is a brand-new backup (full-state transfer).
    pub new_target: bool,
    /// Points added with respect to the previous push to this target.
    pub added_points: usize,
    /// Point ids removed with respect to the previous push (transmitted as
    /// bare ids).
    pub removed_ids: usize,
}

impl<P> BackupPush<P> {
    /// Wire cost of this push in the paper's units, given the cost of one
    /// data point (2 units for a 2-D point).
    pub fn cost_units(&self, units_per_point: usize) -> usize {
        push_cost_units(self.added_points, self.removed_ids, units_per_point)
    }
}

/// The incremental-delta cost of one replica push, in the paper's units:
/// changed points are shipped whole, removals as bare ids (1 unit each).
/// The single formula behind [`BackupPush::cost_units`] and the
/// simulators' wire accounting.
pub fn push_cost_units(added_points: usize, removed_ids: usize, units_per_point: usize) -> usize {
    added_points * units_per_point + removed_ids
}

/// Added/removed counts between two **sorted** id slices, via one linear
/// merge walk — the allocation-free core of the delta elision.
fn sorted_delta_counts(current: &[PointId], previous: &[PointId]) -> (usize, usize) {
    let (mut i, mut j) = (0, 0);
    let (mut added, mut removed) = (0, 0);
    while i < current.len() && j < previous.len() {
        match current[i].cmp(&previous[j]) {
            Ordering::Less => {
                added += 1;
                i += 1;
            }
            Ordering::Greater => {
                removed += 1;
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (added + current.len() - i, removed + previous.len() - j)
}

/// Runs Algorithm 1 for `state`, owned by `self_id`:
///
/// 1. drops failed backup targets,
/// 2. recruits random replacements from `candidates` until `replication`
///    targets are enrolled (candidates equal to `self_id`, already
///    enrolled, or flagged failed are skipped; recruitment gives up after
///    a bounded number of draws so a shrunken network cannot hang it),
/// 3. plans one [`BackupPush`] per target whose replica is stale.
///
/// `ids_scratch` is caller-owned scratch for the current guest-id
/// snapshot (a pooled buffer under a batch driver); it is cleared and
/// refilled here. In the converged steady state — replicas up to date,
/// no failures — the whole call allocates nothing.
///
/// The caller (simulator or runtime) is responsible for delivering each
/// push, i.e. executing `target.ghosts[self_id] ← push.points`.
pub fn plan_backups<P: Clone>(
    state: &mut PolyState<P>,
    self_id: NodeId,
    replication: usize,
    is_failed: impl Fn(NodeId) -> bool,
    candidates: impl FnMut() -> Option<NodeId>,
    ids_scratch: &mut Vec<PointId>,
) -> Vec<BackupPush<P>> {
    plan_backups_with(
        state,
        self_id,
        replication,
        is_failed,
        candidates,
        ids_scratch,
        Vec::new,
    )
}

/// [`plan_backups`] with the replica buffers supplied by the caller:
/// each planned push copies the guests into a buffer from `take_points`
/// (empty, any capacity). The receiver copies a push into its ghost table
/// and retires the buffer into its driver's buffer pool, so a driver that
/// also *takes* push buffers from that pool closes the loop; with fresh
/// buffers the pool gains one per push and nothing drains it.
pub fn plan_backups_with<P: Clone>(
    state: &mut PolyState<P>,
    self_id: NodeId,
    replication: usize,
    is_failed: impl Fn(NodeId) -> bool,
    mut candidates: impl FnMut() -> Option<NodeId>,
    ids_scratch: &mut Vec<PointId>,
    mut take_points: impl FnMut() -> Vec<DataPoint<P>>,
) -> Vec<BackupPush<P>> {
    // The guest ids, sorted: every push is measured against them and
    // recorded as them.
    ids_scratch.clear();
    ids_scratch.extend(state.guests.iter().map(|g| g.id));
    ids_scratch.sort_unstable();

    // Line 1: backups ← backups \ failed (their delta records go too).
    state.backups.remove_where(&is_failed, |_, _| {});

    // Line 2: recruit replacements, bounded attempts. A recruit is a new
    // target and gets a full push, so it is planned straight away; it
    // joins the backup table with its record below.
    let mut pushes: Vec<BackupPush<P>> = Vec::new();
    let mut attempts = replication.saturating_mul(20) + 20;
    while state.backups.len() + pushes.len() < replication && attempts > 0 {
        attempts -= 1;
        match candidates() {
            Some(c) => {
                if c != self_id
                    && !is_failed(c)
                    && !state.backups.contains(c)
                    && !pushes.iter().any(|p| p.target == c)
                {
                    pushes.push(BackupPush {
                        target: c,
                        points: Vec::new(),
                        new_target: true,
                        added_points: ids_scratch.len(),
                        removed_ids: 0,
                    });
                }
            }
            None => break,
        }
    }

    // Lines 3-5: plan pushes, eliding unchanged replicas.
    for (target, previous) in state.backups.runs() {
        let (added, removed) = sorted_delta_counts(ids_scratch, previous);
        if added == 0 && removed == 0 {
            continue; // replica already up to date: no traffic at all
        }
        pushes.push(BackupPush {
            target,
            points: Vec::new(),
            new_target: false,
            added_points: added,
            removed_ids: removed,
        });
    }
    // Recruits and stale targets go out in one order, ascending by target.
    pushes.sort_unstable_by_key(|push| push.target);
    for push in &mut pushes {
        push.points = take_points();
        push.points.extend_from_slice(&state.guests);
        state.backups.set(push.target, ids_scratch);
    }
    pushes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::{DataPoint, PointId};

    fn dp(id: u64, x: f64) -> DataPoint<[f64; 2]> {
        DataPoint::new(PointId::new(id), [x, 0.0])
    }

    fn cycle_candidates(ids: Vec<u64>) -> impl FnMut() -> Option<NodeId> {
        let mut i = 0;
        move || {
            if ids.is_empty() {
                return None;
            }
            let out = NodeId::new(ids[i % ids.len()]);
            i += 1;
            Some(out)
        }
    }

    #[test]
    fn first_round_enrolls_k_targets_with_full_pushes() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let pushes = plan_backups(
            &mut s,
            NodeId::new(0),
            3,
            |_| false,
            cycle_candidates(vec![1, 2, 3, 4]),
            &mut Vec::new(),
        );
        assert_eq!(s.backups.len(), 3);
        assert_eq!(pushes.len(), 3);
        for p in &pushes {
            assert!(p.new_target);
            assert_eq!(p.added_points, 1);
            assert_eq!(p.removed_ids, 0);
            assert_eq!(p.points.len(), 1);
            assert_eq!(p.cost_units(2), 2);
        }
    }

    #[test]
    fn unchanged_state_sends_nothing() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let _ = plan_backups(
            &mut s,
            NodeId::new(0),
            2,
            |_| false,
            cycle_candidates(vec![1, 2]),
            &mut Vec::new(),
        );
        let again = plan_backups(
            &mut s,
            NodeId::new(0),
            2,
            |_| false,
            cycle_candidates(vec![1, 2]),
            &mut Vec::new(),
        );
        assert!(again.is_empty(), "idle steady state must cost zero traffic");
    }

    #[test]
    fn guest_changes_produce_deltas() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let _ = plan_backups(
            &mut s,
            NodeId::new(0),
            1,
            |_| false,
            cycle_candidates(vec![1]),
            &mut Vec::new(),
        );
        s.absorb_guests(vec![dp(5, 1.0), dp(6, 2.0)]);
        s.guests.retain(|g| g.id != PointId::new(0));
        let pushes = plan_backups(
            &mut s,
            NodeId::new(0),
            1,
            |_| false,
            cycle_candidates(vec![1]),
            &mut Vec::new(),
        );
        assert_eq!(pushes.len(), 1);
        let p = &pushes[0];
        assert!(!p.new_target);
        assert_eq!(p.added_points, 2); // ids 5 and 6
        assert_eq!(p.removed_ids, 1); // id 0
        assert_eq!(p.cost_units(2), 5); // 2*2 + 1
    }

    #[test]
    fn empty_last_push_is_not_a_new_target() {
        // A node without guests still enrolls its backups, with empty
        // full-state pushes; the next round has nothing to tell them.
        let mut s: PolyState<[f64; 2]> = PolyState::empty_at([0.0, 0.0]);
        let first = plan_backups(
            &mut s,
            NodeId::new(0),
            2,
            |_| false,
            cycle_candidates(vec![1, 2]),
            &mut Vec::new(),
        );
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|p| p.new_target && p.points.is_empty()));
        let again = plan_backups(
            &mut s,
            NodeId::new(0),
            2,
            |_| false,
            cycle_candidates(vec![1, 2]),
            &mut Vec::new(),
        );
        assert!(again.is_empty(), "an empty replica is a replica: {again:?}");
    }

    #[test]
    fn failed_backups_are_replaced() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let _ = plan_backups(
            &mut s,
            NodeId::new(0),
            2,
            |_| false,
            cycle_candidates(vec![1, 2]),
            &mut Vec::new(),
        );
        assert!(s.backups.contains(NodeId::new(1)));
        // Node 1 dies; a replacement (3) must be enrolled and receive a
        // full push, while the survivor (2) stays silent.
        let pushes = plan_backups(
            &mut s,
            NodeId::new(0),
            2,
            |id| id == NodeId::new(1),
            cycle_candidates(vec![3]),
            &mut Vec::new(),
        );
        assert!(!s.backups.contains(NodeId::new(1)));
        assert!(s.backups.contains(NodeId::new(3)));
        assert_eq!(pushes.len(), 1);
        assert_eq!(pushes[0].target, NodeId::new(3));
        assert!(pushes[0].new_target);
    }

    #[test]
    fn never_enrolls_self_failed_or_duplicates() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let _ = plan_backups(
            &mut s,
            NodeId::new(0),
            3,
            |id| id == NodeId::new(9),
            cycle_candidates(vec![0, 9, 1, 1, 2, 3]),
            &mut Vec::new(),
        );
        assert!(!s.backups.contains(NodeId::new(0)), "enrolled itself");
        assert!(!s.backups.contains(NodeId::new(9)), "enrolled a dead node");
        assert_eq!(s.backups.len(), 3);
    }

    #[test]
    fn gives_up_when_candidates_exhausted() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        // Only one valid candidate exists for K = 4.
        let pushes = plan_backups(
            &mut s,
            NodeId::new(0),
            4,
            |_| false,
            cycle_candidates(vec![1]),
            &mut Vec::new(),
        );
        assert_eq!(s.backups.len(), 1);
        assert_eq!(pushes.len(), 1);
        // And a `None`-returning supplier terminates immediately.
        let mut s2 = PolyState::with_initial_point(dp(0, 0.0));
        let pushes = plan_backups(
            &mut s2,
            NodeId::new(0),
            4,
            |_| false,
            || None,
            &mut Vec::new(),
        );
        assert!(pushes.is_empty());
    }

    #[test]
    fn replacement_after_loss_of_delta_record_is_full_push() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let _ = plan_backups(
            &mut s,
            NodeId::new(0),
            1,
            |_| false,
            cycle_candidates(vec![1]),
            &mut Vec::new(),
        );
        // Backup 1 dies; its delta record must die with it so that a
        // re-enrollment of the *same id* (e.g. id reuse) is a full push.
        let _ = plan_backups(
            &mut s,
            NodeId::new(0),
            1,
            |id| id == NodeId::new(1),
            || None,
            &mut Vec::new(),
        );
        assert!(s.backups.is_empty());
        let pushes = plan_backups(
            &mut s,
            NodeId::new(0),
            1,
            |_| false,
            cycle_candidates(vec![1]),
            &mut Vec::new(),
        );
        assert_eq!(pushes.len(), 1);
        assert!(pushes[0].new_target);
    }

    #[test]
    fn supplied_buffers_carry_the_replicas() {
        let mut s = PolyState::with_initial_point(dp(0, 0.0));
        let mut handed_out = 0;
        let pushes = plan_backups_with(
            &mut s,
            NodeId::new(0),
            2,
            |_| false,
            cycle_candidates(vec![1, 2]),
            &mut Vec::new(),
            || {
                handed_out += 1;
                Vec::with_capacity(64)
            },
        );
        assert_eq!(pushes.len(), 2);
        assert_eq!(
            handed_out, 2,
            "one buffer per planned push, none for elided ones"
        );
        for p in &pushes {
            assert_eq!(p.points, s.guests);
            assert_eq!(
                p.points.capacity(),
                64,
                "the caller's buffer, not a fresh clone"
            );
        }
    }
}
