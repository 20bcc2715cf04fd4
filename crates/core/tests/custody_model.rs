//! Model test for the custody state: random sequences of backup pushes
//! (empty ones included), guest changes, recoveries and backup planning
//! run against `PolyState` and against a reference kept in ordered maps
//! — the `BTreeMap` / `BTreeSet` layout the flat run tables replaced,
//! with its Algorithm 1 and 2 bodies. Every observable must agree: the
//! iteration order and contents of ghosts, backups and delta records,
//! `stored_points()`, every planned `BackupPush` and every
//! `RecoveryOutcome`.

use polystyrene::prelude::*;
use polystyrene_membership::NodeId;
use proptest::collection;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

type Point = DataPoint<[f64; 2]>;

const SELF: NodeId = NodeId::new(0);

#[derive(Default)]
struct Reference {
    guests: Vec<Point>,
    ghosts: BTreeMap<NodeId, Vec<Point>>,
    backups: BTreeSet<NodeId>,
    last_sent: BTreeMap<NodeId, Vec<PointId>>,
}

impl Reference {
    fn absorb(&mut self, incoming: Vec<Point>) {
        self.guests.extend(incoming);
        let mut seen = BTreeSet::new();
        self.guests.retain(|p| seen.insert(p.id));
    }

    fn recover(&mut self, is_failed: impl Fn(NodeId) -> bool) -> RecoveryOutcome {
        let failed: Vec<NodeId> = self
            .ghosts
            .keys()
            .copied()
            .filter(|&q| is_failed(q))
            .collect();
        let mut outcome = RecoveryOutcome::default();
        for q in failed {
            let points = self.ghosts.remove(&q).unwrap_or_default();
            let before = self.guests.len();
            self.absorb(points);
            outcome.reactivated_points += self.guests.len() - before;
            outcome.recovered_from.push(q);
        }
        outcome
    }

    fn plan(
        &mut self,
        replication: usize,
        is_failed: impl Fn(NodeId) -> bool,
        mut candidates: impl FnMut() -> Option<NodeId>,
    ) -> Vec<BackupPush<[f64; 2]>> {
        while let Some(&b) = self.backups.iter().find(|&&b| is_failed(b)) {
            self.backups.remove(&b);
            self.last_sent.remove(&b);
        }
        let mut attempts = replication.saturating_mul(20) + 20;
        while self.backups.len() < replication && attempts > 0 {
            attempts -= 1;
            match candidates() {
                Some(c) => {
                    if c != SELF && !is_failed(c) && !self.backups.contains(&c) {
                        self.backups.insert(c);
                    }
                }
                None => break,
            }
        }
        let mut ids: Vec<PointId> = self.guests.iter().map(|g| g.id).collect();
        ids.sort_unstable();
        let mut pushes = Vec::new();
        for &target in &self.backups {
            let previous = self.last_sent.get(&target);
            let new_target = previous.is_none();
            let (added, removed) = delta(&ids, previous.map(Vec::as_slice).unwrap_or_default());
            if !new_target && added == 0 && removed == 0 {
                continue;
            }
            pushes.push(BackupPush {
                target,
                points: self.guests.clone(),
                new_target,
                added_points: added,
                removed_ids: removed,
            });
        }
        for push in &pushes {
            self.last_sent.insert(push.target, ids.clone());
        }
        pushes
    }
}

fn delta(current: &[PointId], previous: &[PointId]) -> (usize, usize) {
    let (mut i, mut j, mut added, mut removed) = (0, 0, 0, 0);
    while i < current.len() && j < previous.len() {
        match current[i].cmp(&previous[j]) {
            Ordering::Less => (added, i) = (added + 1, i + 1),
            Ordering::Greater => (removed, j) = (removed + 1, j + 1),
            Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    (added + current.len() - i, removed + previous.len() - j)
}

#[derive(Clone, Debug)]
enum Op {
    /// `from` pushes a replica of these point ids (possibly none).
    Push { from: u64, ids: Vec<u64> },
    /// The guest set becomes these point ids.
    Guests(Vec<u64>),
    /// Recovery with the nodes of this bit mask failed.
    Recover(u16),
    /// Backup planning with the nodes of this bit mask failed.
    Plan {
        replication: usize,
        failed: u16,
        candidates: Vec<u64>,
    },
}

/// One operation: the first field picks the kind (push 3 in 9, guest
/// change 2 in 9, recovery 1 in 9, planning 3 in 9), the rest are its
/// arguments.
fn op() -> impl Strategy<Value = Op> {
    let ids = || collection::vec(0u64..12, 0..5);
    (
        0u8..9,
        1u64..10,
        ids(),
        0usize..5,
        0u16..1024,
        collection::vec(0u64..10, 0..8),
    )
        .prop_map(
            |(kind, from, ids, replication, mask, candidates)| match kind {
                0..=2 => Op::Push { from, ids },
                3 | 4 => Op::Guests(ids),
                5 => Op::Recover(mask & FALLIBLE),
                _ => Op::Plan {
                    replication,
                    failed: mask & FALLIBLE,
                    candidates,
                },
            },
        )
}

/// The peers 1..=9 as a bit mask: any of them may be flagged failed.
const FALLIBLE: u16 = 0b11_1111_1110;

fn points(ids: &[u64], step: usize) -> Vec<Point> {
    ids.iter()
        .map(|&id| DataPoint::new(PointId::new(id), [id as f64, step as f64]))
        .collect()
}

fn check(state: &PolyState<[f64; 2]>, reference: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(&state.guests, &reference.guests);
    let ghosts: Vec<(NodeId, Vec<Point>)> = state
        .ghosts
        .runs()
        .map(|(q, run)| (q, run.to_vec()))
        .collect();
    let expected: Vec<(NodeId, Vec<Point>)> = reference
        .ghosts
        .iter()
        .map(|(&q, run)| (q, run.clone()))
        .collect();
    prop_assert_eq!(ghosts, expected);
    let flat: Vec<&Point> = reference.ghosts.values().flatten().collect();
    prop_assert_eq!(state.ghosts.items().iter().collect::<Vec<_>>(), flat);
    prop_assert_eq!(state.ghosts.len(), reference.ghosts.len());
    prop_assert_eq!(
        state.backups.keys().collect::<Vec<_>>(),
        reference.backups.iter().copied().collect::<Vec<_>>()
    );
    let records: Vec<(NodeId, Vec<PointId>)> = state
        .backups
        .runs()
        .map(|(b, ids)| (b, ids.to_vec()))
        .collect();
    let expected: Vec<(NodeId, Vec<PointId>)> = reference
        .last_sent
        .iter()
        .map(|(&b, ids)| (b, ids.clone()))
        .collect();
    prop_assert_eq!(records, expected);
    let stored = reference.guests.len() + reference.ghosts.values().map(Vec::len).sum::<usize>();
    prop_assert_eq!(state.stored_points(), stored);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn custody_matches_the_ordered_map_reference(
        founded in 0u8..2,
        ops in collection::vec(op(), 1..40),
    ) {
        // A founding node starts with its own point, an injected one empty.
        let (mut state, mut reference) = if founded == 1 {
            let origin = points(&[0], 0).remove(0);
            let reference = Reference { guests: vec![origin.clone()], ..Reference::default() };
            (PolyState::with_initial_point(origin), reference)
        } else {
            (PolyState::empty_at([0.0, 0.0]), Reference::default())
        };
        let mut scratch = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push { from, ids } => {
                    let pts = points(&ids, step);
                    state.store_ghosts(NodeId::new(from), &pts);
                    reference.ghosts.insert(NodeId::new(from), pts);
                }
                Op::Guests(ids) => {
                    state.guests.clear();
                    state.absorb_guests(points(&ids, step));
                    reference.guests.clear();
                    reference.absorb(points(&ids, step));
                }
                Op::Recover(mask) => {
                    let failed = |q: NodeId| mask >> q.as_u64() & 1 == 1;
                    prop_assert_eq!(recover(&mut state, failed), reference.recover(failed));
                }
                Op::Plan { replication, failed, candidates } => {
                    let failed = |q: NodeId| failed >> q.as_u64() & 1 == 1;
                    let supply = || {
                        let mut it = candidates.clone().into_iter().map(NodeId::new);
                        move || it.next()
                    };
                    let planned =
                        plan_backups(&mut state, SELF, replication, failed, supply(), &mut scratch);
                    prop_assert_eq!(planned, reference.plan(replication, failed, supply()));
                }
            }
            check(&state, &reference)?;
        }
    }
}
