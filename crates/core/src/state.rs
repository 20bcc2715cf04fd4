//! A node's Polystyrene-local state (paper Table I).
//!
//! | variable  | paper definition                                           |
//! |-----------|------------------------------------------------------------|
//! | `guests`  | the data points currently hosted by the local node          |
//! | `pos`     | the node's virtual position                                  |
//! | `ghosts`  | inactivated data points replicated to this node, keyed by the node they came from |
//! | `backups` | the nodes where the local node has replicated its state      |
//!
//! The two custody maps, `ghosts` and `backups`, are [`RunTable`]s: one
//! id-sorted table of `(node, run length)` over one flat vector holding
//! every node's run back to back, so a node's replicas and backup
//! records cost four heap blocks however many peers they involve.

use crate::config::PolystyreneConfig;
use crate::datapoint::{dedup_by_id_in_place, DataPoint, PointId};
use polystyrene_membership::NodeId;
use polystyrene_space::MetricSpace;
use rand::Rng;
use std::vec::Drain;

/// Polystyrene state of one node, generic over the data-space point type.
///
/// # Example
///
/// ```
/// use polystyrene::prelude::*;
///
/// let origin = DataPoint::new(PointId::new(0), [2.0, 3.0]);
/// let state = PolyState::with_initial_point(origin);
/// assert_eq!(state.pos, [2.0, 3.0]);         // pos starts at the origin point
/// assert_eq!(state.guests.len(), 1);         // one guest: the origin point
/// assert!(state.ghosts.is_empty());          // no ghosts at start
/// assert!(state.backups.is_empty());         // no backups at start
/// ```
#[derive(Clone, Debug)]
pub struct PolyState<P> {
    /// Data points this node is the *primary holder* of.
    pub guests: Vec<DataPoint<P>>,
    /// The node's virtual position, as published to the topology layer.
    pub pos: P,
    /// Deactivated replicas received from other nodes, keyed by origin:
    /// the run of `q` is the last state `q` pushed here. A holder whose
    /// last push was empty keeps its (empty) entry.
    pub ghosts: RunTable<DataPoint<P>>,
    /// The nodes currently holding a replica of `guests`, each with the
    /// ids (sorted ascending) last pushed there — the record behind the
    /// incremental-delta traffic optimization of paper Sec. III-D. The
    /// delta walk is a linear merge against it, and an unchanged replica
    /// costs zero allocations to re-verify each round.
    pub backups: RunTable<PointId>,
}

impl<P: Clone> PolyState<P> {
    /// State of a founding node: hosts (only) its own original data point,
    /// and its position is that point ("guests only contains one data
    /// point: the node's initial position", paper Sec. III-A).
    pub fn with_initial_point(origin: DataPoint<P>) -> Self {
        Self {
            pos: origin.pos.clone(),
            guests: vec![origin],
            ghosts: RunTable::EMPTY,
            backups: RunTable::EMPTY,
        }
    }

    /// State of a freshly injected node: a position but **no** data points
    /// (paper Sec. IV-A Phase 3: nodes "containing no data point, but with
    /// their pos parameters initialized").
    pub fn empty_at(pos: P) -> Self {
        Self {
            pos,
            guests: Vec::new(),
            ghosts: RunTable::EMPTY,
            backups: RunTable::EMPTY,
        }
    }

    /// Ids of the hosted guests.
    pub fn guest_ids(&self) -> Vec<PointId> {
        self.guests.iter().map(|g| g.id).collect()
    }

    /// Total data points stored locally (guests + ghost copies) — the
    /// memory-overhead metric of paper Fig. 7a.
    pub fn stored_points(&self) -> usize {
        self.guests.len() + self.ghosts.items().len()
    }

    /// Adds guests, deduplicating by id against the existing set.
    pub fn absorb_guests(&mut self, incoming: Vec<DataPoint<P>>) {
        self.guests.extend(incoming);
        dedup_by_id_in_place(&mut self.guests);
    }

    /// Recomputes `pos` from the guests using the configured projection
    /// (Step 1 of paper Fig. 4). Empty-guest nodes keep their position.
    /// Returns `true` when the position was recomputed.
    pub fn project<S, R>(&mut self, space: &S, config: &PolystyreneConfig, rng: &mut R) -> bool
    where
        S: MetricSpace<Point = P>,
        R: Rng + ?Sized,
    {
        match config.projection.project(space, &self.guests, rng) {
            Some(pos) => {
                self.pos = pos;
                true
            }
            None => false,
        }
    }

    /// Records an incoming backup push: `from` replicated its guest set
    /// here (Step 2' of paper Fig. 4). The points are copied into
    /// `from`'s run, replacing what it pushed before, so the caller keeps
    /// the push buffer (a pooling driver recycles it).
    pub fn store_ghosts(&mut self, from: NodeId, points: &[DataPoint<P>]) {
        self.ghosts.set(from, points);
    }
}

/// Runs of `T` keyed by node id: a table of `(node, run length)` sorted
/// ascending by node over one vector holding the runs back to back in
/// that order. Iteration is by ascending node, each run in the order it
/// was set; a node with an empty run is still a key.
#[derive(Clone, Debug)]
pub struct RunTable<T> {
    keys: Vec<(NodeId, usize)>,
    items: Vec<T>,
}

impl<T> RunTable<T> {
    const EMPTY: Self = Self {
        keys: Vec::new(),
        items: Vec::new(),
    };

    /// Number of keys (empty runs included).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there is no key at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `key` has a run (possibly empty).
    pub fn contains(&self, key: NodeId) -> bool {
        self.keys.binary_search_by_key(&key, |&(k, _)| k).is_ok()
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.keys.iter().map(|&(key, _)| key)
    }

    /// Every run, back to back in key order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Every run, back to back in key order, for in-place edits.
    pub fn items_mut(&mut self) -> &mut [T] {
        &mut self.items
    }

    /// `(key, run)` pairs, ascending by key.
    pub fn runs(&self) -> impl Iterator<Item = (NodeId, &[T])> + '_ {
        let mut start = 0;
        self.keys.iter().map(move |&(key, len)| {
            start += len;
            (key, &self.items[start - len..start])
        })
    }

    /// Replaces `key`'s run with a copy of `run`, inserting the key if
    /// it is new.
    pub(crate) fn set(&mut self, key: NodeId, run: &[T])
    where
        T: Clone,
    {
        let (index, old_len) = match self.keys.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(index) => (index, std::mem::replace(&mut self.keys[index].1, run.len())),
            Err(index) => {
                self.keys.insert(index, (key, run.len()));
                (index, 0)
            }
        };
        let start: usize = self.keys[..index].iter().map(|&(_, len)| len).sum();
        self.items
            .splice(start..start + old_len, run.iter().cloned());
        self.release_slack();
    }

    /// Removes every key `doomed` flags, ascending, handing each one's
    /// run to `take` as it goes.
    pub(crate) fn remove_where(
        &mut self,
        mut doomed: impl FnMut(NodeId) -> bool,
        mut take: impl FnMut(NodeId, Drain<'_, T>),
    ) {
        let items = &mut self.items;
        let mut start = 0;
        self.keys.retain(|&(key, len)| {
            if doomed(key) {
                take(key, items.drain(start..start + len));
                false
            } else {
                start += len;
                true
            }
        });
        self.release_slack();
    }

    /// Gives back capacity beyond twice the length (plus four): what a
    /// drained spike leaves behind, such as a recovery burst replicated
    /// in full and then migrated away. The slack it tolerates keeps runs
    /// that breathe around one size from reallocating on every push.
    fn release_slack(&mut self) {
        if self.items.capacity() > 2 * self.items.len() + 4 {
            self.items.shrink_to(self.items.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dp(id: u64, x: f64, y: f64) -> DataPoint<[f64; 2]> {
        DataPoint::new(PointId::new(id), [x, y])
    }

    #[test]
    fn founding_node_invariants() {
        let s = PolyState::with_initial_point(dp(7, 1.0, 2.0));
        assert_eq!(s.pos, [1.0, 2.0]);
        assert_eq!(s.guest_ids(), vec![PointId::new(7)]);
        assert!(s.ghosts.is_empty());
        assert!(s.backups.is_empty());
        assert_eq!(s.stored_points(), 1);
    }

    #[test]
    fn injected_node_is_empty() {
        let s: PolyState<[f64; 2]> = PolyState::empty_at([3.0, 3.0]);
        assert!(s.guests.is_empty());
        assert_eq!(s.pos, [3.0, 3.0]);
        assert_eq!(s.stored_points(), 0);
    }

    #[test]
    fn absorb_guests_dedups() {
        let mut s = PolyState::with_initial_point(dp(1, 0.0, 0.0));
        s.absorb_guests(vec![dp(1, 9.0, 9.0), dp(2, 1.0, 1.0)]);
        assert_eq!(s.guests.len(), 2);
        // Existing copy of id 1 wins.
        assert_eq!(s.guests[0].pos, [0.0, 0.0]);
    }

    #[test]
    fn stored_points_counts_ghosts() {
        let mut s = PolyState::with_initial_point(dp(1, 0.0, 0.0));
        s.store_ghosts(NodeId::new(5), &[dp(10, 1.0, 1.0), dp(11, 2.0, 2.0)]);
        s.store_ghosts(NodeId::new(6), &[dp(12, 3.0, 3.0)]);
        assert_eq!(s.stored_points(), 4);
        // Re-push from the same origin replaces, not accumulates.
        s.store_ghosts(NodeId::new(5), &[dp(10, 1.0, 1.0)]);
        assert_eq!(s.stored_points(), 3);
    }

    #[test]
    fn empty_push_keeps_its_holder() {
        let mut s = PolyState::with_initial_point(dp(1, 0.0, 0.0));
        s.store_ghosts(NodeId::new(5), &[dp(10, 1.0, 1.0)]);
        // A holder whose guests all migrated away pushes an empty
        // replica: it stays a holder (and a heartbeat peer), with none
        // of its old points.
        s.store_ghosts(NodeId::new(5), &[]);
        assert!(!s.ghosts.is_empty());
        assert_eq!(s.ghosts.len(), 1);
        assert_eq!(s.ghosts.keys().collect::<Vec<_>>(), vec![NodeId::new(5)]);
        assert_eq!(s.stored_points(), 1);
    }

    #[test]
    fn project_updates_position_to_medoid() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PolystyreneConfig::default();
        let mut s = PolyState::with_initial_point(dp(1, 0.0, 0.0));
        s.absorb_guests(vec![dp(2, 1.0, 0.0), dp(3, 2.0, 0.0)]);
        assert!(s.project(&Euclidean2, &cfg, &mut rng));
        assert_eq!(s.pos, [1.0, 0.0]);
    }

    #[test]
    fn project_keeps_position_when_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PolystyreneConfig::default();
        let mut s: PolyState<[f64; 2]> = PolyState::empty_at([4.0, 4.0]);
        assert!(!s.project(&Euclidean2, &cfg, &mut rng));
        assert_eq!(s.pos, [4.0, 4.0]);
    }
}
