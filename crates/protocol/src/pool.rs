//! Dense node storage shared by the deterministic substrates: a slot
//! pool with a free list, generation ids, and a struct-of-arrays
//! position slab.
//!
//! Both the cycle engine and the discrete-event kernel used to hold
//! their populations as a `Vec<Option<ProtocolNode>>` indexed by node
//! id. Ids are monotonic and never reused, so under churn the vector
//! only ever grew: every activation-order scan, liveness test, and
//! position snapshot walked a prefix of dead `None` slots proportional
//! to *all nodes that ever existed*, not to the population actually
//! alive. A long-running churn scenario degraded linearly with its own
//! history. The pool lives here — next to [`crate::node::ProtocolNode`]
//! — so every driver (the engine in `polystyrene-sim`, the kernel in
//! `polystyrene-netsim`) stores the one protocol stack the same way.
//!
//! [`NodePool`] splits identity from storage:
//!
//! ```text
//!   id_to_slot: [ id → (slot, gen) ]        one entry per id ever issued
//!                       │
//!                       ▼
//!   slots:      [ node | node | ─── | node ]   dense, recycled via free list
//!   positions:  [ pos  | pos  | pos | pos  ]   slab mirror of poly.pos
//!   slot_gen:   [  3   |  1   |  2  |  1   ]   bumped on every free
//!   free:       [ 2 ]                          LIFO recycle order
//!   alive:      [ id₃ < id₇ < id₉ … ]          sorted, maintained incrementally
//! ```
//!
//! * **Slots are recycled.** A kill pushes its slot on the free list; the
//!   next join pops it. Storage is bounded by the peak population, not by
//!   cumulative churn.
//! * **Generations prevent resurrection.** Every free bumps the slot's
//!   generation; a [`SlotRef`] taken before the kill can never pass the
//!   generation check afterwards, so a recycled slot cannot alias its
//!   previous occupant. Ids themselves are never reused — the generation
//!   guards the *slot* indirection, not the id.
//! * **Positions live in a slab.** The per-round position snapshot the
//!   engine took as a fresh `Vec<Option<Point>>` (id-indexed, holes and
//!   all) becomes [`NodePool::sync_positions`] into a persistent
//!   slot-indexed slab — no allocation, no dead-id holes, and the
//!   measurement pass reads coordinates off a dense array instead of
//!   chasing into each node.
//! * **The alive list is incremental.** Ids are issued monotonically, so
//!   a join appends in sorted position and a kill binary-searches out;
//!   the engine's activation order (sorted alive ids, then one shuffle)
//!   no longer rescans the whole slot vector once per phase.
//!
//! The nodes themselves stay whole `ProtocolNode` values inside the slot
//! array: their gossip views and point sets are live protocol state with
//! per-node dynamic sizes, shared by all four substrates, and hoisting
//! them into per-field slabs would change struct layout the golden
//! histories do not observe but every substrate driver touches. The pool
//! deliberately slabs what the *engine* reads in bulk — coordinates and
//! liveness — and leaves protocol-private state where the protocol owns
//! it. Iteration order, id assignment, and position values are all exactly
//! those of the boxed layout, which is what keeps the golden-history
//! fingerprints byte-identical across the swap.

use crate::node::ProtocolNode;
use polystyrene_membership::NodeId;
use polystyrene_space::MetricSpace;
use polystyrene_topology::TopologyConstruction;
use rayon::prelude::*;

/// A generation-stamped slot handle. Valid only while the slot's current
/// generation matches; any kill of the occupant invalidates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotRef {
    /// Index into the slot arrays.
    pub slot: u32,
    /// Generation the slot had when this handle was taken.
    pub gen: u32,
}

/// Dense, churn-stable storage for the engine's population. See the
/// module docs for the layout.
pub struct NodePool<S: MetricSpace> {
    /// Node storage, recycled through `free`. `None` only for freed slots.
    slots: Vec<Option<ProtocolNode<S>>>,
    /// Slot-indexed mirror of each occupant's `poly.pos`, refreshed by
    /// [`Self::sync_positions`]. Freed slots keep their stale last value;
    /// nothing reads a position except through a generation-checked id.
    positions: Vec<S::Point>,
    /// Current generation of each slot; bumped when the slot is freed.
    slot_gen: Vec<u32>,
    /// Freed slots, recycled LIFO.
    free: Vec<u32>,
    /// id → current slot handle; `None` once the id's node died. Indexed
    /// by `NodeId::index()`, one entry per id ever issued.
    id_to_slot: Vec<Option<SlotRef>>,
    /// Alive ids, sorted ascending (ids are issued monotonically, so a
    /// join is always a push).
    alive: Vec<NodeId>,
    /// Next id to issue.
    next_id: u64,
}

impl<S: MetricSpace> Default for NodePool<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: MetricSpace> NodePool<S> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            positions: Vec::new(),
            slot_gen: Vec::new(),
            free: Vec::new(),
            id_to_slot: Vec::new(),
            alive: Vec::new(),
            next_id: 0,
        }
    }

    /// An empty pool with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            positions: Vec::with_capacity(n),
            slot_gen: Vec::with_capacity(n),
            free: Vec::new(),
            id_to_slot: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            next_id: 0,
        }
    }

    /// The id the next [`Self::insert_with`] will issue. Monotonic; never
    /// reused, matching the append-only id assignment of the boxed
    /// layout.
    pub fn peek_next_id(&self) -> NodeId {
        NodeId::new(self.next_id)
    }

    /// Issues the next id, builds the node with it, and stores it in a
    /// recycled (or fresh) slot. Returns the id.
    pub fn insert_with(&mut self, make: impl FnOnce(NodeId) -> ProtocolNode<S>) -> NodeId {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let node = make(id);
        let pos = node.poly.pos.clone();
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                debug_assert!(self.slots[s].is_none(), "free list held an occupied slot");
                self.slots[s] = Some(node);
                self.positions[s] = pos;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(node));
                self.positions.push(pos);
                self.slot_gen.push(0);
                slot
            }
        };
        debug_assert_eq!(self.id_to_slot.len(), id.index());
        self.id_to_slot.push(Some(SlotRef {
            slot,
            gen: self.slot_gen[slot as usize],
        }));
        // Ids are monotonic: the new id sorts after everything alive.
        self.alive.push(id);
        id
    }

    /// Removes `id`'s node, frees its slot (bumping the generation so any
    /// outstanding [`SlotRef`] dies with it), and returns the node.
    /// `None` if the id was never issued or already dead.
    pub fn remove(&mut self, id: NodeId) -> Option<ProtocolNode<S>> {
        let handle = self.id_to_slot.get_mut(id.index())?.take()?;
        let s = handle.slot as usize;
        debug_assert_eq!(self.slot_gen[s], handle.gen, "live handle out of date");
        let node = self.slots[s].take();
        debug_assert!(node.is_some(), "id_to_slot pointed at an empty slot");
        self.slot_gen[s] = self.slot_gen[s].wrapping_add(1);
        self.free.push(handle.slot);
        if let Ok(at) = self.alive.binary_search(&id) {
            self.alive.remove(at);
        }
        node
    }

    /// Whether `id` is alive.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some()
    }

    /// The current slot of `id`, if alive (generation-checked).
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        let handle = self.id_to_slot.get(id.index())?.as_ref()?;
        let s = handle.slot as usize;
        (self.slot_gen[s] == handle.gen).then_some(s)
    }

    /// The current slot handle of `id`, if alive (tests and diagnostics).
    pub fn slot_ref(&self, id: NodeId) -> Option<SlotRef> {
        let handle = (*self.id_to_slot.get(id.index())?)?;
        (self.slot_gen[handle.slot as usize] == handle.gen).then_some(handle)
    }

    /// Shared access to `id`'s node, if alive.
    pub fn get(&self, id: NodeId) -> Option<&ProtocolNode<S>> {
        self.slots[self.slot_of(id)?].as_ref()
    }

    /// Mutable access to `id`'s node, if alive.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut ProtocolNode<S>> {
        let s = self.slot_of(id)?;
        self.slots[s].as_mut()
    }

    /// Alive ids, sorted ascending.
    pub fn alive_ids(&self) -> &[NodeId] {
        &self.alive
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// Total slots currently allocated (alive + free): the peak
    /// population, not cumulative churn.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot array. Freed slots are `None`; occupied slots must not be
    /// vacated through this view (use [`Self::remove`], which maintains
    /// the free list and generations).
    pub fn slots(&self) -> &[Option<ProtocolNode<S>>] {
        &self.slots
    }

    /// Mutable slot array, for batch passes that fan out with rayon
    /// (recovery, position refresh). Liveness must not change through
    /// this view.
    pub fn slots_mut(&mut self) -> &mut [Option<ProtocolNode<S>>] {
        &mut self.slots
    }

    /// The position slab, slot-indexed. Valid for occupied slots as of
    /// the last [`Self::sync_positions`] (inserts write their slot
    /// eagerly); freed slots hold stale values.
    pub fn positions(&self) -> &[S::Point] {
        &self.positions
    }

    /// `id`'s position off the slab, if alive — the bulk-read companion
    /// of the engine's live `position_of`.
    pub fn position(&self, id: NodeId) -> Option<&S::Point> {
        Some(&self.positions[self.slot_of(id)?])
    }

    /// Mirrors every occupant's current `poly.pos` into the slab — the
    /// first half of [`Self::refresh_view_positions`], which the drivers
    /// run once per round after the last thing that moves nodes.
    pub fn sync_positions(&mut self) {
        for (slot, cell) in self.slots.iter().enumerate() {
            if let Some(node) = cell {
                self.positions[slot] = node.poly.pos.clone();
            }
        }
    }

    /// The paper's per-round position refresh ("T-Man must update their
    /// positions in its view in each round", Sec. IV-B), as one batch
    /// pass shared by every deterministic driver: brings the slab up to
    /// date ([`Self::sync_positions`]), then rewrites each T-Man view
    /// entry to its subject's slab position and resets its age. Returns
    /// the number of entries whose position changed — what the driver
    /// charges, one descriptor each.
    ///
    /// An entry is left untouched — old position, still ageing — when
    /// its subject is dead, or when `blocked(holder, subject)` says the
    /// fabric currently separates the two (a driver without a network
    /// to partition passes `|_, _| false`). Fans out with rayon; the
    /// slab is the immutable snapshot, so the pass is deterministic in
    /// any split.
    pub fn refresh_view_positions(
        &mut self,
        blocked: impl Fn(NodeId, NodeId) -> bool + Sync,
    ) -> u64 {
        self.sync_positions();
        let Self {
            slots,
            positions,
            slot_gen,
            id_to_slot,
            ..
        } = self;
        let positions: &[S::Point] = positions;
        let slot_gen: &[u32] = slot_gen;
        let id_to_slot: &[Option<SlotRef>] = id_to_slot;
        let lookup = move |id: NodeId| -> Option<&S::Point> {
            let handle = (*id_to_slot.get(id.index())?)?;
            let s = handle.slot as usize;
            (slot_gen[s] == handle.gen).then(|| &positions[s])
        };
        slots
            .par_iter_mut()
            .map(|cell| match cell.as_mut() {
                Some(node) => {
                    let holder = node.id();
                    node.tman.refresh_positions(|subject| {
                        lookup(subject).filter(|_| !blocked(holder, subject))
                    }) as u64
                }
                None => 0,
            })
            .sum()
    }

    /// Ground-truth audit of the T-Man views: `(stale, total)` over every
    /// view entry whose subject is alive, `stale` counting those whose
    /// recorded position differs from the subject's current `poly.pos`.
    /// Entries naming dead subjects are in neither count (nothing can
    /// refresh them; they age out). A diagnostic for tests and examples,
    /// not a per-round metric: it walks as much as the refresh itself.
    pub fn stale_view_entries(&self) -> (u64, u64) {
        let (mut stale, mut total) = (0, 0);
        for node in self.slots.iter().flatten() {
            for entry in node.tman.view_entries() {
                if let Some(subject) = self.get(entry.id) {
                    total += 1;
                    stale += u64::from(subject.poly.pos != entry.pos);
                }
            }
        }
        (stale, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use polystyrene::prelude::{DataPoint, PointId, PolyState};
    use polystyrene_membership::Descriptor;
    use polystyrene_space::prelude::Torus2;

    fn mk(pool: &mut NodePool<Torus2>, x: f64) -> NodeId {
        mk_knowing(pool, x, Vec::new())
    }

    /// A node at `[x, 0]` whose T-Man view starts out holding `view`.
    fn mk_knowing(pool: &mut NodePool<Torus2>, x: f64, view: Vec<Descriptor<[f64; 2]>>) -> NodeId {
        pool.insert_with(|id| {
            ProtocolNode::new(
                id,
                Torus2::new(16.0, 16.0),
                ProtocolConfig::default(),
                PolyState::with_initial_point(DataPoint::new(PointId::new(id.as_u64()), [x, 0.0])),
                Vec::new(),
                view,
            )
        })
    }

    #[test]
    fn ids_are_monotonic_and_slots_recycle() {
        let mut pool: NodePool<Torus2> = NodePool::new();
        let a = mk(&mut pool, 1.0);
        let b = mk(&mut pool, 2.0);
        let c = mk(&mut pool, 3.0);
        assert_eq!((a.as_u64(), b.as_u64(), c.as_u64()), (0, 1, 2));
        assert_eq!(pool.slot_count(), 3);

        let b_ref = pool.slot_ref(b).unwrap();
        assert!(pool.remove(b).is_some());
        assert!(pool.remove(b).is_none(), "double kill is a no-op");
        assert_eq!(pool.alive_count(), 2);

        // The join reuses b's slot under a fresh id and generation.
        let d = mk(&mut pool, 4.0);
        assert_eq!(d.as_u64(), 3, "ids never recycle");
        assert_eq!(pool.slot_count(), 3, "storage stays at peak population");
        let d_ref = pool.slot_ref(d).unwrap();
        assert_eq!(d_ref.slot, b_ref.slot, "slot recycled LIFO");
        assert!(d_ref.gen > b_ref.gen, "generation bumped on free");

        // The dead id cannot reach the recycled slot's new occupant.
        assert!(pool.get(b).is_none());
        assert!(pool.position(b).is_none());
        assert_eq!(pool.get(d).unwrap().id(), d);
    }

    #[test]
    fn alive_ids_stay_sorted_through_churn() {
        let mut pool: NodePool<Torus2> = NodePool::new();
        let ids: Vec<NodeId> = (0..8).map(|i| mk(&mut pool, i as f64)).collect();
        pool.remove(ids[3]);
        pool.remove(ids[0]);
        let e = mk(&mut pool, 9.0);
        let alive = pool.alive_ids();
        assert!(alive.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        assert_eq!(alive.last(), Some(&e));
        assert_eq!(alive.len(), 7);
    }

    #[test]
    fn position_slab_tracks_sync() {
        let mut pool: NodePool<Torus2> = NodePool::new();
        let a = mk(&mut pool, 1.0);
        assert_eq!(pool.position(a), Some(&[1.0, 0.0]), "insert seeds the slab");
        pool.get_mut(a).unwrap().poly.pos = [5.0, 5.0];
        assert_eq!(
            pool.position(a),
            Some(&[1.0, 0.0]),
            "slab is a snapshot, not a live view"
        );
        pool.sync_positions();
        assert_eq!(pool.position(a), Some(&[5.0, 5.0]));
    }

    #[test]
    fn view_refresh_skips_dead_and_blocked_subjects() {
        let mut pool: NodePool<Torus2> = NodePool::new();
        let ids: Vec<NodeId> = (1..=3).map(|x| mk(&mut pool, x as f64)).collect();
        let view = ids
            .iter()
            .map(|&id| Descriptor::new(id, *pool.position(id).unwrap()))
            .collect();
        let holder = mk_knowing(&mut pool, 0.0, view);
        assert_eq!(pool.stale_view_entries(), (0, 3));

        for &id in &ids {
            pool.get_mut(id).unwrap().poly.pos[1] = 5.0;
        }
        pool.remove(ids[2]);
        assert_eq!(
            pool.stale_view_entries(),
            (2, 2),
            "dead subjects not counted"
        );
        let cut = ids[1];
        let changed = pool.refresh_view_positions(|from, to| from == holder && to == cut);
        assert_eq!(changed, 1, "one subject dead, one behind the cut");
        assert_eq!(pool.stale_view_entries(), (1, 2));
        let entry = |pool: &NodePool<Torus2>, id| {
            let view = pool.get(holder).unwrap().tman.view_entries();
            view.iter().find(|e| e.id == id).unwrap().pos
        };
        assert_eq!(entry(&pool, ids[0]), [1.0, 5.0]);
        assert_eq!(entry(&pool, cut), [2.0, 0.0], "blocked: old position kept");
        assert_eq!(entry(&pool, ids[2]), [3.0, 0.0], "dead: untouched");

        assert_eq!(pool.refresh_view_positions(|_, _| false), 1);
        assert_eq!(pool.stale_view_entries(), (0, 2));
    }
}
