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
//!
//! # One population for both drivers
//!
//! Whatever the cycle engine and the event kernel do to their populations
//! alike is done here, once, so the two cannot drift and a fuzzer has one
//! join/kill surface to drive:
//!
//! * [`NodePool::found`] builds the paper's founding population (node
//!   `i` on shape point `i`, random RPS and T-Man contacts, Sec. IV-A);
//! * [`NodePool::join`] re-injects empty nodes (Phase 3) in two passes,
//!   so joiners never bootstrap each other;
//! * [`NodePool::drain_traffic`] sums the gateways' traffic counters;
//! * [`Gateways`] draws each query's entry node off the traffic stream
//!   and groups a round's queries into one batch per gateway.
//!
//! Each takes the driver's entropy stream as an argument and draws
//! exactly what the drivers drew before it moved here, in the same
//! order. What stays in a driver is what makes it a different execution
//! model: phase-by-phase activation and synchronous dispatch in the
//! engine, the calendar queue, lanes, fabrics and per-node streams in the
//! kernel.

use crate::config::ProtocolConfig;
use crate::node::ProtocolNode;
use crate::par;
use crate::scenario::sample_bootstrap_contacts;
use crate::wire::QueryItem;
use crate::TRAFFIC_SEED_TAG;
use polystyrene::prelude::{DataPoint, PointId, PolyState};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_space::MetricSpace;
use polystyrene_topology::TopologyConstruction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// T-Man contacts every node is given when it founds or joins the
/// population ("each physical node is initialized with 10 random
/// neighbors taken from the RPS layer", Sec. IV-A).
pub const TMAN_BOOTSTRAP: usize = 10;

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
    /// Next id to issue. Never wraps: [`NodeId::new`] panics, naming
    /// the `u32::MAX` bound, once the id space is spent.
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

    /// Founds the population of the paper's evaluation: node `i` stands
    /// on `shape[i]` and hosts data point `i`. Founders are built in id
    /// order, and each draws from `rng` distinct RPS contacts other than
    /// itself until it holds `min(rps_view_cap, n - 1)`, then makes
    /// [`TMAN_BOOTSTRAP`] T-Man draws with replacement, skipping (without
    /// a retry) any draw of itself. Returns the pool and the founding
    /// points, which are the target shape.
    pub fn found<R: Rng + ?Sized>(
        space: &S,
        shape: &[S::Point],
        protocol: ProtocolConfig,
        rng: &mut R,
    ) -> (Self, Vec<DataPoint<S::Point>>) {
        let points: Vec<DataPoint<S::Point>> = shape
            .iter()
            .enumerate()
            .map(|(i, p)| DataPoint::new(PointId::new(i as u64), p.clone()))
            .collect();
        let mut pool = Self::with_capacity(shape.len());
        for (i, origin) in points.iter().enumerate() {
            let (contacts, boot) = founder_contacts(i, shape, protocol.rps_view_cap, rng);
            let id = pool.insert_with(|id| {
                ProtocolNode::new(
                    id,
                    space.clone(),
                    protocol,
                    PolyState::with_initial_point(origin.clone()),
                    contacts,
                    boot,
                )
            });
            debug_assert_eq!(
                (id.index(), pool.slot_of(id)),
                (i, Some(i)),
                "founding ids and slots are positional"
            );
        }
        (pool, points)
    }

    /// Joins fresh, empty nodes at `positions` (the paper's Phase 3
    /// re-injection) in two passes. First every joiner's contacts are
    /// drawn from `rng`, joiner by joiner, against the alive list from
    /// before the join: `rps_view_cap` RPS and then [`TMAN_BOOTSTRAP`]
    /// T-Man contacts through [`sample_bootstrap_contacts`], at the
    /// subjects' current positions. So joiners never bootstrap each
    /// other. Then the joiners are inserted in order. Returns their ids,
    /// which are fresh and ascending even where a slot is recycled.
    pub fn join<R: Rng + ?Sized>(
        &mut self,
        space: &S,
        positions: &[S::Point],
        protocol: ProtocolConfig,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let seeds: Vec<_> = {
            let alive = self.alive_ids();
            let pos_of = |j: NodeId| self.get(j).map(|c| c.poly.pos.clone());
            positions
                .iter()
                .map(|_| {
                    (
                        sample_bootstrap_contacts(alive, &pos_of, protocol.rps_view_cap, rng),
                        sample_bootstrap_contacts(alive, &pos_of, TMAN_BOOTSTRAP, rng),
                    )
                })
                .collect()
        };
        positions
            .iter()
            .zip(seeds)
            .map(|(pos, (contacts, boot))| {
                self.insert_with(|id| {
                    ProtocolNode::new(
                        id,
                        space.clone(),
                        protocol,
                        PolyState::empty_at(pos.clone()),
                        contacts,
                        boot,
                    )
                })
            })
            .collect()
    }

    /// Drains every node's gateway-side traffic counters in slot order:
    /// appends the completion samples to `samples` and returns the summed
    /// `(offered, delivered, dropped)`.
    pub fn drain_traffic(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64) {
        self.slots
            .iter_mut()
            .flatten()
            .fold((0, 0, 0), |(offered, delivered, dropped), node| {
                let (o, d, x) = node.take_traffic(samples);
                (offered + o, delivered + d, dropped + x)
            })
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

    /// Mutable slot array, for batch passes that fan out over
    /// [`crate::par`] (recovery, position refresh). Liveness must not
    /// change through this view.
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
    /// to partition passes `|_, _| false`). Fans out over
    /// [`crate::par`]; the slab is the immutable snapshot, so the pass is
    /// deterministic in any split.
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
        par::sum_mut(slots, |cell| match cell.as_mut() {
            Some(node) => {
                let holder = node.id();
                node.tman.refresh_positions(|subject| {
                    lookup(subject).filter(|_| !blocked(holder, subject))
                }) as u64
            }
            None => 0,
        })
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

/// Founder `i`'s bootstrap contacts among the founders standing on
/// `shape`, as [`NodePool::found`] describes them. Returns
/// `(rps, tman)`.
fn founder_contacts<P: Clone, R: Rng + ?Sized>(
    i: usize,
    shape: &[P],
    rps_view_cap: usize,
    rng: &mut R,
) -> (Vec<Descriptor<P>>, Vec<Descriptor<P>>) {
    let n = shape.len();
    let contact = |j: usize| Descriptor::new(NodeId::new(j as u64), shape[j].clone());
    let mut rps: Vec<Descriptor<P>> = Vec::new();
    while rps.len() < rps_view_cap.min(n - 1) {
        let j = rng.random_range(0..n);
        if j != i && !rps.iter().any(|d| d.id.index() == j) {
            rps.push(contact(j));
        }
    }
    let mut tman = Vec::new();
    for _ in 0..TMAN_BOOTSTRAP {
        let j = rng.random_range(0..n);
        if j != i {
            tman.push(contact(j));
        }
    }
    (rps, tman)
}

/// Where the traffic plane's queries enter the population. It holds
/// the gateway-draw stream, seeded `seed ^ TRAFFIC_SEED_TAG` so that
/// offering load never advances a protocol stream, and the query-id
/// counter.
pub struct Gateways {
    rng: StdRng,
    next_qid: u64,
    /// `(gateway, qid, key index)` of the grouped offer, sorted; the
    /// entries from `handed_out` on have not been batched yet.
    grouped: Vec<(NodeId, u64, usize)>,
    handed_out: usize,
}

impl Gateways {
    /// Fresh query entry for a driver seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ TRAFFIC_SEED_TAG),
            next_qid: 0,
            grouped: Vec::new(),
            handed_out: 0,
        }
    }

    /// Draws one query's gateway uniformly from `alive` and issues its
    /// qid. `None`, and no draw, when nobody is alive.
    pub fn draw(&mut self, alive: &[NodeId]) -> Option<(NodeId, u64)> {
        if alive.is_empty() {
            return None;
        }
        let gateway = alive[self.rng.random_range(0..alive.len())];
        self.next_qid += 1;
        Some((gateway, self.next_qid))
    }

    /// Draws the gateways of `keys` queries in key order, which is the
    /// stream and qid sequence of calling [`Self::draw`] once per key,
    /// and groups them by gateway for [`Self::next_batch`].
    pub fn group(&mut self, alive: &[NodeId], keys: usize) {
        self.grouped.clear();
        self.handed_out = 0;
        for idx in 0..keys {
            let Some((gateway, qid)) = self.draw(alive) else {
                return;
            };
            self.grouped.push((gateway, qid, idx));
        }
        self.grouped.sort_unstable();
    }

    /// The next gateway of the grouped offer, in ascending gateway order,
    /// with its queries for a [`crate::Wire::QueryBatch`]: qids ascending,
    /// pushed into the buffer `take(count)` returns. `None` once every
    /// gateway has had its batch.
    pub fn next_batch<P: Clone>(
        &mut self,
        keys: &[P],
        ttl: u32,
        take: impl FnOnce(usize) -> Vec<QueryItem<P>>,
    ) -> Option<(NodeId, Vec<QueryItem<P>>)> {
        let rest = &self.grouped[self.handed_out..];
        let gateway = rest.first()?.0;
        let count = rest.iter().take_while(|e| e.0 == gateway).count();
        let mut queries = take(count);
        for &(_, qid, idx) in &rest[..count] {
            queries.push(QueryItem {
                qid,
                origin: gateway,
                key: keys[idx].clone(),
                ttl,
                hops: 0,
            });
        }
        self.handed_out += count;
        Some((gateway, queries))
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

    fn founded(cols: usize, rows: usize, seed: u64) -> NodePool<Torus2> {
        let space = Torus2::new(cols as f64, rows as f64);
        let shape = polystyrene_space::shapes::torus_grid(cols, rows, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (pool, points) = NodePool::found(&space, &shape, ProtocolConfig::default(), &mut rng);
        assert_eq!(points.len(), shape.len());
        pool
    }

    /// Every id named in `id`'s RPS and T-Man views.
    fn known_by(pool: &NodePool<Torus2>, id: NodeId) -> Vec<NodeId> {
        let node = pool.get(id).expect("alive");
        let mut known = node.rps.view().ids();
        known.extend(node.tman.view_entries().iter().map(|d| d.id));
        known
    }

    #[test]
    fn founders_hold_distinct_rps_contacts_other_than_themselves() {
        let cap = ProtocolConfig::default().rps_view_cap;
        // Fewer founders than the cap, exactly one more, and many more.
        for (cols, rows) in [(1, 1), (4, 2), (7, 3), (8, 8)] {
            let pool = founded(cols, rows, 3);
            let n = cols * rows;
            for &id in pool.alive_ids() {
                let mut rps = pool.get(id).expect("alive").rps.view().ids();
                assert_eq!(rps.len(), cap.min(n - 1), "{n} founders: {id}");
                assert!(!rps.contains(&id), "{id} knows itself");
                rps.sort();
                rps.dedup();
                assert_eq!(rps.len(), cap.min(n - 1), "{id}: duplicates");
            }
        }
    }

    #[test]
    fn tman_bootstrap_draws_skip_the_node_itself() {
        // Among three founders a third of the draws hit the founder
        // itself, so some are skipped: fewer than TMAN_BOOTSTRAP remain.
        let shape = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]];
        let mut rng = StdRng::seed_from_u64(5);
        let mut skipped = 0;
        for i in 0..3 {
            let (_, tman) = founder_contacts(i, &shape, 20, &mut rng);
            assert!(tman.iter().all(|d| d.id.index() != i), "founder {i}");
            skipped += TMAN_BOOTSTRAP - tman.len();
        }
        assert!(skipped > 0, "no draw of a founder itself in 30");
    }

    #[test]
    fn joiners_never_bootstrap_each_other() {
        let mut pool = founded(4, 4, 1);
        for raw in [2, 5, 11] {
            pool.remove(NodeId::new(raw));
        }
        let before = pool.alive_ids().to_vec();
        let joiners = pool.join(
            &Torus2::new(4.0, 4.0),
            &polystyrene_space::shapes::torus_grid_offset(4, 2, 1.0),
            ProtocolConfig::default(),
            &mut StdRng::seed_from_u64(4),
        );
        assert_eq!(joiners.len(), 8);
        for &id in &joiners {
            let known = known_by(&pool, id);
            assert!(!known.is_empty(), "{id} joined knowing nobody");
            assert!(
                known.iter().all(|k| before.contains(k)),
                "{id} names {known:?}, not only nodes alive before the join"
            );
            let node = pool.get(id).expect("alive");
            assert!(node.poly.guests.is_empty(), "joiners hold no point");
        }
    }

    #[test]
    fn joins_into_recycled_slots_get_fresh_ascending_ids() {
        let mut pool = founded(4, 2, 6);
        for raw in [1, 6, 3] {
            pool.remove(NodeId::new(raw));
        }
        let freed: Vec<usize> = vec![3, 6, 1];
        let joiners = pool.join(
            &Torus2::new(4.0, 2.0),
            &[[0.5, 0.5], [1.5, 0.5], [2.5, 0.5], [3.5, 0.5], [0.5, 1.5]],
            ProtocolConfig::default(),
            &mut StdRng::seed_from_u64(8),
        );
        assert_eq!(joiners, (8..13).map(NodeId::new).collect::<Vec<_>>());
        let slots: Vec<usize> = joiners
            .iter()
            .map(|&id| pool.slot_of(id).unwrap())
            .collect();
        assert_eq!(slots[..3], freed[..], "freed slots recycled LIFO");
        assert_eq!(slots[3..], [8, 9], "then fresh slots");
        assert_eq!(pool.slot_count(), 10);
        assert_eq!(pool.alive_ids().last(), Some(&NodeId::new(12)));
    }

    #[test]
    fn gateways_batch_once_per_gateway_in_the_draw_sequence() {
        let alive: Vec<NodeId> = [1, 4, 6, 9, 13].map(NodeId::new).to_vec();
        let keys: Vec<[f64; 2]> = (0..40).map(|i| [f64::from(i), 0.0]).collect();
        let mut grouped = Gateways::new(11);
        grouped.group(&alive, keys.len());
        let mut batches = Vec::new();
        while let Some(batch) = grouped.next_batch(&keys, 8, Vec::with_capacity) {
            batches.push(batch);
        }
        assert!(
            batches.windows(2).all(|w| w[0].0 < w[1].0),
            "one batch per gateway, in gateway order"
        );
        let mut issued = Vec::new();
        for (gateway, queries) in &batches {
            assert!(queries.windows(2).all(|w| w[0].qid < w[1].qid));
            for q in queries {
                assert_eq!((q.origin, q.ttl, q.hops), (*gateway, 8, 0));
                assert_eq!(q.key, keys[q.qid as usize - 1], "qids follow key order");
                issued.push((q.qid, *gateway));
            }
        }
        issued.sort_unstable();
        let mut one_by_one = Gateways::new(11);
        let drawn: Vec<(u64, NodeId)> = keys
            .iter()
            .map(|_| one_by_one.draw(&alive).map(|(g, qid)| (qid, g)).unwrap())
            .collect();
        assert_eq!(issued, drawn);
        assert!(batches.len() > 1 && batches.len() <= alive.len());

        // Nobody alive: nothing drawn, nothing batched, the stream untouched.
        assert_eq!(grouped.draw(&[]), None);
        grouped.group(&[], 5);
        assert!(grouped.next_batch(&keys, 8, Vec::with_capacity).is_none());
        assert_eq!(grouped.draw(&alive), one_by_one.draw(&alive));
    }
}
