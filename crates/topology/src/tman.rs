//! T-Man — the topology-construction protocol of the paper's evaluation.
//!
//! T-Man (Jelasity et al., Comp. Netw. 2009 — the paper's reference \[1\])
//! greedily self-organizes nodes towards a target topology: each round a
//! node picks a gossip partner among its ψ closest neighbors, the two
//! exchange their `m` most relevant descriptors (ranked by distance to the
//! *recipient's* position), and each keeps the closest entries up to a view
//! cap. The paper runs it with `m = 20`, `ψ = 5` and views "capped to 100
//! peers (rather than being unbounded as in \[1\])" (Sec. IV-A).

use crate::rank::{for_closest_ranked, merge_ranked, rank_in_place};
use crate::traits::TopologyConstruction;
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_space::MetricSpace;
use rand::Rng;

/// T-Man protocol parameters.
///
/// The defaults are the paper's evaluation settings (Sec. IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TManConfig {
    /// Maximum number of descriptors kept in the view (paper: 100).
    pub view_cap: usize,
    /// Number of descriptors per gossip message (paper: m = 20).
    pub m: usize,
    /// Partner selected uniformly among the ψ closest neighbors
    /// (paper: ψ = 5).
    pub psi: usize,
}

impl Default for TManConfig {
    fn default() -> Self {
        Self {
            view_cap: 100,
            m: 20,
            psi: 5,
        }
    }
}

impl TManConfig {
    /// Validates parameter sanity; called by [`TMan::new`].
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn validate(&self) {
        assert!(self.view_cap > 0, "view_cap must be positive");
        assert!(self.m > 0, "m (profiles per message) must be positive");
        assert!(self.psi > 0, "psi (peer-selection width) must be positive");
    }
}

/// T-Man protocol state of one node.
///
/// The node's own position is owned by the layer above: Polystyrene
/// moves nodes around, so the position is passed into every operation
/// (paper Fig. 3: "Node position" flows downward).
///
/// **The view is kept in rank order.** Once a position has been passed
/// to [`TopologyConstruction::integrate`], the view is sorted for it the
/// way every ranking kernel orders entries — squared distance, ties by
/// id — and `TMan` remembers that position. Every operation keeps the
/// order: a merge places only the entries it changes, a refresh that
/// moved an entry re-ranks the view, and a merge for a new position
/// re-ranks first. So the reads ([`TMan::select_partner`],
/// [`TMan::closest`], [`TMan::closest_ids_into`], [`TMan::for_closest`]
/// and the partner-targeted [`TMan::prepare_message`]) return exactly
/// what a full ranking of the view would without one: prefixes when
/// asked about that position, and for any other position a scan of the
/// ranked view that stops where the triangle inequality rules out every
/// later entry (the node has moved since its last merge, or the read is
/// for the gossip partner).
///
/// [`TMan::select_partner`]: TopologyConstruction::select_partner
/// [`TMan::closest`]: TopologyConstruction::closest
///
/// # Example
///
/// ```
/// use polystyrene_space::prelude::*;
/// use polystyrene_membership::{Descriptor, NodeId};
/// use polystyrene_topology::{TMan, TManConfig, TopologyConstruction};
///
/// let mut tman = TMan::new(Euclidean2, TManConfig { view_cap: 4, m: 2, psi: 2 });
/// tman.integrate(NodeId::new(0), &[0.0, 0.0], &[
///     Descriptor::new(NodeId::new(1), [1.0, 0.0]),
///     Descriptor::new(NodeId::new(2), [2.0, 0.0]),
///     Descriptor::new(NodeId::new(3), [3.0, 0.0]),
/// ]);
/// assert_eq!(tman.view_len(), 3);
/// assert_eq!(tman.closest(&[0.0, 0.0], 1)[0].id, NodeId::new(1));
/// ```
#[derive(Clone, Debug)]
pub struct TMan<S: MetricSpace> {
    space: S,
    config: TManConfig,
    view: Vec<Descriptor<S::Point>>,
    /// The position the view is held in rank order for; `None` until the
    /// first merge.
    ranked_for: Option<S::Point>,
}

impl<S: MetricSpace> TMan<S> {
    /// Creates an empty T-Man instance.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`TManConfig::validate`].
    pub fn new(space: S, config: TManConfig) -> Self {
        config.validate();
        Self {
            space,
            config,
            view: Vec::new(),
            ranked_for: None,
        }
    }

    /// The protocol parameters.
    pub fn config(&self) -> &TManConfig {
        &self.config
    }

    /// The metric space this instance ranks within.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// Descriptors the view's allocation has room for: zero before the
    /// first [`TopologyConstruction::integrate`], `view_cap` ever after.
    /// A footprint diagnostic for tests, not protocol state.
    #[doc(hidden)]
    pub fn view_capacity(&self) -> usize {
        self.view.capacity()
    }

    /// Refreshes the positions of view entries from `lookup` (current
    /// position of a node, or `None` if unknown/dead), returning how many
    /// entries actually changed position.
    ///
    /// Polystyrene nodes *move* every round, so without this step the view
    /// ranks neighbors by stale coordinates. The paper accounts for it
    /// explicitly: "Because nodes move, T-Man must update their positions
    /// in its view in each round, causing most of the traffic"
    /// (Sec. IV-B) — the driver charges one descriptor per changed entry.
    /// `lookup` borrows the current position out of the driver's position
    /// slab (or returns `None` if unknown/dead), so a full refresh pass
    /// clones a position only for the entries that actually moved, and
    /// only a view with a moved entry is re-ranked.
    pub fn refresh_positions<'a>(
        &mut self,
        mut lookup: impl FnMut(NodeId) -> Option<&'a S::Point>,
    ) -> usize
    where
        S::Point: 'a,
    {
        let mut changed = 0;
        for entry in &mut self.view {
            if let Some(current) = lookup(entry.id) {
                if *current != entry.pos {
                    entry.pos = current.clone();
                    changed += 1;
                }
                entry.age = 0;
            }
        }
        if changed > 0 {
            if let Some(pos) = &self.ranked_for {
                rank_in_place(&self.space, pos, &mut self.view);
            }
        }
        changed
    }

    /// Builds the gossip buffer for a partner located at `target_pos`: the
    /// sender's own fresh descriptor plus the view entries most relevant to
    /// the recipient, `m` descriptors in total.
    pub fn prepare_message(
        &self,
        self_descriptor: Descriptor<S::Point>,
        target_pos: &S::Point,
    ) -> Vec<Descriptor<S::Point>> {
        let mut buffer = Vec::new();
        self.prepare_message_into(self_descriptor, target_pos, &mut buffer);
        buffer
    }

    /// [`TMan::prepare_message`] appending into a caller-owned (typically
    /// pooled) buffer.
    pub fn prepare_message_into(
        &self,
        self_descriptor: Descriptor<S::Point>,
        target_pos: &S::Point,
        buffer: &mut Vec<Descriptor<S::Point>>,
    ) {
        let k = self.config.m.saturating_sub(1);
        buffer.reserve(k.min(self.view.len()));
        self.for_closest(target_pos, k, |d| buffer.push(d.clone()));
        buffer.push(self_descriptor);
    }

    /// Appends the ids of the `k` view entries closest to `pos` into
    /// `out` — the clone-free twin of [`TopologyConstruction::closest`] for
    /// callers that only need identities.
    pub fn closest_ids_into(&self, pos: &S::Point, k: usize, out: &mut Vec<NodeId>) {
        out.reserve(k.min(self.view.len()));
        self.for_closest(pos, k, |d| out.push(d.id));
    }

    /// Visits the `k` view entries closest to `pos` in distance order
    /// without cloning them.
    pub fn for_closest(&self, pos: &S::Point, k: usize, visit: impl FnMut(&Descriptor<S::Point>)) {
        // A view not yet ranked for anything is empty: any pivot will do.
        let pivot = self.ranked_for.as_ref().unwrap_or(pos);
        for_closest_ranked(&self.space, pivot, &self.view, pos, k, visit);
    }
}

impl<S: MetricSpace> TopologyConstruction<S> for TMan<S> {
    fn begin_round(&mut self) {
        for d in &mut self.view {
            d.age = d.age.saturating_add(1);
        }
    }

    fn closest(&self, pos: &S::Point, k: usize) -> Vec<Descriptor<S::Point>> {
        let mut out = Vec::with_capacity(k.min(self.view.len()));
        self.for_closest(pos, k, |d| out.push(d.clone()));
        out
    }

    fn select_partner<R: Rng + ?Sized>(&self, pos: &S::Point, rng: &mut R) -> Option<NodeId> {
        // One draw among the ψ closest, then a read down to that rank.
        let candidates = self.config.psi.min(self.view.len());
        if candidates == 0 {
            return None;
        }
        let rank = rng.random_range(0..candidates);
        let mut partner = None;
        self.for_closest(pos, rank + 1, |d| partner = Some(d.id));
        partner
    }

    fn integrate(&mut self, self_id: NodeId, pos: &S::Point, incoming: &[Descriptor<S::Point>]) {
        let cap = self.config.view_cap;
        // The view's one allocation, sized by the protocol: every write
        // below keeps the view deduplicated and within `cap`, so it never
        // grows again, and this is a no-op from the second call on.
        self.view.reserve_exact(cap.saturating_sub(self.view.len()));
        if self.ranked_for.as_ref() != Some(pos) {
            rank_in_place(&self.space, pos, &mut self.view);
            self.ranked_for = Some(pos.clone());
        }
        merge_ranked(&self.space, pos, self_id, &mut self.view, cap, incoming);
    }

    fn purge_failed(&mut self, is_failed: &dyn Fn(NodeId) -> bool) -> usize {
        let before = self.view.len();
        self.view.retain(|d| !is_failed(d.id));
        before - self.view.len()
    }

    fn view_len(&self) -> usize {
        self.view.len()
    }

    fn view_entries(&self) -> &[Descriptor<S::Point>] {
        &self.view
    }
}

/// Communication volume of one pairwise exchange, in descriptors.
///
/// The simulator converts descriptors to the paper's cost units
/// ("sending a node descriptor (its ID, plus its coordinates) counts as 3
/// units", Sec. IV-A).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Descriptors in the initiator's request.
    pub request_descriptors: usize,
    /// Descriptors in the responder's reply.
    pub reply_descriptors: usize,
}

impl ExchangeStats {
    /// Total descriptors moved in both directions.
    pub fn total(&self) -> usize {
        self.request_descriptors + self.reply_descriptors
    }
}

/// One full T-Man exchange between initiator `a` and responder `b`:
/// both send their `m` best descriptors for the other's position and both
/// merge (the "pair-wise pull-push exchange" of the T-Man round).
///
/// `a_descriptor` / `b_descriptor` must carry each node's *current*
/// position — in a Polystyrene deployment nodes move every round, and this
/// re-minting of fresh descriptors is exactly why "T-Man must update their
/// positions in its view in each round, causing most of the traffic"
/// (paper Sec. IV-B).
pub fn tman_exchange<S: MetricSpace>(
    a: &mut TMan<S>,
    a_descriptor: Descriptor<S::Point>,
    b: &mut TMan<S>,
    b_descriptor: Descriptor<S::Point>,
) -> ExchangeStats {
    let a_id = a_descriptor.id;
    let b_id = b_descriptor.id;
    let a_pos = a_descriptor.pos.clone();
    let b_pos = b_descriptor.pos.clone();

    let request = a.prepare_message(a_descriptor, &b_pos);
    let reply = b.prepare_message(b_descriptor, &a_pos);
    b.integrate(b_id, &b_pos, &request);
    a.integrate(a_id, &a_pos, &reply);
    ExchangeStats {
        request_descriptors: request.len(),
        reply_descriptors: reply.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(id: u64, x: f64, y: f64) -> Descriptor<[f64; 2]> {
        Descriptor::new(NodeId::new(id), [x, y])
    }

    fn small_config() -> TManConfig {
        TManConfig {
            view_cap: 6,
            m: 3,
            psi: 2,
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let c = TManConfig::default();
        assert_eq!((c.view_cap, c.m, c.psi), (100, 20, 5));
    }

    #[test]
    #[should_panic(expected = "m (profiles per message)")]
    fn zero_m_rejected() {
        let _ = TMan::new(
            Euclidean2,
            TManConfig {
                view_cap: 1,
                m: 0,
                psi: 1,
            },
        );
    }

    #[test]
    fn integrate_dedups_ranks_and_caps() {
        let mut t = TMan::new(Euclidean2, small_config());
        let incoming: Vec<_> = (1..=10).map(|i| d(i, i as f64, 0.0)).collect();
        t.integrate(NodeId::new(0), &[0.0, 0.0], &incoming);
        assert_eq!(t.view_len(), 6); // capped
        let ids: Vec<_> = t.view_entries().iter().map(|e| e.id.as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]); // closest kept, in order
    }

    #[test]
    fn integrate_drops_self_descriptor() {
        let mut t = TMan::new(Euclidean2, small_config());
        t.integrate(
            NodeId::new(7),
            &[0.0, 0.0],
            &[d(7, 1.0, 0.0), d(2, 2.0, 0.0)],
        );
        assert_eq!(t.view_len(), 1);
        assert_eq!(t.view_entries()[0].id, NodeId::new(2));
    }

    #[test]
    fn integrate_prefers_fresh_positions() {
        let mut t = TMan::new(Euclidean2, small_config());
        t.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[Descriptor::with_age(NodeId::new(1), [1.0, 0.0], 5)],
        );
        // A fresher descriptor of node 1 arrives with a new position.
        t.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[Descriptor::with_age(NodeId::new(1), [3.0, 0.0], 0)],
        );
        let view = t.view_entries();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].pos, [3.0, 0.0]);
    }

    #[test]
    fn select_partner_stays_within_psi_closest() {
        let mut t = TMan::new(Euclidean2, small_config());
        let incoming: Vec<_> = (1..=6).map(|i| d(i, i as f64, 0.0)).collect();
        t.integrate(NodeId::new(0), &[0.0, 0.0], &incoming);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = t.select_partner(&[0.0, 0.0], &mut rng).unwrap();
            assert!(p.as_u64() <= 2, "partner {p} outside psi=2 closest");
        }
    }

    #[test]
    fn select_partner_none_on_empty_view() {
        let t = TMan::new(Euclidean2, small_config());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(t.select_partner(&[0.0, 0.0], &mut rng), None);
    }

    #[test]
    fn prepare_message_targets_recipient_and_includes_self() {
        let mut t = TMan::new(
            Euclidean2,
            TManConfig {
                view_cap: 10,
                m: 3,
                psi: 2,
            },
        );
        t.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[d(1, 1.0, 0.0), d(2, 5.0, 0.0), d(3, 9.0, 0.0)],
        );
        // Recipient sits at x=9: the buffer must carry the entries nearest
        // to *it* (ids 3 and 2), not to the sender.
        let msg = t.prepare_message(d(0, 0.0, 0.0), &[9.0, 0.0]);
        assert_eq!(msg.len(), 3);
        let ids: Vec<_> = msg.iter().map(|e| e.id.as_u64()).collect();
        assert!(ids.contains(&3) && ids.contains(&2) && ids.contains(&0));
    }

    #[test]
    fn exchange_improves_both_views() {
        let mut a = TMan::new(Euclidean2, small_config());
        let mut b = TMan::new(Euclidean2, small_config());
        // a knows far nodes near b; b knows far nodes near a.
        a.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[d(10, 10.0, 0.0), d(11, 11.0, 0.0)],
        );
        b.integrate(
            NodeId::new(1),
            &[10.0, 0.0],
            &[d(20, 0.5, 0.0), d(21, 1.5, 0.0)],
        );
        let stats = tman_exchange(&mut a, d(0, 0.0, 0.0), &mut b, d(1, 10.0, 0.0));
        assert_eq!(
            stats.total(),
            stats.request_descriptors + stats.reply_descriptors
        );
        // a learned about 20/21 (close to a), b about 10/11 (close to b).
        assert!(a.view_entries().iter().any(|e| e.id == NodeId::new(20)));
        assert!(b.view_entries().iter().any(|e| e.id == NodeId::new(10)));
        // And each learned the partner itself.
        assert!(a.view_entries().iter().any(|e| e.id == NodeId::new(1)));
        assert!(b.view_entries().iter().any(|e| e.id == NodeId::new(0)));
    }

    #[test]
    fn purge_failed_removes_entries() {
        let mut t = TMan::new(Euclidean2, small_config());
        t.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[d(1, 1.0, 0.0), d(2, 2.0, 0.0), d(3, 3.0, 0.0)],
        );
        let removed = t.purge_failed(&|id| id.as_u64() % 2 == 1);
        assert_eq!(removed, 2);
        assert_eq!(t.view_len(), 1);
    }

    #[test]
    fn refresh_positions_updates_and_counts_changes() {
        let mut t = TMan::new(Euclidean2, small_config());
        t.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[d(1, 1.0, 0.0), d(2, 2.0, 0.0), d(3, 3.0, 0.0)],
        );
        t.begin_round(); // age everything to 1
                         // Node 1 moved, node 2 stayed, node 3 is unknown to the lookup.
        let moved = [5.0, 0.0];
        let stayed = [2.0, 0.0];
        let changed = t.refresh_positions(|id| match id.as_u64() {
            1 => Some(&moved),
            2 => Some(&stayed),
            _ => None,
        });
        assert_eq!(changed, 1);
        let view = t.view_entries();
        let e1 = view.iter().find(|e| e.id == NodeId::new(1)).unwrap();
        assert_eq!(e1.pos, [5.0, 0.0]);
        assert_eq!(e1.age, 0, "refreshed entries are fresh");
        let e2 = view.iter().find(|e| e.id == NodeId::new(2)).unwrap();
        assert_eq!(e2.age, 0, "confirmed entries are fresh too");
        let e3 = view.iter().find(|e| e.id == NodeId::new(3)).unwrap();
        assert_eq!(e3.age, 1, "unknown entries keep aging");
    }

    #[test]
    fn begin_round_ages_entries() {
        let mut t = TMan::new(Euclidean2, small_config());
        t.integrate(NodeId::new(0), &[0.0, 0.0], &[d(1, 1.0, 0.0)]);
        t.begin_round();
        assert_eq!(t.view_entries()[0].age, 1);
    }

    /// End-to-end convergence: a small ring of nodes running T-Man over a
    /// torus must link every node to its true grid neighbors.
    #[test]
    #[allow(clippy::needless_range_loop)] // indices drive split_at_mut
    fn converges_to_ring_neighborhoods() {
        let n = 24u64;
        let space = Ring::new(n as f64);
        let config = TManConfig {
            view_cap: 8,
            m: 4,
            psi: 3,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mut nodes: Vec<TMan<Ring>> = (0..n).map(|_| TMan::new(space, config)).collect();
        let pos = |i: u64| i as f64;
        // Random bootstrap: 3 random contacts each.
        for i in 0..n as usize {
            let contacts: Vec<_> = (0..3)
                .map(|_| {
                    let j = rng.random_range(0..n);
                    Descriptor::new(NodeId::new(j), pos(j))
                })
                .filter(|c| c.id.as_u64() != i as u64)
                .collect();
            nodes[i].integrate(NodeId::new(i as u64), &pos(i as u64), &contacts);
        }
        for _round in 0..30 {
            for i in 0..n as usize {
                let me = NodeId::new(i as u64);
                let my_pos = pos(i as u64);
                let partner = {
                    let node = &mut nodes[i];
                    node.begin_round();
                    node.select_partner(&my_pos, &mut rng)
                };
                let Some(partner) = partner else { continue };
                let j = partner.index();
                if i == j {
                    continue;
                }
                let (pa, pb) = if i < j {
                    let (l, r) = nodes.split_at_mut(j);
                    (&mut l[i], &mut r[0])
                } else {
                    let (l, r) = nodes.split_at_mut(i);
                    (&mut r[0], &mut l[j])
                };
                tman_exchange(
                    pa,
                    Descriptor::new(me, my_pos),
                    pb,
                    Descriptor::new(partner, pos(partner.as_u64())),
                );
            }
        }
        // Every node's 2 closest view entries must be its ring neighbors.
        for i in 0..n {
            let neigh = nodes[i as usize].closest(&pos(i), 2);
            let mut got: Vec<u64> = neigh.iter().map(|e| e.id.as_u64()).collect();
            got.sort();
            let mut expect = vec![(i + n - 1) % n, (i + 1) % n];
            expect.sort();
            assert_eq!(got, expect, "node {i} neighborhood wrong");
        }
    }

    proptest! {
        #[test]
        fn view_never_exceeds_cap_nor_contains_self(
            incoming in proptest::collection::vec((0u64..40, -50.0..50.0f64), 0..60),
            cap in 1usize..8,
        ) {
            let mut t = TMan::new(
                Euclidean2,
                TManConfig { view_cap: cap, m: 3, psi: 2 },
            );
            for chunk in incoming.chunks(5) {
                let batch: Vec<_> = chunk.iter().map(|&(id, x)| d(id, x, 0.0)).collect();
                t.integrate(NodeId::new(0), &[0.0, 0.0], &batch);
                prop_assert!(t.view_len() <= cap);
                prop_assert_eq!(t.view_capacity(), cap, "allocated once, at the cap");
                prop_assert!(t.view_entries().iter().all(|e| e.id != NodeId::new(0)));
                // ids unique
                let mut ids: Vec<_> = t.view_entries().iter().map(|e| e.id).collect();
                ids.sort();
                let len = ids.len();
                ids.dedup();
                prop_assert_eq!(ids.len(), len);
            }
        }

        #[test]
        fn closest_is_sorted_by_distance(
            xs in proptest::collection::vec(-50.0..50.0f64, 1..20),
        ) {
            let mut t = TMan::new(Euclidean2, TManConfig::default());
            let batch: Vec<_> = xs.iter().enumerate()
                .map(|(i, &x)| d(i as u64 + 1, x, 0.0)).collect();
            t.integrate(NodeId::new(0), &[0.0, 0.0], &batch);
            let cl = t.closest(&[0.0, 0.0], 10);
            for w in cl.windows(2) {
                prop_assert!(w[0].pos[0].abs() <= w[1].pos[0].abs() + 1e-9);
            }
        }
    }

    /// One step of the rank-order property test.
    #[derive(Clone, Debug)]
    enum Op {
        /// `integrate` of a batch: `(id, x, y, age)` each.
        Batch(Vec<(u64, u8, u8, u32)>),
        /// `integrate` of one descriptor (the random-contact fold).
        One((u64, u8, u8, u32)),
        /// `purge_failed` of the ids whose bit is set.
        Purge(u16),
        /// `refresh_positions` from a lookup that knows some ids.
        Refresh(Vec<Option<(u8, u8)>>),
        /// The node moves: later merges and reads use the new position.
        Move(u8, u8),
        /// `begin_round`.
        Age,
    }

    /// An [`Op`], the kind drawn uniformly: every variant's payload is
    /// generated and the kind keeps one (coordinate 5 is "unknown" to a
    /// refresh).
    fn op() -> impl Strategy<Value = Op> {
        let desc = (0u64..16, 0u8..5, 0u8..5, 0u32..3);
        (
            0u8..6,
            proptest::collection::vec(desc.clone(), 0..30),
            desc,
            0u16..=u16::MAX,
            proptest::collection::vec((0u8..6, 0u8..5), 16),
        )
            .prop_map(|(kind, batch, one, mask, refresh)| match kind {
                0 => Op::Batch(batch),
                1 => Op::One(one),
                2 => Op::Purge(mask),
                3 => Op::Refresh(
                    refresh
                        .into_iter()
                        .map(|(x, y)| (x < 5).then_some((x, y)))
                        .collect(),
                ),
                4 => Op::Move(one.1, one.2),
                _ => Op::Age,
            })
    }

    fn at(x: u8, y: u8) -> [f64; 2] {
        [f64::from(x), f64::from(y)]
    }

    /// Every read of `t` for `pos` returns what the full ranking kernels
    /// return on the same view, and so does the gossip buffer for a
    /// partner at `pos`.
    fn reads_match_kernels(
        t: &TMan<Torus2>,
        pos: &[f64; 2],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        use crate::rank::k_closest_into;
        use crate::rank::reference::{choose_ranked, for_k_closest, k_closest, k_closest_ids_into};
        let (space, view) = (t.space(), t.view_entries());
        let me = Descriptor::new(NodeId::new(0), [0.5, 0.5]);
        let mut buffer = Vec::new();
        k_closest_into(space, pos, view, t.config().m - 1, &mut buffer);
        buffer.push(me);
        prop_assert_eq!(t.prepare_message(me, pos), buffer);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let partner = t.select_partner(pos, &mut rng);
        let pick = choose_ranked(space, pos, view, t.config().psi, |n| {
            reference_rng.random_range(0..n)
        });
        prop_assert_eq!(partner, pick.map(|i| view[i].id));
        prop_assert_eq!(
            rng.random::<u64>(),
            reference_rng.random::<u64>(),
            "same draws"
        );
        for k in [0, 1, 3, view.len(), view.len() + 1] {
            let (mut ids, mut reference_ids) = (Vec::new(), Vec::new());
            t.closest_ids_into(pos, k, &mut ids);
            k_closest_ids_into(space, pos, view, k, &mut reference_ids);
            prop_assert_eq!(&ids, &reference_ids);
            let (mut visited, mut reference_visited) = (Vec::new(), Vec::new());
            t.for_closest(pos, k, |d| visited.push(*d));
            for_k_closest(space, pos, view, k, |d| reference_visited.push(*d));
            prop_assert_eq!(&visited, &reference_visited);
            prop_assert_eq!(t.closest(pos, k), k_closest(space, pos, view, k));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The rank-order invariant under every operation that touches
        /// the view. After each step the view holds what the replaced
        /// pipeline holds (as a set), is strictly increasing in rank order
        /// for the position it was ranked for, and every read and the
        /// gossip buffer — for the ranked position (prefixes), for the
        /// node's current one and for one random target (pruned scans) —
        /// equal the full-ranking kernels on the same view. Ids 0..16 with
        /// integer coordinates on a 5x5 torus put many entries at exactly
        /// the same distance, so the id tie-break is exercised throughout.
        #[test]
        fn view_stays_ranked_and_prefix_reads_match_kernels(
            ops in proptest::collection::vec(op(), 1..24),
            cap in 1usize..12,
            m in 1usize..12,
            psi in 1usize..6,
            start in (0u8..5, 0u8..5),
            probe in (0u8..10, 0u8..10),
            seed in 0u64..u64::MAX,
        ) {
            use crate::rank::reference::{is_ranked, replaced_pipeline, same_set};
            let space = Torus2::new(5.0, 5.0);
            let self_id = NodeId::new(0);
            let probe = [f64::from(probe.0) / 2.0, f64::from(probe.1) / 2.0];
            let mut t = TMan::new(space, TManConfig { view_cap: cap, m, psi });
            let mut reference: Vec<Descriptor<[f64; 2]>> = Vec::new();
            let mut pos = at(start.0, start.1);
            let descriptor = |(id, x, y, age): (u64, u8, u8, u32)| {
                Descriptor::with_age(NodeId::new(id), at(x, y), age)
            };
            for op in ops {
                match op {
                    Op::Batch(batch) => {
                        let incoming: Vec<_> = batch.into_iter().map(descriptor).collect();
                        t.integrate(self_id, &pos, &incoming);
                        replaced_pipeline(&space, &pos, self_id, &mut reference, cap, &incoming);
                    }
                    Op::One(d) => {
                        let d = descriptor(d);
                        t.integrate(self_id, &pos, std::slice::from_ref(&d));
                        replaced_pipeline(&space, &pos, self_id, &mut reference, cap, &[d]);
                    }
                    Op::Purge(mask) => {
                        let failed = |id: NodeId| mask >> id.index() & 1 == 1;
                        t.purge_failed(&failed);
                        reference.retain(|d| !failed(d.id));
                    }
                    Op::Refresh(known) => {
                        let known: Vec<_> = known.into_iter().map(|p| p.map(|(x, y)| at(x, y))).collect();
                        t.refresh_positions(|id| known[id.index()].as_ref());
                        for d in &mut reference {
                            if let Some(p) = known[d.id.index()] {
                                d.pos = p;
                                d.age = 0;
                            }
                        }
                    }
                    Op::Move(x, y) => pos = at(x, y),
                    Op::Age => {
                        t.begin_round();
                        for d in &mut reference {
                            d.age += 1;
                        }
                    }
                }
                prop_assert!(same_set(t.view_entries(), &reference));
                if let Some(ranked) = t.ranked_for {
                    prop_assert!(is_ranked(&space, &ranked, t.view_entries()));
                    reads_match_kernels(&t, &ranked, seed)?;
                }
                reads_match_kernels(&t, &pos, seed)?;
                reads_match_kernels(&t, &probe, seed)?;
            }
        }
    }
}
