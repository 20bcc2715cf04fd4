//! The peer-sampling service (RPS).
//!
//! "The bottom overlay (peer sampling) provides each node with a random
//! sample of the rest of the network. This is achieved by having nodes
//! exchange and shuffle their neighbors' list in asynchronous gossip
//! rounds" (paper Sec. II-B). This is a Cyclon-style shuffler (Voulgaris,
//! Gavidia, van Steen — the paper's reference \[21\]): each round a node
//! picks its *oldest* neighbor, swaps a random subset of its view with it,
//! and the two merge the received entries preferring fresh descriptors.
//!
//! The API is message-oriented (`make_request_into` /
//! `handle_request_into` / `handle_reply`), so one state machine serves
//! every substrate; the caller owns the (typically pooled) message
//! buffers.

use crate::descriptor::Descriptor;
use crate::id::NodeId;
use crate::view::View;
use rand::Rng;

/// Cyclon-style peer-sampling state of one node.
///
/// # Example
///
/// ```
/// use polystyrene_membership::{Descriptor, NodeId, PeerSampling};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut a: PeerSampling<f64> = PeerSampling::new(8, 4);
/// a.bootstrap([Descriptor::new(NodeId::new(2), 0.5)]);
/// assert_eq!(a.random_peer(&mut rng), Some(NodeId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct PeerSampling<P> {
    view: View<P>,
    shuffle_len: usize,
}

impl<P: Clone> PeerSampling<P> {
    /// Creates an empty sampler with view capacity `cap`, exchanging
    /// `shuffle_len` descriptors per shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `shuffle_len` is zero or exceeds `cap` (a shuffle could
    /// then never fit back into the view).
    pub fn new(cap: usize, shuffle_len: usize) -> Self {
        assert!(
            shuffle_len > 0 && shuffle_len <= cap,
            "shuffle length must be in [1, cap={cap}], got {shuffle_len}"
        );
        Self {
            view: View::new(cap),
            shuffle_len,
        }
    }

    /// Seeds the view with initial contacts (join procedure).
    pub fn bootstrap(&mut self, contacts: impl IntoIterator<Item = Descriptor<P>>) {
        self.view.extend(contacts);
    }

    /// Read access to the current view.
    pub fn view(&self) -> &View<P> {
        &self.view
    }

    /// Ages the view by one round and returns the shuffle partner for this
    /// round (the oldest neighbor), without removing it yet.
    pub fn begin_round(&mut self) -> Option<NodeId> {
        self.view.increment_ages();
        self.view.oldest().map(|d| d.id)
    }

    /// Builds the shuffle request for `partner` in `out`: the partner's
    /// entry is dropped from the view and the request carries up to
    /// `shuffle_len - 1` random other entries plus a fresh descriptor of
    /// the sender.
    pub fn make_request_into<R: Rng + ?Sized>(
        &mut self,
        self_descriptor: Descriptor<P>,
        partner: NodeId,
        rng: &mut R,
        out: &mut Vec<Descriptor<P>>,
    ) {
        self.view.remove(partner);
        self.view
            .sample_into(self.shuffle_len.saturating_sub(1), rng, out);
        out.push(self_descriptor);
    }

    /// Handles an incoming shuffle request: builds the reply, a random
    /// sample of the local view, in `reply` (which must start empty) and
    /// merges the received entries.
    pub fn handle_request_into<R: Rng + ?Sized>(
        &mut self,
        self_id: NodeId,
        incoming: &[Descriptor<P>],
        rng: &mut R,
        reply: &mut Vec<Descriptor<P>>,
    ) {
        self.view.sample_into(self.shuffle_len, rng, reply);
        self.merge(self_id, incoming, reply);
    }

    /// Handles the shuffle reply: merges received entries, preferring to
    /// overwrite the slots that were sent out in the request.
    pub fn handle_reply(
        &mut self,
        self_id: NodeId,
        sent: &[Descriptor<P>],
        received: &[Descriptor<P>],
    ) {
        self.merge(self_id, received, sent);
    }

    /// Cyclon merge: insert `received` descriptors, never pointing at
    /// ourselves; when the view is full, evict entries that were just
    /// `sent` to the partner to make room.
    fn merge(&mut self, self_id: NodeId, received: &[Descriptor<P>], sent: &[Descriptor<P>]) {
        // The shipped entries not yet tried as victims, spent from the back.
        let mut evictable = sent.iter().rev();
        for d in received {
            if d.id == self_id {
                continue;
            }
            if self.view.insert(d.clone()) {
                continue;
            }
            if self.view.contains(d.id) {
                continue; // fresher duplicate already present
            }
            // View full: sacrifice one of the entries we shipped out.
            for victim in evictable.by_ref() {
                if self.view.remove(victim.id).is_some() {
                    self.view.insert(d.clone());
                    break;
                }
            }
        }
    }

    /// Removes every view entry the failure detector flags, returning how
    /// many were dropped.
    pub fn remove_failed(&mut self, is_failed: impl Fn(NodeId) -> bool) -> usize {
        let before = self.view.len();
        self.view.retain(|d| !is_failed(d.id));
        before - self.view.len()
    }

    /// A uniformly random peer id from the view — the sampling primitive
    /// Polystyrene uses to pick backup nodes and migration candidates.
    pub fn random_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        self.view.random(rng).map(|d| d.id)
    }

    /// Appends up to `n` distinct random peers from the view into `out`.
    pub fn random_peers_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, out: &mut Vec<NodeId>) {
        self.view.sample_ids_into(n, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn desc(id: u64) -> Descriptor<f64> {
        Descriptor::new(NodeId::new(id), id as f64)
    }

    /// One full Cyclon shuffle between initiator `a` and responder `b`:
    /// the three steps a node runs over messages, with both endpoints at
    /// hand. Returns the number of descriptors `a` sent.
    fn shuffle<R: Rng + ?Sized>(
        a: &mut PeerSampling<f64>,
        a_descriptor: Descriptor<f64>,
        b: &mut PeerSampling<f64>,
        b_id: NodeId,
        rng: &mut R,
    ) -> usize {
        let a_id = a_descriptor.id;
        let mut request = Vec::new();
        a.make_request_into(a_descriptor, b_id, rng, &mut request);
        let mut reply = Vec::new();
        b.handle_request_into(b_id, &request, rng, &mut reply);
        a.handle_reply(a_id, &request, &reply);
        request.len()
    }

    #[test]
    #[should_panic(expected = "shuffle length")]
    fn rejects_zero_shuffle_len() {
        let _: PeerSampling<f64> = PeerSampling::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "shuffle length")]
    fn rejects_shuffle_len_above_cap() {
        let _: PeerSampling<f64> = PeerSampling::new(4, 5);
    }

    #[test]
    fn begin_round_picks_oldest_and_ages_view() {
        let mut ps: PeerSampling<f64> = PeerSampling::new(8, 3);
        ps.bootstrap([
            Descriptor::with_age(NodeId::new(1), 1.0, 0),
            Descriptor::with_age(NodeId::new(2), 2.0, 5),
        ]);
        assert_eq!(ps.begin_round(), Some(NodeId::new(2)));
        assert_eq!(ps.view().get(NodeId::new(1)).unwrap().age, 1);
    }

    #[test]
    fn begin_round_on_empty_view() {
        let mut ps: PeerSampling<f64> = PeerSampling::new(8, 3);
        assert_eq!(ps.begin_round(), None);
    }

    #[test]
    fn request_contains_fresh_self_and_drops_partner() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps: PeerSampling<f64> = PeerSampling::new(8, 3);
        ps.bootstrap([desc(1), desc(2), desc(3)]);
        let mut req = Vec::new();
        ps.make_request_into(desc(0), NodeId::new(2), &mut rng, &mut req);
        assert!(req.iter().any(|d| d.id == NodeId::new(0) && d.age == 0));
        assert!(req.len() <= 3);
        assert!(!ps.view().contains(NodeId::new(2)));
    }

    #[test]
    fn full_shuffle_spreads_entries_both_ways() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut a: PeerSampling<f64> = PeerSampling::new(8, 4);
        let mut b: PeerSampling<f64> = PeerSampling::new(8, 4);
        a.bootstrap([
            desc(1),
            desc(2),
            Descriptor::with_age(NodeId::new(9), 9.0, 4),
        ]);
        b.bootstrap([desc(3), desc(4)]);
        let partner = a.begin_round().unwrap();
        assert_eq!(partner, NodeId::new(9));
        // Pretend 9 is b for the exchange mechanics.
        let sent = shuffle(&mut a, desc(0), &mut b, NodeId::new(9), &mut rng);
        assert!(sent >= 1);
        // b learned about a (id 0) or some of a's neighbors.
        assert!(b.view().len() >= 3);
        // a merged b's reply.
        assert!(a.view().len() >= 2);
        // Nobody stores itself.
        assert!(!b.view().contains(NodeId::new(9)));
        assert!(!a.view().contains(NodeId::new(0)));
    }

    #[test]
    fn merge_never_stores_self_or_overflows() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut ps: PeerSampling<f64> = PeerSampling::new(3, 3);
        ps.bootstrap([desc(1), desc(2), desc(3)]);
        let incoming = vec![desc(4), desc(5), desc(0)];
        let mut reply = Vec::new();
        ps.handle_request_into(NodeId::new(0), &incoming, &mut rng, &mut reply);
        assert!(reply.len() <= 3);
        assert!(ps.view().len() <= 3);
        assert!(!ps.view().contains(NodeId::new(0)));
    }

    #[test]
    fn full_view_makes_room_from_the_back_of_what_it_sent() {
        let mut ps: PeerSampling<f64> = PeerSampling::new(3, 3);
        ps.bootstrap([desc(1), desc(2), desc(3)]);
        // Equal ages, so `View::insert` refuses the newcomers and each
        // costs one shipped entry: 2 goes for 4, then 1 for 5; nothing is
        // left to pay for 6, and 3 was never shipped.
        ps.handle_reply(
            NodeId::new(0),
            &[desc(1), desc(2), desc(9)],
            &[desc(4), desc(5), desc(6)],
        );
        let mut ids = ps.view().ids();
        ids.sort();
        assert_eq!(ids, vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)]);
    }

    #[test]
    fn remove_failed_purges_view() {
        let mut ps: PeerSampling<f64> = PeerSampling::new(8, 3);
        ps.bootstrap([desc(1), desc(2), desc(3)]);
        let removed = ps.remove_failed(|id| id.as_u64() % 2 == 1);
        assert_eq!(removed, 2);
        assert_eq!(ps.view().ids(), vec![NodeId::new(2)]);
    }

    #[test]
    fn random_peers_are_from_view() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ps: PeerSampling<f64> = PeerSampling::new(8, 3);
        ps.bootstrap([desc(1), desc(2), desc(3), desc(4)]);
        let mut peers = Vec::new();
        ps.random_peers_into(3, &mut rng, &mut peers);
        assert_eq!(peers.len(), 3);
        for p in peers {
            assert!(ps.view().contains(p));
        }
    }

    /// After many rounds of an all-pairs simulation, every node's view
    /// should contain a changing random mix — basic health of the sampler.
    #[test]
    #[allow(clippy::needless_range_loop)] // indices drive split_at_mut
    fn gossip_keeps_views_full_and_varied() {
        let n = 32usize;
        let cap = 6;
        let mut rng = StdRng::seed_from_u64(42);
        let mut nodes: Vec<PeerSampling<f64>> = (0..n).map(|_| PeerSampling::new(cap, 3)).collect();
        // Ring-ish bootstrap: i knows its next three successors (a 1-contact
        // bootstrap is degenerate for any shuffler — requests would only
        // ever carry the sender's own descriptor).
        for i in 0..n {
            let contacts: Vec<_> = (1..=3).map(|k| desc(((i + k) % n) as u64)).collect();
            nodes[i].bootstrap(contacts);
        }
        for _round in 0..60 {
            for i in 0..n {
                let partner = match nodes[i].begin_round() {
                    Some(p) => p,
                    None => continue,
                };
                let j = partner.index();
                if i == j {
                    continue;
                }
                let (left, right) = if i < j {
                    let (l, r) = nodes.split_at_mut(j);
                    (&mut l[i], &mut r[0])
                } else {
                    let (l, r) = nodes.split_at_mut(i);
                    (&mut r[0], &mut l[j])
                };
                shuffle(left, desc(i as u64), right, partner, &mut rng);
            }
        }
        // Every view is full, and collectively the views reference most
        // of the network (randomness, not a frozen ring).
        let mut referenced = std::collections::HashSet::new();
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.view().len(), cap, "node {i} view not full");
            referenced.extend(node.view().ids());
        }
        assert!(referenced.len() > n / 2, "views collapsed: {referenced:?}");
    }

    proptest! {
        #[test]
        fn shuffle_preserves_view_bounds(
            seed in 0u64..200,
            a_ids in proptest::collection::hash_set(1u64..50, 1..8),
            b_ids in proptest::collection::hash_set(50u64..100, 1..8),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a: PeerSampling<f64> = PeerSampling::new(8, 4);
            let mut b: PeerSampling<f64> = PeerSampling::new(8, 4);
            a.bootstrap(a_ids.iter().map(|&i| desc(i)));
            b.bootstrap(b_ids.iter().map(|&i| desc(i)));
            let partner = a.begin_round().unwrap();
            shuffle(&mut a, desc(0), &mut b, partner, &mut rng);
            prop_assert!(a.view().len() <= 8);
            prop_assert!(b.view().len() <= 8);
            prop_assert!(!a.view().contains(NodeId::new(0)));
        }
    }
}
