//! Bounded, deduplicated gossip views.
//!
//! "In each overlay, nodes maintain a small list of neighbors (its view)"
//! (paper Sec. II-B). Views deduplicate by node id, keep the freshest
//! descriptor on conflicts, and enforce a capacity bound (the paper caps
//! T-Man views at 100 peers, Sec. IV-A).

use crate::descriptor::Descriptor;
use crate::id::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::RefCell;

thread_local! {
    /// Index-permutation scratch for [`View::sample_into`] — reused across
    /// every sample taken on this thread.
    static SAMPLE_IDX: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// A bounded list of [`Descriptor`]s, unique per [`NodeId`].
///
/// # Example
///
/// ```
/// use polystyrene_membership::{Descriptor, NodeId, View};
///
/// let mut v: View<f64> = View::new(2);
/// v.insert(Descriptor::new(NodeId::new(1), 0.1));
/// v.insert(Descriptor::with_age(NodeId::new(1), 0.9, 3)); // stale duplicate
/// assert_eq!(v.len(), 1);
/// assert_eq!(v.get(NodeId::new(1)).unwrap().pos, 0.1); // freshest kept
/// ```
#[derive(Clone, Debug)]
pub struct View<P> {
    entries: Vec<Descriptor<P>>,
    cap: usize,
}

impl<P: Clone> View<P> {
    /// Creates an empty view with the given capacity bound, allocated
    /// once at exactly that bound: no insert can take it past `cap`, so
    /// letting the vector double its way there only leaves slack.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero — a zero-capacity view can never hold a
    /// neighbor and would silently break every gossip layer above it.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "view capacity must be at least 1");
        Self {
            entries: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Number of descriptors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a descriptor, deduplicating by id (the fresher descriptor —
    /// lower `age` — wins). When full and the id is new, the *oldest* entry
    /// is evicted, provided the incoming descriptor is fresher than it.
    ///
    /// Returns `true` if the descriptor was stored.
    pub fn insert(&mut self, d: Descriptor<P>) -> bool {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.id == d.id) {
            if d.age <= existing.age {
                *existing = d;
                return true;
            }
            return false;
        }
        if self.entries.len() < self.cap {
            self.entries.push(d);
            return true;
        }
        // Full: evict the single oldest entry if the newcomer is fresher.
        if let Some((idx, oldest_age)) = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.age))
            .max_by_key(|&(_, age)| age)
        {
            if d.age < oldest_age {
                self.entries[idx] = d;
                return true;
            }
        }
        false
    }

    /// Removes the descriptor for `id`, returning it if present.
    pub fn remove(&mut self, id: NodeId) -> Option<Descriptor<P>> {
        let idx = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Removes every descriptor matching the predicate (e.g. failed nodes).
    pub fn retain(&mut self, mut keep: impl FnMut(&Descriptor<P>) -> bool) {
        self.entries.retain(|e| keep(e));
    }

    /// Whether the view holds a descriptor for `id`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// The descriptor for `id`, if present.
    pub fn get(&self, id: NodeId) -> Option<&Descriptor<P>> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Iterates over the descriptors in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, Descriptor<P>> {
        self.entries.iter()
    }

    /// The ids of all descriptors.
    pub fn ids(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Increments the age of every descriptor (one gossip round has passed).
    pub fn increment_ages(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// The entry with the highest age (Cyclon's shuffle-partner choice).
    pub fn oldest(&self) -> Option<&Descriptor<P>> {
        self.entries.iter().max_by_key(|e| e.age)
    }

    /// A uniformly random descriptor.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Descriptor<P>> {
        if self.entries.is_empty() {
            None
        } else {
            let i = rng.random_range(0..self.entries.len());
            Some(&self.entries[i])
        }
    }

    /// Appends up to `n` distinct descriptors, sampled uniformly at
    /// random, into a caller-owned buffer: the index permutation lives in
    /// thread-local scratch, so steady-state sampling does not touch the
    /// allocator. The rng draws depend only on the view length.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<Descriptor<P>>,
    ) {
        SAMPLE_IDX.with(|cell| {
            let mut idx = cell.borrow_mut();
            idx.clear();
            idx.extend(0..self.entries.len());
            idx.shuffle(rng);
            idx.truncate(n);
            out.extend(idx.iter().map(|&i| self.entries[i].clone()));
        });
    }

    /// The ids of up to `n` distinct uniformly sampled descriptors,
    /// appended into `out` — rng-equivalent to [`View::sample_into`]
    /// without cloning any descriptor.
    pub fn sample_ids_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, out: &mut Vec<NodeId>) {
        SAMPLE_IDX.with(|cell| {
            let mut idx = cell.borrow_mut();
            idx.clear();
            idx.extend(0..self.entries.len());
            idx.shuffle(rng);
            idx.truncate(n);
            out.extend(idx.iter().map(|&i| self.entries[i].id));
        });
    }

    /// Direct access to the underlying entries (read-only).
    pub fn as_slice(&self) -> &[Descriptor<P>] {
        &self.entries
    }
}

impl<P: Clone> Extend<Descriptor<P>> for View<P> {
    fn extend<T: IntoIterator<Item = Descriptor<P>>>(&mut self, iter: T) {
        for d in iter {
            self.insert(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(id: u64, pos: f64, age: u32) -> Descriptor<f64> {
        Descriptor::with_age(NodeId::new(id), pos, age)
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_cap_panics() {
        let _: View<f64> = View::new(0);
    }

    #[test]
    fn insert_dedups_keeping_freshest() {
        let mut v = View::new(4);
        assert!(v.insert(d(1, 0.5, 2)));
        assert!(v.insert(d(1, 0.7, 0))); // fresher replaces
        assert_eq!(v.len(), 1);
        assert_eq!(v.get(NodeId::new(1)).unwrap().pos, 0.7);
        assert!(!v.insert(d(1, 0.9, 9))); // staler rejected
        assert_eq!(v.get(NodeId::new(1)).unwrap().pos, 0.7);
    }

    #[test]
    fn full_view_evicts_oldest_for_fresher_newcomer() {
        let mut v = View::new(2);
        v.insert(d(1, 0.1, 5));
        v.insert(d(2, 0.2, 1));
        assert!(v.insert(d(3, 0.3, 0))); // evicts id 1 (age 5)
        assert!(!v.contains(NodeId::new(1)));
        assert!(v.contains(NodeId::new(2)));
        assert!(v.contains(NodeId::new(3)));
        // A newcomer older than everything is rejected.
        assert!(!v.insert(d(4, 0.4, 10)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn allocation_is_the_cap_and_stays_there() {
        let mut v = View::new(5);
        for i in 0..40 {
            v.insert(d(i, i as f64, (40 - i) as u32));
            assert_eq!(v.entries.capacity(), 5);
        }
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn remove_and_retain() {
        let mut v = View::new(4);
        v.insert(d(1, 0.1, 0));
        v.insert(d(2, 0.2, 0));
        v.insert(d(3, 0.3, 0));
        assert_eq!(v.remove(NodeId::new(2)).unwrap().pos, 0.2);
        assert_eq!(v.remove(NodeId::new(2)), None);
        v.retain(|e| e.id != NodeId::new(1));
        assert_eq!(v.ids(), vec![NodeId::new(3)]);
    }

    #[test]
    fn ages_and_oldest() {
        let mut v = View::new(4);
        v.insert(d(1, 0.1, 0));
        v.insert(d(2, 0.2, 3));
        v.increment_ages();
        assert_eq!(v.get(NodeId::new(1)).unwrap().age, 1);
        assert_eq!(v.oldest().unwrap().id, NodeId::new(2));
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut v = View::new(10);
        for i in 0..10 {
            v.insert(d(i, i as f64, 0));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Vec::new();
        v.sample_into(4, &mut rng, &mut s);
        assert_eq!(s.len(), 4);
        let mut ids: Vec<_> = s.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        let mut all = Vec::new();
        v.sample_into(99, &mut rng, &mut all);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn random_on_empty_is_none() {
        let v: View<f64> = View::new(3);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(v.random(&mut rng).is_none());
    }

    #[test]
    fn extend_respects_dedup() {
        let mut v = View::new(5);
        v.extend([d(1, 0.1, 1), d(1, 0.2, 0), d(2, 0.3, 0)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(NodeId::new(1)).unwrap().pos, 0.2);
    }

    proptest! {
        #[test]
        fn never_exceeds_cap_and_ids_unique(
            ops in proptest::collection::vec((0u64..20, 0u32..10), 0..60),
            cap in 1usize..8,
        ) {
            let mut v = View::new(cap);
            for (id, age) in ops {
                v.insert(d(id, id as f64, age));
                prop_assert!(v.len() <= cap);
                let mut ids = v.ids();
                ids.sort();
                let n = ids.len();
                ids.dedup();
                prop_assert_eq!(ids.len(), n, "duplicate ids in view");
            }
        }

        #[test]
        fn get_after_insert_when_capacity_allows(
            id in 0u64..100,
            pos in -10.0..10.0f64,
        ) {
            let mut v = View::new(4);
            v.insert(Descriptor::new(NodeId::new(id), pos));
            prop_assert_eq!(v.get(NodeId::new(id)).unwrap().pos, pos);
        }
    }
}
