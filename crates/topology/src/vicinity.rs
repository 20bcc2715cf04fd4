//! A Vicinity-style topology-construction variant.
//!
//! Vicinity (Voulgaris & van Steen, Euro-Par'05 — the paper's reference
//! \[2\]) differs from T-Man in two ways that matter for robustness:
//! partner selection alternates between the closest neighbor and a random
//! view entry, and gossip buffers mix in random descriptors from the
//! peer-sampling layer ("augmented in some protocols by additional random
//! neighbors returned by the peer-sampling overlay", paper Sec. II-B).
//! The random component guarantees convergence from arbitrary states at
//! the price of slightly slower greedy progress.

use crate::rank::{
    choose_ranked, dedup_freshest, drop_self, k_closest, k_closest_into, k_ranked_indices,
};
use crate::traits::TopologyConstruction;
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_space::MetricSpace;
use rand::Rng;
use std::cell::RefCell;

thread_local! {
    /// Index-pool scratch for [`Vicinity::prepare_message_into`]'s random
    /// filler — reused across every message built on this thread.
    static FILLER_POOL: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Vicinity protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VicinityConfig {
    /// Maximum number of descriptors kept in the view.
    pub view_cap: usize,
    /// Number of descriptors per gossip message.
    pub m: usize,
    /// Probability of selecting a uniformly random partner instead of the
    /// closest one (the explore/exploit mix).
    pub random_partner_probability: f64,
}

impl Default for VicinityConfig {
    fn default() -> Self {
        Self {
            view_cap: 100,
            m: 20,
            random_partner_probability: 0.2,
        }
    }
}

impl VicinityConfig {
    /// Validates parameter sanity; called by [`Vicinity::new`].
    ///
    /// # Panics
    ///
    /// Panics if a size parameter is zero or the probability is outside
    /// `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.view_cap > 0, "view_cap must be positive");
        assert!(self.m > 0, "m (profiles per message) must be positive");
        assert!(
            (0.0..=1.0).contains(&self.random_partner_probability),
            "random partner probability must be in [0, 1]"
        );
    }
}

/// Vicinity protocol state of one node.
///
/// # Example
///
/// ```
/// use polystyrene_space::prelude::*;
/// use polystyrene_membership::{Descriptor, NodeId};
/// use polystyrene_topology::{Vicinity, VicinityConfig, TopologyConstruction};
///
/// let mut v = Vicinity::new(Euclidean2, VicinityConfig::default());
/// v.integrate(NodeId::new(0), &[0.0, 0.0], &[
///     Descriptor::new(NodeId::new(1), [1.0, 0.0]),
/// ]);
/// assert_eq!(v.view_len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Vicinity<S: MetricSpace> {
    space: S,
    config: VicinityConfig,
    view: Vec<Descriptor<S::Point>>,
}

impl<S: MetricSpace> Vicinity<S> {
    /// Creates an empty Vicinity instance.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`VicinityConfig::validate`].
    pub fn new(space: S, config: VicinityConfig) -> Self {
        config.validate();
        Self {
            space,
            config,
            view: Vec::new(),
        }
    }

    /// The protocol parameters.
    pub fn config(&self) -> &VicinityConfig {
        &self.config
    }

    /// Refreshes the positions of view entries from `lookup`, returning
    /// how many entries changed — see
    /// [`crate::tman::TMan::refresh_positions`].
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
        changed
    }

    /// Builds the gossip buffer for a partner at `target_pos`: own fresh
    /// descriptor, the best half for the recipient, plus random filler —
    /// Vicinity's exploration component.
    pub fn prepare_message<R: Rng + ?Sized>(
        &self,
        self_descriptor: Descriptor<S::Point>,
        target_pos: &S::Point,
        rng: &mut R,
    ) -> Vec<Descriptor<S::Point>> {
        let mut buffer = Vec::new();
        self.prepare_message_into(self_descriptor, target_pos, rng, &mut buffer);
        buffer
    }

    /// [`Vicinity::prepare_message`] appending into a caller-owned
    /// (typically pooled) buffer. The filler's index pool lives in
    /// thread-local scratch; rng draw sequence is identical (the draws
    /// depend only on the view length).
    pub fn prepare_message_into<R: Rng + ?Sized>(
        &self,
        self_descriptor: Descriptor<S::Point>,
        target_pos: &S::Point,
        rng: &mut R,
        buffer: &mut Vec<Descriptor<S::Point>>,
    ) {
        let m = self.config.m;
        let base = buffer.len();
        k_closest_into(
            &self.space,
            target_pos,
            &self.view,
            m.saturating_sub(1) / 2,
            buffer,
        );
        // Fill the rest with random entries for exploration.
        FILLER_POOL.with(|cell| {
            let mut pool = cell.borrow_mut();
            pool.clear();
            pool.extend(0..self.view.len());
            while buffer.len() - base + 1 < m && !pool.is_empty() {
                let k = rng.random_range(0..pool.len());
                let idx = pool.swap_remove(k);
                let d = &self.view[idx];
                if !buffer[base..].iter().any(|e| e.id == d.id) {
                    buffer.push(d.clone());
                }
            }
        });
        buffer.push(self_descriptor);
    }
}

impl<S: MetricSpace> TopologyConstruction<S> for Vicinity<S> {
    fn begin_round(&mut self) {
        for d in &mut self.view {
            d.age = d.age.saturating_add(1);
        }
    }

    fn closest(&self, pos: &S::Point, k: usize) -> Vec<Descriptor<S::Point>> {
        k_closest(&self.space, pos, &self.view, k)
    }

    fn select_partner<R: Rng + ?Sized>(&self, pos: &S::Point, rng: &mut R) -> Option<NodeId> {
        if self.view.is_empty() {
            return None;
        }
        if rng.random_bool(self.config.random_partner_probability) {
            let i = rng.random_range(0..self.view.len());
            return Some(self.view[i].id);
        }
        let pick = choose_ranked(&self.space, pos, &self.view, 1, |_| 0)
            .expect("view checked non-empty above");
        Some(self.view[pick].id)
    }

    fn integrate(&mut self, self_id: NodeId, pos: &S::Point, incoming: &[Descriptor<S::Point>]) {
        let mut merged = std::mem::take(&mut self.view);
        merged.extend(incoming.iter().cloned());
        drop_self(&mut merged, self_id);
        let merged = dedup_freshest(merged);
        let order = k_ranked_indices(&self.space, pos, &merged, self.config.view_cap);
        self.view = order.into_iter().map(|i| merged[i].clone()).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(id: u64, x: f64) -> Descriptor<[f64; 2]> {
        Descriptor::new(NodeId::new(id), [x, 0.0])
    }

    fn cfg() -> VicinityConfig {
        VicinityConfig {
            view_cap: 6,
            m: 4,
            random_partner_probability: 0.3,
        }
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn rejects_bad_probability() {
        let _ = Vicinity::new(
            Euclidean2,
            VicinityConfig {
                view_cap: 1,
                m: 1,
                random_partner_probability: 2.0,
            },
        );
    }

    #[test]
    fn integrate_caps_and_ranks() {
        let mut v = Vicinity::new(Euclidean2, cfg());
        let incoming: Vec<_> = (1..=10).map(|i| d(i, i as f64)).collect();
        v.integrate(NodeId::new(0), &[0.0, 0.0], &incoming);
        assert_eq!(v.view_len(), 6);
        assert_eq!(v.closest(&[0.0, 0.0], 1)[0].id, NodeId::new(1));
    }

    #[test]
    fn greedy_partner_is_closest_when_not_exploring() {
        let mut v = Vicinity::new(
            Euclidean2,
            VicinityConfig {
                random_partner_probability: 0.0,
                ..cfg()
            },
        );
        v.integrate(NodeId::new(0), &[0.0, 0.0], &[d(1, 3.0), d(2, 1.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(
                v.select_partner(&[0.0, 0.0], &mut rng),
                Some(NodeId::new(2))
            );
        }
    }

    #[test]
    fn exploring_partner_varies() {
        let mut v = Vicinity::new(
            Euclidean2,
            VicinityConfig {
                random_partner_probability: 1.0,
                ..cfg()
            },
        );
        v.integrate(
            NodeId::new(0),
            &[0.0, 0.0],
            &[d(1, 1.0), d(2, 2.0), d(3, 3.0)],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..60 {
            seen.insert(v.select_partner(&[0.0, 0.0], &mut rng).unwrap());
        }
        assert!(seen.len() >= 2, "random selection never explored: {seen:?}");
    }

    #[test]
    fn message_contains_self_and_respects_m() {
        let mut v = Vicinity::new(Euclidean2, cfg());
        let incoming: Vec<_> = (1..=6).map(|i| d(i, i as f64)).collect();
        v.integrate(NodeId::new(0), &[0.0, 0.0], &incoming);
        let mut rng = StdRng::seed_from_u64(3);
        let msg = v.prepare_message(d(0, 0.0), &[6.0, 0.0], &mut rng);
        assert!(msg.len() <= 4);
        assert!(msg.iter().any(|e| e.id == NodeId::new(0)));
        // No duplicate ids in the buffer.
        let mut ids: Vec<_> = msg.iter().map(|e| e.id).collect();
        ids.sort();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn refresh_positions_mirrors_tman_semantics() {
        let mut v = Vicinity::new(Euclidean2, cfg());
        v.integrate(NodeId::new(0), &[0.0, 0.0], &[d(1, 1.0), d(2, 2.0)]);
        v.begin_round();
        let moved = [9.0, 0.0];
        let changed = v.refresh_positions(|id| (id == NodeId::new(1)).then_some(&moved));
        assert_eq!(changed, 1);
        let view = v.view_entries();
        assert_eq!(
            view.iter().find(|e| e.id == NodeId::new(1)).unwrap().pos,
            [9.0, 0.0]
        );
    }

    #[test]
    fn purge_and_age() {
        let mut v = Vicinity::new(Euclidean2, cfg());
        v.integrate(NodeId::new(0), &[0.0, 0.0], &[d(1, 1.0), d(2, 2.0)]);
        v.begin_round();
        assert!(v.view_entries().iter().all(|e| e.age == 1));
        assert_eq!(v.purge_failed(&|id| id == NodeId::new(1)), 1);
        assert_eq!(v.view_len(), 1);
    }
}
