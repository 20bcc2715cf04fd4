//! Failure detection.
//!
//! The paper's system model assumes "a crash-stop fault model: nodes fail
//! by crashing, and do not recover. We also assume nodes have access to a
//! (possibly imperfect) failure detector" (Sec. III-A). This module
//! provides the abstraction plus three implementations:
//!
//! * [`SharedFailureDetector`] — a perfect detector backed by the ground
//!   truth (what the simulator uses by default, like the paper's `failed`
//!   variable);
//! * [`DelayedFailureDetector`] — reports a crash only `delay` rounds after
//!   it happened, to study detection lag;
//! * [`FlakyFailureDetector`] — additionally raises transient false
//!   suspicions, to study unreliable detection.
//!
//! The runtime crate implements a fourth, heartbeat-based detector on top
//! of real message passing.
//!
//! The single-threaded drivers (the cycle engine and the netsim kernel)
//! do not go through the trait at all: they own a [`FailureTable`], the
//! dense set of crashes their population currently knows about, and hand
//! the protocol a closure over it.

use crate::id::NodeId;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The failure-detector interface used by every protocol layer.
///
/// `now` is the current protocol round; detectors that model detection
/// latency use it, perfect detectors ignore it.
pub trait FailureDetector {
    /// Whether `id` is currently suspected to have crashed.
    fn is_failed(&self, id: NodeId, now: u32) -> bool;

    /// Filters the suspected ids out of `ids` (convenience).
    fn failed_among(&self, ids: &[NodeId], now: u32) -> Vec<NodeId> {
        ids.iter()
            .copied()
            .filter(|&id| self.is_failed(id, now))
            .collect()
    }
}

/// Ground-truth failure record shared by all nodes of a simulation: a
/// perfect failure detector.
///
/// Cloning shares the underlying record (it is an `Arc`), so the simulator
/// can hand one handle to every node and update it centrally when it
/// injects crashes.
///
/// # Example
///
/// ```
/// use polystyrene_membership::{FailureDetector, NodeId, SharedFailureDetector};
///
/// let fd = SharedFailureDetector::new();
/// let n1 = NodeId::new(1);
/// assert!(!fd.is_failed(n1, 0));
/// fd.mark_failed(n1, 0);
/// assert!(fd.is_failed(n1, 0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharedFailureDetector {
    inner: Arc<RwLock<HashMap<NodeId, u32>>>,
}

impl SharedFailureDetector {
    /// Creates a detector with no recorded failures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id` crashed at round `round`.
    pub fn mark_failed(&self, id: NodeId, round: u32) {
        self.inner.write().entry(id).or_insert(round);
    }

    /// Forgets a failure record (used when recycling ids in long-running
    /// simulations; crash-stop nodes never actually recover).
    pub fn clear(&self, id: NodeId) {
        self.inner.write().remove(&id);
    }

    /// Number of recorded failures.
    pub fn failed_count(&self) -> usize {
        self.inner.read().len()
    }

    /// Snapshot of all failed ids.
    pub fn failed_ids(&self) -> HashSet<NodeId> {
        self.inner.read().keys().copied().collect()
    }

    /// The round at which `id` crashed, if it did.
    pub fn failure_round(&self, id: NodeId) -> Option<u32> {
        self.inner.read().get(&id).copied()
    }
}

impl FailureDetector for SharedFailureDetector {
    fn is_failed(&self, id: NodeId, _now: u32) -> bool {
        self.inner.read().contains_key(&id)
    }
}

/// The crashes a driver's population currently knows about, as a dense
/// table indexed by [`NodeId::index`].
///
/// Every protocol phase asks "has this peer failed?" once per view entry
/// — about a thousand times per node-round at the paper's 100-entry
/// views — so the answer is one bounds check and one byte load, with no
/// lock, hash or tree descent. Drivers allocate ids contiguously from
/// zero and never reuse them, so the table costs one byte per id up to
/// the largest one marked; an id beyond that (a node injected after the
/// last crash, say) is simply not failed.
///
/// The table holds *knowledge*, not ground truth: a driver modelling
/// detection lag marks an id when the crash becomes visible, not when it
/// happens.
///
/// # Example
///
/// ```
/// use polystyrene_membership::{FailureTable, NodeId};
///
/// let mut known = FailureTable::new();
/// known.mark(NodeId::new(7));
/// assert!(known.is_failed(NodeId::new(7)));
/// assert!(!known.is_failed(NodeId::new(6)));
/// assert!(!known.is_failed(NodeId::new(7_000))); // never seen: alive
/// ```
#[derive(Clone, Debug, Default)]
pub struct FailureTable {
    failed: Vec<bool>,
}

impl FailureTable {
    /// Creates a table with no known failures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id` is known to have crashed. Crash-stop: there is
    /// no way back.
    pub fn mark(&mut self, id: NodeId) {
        let i = id.index();
        if i >= self.failed.len() {
            self.failed.resize(i + 1, false);
        }
        self.failed[i] = true;
    }

    /// Whether `id` is known to have crashed.
    #[inline]
    pub fn is_failed(&self, id: NodeId) -> bool {
        self.failed.get(id.index()).copied().unwrap_or(false)
    }
}

/// A detector that reports crashes only `delay` rounds after they occurred,
/// modeling heartbeat timeout lag.
#[derive(Clone, Debug)]
pub struct DelayedFailureDetector {
    truth: SharedFailureDetector,
    delay: u32,
}

impl DelayedFailureDetector {
    /// Wraps a ground-truth detector with a fixed detection delay.
    pub fn new(truth: SharedFailureDetector, delay: u32) -> Self {
        Self { truth, delay }
    }

    /// The configured detection delay in rounds.
    pub fn delay(&self) -> u32 {
        self.delay
    }
}

impl FailureDetector for DelayedFailureDetector {
    fn is_failed(&self, id: NodeId, now: u32) -> bool {
        match self.truth.failure_round(id) {
            Some(at) => now >= at.saturating_add(self.delay),
            None => false,
        }
    }
}

/// A detector that, on top of the (delayed) truth, raises *false
/// suspicions* with a fixed per-query probability.
///
/// Suspicions are deterministic per `(id, now)` pair so repeated queries in
/// the same round agree — the detector is inaccurate but not inconsistent.
#[derive(Clone, Debug)]
pub struct FlakyFailureDetector {
    truth: SharedFailureDetector,
    false_positive_rate: f64,
    seed: u64,
}

impl FlakyFailureDetector {
    /// Wraps a ground-truth detector with a false-suspicion rate in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `false_positive_rate` is outside `[0, 1]`.
    pub fn new(truth: SharedFailureDetector, false_positive_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&false_positive_rate),
            "false positive rate must be within [0, 1], got {false_positive_rate}"
        );
        Self {
            truth,
            false_positive_rate,
            seed,
        }
    }
}

impl FailureDetector for FlakyFailureDetector {
    fn is_failed(&self, id: NodeId, now: u32) -> bool {
        if self.truth.is_failed(id, now) {
            return true;
        }
        if self.false_positive_rate == 0.0 {
            return false;
        }
        // Deterministic per (id, round): derive a throwaway RNG.
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.as_u64().wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(u64::from(now).wrapping_mul(0x94D0_49BB_1331_11EB));
        let mut rng = StdRng::seed_from_u64(mix);
        rng.random_bool(self.false_positive_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_detector_records_and_reports() {
        let fd = SharedFailureDetector::new();
        let a = NodeId::new(1);
        assert!(!fd.is_failed(a, 0));
        fd.mark_failed(a, 7);
        assert!(fd.is_failed(a, 0));
        assert_eq!(fd.failure_round(a), Some(7));
        assert_eq!(fd.failed_count(), 1);
        assert!(fd.failed_ids().contains(&a));
        fd.clear(a);
        assert!(!fd.is_failed(a, 99));
    }

    #[test]
    fn first_failure_round_wins() {
        let fd = SharedFailureDetector::new();
        fd.mark_failed(NodeId::new(1), 5);
        fd.mark_failed(NodeId::new(1), 9);
        assert_eq!(fd.failure_round(NodeId::new(1)), Some(5));
    }

    #[test]
    fn clone_shares_state() {
        let fd = SharedFailureDetector::new();
        let fd2 = fd.clone();
        fd.mark_failed(NodeId::new(3), 0);
        assert!(fd2.is_failed(NodeId::new(3), 0));
    }

    #[test]
    fn failed_among_filters() {
        let fd = SharedFailureDetector::new();
        fd.mark_failed(NodeId::new(2), 0);
        let out = fd.failed_among(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)], 0);
        assert_eq!(out, vec![NodeId::new(2)]);
    }

    #[test]
    fn delayed_detector_lags() {
        let truth = SharedFailureDetector::new();
        let fd = DelayedFailureDetector::new(truth.clone(), 3);
        let a = NodeId::new(1);
        truth.mark_failed(a, 10);
        assert!(!fd.is_failed(a, 10));
        assert!(!fd.is_failed(a, 12));
        assert!(fd.is_failed(a, 13));
        assert_eq!(fd.delay(), 3);
    }

    #[test]
    fn delayed_detector_never_suspects_alive() {
        let truth = SharedFailureDetector::new();
        let fd = DelayedFailureDetector::new(truth, 0);
        assert!(!fd.is_failed(NodeId::new(1), 1000));
    }

    #[test]
    fn flaky_detector_is_deterministic_per_round() {
        let truth = SharedFailureDetector::new();
        let fd = FlakyFailureDetector::new(truth, 0.5, 42);
        let a = NodeId::new(17);
        for round in 0..20 {
            assert_eq!(fd.is_failed(a, round), fd.is_failed(a, round));
        }
    }

    #[test]
    fn flaky_detector_rate_zero_is_perfect() {
        let truth = SharedFailureDetector::new();
        let fd = FlakyFailureDetector::new(truth.clone(), 0.0, 1);
        for round in 0..50 {
            assert!(!fd.is_failed(NodeId::new(5), round));
        }
        truth.mark_failed(NodeId::new(5), 3);
        assert!(fd.is_failed(NodeId::new(5), 3));
    }

    #[test]
    fn flaky_detector_actually_suspects_sometimes() {
        let truth = SharedFailureDetector::new();
        let fd = FlakyFailureDetector::new(truth, 0.5, 7);
        let suspected = (0..200)
            .filter(|&r| fd.is_failed(NodeId::new(1), r))
            .count();
        // With p = 0.5 over 200 rounds, hitting 0 or 200 is astronomically
        // unlikely; this catches "always false" and "always true" bugs.
        assert!(suspected > 20 && suspected < 180);
    }

    #[test]
    #[should_panic(expected = "false positive rate")]
    fn flaky_detector_rejects_bad_rate() {
        let _ = FlakyFailureDetector::new(SharedFailureDetector::new(), 1.5, 0);
    }

    #[test]
    fn table_answers_for_ids_it_has_never_seen() {
        let mut known = FailureTable::new();
        assert!(!known.is_failed(NodeId::new(0)));
        assert!(!known.is_failed(NodeId::new(u64::MAX)));
        known.mark(NodeId::new(3));
        known.mark(NodeId::new(3));
        assert!(known.is_failed(NodeId::new(3)));
        for other in [0, 1, 2, 4, 5, 1 << 40] {
            assert!(!known.is_failed(NodeId::new(other)), "n{other}");
        }
        // Marking below the high-water mark must not disturb it.
        known.mark(NodeId::new(1));
        assert!(known.is_failed(NodeId::new(1)) && known.is_failed(NodeId::new(3)));
        assert!(!known.is_failed(NodeId::new(2)));
    }

    mod table_properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            /// The table is the `BTreeSet<NodeId>` it replaced: after any
            /// prefix of a mark script — ids in any order, repeated, well
            /// past anything marked so far — both answer alike on every id
            /// around the marked range.
            #[test]
            fn table_is_the_set_it_replaced(marks in proptest::collection::vec(0u64..600, 0..80)) {
                let mut known = FailureTable::new();
                let mut oracle = BTreeSet::new();
                for &raw in &marks {
                    known.mark(NodeId::new(raw));
                    oracle.insert(NodeId::new(raw));
                    for probe in (0..640).map(NodeId::new) {
                        prop_assert_eq!(known.is_failed(probe), oracle.contains(&probe));
                    }
                }
            }
        }
    }
}
