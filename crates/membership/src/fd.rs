//! Failure knowledge for the single-threaded drivers.
//!
//! The paper's system model assumes "a crash-stop fault model: nodes fail
//! by crashing, and do not recover. We also assume nodes have access to a
//! (possibly imperfect) failure detector" (Sec. III-A).
//!
//! The cycle engine and the netsim kernel own a [`FailureTable`], the
//! dense set of crashes their population currently knows about, and hand
//! the protocol a closure over it. The live clusters use the protocol's
//! own heartbeat detector instead (`ProtocolNode::suspects` in the
//! protocol crate), which is the imperfect one: it can suspect a live
//! node whose heartbeats were lost.

use crate::id::NodeId;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_answers_for_ids_it_has_never_seen() {
        let mut known = FailureTable::new();
        assert!(!known.is_failed(NodeId::new(0)));
        assert!(!known.is_failed(NodeId::new(u64::from(u32::MAX))));
        known.mark(NodeId::new(3));
        known.mark(NodeId::new(3));
        assert!(known.is_failed(NodeId::new(3)));
        for other in [0, 1, 2, 4, 5, 1 << 31] {
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
