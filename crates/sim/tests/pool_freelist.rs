//! Property coverage for the engine's [`NodePool`]: arbitrary
//! interleavings of joins, kills and position migrations, checked
//! against a boxed-layout oracle — the id-indexed `Vec<Option<…>>` the
//! engine stored its population in before the slab refactor.
//!
//! The two invariants the free list must never lose:
//!
//! * **No resurrection.** A recycled slot must be unreachable through any
//!   dead id: generation ids are bumped on every free, so the stale
//!   `SlotRef` a dead id held can never alias the slot's new occupant —
//!   neither the node nor its entry in the position slab.
//! * **Boxed arithmetic.** Ids, populations, and the sorted alive list
//!   must match the boxed layout exactly — that equivalence is what lets
//!   the slab swap under the engine without re-pinning a single golden
//!   history fingerprint.

use polystyrene::prelude::{DataPoint, PointId, PolyState};
use polystyrene_membership::NodeId;
use polystyrene_protocol::pool::NodePool;
use polystyrene_protocol::{ProtocolConfig, ProtocolNode};
use polystyrene_space::prelude::Torus2;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of the churn script. Selector values are reduced modulo the
/// current population (or id space) when the op applies.
#[derive(Clone, Debug)]
enum Op {
    /// Spawn a node at `[x, 0]`.
    Join { x: f64 },
    /// Kill the `sel`-th alive node (no-op on an empty pool).
    Kill { sel: usize },
    /// Kill an id that is already dead or never issued — must be a no-op.
    KillDead { sel: usize },
    /// Move the `sel`-th alive node to `[x, 0]` and publish the slab.
    Migrate { sel: usize, x: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..1024, 0.0..64.0f64).prop_map(|(tag, sel, x)| match tag {
        0..=2 => Op::Join { x },
        3 | 4 => Op::Kill { sel },
        5 => Op::KillDead { sel },
        _ => Op::Migrate { sel, x },
    })
}

fn spawn(pool: &mut NodePool<Torus2>, x: f64) -> NodeId {
    pool.insert_with(|id| {
        ProtocolNode::new(
            id,
            Torus2::new(64.0, 64.0),
            ProtocolConfig::default(),
            PolyState::with_initial_point(DataPoint::new(PointId::new(id.as_u64()), [x, 0.0])),
            Vec::new(),
            Vec::new(),
        )
    })
}

proptest! {
    #[test]
    fn churn_scripts_preserve_the_boxed_layout_arithmetic(
        ops in vec(op_strategy(), 1..120)
    ) {
        let mut pool: NodePool<Torus2> = NodePool::new();
        // The boxed oracle: id-indexed, holes forever, position as
        // payload. `None` = dead (or, below the length, never alive).
        let mut boxed: Vec<Option<f64>> = Vec::new();
        // Last generation seen per slot, to check monotonicity across
        // every recycle.
        let mut last_gen: HashMap<u32, u32> = HashMap::new();
        let mut peak_alive = 0usize;

        for op in ops {
            match op {
                Op::Join { x } => {
                    let expected = NodeId::new(boxed.len() as u64);
                    prop_assert_eq!(pool.peek_next_id(), expected);
                    let id = spawn(&mut pool, x);
                    prop_assert_eq!(id, expected, "ids issue monotonically, never recycled");
                    boxed.push(Some(x));
                    let handle = pool.slot_ref(id).expect("fresh node has a live handle");
                    match last_gen.get(&handle.slot) {
                        // A recycled slot must come back under a strictly
                        // newer generation than any earlier occupancy.
                        Some(&g) => prop_assert!(handle.gen > g, "gen {} !> {}", handle.gen, g),
                        None => prop_assert_eq!(handle.gen, 0, "fresh slots start at gen 0"),
                    }
                    last_gen.insert(handle.slot, handle.gen);
                    prop_assert_eq!(pool.position(id), Some(&[x, 0.0]));
                }
                Op::Kill { sel } => {
                    if pool.alive_count() == 0 {
                        continue;
                    }
                    let id = pool.alive_ids()[sel % pool.alive_count()];
                    prop_assert!(pool.remove(id).is_some());
                    boxed[id.index()] = None;
                    prop_assert!(pool.get(id).is_none());
                    prop_assert!(pool.position(id).is_none());
                    prop_assert!(pool.slot_ref(id).is_none(), "stale handle must die");
                }
                Op::KillDead { sel } => {
                    let id = NodeId::new(sel as u64);
                    if boxed.get(id.index()).copied().flatten().is_none() {
                        prop_assert!(pool.remove(id).is_none(), "dead kill is a no-op");
                    }
                }
                Op::Migrate { sel, x } => {
                    if pool.alive_count() == 0 {
                        continue;
                    }
                    let id = pool.alive_ids()[sel % pool.alive_count()];
                    pool.get_mut(id).unwrap().poly.pos = [x, 0.0];
                    pool.sync_positions();
                    boxed[id.index()] = Some(x);
                }
            }

            // Population arithmetic against the boxed oracle, every step.
            let oracle_alive: Vec<NodeId> = boxed
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.map(|_| NodeId::new(i as u64)))
                .collect();
            prop_assert_eq!(pool.alive_count(), oracle_alive.len());
            prop_assert_eq!(pool.alive_ids(), oracle_alive.as_slice(), "sorted alive list");
            peak_alive = peak_alive.max(oracle_alive.len());
            prop_assert!(
                pool.slot_count() <= peak_alive,
                "storage bounded by peak population ({} slots > {} peak)",
                pool.slot_count(),
                peak_alive
            );

            // No aliasing through any id ever issued: alive ids read
            // their own node and slab cell, dead ids read nothing.
            for (i, cell) in boxed.iter().enumerate() {
                let id = NodeId::new(i as u64);
                match cell {
                    Some(x) => {
                        prop_assert_eq!(pool.get(id).expect("oracle-alive").id(), id);
                        prop_assert_eq!(pool.position(id), Some(&[*x, 0.0]));
                    }
                    None => {
                        prop_assert!(pool.get(id).is_none(), "dead id {} resurrected", i);
                        prop_assert!(pool.position(id).is_none());
                    }
                }
            }
        }
    }
}
