//! Property coverage for the event kernel's slab storage: arbitrary
//! interleavings of injects, crashes, dead-id crashes and simulated
//! rounds, checked against a boxed-map oracle — the netsim port of the
//! engine's `pool_freelist` suite.
//!
//! The kernel adds what the bare pool test cannot exercise: slots are
//! recycled *while messages routed by dead ids are still in flight* (the
//! link latency spans multiple rounds), so a delivery addressed to a dead
//! node must evaporate rather than reach the recycled slot's new
//! occupant, and a [`SlotRef`] taken before a crash must stay dead across
//! any number of reuses of its slot.

use polystyrene_membership::NodeId;
use polystyrene_netsim::prelude::*;
use polystyrene_protocol::pool::SlotRef;
use polystyrene_space::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of the churn script. Selector values are reduced modulo the
/// current population (or id space) when the op applies.
#[derive(Clone, Debug)]
enum Op {
    /// Inject a fresh empty node at `[x, 1.0]`.
    Inject { x: f64 },
    /// Crash the `sel`-th alive node (keeps at least one node alive).
    Crash { sel: usize },
    /// Crash an id that is dead or never issued — must report `false`.
    CrashDead { sel: usize },
    /// Run one full simulated round (activations, deliveries, drops).
    Step,
    /// Probe the `sel`-th alive node through every read surface.
    Probe { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..1024, 0.0..8.0f64).prop_map(|(tag, sel, x)| match tag {
        0 | 1 => Op::Inject { x },
        2..=4 => Op::Crash { sel },
        5 => Op::CrashDead { sel },
        6 | 7 => Op::Step,
        _ => Op::Probe { sel },
    })
}

fn sim_under_churn() -> NetSim<Torus2> {
    let mut cfg = NetSimConfig::default();
    cfg.area = 32.0;
    cfg.seed = 0xC0FFEE;
    // Latency longer than a round keeps deliveries in flight across the
    // crash/inject ops between steps — the slot-reuse hazard window.
    cfg.link = LinkProfile {
        latency: cfg.ticks_per_round + 2,
        jitter: 3,
        loss: 0.02,
    };
    cfg.detection_delay_ticks = cfg.ticks_per_round;
    NetSim::new(Torus2::new(8.0, 4.0), shapes::torus_grid(8, 4, 1.0), cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn churn_scripts_preserve_the_boxed_layout_arithmetic(
        ops in vec(op_strategy(), 1..40)
    ) {
        let mut sim = sim_under_churn();
        // The boxed oracle: id → position-at-injection, exactly the map
        // a `Vec<Option<…>>` layout would answer liveness from.
        let mut oracle: BTreeMap<NodeId, [f64; 2]> =
            sim.alive_ids().iter().map(|&id| {
                (id, sim.poly_state(id).expect("alive").pos)
            }).collect();
        let mut next_id = oracle.len() as u64;
        // Handles taken just before each crash: must stay dead forever,
        // across any number of recycles of their slot.
        let mut stale: Vec<(NodeId, SlotRef)> = Vec::new();
        let mut peak_alive = oracle.len();

        for op in ops {
            match op {
                Op::Inject { x } => {
                    let fresh = sim.inject(&[[x, 1.0]]);
                    prop_assert_eq!(&fresh, &[NodeId::new(next_id)],
                        "ids issue monotonically, never recycled");
                    oracle.insert(fresh[0], [x, 1.0]);
                    next_id += 1;
                }
                Op::Crash { sel } => {
                    // Keep one node alive: the kernel's metrics treat an
                    // extinct population as a degenerate case and the
                    // protocol needs someone to gossip with.
                    if sim.alive_count() <= 1 {
                        continue;
                    }
                    let id = sim.alive_ids()[sel % sim.alive_count()];
                    let handle = sim.pool.slot_ref(id).expect("alive handle");
                    prop_assert!(sim.crash(id));
                    oracle.remove(&id);
                    stale.push((id, handle));
                    prop_assert!(sim.poly_state(id).is_none());
                    prop_assert!(sim.pool.slot_ref(id).is_none(), "handle must die");
                }
                Op::CrashDead { sel } => {
                    let id = NodeId::new(sel as u64);
                    if !oracle.contains_key(&id) {
                        prop_assert!(!sim.crash(id), "dead crash is a no-op");
                    }
                }
                Op::Step => {
                    // Deliveries to crashed ids evaporate inside; any
                    // cross-talk into a recycled slot would corrupt the
                    // oracle arithmetic checked below.
                    sim.step();
                }
                Op::Probe { sel } => {
                    if sim.alive_count() == 0 {
                        continue;
                    }
                    let id = sim.alive_ids()[sel % sim.alive_count()];
                    prop_assert!(sim.poly_state(id).is_some());
                    let handle = sim.pool.slot_ref(id).expect("alive handle");
                    prop_assert_eq!(sim.pool.slot_of(id), Some(handle.slot as usize));
                    prop_assert_eq!(sim.pool.get(id).expect("alive").id(), id);
                }
            }

            // Population arithmetic against the boxed oracle, every step.
            let oracle_alive: Vec<NodeId> = oracle.keys().copied().collect();
            prop_assert_eq!(sim.alive_count(), oracle_alive.len());
            prop_assert_eq!(sim.alive_ids(), oracle_alive.as_slice(), "sorted alive list");
            peak_alive = peak_alive.max(oracle_alive.len());
            prop_assert!(
                sim.pool.slot_count() <= peak_alive,
                "storage bounded by peak population ({} slots > {} peak)",
                sim.pool.slot_count(),
                peak_alive
            );

            // Stale handles across slot reuse: the dead id answers
            // nothing, and if its old slot is occupied again the new
            // occupant holds a strictly newer generation.
            for &(dead, old) in &stale {
                prop_assert!(sim.pool.slot_ref(dead).is_none(), "resurrected handle");
                prop_assert!(sim.poly_state(dead).is_none());
                prop_assert!(!oracle.contains_key(&dead));
                if let Some(node) = sim.pool.slots()[old.slot as usize].as_ref() {
                    let current = sim.pool.slot_ref(node.id()).expect("occupant alive");
                    prop_assert_eq!(current.slot, old.slot);
                    prop_assert!(
                        current.gen > old.gen,
                        "slot {} reused without a generation bump",
                        old.slot
                    );
                }
            }
        }
    }
}
