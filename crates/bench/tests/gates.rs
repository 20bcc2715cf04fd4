//! Allocation and heap gates: a counting global allocator asserts on
//! the *count* of heap allocations a steady-state round makes and on the
//! bytes a 256-node fabric holds per node, on the cycle engine and on the
//! event kernel.
//!
//! Every reading is seeded and deterministic, the same in debug and
//! release builds, so the gates run with the rest of the suite. They are
//! printed once every window has closed: a `println!` inside one would
//! grow libtest's capture buffer (or stdout's) in the middle of the
//! measurement.

use polystyrene_lab::TrafficLoad;
use polystyrene_netsim::prelude::{LinkProfile, NetSim, SubstrateConfig};
use polystyrene_sim::prelude::Engine;
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter and a live-byte
/// gauge, so the gates below can assert on the *count* of heap
/// allocations a round makes and on the bytes a fabric holds, not just
/// time them.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are relaxed atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a gate read, and its bound.
type Reading = (u64, u64);

/// Steady-state allocation gate for the event kernel's activation loop.
///
/// After warm-up, a netsim round should allocate almost nothing: the
/// kernel's machinery (calendar event queue, effect sink, dispatch
/// queue, activation order, measurement tables) is reusable scratch,
/// and since the payload pool landed the wire messages' descriptor and
/// point vectors recycle through `EffectSink`'s `BufPool` too. What
/// remains is protocol-internal churn that genuinely varies per round
/// (split/merge working sets): 153 allocations per round at 256 nodes,
/// the same on every run, core count and build profile (seeded, below
/// the fan-out threshold of `polystyrene_protocol::par` and the
/// kernel's own, so nothing fans out). The gate is that reading, so one
/// allocation more per round fails it. The peer-sampling merge's two
/// per node-round once read 630, and per-message payload allocations
/// about 5 700 before the pool.
///
/// The rounds carry a live query workload: the traffic hot path —
/// batched offers, pooled `QueryBatch` envelopes, per-hop forwarding
/// scratch, the drain — must stay inside the same budget as a quiet
/// round, or batching has regressed into per-query allocation.
fn assert_netsim_steady_state_allocations(
    sim: &mut NetSim<Torus2>,
    load: &mut TrafficLoad<[f64; 2]>,
) -> Reading {
    const ROUNDS: u64 = 8;
    const PER_ROUND_BOUND: u64 = 153;
    let mut samples: Vec<(u32, u64)> = Vec::with_capacity(1024);
    // One loaded warm-up round: the workload's own scratch, the query
    // pool and the per-gateway grouping buffers reach steady capacity.
    let ttl = load.ttl();
    sim.offer_traffic(load.next_round(), ttl);
    sim.step();
    let _ = sim.drain_traffic(&mut samples);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        samples.clear();
        let ttl = load.ttl();
        sim.offer_traffic(load.next_round(), ttl);
        sim.step();
        let _ = sim.drain_traffic(&mut samples);
    }
    let per_round = (ALLOCATIONS.load(Ordering::Relaxed) - before) / ROUNDS;
    assert!(
        per_round <= PER_ROUND_BOUND,
        "netsim activation loop allocated {per_round} times per steady-state round \
         (bound {PER_ROUND_BOUND}): protocol/kernel hot-path allocations have regressed"
    );
    (per_round, PER_ROUND_BOUND)
}

/// Steady-state allocation gate for the cycle engine's round loop —
/// the same budget idea as the netsim gate, on the slab-pooled engine.
///
/// The engine's round machinery (slab phase pipeline, dispatch queue,
/// metric tables) reuses its scratch, and the protocol payloads recycle
/// through the sink's pool, so a steady-state round at 256 nodes is
/// down to protocol-internal churn: 321 allocations per round, and the
/// gate is that reading, exact as in the netsim gate. With the
/// peer-sampling merge's two per node-round it read 836, and ~6 000
/// before the pool. As in the netsim gate, every measured round serves
/// a live query workload inside the same budget.
fn assert_engine_steady_state_allocations(
    engine: &mut Engine<Torus2>,
    load: &mut TrafficLoad<[f64; 2]>,
) -> Reading {
    const ROUNDS: u64 = 8;
    const PER_ROUND_BOUND: u64 = 321;
    let mut samples: Vec<(u32, u64)> = Vec::with_capacity(1024);
    let ttl = load.ttl();
    engine.offer_traffic(load.next_round(), ttl);
    engine.step();
    let _ = engine.drain_traffic(&mut samples);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        samples.clear();
        let ttl = load.ttl();
        engine.offer_traffic(load.next_round(), ttl);
        engine.step();
        let _ = engine.drain_traffic(&mut samples);
    }
    let per_round = (ALLOCATIONS.load(Ordering::Relaxed) - before) / ROUNDS;
    assert!(
        per_round <= PER_ROUND_BOUND,
        "engine round loop allocated {per_round} times per steady-state round \
         (bound {PER_ROUND_BOUND}): protocol/engine hot-path allocations have regressed"
    );
    (per_round, PER_ROUND_BOUND)
}

/// Footprint gate: the heap a 256-node fabric holds per node, 24 rounds
/// in, at the paper's view sizes (T-Man 100, peer sampling 20). By then
/// every view is full and replication has settled at 1 + K points, so
/// what is live is the steady state a 100k-node run multiplies. The two
/// gossip views are the largest part of it: 2 400 + 480 bytes of 24-byte
/// descriptors when allocated at their caps, 3 840 + 768 when left to
/// double their way there (at 32-byte descriptors doubled views added
/// 2 265 on the engine and 2 357 on the kernel). Measured: engine
/// 4 035, netsim 5 375 bytes/node (the kernel adds its event slab,
/// payload pool, staging buffers and every node's rng). With 64-bit
/// node ids, 32-byte descriptors, they read 5 005 and 6 616. Each bound
/// is the midpoint of those two readings, so a widened id fails here,
/// and a view that carries slack, per-peer custody buffers (5 922 and
/// 7 384 before the run tables) or a calendar queue that keeps one
/// deque per tick (9 911 on the kernel) fail long before. The custody
/// state is the next part after the views: ghosts and backup records
/// sit in two run tables per node, four heap blocks of about 64, 96, 64
/// and 32 bytes at K = 4. The gauge is
/// process-wide, which is safe at this size: 256 nodes run inline, below
/// the threshold of `polystyrene_protocol::par`, and no 256-node wave is wide enough for a second
/// kernel lane (asserted below), so no worker thread (nor its
/// thread-local scratch) is born inside the window, and the readings
/// repeat to the byte on any number of cores but for the 256 bytes of
/// each idle `Lane`.
///
/// Those figures were read under a bench harness. Here the engine's
/// window is the first the test thread opens, so it also holds that
/// thread's one-time scratch (the ranking keys, the peer-sampling index
/// permutation and the dedup id set: about 3.9 KB, 15 bytes per node,
/// at full size), most of which the harness's earlier kernels had grown
/// on the same thread before its window opened. The engine reads 4 040
/// here (4 456 after the catastrophe), 5 to 6 bytes per node more; the
/// kernel, measured after the engine, reads the same 5 375.
fn assert_live_heap_per_node(substrate: &str, live_before: u64, nodes: u64, bound: u64) -> Reading {
    let per_node = live_heap_per_node(live_before, nodes);
    assert!(
        per_node <= bound,
        "{substrate} holds {per_node} heap bytes per node after 24 rounds (bound {bound}): \
         per-node state, most likely a gossip view, is carrying slack capacity again"
    );
    (per_node, bound)
}

fn live_heap_per_node(live_before: u64, nodes: u64) -> u64 {
    LIVE_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(live_before)
        / nodes
}

/// Footprint gate after the paper's catastrophe on the same engine:
/// half the torus (`x >= 16`) crashes, 8 rounds reshape, fresh nodes
/// join at the dead half's founding positions and 8 more rounds absorb
/// them. The survivors' recovery spike passes through every custody
/// structure — reactivated ghosts, the fat replicas pushed to the
/// backups, their delta records. Measured: 4 450 bytes/node (the
/// traffic load built since the first gate included; 5 450 with 64-bit
/// node ids). With run tables that keep the capacity of that spike it
/// reads 4 608, with per-peer B-tree custody 6 358 at 64-bit ids; the
/// bound is the midpoint of the first two, so spike capacity that is
/// never given back fails here rather than in resident megabytes at
/// scale.
fn assert_post_catastrophe_heap_per_node(engine: &mut Engine<Torus2>, live_before: u64) -> Reading {
    const BOUND: u64 = 4_529;
    let dead_half = |p: &[f64; 2]| p[0] >= 16.0;
    engine.fail_original_region(&dead_half);
    engine.run(8);
    let refill: Vec<[f64; 2]> = shapes::torus_grid(32, 8, 1.0)
        .into_iter()
        .filter(dead_half)
        .collect();
    engine.inject(&refill);
    engine.run(8);
    assert_eq!(engine.alive_count(), 256);
    let per_node = live_heap_per_node(live_before, 256);
    assert!(
        per_node <= BOUND,
        "engine holds {per_node} heap bytes per node after a kill, reshape and re-inject \
         (bound {BOUND}): per-node state is keeping capacity from the recovery spike"
    );
    (per_node, BOUND)
}

/// The engine's gates in the order they run: live heap per node, then
/// allocations per round, then live heap after the catastrophe.
fn engine_gates() -> [Reading; 3] {
    let mut cfg = SubstrateConfig::default();
    cfg.area = 256.0;
    cfg.seed = 21;
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut engine = Engine::new(Torus2::new(32.0, 8.0), shapes::torus_grid(32, 8, 1.0), cfg);
    // Warm-up: views fill, slabs and scratch reach steady capacities.
    engine.run(24);
    let heap = assert_live_heap_per_node("engine", live_before, 256, 4_520);
    let mut load = TrafficLoad::new(shapes::torus_grid(32, 8, 1.0), 32, 0.9, 16, 21);
    let allocations = assert_engine_steady_state_allocations(&mut engine, &mut load);
    let recovered = assert_post_catastrophe_heap_per_node(&mut engine, live_before);
    [heap, allocations, recovered]
}

/// The event kernel's gates in the order they run: live heap per node,
/// then allocations per round.
fn netsim_gates() -> [Reading; 2] {
    let mut cfg = SubstrateConfig::default();
    cfg.area = 256.0;
    cfg.seed = 21;
    cfg.link = LinkProfile {
        latency: 2,
        jitter: 1,
        loss: 0.05,
    };
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut sim = NetSim::new(Torus2::new(32.0, 8.0), shapes::torus_grid(32, 8, 1.0), cfg);
    // Warm-up: views fill, the event queue and kernel scratch reach
    // their steady capacities.
    sim.run(24);
    let heap = assert_live_heap_per_node("netsim", live_before, 256, 5_996);
    assert_eq!(sim.parallel_runs(), 0, "a 256-node run fanned out");
    let mut load = TrafficLoad::new(shapes::torus_grid(32, 8, 1.0), 32, 0.9, 16, 21);
    let allocations = assert_netsim_steady_state_allocations(&mut sim, &mut load);
    assert_eq!(sim.parallel_runs(), 0, "a loaded 256-node run fanned out");
    [heap, allocations]
}

#[test]
fn steady_state_allocations_and_live_heap_stay_within_their_gates() {
    let [engine_heap, engine_allocations, engine_recovered] = engine_gates();
    let [netsim_heap, netsim_allocations] = netsim_gates();
    for (gate, (reading, bound)) in [
        ("engine live heap, bytes/node after 24 rounds", engine_heap),
        ("engine steady-state allocations/round", engine_allocations),
        (
            "engine live heap, bytes/node after the catastrophe",
            engine_recovered,
        ),
        ("netsim live heap, bytes/node after 24 rounds", netsim_heap),
        ("netsim steady-state allocations/round", netsim_allocations),
    ] {
        println!("{gate}: {reading} (bound {bound})");
    }
}
