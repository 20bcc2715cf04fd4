//! Microbenchmarks of the algorithmic kernels: medoid projection,
//! diameter heuristics, split functions, and single gossip exchanges.
//!
//! These quantify the cost trade-offs the paper discusses qualitatively:
//! the O(n²) medoid/diameter vs their sampled approximations
//! (Sec. III-F), and the per-exchange price of each `SPLIT` variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polystyrene::prelude::*;
use polystyrene_lab::TrafficLoad;
use polystyrene_membership::{Descriptor, FailureTable, NodeId};
use polystyrene_netsim::prelude::{LinkProfile, NetSim, NetSimConfig};
use polystyrene_protocol::{EffectSink, Event, ProtocolConfig, ProtocolNode, Wire};
use polystyrene_sim::prelude::{Engine, EngineConfig};
use polystyrene_space::diameter::{diameter_exact, diameter_sampled, diameter_two_sweep};
use polystyrene_space::medoid::{medoid_index, medoid_index_sampled};
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;
use polystyrene_space::MetricSpace;
use polystyrene_topology::rank::{choose_ranked, k_closest_ids_into};
use polystyrene_topology::{tman_exchange, TMan, TManConfig, TopologyConstruction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
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

fn random_points(n: usize, seed: u64) -> Vec<[f64; 2]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| [rng.random_range(0.0..80.0), rng.random_range(0.0..40.0)])
        .collect()
}

fn random_datapoints(n: usize, seed: u64) -> Vec<DataPoint<[f64; 2]>> {
    random_points(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(PointId::new(i as u64), p))
        .collect()
}

fn bench_medoid(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let mut group = c.benchmark_group("medoid");
    for &n in &[4usize, 16, 64, 256] {
        let pts = random_points(n, 1);
        group.bench_with_input(BenchmarkId::new("exact", n), &pts, |b, pts| {
            b.iter(|| medoid_index(&space, pts));
        });
        group.bench_with_input(BenchmarkId::new("sampled16", n), &pts, |b, pts| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| medoid_index_sampled(&space, pts, 16, &mut rng));
        });
    }
    group.finish();
}

fn bench_diameter(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let mut group = c.benchmark_group("diameter");
    for &n in &[16usize, 64, 256] {
        let pts = random_points(n, 3);
        group.bench_with_input(BenchmarkId::new("exact", n), &pts, |b, pts| {
            b.iter(|| diameter_exact(&space, pts));
        });
        group.bench_with_input(BenchmarkId::new("sampled4n", n), &pts, |b, pts| {
            let mut rng = StdRng::seed_from_u64(4);
            b.iter(|| diameter_sampled(&space, pts, pts.len() * 4, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("two_sweep", n), &pts, |b, pts| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| diameter_two_sweep(&space, pts, &mut rng));
        });
    }
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let mut group = c.benchmark_group("split");
    for &n in &[8usize, 40, 120] {
        let pts = random_datapoints(n, 7);
        for strategy in SplitStrategy::ALL {
            group.bench_with_input(BenchmarkId::new(strategy.name(), n), &pts, |b, pts| {
                let mut rng = StdRng::seed_from_u64(8);
                b.iter(|| {
                    split(
                        &space,
                        strategy,
                        pts.clone(),
                        &[10.0, 10.0],
                        &[60.0, 30.0],
                        30,
                        &mut rng,
                    )
                });
            });
        }
    }
    group.finish();
}

fn bench_migration_exchange(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let cfg = PolystyreneConfig::default();
    let mut group = c.benchmark_group("migration_exchange");
    for &n in &[2usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(9);
            let pts = random_datapoints(n, 10);
            b.iter(|| {
                let mut p: PolyState<[f64; 2]> = PolyState::empty_at([0.0, 0.0]);
                let mut q: PolyState<[f64; 2]> = PolyState::empty_at([40.0, 20.0]);
                p.absorb_guests(pts[..n / 2].to_vec());
                q.absorb_guests(pts[n / 2..].to_vec());
                migrate_exchange(&space, &cfg, &mut p, &mut q, &mut rng)
            });
        });
    }
    group.finish();
}

fn bench_tman_exchange(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let mut group = c.benchmark_group("tman_exchange");
    group.bench_function("view100_m20", |b| {
        let config = TManConfig::default();
        let mut a = TMan::new(space, config);
        let mut q = TMan::new(space, config);
        let pts = random_points(100, 11);
        let descs: Vec<Descriptor<[f64; 2]>> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| Descriptor::new(NodeId::new(i as u64 + 10), p))
            .collect();
        a.integrate(NodeId::new(0), &[0.0, 0.0], &descs[..50]);
        q.integrate(NodeId::new(1), &[40.0, 20.0], &descs[50..]);
        b.iter(|| {
            tman_exchange(
                &mut a,
                Descriptor::new(NodeId::new(0), [0.0, 0.0]),
                &mut q,
                Descriptor::new(NodeId::new(1), [40.0, 20.0]),
            )
        });
    });
    group.finish();
}

/// How many distinct views the per-view-entry benches cycle through. One
/// 100-entry view replayed in a loop teaches the branch predictor its
/// two hundred sign outcomes; real node-rounds never see the same view
/// twice in a row. 64 views of 100 entries is 100 KB of coordinates —
/// out of L1, inside L2, like a node's working set mid-round.
const VIEWS: usize = 64;

/// A position and the 100-entry view ranked from it.
type RankedView = ([f64; 2], Vec<Descriptor<[f64; 2]>>);

/// `VIEWS` shuffled 100-entry views over the paper's 80×40 torus.
fn shuffled_views(seed: u64) -> Vec<RankedView> {
    (0..VIEWS as u64)
        .map(|v| {
            let mut points = random_points(101, seed.wrapping_mul(1000) + v).into_iter();
            let own = points.next().expect("101 points drawn");
            let view = points
                .zip(v * 100 + 1..)
                .map(|(p, id)| Descriptor::new(NodeId::new(id), p))
                .collect();
            (own, view)
        })
        .collect()
}

/// The per-view-entry distance kernel and the two ranking passes built
/// on it (partner pick: `choose_ranked` at ψ = 5; backup/migration
/// candidates: `k_closest_ids_into`), per 100-entry view. Entries sit
/// uniformly around the ranking position, so the sign of each axis
/// difference — the branch the torus kernel no longer takes — is a coin
/// flip.
fn bench_torus_distance_pass(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let views = shuffled_views(12);
    let mut group = c.benchmark_group("torus_distance_pass");
    group.bench_function("distance_sq/view100", |b| {
        let mut at = 0;
        b.iter(|| {
            let (own, view) = &views[at % VIEWS];
            at += 1;
            view.iter()
                .map(|d| space.distance_sq(own, &d.pos))
                .sum::<f64>()
        });
    });
    group.bench_function("choose_ranked/view100_psi5", |b| {
        let mut at = 0;
        b.iter(|| {
            let (own, view) = &views[at % VIEWS];
            at += 1;
            choose_ranked(&space, own, view, 5, |n| n - 1)
        });
    });
    group.bench_function("k_closest_ids/view100_k20", |b| {
        let mut at = 0;
        let mut out = Vec::with_capacity(20);
        b.iter(|| {
            let (own, view) = &views[at % VIEWS];
            at += 1;
            out.clear();
            k_closest_ids_into(&space, own, view, 20, &mut out);
            out.len()
        });
    });
    group.finish();
}

/// One query hop at a node holding a 100-entry view: the `Wire::Query`
/// event end to end — greedy next-hop scan over the view, then the
/// forward (or terminal reply) effect.
fn bench_greedy_next_hop(c: &mut Criterion) {
    let space = Torus2::new(80.0, 40.0);
    let nodes: Vec<ProtocolNode<Torus2>> = shuffled_views(13)
        .into_iter()
        .enumerate()
        .map(|(v, (own, view))| {
            ProtocolNode::new(
                NodeId::new(1_000_000 + v as u64),
                space,
                ProtocolConfig::default(),
                PolyState::empty_at(own),
                Vec::new(),
                view,
            )
        })
        .collect();
    let keys = random_points(VIEWS * 4 + 1, 14);
    let mut nodes = nodes;
    let mut rng = StdRng::seed_from_u64(15);
    let mut sink = EffectSink::new();
    let mut group = c.benchmark_group("greedy_next_hop");
    group.bench_function("query_event/view100", |b| {
        let mut at = 0usize;
        b.iter(|| {
            let node = &mut nodes[at % VIEWS];
            let key = keys[at % keys.len()];
            at += 1;
            sink.clear();
            node.on_event_into(
                Event::Message {
                    from: NodeId::new(0),
                    wire: Wire::Query {
                        qid: at as u64,
                        origin: NodeId::new(0),
                        key,
                        ttl: 16,
                        hops: 1,
                    },
                },
                &mut rng,
                &mut sink,
            );
            sink.len()
        });
    });
    group.finish();
}

/// The failure check every protocol phase makes once per view entry,
/// through the `&dyn Fn(NodeId) -> bool` the protocol takes it as:
/// 100 lookups against the knowledge of a 3200-node population after the
/// half-torus kill (1600 known crashes). `btree_set` is the structure the
/// netsim kernel kept before the dense table.
fn bench_failure_lookup(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(16);
    let views: Vec<Vec<NodeId>> = (0..VIEWS)
        .map(|_| {
            (0..100)
                .map(|_| NodeId::new(rng.random_range(0..3200)))
                .collect()
        })
        .collect();
    let dead = (0..3200u64).filter(|i| i % 80 >= 40).map(NodeId::new);
    let mut table = FailureTable::new();
    let mut set = std::collections::BTreeSet::new();
    for id in dead {
        table.mark(id);
        set.insert(id);
    }
    let scan = |views: &[Vec<NodeId>], at: usize, fd: &dyn Fn(NodeId) -> bool| {
        views[at % VIEWS].iter().filter(|&&id| fd(id)).count()
    };
    let mut group = c.benchmark_group("failure_lookup");
    group.bench_function("table/view100_dead1600", |b| {
        let mut at = 0;
        b.iter(|| {
            at += 1;
            scan(&views, at, &|id| table.is_failed(id))
        });
    });
    group.bench_function("btree_set/view100_dead1600", |b| {
        let mut at = 0;
        b.iter(|| {
            at += 1;
            scan(&views, at, &|id| set.contains(&id))
        });
    });
    group.finish();
}

/// Steady-state allocation gate for the event kernel's activation loop.
///
/// After warm-up, a netsim round should allocate almost nothing: the
/// kernel's machinery (calendar event queue, effect sink, dispatch
/// queue, activation order, measurement tables) is reusable scratch,
/// and since the payload pool landed the wire messages' descriptor and
/// point vectors recycle through `EffectSink`'s `BufPool` too. What
/// remains is protocol-internal churn that genuinely varies per round
/// (split/merge working sets) plus the shared census's per-point result
/// vector: 155 allocations per round at 256 nodes, the same on every run
/// and machine (seeded, below the rayon shim's threshold and the
/// kernel's own, so nothing fans out). The bound is ~2.6x that. Two allocations per node-round, what the peer-sampling
/// merge once cost, are ~510 and read 630 then, so a per-exchange `Vec`
/// fails the gate,
/// and per-message payload allocations (~5 700 before the pool) or
/// per-event kernel ones all the more.
///
/// The rounds carry a live query workload: the traffic hot path —
/// batched offers, pooled `QueryBatch` envelopes, per-hop forwarding
/// scratch, the drain — must stay inside the same budget as a quiet
/// round, or batching has regressed into per-query allocation.
fn assert_netsim_steady_state_allocations(
    sim: &mut NetSim<Torus2>,
    load: &mut TrafficLoad<[f64; 2]>,
) {
    const ROUNDS: u64 = 8;
    const PER_ROUND_BOUND: u64 = 400;
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
    println!("netsim steady-state: {per_round} allocations/round (bound {PER_ROUND_BOUND})");
    assert!(
        per_round <= PER_ROUND_BOUND,
        "netsim activation loop allocated {per_round} times per steady-state round \
         (bound {PER_ROUND_BOUND}): protocol/kernel hot-path allocations have regressed"
    );
}

/// Steady-state allocation gate for the cycle engine's round loop —
/// the same budget idea as the netsim gate, on the slab-pooled engine.
///
/// The engine's round machinery (slab phase pipeline, dispatch queue,
/// metric tables) reuses its scratch, and the protocol payloads recycle
/// through the sink's pool, so a steady-state round at 256 nodes is
/// down to protocol-internal churn: 324 allocations per round, bound
/// ~2x that. With the peer-sampling merge's two per node-round it read
/// 836, and ~6 000 before the pool. As in the netsim gate, every
/// measured round serves a live query workload inside the same budget.
fn assert_engine_steady_state_allocations(
    engine: &mut Engine<Torus2>,
    load: &mut TrafficLoad<[f64; 2]>,
) {
    const ROUNDS: u64 = 8;
    const PER_ROUND_BOUND: u64 = 700;
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
    println!("engine steady-state: {per_round} allocations/round (bound {PER_ROUND_BOUND})");
    assert!(
        per_round <= PER_ROUND_BOUND,
        "engine round loop allocated {per_round} times per steady-state round \
         (bound {PER_ROUND_BOUND}): protocol/engine hot-path allocations have regressed"
    );
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
/// process-wide, which is safe at this size: 256 nodes run inline in
/// the rayon shim and no 256-node wave is wide enough for a second
/// kernel lane (asserted below), so no worker thread (nor its
/// thread-local scratch) is born inside the window, and the readings
/// repeat to the byte on any number of cores but for the 256 bytes of
/// each idle `Lane`.
fn assert_live_heap_per_node(substrate: &str, live_before: u64, nodes: u64, bound: u64) {
    let per_node = live_heap_per_node(live_before, nodes);
    println!("{substrate} live heap: {per_node} bytes/node after 24 rounds (bound {bound})");
    assert!(
        per_node <= bound,
        "{substrate} holds {per_node} heap bytes per node after 24 rounds (bound {bound}): \
         per-node state, most likely a gossip view, is carrying slack capacity again"
    );
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
fn assert_post_catastrophe_heap_per_node(engine: &mut Engine<Torus2>, live_before: u64) {
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
    println!("engine live heap: {per_node} bytes/node after the catastrophe (bound {BOUND})");
    assert!(
        per_node <= BOUND,
        "engine holds {per_node} heap bytes per node after a kill, reshape and re-inject \
         (bound {BOUND}): per-node state is keeping capacity from the recovery spike"
    );
}

fn bench_engine_round(c: &mut Criterion) {
    let mut cfg = EngineConfig::default();
    cfg.area = 256.0;
    cfg.seed = 21;
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut engine = Engine::new(Torus2::new(32.0, 8.0), shapes::torus_grid(32, 8, 1.0), cfg);
    // Warm-up: views fill, slabs and scratch reach steady capacities.
    engine.run(24);
    assert_live_heap_per_node("engine", live_before, 256, 4_520);
    let mut load = TrafficLoad::new(shapes::torus_grid(32, 8, 1.0), 32, 0.9, 16, 21);
    assert_engine_steady_state_allocations(&mut engine, &mut load);
    assert_post_catastrophe_heap_per_node(&mut engine, live_before);
    let mut group = c.benchmark_group("engine_round");
    group.bench_function("n256", |b| b.iter(|| engine.step()));
    group.finish();
}

fn bench_netsim_round(c: &mut Criterion) {
    let mut cfg = NetSimConfig::default();
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
    assert_live_heap_per_node("netsim", live_before, 256, 5_996);
    assert_eq!(sim.parallel_runs(), 0, "a 256-node run fanned out");
    let mut load = TrafficLoad::new(shapes::torus_grid(32, 8, 1.0), 32, 0.9, 16, 21);
    assert_netsim_steady_state_allocations(&mut sim, &mut load);
    assert_eq!(sim.parallel_runs(), 0, "a loaded 256-node run fanned out");
    let mut group = c.benchmark_group("netsim_round");
    group.bench_function("n256_loss5", |b| b.iter(|| sim.step()));
    group.finish();
}

criterion_group!(
    benches,
    bench_medoid,
    bench_diameter,
    bench_split,
    bench_migration_exchange,
    bench_tman_exchange,
    bench_torus_distance_pass,
    bench_greedy_next_hop,
    bench_failure_lookup,
    bench_engine_round,
    bench_netsim_round
);
criterion_main!(benches);
