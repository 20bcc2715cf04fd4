//! Layer probes: a layer's public functions timed on data read back
//! from the finished substrate (real views, positions and guest sets),
//! so a change inside one layer shows under that layer's name before
//! it shows end to end.

use polystyrene::backup::plan_backups;
use polystyrene::prelude::{DataPoint, PointId, PolyState, SplitStrategy};
use polystyrene::recovery::recover;
use polystyrene::split::split;
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_netsim::{CalendarQueue, NetSim};
use polystyrene_protocol::codec::{decode_event, encode_event_into};
use polystyrene_protocol::wire::BufPool;
use polystyrene_protocol::{Event, QueryItem, QueryReplyItem, Wire};
use polystyrene_sim::engine::Engine;
use polystyrene_space::diameter::diameter_of_by;
use polystyrene_space::medoid::medoid_index_by;
use polystyrene_space::torus::Torus2;
use polystyrene_topology::rank::{k_closest_into, GridIndex};
use polystyrene_topology::{tman_exchange, TMan, TManConfig, TopologyConstruction};
use polystyrene_transport::framing::{read_frame_into, write_frame_into, FrameStatus};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

type Point = [f64; 2];

/// Nodes whose views and guest sets are sampled into the corpus.
const SAMPLED_NODES: usize = 64;

/// Timed batches per probe; the reading is their median.
const BATCHES: usize = 7;

/// One sampled node.
pub struct Sample {
    pub id: NodeId,
    pub state: PolyState<Point>,
    pub view: Vec<Descriptor<Point>>,
}

/// What the probes run on.
pub struct Corpus {
    pub space: Torus2,
    /// Every alive node's position.
    pub positions: Vec<(u64, Point)>,
    /// An even stride through the alive nodes.
    pub samples: Vec<Sample>,
}

impl Corpus {
    fn harvest<'a>(
        space: Torus2,
        ids: &[NodeId],
        state: impl Fn(NodeId) -> Option<&'a PolyState<Point>>,
        view: impl Fn(NodeId) -> Option<&'a [Descriptor<Point>]>,
    ) -> Corpus {
        let positions = ids
            .iter()
            .filter_map(|&id| Some((id.as_u64(), state(id)?.pos)))
            .collect();
        let stride = ids.len().div_ceil(SAMPLED_NODES).max(1);
        let samples = ids
            .iter()
            .step_by(stride)
            .filter_map(|&id| {
                Some(Sample {
                    id,
                    state: state(id)?.clone(),
                    view: view(id)?.to_vec(),
                })
            })
            .collect();
        Corpus {
            space,
            positions,
            samples,
        }
    }

    pub fn from_engine(engine: &Engine<Torus2>) -> Corpus {
        Corpus::harvest(
            *engine.space(),
            engine.alive_id_slice(),
            |id| engine.poly_state(id),
            |id| engine.view_entries_of(id),
        )
    }

    pub fn from_netsim(sim: &NetSim<Torus2>, space: Torus2) -> Corpus {
        Corpus::harvest(
            space,
            sim.alive_ids(),
            |id| sim.poly_state(id),
            |id| sim.view_entries_of(id),
        )
    }
}

/// Median over [`BATCHES`] timed batches of `ops` calls each, in
/// nanoseconds per call. `op` receives the call's index in its batch.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut readings = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for i in 0..ops {
            op(i);
        }
        readings.push(started.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::stats::median(&readings)
}

/// One event of every wire kind, payloads taken from `sample`.
fn wire_events(sample: &Sample) -> Vec<Event<Point>> {
    let view = &sample.view;
    let pos = sample.state.pos;
    let guests = &sample.state.guests;
    let shuffle: Vec<_> = view.iter().take(8).cloned().collect();
    let queries: Vec<QueryItem<Point>> = (0..8)
        .map(|i| QueryItem {
            qid: i,
            origin: sample.id,
            key: view.get(i as usize).map_or(pos, |d| d.pos),
            ttl: 16,
            hops: i as u32,
        })
        .collect();
    let replies: Vec<QueryReplyItem<Point>> = queries
        .iter()
        .map(|q| QueryReplyItem {
            qid: q.qid,
            hops: q.hops,
            pos: q.key,
        })
        .collect();
    let wires = vec![
        Wire::RpsRequest {
            descriptors: shuffle.clone(),
        },
        Wire::RpsReply {
            sent: shuffle.clone(),
            descriptors: shuffle,
        },
        Wire::TManRequest {
            from_pos: pos,
            descriptors: view.clone(),
        },
        Wire::TManReply {
            descriptors: view.clone(),
        },
        Wire::MigrationRequest {
            xid: 1,
            from_pos: pos,
            guests: guests.clone(),
        },
        Wire::MigrationReply {
            xid: 1,
            points: guests.clone(),
            busy: false,
            pulled: guests.len(),
            pushed: 0,
        },
        Wire::MigrationAck { xid: 1 },
        Wire::BackupPush {
            points: guests.clone(),
            added_points: guests.len(),
            removed_ids: 0,
        },
        Wire::Heartbeat,
        Wire::Query {
            qid: 9,
            origin: sample.id,
            key: pos,
            ttl: 16,
            hops: 0,
        },
        Wire::QueryReply {
            qid: 9,
            hops: 3,
            pos,
        },
        Wire::QueryBatch { queries },
        Wire::QueryReplyBatch { replies },
    ];
    wires
        .into_iter()
        .map(|wire| Event::Message {
            from: sample.id,
            wire,
        })
        .collect()
}

/// `(encode ns, decode ns, bytes)` per event over one event of every
/// wire kind from each of the first eight samples.
pub fn codec(corpus: &Corpus) -> (f64, f64, f64) {
    let events: Vec<Event<Point>> = corpus
        .samples
        .iter()
        .take(8)
        .flat_map(wire_events)
        .collect();
    if events.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut buf = Vec::new();
    let encode = ns_per_op(events.len(), |i| {
        encode_event_into(&mut buf, black_box(&events[i]));
        black_box(&buf);
    });
    let encoded: Vec<Vec<u8>> = events
        .iter()
        .map(|e| {
            let mut out = Vec::new();
            encode_event_into(&mut out, e);
            out
        })
        .collect();
    let decode = ns_per_op(encoded.len(), |i| {
        let event = decode_event::<Point>(black_box(&encoded[i]));
        black_box(event.expect("the codec reads back what it wrote"));
    });
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    (encode, decode, bytes)
}

/// One take + refill + put of a pooled descriptor buffer.
pub fn bufpool_take_put(corpus: &Corpus) -> f64 {
    let Some(sample) = corpus.samples.first() else {
        return 0.0;
    };
    let mut pool: BufPool<Point> = BufPool::new();
    ns_per_op(4096, |_| {
        let mut buf = pool.take_descriptors();
        buf.extend_from_slice(&sample.view);
        pool.put_descriptors(black_box(buf));
    })
}

/// Ranking the ψ = 5 closest entries of a real view.
pub fn rank_k_closest(corpus: &Corpus) -> f64 {
    if corpus.samples.is_empty() {
        return 0.0;
    }
    let mut out = Vec::new();
    ns_per_op(corpus.samples.len() * 16, |i| {
        let s = &corpus.samples[i % corpus.samples.len()];
        out.clear();
        k_closest_into(&corpus.space, &s.state.pos, black_box(&s.view), 5, &mut out);
        black_box(&out);
    })
}

/// One full T-Man exchange between two sampled nodes' views.
pub fn tman_exchange_ns(corpus: &Corpus, config: TManConfig) -> f64 {
    let [a, b, ..] = corpus.samples.as_slice() else {
        return 0.0;
    };
    let mut ta = TMan::new(corpus.space, config);
    let mut tb = TMan::new(corpus.space, config);
    ta.integrate(a.id, &a.state.pos, &a.view);
    tb.integrate(b.id, &b.state.pos, &b.view);
    ns_per_op(256, |_| {
        black_box(tman_exchange(
            &mut ta,
            Descriptor::new(a.id, a.state.pos),
            &mut tb,
            Descriptor::new(b.id, b.state.pos),
        ));
    })
}

/// `(build ms, nearest ns)` of the grid index over every alive position.
pub fn grid_index(corpus: &Corpus) -> (f64, f64) {
    let build = ns_per_op(1, |_| {
        black_box(GridIndex::build(
            &corpus.space,
            corpus.positions.iter().copied(),
        ));
    });
    let Some(index) = GridIndex::build(&corpus.space, corpus.positions.iter().copied()) else {
        return (0.0, 0.0);
    };
    // Query half a cell off every indexed position: near, never equal.
    let nearest = ns_per_op(corpus.positions.len().min(4096), |i| {
        let (_, p) = corpus.positions[i];
        black_box(index.nearest(&[p[0] + 0.5, p[1] + 0.5]));
    });
    (build / 1e6, nearest)
}

/// `SPLIT_ADVANCED` over the guest union of two sampled neighbours.
pub fn split_ns(corpus: &Corpus) -> f64 {
    let pairs: Vec<(Vec<DataPoint<Point>>, Point, Point)> = corpus
        .samples
        .windows(2)
        .map(|w| {
            let mut union = w[0].state.guests.clone();
            union.extend_from_slice(&w[1].state.guests);
            (union, w[0].state.pos, w[1].state.pos)
        })
        .filter(|(union, ..)| union.len() >= 2)
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(7);
    ns_per_op(pairs.len() * 4, |i| {
        let (union, p, q) = &pairs[i % pairs.len()];
        black_box(split(
            &corpus.space,
            SplitStrategy::Advanced,
            union.clone(),
            p,
            q,
            30,
            &mut rng,
        ));
    })
}

/// Algorithm 1 in the converged steady state (replicas up to date).
pub fn plan_backups_ns(corpus: &Corpus, replication: usize) -> f64 {
    if corpus.samples.is_empty() {
        return 0.0;
    }
    let mut states: Vec<(NodeId, PolyState<Point>)> = corpus
        .samples
        .iter()
        .map(|s| (s.id, s.state.clone()))
        .collect();
    let candidates: Vec<NodeId> = corpus.samples.iter().map(|s| s.id).collect();
    let mut rng = StdRng::seed_from_u64(11);
    let mut scratch: Vec<PointId> = Vec::new();
    let n = states.len();
    ns_per_op(n * 16, |i| {
        let (id, state) = &mut states[i % n];
        black_box(plan_backups(
            state,
            *id,
            replication,
            |_| false,
            || Some(candidates[rng.random_range(0..candidates.len())]),
            &mut scratch,
        ));
    })
}

/// Algorithm 2 with every other ghost origin flagged as failed.
pub fn recover_ns(corpus: &Corpus) -> f64 {
    let with_ghosts: Vec<&Sample> = corpus
        .samples
        .iter()
        .filter(|s| !s.state.ghosts.is_empty())
        .collect();
    if with_ghosts.is_empty() {
        return 0.0;
    }
    // `recover` consumes the ghosts it reactivates, so every timed call
    // needs its own copy, made outside the timing.
    let mut readings = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut copies: Vec<PolyState<Point>> =
            with_ghosts.iter().map(|s| s.state.clone()).collect();
        let started = Instant::now();
        for state in &mut copies {
            black_box(recover(state, |origin| origin.as_u64() % 2 == 0));
        }
        readings.push(started.elapsed().as_nanos() as f64 / copies.len() as f64);
    }
    crate::stats::median(&readings)
}

/// `(medoid ns, diameter ns)` over the sampled guest sets.
pub fn medoid_diameter(corpus: &Corpus) -> (f64, f64) {
    let sets: Vec<&[DataPoint<Point>]> = corpus
        .samples
        .iter()
        .map(|s| s.state.guests.as_slice())
        .filter(|g| !g.is_empty())
        .collect();
    if sets.is_empty() {
        return (0.0, 0.0);
    }
    let medoid = ns_per_op(sets.len() * 16, |i| {
        black_box(medoid_index_by(&corpus.space, sets[i % sets.len()], |g| {
            &g.pos
        }));
    });
    let mut rng = StdRng::seed_from_u64(13);
    let diameter = ns_per_op(sets.len() * 16, |i| {
        black_box(diameter_of_by(
            &corpus.space,
            sets[i % sets.len()],
            |g| &g.pos,
            30,
            &mut rng,
        ));
    });
    (medoid, diameter)
}

/// One pop + one push on a calendar queue held at `depth` events spread
/// over a round's span of ticks.
pub fn calendar_queue(depth: usize, ticks_per_round: u64) -> f64 {
    if depth == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(17);
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    for i in 0..depth as u64 {
        queue.push(rng.random_range(0..ticks_per_round), i);
    }
    ns_per_op(depth.max(1024), |_| {
        let (tick, item) = queue
            .pop_next(u64::MAX)
            .expect("the queue is kept at depth");
        queue.push(
            tick + rng.random_range(1..=ticks_per_round),
            black_box(item),
        );
    })
}

/// One frame of `payload_len` bytes written to and read back from a
/// loopback socket pair.
pub fn framing_roundtrip(payload_len: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    let (mut rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    rx.set_read_timeout(Some(Duration::from_secs(2)))?;
    let payload = vec![0xa5u8; payload_len.max(1)];
    let mut frame = Vec::new();
    let mut body = Vec::new();
    let mut failure = None;
    let ns = ns_per_op(2048, |_| {
        let outcome = write_frame_into(&mut tx, &payload, &mut frame)
            .and_then(|()| read_frame_into(&mut rx, Duration::from_secs(2), &mut body));
        match outcome {
            Ok(FrameStatus::Frame) => {}
            Ok(_) => failure = Some(std::io::Error::other("loopback frame did not arrive")),
            Err(e) => failure = Some(e),
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_sim::engine::EngineConfig;
    use polystyrene_space::shapes;

    fn small_corpus() -> Corpus {
        let mut cfg = EngineConfig::default();
        cfg.area = 128.0;
        cfg.seed = 3;
        let mut engine = Engine::new(Torus2::new(16.0, 8.0), shapes::torus_grid(16, 8, 1.0), cfg);
        engine.run(6);
        Corpus::from_engine(&engine)
    }

    #[test]
    fn corpus_samples_real_state() {
        let corpus = small_corpus();
        assert_eq!(corpus.positions.len(), 128);
        assert_eq!(corpus.samples.len(), 64);
        assert!(corpus.samples.iter().all(|s| !s.view.is_empty()));
        assert!(corpus.samples.iter().any(|s| !s.state.ghosts.is_empty()));
    }

    #[test]
    fn every_probe_reads_positive_on_a_live_corpus() {
        let corpus = small_corpus();
        let (encode, decode, bytes) = codec(&corpus);
        assert!(encode > 0.0 && decode > 0.0 && bytes > 8.0);
        assert!(bufpool_take_put(&corpus) > 0.0);
        assert!(rank_k_closest(&corpus) > 0.0);
        assert!(tman_exchange_ns(&corpus, TManConfig::default()) > 0.0);
        let (build_ms, nearest) = grid_index(&corpus);
        assert!(build_ms > 0.0 && nearest > 0.0);
        assert!(split_ns(&corpus) > 0.0);
        assert!(plan_backups_ns(&corpus, 4) > 0.0);
        assert!(recover_ns(&corpus) > 0.0);
        let (medoid, diameter) = medoid_diameter(&corpus);
        assert!(medoid > 0.0 && diameter > 0.0);
        assert!(calendar_queue(100, 16) > 0.0);
        assert_eq!(calendar_queue(0, 16), 0.0);
        assert!(framing_roundtrip(200).unwrap() > 0.0);
    }

    #[test]
    fn wire_corpus_covers_every_kind_once() {
        let corpus = small_corpus();
        let kinds: std::collections::HashSet<&str> = wire_events(&corpus.samples[0])
            .iter()
            .map(|e| match e {
                Event::Message { wire, .. } => wire.kind(),
                _ => unreachable!("the corpus holds messages only"),
            })
            .collect();
        assert_eq!(kinds.len(), 13);
    }
}
