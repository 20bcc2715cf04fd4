//! Property coverage for the payload recycler ([`BufPool`]) — the
//! hygiene contract every driver leans on:
//!
//! 1. a recycled buffer can never leak stale contents into the next
//!    payload (buffers come back **empty**, only capacity survives);
//! 2. payloads built in recycled buffers encode byte-identically to
//!    payloads built in fresh ones, through dirty codec out-buffers;
//! 3. the pool's retention is bounded: a catastrophic-failure spike
//!    (one 102 400-point payload, or thousands of returns) cannot pin
//!    unbounded memory.

use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::codec::{decode_event, encode_event_into};
use polystyrene_protocol::wire::{BufPool, EffectSink, Event, QueryItem, QueryReplyItem, Wire};
use proptest::collection::vec;
use proptest::prelude::*;

type Pos = [f64; 2];

fn descriptor_strategy() -> impl Strategy<Value = Descriptor<Pos>> {
    ((0..10_000u64, [-1e6..1e6f64, -1e6..1e6f64]), 0..500u32)
        .prop_map(|((id, pos), age)| Descriptor::with_age(NodeId::new(id), pos, age))
}

fn point_strategy() -> impl Strategy<Value = DataPoint<Pos>> {
    (0..10_000u64, [-1e6..1e6f64, -1e6..1e6f64])
        .prop_map(|(id, pos)| DataPoint::new(PointId::new(id), pos))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever a buffer held when it was recycled, the next take yields
    /// it empty — across all three kinds and the wire-salvage path.
    #[test]
    fn recycled_buffers_come_back_empty(
        descriptors in vec(descriptor_strategy(), 1..40),
        points in vec(point_strategy(), 1..40),
        ids in vec(0..10_000u64, 1..40),
    ) {
        let mut pool: BufPool<Pos> = BufPool::new();
        pool.put_descriptors(descriptors.clone());
        pool.put_points(points.clone());
        pool.put_point_ids(ids.iter().map(|&i| PointId::new(i)).collect());
        let d = pool.take_descriptors();
        let p = pool.take_points();
        let i = pool.take_point_ids();
        prop_assert!(d.is_empty() && p.is_empty() && i.is_empty());
        prop_assert!(d.capacity() > 0 && p.capacity() > 0 && i.capacity() > 0);

        // The same guarantee through the terminal-message salvage path.
        pool.recycle_wire(Wire::RpsReply { sent: descriptors.clone(), descriptors });
        pool.recycle_wire(Wire::BackupPush { points, added_points: 1, removed_ids: 0 });
        prop_assert!(pool.take_descriptors().is_empty());
        prop_assert!(pool.take_descriptors().is_empty());
        prop_assert!(pool.take_points().is_empty());

        // And for the traffic plane's batch envelopes: their item
        // buffers pool and come back empty with capacity intact.
        let queries: Vec<QueryItem<Pos>> = ids
            .iter()
            .map(|&i| QueryItem { qid: i, origin: NodeId::new(i), key: [0.0, 0.0], ttl: 4, hops: 0 })
            .collect();
        let replies: Vec<QueryReplyItem<Pos>> = ids
            .iter()
            .map(|&i| QueryReplyItem { qid: i, hops: 1, pos: [0.0, 0.0] })
            .collect();
        pool.recycle_wire(Wire::QueryBatch { queries });
        pool.recycle_wire(Wire::QueryReplyBatch { replies });
        let q = pool.take_queries();
        let r = pool.take_replies();
        prop_assert!(q.is_empty() && r.is_empty());
        prop_assert!(q.capacity() > 0 && r.capacity() > 0);
    }

    /// The traffic plane's wires are heap-free: recycling a query or a
    /// query reply must retain nothing — no pooled buffer appears, no
    /// element capacity is pinned — whatever the payload values are.
    #[test]
    fn query_wires_recycle_without_retention(
        qid in 0..u64::MAX,
        origin in 0..10_000u64,
        key in [-1e6..1e6f64, -1e6..1e6f64],
        ttl in 0..64u32,
        hops in 0..64u32,
    ) {
        let mut pool: BufPool<Pos> = BufPool::new();
        pool.recycle_wire(Wire::Query {
            qid,
            origin: NodeId::new(origin),
            key,
            ttl,
            hops,
        });
        pool.recycle_wire(Wire::QueryReply { qid, hops, pos: key });
        prop_assert_eq!(pool.pooled_counts(), (0, 0, 0, 0, 0));
        prop_assert_eq!(pool.pooled_elements(), (0, 0, 0, 0, 0));
    }

    /// A payload rebuilt in a dirty-history pooled buffer encodes, as a
    /// message over a dirty out-buffer, to exactly the bytes of the
    /// fresh payload in a clean buffer, and round-trips.
    #[test]
    fn pooled_payloads_round_trip_through_dirty_buffers(
        stale in vec(descriptor_strategy(), 1..40),
        payload in vec(descriptor_strategy(), 0..40),
        garbage in vec(0..=255u8, 0..256),
    ) {
        let mut sink: EffectSink<Pos> = EffectSink::new();
        sink.pool.put_descriptors(stale);
        let mut buf = sink.pool.take_descriptors();
        buf.extend(payload.iter().cloned());
        let from = NodeId::new(1);
        let recycled = Event::Message { from, wire: Wire::RpsRequest { descriptors: buf } };
        let fresh = Event::Message { from, wire: Wire::RpsRequest { descriptors: payload } };

        let mut out = garbage; // dirty out-buffer for the *_into path
        encode_event_into(&mut out, &recycled);
        let mut clean = Vec::new();
        encode_event_into(&mut clean, &fresh);
        prop_assert_eq!(&out, &clean);
        let decoded = decode_event::<Pos>(&out);
        prop_assert_eq!(decoded.as_ref(), Ok(&fresh));
    }

    /// Retention bounds: oversized buffers are dropped on return, and
    /// the per-kind retained element capacity never exceeds the budget
    /// no matter how many buffers come back.
    #[test]
    fn pool_retention_is_bounded_after_a_spike(
        spike_cap in 100_000..300_000usize,
        small_caps in vec(1..=4096usize, 1..64),
    ) {
        let mut pool: BufPool<Pos> = BufPool::new();

        // A 102k-point catastrophic-failure payload must not be pinned.
        let spike: Vec<DataPoint<Pos>> = Vec::with_capacity(spike_cap);
        pool.put_points(spike);
        prop_assert_eq!(pool.pooled_counts().1, 0, "oversized buffer retained");

        // Budget bound: retained capacity per kind stays within the
        // element budget across an arbitrary sequence of returns.
        for &cap in &small_caps {
            pool.put_points(Vec::with_capacity(cap));
            let (_, retained, _, _, _) = pool.pooled_elements();
            prop_assert!(retained <= BufPool::<Pos>::max_pooled_elements());
        }

        // Every retained buffer individually respects the capacity cap,
        // and draining the pool returns the accounting to zero.
        let mut drained = 0;
        loop {
            let buf = pool.take_points();
            if buf.capacity() == 0 {
                break;
            }
            prop_assert!(buf.capacity() <= BufPool::<Pos>::max_pooled_capacity());
            drained += buf.capacity();
        }
        prop_assert_eq!(pool.pooled_elements().1, 0);
        prop_assert!(drained <= BufPool::<Pos>::max_pooled_elements());
    }
}

/// Deterministic worst case: returns totalling far past the element
/// budget stop being retained once the budget is full — the pool cannot
/// grow linearly with the burst size the way a count-capped pool grows
/// with buffer count.
#[test]
fn element_budget_caps_a_sustained_burst() {
    let mut pool: BufPool<Pos> = BufPool::new();
    let budget = BufPool::<Pos>::max_pooled_elements();
    let cap = BufPool::<Pos>::max_pooled_capacity();
    // Offer 3× the budget in max-capacity buffers.
    for _ in 0..(3 * budget / cap) {
        pool.put_descriptors(Vec::with_capacity(cap));
    }
    let (retained, _, _, _, _) = pool.pooled_elements();
    assert!(retained <= budget, "retained {retained} > budget {budget}");
    assert!(
        retained >= budget - cap,
        "budget under-filled: retained {retained} of {budget}"
    );
}
