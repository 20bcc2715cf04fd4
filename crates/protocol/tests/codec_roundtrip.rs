//! Property coverage for the wire codec: every encodable [`Event`], and
//! every [`Wire`] carried as the [`Event::Message`] a transport frames,
//! round-trips bit-exactly through `encode_event_into → decode_event`,
//! and every encoding is self-delimiting (no prefix of a valid encoding
//! decodes).
//!
//! This suite is the guard rail the codec exists for: the TCP transport
//! frames exactly these bytes, so their fidelity is pinned here rather
//! than discovered on a socket.

use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::codec::{decode_event, encode_event_into, PointCodec};
use polystyrene_protocol::wire::{Channel, Event, QueryItem, QueryReplyItem, Wire};
use proptest::collection::vec;
use proptest::prelude::*;

type Pos = [f64; 2];

/// `wire` as the event a transport carries: a message from node 1.
fn message<P>(wire: Wire<P>) -> Event<P> {
    Event::Message {
        from: NodeId::new(1),
        wire,
    }
}

/// The encoding of `event` in a fresh buffer.
fn encode<P: PointCodec>(event: &Event<P>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event_into(&mut out, event);
    out
}

fn pos_strategy() -> impl Strategy<Value = Pos> {
    [-1e6..1e6f64, -1e6..1e6f64]
}

fn descriptor_strategy() -> impl Strategy<Value = Descriptor<Pos>> {
    ((0..10_000u64, pos_strategy()), 0..500u32)
        .prop_map(|((id, pos), age)| Descriptor::with_age(NodeId::new(id), pos, age))
}

fn point_strategy() -> impl Strategy<Value = DataPoint<Pos>> {
    (0..10_000u64, pos_strategy()).prop_map(|(id, pos)| DataPoint::new(PointId::new(id), pos))
}

fn channel_strategy() -> impl Strategy<Value = Channel> {
    (0..5u8).prop_map(|tag| match tag {
        0 => Channel::PeerSampling,
        1 => Channel::Topology,
        2 => Channel::Migration,
        3 => Channel::Backup,
        _ => Channel::Heartbeat,
    })
}

fn query_item_strategy() -> impl Strategy<Value = QueryItem<Pos>> {
    (
        0..10_000u64,
        0..10_000u64,
        pos_strategy(),
        0..64u32,
        0..64u32,
    )
        .prop_map(|(qid, origin, key, ttl, hops)| QueryItem {
            qid,
            origin: NodeId::new(origin),
            key,
            ttl,
            hops,
        })
}

fn reply_item_strategy() -> impl Strategy<Value = QueryReplyItem<Pos>> {
    (0..10_000u64, 0..64u32, pos_strategy()).prop_map(|(qid, hops, pos)| QueryReplyItem {
        qid,
        hops,
        pos,
    })
}

fn wire_strategy() -> impl Strategy<Value = Wire<Pos>> {
    (
        (
            0..=12u8,
            vec(descriptor_strategy(), 0..6),
            vec(descriptor_strategy(), 0..6),
        ),
        (
            vec(point_strategy(), 0..6),
            pos_strategy(),
            (0..1_000usize, 0..1_000usize, 0..2u8),
        ),
        (
            vec(query_item_strategy(), 0..6),
            vec(reply_item_strategy(), 0..6),
        ),
    )
        .prop_map(
            |((tag, ds1, ds2), (points, pos, (a, b, busy)), (queries, replies))| match tag {
                0 => Wire::RpsRequest { descriptors: ds1 },
                1 => Wire::RpsReply {
                    sent: ds1,
                    descriptors: ds2,
                },
                2 => Wire::TManRequest {
                    from_pos: pos,
                    descriptors: ds1,
                },
                3 => Wire::TManReply { descriptors: ds1 },
                4 => Wire::MigrationRequest {
                    xid: a as u64,
                    from_pos: pos,
                    guests: points,
                },
                5 => Wire::MigrationReply {
                    xid: b as u64,
                    points,
                    busy: busy == 1,
                    pulled: a,
                    pushed: b,
                },
                6 => Wire::MigrationAck { xid: a as u64 },
                7 => Wire::BackupPush {
                    points,
                    added_points: a,
                    removed_ids: b,
                },
                8 => Wire::Heartbeat,
                9 => Wire::Query {
                    qid: a as u64,
                    origin: NodeId::new(b as u64),
                    key: pos,
                    ttl: busy as u32 + 1,
                    hops: a as u32 % 64,
                },
                10 => Wire::QueryReply {
                    qid: b as u64,
                    hops: a as u32 % 64,
                    pos,
                },
                11 => Wire::QueryBatch { queries },
                _ => Wire::QueryReplyBatch { replies },
            },
        )
}

fn event_strategy() -> impl Strategy<Value = Event<Pos>> {
    (
        (0..3u8, 0..10_000u64, wire_strategy()),
        (channel_strategy(), 0..2u8, pos_strategy()),
    )
        .prop_map(|((tag, id, wire), (channel, with_pos, pos))| match tag {
            0 => Event::Message {
                from: NodeId::new(id),
                wire,
            },
            1 => Event::ProbeOk {
                peer: NodeId::new(id),
                channel,
                pos: (with_pos == 1).then_some(pos),
            },
            _ => Event::PeerUnreachable {
                peer: NodeId::new(id),
                channel,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_round_trips(wire in wire_strategy()) {
        let event = message(wire);
        let back = decode_event::<Pos>(&encode(&event));
        prop_assert_eq!(back.as_ref(), Ok(&event));
    }

    #[test]
    fn event_round_trips(event in event_strategy()) {
        let back = decode_event::<Pos>(&encode(&event));
        prop_assert_eq!(back.as_ref(), Ok(&event));
    }

    #[test]
    fn no_strict_prefix_of_a_wire_decodes(wire in wire_strategy()) {
        let bytes = encode(&message(wire));
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_event::<Pos>(&bytes[..cut]).is_err(),
                "strict prefix of {} bytes decoded", cut
            );
        }
    }

    #[test]
    fn one_dimensional_points_round_trip(id in 0..100u64, x in -1e9..1e9f64) {
        let event: Event<f64> = message(Wire::MigrationRequest {
            xid: id,
            from_pos: x,
            guests: std::vec![DataPoint::new(PointId::new(id), -x)],
        });
        let back = decode_event::<f64>(&encode(&event));
        prop_assert_eq!(back.as_ref(), Ok(&event));
    }
}

// ---------------------------------------------------------------------
// Decoder fuzzing: raw bytes off a socket are attacker-controlled. The
// decoders must return `Err` (never panic, never allocate unboundedly)
// on every input that is not a valid encoding.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in vec(0..=255u8, 0..512)) {
        // Either outcome is fine; returning at all is the property. A
        // length-prefix attack (huge declared count) must be rejected by
        // the remaining-input cap before any allocation happens — the
        // 512-byte inputs here would otherwise OOM on a u64::MAX prefix.
        let _ = decode_event::<f64>(&bytes);
        let _ = decode_event::<[f64; 2]>(&bytes);
    }

    #[test]
    fn corrupted_valid_encodings_never_panic(
        wire in wire_strategy(),
        at in 0..4096usize,
        bit in 0..8u8,
    ) {
        // A single bit flipped anywhere in a *valid* encoding exercises
        // the deep decoder paths (mid-sequence tags, length prefixes,
        // truncation boundaries) that uniformly random bytes rarely
        // reach past the version check.
        let mut bytes = encode(&message(wire));
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = decode_event::<Pos>(&bytes);
    }

    #[test]
    fn truncated_valid_encodings_never_panic_and_never_decode(
        event in event_strategy(),
        cut in 0..4096usize,
    ) {
        let bytes = encode(&event);
        let cut = cut % bytes.len();
        prop_assert!(decode_event::<Pos>(&bytes[..cut]).is_err());
    }
}
