//! Binary codec for the sans-IO surface: [`Wire`], [`Event`] and
//! [`Effect`] to and from bytes.
//!
//! Today's two transports (the cycle engine's synchronous dispatch and
//! the runtime's in-process channels) move these enums by value and never
//! serialize; a real socket transport will. This module pins the encoding
//! *now* — little-endian fixed-width scalars, one leading format-version
//! byte, a one-byte tag per enum variant, `u64`-length-prefixed
//! sequences — so the property suite can guard round-trip fidelity before
//! any network code exists, and a future transport cannot quietly invent
//! its own incompatible framing.
//!
//! Positions are encoded through [`PointCodec`], implemented for the
//! workspace's concrete point types (`f64` rings, `[f64; 2]` surfaces).
//!
//! A node id is an 8-byte `u64` field on the wire, though [`NodeId`]
//! holds 32 bits: the format stays as it was, and a decoder that meets a
//! value above `u32::MAX` returns [`CodecError::BadNodeId`] instead of
//! building an id.
//!
//! ```
//! use polystyrene_protocol::codec::{decode_wire, encode_wire};
//! use polystyrene_protocol::wire::Wire;
//!
//! let wire: Wire<[f64; 2]> = Wire::Heartbeat;
//! let bytes = encode_wire(&wire);
//! assert_eq!(decode_wire::<[f64; 2]>(&bytes).unwrap(), wire);
//! ```

use crate::wire::{Channel, Effect, Event, QueryItem, QueryReplyItem, Wire};
use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};

/// Format version written as the first byte of every encoded value.
pub const FORMAT_VERSION: u8 = 1;

/// Version byte of the *frame* layer a stream transport wraps encoded
/// values in — pinned here, next to [`FORMAT_VERSION`], so the two wire
/// versions evolve in one place.
///
/// # Frame format
///
/// A byte stream carrying codec values (the TCP transport in
/// `polystyrene-transport`) frames each one as:
///
/// ```text
/// ┌──────────────┬───────────────┬─────────────────────────────┐
/// │ len: u32 LE  │ FRAME_VERSION │ payload (len − 1 bytes)     │
/// └──────────────┴───────────────┴─────────────────────────────┘
/// ```
///
/// * `len` counts everything after the length prefix (the version byte
///   plus the payload), so `len ≥ 1` always;
/// * `len` must not exceed [`MAX_FRAME_BYTES`] — a reader rejects the
///   frame *before* allocating, so a corrupt or adversarial prefix can
///   never drive a giant allocation;
/// * the payload is one encoded value of this module (its own leading
///   byte is [`FORMAT_VERSION`] — the frame version guards the framing
///   rules, the format version guards the value encoding).
pub const FRAME_VERSION: u8 = 1;

/// Upper bound on the declared length of one frame (version byte +
/// payload). Generous for the protocol's largest messages — a migration
/// request ships a whole guest set, tens of kilobytes at paper scales —
/// while keeping the worst-case allocation a corrupt prefix can cause
/// far below memory-exhaustion territory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Why a byte string failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended in the middle of a value.
    UnexpectedEof,
    /// The leading version byte is not [`FORMAT_VERSION`].
    BadVersion(u8),
    /// An enum tag byte had no matching variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared sequence length exceeds the remaining input (corrupt or
    /// adversarial length prefix — rejected before allocating).
    BadLength(u64),
    /// Input bytes remained after the value was fully decoded.
    TrailingBytes(usize),
    /// An 8-byte node id field held a value above `u32::MAX`, outside
    /// the id space [`NodeId`] can hold.
    BadNodeId(u64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "input truncated mid-value"),
            CodecError::BadVersion(v) => {
                write!(f, "format version {v} (expected {FORMAT_VERSION})")
            }
            CodecError::BadTag { what, tag } => write!(f, "no {what} variant has tag {tag}"),
            CodecError::BadLength(n) => write!(f, "length prefix {n} exceeds the input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the value"),
            CodecError::BadNodeId(v) => write!(f, "node id {v} exceeds u32::MAX"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor over an encoded byte string.
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.at).ok_or(CodecError::UnexpectedEof)?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let v = u32::from_le_bytes(self.bytes[self.at..end].try_into().expect("4 bytes"));
        self.at = end;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let end = self.at + 8;
        if end > self.bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let v = u64::from_le_bytes(self.bytes[self.at..end].try_into().expect("8 bytes"));
        self.at = end;
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A node id: an 8-byte field whose value must fit the 32-bit id
    /// space — the only way the decoders build a [`NodeId`].
    fn node_id(&mut self) -> Result<NodeId, CodecError> {
        let raw = self.u64()?;
        NodeId::try_from(raw).map_err(|_| CodecError::BadNodeId(raw))
    }

    /// A `u64` length prefix, sanity-checked against the bytes actually
    /// left (`min_element_size` ≥ 1): a corrupt prefix must fail cleanly
    /// instead of driving a giant allocation.
    fn len(&mut self, min_element_size: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let fits = usize::try_from(n)
            .ok()
            .is_some_and(|n| n.saturating_mul(min_element_size) <= self.remaining());
        if !fits {
            return Err(CodecError::BadLength(n));
        }
        Ok(n as usize)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A position type with a stable byte encoding.
pub trait PointCodec: Sized {
    /// Smallest possible encoded size in bytes (used to sanity-check
    /// sequence length prefixes before allocating).
    const MIN_ENCODED_SIZE: usize;

    /// Appends the encoded position to `out`.
    fn encode_point(&self, out: &mut Vec<u8>);

    /// Decodes one position from the reader.
    fn decode_point(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

impl PointCodec for f64 {
    const MIN_ENCODED_SIZE: usize = 8;

    fn encode_point(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }

    fn decode_point(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.f64()
    }
}

impl<const N: usize> PointCodec for [f64; N] {
    const MIN_ENCODED_SIZE: usize = 8 * N;

    fn encode_point(&self, out: &mut Vec<u8>) {
        for c in self {
            put_f64(out, *c);
        }
    }

    fn decode_point(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut coords = [0.0; N];
        for c in &mut coords {
            *c = r.f64()?;
        }
        Ok(coords)
    }
}

fn put_descriptor<P: PointCodec>(out: &mut Vec<u8>, d: &Descriptor<P>) {
    put_u64(out, d.id.as_u64());
    d.pos.encode_point(out);
    put_u32(out, d.age);
}

fn get_descriptor<P: PointCodec>(r: &mut Reader<'_>) -> Result<Descriptor<P>, CodecError> {
    let id = r.node_id()?;
    let pos = P::decode_point(r)?;
    let age = r.u32()?;
    Ok(Descriptor::with_age(id, pos, age))
}

fn put_descriptors<P: PointCodec>(out: &mut Vec<u8>, ds: &[Descriptor<P>]) {
    put_u64(out, ds.len() as u64);
    for d in ds {
        put_descriptor(out, d);
    }
}

fn get_descriptors<P: PointCodec>(r: &mut Reader<'_>) -> Result<Vec<Descriptor<P>>, CodecError> {
    let n = r.len(8 + P::MIN_ENCODED_SIZE + 4)?;
    (0..n).map(|_| get_descriptor(r)).collect()
}

fn put_points<P: PointCodec>(out: &mut Vec<u8>, points: &[DataPoint<P>]) {
    put_u64(out, points.len() as u64);
    for p in points {
        put_u64(out, p.id.as_u64());
        p.pos.encode_point(out);
    }
}

fn get_points<P: PointCodec>(r: &mut Reader<'_>) -> Result<Vec<DataPoint<P>>, CodecError> {
    let n = r.len(8 + P::MIN_ENCODED_SIZE)?;
    (0..n)
        .map(|_| {
            let id = PointId::new(r.u64()?);
            let pos = P::decode_point(r)?;
            Ok(DataPoint::new(id, pos))
        })
        .collect()
}

fn channel_tag(channel: Channel) -> u8 {
    match channel {
        Channel::PeerSampling => 0,
        Channel::Topology => 1,
        Channel::Migration => 2,
        Channel::Backup => 3,
        Channel::Heartbeat => 4,
        Channel::Query => 5,
    }
}

fn channel_from_tag(tag: u8) -> Result<Channel, CodecError> {
    Ok(match tag {
        0 => Channel::PeerSampling,
        1 => Channel::Topology,
        2 => Channel::Migration,
        3 => Channel::Backup,
        4 => Channel::Heartbeat,
        5 => Channel::Query,
        tag => {
            return Err(CodecError::BadTag {
                what: "Channel",
                tag,
            })
        }
    })
}

fn put_wire<P: PointCodec>(out: &mut Vec<u8>, wire: &Wire<P>) {
    match wire {
        Wire::RpsRequest { descriptors } => {
            out.push(0);
            put_descriptors(out, descriptors);
        }
        Wire::RpsReply { sent, descriptors } => {
            out.push(1);
            put_descriptors(out, sent);
            put_descriptors(out, descriptors);
        }
        Wire::TManRequest {
            from_pos,
            descriptors,
        } => {
            out.push(2);
            from_pos.encode_point(out);
            put_descriptors(out, descriptors);
        }
        Wire::TManReply { descriptors } => {
            out.push(3);
            put_descriptors(out, descriptors);
        }
        Wire::MigrationRequest {
            xid,
            from_pos,
            guests,
        } => {
            out.push(4);
            put_u64(out, *xid);
            from_pos.encode_point(out);
            put_points(out, guests);
        }
        Wire::MigrationReply {
            xid,
            points,
            busy,
            pulled,
            pushed,
        } => {
            out.push(5);
            put_u64(out, *xid);
            put_points(out, points);
            out.push(u8::from(*busy));
            put_u64(out, *pulled as u64);
            put_u64(out, *pushed as u64);
        }
        Wire::MigrationAck { xid } => {
            out.push(6);
            put_u64(out, *xid);
        }
        Wire::BackupPush {
            points,
            added_points,
            removed_ids,
        } => {
            out.push(7);
            put_points(out, points);
            put_u64(out, *added_points as u64);
            put_u64(out, *removed_ids as u64);
        }
        Wire::Heartbeat => out.push(8),
        Wire::Query {
            qid,
            origin,
            key,
            ttl,
            hops,
        } => {
            out.push(9);
            put_u64(out, *qid);
            put_u64(out, origin.as_u64());
            key.encode_point(out);
            put_u32(out, *ttl);
            put_u32(out, *hops);
        }
        Wire::QueryReply { qid, hops, pos } => {
            out.push(10);
            put_u64(out, *qid);
            put_u32(out, *hops);
            pos.encode_point(out);
        }
        Wire::QueryBatch { queries } => {
            out.push(11);
            put_u64(out, queries.len() as u64);
            for q in queries {
                put_u64(out, q.qid);
                put_u64(out, q.origin.as_u64());
                q.key.encode_point(out);
                put_u32(out, q.ttl);
                put_u32(out, q.hops);
            }
        }
        Wire::QueryReplyBatch { replies } => {
            out.push(12);
            put_u64(out, replies.len() as u64);
            for reply in replies {
                put_u64(out, reply.qid);
                put_u32(out, reply.hops);
                reply.pos.encode_point(out);
            }
        }
    }
}

fn get_wire<P: PointCodec>(r: &mut Reader<'_>) -> Result<Wire<P>, CodecError> {
    Ok(match r.u8()? {
        0 => Wire::RpsRequest {
            descriptors: get_descriptors(r)?,
        },
        1 => Wire::RpsReply {
            sent: get_descriptors(r)?,
            descriptors: get_descriptors(r)?,
        },
        2 => Wire::TManRequest {
            from_pos: P::decode_point(r)?,
            descriptors: get_descriptors(r)?,
        },
        3 => Wire::TManReply {
            descriptors: get_descriptors(r)?,
        },
        4 => Wire::MigrationRequest {
            xid: r.u64()?,
            from_pos: P::decode_point(r)?,
            guests: get_points(r)?,
        },
        5 => Wire::MigrationReply {
            xid: r.u64()?,
            points: get_points(r)?,
            busy: r.u8()? != 0,
            pulled: r.u64()? as usize,
            pushed: r.u64()? as usize,
        },
        6 => Wire::MigrationAck { xid: r.u64()? },
        7 => Wire::BackupPush {
            points: get_points(r)?,
            added_points: r.u64()? as usize,
            removed_ids: r.u64()? as usize,
        },
        8 => Wire::Heartbeat,
        9 => Wire::Query {
            qid: r.u64()?,
            origin: r.node_id()?,
            key: P::decode_point(r)?,
            ttl: r.u32()?,
            hops: r.u32()?,
        },
        10 => Wire::QueryReply {
            qid: r.u64()?,
            hops: r.u32()?,
            pos: P::decode_point(r)?,
        },
        11 => Wire::QueryBatch {
            queries: {
                let n = r.len(8 + 8 + P::MIN_ENCODED_SIZE + 4 + 4)?;
                (0..n)
                    .map(|_| {
                        Ok(QueryItem {
                            qid: r.u64()?,
                            origin: r.node_id()?,
                            key: P::decode_point(r)?,
                            ttl: r.u32()?,
                            hops: r.u32()?,
                        })
                    })
                    .collect::<Result<_, CodecError>>()?
            },
        },
        12 => Wire::QueryReplyBatch {
            replies: {
                let n = r.len(8 + 4 + P::MIN_ENCODED_SIZE)?;
                (0..n)
                    .map(|_| {
                        Ok(QueryReplyItem {
                            qid: r.u64()?,
                            hops: r.u32()?,
                            pos: P::decode_point(r)?,
                        })
                    })
                    .collect::<Result<_, CodecError>>()?
            },
        },
        tag => return Err(CodecError::BadTag { what: "Wire", tag }),
    })
}

/// Resets `out` to a fresh value start (version byte only), keeping its
/// capacity — the reuse point of every `encode_*_into` entry.
fn start_into(out: &mut Vec<u8>) {
    out.clear();
    out.push(FORMAT_VERSION);
}

fn open(bytes: &[u8]) -> Result<Reader<'_>, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(r)
}

fn finish<T>(r: Reader<'_>, value: T) -> Result<T, CodecError> {
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

/// Encodes one wire message.
pub fn encode_wire<P: PointCodec>(wire: &Wire<P>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_wire_into(&mut out, wire);
    out
}

/// Encodes one wire message into `out`, replacing its contents but
/// keeping its capacity — the allocation-free path for send loops that
/// serialize many values through one buffer.
pub fn encode_wire_into<P: PointCodec>(out: &mut Vec<u8>, wire: &Wire<P>) {
    start_into(out);
    put_wire(out, wire);
}

/// Decodes one wire message, rejecting trailing bytes.
pub fn decode_wire<P: PointCodec>(bytes: &[u8]) -> Result<Wire<P>, CodecError> {
    let mut r = open(bytes)?;
    let wire = get_wire(&mut r)?;
    finish(r, wire)
}

/// Encodes one driver event.
pub fn encode_event<P: PointCodec>(event: &Event<P>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event_into(&mut out, event);
    out
}

/// Encodes one driver event into `out`, replacing its contents but
/// keeping its capacity (see [`encode_wire_into`]).
pub fn encode_event_into<P: PointCodec>(out: &mut Vec<u8>, event: &Event<P>) {
    start_into(out);
    match event {
        Event::Message { from, wire } => {
            out.push(0);
            put_u64(out, from.as_u64());
            put_wire(out, wire);
        }
        Event::ProbeOk { peer, channel, pos } => {
            out.push(1);
            put_u64(out, peer.as_u64());
            out.push(channel_tag(*channel));
            match pos {
                Some(p) => {
                    out.push(1);
                    p.encode_point(out);
                }
                None => out.push(0),
            }
        }
        Event::PeerUnreachable { peer, channel } => {
            out.push(2);
            put_u64(out, peer.as_u64());
            out.push(channel_tag(*channel));
        }
    }
}

/// Decodes one driver event, rejecting trailing bytes.
pub fn decode_event<P: PointCodec>(bytes: &[u8]) -> Result<Event<P>, CodecError> {
    let mut r = open(bytes)?;
    let event = match r.u8()? {
        0 => Event::Message {
            from: r.node_id()?,
            wire: get_wire(&mut r)?,
        },
        1 => Event::ProbeOk {
            peer: r.node_id()?,
            channel: channel_from_tag(r.u8()?)?,
            pos: match r.u8()? {
                0 => None,
                1 => Some(P::decode_point(&mut r)?),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "Option",
                        tag,
                    })
                }
            },
        },
        2 => Event::PeerUnreachable {
            peer: r.node_id()?,
            channel: channel_from_tag(r.u8()?)?,
        },
        tag => return Err(CodecError::BadTag { what: "Event", tag }),
    };
    finish(r, event)
}

/// Encodes one node effect.
pub fn encode_effect<P: PointCodec>(effect: &Effect<P>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_effect_into(&mut out, effect);
    out
}

/// Encodes one node effect into `out`, replacing its contents but
/// keeping its capacity (see [`encode_wire_into`]).
pub fn encode_effect_into<P: PointCodec>(out: &mut Vec<u8>, effect: &Effect<P>) {
    start_into(out);
    match effect {
        Effect::Probe { peer, channel } => {
            out.push(0);
            put_u64(out, peer.as_u64());
            out.push(channel_tag(*channel));
        }
        Effect::Send { to, wire } => {
            out.push(1);
            put_u64(out, to.as_u64());
            put_wire(out, wire);
        }
    }
}

/// Decodes one node effect, rejecting trailing bytes.
pub fn decode_effect<P: PointCodec>(bytes: &[u8]) -> Result<Effect<P>, CodecError> {
    let mut r = open(bytes)?;
    let effect = match r.u8()? {
        0 => Effect::Probe {
            peer: r.node_id()?,
            channel: channel_from_tag(r.u8()?)?,
        },
        1 => Effect::Send {
            to: r.node_id()?,
            wire: get_wire(&mut r)?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "Effect",
                tag,
            })
        }
    };
    finish(r, effect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_input_fails_cleanly() {
        let wire: Wire<[f64; 2]> = Wire::RpsRequest {
            descriptors: vec![Descriptor::new(NodeId::new(3), [1.0, 2.0])],
        };
        let bytes = encode_wire(&wire);
        for cut in 0..bytes.len() {
            assert!(
                decode_wire::<[f64; 2]>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_wire::<f64>(&Wire::Heartbeat);
        bytes.push(0);
        assert_eq!(
            decode_wire::<f64>(&bytes),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_wire::<f64>(&Wire::Heartbeat);
        bytes[0] = 99;
        assert_eq!(decode_wire::<f64>(&bytes), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn corrupt_length_prefix_rejected_without_allocating() {
        let mut out = vec![FORMAT_VERSION, 0]; // RpsRequest
        out.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
        assert_eq!(
            decode_wire::<f64>(&out),
            Err(CodecError::BadLength(u64::MAX))
        );
    }

    #[test]
    fn into_variants_reuse_a_dirty_buffer() {
        // One buffer round-trips wire, event and effect back to back:
        // each encode must fully replace the previous (longer) contents,
        // not append to them, and must match the allocating encoder.
        let wire: Wire<[f64; 2]> = Wire::RpsReply {
            sent: vec![Descriptor::new(NodeId::new(1), [0.5, 1.5])],
            descriptors: vec![Descriptor::new(NodeId::new(2), [2.5, 3.5])],
        };
        let event: Event<[f64; 2]> = Event::ProbeOk {
            peer: NodeId::new(9),
            channel: Channel::Migration,
            pos: Some([4.0, 5.0]),
        };
        let effect: Effect<[f64; 2]> = Effect::Send {
            to: NodeId::new(4),
            wire: Wire::Heartbeat,
        };

        let mut buf = vec![0xAA; 256]; // deliberately dirty and oversized
        encode_wire_into(&mut buf, &wire);
        assert_eq!(buf, encode_wire(&wire));
        assert_eq!(decode_wire::<[f64; 2]>(&buf).unwrap(), wire);

        let cap = buf.capacity();
        encode_event_into(&mut buf, &event);
        assert_eq!(buf, encode_event(&event));
        assert_eq!(decode_event::<[f64; 2]>(&buf).unwrap(), event);

        encode_effect_into(&mut buf, &effect);
        assert_eq!(buf, encode_effect(&effect));
        assert_eq!(decode_effect::<[f64; 2]>(&buf).unwrap(), effect);
        assert_eq!(buf.capacity(), cap, "reuse must keep the allocation");
    }

    #[test]
    fn query_variants_roundtrip_through_a_dirty_buffer() {
        let query: Wire<[f64; 2]> = Wire::Query {
            qid: 0xFEED_BEEF,
            origin: NodeId::new(17),
            key: [3.25, 7.5],
            ttl: 64,
            hops: 5,
        };
        let reply: Wire<[f64; 2]> = Wire::QueryReply {
            qid: 0xFEED_BEEF,
            hops: 9,
            pos: [1.0, 2.0],
        };
        let mut buf = vec![0x55; 300]; // dirty and oversized
        for wire in [&query, &reply] {
            encode_wire_into(&mut buf, wire);
            assert_eq!(buf, encode_wire(wire));
            assert_eq!(&decode_wire::<[f64; 2]>(&buf).unwrap(), wire);
            for cut in 0..buf.len() {
                assert!(decode_wire::<[f64; 2]>(&buf[..cut]).is_err());
            }
        }
    }

    #[test]
    fn batch_variants_roundtrip_through_a_dirty_buffer() {
        let batch: Wire<[f64; 2]> = Wire::QueryBatch {
            queries: vec![
                QueryItem {
                    qid: 0xDEAD_BEEF,
                    origin: NodeId::new(17),
                    key: [3.25, 7.5],
                    ttl: 64,
                    hops: 5,
                },
                QueryItem {
                    qid: 0xDEAD_BEF0,
                    origin: NodeId::new(18),
                    key: [0.0, 1.0],
                    ttl: 64,
                    hops: 0,
                },
            ],
        };
        let replies: Wire<[f64; 2]> = Wire::QueryReplyBatch {
            replies: vec![
                QueryReplyItem {
                    qid: 0xDEAD_BEEF,
                    hops: 9,
                    pos: [1.0, 2.0],
                },
                QueryReplyItem {
                    qid: 0xDEAD_BEF0,
                    hops: 1,
                    pos: [5.0, 6.0],
                },
            ],
        };
        let mut buf = vec![0x55; 300]; // dirty and oversized
        for wire in [&batch, &replies] {
            encode_wire_into(&mut buf, wire);
            assert_eq!(buf, encode_wire(wire));
            assert_eq!(&decode_wire::<[f64; 2]>(&buf).unwrap(), wire);
            for cut in 0..buf.len() {
                assert!(decode_wire::<[f64; 2]>(&buf[..cut]).is_err());
            }
        }
        // Empty batches are legal on the wire (senders elide them, but a
        // decoder must not conflate "empty" with "corrupt").
        let empty: Wire<[f64; 2]> = Wire::QueryBatch { queries: vec![] };
        assert_eq!(
            decode_wire::<[f64; 2]>(&encode_wire(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn corrupt_batch_length_prefix_rejected_without_allocating() {
        for tag in [11u8, 12u8] {
            let mut out = vec![FORMAT_VERSION, tag];
            out.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
            assert_eq!(
                decode_wire::<[f64; 2]>(&out),
                Err(CodecError::BadLength(u64::MAX))
            );
        }
    }

    /// Encodes `value` (which carries the id `u32::MAX` exactly once),
    /// checks that it round-trips, then raises that id field to
    /// `u32::MAX + 1`: decoding must fail with [`CodecError::BadNodeId`].
    fn assert_id_field_bounded<T: PartialEq + std::fmt::Debug>(
        value: T,
        encode: fn(&T) -> Vec<u8>,
        decode: fn(&[u8]) -> Result<T, CodecError>,
    ) {
        let mut bytes = encode(&value);
        assert_eq!(decode(&bytes).as_ref(), Ok(&value));
        let top = u64::from(u32::MAX).to_le_bytes();
        let at: Vec<usize> = (0..=bytes.len() - 8)
            .filter(|&i| bytes[i..i + 8] == top)
            .collect();
        assert_eq!(at.len(), 1, "{value:?} must hold the id field once");
        let past = u64::from(u32::MAX) + 1;
        bytes[at[0]..at[0] + 8].copy_from_slice(&past.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(CodecError::BadNodeId(past)),
            "{value:?}"
        );
    }

    #[test]
    fn ids_past_u32_max_fail_in_every_id_field() {
        let top = NodeId::new(u64::from(u32::MAX));
        let query = |origin| QueryItem {
            qid: 7,
            origin,
            key: [3.0, 4.0],
            ttl: 64,
            hops: 1,
        };
        let wires: [Wire<[f64; 2]>; 3] = [
            Wire::RpsRequest {
                descriptors: vec![Descriptor::with_age(top, [1.0, 2.0], 3)],
            },
            Wire::Query {
                qid: 7,
                origin: top,
                key: [3.0, 4.0],
                ttl: 64,
                hops: 1,
            },
            Wire::QueryBatch {
                queries: vec![query(NodeId::new(5)), query(top)],
            },
        ];
        for wire in wires {
            assert_id_field_bounded(wire, encode_wire, decode_wire);
        }
        let events: [Event<[f64; 2]>; 3] = [
            Event::Message {
                from: top,
                wire: Wire::Heartbeat,
            },
            Event::ProbeOk {
                peer: top,
                channel: Channel::Backup,
                pos: Some([1.0, 2.0]),
            },
            Event::PeerUnreachable {
                peer: top,
                channel: Channel::Query,
            },
        ];
        for event in events {
            assert_id_field_bounded(event, encode_event, decode_event);
        }
        let effects: [Effect<[f64; 2]>; 2] = [
            Effect::Probe {
                peer: top,
                channel: Channel::Topology,
            },
            Effect::Send {
                to: top,
                wire: Wire::Heartbeat,
            },
        ];
        for effect in effects {
            assert_id_field_bounded(effect, encode_effect, decode_effect);
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let bytes = vec![FORMAT_VERSION, 200];
        assert!(matches!(
            decode_wire::<f64>(&bytes),
            Err(CodecError::BadTag { what: "Wire", .. })
        ));
        assert!(matches!(
            decode_event::<f64>(&bytes),
            Err(CodecError::BadTag { what: "Event", .. })
        ));
        assert!(matches!(
            decode_effect::<f64>(&bytes),
            Err(CodecError::BadTag { what: "Effect", .. })
        ));
    }
}
