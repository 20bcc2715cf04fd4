//! Node identifiers.

/// A globally unique node identifier.
///
/// Ids are dense 32-bit indices: the node pool (`NodePool` in the
/// protocol crate) and the live cluster each mint them from a counter
/// starting at 0, and `FailureTable` and the pool's slot map are
/// vectors indexed by [`NodeId::index`]. Holding 4 bytes instead of 8
/// packs a 2-D gossip descriptor into 24 bytes. The wire keeps an 8-byte
/// id field; the codec rejects values above `u32::MAX` with a typed
/// error.
///
/// In the paper's cost model a node ID is the unit of communication: "We
/// assume a single coordinate uses the same size as a node ID, and take
/// this as our arbitrary communication unit" (Sec. IV-A). The simulator's
/// cost accounting charges 1 unit per `NodeId` on the wire.
///
/// # Example
///
/// ```
/// use polystyrene_membership::NodeId;
///
/// let a = NodeId::new(7);
/// assert_eq!(a.as_u64(), 7);
/// assert_eq!(format!("{a}"), "n7");
/// assert!(a < NodeId::new(8));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw integer.
    ///
    /// # Panics
    ///
    /// If `raw` exceeds `u32::MAX`; [`NodeId::try_from`] is the checked
    /// form.
    pub const fn new(raw: u64) -> Self {
        assert!(
            raw <= u32::MAX as u64,
            "node id exceeds u32::MAX, the bound of the 32-bit id space"
        );
        Self(raw as u32)
    }

    /// The raw integer value.
    pub const fn as_u64(&self) -> u64 {
        self.0 as u64
    }

    /// The raw value as a usize, convenient for dense array indexing in the
    /// simulator (ids are allocated contiguously there).
    pub const fn index(&self) -> usize {
        self.0 as usize
    }
}

impl TryFrom<u64> for NodeId {
    type Error = std::num::TryFromIntError;

    /// The checked form of [`NodeId::new`]: fails above `u32::MAX`.
    fn try_from(raw: u64) -> Result<Self, Self::Error> {
        u32::try_from(raw).map(Self)
    }
}

/// A multiply-rotate hasher for integer keys (FxHash-style).
///
/// `NodeId`-keyed maps sit on gossip hot paths — T-Man's per-exchange
/// view dedup alone hashes every merged descriptor on every exchange of
/// every node — where SipHash's per-insert cost dominates the whole
/// lookup. Ids are not attacker-controlled (they are allocated by the
/// driver), so HashDoS resistance buys nothing here.
///
/// Only the fixed-width integer `write_*` entry points are implemented
/// with mixing; keys that hash arbitrary byte strings should keep the
/// default hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer inputs (rare on these maps): fold the
        // bytes through the same mix.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by [`NodeId`] (or other trusted integers) using
/// [`IdHasher`].
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        u64::from(id.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_and_ordering() {
        let id = NodeId::new(42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(NodeId::try_from(42u64), Ok(id));
        assert_eq!(id.index(), 42);
        assert!(NodeId::new(1) < NodeId::new(2));
        // The id space ends at u32::MAX.
        let top = u64::from(u32::MAX);
        assert_eq!(NodeId::new(top).as_u64(), top);
        assert_eq!(NodeId::try_from(top), Ok(NodeId::new(top)));
        assert!(NodeId::try_from(top + 1).is_err());
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn minting_past_the_id_space_names_the_bound() {
        let _ = NodeId::new(u64::from(u32::MAX) + 1);
    }

    #[test]
    fn descriptors_pack_into_24_bytes() {
        // A wider id would grow every gossip view by a third; fail here
        // rather than as a slow creep in peak resident memory.
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<crate::Descriptor<[f64; 2]>>(), 24);
    }

    #[test]
    fn display() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
        assert_eq!(NodeId::new(3199).to_string(), "n3199");
    }

    #[test]
    fn usable_in_hash_sets() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", NodeId::new(5)).is_empty());
    }

    #[test]
    fn id_hash_map_behaves_like_a_map() {
        let mut m: IdHashMap<NodeId, u32> = IdHashMap::default();
        for i in 0..1000u64 {
            m.insert(NodeId::new(i), i as u32);
        }
        m.insert(NodeId::new(7), 99);
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&NodeId::new(7)], 99);
        assert_eq!(m[&NodeId::new(999)], 999);
        assert!(!m.contains_key(&NodeId::new(1000)));
    }

    #[test]
    fn id_hasher_spreads_sequential_ids() {
        use std::hash::{Hash, Hasher};
        // Sequential ids (the simulator's allocation pattern) must not
        // collapse onto a few buckets.
        let mut lows = HashSet::new();
        for i in 0..256u64 {
            let mut h = IdHasher::default();
            NodeId::new(i).hash(&mut h);
            lows.insert(h.finish() & 0xff);
        }
        assert!(lows.len() > 128, "only {} distinct low bytes", lows.len());
    }
}
