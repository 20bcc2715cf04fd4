//! Data points — the passive positions that define the target shape.
//!
//! "Data points differ from virtual nodes as they do not maintain any
//! neighborhood. They are passive data, and do not execute any protocol.
//! The set of all data points defines the underlying shape the topology
//! should converge to." (paper Sec. II-C)

/// Stable identity of a data point, assigned when the target shape is
/// created and preserved across every migration and replication.
///
/// Identity (rather than position equality) is what lets migration
/// deduplicate redundant copies after a recovery wave (the replica spike of
/// paper Fig. 7a) and what the homogeneity metric traces: "the mean
/// distance between each initial data point and the nearest node hosting
/// this data point" (Sec. IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointId(u64);

impl PointId {
    /// Creates a point id from a raw integer.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw integer value.
    pub const fn as_u64(&self) -> u64 {
        self.0
    }

    /// The raw value as a usize (ids are allocated contiguously by the
    /// shape generators).
    pub const fn index(&self) -> usize {
        self.0 as usize
    }
}

impl From<u64> for PointId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl std::fmt::Display for PointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A data point: a stable identity plus a position in the data space.
///
/// # Example
///
/// ```
/// use polystyrene::{DataPoint, PointId};
///
/// let p = DataPoint::new(PointId::new(3), [1.0, 2.0]);
/// assert_eq!(p.id, PointId::new(3));
/// assert_eq!(p.pos, [1.0, 2.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DataPoint<P> {
    /// Stable identity.
    pub id: PointId,
    /// Position in the data space. Usually immutable; the evolving-shape
    /// extension (paper footnote 1) mutates it in place.
    pub pos: P,
}

impl<P> DataPoint<P> {
    /// Creates a data point.
    pub fn new(id: PointId, pos: P) -> Self {
        Self { id, pos }
    }
}

thread_local! {
    /// Reusable id set for [`dedup_by_id_in_place`] — the dedup runs once
    /// per migration union, and a fresh `HashSet` there was a steady
    /// per-exchange allocation.
    static SEEN_IDS: std::cell::RefCell<std::collections::HashSet<PointId>> =
        std::cell::RefCell::new(std::collections::HashSet::new());
}

/// Removes duplicate data points by id in place, keeping the first
/// occurrence — the dedup rule of the migration union ("all points ←
/// p.guests ∪ q.guests", Algorithm 3 line 4, where ∪ is a set union over
/// identities). An order-preserving `retain` over a thread-local
/// seen-set, so the union → dedup step of every exchange costs zero
/// steady-state allocations.
pub fn dedup_by_id_in_place<P>(points: &mut Vec<DataPoint<P>>) {
    SEEN_IDS.with(|cell| {
        let mut seen = cell.borrow_mut();
        seen.clear();
        points.retain(|p| seen.insert(p.id));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_id_roundtrip() {
        let id = PointId::new(9);
        assert_eq!(id.as_u64(), 9);
        assert_eq!(id.index(), 9);
        assert_eq!(PointId::from(9u64), id);
        assert_eq!(id.to_string(), "p9");
    }

    #[test]
    fn datapoint_generic_over_position() {
        let a = DataPoint::new(PointId::new(0), 0.5f64);
        assert_eq!(a.pos, 0.5);
        let b = DataPoint::new(PointId::new(1), [0.0, 1.0]);
        assert_eq!(b.pos[1], 1.0);
    }

    #[test]
    fn dedup_keeps_first_occurrence() {
        let mut out = vec![
            DataPoint::new(PointId::new(1), [0.0, 0.0]),
            DataPoint::new(PointId::new(2), [1.0, 0.0]),
            DataPoint::new(PointId::new(1), [9.0, 9.0]),
        ];
        dedup_by_id_in_place(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pos, [0.0, 0.0]); // first copy of id 1 kept
        assert_eq!(out[1].id, PointId::new(2));
    }

    #[test]
    fn dedup_of_empty_is_empty() {
        let mut out: Vec<DataPoint<f64>> = Vec::new();
        dedup_by_id_in_place(&mut out);
        assert!(out.is_empty());
    }
}
