//! Node descriptors — the records gossip layers exchange.

use crate::id::NodeId;

/// A node descriptor: the node's identity, its current position in the
/// data space, and a gossip age.
///
/// This is the wire record of both gossip layers (paper Fig. 2): the RPS
/// shuffles descriptors to randomize its overlay, and T-Man ranks them by
/// distance to build the topology. The paper's cost model charges
/// descriptors at "ID + coordinates = 3 units" for 2-D positions
/// (Sec. IV-A).
///
/// `age` counts gossip rounds since the descriptor was created by its
/// subject; fresher (lower-age) descriptors carry more recent positions,
/// which matters because Polystyrene nodes *move*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Descriptor<P> {
    /// Identity of the described node.
    pub id: NodeId,
    /// Last known position of the node in the data space.
    pub pos: P,
    /// Gossip age in rounds (0 = freshly minted by the subject itself).
    pub age: u32,
}

impl<P> Descriptor<P> {
    /// Creates a fresh descriptor (age 0).
    pub fn new(id: NodeId, pos: P) -> Self {
        Self { id, pos, age: 0 }
    }

    /// Creates a descriptor with an explicit age.
    pub fn with_age(id: NodeId, pos: P, age: u32) -> Self {
        Self { id, pos, age }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let d = Descriptor::new(NodeId::new(1), [1.0, 2.0]);
        assert_eq!(d.age, 0);
        let d = Descriptor::with_age(NodeId::new(1), [1.0, 2.0], 5);
        assert_eq!(d.age, 5);
    }

    #[test]
    fn generic_over_position_type() {
        let d = Descriptor::new(NodeId::new(9), 0.25f64);
        assert_eq!(d.pos, 0.25);
        let d = Descriptor::new(NodeId::new(9), [0.0f64; 3]);
        assert_eq!(d.pos.len(), 3);
    }
}
