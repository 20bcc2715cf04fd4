//! T-Man's interface, as the layers above it call it.

use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_space::MetricSpace;
use rand::Rng;

/// The topology-construction layer as the rest of the stack calls it
/// (paper Fig. 3: Polystyrene only consumes "Neighbours" from this layer
/// and feeds it a "Node position"). [`crate::TMan`] is its one
/// implementation; the paper argues the layer above could sit on any
/// such protocol (Sec. II-C) but evaluates on T-Man alone (Sec. IV).
///
/// T-Man is a *passive state machine*: an external driver (the cycle
/// engine, the event kernel or a live node loop) owns scheduling and
/// message delivery, which keeps the protocol testable in isolation.
pub trait TopologyConstruction<S: MetricSpace> {
    /// Ages the local view by one round (descriptor staleness bookkeeping).
    fn begin_round(&mut self);

    /// The `k` view entries closest to `pos` — the neighborhood returned to
    /// Polystyrene (Step 1' of paper Fig. 4).
    fn closest(&self, pos: &S::Point, k: usize) -> Vec<Descriptor<S::Point>>;

    /// Selects the gossip partner for this round given the node's current
    /// position (T-Man: random among the ψ closest).
    fn select_partner<R: Rng + ?Sized>(&self, pos: &S::Point, rng: &mut R) -> Option<NodeId>;

    /// Merges descriptors into the view: deduplicate by id keeping the
    /// freshest, drop `self_id`, re-rank by distance to `pos`, truncate to
    /// the view capacity.
    fn integrate(&mut self, self_id: NodeId, pos: &S::Point, incoming: &[Descriptor<S::Point>]);

    /// Drops every view entry the failure detector flags; returns the
    /// number removed.
    fn purge_failed(&mut self, is_failed: &dyn Fn(NodeId) -> bool) -> usize;

    /// Number of entries currently in the view.
    fn view_len(&self) -> usize;

    /// All view entries (for metrics and snapshots), borrowed in the
    /// protocol's internal order. For [`crate::TMan`] that is rank order
    /// for the position of its last merge — squared distance, ties by id
    /// — so the slice starts with the node's closest neighbors. Returning
    /// a slice instead of a cloned `Vec` keeps the per-round observation
    /// and lookup paths off the allocator — callers that need ownership
    /// clone explicitly.
    fn view_entries(&self) -> &[Descriptor<S::Point>];

    /// The position this view currently believes `id` is at, or `None`
    /// when `id` is not in the view.
    ///
    /// A borrow into the view — exchange setup does this lookup once per
    /// gossip partner, which made the old per-lookup clone measurable at
    /// large network sizes.
    fn position_of(&self, id: NodeId) -> Option<&S::Point> {
        self.view_entries()
            .iter()
            .find(|d| d.id == id)
            .map(|d| &d.pos)
    }
}
