//! Spawn-time bootstrap sampling: what a founding node or a fresh
//! joiner of a [`crate::Cluster`] initially *knows*.
//!
//! Founders draw contacts from the target shape, joiners from the alive
//! population through the one sampling path every substrate shares
//! ([`sample_bootstrap_contacts`]), so what "inject" bootstraps (and how
//! much entropy it consumes) cannot drift from the simulators.

use crate::observe::NodeReport;
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::sample_bootstrap_contacts;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

/// Draws up to `count` distinct bootstrap contacts for founding node
/// `own` from the target shape: the contact set the cluster seeds its
/// nodes' gossip layers with at spawn.
pub fn contacts_from_shape<P: Clone>(
    shape: &[P],
    own: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Descriptor<P>> {
    let n = shape.len();
    let mut contacts = Vec::new();
    for _ in 0..count * 2 {
        if contacts.len() >= count {
            break;
        }
        let j = rng.random_range(0..n);
        if j != own && !contacts.iter().any(|d: &Descriptor<P>| d.id.index() == j) {
            contacts.push(Descriptor::new(NodeId::new(j as u64), shape[j].clone()));
        }
    }
    contacts
}

/// Draws `count` bootstrap contacts for a fresh joiner from the alive
/// population, with positions resolved through the observation board —
/// a board-backed view over the one shared sampling path
/// ([`sample_bootstrap_contacts`]), so what "inject" bootstraps (and
/// how much entropy it consumes) cannot drift from the deterministic
/// substrates.
pub fn contacts_from_board<P: Clone>(
    alive: &[NodeId],
    snapshot: &HashMap<NodeId, NodeReport<P>>,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Descriptor<P>> {
    sample_bootstrap_contacts(
        alive,
        &|id| snapshot.get(&id).map(|r| r.pos.clone()),
        count,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shape_contacts_exclude_self_and_duplicates() {
        let shape: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let contacts = contacts_from_shape(&shape, 3, 5, &mut rng);
        assert!(contacts.len() <= 5);
        assert!(contacts.iter().all(|d| d.id.index() != 3));
        let mut ids: Vec<usize> = contacts.iter().map(|d| d.id.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), contacts.len(), "no duplicate contacts");
    }

    #[test]
    fn board_contacts_resolve_positions_from_reports() {
        let mut snapshot: HashMap<NodeId, NodeReport<f64>> = HashMap::new();
        snapshot.insert(
            NodeId::new(4),
            NodeReport {
                ticks: 1,
                ..NodeReport::at(4.5)
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        // Node 9 never published: draws landing on it are skipped.
        let alive = vec![NodeId::new(4), NodeId::new(9)];
        let contacts = contacts_from_board(&alive, &snapshot, 8, &mut rng);
        assert!(!contacts.is_empty());
        assert!(contacts.iter().all(|d| d.id == NodeId::new(4)));
        assert!(contacts.iter().all(|d| d.pos == 4.5));
        assert!(contacts_from_board(&[], &snapshot, 4, &mut rng).is_empty());
    }
}
