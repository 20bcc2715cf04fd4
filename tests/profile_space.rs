//! Polystyrene over a non-geometric data space: user profiles as item
//! sets under the Jaccard distance.
//!
//! The paper's system model allows data points to be "a list of items"
//! from "the power-set of items" (Sec. III-A) — the profile spaces of
//! gossip recommenders (Gossple, WhatsUp). Nothing in the stack assumes
//! coordinates: this test runs the full engine over `JaccardSpace` and
//! verifies clustering, catastrophic failure and recovery.

use polystyrene_repro::prelude::*;

/// Builds `communities` user communities of `per_community` profiles each.
/// Members of community `c` share the core items `{100c … 100c+7}` and
/// differ in a couple of personal items, so intra-community distance is
/// small and inter-community distance is ≈ 1.
fn profile_population(communities: usize, per_community: usize) -> Vec<ItemSet> {
    let mut out = Vec::new();
    for c in 0..communities {
        for m in 0..per_community {
            let mut profile: ItemSet = (0..8).map(|i| (c * 100 + i) as u32).collect();
            profile.insert((c * 100 + 50 + m) as u32); // personal taste
            out.push(profile);
        }
    }
    out
}

fn engine(communities: usize, per_community: usize, seed: u64) -> Engine<JaccardSpace> {
    let shape = profile_population(communities, per_community);
    let mut cfg = EngineConfig::default();
    // The Jaccard space has no meaningful area; keep reporting sane.
    cfg.area = 1.0;
    cfg.seed = seed;
    cfg.tman.view_cap = 20;
    cfg.tman.m = 8;
    cfg.poly.replication = 4;
    Engine::new(JaccardSpace, shape, cfg)
}

#[test]
fn profiles_cluster_by_community() {
    let (communities, per) = (6, 12);
    let mut e = engine(communities, per, 3);
    e.run(15);
    // Each node's closest topology neighbors should mostly come from its
    // own community (ids are laid out community-contiguous).
    let mut same = 0usize;
    let mut total = 0usize;
    for &id in e.alive_ids() {
        let my_community = id.index() / per;
        for n in e.neighbors_of(id, 4) {
            total += 1;
            if n.index() / per == my_community {
                same += 1;
            }
        }
    }
    let fraction = same as f64 / total as f64;
    assert!(
        fraction > 0.9,
        "only {fraction:.2} of neighbors are community-local"
    );
}

#[test]
fn community_outage_is_absorbed() {
    let (communities, per) = (6, 12);
    let mut e = engine(communities, per, 4);
    e.run(15);
    assert!(e.compute_metrics().homogeneity < 1e-9);

    // Communities 0-2 were hosted in the datacenter that just died
    // (ids are community-contiguous, so this is a correlated failure in
    // profile space too).
    let per_u64 = per as u64;
    let cut = 3 * per_u64;
    let victims: Vec<NodeId> = (0..cut).map(NodeId::new).collect();
    for v in victims {
        e.crash(v);
    }
    assert_eq!(e.alive_count(), 36);
    e.run(20);
    let m = e.compute_metrics();
    // Most profiles survived via replication…
    assert!(
        m.surviving_points > 0.9,
        "profiles lost: {}",
        m.surviving_points
    );
    // …and their nearest holders are close in Jaccard distance (the
    // maximum possible distance is 1.0; random assignment would sit
    // near 1).
    assert!(
        m.homogeneity < 0.45,
        "profile shape not preserved: homogeneity {}",
        m.homogeneity
    );
}
