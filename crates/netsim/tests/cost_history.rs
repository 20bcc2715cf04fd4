//! The event kernel's per-round cost, pinned.
//!
//! `golden_history.rs` freezes the kernel's schedule through every
//! population and message field of its rounds, but not through the
//! paper's cost units: nothing in the protocol reads them back, so a
//! change that only mis-prices a round (a wire charged twice, a refresh
//! left uncharged) replays the same schedule and passes there. This
//! suite pins `cost_units` and `tman_cost_share` of a lossy run through
//! a half-torus kill, bit for bit.

use polystyrene_netsim::prelude::*;
use polystyrene_space::prelude::*;

/// FNV-1a over the bit patterns of every round's cost fields.
fn cost_fingerprint(metrics: &[NetRoundMetrics]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for m in metrics {
        for v in [
            u64::from(m.round),
            m.cost_units.to_bits(),
            m.tman_cost_share.to_bits(),
        ] {
            hash ^= v;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// A 16×8 torus under a lossy, laggy link: converge 12 rounds, kill the
/// right half, reshape for 10 — the rounds whose refresh moves the most
/// view entries.
fn lossy_costs(seed: u64) -> Vec<NetRoundMetrics> {
    let mut cfg = NetSimConfig::default();
    cfg.area = 128.0;
    cfg.seed = seed;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    cfg.link = LinkProfile {
        latency: 3,
        jitter: 2,
        loss: 0.05,
    };
    let mut sim = NetSim::new(Torus2::new(16.0, 8.0), shapes::torus_grid(16, 8, 1.0), cfg);
    sim.run(12);
    sim.kill_region(&shapes::in_right_half(16.0));
    sim.run(10);
    sim.history().to_vec()
}

#[test]
fn round_costs_are_bit_identical() {
    for (seed, pinned) in [(42, 0x80af_27b3_2373_0d03), (7, 0x8372_88e2_9996_1381)] {
        let history = lossy_costs(seed);
        assert_eq!(history.len(), 22);
        assert_eq!(
            cost_fingerprint(&history),
            pinned,
            "seed-{seed} netsim round costs diverged"
        );
    }
}
