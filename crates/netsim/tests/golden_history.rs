//! Golden bit-identity: the event kernel's seeded schedules are frozen —
//! the netsim mirror of the engine's `golden_history` suite.
//!
//! The kernel's determinism contract ("identical configurations replay
//! bit-identical histories") is only load-bearing if something pins the
//! *current* schedule: activation jitter, `(deliver_at, seq)` ordering,
//! the network model's separate entropy stream, detection events and the
//! migration ack/parking machinery all feed these numbers. The
//! fingerprints below freeze a lossy, laggy three-phase run — any change
//! that shifts a single RNG draw, reorders one queue pop, or alters one
//! fate decision shows up here. (Deliberate schedule changes must
//! re-capture the fingerprints and say so in review.)
//!
//! Re-pinned twice since capture. PR 13 put the paper's per-round T-Man
//! position refresh on the kernel's round boundary (`NetSim::step`), so
//! views hold current positions where they used to hold the positions
//! gossip last carried, and every round after the first migration
//! differs. PR 19 gave every node its own entropy stream
//! (`node_seed(seed, id)`, as on the live substrates) where all handlers
//! used to draw from the kernel's one, so that a tick's events can be
//! served in parallel lanes: every protocol choice is a different draw.
//! Event order did not move — the wave loop run on one shared stream
//! still reproduced the PR 13 values — and the lane count cannot
//! (`lane_count_never_shows` in `kernel.rs`). The engine, lab and
//! runtime goldens moved neither time.

use polystyrene_netsim::prelude::*;
use polystyrene_space::prelude::*;

/// FNV-1a over the bit patterns of every field of every round.
fn fingerprint(metrics: &[NetRoundMetrics]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x100000001b3);
    };
    for m in metrics {
        mix(m.round as u64);
        mix(m.alive_nodes as u64);
        mix(m.parked_points as u64);
        mix(m.in_flight as u64);
        mix(m.sent_messages);
        mix(m.dropped_messages);
        for f in [
            m.homogeneity,
            m.reference_homogeneity,
            m.surviving_points,
            m.points_per_node,
        ] {
            mix(f.to_bits());
        }
    }
    hash
}

/// A 16×8 torus under a lossy, laggy link: converge 12 rounds, kill the
/// right half, churn-free recovery to round 30, re-inject 64 nodes,
/// observe to round 45 — every kernel mechanism (latency straddling
/// rounds, drops, parking, detection) exercised in one seeded run.
fn lossy_history(seed: u64) -> Vec<NetRoundMetrics> {
    let (cols, rows) = (16usize, 8usize);
    let mut cfg = NetSimConfig::default();
    cfg.area = (cols * rows) as f64;
    cfg.seed = seed;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    cfg.link = LinkProfile {
        latency: 3,
        jitter: 2,
        loss: 0.05,
    };
    cfg.detection_delay_ticks = cfg.ticks_per_round;
    let mut sim = NetSim::new(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        cfg,
    );
    sim.run(12);
    sim.kill_region(&shapes::in_right_half(cols as f64));
    sim.run(18);
    sim.inject(&shapes::torus_grid_offset(cols / 2, rows, 1.0));
    sim.run(15);
    sim.history().to_vec()
}

#[test]
fn lossy_schedule_is_bit_identical_seed_42() {
    let history = lossy_history(42);
    assert_eq!(history.len(), 45);
    let last = history.last().unwrap();
    assert_eq!(last.alive_nodes, 128);
    // Spot values of the final round, for a readable diff when the
    // fingerprint trips.
    assert_eq!(last.homogeneity.to_bits(), 0x3fcb6a09e667f3bd);
    assert_eq!(last.surviving_points.to_bits(), 0x3fef400000000000);
    assert_eq!(last.sent_messages, 27912);
    assert_eq!(last.dropped_messages, 1408);
    assert_eq!(
        fingerprint(&history),
        0x4fc5d7559cf68eec,
        "seed-42 netsim schedule diverged"
    );
}

#[test]
fn lossy_schedule_is_bit_identical_seed_7() {
    let history = lossy_history(7);
    let last = history.last().unwrap();
    assert_eq!(last.alive_nodes, 128);
    assert_eq!(
        fingerprint(&history),
        0x319aa6085ad1b563,
        "seed-7 netsim schedule diverged"
    );
}
