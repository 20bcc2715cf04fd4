//! The paper's per-round T-Man position refresh (Sec. IV-B), checked
//! from outside on both deterministic substrates: after Polystyrene has
//! moved the survivors of a half-torus kill, views must hold current
//! positions, and greedy forwarding over them must still end at the
//! true nearest node in a handful of hops. The same holds wherever a
//! regional blast falls: once the shape has reshaped, every hashed key
//! of the workload resolves again.

use polystyrene_lab::{key_universe, Substrate};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_netsim::NetSim;
use polystyrene_protocol::{LinkProfile, SubstrateConfig};
use polystyrene_sim::prelude::*;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use polystyrene_topology::TManConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COLS: usize = 32;
const ROWS: usize = 16;
const TTL: u32 = 16;
const SEED: u64 = 3;

/// Ground-truth reads the body needs and no trait carries; both drivers
/// have them as inherent methods under the same names.
trait Audited: Substrate<[f64; 2]> {
    fn alive(&self) -> Vec<NodeId>;
    fn pos(&self, id: NodeId) -> Option<[f64; 2]>;
    fn view(&self, id: NodeId) -> Option<&[Descriptor<[f64; 2]>]>;
    fn stale(&self) -> (u64, u64);
    fn drain_samples(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64);
}

macro_rules! audited {
    ($driver:ty) => {
        impl Audited for $driver {
            fn alive(&self) -> Vec<NodeId> {
                self.alive_ids().to_vec()
            }
            fn pos(&self, id: NodeId) -> Option<[f64; 2]> {
                self.poly_state(id).map(|s| s.pos)
            }
            fn view(&self, id: NodeId) -> Option<&[Descriptor<[f64; 2]>]> {
                self.view_entries_of(id)
            }
            fn stale(&self) -> (u64, u64) {
                self.stale_view_entries()
            }
            fn drain_samples(&mut self, samples: &mut Vec<(u32, u64)>) -> (u64, u64, u64) {
                self.drain_traffic(samples)
            }
        }
    };
}
audited!(Engine<Torus2>);
audited!(NetSim<Torus2>);

fn space() -> Torus2 {
    Torus2::new(COLS as f64, ROWS as f64)
}

fn tman() -> TManConfig {
    TManConfig {
        view_cap: 30,
        m: 10,
        psi: 5,
    }
}

fn engine(cols: usize, rows: usize, tman: TManConfig, seed: u64) -> Engine<Torus2> {
    let mut cfg = SubstrateConfig::default();
    cfg.tman = tman;
    cfg.area = (cols * rows) as f64;
    cfg.seed = seed;
    Engine::new(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        cfg,
    )
}

fn kernel(cols: usize, rows: usize, tman: TManConfig, seed: u64) -> NetSim<Torus2> {
    let mut cfg = SubstrateConfig::default();
    cfg.tman = tman;
    cfg.area = (cols * rows) as f64;
    cfg.seed = seed;
    cfg.link = LinkProfile {
        latency: 2,
        jitter: 1,
        loss: 0.0,
    };
    NetSim::new(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        cfg,
    )
}

/// Offers `keys` for `rounds` rounds, two quiet rounds for stragglers,
/// and returns every resolved query's hop count with the summed
/// `(offered, delivered, dropped)`.
fn serve<A: Audited>(sub: &mut A, keys: &[[f64; 2]], rounds: u32) -> (Vec<u32>, (u64, u64, u64)) {
    let mut samples = Vec::new();
    let mut totals = (0, 0, 0);
    for r in 0..rounds + 2 {
        if r < rounds {
            sub.offer_traffic(keys, TTL);
        }
        sub.step();
        let (o, d, x) = sub.drain_samples(&mut samples);
        totals = (totals.0 + o, totals.1 + d, totals.2 + x);
    }
    (samples.into_iter().map(|(hops, _)| hops).collect(), totals)
}

fn mean(hops: &[u32]) -> f64 {
    hops.iter().map(|&h| f64::from(h)).sum::<f64>() / hops.len() as f64
}

/// Where greedy forwarding over the views, as `closer_view_entry` does
/// it (argmin of believed distance, strictly below the forwarder's own
/// true distance), ends up from `from`. `None` if it steps onto a dead
/// node or is still moving after 64 hops.
fn greedy_terminus<A: Audited>(
    sub: &A,
    space: &Torus2,
    from: NodeId,
    key: &[f64; 2],
) -> Option<NodeId> {
    let mut at = from;
    for _ in 0..64 {
        let mut bar = space.distance(&sub.pos(at)?, key);
        let mut next = None;
        for entry in sub.view(at)? {
            let d = space.distance(&entry.pos, key);
            if d < bar {
                (bar, next) = (d, Some(entry.id));
            }
        }
        match next {
            Some(id) => at = id,
            None => return Some(at),
        }
    }
    None
}

/// How many of the greedy routes to `keys`, each from its own spread-out
/// alive source, end at the true nearest alive node.
fn routes_at_nearest<A: Audited>(sub: &A, space: &Torus2, keys: &[[f64; 2]]) -> usize {
    let alive = sub.alive();
    let mut at_nearest = 0;
    for (i, key) in keys.iter().enumerate() {
        let nearest = alive
            .iter()
            .map(|&id| space.distance(&sub.pos(id).expect("alive"), key))
            .fold(f64::INFINITY, f64::min);
        let from = alive[i * alive.len() / keys.len()];
        if let Some(end) = greedy_terminus(sub, space, from, key) {
            let reached = space.distance(&sub.pos(end).expect("terminus alive"), key);
            at_nearest += usize::from(reached <= nearest + 1e-9);
        }
    }
    at_nearest
}

/// Converge, kill `x >= cols/2`, let the survivors reshape for 30
/// rounds, then serve traffic for 10.
///
/// At the parent of PR 13 this body passed on the engine and failed all
/// three checks on netsim, which ran no refresh: survivors that moved
/// into the dead half stayed in other views at their founding
/// coordinates, so (b) most entries were stale, (a) forwarding bounced
/// between believed and true positions until the hop budget ran out,
/// and (c) routes ended wherever that happened.
fn views_track_the_reshaped_overlay<A: Audited>(sub: &mut A, label: &str) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let keys: Vec<[f64; 2]> = (0..64)
        .map(|_| {
            [
                rng.random_range(0.0..COLS as f64),
                rng.random_range(0.0..ROWS as f64),
            ]
        })
        .collect();

    for _ in 0..20 {
        sub.step();
    }
    let (before, _) = serve(sub, &keys, 5);
    assert!(!before.is_empty(), "{label}: no pre-kill query resolved");

    let killed = sub.kill_region(&shapes::in_right_half(COLS as f64));
    assert_eq!(killed.len(), COLS * ROWS / 2, "{label}");
    for round in 0..30 {
        sub.step();
        // (b) at every round boundary the views are current.
        let (stale, total) = sub.stale();
        assert!(
            (stale as f64) < 0.01 * total as f64,
            "{label}: {stale} of {total} view entries stale {round} rounds after the kill"
        );
    }

    // (c) greedy routes over the views end at the true nearest node.
    let at_nearest = routes_at_nearest(sub, &space(), &keys);
    assert!(
        at_nearest * 100 >= keys.len() * 95,
        "{label}: only {at_nearest} of {} greedy routes ended at the nearest node",
        keys.len()
    );

    // (a) the reshaped overlay routes like the converged one did.
    let (after, _) = serve(sub, &keys, 10);
    assert!(
        after.len() >= keys.len() * 9,
        "{label}: only {} of {} post-reshape queries resolved",
        after.len(),
        keys.len() * 10
    );
    assert!(
        mean(&after) <= mean(&before) + 1.0,
        "{label}: mean hops {:.2} after the reshape vs {:.2} before the kill",
        mean(&after),
        mean(&before)
    );
    let exhausted = after.iter().filter(|&&h| h >= TTL).count();
    assert!(
        exhausted * 100 < after.len(),
        "{label}: {exhausted} of {} queries ran out their {TTL}-hop budget",
        after.len()
    );
}

#[test]
fn views_track_the_reshaped_overlay_on_the_engine() {
    views_track_the_reshaped_overlay(&mut engine(COLS, ROWS, tman(), SEED), "engine");
}

#[test]
fn views_track_the_reshaped_overlay_on_netsim() {
    views_track_the_reshaped_overlay(&mut kernel(COLS, ROWS, tman(), SEED), "netsim");
}

/// The regional-blast grid: small enough to sweep seeds and boundaries.
const BLAST_COLS: usize = 12;
const BLAST_ROWS: usize = 6;
const BLAST_SEEDS: std::ops::Range<u64> = 0..6;
/// Blast boundaries swept: every founding node at `x >= boundary` dies.
const BLAST_BOUNDARIES: std::ops::Range<u32> = 4..9;

fn blast_tman() -> TManConfig {
    TManConfig {
        view_cap: 24,
        m: 8,
        ..TManConfig::default()
    }
}

/// Converge 12 rounds, kill every founding node at `x >= boundary`,
/// reshape for 15 rounds, then look up the 32 hashed keys for 3 rounds.
/// Every lookup resolves, and the reference greedy routes end at the
/// nearest alive node for all but a few keys.
fn keys_resolve_after_a_regional_blast<A: Audited>(sub: &mut A, label: &str, boundary: u32) {
    let space = Torus2::new(BLAST_COLS as f64, BLAST_ROWS as f64);
    let keys = key_universe(32, BLAST_COLS, BLAST_ROWS);
    for _ in 0..12 {
        sub.step();
    }
    let cut = f64::from(boundary);
    let killed = sub.kill_region(&move |p: &[f64; 2]| p[0] >= cut);
    assert_eq!(killed.len(), (BLAST_COLS - boundary as usize) * BLAST_ROWS);
    for _ in 0..15 {
        sub.step();
    }

    let at_nearest = routes_at_nearest(sub, &space, &keys);
    assert!(
        at_nearest >= 29,
        "{label}, x >= {boundary}: only {at_nearest} of {} greedy routes ended at the \
         nearest node",
        keys.len()
    );
    let (_, (offered, delivered, dropped)) = serve(sub, &keys, 3);
    assert_eq!(offered, 3 * keys.len() as u64, "{label}, x >= {boundary}");
    assert_eq!(
        (delivered, dropped),
        (offered, 0),
        "{label}, x >= {boundary}: lookups lost after the reshape"
    );
}

#[test]
fn engine_keys_resolve_after_any_regional_blast() {
    for seed in BLAST_SEEDS {
        for boundary in BLAST_BOUNDARIES {
            let mut sub = engine(BLAST_COLS, BLAST_ROWS, blast_tman(), seed);
            keys_resolve_after_a_regional_blast(&mut sub, &format!("engine seed {seed}"), boundary);
        }
    }
}

#[test]
fn netsim_keys_resolve_after_any_regional_blast() {
    for seed in BLAST_SEEDS {
        for boundary in BLAST_BOUNDARIES {
            let mut sub = kernel(BLAST_COLS, BLAST_ROWS, blast_tman(), seed);
            keys_resolve_after_a_regional_blast(&mut sub, &format!("netsim seed {seed}"), boundary);
        }
    }
}
