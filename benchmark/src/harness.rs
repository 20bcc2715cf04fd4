//! One episode: a fresh substrate taken through build, warm-up and the
//! failure script, with every call into a layer timed from outside.
//!
//! The harness is one driver thread; the only other threads are the
//! ones the substrates spawn. It holds the substrates concretely (for
//! their public counters) but drives them through the `Substrate`
//! trait, like every experiment binary of the repository.

use crate::alloc;
use crate::procfs;
use crate::spec::{Workload, SETTLE_ROUNDS, WARMUP_ROUNDS};
use crate::stats::Fnv;
use crate::trace::Tracer;
use polystyrene_lab::{
    LabConfig, LiveSubstrate, Substrate, SubstrateKind, TrafficLoad, TrafficStats,
};
use polystyrene_netsim::{NetSim, NetSimConfig};
use polystyrene_runtime::Cluster;
use polystyrene_sim::engine::{Engine, EngineConfig};
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;
use polystyrene_topology::TManConfig;
use polystyrene_transport::{TcpCluster, TcpConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Per-round safety timeout of the live substrates' `step`; a warm-up
/// round that reaches it fails the run.
pub const ROUND_TIMEOUT: Duration = Duration::from_secs(5);

/// A traced run times the standalone measurement pass on every so
/// many rounds only: the pass allocates its own scratch (the one inside
/// `step` reuses the driver's), and that churn slows the step that
/// follows by a fifth — sampled sparsely, the medians stay clean.
const MEASURE_EVERY: u32 = 4;

type Point = [f64; 2];

/// The T-Man sizing `w` runs with: the paper's on the deterministic
/// substrates, the live sizing of `fig_traffic_scale` on the clusters
/// (a 20-entry view is ample for a few dozen nodes).
pub fn tman_config(w: &Workload) -> TManConfig {
    let mut tman = TManConfig::default();
    if w.is_live() {
        tman.view_cap = 20;
        tman.m = 8;
    }
    tman
}

/// A substrate held concretely.
pub enum Sub {
    Engine(Box<Engine<Torus2>>),
    Netsim(Box<NetSim<Torus2>>),
    Cluster(LiveSubstrate<Cluster<Torus2>>),
    Tcp(LiveSubstrate<TcpCluster<Torus2>>),
}

impl Sub {
    /// Builds `w`'s substrate — the mapping of `build_substrate`, kept
    /// concrete so the substrate's own counters stay readable.
    fn build(w: &Workload, seed: u64) -> Sub {
        let space = Torus2::new(w.cols as f64, w.rows as f64);
        let shape = shapes::torus_grid(w.cols, w.rows, 1.0);
        let area = w.nodes() as f64;
        match w.kind {
            SubstrateKind::Engine => {
                let mut cfg = EngineConfig::default();
                cfg.area = area;
                cfg.seed = seed;
                let mut engine = Engine::new(space, shape, cfg);
                if w.tman_only {
                    engine.disable_polystyrene();
                }
                Sub::Engine(Box::new(engine))
            }
            SubstrateKind::Netsim => {
                let mut cfg = NetSimConfig::default();
                cfg.area = area;
                cfg.seed = seed;
                cfg.link = w.link;
                Sub::Netsim(Box::new(NetSim::new(space, shape, cfg)))
            }
            SubstrateKind::Cluster | SubstrateKind::Tcp => {
                let mut cfg = LabConfig::default();
                cfg.area = area;
                cfg.seed = seed;
                cfg.tick = Duration::from_millis(w.tick_ms);
                cfg.round_timeout = ROUND_TIMEOUT;
                cfg.tman = tman_config(w);
                if w.kind == SubstrateKind::Cluster {
                    let cluster = Cluster::spawn(space, shape, cfg.runtime());
                    Sub::Cluster(LiveSubstrate::new(cluster, seed, ROUND_TIMEOUT))
                } else {
                    let mut tcp = TcpConfig::default();
                    tcp.runtime = cfg.runtime();
                    let cluster = TcpCluster::spawn(space, shape, tcp);
                    Sub::Tcp(LiveSubstrate::new(cluster, seed, ROUND_TIMEOUT))
                }
            }
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Substrate<Point> {
        match self {
            Sub::Engine(e) => e.as_mut(),
            Sub::Netsim(n) => n.as_mut(),
            Sub::Cluster(c) => c,
            Sub::Tcp(t) => t,
        }
    }

    /// The deterministic drivers' measurement pass on its own (it also
    /// runs inside every `step`); entropy-free, so a traced run keeps
    /// the untraced run's history. `false` on the live substrates.
    fn measure(&self) -> bool {
        match self {
            Sub::Engine(e) => {
                std::hint::black_box(e.compute_metrics());
                true
            }
            Sub::Netsim(n) => {
                std::hint::black_box(n.compute_metrics());
                true
            }
            Sub::Cluster(_) | Sub::Tcp(_) => false,
        }
    }

    /// `(messages sent, messages dropped)` by the kernel's fabric so
    /// far; zero elsewhere.
    fn fabric_counters(&self) -> (u64, u64) {
        match self {
            Sub::Netsim(n) => n
                .history()
                .last()
                .map_or((0, 0), |m| (m.sent_messages, m.dropped_messages)),
            _ => (0, 0),
        }
    }

    /// Socket frames written so far (TCP only).
    fn sent_frames(&self) -> u64 {
        match self {
            Sub::Tcp(t) => t.cluster().sent_frames(),
            _ => 0,
        }
    }

    /// Queries shed at gateway ingress so far (live only).
    fn shed_queries(&self) -> u64 {
        match self {
            Sub::Cluster(c) => c.cluster().shed_queries(),
            Sub::Tcp(t) => t.cluster().shed_queries(),
            _ => 0,
        }
    }

    /// Stops the substrate, joining every thread it spawned; returns
    /// the milliseconds that took.
    pub fn shutdown(self, tracer: &mut Tracer) -> f64 {
        tracer
            .timed("lab.shutdown", || match self {
                Sub::Cluster(c) => c.into_inner().shutdown(),
                Sub::Tcp(t) => t.into_inner().shutdown(),
                Sub::Engine(_) | Sub::Netsim(_) => {}
            })
            .1
    }
}

/// Which part of the script a round belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before the kill, or between reshaped and the re-inject.
    Steady,
    /// From the kill until homogeneity is back under the reference.
    Reshaping,
    /// After the re-inject.
    Absorbing,
}

/// Everything recorded about one measured round.
#[derive(Clone, Copy, Debug)]
pub struct RoundRec {
    pub phase: Phase,
    /// offer + step + drain, the user-visible round.
    pub round_ms: f64,
    pub gen_us: f64,
    pub offer_ms: f64,
    pub step_ms: f64,
    pub drain_ms: f64,
    /// Traced runs only: a separate `observe()`, and on the sampled
    /// rounds a separate measurement pass (0 elsewhere).
    pub observe_ms: f64,
    pub measure_ms: f64,
    /// How late the offer ran behind the open-loop schedule.
    pub lag_ms: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub traffic: TrafficStats,
    /// Kernel fabric state at the end of the round (netsim only).
    pub in_flight: usize,
    pub parked: usize,
}

/// One episode's record.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    pub build_ms: f64,
    pub warmup_ms: f64,
    /// `step` durations of the warm-up rounds.
    pub warmup_step_ms: Vec<f64>,
    pub kill_ms: f64,
    pub inject_ms: f64,
    pub shutdown_ms: f64,
    pub rounds: Vec<RoundRec>,
    /// Measured window: the script's rounds, kill and inject included.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub node_rounds: u64,
    /// Host time from the kill call to the end of the first round with
    /// homogeneity under the reference, and that round's distance from
    /// the kill in rounds and in protocol ticks.
    pub reshape_ms: Option<f64>,
    pub reshaping_rounds: Option<u32>,
    pub reshaping_ticks: Option<u64>,
    /// Mean node tick period minus the configured tick, over the rounds
    /// before the re-inject (live only).
    pub tick_overrun_ms: f64,
    pub presented: u64,
    /// Window totals plus what the settle rounds still delivered.
    pub totals: TrafficStats,
    /// Queries presented before the kill, and how many of them were
    /// dropped or shed before it.
    pub pre_kill_presented: u64,
    pub pre_kill_failed: u64,
    pub surviving_points: f64,
    pub mean_cost_units: f64,
    pub tman_cost_share: f64,
    pub fingerprint: u64,
    pub round_timeouts: u32,
    pub threads_peak: u64,
    pub fds_peak: u64,
    pub sent_msgs: u64,
    pub dropped_msgs: u64,
    pub sent_frames: u64,
    pub shed: u64,
    /// Names of the correctness checks this episode violated.
    pub violations: Vec<String>,
}

impl Episode {
    pub fn setup_s(&self) -> f64 {
        (self.build_ms + self.warmup_ms) / 1e3
    }
}

/// The key universe: `count` positions drawn uniformly over the torus
/// from the episode seed.
fn key_universe(w: &Workload, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7973); // "keys"
    (0..w.keys)
        .map(|_| {
            [
                rng.random_range(0.0..w.cols as f64),
                rng.random_range(0.0..w.rows as f64),
            ]
        })
        .collect()
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one episode of `w` under `seed`.
///
/// On the deterministic substrates a round is one `step`. On the live
/// ones a measured round is one tick period of wall clock — the harness
/// offers at `r × tick`, waits for `(r + 1) × tick` and snapshots —
/// because `step` waits for the *slowest* node's tick count, and nodes
/// injected mid-run start counting at zero: the first `step` after the
/// re-inject would block for the whole run so far. Warm-up, where no
/// node is younger than the rest, goes through `step` on all four.
pub fn run_episode(w: &Workload, seed: u64, tracer: &mut Tracer) -> (Episode, Sub) {
    let traced = tracer.enabled();
    let episode_span = tracer.open("episode");
    let live_tick = w.is_live().then(|| Duration::from_millis(w.tick_ms));

    let (mut sub, build_ms) = tracer.timed("lab.build", || Sub::build(w, seed));
    let mut warmup_step_ms = Vec::with_capacity(WARMUP_ROUNDS as usize);
    let warmup = tracer.open("lab.warmup");
    for _ in 0..WARMUP_ROUNDS {
        let (_, ms) = tracer.timed("lab.step", || sub.as_dyn().step());
        warmup_step_ms.push(ms);
    }
    let warmup_ms = tracer.close(warmup);
    let round_timeouts = warmup_step_ms
        .iter()
        .filter(|&&ms| live_tick.is_some() && ms >= ROUND_TIMEOUT.as_secs_f64() * 1e3)
        .count() as u32;

    let mut load =
        TrafficLoad::with_dist(key_universe(w, seed), w.rate, 0.9, w.ttl(), seed, w.dist);
    let in_dead_half = shapes::in_right_half(w.cols as f64);
    let dead_half: Vec<Point> = shapes::torus_grid(w.cols, w.rows, 1.0)
        .into_iter()
        .filter(|p| in_dead_half(p))
        .collect();
    let kill_round = w.steady;
    let inject_round = w.steady + w.reshape;
    let total = w.script_rounds();

    let mut e = Episode {
        build_ms,
        warmup_ms,
        warmup_step_ms,
        round_timeouts,
        rounds: Vec::with_capacity(total as usize),
        ..Episode::default()
    };
    let mut fnv = Fnv::default();
    let mut expected_alive = w.nodes();
    let mut killed_at: Option<(Instant, u64)> = None;
    let mut cost_sum = 0.0;
    let (msgs0, drops0) = sub.fabric_counters();
    let frames0 = sub.sent_frames();
    let shed0 = sub.shed_queries();
    let ticks0 = sub.as_dyn().observe().ticks;
    let mut pre_inject_clock: Option<(f64, u64)> = None;
    if traced {
        alloc::set_counting(true);
    }
    let cpu0 = procfs::cpu_seconds();
    let window = Instant::now();

    for r in 0..total {
        tracer.round = r;
        if r == kill_round {
            let started = Instant::now();
            let (killed, ms) = tracer.timed("lab.kill", || sub.as_dyn().kill_region(&in_dead_half));
            e.kill_ms = ms;
            expected_alive -= killed.len();
            if killed.len() != dead_half.len() {
                violate(
                    &mut e.violations,
                    "population-after-kill",
                    format!(
                        "killed {} of the {} nodes in the dead half",
                        killed.len(),
                        dead_half.len()
                    ),
                );
            }
            killed_at = Some((started, sub.as_dyn().observe().ticks));
        }
        if r == inject_round {
            let (injected, ms) = tracer.timed("lab.inject", || sub.as_dyn().inject(&dead_half));
            e.inject_ms = ms;
            expected_alive += injected.len();
        }

        let allocs0 = alloc::counters();
        let round_span = tracer.open("round");
        let mut lag_ms = 0.0;
        if let Some(tick) = live_tick {
            let due = window + tick * r;
            sleep_until(due);
            lag_ms = due.elapsed().as_secs_f64() * 1e3;
        }
        let gen = tracer.open("lab.trafficgen");
        let keys = load.next_round();
        let gen_ms = tracer.close(gen);
        let ttl = w.ttl();
        let ((), offer_ms) = tracer.timed("lab.offer", || sub.as_dyn().offer_traffic(keys, ttl));
        let presented = keys.len() as u64;
        let (obs, step_ms) = tracer.timed("lab.step", || match live_tick {
            Some(tick) => {
                sleep_until(window + tick * (r + 1));
                sub.as_dyn().observe()
            }
            None => sub.as_dyn().step(),
        });
        let (traffic, drain_ms) = tracer.timed("lab.drain", || sub.as_dyn().drain_traffic());
        let round_ms = tracer.close(round_span);
        let allocs1 = alloc::counters();

        let (mut observe_ms, mut measure_ms) = (0.0, 0.0);
        if traced {
            observe_ms = tracer.timed("lab.observe", || sub.as_dyn().observe()).1;
            if r % MEASURE_EVERY == MEASURE_EVERY - 1 {
                let (measured, ms) = tracer.timed("driver.measure", || sub.measure());
                if measured {
                    measure_ms = ms;
                }
            }
            if live_tick.is_some() {
                e.threads_peak = e.threads_peak.max(procfs::threads());
                e.fds_peak = e.fds_peak.max(procfs::open_fds());
            }
        }

        let mut stamped = obs;
        stamped.traffic = traffic;
        fnv.write_observation(&stamped);
        cost_sum += obs.cost_units;
        e.node_rounds += obs.alive_nodes as u64;
        e.presented += presented;
        e.totals.merge(&traffic);
        if r < kill_round {
            e.pre_kill_presented += presented;
            e.pre_kill_failed += traffic.dropped + traffic.shed;
        }
        if r < inject_round {
            pre_inject_clock = Some((window.elapsed().as_secs_f64(), obs.ticks));
        }

        let reshaping = killed_at.filter(|_| e.reshape_ms.is_none() && r < inject_round);
        if let Some((at, tick_at_kill)) = reshaping {
            if obs.homogeneity < obs.reference_homogeneity {
                e.reshape_ms = Some(at.elapsed().as_secs_f64() * 1e3);
                e.reshaping_rounds = Some(r - kill_round + 1);
                e.reshaping_ticks = Some(obs.ticks.saturating_sub(tick_at_kill).max(1));
            }
        }
        let phase = if r >= inject_round {
            Phase::Absorbing
        } else if reshaping.is_some() {
            Phase::Reshaping
        } else {
            Phase::Steady
        };

        // The deterministic drivers apply kills and injects atomically;
        // a live board may trail by a tick, so it is held to the
        // population only where each phase ends.
        let settled_round = r + 1 == inject_round || r + 1 == total;
        if (live_tick.is_none() || settled_round) && obs.alive_nodes != expected_alive {
            let check = if r < inject_round {
                "population-after-kill"
            } else {
                "population-after-inject"
            };
            violate(
                &mut e.violations,
                check,
                format!(
                    "round {r}: {} alive, expected {expected_alive}",
                    obs.alive_nodes
                ),
            );
        }

        let (in_flight, parked) = match &sub {
            Sub::Netsim(n) => n
                .history()
                .last()
                .map_or((0, 0), |m| (m.in_flight, m.parked_points)),
            _ => (0, obs.parked_points),
        };
        e.rounds.push(RoundRec {
            phase,
            round_ms,
            gen_us: gen_ms * 1e3,
            offer_ms,
            step_ms,
            drain_ms,
            observe_ms,
            measure_ms,
            lag_ms,
            allocs: allocs1.0 - allocs0.0,
            alloc_bytes: allocs1.1 - allocs0.1,
            traffic,
            in_flight,
            parked,
        });
        e.surviving_points = obs.surviving_points;
    }

    e.wall_s = window.elapsed().as_secs_f64();
    e.cpu_s = procfs::cpu_seconds() - cpu0;
    alloc::set_counting(false);
    tracer.round = total;
    let (msgs1, drops1) = sub.fabric_counters();
    e.sent_msgs = msgs1 - msgs0;
    e.dropped_msgs = drops1 - drops0;
    e.sent_frames = sub.sent_frames() - frames0;
    e.mean_cost_units = cost_sum / f64::from(total);
    if let Sub::Engine(engine) = &sub {
        let window_history = &engine.history()[engine.history().len() - total as usize..];
        e.tman_cost_share = window_history
            .iter()
            .map(|m| m.tman_cost_share)
            .sum::<f64>()
            / f64::from(total);
    }
    if let (Some(tick), Some((elapsed_s, ticks))) = (live_tick, pre_inject_clock) {
        let progressed = ticks.saturating_sub(ticks0).max(1);
        e.tick_overrun_ms = elapsed_s * 1e3 / progressed as f64 - tick.as_secs_f64() * 1e3;
    }

    // Settle outside the window: queries still in flight complete or
    // expire, and their outcome is credited to the window that offered
    // them.
    let settle = tracer.open("lab.settle");
    match live_tick {
        // `step` would wait for the injected nodes' tick counts here.
        Some(tick) => {
            std::thread::sleep(tick);
            e.totals.merge(&sub.as_dyn().drain_traffic());
        }
        None => {
            for _ in 0..SETTLE_ROUNDS {
                if e.totals.delivered + e.totals.dropped >= e.totals.offered {
                    break;
                }
                let mut obs = sub.as_dyn().step();
                obs.traffic = sub.as_dyn().drain_traffic();
                fnv.write_observation(&obs);
                e.totals.merge(&obs.traffic);
            }
        }
    }
    tracer.close(settle);
    e.shed = sub.shed_queries() - shed0;
    e.fingerprint = fnv.0;

    if e.reshape_ms.is_none() {
        violate(
            &mut e.violations,
            "kill-reshapes",
            format!(
                "homogeneity never fell under the reference in {} rounds",
                w.reshape
            ),
        );
    }
    // Every presented query must be offered, and every offered query
    // end delivered or dropped — except those whose gateway died in the
    // kill with the query still in flight, at most one round's worth.
    // Live gateways publish running totals that die with them, so only
    // the deterministic substrates can be held to the identity.
    let t = &e.totals;
    let unaccounted = t.offered.saturating_sub(t.delivered + t.dropped);
    if live_tick.is_none()
        && (t.offered != e.presented
            || t.delivered + t.dropped > t.offered
            || unaccounted > w.rate as u64)
    {
        violate(
            &mut e.violations,
            "traffic-identity",
            format!(
                "presented {} offered {} delivered {} dropped {}",
                e.presented, t.offered, t.delivered, t.dropped
            ),
        );
    }
    if e.round_timeouts > 0 {
        violate(
            &mut e.violations,
            "round-timeout",
            format!(
                "{} warm-up rounds hit the {ROUND_TIMEOUT:?} timeout",
                e.round_timeouts
            ),
        );
    }
    tracer.close(episode_span);
    (e, sub)
}

fn violate(violations: &mut Vec<String>, check: &str, detail: String) {
    violations.push(format!("{check}: {detail}"));
}
