//! One run of one workload: episodes until the measured windows add up
//! to `--seconds`, then the metrics.
//!
//! Every episode of a run replays the run's seed. An untraced run
//! yields the end-to-end metrics. A traced run yields the per-layer
//! ledger: it alternates untraced and traced episodes (their difference
//! is the tracing overhead, and on the deterministic substrates their
//! fingerprints must match), adds the workload's twin episode, and
//! finishes with the layer probes.

use crate::harness::{run_episode, tman_config, Episode, Phase, RoundRec, Sub};
use crate::probes::{self, Corpus};
use crate::procfs;
use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER, WARMUP_ROUNDS};
use crate::stats::{median, tail};
use crate::trace::{self_times_ns, Tracer};
use polystyrene_lab::SubstrateKind;
use polystyrene_netsim::NetSimConfig;
use polystyrene_sim::engine::{Engine, EngineConfig};
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;
use std::collections::HashMap;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// E.g. which percentile a `p95` metric was really taken at.
    pub note: Option<String>,
}

pub struct RunResult {
    pub readings: Vec<Reading>,
    /// Rounds driven (warm-up and script), and how many of them failed:
    /// hit the live round timeout or showed the wrong population.
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check violated, named.
    pub violations: Vec<String>,
    /// First episode's observation fingerprint (deterministic
    /// substrates; printed so two runs of a seed can be compared).
    pub fingerprint: Option<u64>,
}

/// Metric values by name, turned into the table's order at the end. A
/// per-layer metric nobody set reads 0: its layer did none of the work.
#[derive(Default)]
struct Ledger(HashMap<&'static str, (f64, Option<String>)>);

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, None));
    }

    fn set_tail(&mut self, name: &'static str, samples: &[f64]) {
        let t = tail(samples, 95.0);
        self.0.insert(
            name,
            (t.value, Some(format!("p{} of {}", t.percentile, t.samples))),
        );
    }

    /// `require_all`: an end-to-end metric must have been set.
    fn into_readings(mut self, table: &[MetricDef], require_all: bool) -> Vec<Reading> {
        let readings = table
            .iter()
            .map(|m| {
                let (value, note) = match self.0.remove(m.name) {
                    Some(v) => v,
                    None => {
                        assert!(!require_all, "metric {} was never computed", m.name);
                        (0.0, None)
                    }
                };
                Reading {
                    name: m.name,
                    value,
                    unit: m.unit,
                    note,
                }
            })
            .collect();
        assert!(
            self.0.is_empty(),
            "metrics computed but not in the table: {:?}",
            self.0.keys().collect::<Vec<_>>()
        );
        readings
    }
}

/// Whether another episode (or pair) of about `last_s` seconds brings
/// the measured total closer to the target than stopping does.
fn wants_more(measured_s: f64, last_s: f64, target_s: f64) -> bool {
    measured_s + 0.5 * last_s < target_s
}

fn finish(mut episode: Episode, sub: Sub, tracer: &mut Tracer) -> Episode {
    episode.shutdown_ms = sub.shutdown(tracer);
    episode
}

fn pool(episodes: &[Episode], field: impl Fn(&RoundRec) -> f64) -> Vec<f64> {
    episodes
        .iter()
        .flat_map(|e| e.rounds.iter().map(&field))
        .collect()
}

fn pool_phase(episodes: &[Episode], phase: Phase) -> Vec<f64> {
    episodes
        .iter()
        .flat_map(|e| e.rounds.iter().filter(move |r| r.phase == phase))
        .map(|r| r.step_ms)
        .collect()
}

fn sum(episodes: &[Episode], field: impl Fn(&Episode) -> f64) -> f64 {
    episodes.iter().map(field).sum()
}

fn medians(episodes: &[Episode], field: impl Fn(&Episode) -> f64) -> f64 {
    median(&episodes.iter().map(field).collect::<Vec<_>>())
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Smallest per-episode reading. Every episode of a run replays the
/// same seed — on the deterministic substrates bit for bit — so the
/// episodes of a run are repeats of one piece of work, and on a shared
/// box interference only ever adds time: the cheapest repeat is the
/// least contaminated one. (Over 29 engine episodes of one seed, the
/// cheapest of each four consecutive ones spread 2.8 % between its
/// quartiles, their median 12 %.)
fn cheapest(episodes: &[Episode], field: impl Fn(&Episode) -> f64) -> f64 {
    episodes.iter().map(field).fold(f64::INFINITY, f64::min)
}

/// Largest per-episode reading: [`cheapest`] for rates.
fn fastest(episodes: &[Episode], field: impl Fn(&Episode) -> f64) -> f64 {
    episodes.iter().map(field).fold(0.0, f64::max)
}

/// The best rate a run's episodes support for a per-episode count.
///
/// On the deterministic substrates the episodes' rounds are the same
/// rounds (the fingerprint check holds them to it), so the window is
/// rebuilt from each round's cheapest repeat, plus the cheapest kill
/// and inject. That is steadier again than the fastest whole episode —
/// over ten netsim seeds, three episodes each, 8 % against 12 % between
/// quartiles on the same runs. Live rounds are paced by the clock and
/// not comparable one to one; there the fastest episode stands.
fn best_rate(w: &Workload, episodes: &[Episode], count: impl Fn(&Episode) -> f64) -> f64 {
    if w.is_live() {
        return fastest(episodes, |e| ratio(count(e), e.wall_s));
    }
    let rounds = episodes.iter().map(|e| e.rounds.len()).min().unwrap_or(0);
    let window_ms: f64 = (0..rounds)
        .map(|r| cheapest(episodes, |e| e.rounds[r].round_ms))
        .sum::<f64>()
        + cheapest(episodes, |e| e.kill_ms)
        + cheapest(episodes, |e| e.inject_ms);
    ratio(medians(episodes, count), window_ms / 1e3)
}

fn node_rounds_per_s(w: &Workload, episodes: &[Episode]) -> f64 {
    best_rate(w, episodes, |e| e.node_rounds as f64)
}

fn cpu_us_per_node_round(episodes: &[Episode]) -> f64 {
    cheapest(episodes, |e| ratio(e.cpu_s * 1e6, e.node_rounds as f64))
}

fn episode_median(e: &Episode, field: impl Fn(&RoundRec) -> f64) -> f64 {
    median(&e.rounds.iter().map(field).collect::<Vec<_>>())
}

fn end_to_end(w: &Workload, episodes: &[Episode]) -> Vec<Reading> {
    let mut l = Ledger::default();
    l.set("setup_s", medians(episodes, Episode::setup_s));
    l.set("node_rounds_per_s", node_rounds_per_s(w, episodes));
    l.set(
        "queries_per_s",
        best_rate(w, episodes, |e| e.totals.delivered as f64),
    );
    l.set(
        "query_availability",
        ratio(
            sum(episodes, |e| e.totals.delivered as f64),
            sum(episodes, |e| e.presented as f64),
        ),
    );
    l.set("peak_rss_mb", procfs::peak_rss_mb());
    l.set(
        "surviving_points",
        medians(episodes, |e| e.surviving_points),
    );
    l.into_readings(&END_TO_END, true)
}

/// Median over the rounds that completed anything of one of the
/// round's own latency readings (ticks).
fn latency_ticks(episodes: &[Episode], reading: impl Fn(&RoundRec) -> f64) -> f64 {
    let per_round: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.rounds.iter())
        .filter(|r| r.traffic.delivered > 0)
        .map(reading)
        .collect();
    median(&per_round)
}

/// Median standalone measurement pass over the rounds that sampled it.
fn measured(episodes: &[Episode]) -> f64 {
    let sampled: Vec<f64> = pool(episodes, |r| r.measure_ms)
        .into_iter()
        .filter(|&ms| ms > 0.0)
        .collect();
    median(&sampled)
}

fn reshaping(episodes: &[Episode], field: impl Fn(&Episode) -> Option<f64>) -> f64 {
    median(&episodes.iter().filter_map(field).collect::<Vec<_>>())
}

/// The probe corpus of a finished substrate. The live clusters expose
/// no views, so theirs comes from a cycle engine of the same grid and
/// seed after the same warm-up.
fn corpus_of(sub: &Sub, w: &Workload, seed: u64) -> Corpus {
    let space = Torus2::new(w.cols as f64, w.rows as f64);
    match sub {
        Sub::Engine(e) => Corpus::from_engine(e),
        Sub::Netsim(n) => Corpus::from_netsim(n, space),
        Sub::Cluster(_) | Sub::Tcp(_) => {
            let mut cfg = EngineConfig::default();
            cfg.area = w.nodes() as f64;
            cfg.seed = seed;
            let mut engine = Engine::new(space, shapes::torus_grid(w.cols, w.rows, 1.0), cfg);
            engine.run(WARMUP_ROUNDS);
            Corpus::from_engine(&engine)
        }
    }
}

/// What a traced run gathered.
struct TracedRun {
    plain: Vec<Episode>,
    traced: Vec<Episode>,
    twin: Option<Episode>,
    corpus: Corpus,
    round_self_ms: Vec<f64>,
}

fn per_layer(w: &Workload, run: &TracedRun) -> Vec<Reading> {
    let mut l = Ledger::default();
    let (plain, traced) = (&run.plain, &run.traced);
    let step = pool(traced, |r| r.step_ms);
    let step_total: f64 = step.iter().sum();
    let rounds = step.len() as f64;
    let node_rounds = sum(traced, |e| e.node_rounds as f64);

    l.set("lab.build_ms", medians(traced, |e| e.build_ms));
    l.set("lab.warmup_ms", medians(traced, |e| e.warmup_ms));
    l.set("lab.step_ms_p50", median(&step));
    l.set_tail("lab.step_ms_p95", &step);
    l.set(
        "lab.step_ms.steady_p50",
        median(&pool_phase(traced, Phase::Steady)),
    );
    l.set(
        "lab.step_ms.reshaping_p50",
        median(&pool_phase(traced, Phase::Reshaping)),
    );
    l.set(
        "lab.step_ms.absorbing_p50",
        median(&pool_phase(traced, Phase::Absorbing)),
    );
    l.set("lab.offer_ms_p50", median(&pool(traced, |r| r.offer_ms)));
    l.set("lab.drain_ms_p50", median(&pool(traced, |r| r.drain_ms)));
    l.set(
        "lab.observe_ms_p50",
        median(&pool(traced, |r| r.observe_ms)),
    );
    l.set("lab.kill_ms", medians(traced, |e| e.kill_ms));
    l.set("lab.inject_ms", medians(traced, |e| e.inject_ms));
    l.set("lab.trafficgen_us_p50", median(&pool(traced, |r| r.gen_us)));
    l.set_tail("lab.generator_lag_ms_p95", &pool(traced, |r| r.lag_ms));
    l.set("lab.harness_self_ms_p50", median(&run.round_self_ms));
    l.set(
        "lab.allocs_per_round",
        ratio(pool(traced, |r| r.allocs as f64).iter().sum(), rounds),
    );
    l.set(
        "lab.alloc_bytes_per_round",
        ratio(pool(traced, |r| r.alloc_bytes as f64).iter().sum(), rounds),
    );
    l.set(
        "lab.trace_overhead_pct",
        (1.0 - ratio(node_rounds_per_s(w, traced), node_rounds_per_s(w, plain))) * 100.0,
    );
    l.set("lab.cpu_us_per_node_round", cpu_us_per_node_round(plain));
    l.set(
        "lab.round_ms_p50",
        cheapest(plain, |e| episode_median(e, |r| r.round_ms)),
    );
    l.set_tail("lab.round_ms_p95", &pool(plain, |r| r.round_ms));
    l.set("lab.reshape_ms", reshaping(plain, |e| e.reshape_ms));
    let presented = sum(plain, |e| e.presented as f64);
    let delivered = sum(plain, |e| e.totals.delivered as f64);
    l.set(
        "lab.failed_queries_share",
        1.0 - ratio(delivered, presented),
    );
    l.set(
        "lab.destroyed_points_share",
        1.0 - medians(plain, |e| e.surviving_points),
    );
    l.set("lab.episodes", (plain.len() + traced.len()) as f64);
    l.set("lab.rounds", pool(plain, |_| 1.0).len() as f64 + rounds);
    l.set("lab.queries_presented", presented);
    l.set("lab.queries_delivered", delivered);
    l.set("lab.points_founded", w.nodes() as f64);
    l.set("lab.node_rounds", sum(plain, |e| e.node_rounds as f64));

    // The twin is one untraced episode under episode 0's seed, so it is
    // read against the untraced episode 0.
    let first_plain = &plain[..1];
    let twin = run.twin.as_ref().map(std::slice::from_ref);
    match w.kind {
        SubstrateKind::Engine => {
            let measure = measured(traced);
            l.set("sim.measure_ms_p50", measure);
            l.set("sim.measure_share", ratio(measure, median(&step)));
            if let Some(twin) = twin {
                let tman_only = median(&pool(twin, |r| r.step_ms));
                l.set("sim.tman_only_step_ms_p50", tman_only);
                l.set(
                    "sim.poly_share",
                    1.0 - ratio(tman_only, median(&pool(first_plain, |r| r.step_ms))),
                );
            }
            l.set(
                "sim.us_per_node_round",
                ratio(step_total * 1e3, node_rounds),
            );
            l.set(
                "sim.cost_units_per_node",
                medians(traced, |e| e.mean_cost_units),
            );
            l.set(
                "sim.tman_cost_share",
                medians(traced, |e| e.tman_cost_share),
            );
            l.set(
                "sim.reshaping_rounds",
                reshaping(traced, |e| e.reshaping_rounds.map(f64::from)),
            );
        }
        SubstrateKind::Netsim => {
            let sent = sum(traced, |e| e.sent_msgs as f64);
            let measure = measured(traced);
            l.set("netsim.measure_ms_p50", measure);
            l.set("netsim.measure_share", ratio(measure, median(&step)));
            l.set("netsim.sent_msgs_per_round", ratio(sent, rounds));
            l.set(
                "netsim.dropped_msgs_per_round",
                ratio(sum(traced, |e| e.dropped_msgs as f64), rounds),
            );
            let in_flight = median(&pool(traced, |r| r.in_flight as f64));
            l.set("netsim.in_flight_p50", in_flight);
            l.set(
                "netsim.parked_points_max",
                pool(traced, |r| r.parked as f64)
                    .into_iter()
                    .fold(0.0, f64::max),
            );
            l.set("netsim.ns_per_message", ratio(step_total * 1e6, sent));
            if let Some(twin) = twin {
                let quiet: f64 = pool(twin, |r| r.round_ms).iter().sum();
                let loaded: f64 = pool(first_plain, |r| r.round_ms).iter().sum();
                l.set("netsim.traffic_share", 1.0 - ratio(quiet, loaded));
            }
            l.set(
                "netsim.queue.push_pop_ns",
                probes::calendar_queue(in_flight as usize, NetSimConfig::default().ticks_per_round),
            );
            l.set(
                "netsim.reshaping_rounds",
                reshaping(traced, |e| e.reshaping_rounds.map(f64::from)),
            );
            l.set(
                "netsim.query_latency_ticks_p50",
                latency_ticks(traced, |r| r.traffic.latency_p50),
            );
            l.set(
                "netsim.query_latency_ticks_p99",
                latency_ticks(traced, |r| r.traffic.latency_p99),
            );
            l.set(
                "netsim.query_mean_hops",
                ratio(
                    sum(traced, |e| e.totals.mean_hops * e.totals.delivered as f64),
                    sum(traced, |e| e.totals.delivered as f64),
                ),
            );
        }
        SubstrateKind::Cluster | SubstrateKind::Tcp => {
            let tick_ms = w.tick_ms as f64;
            let await_ms: Vec<f64> = traced
                .iter()
                .flat_map(|e| e.warmup_step_ms.iter().copied())
                .collect();
            let overrun = pool(traced, |r| (r.round_ms - tick_ms).max(0.0));
            let timeouts = sum(plain, |e| f64::from(e.round_timeouts))
                + sum(traced, |e| f64::from(e.round_timeouts));
            let ticks = reshaping(traced, |e| e.reshaping_ticks.map(|t| t as f64));
            let p99 = latency_ticks(traced, |r| r.traffic.latency_p99);
            let observe = median(&pool(traced, |r| r.observe_ms));
            if w.kind == SubstrateKind::Cluster {
                l.set("runtime.spawn_ms", medians(traced, |e| e.build_ms));
                l.set("runtime.shutdown_ms", medians(traced, |e| e.shutdown_ms));
                l.set("runtime.await_ticks_ms_p50", median(&await_ms));
                l.set_tail("runtime.await_ticks_ms_p95", &await_ms);
                l.set_tail("runtime.tick_overrun_ms_p95", &overrun);
                l.set(
                    "runtime.node_tick_overrun_ms",
                    medians(traced, |e| e.tick_overrun_ms),
                );
                l.set("runtime.observe_ms_p50", observe);
                l.set(
                    "runtime.offer_ms_p50",
                    median(&pool(traced, |r| r.offer_ms)),
                );
                l.set(
                    "runtime.threads_peak",
                    traced.iter().map(|e| e.threads_peak).max().unwrap_or(0) as f64,
                );
                l.set("runtime.round_timeouts", timeouts);
                l.set("runtime.shed_queries", sum(traced, |e| e.shed as f64));
                l.set("runtime.reshaping_ticks", ticks);
                l.set("runtime.query_latency_ticks_p99", p99);
            } else {
                let frames = sum(plain, |e| e.sent_frames as f64);
                let cpu = cpu_us_per_node_round(plain);
                l.set("transport.spawn_ms", medians(traced, |e| e.build_ms));
                l.set("transport.shutdown_ms", medians(traced, |e| e.shutdown_ms));
                l.set("transport.await_ticks_ms_p50", median(&await_ms));
                l.set_tail("transport.await_ticks_ms_p95", &await_ms);
                l.set(
                    "transport.node_tick_overrun_ms",
                    medians(traced, |e| e.tick_overrun_ms),
                );
                l.set("transport.observe_ms_p50", observe);
                l.set("transport.cpu_us_per_node_round", cpu);
                if let Some(twin) = twin {
                    l.set(
                        "transport.cpu_overhead_us_per_node_round",
                        cpu_us_per_node_round(first_plain) - cpu_us_per_node_round(twin),
                    );
                }
                l.set(
                    "transport.sent_frames_per_node_round",
                    ratio(frames, sum(plain, |e| e.node_rounds as f64)),
                );
                l.set(
                    "transport.cpu_us_per_frame",
                    ratio(sum(plain, |e| e.cpu_s) * 1e6, frames),
                );
                l.set(
                    "transport.threads_peak",
                    traced.iter().map(|e| e.threads_peak).max().unwrap_or(0) as f64,
                );
                l.set(
                    "transport.fds_peak",
                    traced.iter().map(|e| e.fds_peak).max().unwrap_or(0) as f64,
                );
                l.set("transport.round_timeouts", timeouts);
                l.set("transport.reshaping_ticks", ticks);
                l.set("transport.query_latency_ticks_p99", p99);
            }
        }
    }

    // Layer probes. Every substrate runs the protocol stack, so its
    // layers are probed everywhere; the codec and the framing are on
    // the TCP path only, the grid index on the two drivers that build
    // one per measurement pass.
    let corpus = &run.corpus;
    let tman = tman_config(w);
    l.set(
        "protocol.bufpool.take_put_ns",
        probes::bufpool_take_put(corpus),
    );
    l.set("topology.rank.k_closest_ns", probes::rank_k_closest(corpus));
    l.set(
        "topology.tman_exchange_ns",
        probes::tman_exchange_ns(corpus, tman),
    );
    l.set("core.split_ns", probes::split_ns(corpus));
    l.set("core.plan_backups_ns", probes::plan_backups_ns(corpus, 4));
    l.set("core.recover_ns", probes::recover_ns(corpus));
    let (medoid, diameter) = probes::medoid_diameter(corpus);
    l.set("space.medoid_ns", medoid);
    l.set("space.diameter_ns", diameter);
    if !w.is_live() {
        let (build_ms, nearest) = probes::grid_index(corpus);
        l.set("topology.gridindex.build_ms", build_ms);
        l.set("topology.gridindex.nearest_ns", nearest);
    }
    if w.kind == SubstrateKind::Tcp {
        let (encode, decode, bytes) = probes::codec(corpus);
        l.set("protocol.codec.encode_ns_per_event", encode);
        l.set("protocol.codec.decode_ns_per_event", decode);
        l.set("protocol.codec.bytes_per_event", bytes);
        // A loopback socket that cannot be opened reads 0, like any
        // layer that did no work; the run itself needed sockets, so it
        // would already have failed.
        l.set(
            "transport.framing.roundtrip_ns_per_frame",
            probes::framing_roundtrip(bytes as usize).unwrap_or(0.0),
        );
    }
    l.into_readings(&PER_LAYER, false)
}

/// Folds a set of episodes into the run's operation counts and check
/// results. Every episode of a run replays the same seed, so on the
/// deterministic substrates they must all read the same fingerprint —
/// traced or not. Survival and pre-kill availability are held to their
/// floors over the run, as they are reported: on 32 nodes one lost point
/// is three percent of an episode.
fn collect(result: &mut RunResult, w: &Workload, episodes: &[Episode]) {
    // A stall of the box can expire a live episode's queries; the run's
    // episodes together must still serve 99 % before the kill.
    let failed = sum(episodes, |e| e.pre_kill_failed as f64);
    let presented = sum(episodes, |e| e.pre_kill_presented as f64);
    if failed > 0.01 * presented {
        result.violations.push(format!(
            "pre-kill-availability: {failed} of {presented} queries failed before the kill"
        ));
    }
    let surviving = medians(episodes, |e| e.surviving_points);
    if surviving < w.min_survival {
        result.violations.push(format!(
            "surviving-points: {surviving} < {}",
            w.min_survival
        ));
    }
    for e in episodes {
        result.attempted += u64::from(WARMUP_ROUNDS + w.script_rounds());
        result.failed += u64::from(e.round_timeouts);
        result.failed += e
            .violations
            .iter()
            .filter(|v| v.starts_with("population-"))
            .count() as u64;
        result.violations.extend(e.violations.iter().cloned());
        if !w.is_live() {
            let first = *result.fingerprint.get_or_insert(e.fingerprint);
            if e.fingerprint != first {
                result.violations.push(format!(
                    "fingerprint: one seed read {first:016x} and {:016x}",
                    e.fingerprint
                ));
            }
        }
    }
}

/// Runs `w` for about `seconds` of measured window. A traced run also
/// writes its spans to `out_dir/trace-<workload>.jsonl`.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> std::io::Result<RunResult> {
    let mut result = RunResult {
        readings: Vec::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        fingerprint: None,
    };
    let mut quiet = Tracer::new(false);
    let mut plain: Vec<Episode> = Vec::new();
    let mut measured = 0.0;

    if !trace {
        loop {
            let (e, sub) = run_episode(w, seed, &mut quiet);
            let e = finish(e, sub, &mut quiet);
            measured += e.wall_s;
            let last = e.wall_s;
            plain.push(e);
            if !wants_more(measured, last, seconds) {
                break;
            }
        }
        collect(&mut result, w, &plain);
        result.readings = end_to_end(w, &plain);
        return Ok(result);
    }

    let mut tracer = Tracer::new(true);
    let mut traced: Vec<Episode> = Vec::new();
    let twin = w.twin().map(|tw| {
        let (e, sub) = run_episode(&tw, seed, &mut quiet);
        finish(e, sub, &mut quiet)
    });
    measured += twin.as_ref().map_or(0.0, |t| t.wall_s);
    let corpus = loop {
        let (a, sub) = run_episode(w, seed, &mut quiet);
        let a = finish(a, sub, &mut quiet);
        tracer.episode = traced.len() as u32;
        let (b, sub) = run_episode(w, seed, &mut tracer);
        let corpus = corpus_of(&sub, w, seed);
        let b = finish(b, sub, &mut tracer);
        let pair = a.wall_s + b.wall_s;
        measured += pair;
        plain.push(a);
        traced.push(b);
        if !wants_more(measured, pair, seconds) {
            break corpus;
        }
    };
    collect(&mut result, w, &plain);
    collect(&mut result, w, &traced);
    let round_self_ms = tracer
        .spans()
        .iter()
        .zip(self_times_ns(tracer.spans()))
        .filter(|(s, _)| s.name == "round")
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{}.jsonl", w.name)),
        tracer.to_jsonl(),
    )?;
    result.readings = per_layer(
        w,
        &TracedRun {
            plain,
            traced,
            twin,
            corpus,
            round_self_ms,
        },
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_run_stops_at_the_episode_count_nearest_the_target() {
        // 3 s episodes against a 10 s target: 3 episodes (9 s) is
        // nearer than 4 (12 s).
        assert!(wants_more(3.0, 3.0, 10.0));
        assert!(wants_more(6.0, 3.0, 10.0));
        assert!(!wants_more(9.0, 3.0, 10.0));
        // One episode always runs, however long.
        assert!(!wants_more(25.0, 25.0, 10.0));
    }

    #[test]
    fn unset_per_layer_metrics_read_zero_and_unknown_names_are_refused() {
        let mut l = Ledger::default();
        l.set("lab.build_ms", 3.5);
        let readings = l.into_readings(&PER_LAYER, false);
        assert_eq!(readings.len(), PER_LAYER.len());
        assert_eq!(readings[0].value, 3.5);
        assert!(readings[1..].iter().all(|r| r.value == 0.0));
        let mut stray = Ledger::default();
        stray.set("lab.no_such_metric", 1.0);
        assert!(std::panic::catch_unwind(move || stray.into_readings(&PER_LAYER, false)).is_err());
    }

    /// The smoke-sized runs the `--smoke` mode makes, in process: every
    /// metric of both tables comes out, with its unit, and every check
    /// holds on all four substrates.
    #[test]
    fn smoke_runs_emit_every_metric_and_pass_every_check() {
        let out =
            std::env::temp_dir().join(format!("polystyrene-benchmark-test-{}", std::process::id()));
        for w in WORKLOADS.map(Workload::smoke) {
            for trace in [false, true] {
                let result = run(&w, 1, 0.5, trace, &out).expect("the trace file is writable");
                assert_eq!(result.violations, Vec::<String>::new(), "{}", w.name);
                assert_eq!(result.failed, 0, "{}", w.name);
                assert!(result.attempted > 0);
                let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(result.readings.len(), table.len());
                for (r, m) in result.readings.iter().zip(table) {
                    assert_eq!((r.name, r.unit), (m.name, m.unit));
                    assert!(r.value.is_finite(), "{} on {}", r.name, w.name);
                    if !trace {
                        assert!(r.value > 0.0, "{} is zero on {}", r.name, w.name);
                    }
                }
                assert_eq!(result.fingerprint.is_some(), !w.is_live());
            }
            let spans =
                std::fs::read_to_string(out.join(format!("trace-{}.jsonl", w.name))).unwrap();
            assert!(spans.lines().count() > 10);
            for line in spans.lines() {
                crate::json::parse(line).expect("span lines are JSON");
            }
        }
        std::fs::remove_dir_all(&out).unwrap();
    }
}
