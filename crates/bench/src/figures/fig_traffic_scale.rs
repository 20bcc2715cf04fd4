//! **Traffic saturation sweep** — the batched query plane pushed to its
//! knee. Each substrate converges its population once, then serves a
//! geometric ladder of offered rates (`base × 2^i` queries per round,
//! zipf-skewed keys by default) on the *same* converged fabric; every
//! rung is one JSON entry (`netsim@r4000`, `cluster@r1024`, …) whose
//! availability and latency percentiles ride the existing
//! `figures diff` gates. The **knee** — the first rung served below
//! 99% — is reported per substrate in the metadata.
//!
//! Two different saturation mechanisms are exercised:
//!
//! * the deterministic kernel (`netsim`, default 160×160 = 25 600
//!   nodes) has no admission bound: its sweep measures routing cost at
//!   scale;
//! * the live substrates (`cluster`, `tcp`, figure-scale grids) bound
//!   every gateway's ingress at [`GATEWAY_INGRESS_BOUND`] queries —
//!   past the knee they *shed* load at the gateway (counted separately
//!   from in-flight expiry) instead of collapsing, and the sweep gates
//!   that the shed path actually engages.
//!
//! ```sh
//! figures fig_traffic_scale
//! figures fig_traffic_scale --cols 40 --rows 40 --base-rate 500 --rate-steps 3
//! ```

use crate::{Args, Output};
use polystyrene_lab::{
    build_substrate, json_f64, json_object, key_universe, run_experiment,
    run_experiment_with_traffic, summary_json, ExperimentSummary, ExperimentTrace,
    Series, SubstrateKind, TrafficDist, TrafficLoad,
};
use polystyrene_protocol::{LinkProfile, Scenario, SubstrateConfig};
use polystyrene_runtime::GATEWAY_INGRESS_BOUND;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use std::time::{Duration, Instant};

/// A rung is "served" while its mean availability stays at or above
/// this; the first rung below it is the substrate's knee.
const KNEE_AVAILABILITY: f64 = 0.99;

/// The flags the saturation sweep reads. `--cols`, `--rows`,
/// `--base-rate` and `--rate-steps` size the deterministic kernels'
/// ladder, the `--live-*` flags the live clusters'; without
/// `--substrate` it sweeps netsim, cluster and tcp.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "base-rate",
    "rate-steps",
    "live-cols",
    "live-rows",
    "live-base-rate",
    "live-rate-steps",
    "warmup",
    "rounds",
    "k",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "traffic-keys",
    "traffic-dist",
    "read-fraction",
    "out",
];

/// What every plan of one sweep shares.
struct Common {
    k: usize,
    seed: u64,
    link: LinkProfile,
    traffic_keys: usize,
    traffic_dist: TrafficDist,
    read_fraction: f64,
}

/// One substrate's sweep configuration.
struct Plan {
    kind: SubstrateKind,
    cols: usize,
    rows: usize,
    base_rate: usize,
    rate_steps: usize,
}

impl Plan {
    fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    fn rates(&self) -> Vec<usize> {
        (0..self.rate_steps).map(|i| self.base_rate << i).collect()
    }

    /// Queries may need to cross half the torus on each axis; the +4
    /// covers greedy detours around freshly-converged edges.
    fn ttl(&self) -> u32 {
        (self.cols / 2 + self.rows / 2 + 4) as u32
    }

    fn is_live(&self) -> bool {
        matches!(self.kind, SubstrateKind::Cluster | SubstrateKind::Tcp)
    }

    fn lab_config(&self, common: &Common) -> SubstrateConfig {
        let mut cfg = SubstrateConfig::default();
        cfg.seed = common.seed;
        cfg.area = self.nodes() as f64;
        cfg.link = common.link;
        cfg.poly.replication = common.k;
        if self.is_live() {
            cfg.tman.view_cap = 20;
            cfg.tman.m = 8;
            cfg.tick = Duration::from_millis(8);
            cfg.round_timeout = Duration::from_secs(5);
        }
        cfg
    }
}

/// The outcome of one substrate's rate ladder.
struct SweepResult {
    entries: Vec<(String, ExperimentSummary)>,
    knee_rate: Option<usize>,
    total_shed: u64,
    wall_secs: f64,
}

fn sweep(plan: &Plan, common: &Common, warmup: u32, rounds: u32) -> SweepResult {
    let started = Instant::now();
    let cfg = plan.lab_config(common);
    let keys = key_universe(common.traffic_keys, plan.cols, plan.rows);
    let mut substrate = build_substrate(
        plan.kind,
        Torus2::new(plan.cols as f64, plan.rows as f64),
        shapes::torus_grid(plan.cols, plan.rows, 1.0),
        &cfg,
    );
    // Converge the population once; every rung then shares the fabric.
    run_experiment(substrate.as_mut(), &Scenario::new(warmup));

    let mut entries = Vec::new();
    let mut knee_rate = None;
    let mut total_shed = 0;
    for (i, rate) in plan.rates().into_iter().enumerate() {
        let mut load = TrafficLoad::with_dist(
            keys.clone(),
            rate,
            common.read_fraction,
            plan.ttl(),
            common.seed + i as u64,
            common.traffic_dist,
        );
        let trace = run_experiment_with_traffic(
            substrate.as_mut(),
            &Scenario::new(rounds),
            Some(&mut load),
        );
        let mut summary = ExperimentSummary::default();
        // Rung availability is judged on the *cumulative* window counters,
        // not the mean of per-round ratios: on the wall-clock substrates a
        // query routinely resolves a round or two after it was offered, so
        // per-round ratios seesaw around 1.0 while the window total is
        // exact. Live rungs get two quiet settle rounds so their own
        // stragglers resolve inside their own window instead of bleeding
        // into the next rung's.
        let mut window = (0u64, 0u64, 0u64); // offered, delivered, shed
        let mut absorb = |trace: &ExperimentTrace| {
            for o in &trace.observations {
                window.0 += o.traffic.offered;
                window.1 += o.traffic.delivered;
                window.2 += o.traffic.shed;
            }
        };
        absorb(&trace);
        summary.push(&trace);
        if plan.is_live() {
            let mut settle = TrafficLoad::with_dist(
                keys.clone(),
                0,
                common.read_fraction,
                plan.ttl(),
                common.seed,
                common.traffic_dist,
            );
            let tail = run_experiment_with_traffic(
                substrate.as_mut(),
                &Scenario::new(2),
                Some(&mut settle),
            );
            absorb(&tail);
            summary.push(&tail);
        }
        let presented = window.0 + window.2;
        let availability = window.1 as f64 / presented.max(1) as f64;
        if knee_rate.is_none() && availability < KNEE_AVAILABILITY {
            knee_rate = Some(rate);
        }
        total_shed += summary.traffic_shed;
        println!(
            "{:>8}@r{rate:<6} availability {availability:.4}  p50 {:>6}  p99 {:>6}  shed {}",
            plan.kind.name(),
            json_f64(summary.mean(Series::TrafficP50).unwrap_or(f64::NAN), 1),
            json_f64(summary.mean(Series::TrafficP99).unwrap_or(f64::NAN), 1),
            summary.traffic_shed,
        );
        entries.push((format!("{}@r{rate}", plan.kind.name()), summary));
    }
    drop(substrate); // live clusters shut down here, before the next spawn
    SweepResult {
        entries,
        knee_rate,
        total_shed,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs the saturation sweep.
pub fn run(args: &Args) -> Output {
    let common = Common {
        k: args.get("k", 4),
        seed: args.get("seed", 1),
        link: args.link(0, 0),
        traffic_keys: args.traffic_keys(1024),
        traffic_dist: args.get("traffic-dist", TrafficDist::Zipf(0.99)),
        read_fraction: args.read_fraction(),
    };
    let warmup = args.get("warmup", 20);
    let rounds = args.get("rounds", 6);
    let sim_plan = |kind| Plan {
        kind,
        cols: args.get("cols", 160),
        rows: args.get("rows", 160),
        base_rate: args.get("base-rate", 2000),
        rate_steps: args.get("rate-steps", 4),
    };
    let live_plan = |kind| Plan {
        kind,
        cols: args.get("live-cols", 8),
        rows: args.get("live-rows", 4),
        base_rate: args.get("live-base-rate", 512),
        rate_steps: args.get("live-rate-steps", 6),
    };
    let plans: Vec<Plan> = if args.given("substrate") {
        let kind = args.get("substrate", SubstrateKind::Netsim);
        vec![match kind {
            SubstrateKind::Engine | SubstrateKind::Netsim => sim_plan(kind),
            SubstrateKind::Cluster | SubstrateKind::Tcp => live_plan(kind),
        }]
    } else {
        vec![
            sim_plan(SubstrateKind::Netsim),
            live_plan(SubstrateKind::Cluster),
            live_plan(SubstrateKind::Tcp),
        ]
    };
    println!(
        "Traffic saturation sweep: {} dist over {} keys, {rounds} rounds per rung \
         (warmup {warmup}), gateway ingress bound {GATEWAY_INGRESS_BOUND}\n",
        common.traffic_dist, common.traffic_keys
    );

    let mut out = Output::default();
    let mut results: Vec<(String, SweepResult)> = Vec::new();
    for plan in &plans {
        println!(
            "-- {} on a {}x{} torus ({} nodes), rates {:?}, ttl {}",
            plan.kind.name(),
            plan.cols,
            plan.rows,
            plan.nodes(),
            plan.rates(),
            plan.ttl()
        );
        let result = sweep(plan, &common, warmup, rounds);
        let base_floor = if plan.is_live() {
            0.80
        } else {
            KNEE_AVAILABILITY
        };
        let base_availability = result.entries[0]
            .1
            .mean(Series::TrafficAvailability)
            .unwrap_or(0.0);
        if base_availability < base_floor {
            out.fail(format!(
                "{}: base rung availability {base_availability:.4} below the \
                 {base_floor:.2} floor — the fabric cannot serve its lightest load",
                plan.kind.name()
            ));
        }
        if plan.is_live() {
            // The ladder tops out past the admission bound: the gateways
            // must have refused load at ingress rather than wedging.
            if result.total_shed == 0 {
                out.fail(format!(
                    "{}: ladder crossed the ingress bound but nothing was shed",
                    plan.kind.name()
                ));
            }
            if result.knee_rate.is_none() {
                out.fail(format!(
                    "{}: no knee found — the sweep never saturated the gateways",
                    plan.kind.name()
                ));
            }
        }
        match result.knee_rate {
            Some(knee) => println!("   knee at r{knee} (shed {} total)\n", result.total_shed),
            None => println!("   no knee within the ladder\n"),
        }
        results.push((plan.kind.name().to_string(), result));
    }

    let entries: Vec<(String, &ExperimentSummary)> = results
        .iter()
        .flat_map(|(_, r)| r.entries.iter().map(|(label, s)| (label.clone(), s)))
        .collect();
    let knee_rate = json_object(results.iter().map(|(label, r)| {
        let knee = r.knee_rate.map_or("null".to_string(), |k| k.to_string());
        (label, knee)
    }));
    let wall_secs = json_object(
        results
            .iter()
            .map(|(label, r)| (label, json_f64(r.wall_secs, 3))),
    );
    let meta: Vec<(&str, String)> = vec![
        ("nodes", plans[0].nodes().to_string()),
        ("k", common.k.to_string()),
        ("warmup", warmup.to_string()),
        ("rounds", rounds.to_string()),
        ("traffic_keys", common.traffic_keys.to_string()),
        ("traffic_dist", format!("\"{}\"", common.traffic_dist)),
        ("read_fraction", json_f64(common.read_fraction, 3)),
        ("ingress_bound", GATEWAY_INGRESS_BOUND.to_string()),
        ("knee_rate", knee_rate),
        ("wall_secs", wall_secs),
    ];
    out.file(
        "fig_traffic_scale.json",
        summary_json("fig_traffic_scale", &meta, &entries),
    );
    if out.failures().is_empty() {
        println!(
            "OK: {} rung(s) swept across {} substrate(s)",
            entries.len(),
            results.len()
        );
    }
    out
}
