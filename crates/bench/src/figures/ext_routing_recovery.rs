//! **Extension experiment E1** — routing quality through the catastrophe
//! (not a paper figure, but the paper's motivating claim made
//! quantitative: "Losing the shape of the topology might affect system
//! performance, e.g. routing").
//!
//! One engine run per stack — Polystyrene and the T-Man baseline — with
//! the seeded key workload riding the kill-and-reshape scenario through
//! the traffic plane: every lookup enters at a random gateway and is
//! forwarded greedily by the nodes themselves, over their own views. At
//! four moments it reports the served fraction, the mean hop count, and
//! the census homogeneity (the mean distance from a founding data point,
//! i.e. a key of the shape, to the closest alive node) against the
//! reference `H`. A torn shape still answers every lookup — from the rim
//! of the hole, far from the key; only the re-formed shape brings the
//! answers back within `H` of their keys.
//!
//! ```sh
//! figures ext_routing_recovery --cols 80 --rows 40
//! ```

use crate::report::render_table;
use crate::{lab_config, Args, Output};
use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::{
    key_universe, run_experiment_with_traffic, TrafficDist, TrafficLoad,
};
use polystyrene_protocol::{LinkProfile, PaperScenario};
use polystyrene_sim::engine::Engine;
use polystyrene_space::torus::Torus2;

/// The flags E1 reads: one engine run of each stack under the key
/// workload.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "k",
    "seed",
    "traffic-rate",
    "traffic-keys",
    "read-fraction",
    "traffic-dist",
    "out",
];

/// Observation rounds sampled, relative to the failure round: the round
/// before it, the round it strikes, and three and fifteen rounds on. Row
/// `r` counts the queries offered at the start of round `r` and the
/// census taken at its end.
const MOMENTS: [(&str, i64); 4] = [
    ("converged", -1),
    ("failure round", 0),
    ("failure + 3 rounds", 3),
    ("failure + 15 rounds", 15),
];

/// Runs E1.
pub fn run(args: &Args) -> Output {
    let (cols, rows, k, seed) = (
        args.get("cols", 40),
        args.get("rows", 20),
        args.get("k", 4),
        args.get("seed", 1),
    );
    let (traffic_rate, traffic_keys) = (args.get("traffic-rate", 400), args.traffic_keys(1024));
    let (read_fraction, traffic_dist) = (
        args.read_fraction(),
        args.get("traffic-dist", TrafficDist::Uniform),
    );
    let paper = PaperScenario::reshaping_only(cols, rows, 20, 16);
    let (w, h) = paper.extents();
    let keys = key_universe(traffic_keys, cols, rows);
    // Enough hops to cross the torus twice: a strictly improving walk
    // never needs them, so no lookup is lost to the budget.
    let ttl = ((w + h) * 2.0) as u32;
    println!(
        "E1 routing recovery: {}-node torus, {traffic_rate} lookups per round over {traffic_keys} keys\n",
        paper.node_count(),
    );

    let mut table: Vec<Vec<String>> = Vec::new();
    for (name, tman_only) in [(format!("Polystyrene_K{k}"), false), ("TMan".into(), true)] {
        let mut cfg = lab_config(k, SplitStrategy::Advanced, seed, LinkProfile::ideal());
        cfg.area = paper.area();
        let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
        if tman_only {
            engine.disable_polystyrene();
        }
        let mut load = TrafficLoad::with_dist(
            keys.clone(),
            traffic_rate,
            read_fraction,
            ttl,
            seed,
            traffic_dist,
        );
        let trace = run_experiment_with_traffic(&mut engine, &paper.script(), Some(&mut load));
        for (moment, offset) in MOMENTS {
            let o = &trace.observations[(i64::from(paper.failure_round) + offset) as usize];
            table.push(vec![
                name.clone(),
                moment.to_string(),
                format!("{:.1}", o.traffic.availability() * 100.0),
                format!("{:.2}", o.traffic.mean_hops),
                format!("{:.3}", o.homogeneity),
                format!("{:.3}", o.reference_homogeneity),
            ]);
        }
    }

    println!(
        "{}",
        render_table(
            "E1 — greedy routing through the catastrophe",
            &[
                "stack",
                "moment",
                "served (%)",
                "mean hops",
                "homogeneity",
                "reference H"
            ],
            &table,
        )
    );
    let mut out = Output::default();
    out.csv(
        "ext_routing_recovery.csv",
        &[
            "stack",
            "moment",
            "availability_pct",
            "mean_hops",
            "homogeneity",
            "reference_homogeneity",
        ],
        &table,
    );
    println!(
        "\nExpected shape: both stacks serve every lookup when converged, with\n\
         homogeneity far below H. The failure round drops the lookups sent to\n\
         dead view entries and sends homogeneity far above H (keys in the\n\
         hole). Within ~15 rounds both stacks serve every lookup again, but\n\
         only Polystyrene brings homogeneity back below H; under T-Man the\n\
         answers for keys in the hole still come from its rim."
    );
    out
}
