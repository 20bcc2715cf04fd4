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
//! cargo run --release -p polystyrene-bench --bin ext_routing_recovery -- \
//!     --cols 80 --rows 40
//! ```

use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::CommonArgs;
use polystyrene_lab::{
    build_substrate, key_universe, run_experiment_with_traffic, SubstrateKind, TrafficLoad,
};
use polystyrene_sim::prelude::*;
use polystyrene_space::torus::Torus2;

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

fn main() {
    let args = CommonArgs::parse_engine_only(CommonArgs {
        cols: 40,
        rows: 20,
        traffic_rate: 400,
        traffic_keys: 1024,
        ..Default::default()
    });
    let paper = PaperScenario::reshaping_only(args.cols, args.rows, 20, 16);
    let (w, h) = paper.extents();
    let keys = key_universe(args.traffic_keys, args.cols, args.rows);
    // Enough hops to cross the torus twice: a strictly improving walk
    // never needs them, so no lookup is lost to the budget.
    let ttl = ((w + h) * 2.0) as u32;
    println!(
        "E1 routing recovery: {}-node torus, {} lookups per round over {} keys\n",
        paper.node_count(),
        args.traffic_rate,
        args.traffic_keys
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, tman_only) in [
        (format!("Polystyrene_K{}", args.k), false),
        ("TMan".into(), true),
    ] {
        let mut cfg = args.lab_config(SplitStrategy::Advanced);
        cfg.area = paper.area();
        cfg.tman_only = tman_only;
        let mut engine = build_substrate(
            SubstrateKind::Engine,
            Torus2::new(w, h),
            paper.shape(),
            &cfg,
        );
        let mut load = TrafficLoad::with_dist(
            keys.clone(),
            args.traffic_rate,
            args.read_fraction,
            ttl,
            args.seed,
            args.traffic_dist,
        );
        let trace = run_experiment_with_traffic(engine.as_mut(), &paper.script(), Some(&mut load));
        for (moment, offset) in MOMENTS {
            let o = &trace.observations[(i64::from(paper.failure_round) + offset) as usize];
            rows.push(vec![
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
            &rows,
        )
    );
    write_csv(
        args.out.join("ext_routing_recovery.csv"),
        &[
            "stack",
            "moment",
            "availability_pct",
            "mean_hops",
            "homogeneity",
            "reference_homogeneity",
        ],
        &rows,
    )
    .expect("failed to write CSV");
    println!("CSV written to {}", args.out.display());
    println!(
        "\nExpected shape: both stacks serve every lookup when converged, with\n\
         homogeneity far below H. The failure round drops the lookups sent to\n\
         dead view entries and sends homogeneity far above H (keys in the\n\
         hole). Within ~15 rounds both stacks serve every lookup again, but\n\
         only Polystyrene brings homogeneity back below H; under T-Man the\n\
         answers for keys in the hole still come from its rim."
    );
}
