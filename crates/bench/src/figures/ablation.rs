//! **Ablations** of the protocol's pluggable design choices: projection
//! strategy (Sec. III-C), replication factor K (Sec. IV-B) and backup
//! placement (Sec. III-D), each printed as a reshaping-time table over
//! the failure-only scenario — on any execution substrate via
//! `--substrate`.
//!
//! ```sh
//! figures ablation
//! figures ablation --cols 40 --rows 20 --runs 10
//! ```

use crate::{lab_config, render_reshaping_table, reshaping_row, Args, Output};
use polystyrene::prelude::{BackupPlacement, ProjectionStrategy, SplitStrategy};
use polystyrene_lab::SubstrateKind;
use polystyrene_protocol::SubstrateConfig;
use polystyrene_sim::prelude::PaperScenario;

/// The flags the ablations read; they write no file.
pub const FLAGS: &[&str] = &[
    "cols",
    "rows",
    "runs",
    "k",
    "seed",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
];

/// Runs the three ablations.
pub fn run(args: &Args) -> Output {
    let (cols, rows, runs) = (args.get("cols", 20), args.get("rows", 10), args.get("runs", 3));
    let k = args.get("k", 4);
    let substrate = args.get("substrate", SubstrateKind::Engine);
    let paper = PaperScenario::reshaping_only(cols, rows, 15, 50);
    let base = lab_config(k, SplitStrategy::Advanced, args.get("seed", 0), args.link(2, 1));
    let row =
        |cfg: SubstrateConfig, label: &str| reshaping_row(substrate, &paper, &cfg, runs, label.into());

    println!("========== Ablation: projection strategy (K={k}, Split_Advanced) ==========");
    let rows: Vec<_> = [
        ("Medoid (paper)", ProjectionStrategy::Medoid),
        ("MedoidSampled(8)", ProjectionStrategy::MedoidSampled(8)),
        ("FirstGuest", ProjectionStrategy::FirstGuest),
    ]
    .into_iter()
    .map(|(name, projection)| {
        let mut cfg = base;
        cfg.poly.projection = projection;
        row(cfg, name)
    })
    .collect();
    println!("{}", render_reshaping_table("Projection ablation", &rows));

    println!("========== Ablation: replication factor K (Split_Advanced) ==========");
    let rows: Vec<_> = [1usize, 2, 4, 8, 12]
        .into_iter()
        .map(|k| {
            let mut cfg = base;
            cfg.poly.replication = k;
            row(cfg, &format!("K={k}"))
        })
        .collect();
    println!("{}", render_reshaping_table("Replication ablation", &rows));
    println!(
        "Expected: reliability tracks 1 − 0.5^(K+1); reshaping slows as K grows\n\
         (more duplicates to drain) — the speed/reliability trade-off of Sec. IV-B.\n"
    );

    println!("========== Ablation: backup placement under a correlated blast ==========");
    let rows: Vec<_> = [
        ("UniformRandom (paper)", BackupPlacement::UniformRandom),
        ("NeighborhoodBiased", BackupPlacement::NeighborhoodBiased),
    ]
    .into_iter()
    .map(|(name, placement)| {
        let mut cfg = base;
        cfg.poly.backup_placement = placement;
        row(cfg, name)
    })
    .collect();
    println!(
        "{}",
        render_reshaping_table("Backup placement ablation", &rows)
    );
    println!(
        "Expected: localized placement loses most of the dead region's points\n\
         (replicas die with their neighborhood) — the exact trade-off the paper\n\
         argues for random placement in Sec. III-D."
    );
    Output::default()
}
