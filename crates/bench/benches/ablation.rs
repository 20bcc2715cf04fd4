//! Ablation benches for the protocol's pluggable design choices:
//! projection strategy, replication factor and split strategy — each
//! printed as a reshaping-time table (the protocol-quality axis) and
//! timed as a scenario run (the compute-cost axis).

use criterion::{criterion_group, BenchmarkId, Criterion};
use polystyrene::prelude::{BackupPlacement, ProjectionStrategy, SplitStrategy};
use polystyrene_bench::{experiment_config, render_reshaping_table, ReshapingRow};
use polystyrene_lab::{run_experiment, ExperimentTrace};
use polystyrene_sim::prelude::*;
use polystyrene_space::torus::Torus2;
use std::time::Instant;

fn ablation_paper() -> PaperScenario {
    PaperScenario::reshaping_only(20, 10, 15, 50)
}

fn run_with(
    projection: ProjectionStrategy,
    split: SplitStrategy,
    k: usize,
    seed: u64,
) -> ExperimentTrace {
    let paper = ablation_paper();
    let (w, h) = paper.extents();
    let mut cfg = experiment_config(k, split, seed);
    cfg.area = paper.area();
    cfg.poly = polystyrene::prelude::PolystyreneConfig::builder()
        .replication(k)
        .split(split)
        .projection(projection)
        .build();
    let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
    run_experiment(&mut engine, &paper.script())
}

fn print_projection_ablation() {
    println!("========== Ablation: projection strategy (K=4, Split_Advanced) ==========");
    let mut rows = Vec::new();
    for (name, projection) in [
        ("Medoid (paper)", ProjectionStrategy::Medoid),
        ("MedoidSampled(8)", ProjectionStrategy::MedoidSampled(8)),
        ("FirstGuest", ProjectionStrategy::FirstGuest),
    ] {
        let mut times = Vec::new();
        let mut unreshaped = 0usize;
        let mut reliabilities = Vec::new();
        let started = Instant::now();
        for seed in 0..3u64 {
            let trace = run_with(projection, SplitStrategy::Advanced, 4, seed);
            match trace.reshaping_rounds() {
                Some(t) => times.push(t as f64),
                None => unreshaped += 1,
            }
            reliabilities.push(trace.reliability() * 100.0);
        }
        let elapsed = started.elapsed();
        rows.push(ReshapingRow {
            label: name.to_string(),
            nodes: ablation_paper().node_count(),
            reshaping: polystyrene_space::stats::ci95(&times),
            unreshaped,
            reliability: polystyrene_space::stats::ci95(&reliabilities),
            elapsed,
        });
    }
    println!("{}", render_reshaping_table("Projection ablation", &rows));
}

fn print_k_ablation() {
    println!("========== Ablation: replication factor K (Split_Advanced) ==========");
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 12] {
        let mut times = Vec::new();
        let mut unreshaped = 0usize;
        let mut reliabilities = Vec::new();
        let started = Instant::now();
        for seed in 0..3u64 {
            let trace = run_with(ProjectionStrategy::Medoid, SplitStrategy::Advanced, k, seed);
            match trace.reshaping_rounds() {
                Some(t) => times.push(t as f64),
                None => unreshaped += 1,
            }
            reliabilities.push(trace.reliability() * 100.0);
        }
        let elapsed = started.elapsed();
        rows.push(ReshapingRow {
            label: format!("K={k}"),
            nodes: ablation_paper().node_count(),
            reshaping: polystyrene_space::stats::ci95(&times),
            unreshaped,
            reliability: polystyrene_space::stats::ci95(&reliabilities),
            elapsed,
        });
    }
    println!("{}", render_reshaping_table("Replication ablation", &rows));
    println!(
        "Expected: reliability tracks 1 − 0.5^(K+1); reshaping slows as K grows\n\
         (more duplicates to drain) — the speed/reliability trade-off of Sec. IV-B.\n"
    );
}

fn print_placement_ablation() {
    println!("========== Ablation: backup placement under a correlated blast ==========");
    let paper = ablation_paper();
    let (w, h) = paper.extents();
    let mut rows = Vec::new();
    for (name, placement) in [
        ("UniformRandom (paper)", BackupPlacement::UniformRandom),
        ("NeighborhoodBiased", BackupPlacement::NeighborhoodBiased),
    ] {
        let mut times = Vec::new();
        let mut unreshaped = 0usize;
        let mut reliabilities = Vec::new();
        let started = Instant::now();
        for seed in 0..3u64 {
            let mut cfg = experiment_config(4, SplitStrategy::Advanced, seed);
            cfg.area = paper.area();
            cfg.poly = polystyrene::prelude::PolystyreneConfig::builder()
                .replication(4)
                .backup_placement(placement)
                .build();
            let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
            let trace = run_experiment(&mut engine, &paper.script());
            match trace.reshaping_rounds() {
                Some(t) => times.push(t as f64),
                None => unreshaped += 1,
            }
            reliabilities.push(trace.reliability() * 100.0);
        }
        let elapsed = started.elapsed();
        rows.push(ReshapingRow {
            label: name.to_string(),
            nodes: paper.node_count(),
            reshaping: polystyrene_space::stats::ci95(&times),
            unreshaped,
            reliability: polystyrene_space::stats::ci95(&reliabilities),
            elapsed,
        });
    }
    println!(
        "{}",
        render_reshaping_table("Backup placement ablation", &rows)
    );
    println!(
        "Expected: localized placement loses most of the dead region's points\n\
         (replicas die with their neighborhood) — the exact trade-off the paper\n\
         argues for random placement in Sec. III-D.\n"
    );
}

fn bench_projection_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_projection_scenario");
    group.sample_size(10);
    for (name, projection) in [
        ("medoid", ProjectionStrategy::Medoid),
        ("first_guest", ProjectionStrategy::FirstGuest),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &projection,
            |b, &projection| {
                b.iter(|| run_with(projection, SplitStrategy::Advanced, 4, 1));
            },
        );
    }
    group.finish();
}

fn bench_split_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_split_scenario");
    group.sample_size(10);
    for strategy in [SplitStrategy::Basic, SplitStrategy::Advanced] {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name()),
            &strategy,
            |b, &strategy| {
                b.iter(|| run_with(ProjectionStrategy::Medoid, strategy, 4, 1));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_projection_cost, bench_split_cost);

fn main() {
    print_projection_ablation();
    print_k_ablation();
    print_placement_ablation();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
