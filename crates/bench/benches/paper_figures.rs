//! `cargo bench` entry point that regenerates a scaled-down version of
//! every table and figure in the paper (printed before the timing runs),
//! then times the simulation engine itself.
//!
//! Full-scale regeneration lives in the `src/bin/` harnesses; this bench
//! keeps sizes small so the whole suite finishes in minutes while still
//! exhibiting every qualitative shape the paper reports.

use criterion::{criterion_group, BenchmarkId, Criterion};
use polystyrene::prelude::SplitStrategy;
use polystyrene_bench::{
    experiment_config, render_reshaping_table, run_quality, scaling_sweep, summarize, table2_row,
    ReshapingRow, StackKind,
};
use polystyrene_lab::{run_experiment, LabConfig, SubstrateKind};
use polystyrene_sim::prelude::*;
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;

/// Miniature of the paper's 3-phase scenario: 200-node torus.
fn mini_paper() -> PaperScenario {
    PaperScenario {
        cols: 20,
        rows: 10,
        step: 1.0,
        failure_round: 15,
        inject_round: Some(45),
        total_rounds: 80,
    }
}

fn print_fig1() {
    println!("================ Fig. 1 (mini): T-Man loses the shape ================");
    let paper = PaperScenario::reshaping_only(20, 10, 15, 20);
    let (w, h) = paper.extents();
    let mut cfg = EngineConfig::default();
    cfg.area = paper.area();
    let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
    engine.disable_polystyrene();
    engine.run(paper.failure_round);
    engine.fail_original_region(&shapes::in_right_half(w));
    engine.run(20);
    let snap = Snapshot::capture(&engine, 4);
    println!("{}", snap.render_density(w, h, 20, 6));
    let m = engine.history().last().unwrap();
    println!(
        "T-Man after failure: homogeneity {:.2} ≫ reference {:.2} (shape lost)\n",
        m.homogeneity, m.reference_homogeneity
    );
}

fn print_fig6_7() {
    println!("====== Figs. 6 & 7 (mini): quality and overheads, K ∈ {{2,4,8}} vs T-Man ======");
    let paper = mini_paper();
    for &k in &[2usize, 4, 8] {
        let r = run_quality(
            &paper,
            StackKind::Polystyrene,
            k,
            SplitStrategy::Advanced,
            2,
            1,
        );
        println!("{}", summarize(&r, &format!("Polystyrene_K{k}")));
        let pts = r.points_per_node.means();
        println!(
            "  points/node before failure: {:.2} (expect {})",
            pts[paper.failure_round as usize - 1],
            1 + k
        );
    }
    let tman = run_quality(
        &paper,
        StackKind::TManOnly,
        4,
        SplitStrategy::Advanced,
        2,
        1,
    );
    println!("{}\n", summarize(&tman, "TMan (baseline)"));
}

fn print_table2() {
    println!("================ Table II (mini): reshaping time & reliability ================");
    let paper = PaperScenario::reshaping_only(20, 10, 15, 40);
    let rows: Vec<ReshapingRow> = [2usize, 4, 8]
        .iter()
        .map(|&k| {
            table2_row(
                SubstrateKind::Engine,
                &paper,
                k,
                SplitStrategy::Advanced,
                3,
                &LabConfig::default(),
            )
        })
        .collect();
    println!(
        "{}",
        render_reshaping_table("Table II (200-node torus, 3 runs)", &rows)
    );
}

fn print_fig10() {
    println!("================ Fig. 10 (mini): scalability & split ablation ================");
    let sizes = [(10usize, 10usize), (20, 10), (20, 20), (40, 20)];
    for &k in &[4usize, 8] {
        let rows = scaling_sweep(
            SubstrateKind::Engine,
            &sizes,
            k,
            SplitStrategy::Advanced,
            2,
            &LabConfig::default(),
            60,
        );
        println!(
            "{}",
            render_reshaping_table(&format!("Fig. 10a — K={k}"), &rows)
        );
    }
    for strategy in [SplitStrategy::Basic, SplitStrategy::Advanced] {
        let rows = scaling_sweep(
            SubstrateKind::Engine,
            &sizes,
            4,
            strategy,
            2,
            &LabConfig::default(),
            80,
        );
        println!(
            "{}",
            render_reshaping_table(&format!("Fig. 10b — {strategy}"), &rows)
        );
    }
}

fn bench_engine_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_round");
    group.sample_size(10);
    for &(cols, rows) in &[(10usize, 10usize), (20, 20), (40, 40)] {
        let n = cols * rows;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut cfg = EngineConfig::default();
            cfg.area = (cols * rows) as f64;
            let mut engine = Engine::new(
                Torus2::new(cols as f64, rows as f64),
                shapes::torus_grid(cols, rows, 1.0),
                cfg,
            );
            engine.run(5); // warm views
            b.iter(|| engine.step());
        });
    }
    group.finish();
}

fn bench_failure_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("failure_recovery_round");
    group.sample_size(10);
    group.bench_function("20x20_post_failure", |b| {
        let mut cfg = experiment_config(4, SplitStrategy::Advanced, 1);
        cfg.area = 400.0;
        let mut engine = Engine::new(
            Torus2::new(20.0, 20.0),
            shapes::torus_grid(20, 20, 1.0),
            cfg,
        );
        engine.run(10);
        engine.fail_original_region(&shapes::in_right_half(20.0));
        b.iter(|| engine.step());
    });
    group.finish();
}

fn bench_full_mini_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_scenario");
    group.sample_size(10);
    group.bench_function("200_nodes_80_rounds", |b| {
        let paper = mini_paper();
        let (w, h) = paper.extents();
        b.iter(|| {
            let mut cfg = experiment_config(4, SplitStrategy::Advanced, 1);
            cfg.area = paper.area();
            let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
            run_experiment(&mut engine, &paper.script())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_round,
    bench_failure_recovery,
    bench_full_mini_scenario
);

fn main() {
    print_fig1();
    print_fig6_7();
    print_table2();
    print_fig10();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
