//! End-to-end integration test of the paper's three-phase evaluation
//! scenario (Sec. IV-A), asserting the qualitative claims of Figs. 6-7
//! and Table II on a reduced torus.

use polystyrene_repro::prelude::*;

fn run_script(engine: &mut Engine<Torus2>, paper: &PaperScenario) -> Vec<RoundMetrics> {
    run_experiment(engine, &paper.script());
    engine.history().to_vec()
}

fn engine_for(paper: &PaperScenario, k: usize, seed: u64) -> Engine<Torus2> {
    let (w, h) = paper.extents();
    let mut cfg = SubstrateConfig::default();
    cfg.area = paper.area();
    cfg.seed = seed;
    cfg.poly.replication = k;
    Engine::new(Torus2::new(w, h), paper.shape(), cfg)
}

fn paper() -> PaperScenario {
    PaperScenario {
        cols: 24,
        rows: 12,
        failure_round: 15,
        inject_round: Some(50),
        total_rounds: 90,
    }
}

#[test]
fn three_phases_follow_the_paper() {
    let paper = paper();
    let mut engine = engine_for(&paper, 4, 11);
    let metrics = run_script(&mut engine, &paper);

    // Phase 1: convergence. Homogeneity 0 (every node hosts its point),
    // proximity near the grid optimum (4 neighbors at distance 1).
    let converged = &metrics[paper.failure_round as usize - 1];
    assert_eq!(converged.alive_nodes, 288);
    assert!(converged.homogeneity < 1e-9);
    assert!(
        converged.proximity < 1.3,
        "proximity {}",
        converged.proximity
    );
    // Steady-state memory: 1 + K points per node (paper Fig. 7a).
    assert!((converged.points_per_node - 5.0).abs() < 0.5);

    // Phase 2: catastrophic failure, then reshaping within ~10 rounds.
    let at_failure = &metrics[paper.failure_round as usize + 1];
    assert_eq!(at_failure.alive_nodes, 144);
    let t = reshaping_time(&metrics, paper.failure_round).expect("never reshaped");
    assert!(t <= 15, "reshaping took {t} rounds");
    // Reliability ≈ 1 − 0.5^(K+1) = 96.9 % for K = 4 (paper Table II).
    assert!(at_failure.surviving_points > 0.90);

    // The replica spike of Fig. 7a: stored points jump right after the
    // failure (~2×(1+K)) and then decay as migration deduplicates.
    let spike = metrics[paper.failure_round as usize + 2].points_per_node;
    let settled = metrics[paper.inject_round.unwrap() as usize - 1].points_per_node;
    assert!(
        spike > settled,
        "no dedup decay: spike {spike}, settled {settled}"
    );

    // Phase 3: reinjection brings homogeneity far below the half-
    // population plateau (paper: 0.035 vs 0.61).
    let last = metrics.last().unwrap();
    assert_eq!(last.alive_nodes, 288);
    let pre_inject = metrics[paper.inject_round.unwrap() as usize - 1].homogeneity;
    assert!(
        last.homogeneity < pre_inject / 2.0,
        "reinjection did not densify coverage: {} vs {}",
        last.homogeneity,
        pre_inject
    );
}

#[test]
fn tman_baseline_loses_the_shape_forever() {
    let paper = paper();
    let mut engine = engine_for(&paper, 4, 13);
    engine.disable_polystyrene();
    let metrics = run_script(&mut engine, &paper);

    // The baseline never reshapes…
    assert_eq!(reshaping_time(&metrics, paper.failure_round), None);
    // …loses about half the data points…
    let after = &metrics[paper.failure_round as usize + 1];
    assert!(after.surviving_points < 0.55);
    // …but still heals its *links* (the paper's Fig. 1c observation).
    let last = metrics.last().unwrap();
    assert!(last.proximity < 2.0, "T-Man should still fix proximity");
    // Homogeneity stays flat and high from failure to the end of phase 2.
    let plateau_start = metrics[paper.failure_round as usize + 5].homogeneity;
    let plateau_end = metrics[paper.inject_round.unwrap() as usize - 1].homogeneity;
    assert!((plateau_start - plateau_end).abs() < 0.25);
    assert!(plateau_end > metrics.last().unwrap().reference_homogeneity);
}

#[test]
fn replication_factor_trades_speed_for_reliability() {
    // Paper Table II: higher K ⇒ slower reshaping but better reliability.
    let paper = PaperScenario::reshaping_only(24, 12, 15, 40);
    let run = |k: usize| {
        let mut engine = engine_for(&paper, k, 17);
        let trace = run_experiment(&mut engine, &paper.script());
        (trace.reshaping_rounds(), trace.reliability())
    };
    let (_t2, r2) = run(2);
    let (t4, r4) = run(4);
    let (t8, r8) = run(8);
    assert!(t4.is_some() && t8.is_some());
    // Reliability ordering is a strong statistical signal even in 1 run.
    assert!(
        r2 < r4 + 0.05,
        "K=2 ({r2}) should not beat K=4 ({r4}) by much"
    );
    assert!(r8 > r2, "K=8 ({r8}) must beat K=2 ({r2})");
    assert!(r8 > 0.985, "K=8 reliability {r8}");
}

#[test]
fn deterministic_replay() {
    let paper = paper();
    let run = || {
        let mut engine = engine_for(&paper, 4, 99);
        run_script(&mut engine, &paper)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the exact metric history");
}
