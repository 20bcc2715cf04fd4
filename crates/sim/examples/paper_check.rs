//! Quick sanity run of the paper's headline scenario at full scale.
//!
//! ```sh
//! cargo run --release -p polystyrene-sim --example paper_check
//! ```

use polystyrene_protocol::observe::reshaping_time;
use polystyrene_sim::prelude::*;
use polystyrene_space::torus::Torus2;
use std::time::Instant;

fn main() {
    let paper = PaperScenario {
        total_rounds: 45,
        inject_round: None,
        ..Default::default()
    };
    let (w, h) = paper.extents();
    let mut cfg = EngineConfig::default();
    cfg.area = paper.area();
    cfg.seed = 42;

    let t0 = Instant::now();
    let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
    println!("built {} nodes in {:?}", engine.alive_count(), t0.elapsed());

    // The paper's failure-only scenario, driven directly on the engine
    // (the full scenario × substrate matrix lives in `polystyrene-lab`).
    let t0 = Instant::now();
    engine.run(paper.failure_round);
    engine.fail_original_region(polystyrene_space::shapes::in_right_half(w));
    engine.run(paper.total_rounds - paper.failure_round);
    let metrics = engine.history().to_vec();
    println!("ran {} rounds in {:?}", metrics.len(), t0.elapsed());

    for m in &metrics {
        if m.round % 5 == 0 || (m.round >= 20 && m.round <= 32) {
            println!(
                "round {:>3}  alive {:>5}  homog {:>8.3} (H {:.3})  prox {:>7.3}  pts/node {:>6.2}  cost/node {:>7.1}",
                m.round, m.alive_nodes, m.homogeneity, m.reference_homogeneity,
                m.proximity, m.points_per_node, m.cost_units
            );
        }
    }
    let rt = reshaping_time(&metrics, paper.failure_round);
    println!("reshaping time: {rt:?} (paper: 6.96 ± 0.08 for K=4)");
    let rel = metrics
        .iter()
        .find(|m| m.round > paper.failure_round)
        .unwrap()
        .surviving_points;
    println!(
        "reliability: {:.2}% (paper: 96.88 ± 0.10 for K=4)",
        rel * 100.0
    );
}
