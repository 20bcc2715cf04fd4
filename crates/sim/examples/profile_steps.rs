//! Per-round wall-clock profile of the cycle engine at sweep scale:
//! builds a square-ish torus of `N` nodes (default 12 800), warms the
//! shape up, kills the right half, and prints each recovery round's
//! total time alongside the shape metrics. Useful for spotting
//! observation-path or phase-pipeline regressions without firing up
//! the full fig10a sweep.
//!
//! ```sh
//! cargo run --release -p polystyrene-sim --example profile_steps -- 12800
//! ```

use polystyrene_sim::prelude::*;
use polystyrene_space::prelude::*;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12800);
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let mut cfg = EngineConfig::default();
    cfg.area = (cols * rows) as f64;
    let space = Torus2::new(cols as f64, rows as f64);
    let shape = shapes::torus_grid(cols, rows, 1.0);
    let build = Instant::now();
    let mut engine = Engine::new(space, shape, cfg);
    eprintln!(
        "built {} nodes in {:?}",
        engine.alive_count(),
        build.elapsed()
    );
    let warm = Instant::now();
    engine.run(12);
    eprintln!(
        "warmup 12 rounds in {:?} ({:?}/round)",
        warm.elapsed(),
        warm.elapsed() / 12
    );
    engine.fail_original_region(shapes::in_right_half(cols as f64));
    eprintln!("-- failed half, alive {}", engine.alive_count());
    for _ in 0..8 {
        let t = Instant::now();
        let m = engine.step();
        eprintln!(
            "round {} total {:?} (proximity {:.3}, cost/node {:.1})",
            m.round,
            t.elapsed(),
            m.proximity,
            m.cost_units
        );
    }
}
