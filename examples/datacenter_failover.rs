//! Datacenter failover: the scenario that motivates the paper.
//!
//! A key-value overlay maps contiguous key ranges onto a torus, and — for
//! data locality — each quadrant of the torus is hosted in one datacenter
//! ("all the virtual machines handling contiguous keys hosted in the same
//! rack"). When a whole datacenter goes dark, a classic topology loses
//! that quadrant of the key space forever; Polystyrene redistributes the
//! orphaned key ranges across the surviving datacenters.
//!
//! ```sh
//! cargo run --release --example datacenter_failover
//! ```

use polystyrene_repro::prelude::*;

/// Which datacenter hosts a node, by the quadrant of its original point.
fn datacenter(pos: &[f64; 2], width: f64, height: f64) -> usize {
    let east = pos[0] >= width / 2.0;
    let north = pos[1] >= height / 2.0;
    match (east, north) {
        (false, false) => 0,
        (true, false) => 1,
        (false, true) => 2,
        (true, true) => 3,
    }
}

fn run(label: &str, polystyrene: bool) -> (f64, f64) {
    let (cols, rows) = (32, 32);
    let (w, h) = (cols as f64, rows as f64);
    let mut config = EngineConfig::default();
    config.area = w * h;
    config.poly.replication = 6;
    let mut engine = Engine::new(
        Torus2::new(w, h),
        shapes::torus_grid(cols, rows, 1.0),
        config,
    );
    if !polystyrene {
        engine.disable_polystyrene();
    }

    engine.run(20);
    // Datacenter 3 (north-east quadrant) suffers a power failure.
    let killed = engine.fail_original_region(&move |p| datacenter(p, w, h) == 3);
    println!("{label}: datacenter 3 lost ({} nodes down)", killed.len());
    engine.run(25);

    let m = engine.history().last().unwrap();
    println!(
        "{label}: homogeneity {:.3} (uniform coverage would be < {:.3}), \
         {:.1}% of key ranges still served",
        m.homogeneity,
        m.reference_homogeneity,
        m.surviving_points * 100.0
    );
    (m.homogeneity, m.surviving_points)
}

fn main() {
    let (poly_h, poly_survive) = run("Polystyrene K=6", true);
    let (tman_h, tman_survive) = run("T-Man baseline ", false);
    println!(
        "\nkey-space coverage after failover:\n  \
         Polystyrene: homogeneity {poly_h:.3}, {:.1}% ranges alive\n  \
         T-Man:       homogeneity {tman_h:.3}, {:.1}% ranges alive",
        poly_survive * 100.0,
        tman_survive * 100.0
    );
    assert!(poly_h < tman_h, "Polystyrene must preserve coverage better");
    assert!(
        poly_survive > 0.99,
        "K=6 over a 25% failure loses ~0.02% of ranges"
    );
    assert!(
        tman_survive < 0.80,
        "the baseline forfeits the whole quadrant"
    );
}
