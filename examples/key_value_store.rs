//! A key-value store that survives losing half its fleet.
//!
//! Keys hash onto the torus, and a lookup is a query for the node whose
//! position is closest to its key: it enters at a random node and is
//! forwarded greedily through the nodes' own views. When a datacenter
//! hosting half the torus dies, lookups sent into the dead half are
//! lost; Polystyrene re-forms the shape from the survivors' replicas,
//! and every key resolves again. What the store keeps is the shape's
//! data points, and the census counts how many of them survived.
//!
//! ```sh
//! cargo run --release --example key_value_store
//! ```

use polystyrene_repro::prelude::*;

fn main() {
    let (cols, rows) = (24, 12);
    let paper = PaperScenario::reshaping_only(cols, rows, 15, 15);
    let (w, h) = paper.extents();
    let mut cfg = LabConfig::default();
    cfg.area = paper.area();
    cfg.poly.replication = 6;
    let mut engine = build_substrate(
        SubstrateKind::Engine,
        Torus2::new(w, h),
        paper.shape(),
        &cfg,
    );

    // As many lookups per round as there are keys, 90 % of them reads.
    let keys = key_universe(60, cols, rows);
    let ttl = (cols + rows) as u32;
    let mut load = TrafficLoad::new(keys.clone(), keys.len(), 0.9, ttl, 7);
    let trace = run_experiment_with_traffic(engine.as_mut(), &paper.script(), Some(&mut load));

    let served = |o: &RoundObservation| format!("{}/{}", o.traffic.delivered, o.traffic.offered);
    let failure = paper.failure_round as usize;
    let obs = &trace.observations;
    println!(
        "{} keys over {} nodes: {} lookups served in the round before the failure",
        keys.len(),
        obs[failure - 1].alive_nodes,
        served(&obs[failure - 1])
    );
    println!(
        "datacenter failure: {} nodes left, {} lookups served in the failure round",
        obs[failure].alive_nodes,
        served(&obs[failure])
    );
    let reshaped = trace
        .reshaping_rounds()
        .expect("the shape must re-form within 15 rounds");
    println!("shape re-formed {reshaped} rounds after the failure");
    for o in &obs[failure + reshaped as usize..] {
        assert_eq!(
            (o.traffic.delivered, o.traffic.dropped),
            (o.traffic.offered, 0),
            "round {}: every lookup after the reshape must resolve",
            o.round
        );
    }

    // One last round that looks up every key once.
    engine.offer_traffic(&keys, ttl);
    let last = engine.step();
    let stats = engine.drain_traffic();
    println!(
        "every key looked up once more: {}/{} resolved in {:.2} hops on average",
        stats.delivered, stats.offered, stats.mean_hops
    );
    assert_eq!(stats.offered, keys.len() as u64);
    assert_eq!(stats.delivered, stats.offered, "every key must resolve");
    println!(
        "data points surviving: {:.1} % (K = 6)",
        last.surviving_points * 100.0
    );
    assert!(
        last.surviving_points > 0.9,
        "far too many data points lost: {:.3}",
        last.surviving_points
    );
}
