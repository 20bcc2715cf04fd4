//! Scenario execution per substrate, through the one driver — the
//! tests that used to live next to each per-substrate scenario module,
//! now parameterized over the unified seam wherever the assertion is
//! substrate-agnostic.

use polystyrene_lab::{
    build_substrate, run_experiment, run_experiment_with_traffic, LiveSubstrate, Substrate,
    SubstrateKind, TrafficLoad, TrafficStats,
};
use polystyrene_membership::NodeId;
use polystyrene_netsim::{NetRoundMetrics, NetSim};
use polystyrene_protocol::observe::{Census, RoundObservation};
use polystyrene_protocol::{
    region_ids, PaperScenario, Scenario, ScenarioEvent, SubstrateConfig, UNITS_PER_DESCRIPTOR,
};
use polystyrene_runtime::observe::{observe, NodeReport};
use polystyrene_runtime::Cluster;
use polystyrene_sim::prelude::*;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use std::time::Duration;

fn small_lab_config(seed: u64) -> SubstrateConfig {
    let p = PaperScenario::small();
    let mut cfg = SubstrateConfig::default();
    cfg.area = p.area();
    cfg.seed = seed;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    cfg
}

fn small_substrate(kind: SubstrateKind, seed: u64) -> Box<dyn Substrate<[f64; 2]>> {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    build_substrate(
        kind,
        Torus2::new(w, h),
        shapes::torus_grid(p.cols, p.rows, 1.0),
        &small_lab_config(seed),
    )
}

#[test]
fn paper_script_population_arithmetic_on_deterministic_substrates() {
    let p = PaperScenario::small();
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 1);
        let trace = run_experiment(substrate.as_mut(), &p.script());
        let alive = trace.populations();
        assert_eq!(alive.len(), p.total_rounds as usize, "{kind}");
        assert_eq!(alive[(p.failure_round - 1) as usize], 200, "{kind}");
        assert_eq!(alive[p.failure_round as usize], 100, "{kind}");
        let ir = p.inject_round.expect("small scenario has phase 3") as usize;
        assert_eq!(alive[ir], 200, "{kind}");
    }
}

#[test]
fn churn_window_drains_population_identically() {
    let scenario: Scenario<[f64; 2]> = Scenario::new(6).at(
        2,
        ScenarioEvent::Churn {
            rate: 0.1,
            rounds: 3,
        },
    );
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 4);
        let trace = run_experiment(substrate.as_mut(), &scenario);
        assert_eq!(
            trace.populations(),
            vec![200, 200, 180, 162, 146, 146],
            "{kind}"
        );
    }
}

#[test]
fn fail_nodes_event_applies_on_the_engine() {
    let mut substrate = small_substrate(SubstrateKind::Engine, 2);
    let scenario: Scenario<[f64; 2]> = Scenario::new(3).at(
        1,
        ScenarioEvent::FailNodes(vec![NodeId::new(0), NodeId::new(1)]),
    );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    assert_eq!(trace.populations(), vec![200, 198, 198]);
}

#[test]
fn region_failure_uses_the_shared_selection_on_netsim() {
    let mut substrate = small_substrate(SubstrateKind::Netsim, 6);
    let left_half = region_ids(&PaperScenario::small().shape(), |p: &[f64; 2]| p[0] < 10.0);
    let scenario = Scenario::new(3).at(1, ScenarioEvent::FailNodes(left_half));
    let trace = run_experiment(substrate.as_mut(), &scenario);
    assert_eq!(trace.populations()[0], 200);
    assert_eq!(trace.populations()[1], 100, "half the 20×10 grid");
}

#[test]
fn region_kill_and_scripted_region_ids_crash_the_same_ids() {
    // The benchmark kills a region through `kill_region`, a script
    // through `FailNodes(region_ids(..))`: on every substrate both must
    // crash the same founders in the same ascending order, dead ones
    // skipped.
    let shape = shapes::torus_grid(4, 4, 1.0);
    let dead_half = shapes::in_right_half(4.0);
    let mut cfg = SubstrateConfig::default();
    cfg.area = 16.0;
    cfg.seed = 8;
    cfg.tick = Duration::from_millis(2);
    let killed: Vec<NodeId> = [2, 3, 7, 10, 11, 14, 15]
        .into_iter()
        .map(NodeId::new)
        .collect();
    for kind in SubstrateKind::ALL {
        let mut by_region = build_substrate(kind, Torus2::new(4.0, 4.0), shape.clone(), &cfg);
        let mut by_ids = build_substrate(kind, Torus2::new(4.0, 4.0), shape.clone(), &cfg);
        for substrate in [&mut by_region, &mut by_ids] {
            assert_eq!(
                substrate.kill_nodes(&[NodeId::new(6)]),
                vec![NodeId::new(6)]
            );
        }
        assert_eq!(by_region.kill_region(&dead_half), killed, "{kind}");
        assert_eq!(
            by_ids.kill_nodes(&region_ids(&shape, &dead_half)),
            killed,
            "{kind}"
        );
    }
}

#[test]
fn reshaping_only_variant_recovers_on_the_engine() {
    let p = PaperScenario::reshaping_only(16, 8, 10, 30);
    assert_eq!(p.total_rounds, 40);
    let (w, h) = p.extents();
    let mut cfg = SubstrateConfig::default();
    cfg.area = p.area();
    cfg.seed = 3;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let mut substrate = build_substrate(
        SubstrateKind::Engine,
        Torus2::new(w, h),
        shapes::torus_grid(p.cols, p.rows, 1.0),
        &cfg,
    );
    let trace = run_experiment(substrate.as_mut(), &p.script());
    assert!(
        trace.reshaping_rounds().is_some(),
        "small torus failed to reshape in 30 rounds"
    );
}

#[test]
fn pre_run_engine_traces_cover_only_their_own_rounds() {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let mut e_cfg = SubstrateConfig::default();
    e_cfg.area = p.area();
    e_cfg.seed = 5;
    e_cfg.tman.view_cap = 30;
    e_cfg.tman.m = 10;
    let mut engine = Engine::new(
        Torus2::new(w, h),
        shapes::torus_grid(p.cols, p.rows, 1.0),
        e_cfg,
    );
    engine.run(3);
    let scenario: Scenario<[f64; 2]> = Scenario::new(2);
    let trace = run_experiment(&mut engine, &scenario);
    assert_eq!(trace.observations.len(), 2);
    assert_eq!(engine.history().len(), 5);
    assert_eq!(trace.observations[0].round, 4);
}

#[test]
fn partition_script_cuts_and_heals_the_netsim_fabric() {
    // Converge, isolate a corner of founders for 3 rounds, observe.
    // Drop counters are netsim-internal, so this drives the kernel
    // directly — through the same unified driver.
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let mut cfg = SubstrateConfig::default();
    cfg.area = p.area();
    cfg.seed = 5;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let mut sim = NetSim::new(Torus2::new(w, h), p.shape(), cfg);
    let minority: Vec<NodeId> = (0..20).map(NodeId::new).collect();
    let scenario: Scenario<[f64; 2]> = Scenario::new(16).at(
        6,
        ScenarioEvent::Partition {
            groups: vec![minority],
            rounds: 3,
        },
    );
    let trace = run_experiment(&mut sim, &scenario);
    // Nobody crashes in a partition.
    assert!(trace.populations().iter().all(|&n| n == 200));
    let metrics: Vec<NetRoundMetrics> = sim.history().to_vec();
    // Cross-partition traffic was dropped during the window…
    let during = metrics[8].dropped_messages - metrics[5].dropped_messages;
    assert!(during > 0, "partition dropped no traffic");
    // …and stops being dropped once healed.
    let after = metrics[15].dropped_messages - metrics[11].dropped_messages;
    assert_eq!(after, 0, "healed fabric must not drop");
}

#[test]
fn injected_netsim_nodes_attract_points() {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let mut cfg = SubstrateConfig::default();
    cfg.area = p.area();
    cfg.seed = 7;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let mut sim = NetSim::new(Torus2::new(w, h), p.shape(), cfg);
    sim.run(10);
    sim.fail_original_region(&shapes::in_right_half(20.0));
    sim.run(10);
    let fresh = sim.inject(&shapes::torus_grid_offset(10, 10, 1.0));
    assert_eq!(fresh.len(), 100);
    sim.run(15);
    let with_points = fresh
        .iter()
        .filter(|&&id| !sim.poly_state(id).expect("alive").guests.is_empty())
        .count();
    assert!(
        with_points > fresh.len() / 2,
        "only {with_points}/100 injected nodes acquired data points"
    );
}

#[test]
fn scripted_kill_and_inject_apply_on_the_live_cluster() {
    let mut cfg = SubstrateConfig::default();
    cfg.area = 16.0;
    cfg.seed = 1;
    cfg.tick = Duration::from_millis(2);
    cfg.poly.replication = 3;
    cfg.round_timeout = Duration::from_secs(5);
    let mut substrate = build_substrate(
        SubstrateKind::Cluster,
        Torus2::new(4.0, 4.0),
        shapes::torus_grid(4, 4, 1.0),
        &cfg,
    );
    let scenario: Scenario<[f64; 2]> = Scenario::new(8)
        .at(
            2,
            ScenarioEvent::FailNodes(vec![NodeId::new(0), NodeId::new(1)]),
        )
        .at(
            5,
            ScenarioEvent::Inject(vec![[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]]),
        );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    let alive = trace.populations();
    assert_eq!(alive.len(), 8);
    assert_eq!(alive[2], 14);
    assert_eq!(*alive.last().unwrap(), 17);
}

#[test]
fn churn_window_shrinks_the_live_cluster() {
    let mut cfg = SubstrateConfig::default();
    cfg.area = 16.0;
    cfg.seed = 2;
    cfg.tick = Duration::from_millis(2);
    cfg.poly.replication = 3;
    cfg.round_timeout = Duration::from_secs(5);
    let mut substrate = build_substrate(
        SubstrateKind::Cluster,
        Torus2::new(4.0, 4.0),
        shapes::torus_grid(4, 4, 1.0),
        &cfg,
    );
    let scenario: Scenario<[f64; 2]> = Scenario::new(6).at(
        1,
        ScenarioEvent::Churn {
            rate: 0.25,
            rounds: 2,
        },
    );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    let alive = trace.populations();
    assert_eq!(alive[0], 16);
    assert_eq!(alive[1], 12); // 16 - 25%
    assert_eq!(alive[2], 9); // 12 - 25%
    assert_eq!(*alive.last().unwrap(), 9);
}

#[test]
fn traffic_load_serves_queries_on_the_deterministic_substrates() {
    // Quiet convergence first, then a region kill mid-script: queries
    // must flow every round, and every offer must be accounted as
    // delivered or dropped by the end-of-round drain (the engine routes
    // atomically; netsim expires stragglers lazily, so its last rounds
    // may still carry a small in-flight tail — hence the per-run, not
    // per-round, accounting check).
    let p = PaperScenario::small();
    let dead_half = region_ids(&p.shape(), shapes::in_right_half(20.0));
    let scenario = Scenario::new(20).at(10, ScenarioEvent::FailNodes(dead_half));
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 9);
        let mut load = TrafficLoad::new(p.shape(), 16, 0.9, 8, 9);
        let trace = run_experiment_with_traffic(substrate.as_mut(), &scenario, Some(&mut load));
        let offered: u64 = trace.observations.iter().map(|o| o.traffic.offered).sum();
        let resolved: u64 = trace
            .observations
            .iter()
            .map(|o| o.traffic.delivered + o.traffic.dropped)
            .sum();
        assert_eq!(offered, 16 * 20, "{kind}: every round offers its batch");
        assert!(resolved <= offered, "{kind}");
        assert!(
            resolved >= offered - 16,
            "{kind}: more than one round's worth of queries unaccounted \
             ({resolved}/{offered})"
        );
        // A converged fabric serves essentially everything it is offered.
        let settled = &trace.observations[5..10];
        for o in settled {
            assert!(
                o.traffic.availability() >= 0.99,
                "{kind}: converged availability {} below the gate",
                o.traffic.availability()
            );
            assert!(o.traffic.mean_hops <= 8.0, "{kind}");
        }
    }
}

#[test]
fn traffic_load_does_not_perturb_the_scenario_plane() {
    // The tentpole invariant at the lab layer: switching the workload on
    // must leave the protocol's evolution untouched — same populations,
    // same homogeneity trajectory, same cost — on both deterministic
    // substrates (the netsim kernel additionally proves byte-identical
    // history in its own tests).
    let dead_half = region_ids(&PaperScenario::small().shape(), shapes::in_right_half(20.0));
    let scenario = Scenario::new(12).at(5, ScenarioEvent::FailNodes(dead_half));
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut quiet_sub = small_substrate(kind, 13);
        let quiet = run_experiment(quiet_sub.as_mut(), &scenario);
        let mut loaded_sub = small_substrate(kind, 13);
        let mut load = TrafficLoad::new(PaperScenario::small().shape(), 24, 0.5, 8, 13);
        let loaded = run_experiment_with_traffic(loaded_sub.as_mut(), &scenario, Some(&mut load));
        assert_eq!(quiet.populations(), loaded.populations(), "{kind}");
        for (q, l) in quiet.observations.iter().zip(&loaded.observations) {
            assert_eq!(q.homogeneity, l.homogeneity, "{kind}");
            assert_eq!(q.cost_units, l.cost_units, "{kind}");
        }
    }
}

#[test]
fn traffic_load_flows_on_the_live_cluster() {
    let mut cfg = SubstrateConfig::default();
    cfg.area = 16.0;
    cfg.seed = 3;
    cfg.tick = Duration::from_millis(2);
    cfg.poly.replication = 3;
    cfg.round_timeout = Duration::from_secs(5);
    let shape = shapes::torus_grid(4, 4, 1.0);
    // Held concretely: the settle below awaits ticks on the cluster.
    let cluster = Cluster::<Torus2>::spawn(Torus2::new(4.0, 4.0), shape.clone(), cfg);
    let mut substrate = LiveSubstrate::new(cluster, cfg.seed, cfg.round_timeout);
    let scenario: Scenario<[f64; 2]> = Scenario::new(10);
    let mut load = TrafficLoad::new(shape, 8, 0.8, 6, 3);
    let trace = run_experiment_with_traffic(&mut substrate, &scenario, Some(&mut load));
    let mut traffic = TrafficStats::default();
    for o in &trace.observations {
        traffic.merge(&o.traffic);
    }
    // A scenario round only waits for tick counts the free-running
    // nodes may already be past, so how many of the ten offers the per-round
    // drains caught is wall-clock luck. What must hold is where the
    // queries end up: past the query timeout (8 ticks) every one of them
    // is registered at its gateway and resolved one way or the other.
    let ticks = substrate.cluster().observe().ticks;
    assert!(substrate
        .cluster()
        .await_ticks(ticks + 10, cfg.round_timeout));
    traffic.merge(&substrate.drain_traffic());
    assert_eq!(traffic.offered, 8 * 10, "{traffic:?}");
    assert_eq!(traffic.shed, 0, "{traffic:?}");
    assert_eq!(traffic.delivered + traffic.dropped, traffic.offered);
    assert!(
        traffic.delivered >= traffic.offered * 4 / 5,
        "live availability collapsed: {traffic:?}"
    );
}

#[test]
fn batched_offers_match_the_unbatched_outcome_set() {
    // The batching optimization is a pure transport-shape change: for
    // every round the set of (hops, latency) outcomes — and the
    // offered/delivered/dropped totals — must be exactly what the
    // per-wire path produces. Pinned on both deterministic substrates
    // by running twin instances from the same seed, one offering
    // through the batched hot path and one through the retained
    // unbatched reference path.
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let shape = shapes::torus_grid(p.cols, p.rows, 1.0);
    let lab = small_lab_config(17);

    // Engine and NetSim share the inherent traffic surface but no
    // trait carries `offer_traffic_unbatched` (it exists only as the
    // pinned reference path), so the twin-drive loop is a macro.
    macro_rules! drive_twins {
        ($batched:expr, $unbatched:expr, $label:expr) => {{
            let mut load_a = TrafficLoad::new(p.shape(), 32, 0.9, 8, 17);
            let mut load_b = TrafficLoad::new(p.shape(), 32, 0.9, 8, 17);
            let (mut samples_a, mut samples_b) = (Vec::new(), Vec::new());
            for round in 0..8 {
                let ttl = load_a.ttl();
                $batched.offer_traffic(load_a.next_round(), ttl);
                $unbatched.offer_traffic_unbatched(load_b.next_round(), ttl);
                $batched.step();
                $unbatched.step();
                samples_a.clear();
                samples_b.clear();
                let totals_a = $batched.drain_traffic(&mut samples_a);
                let totals_b = $unbatched.drain_traffic(&mut samples_b);
                assert_eq!(
                    totals_a, totals_b,
                    "{} round {round}: (offered, delivered, dropped) diverged",
                    $label
                );
                samples_a.sort_unstable();
                samples_b.sort_unstable();
                assert_eq!(
                    samples_a, samples_b,
                    "{} round {round}: (hops, latency) outcome sets diverged",
                    $label
                );
                assert!(
                    totals_a.1 > 0,
                    "{} round {round}: nothing delivered",
                    $label
                );
            }
        }};
    }

    // Cycle engine pair.
    let mk_engine = || Engine::new(Torus2::new(w, h), shape.clone(), lab);
    let mut batched = mk_engine();
    let mut unbatched = mk_engine();
    batched.run(6);
    unbatched.run(6);
    drive_twins!(batched, unbatched, "engine");

    // Netsim kernel pair (default ideal links, so the per-envelope
    // loss/latency draw cannot fork the two entropy streams).
    let mk_kernel = || NetSim::new(Torus2::new(w, h), shape.clone(), lab);
    let mut batched = mk_kernel();
    let mut unbatched = mk_kernel();
    batched.run(6);
    unbatched.run(6);
    drive_twins!(batched, unbatched, "netsim");
}

#[test]
fn lossless_links_charge_the_engine_and_kernel_identically() {
    // The paper's cost model (Sec. IV-A) is charged at each substrate's
    // own send boundary, so on ideal links — no loss, no latency, every
    // exchange completing inside its round — the T-Man bucket must be
    // *identical*, not merely similar: in steady state every alive node
    // sends one m-descriptor request and answers one m-descriptor reply,
    // and RPS traffic is free by the paper's convention. That structural
    // determinism is what makes Fig. 7b's headline (T-Man dominating the
    // overhead) reproducible on every substrate. The migration bucket is
    // the one place real asynchrony leaks in: the kernel's interleaved
    // activations busy-bounce a few migration exchanges per round that
    // the engine's atomic exchanges never can, so the *total* is only
    // near-equal — bounded here at 1%.
    let scenario: Scenario<[f64; 2]> = Scenario::new(8);
    let mut totals: Vec<Vec<f64>> = Vec::new();
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 11);
        let trace = run_experiment(substrate.as_mut(), &scenario);
        totals.push(
            trace
                .observations
                .iter()
                .map(|o| o.cost_units)
                .collect::<Vec<f64>>(),
        );
    }
    let (engine, netsim) = (&totals[0], &totals[1]);
    assert!(
        engine[2] > 0.0,
        "engine must charge nonzero units in steady state"
    );
    for (r, (e, n)) in engine.iter().zip(netsim).enumerate() {
        assert!(
            (e - n).abs() <= 0.01 * e,
            "round {r}: engine {e} vs netsim {n} diverged beyond the \
             busy-bounce margin\n  engine {engine:?}\n  netsim {netsim:?}"
        );
    }

    // The exact leg, off the raw metrics (the unified observation keeps
    // one cost figure; the per-bucket split lives on each substrate's
    // native metrics): identical T-Man units per node, every round.
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let shape = shapes::torus_grid(p.cols, p.rows, 1.0);
    let lab = small_lab_config(11);
    let mut engine = Engine::new(Torus2::new(w, h), shape.clone(), lab);
    let mut kernel = NetSim::new(Torus2::new(w, h), shape, lab);
    // Round 0 is exact only up to the short bootstrap views. A message
    // carries `min(m - 1, view) + 1` descriptors, and bootstrap draws its
    // `TMAN_BOOTSTRAP` contacts with replacement, so a node can start with
    // fewer than `m - 1` of them: call those nodes short, `deficit` the
    // entries they lack in total. Views only grow in a failure-free round,
    // so every message a short node sends lacks at most its own deficit,
    // and merging one message from a full node (`m` distinct ids, at most
    // one of them the receiver's) makes it full for good. A short node
    // therefore sends short at most its own request, one reply to a full
    // requester, and one reply to each other short node's request:
    // `short + 1` messages. Which of them it does send is scheduling, the
    // one thing the two substrates do not share; both build the same
    // bootstrap views from the same driver stream. At this seed 3 of 200
    // views lack one entry each: 0.18 units per node against the round's
    // 60, and the kernel reads 59.97.
    let (m, unit) = (lab.tman.m, UNITS_PER_DESCRIPTOR);
    let lacking = |len: usize| (m - 1).saturating_sub(len);
    let ids = engine.alive_ids();
    let (mut short, mut deficit) = (0, 0);
    for &id in ids {
        let boot = engine.view_entries_of(id).expect("founder").len();
        assert_eq!(
            kernel.view_entries_of(id).expect("founder").len(),
            boot,
            "{id:?}: both substrates bootstrap from the same stream"
        );
        assert!(boot > 0, "{id:?}: an empty view sends no request at all");
        short += usize::from(lacking(boot) > 0);
        deficit += lacking(boot);
    }
    let full_round = (2 * m * unit) as f64;
    let bootstrap_slack = (deficit * (short + 1) * unit) as f64 / ids.len() as f64;
    assert!(
        bootstrap_slack < 0.01 * full_round,
        "{short} short views lacking {deficit} entries leave round 0 unchecked"
    );
    for round in 0..6 {
        let em = engine.step();
        let nm = kernel.step();
        let e_tman = em.cost_units * em.tman_cost_share;
        let n_tman = nm.cost_units * nm.tman_cost_share;
        let slack = if round == 0 { bootstrap_slack } else { 0.0 };
        assert!(
            (e_tman - n_tman).abs() <= slack + 1e-9,
            "round {round}: T-Man units per node must match on ideal \
             links to within {slack}: engine {e_tman} vs netsim {n_tman}"
        );
        assert!(e_tman > 0.0, "round {round}: T-Man traffic cannot be free");
    }
}

/// The census is fed two ways: from a deterministic driver's node pool,
/// and from the reports a live cluster's nodes publish. Built from the
/// same nodes after a half-torus kill, the two must measure the same
/// bits.
#[test]
fn census_reads_the_pool_and_the_board_alike() {
    let mut cfg = SubstrateConfig::default();
    cfg.area = 512.0;
    cfg.seed = 5;
    cfg.tman.view_cap = 20;
    cfg.tman.m = 8;
    let space = Torus2::new(32.0, 16.0);
    let mut engine = Engine::new(space, shapes::torus_grid(32, 16, 1.0), cfg);
    engine.run(8);
    engine.fail_original_region(&shapes::in_right_half(32.0));
    engine.run(2);
    let reports: Vec<NodeReport<[f64; 2]>> = engine
        .alive_ids()
        .iter()
        .map(|&id| {
            let poly = engine.poly_state(id).expect("alive");
            assert_eq!(
                engine.parked_points_of(id),
                Some(0),
                "cycle exchanges are atomic"
            );
            NodeReport {
                guest_ids: poly.guests.iter().map(|p| p.id).collect(),
                ghost_ids: poly.ghosts.items().iter().map(|p| p.id).collect(),
                stored_points: poly.stored_points(),
                ..NodeReport::at(poly.pos)
            }
        })
        .collect();
    let from_pool = RoundObservation {
        round: 0,
        ticks: 0,
        cost_units: 0.0,
        ..engine.compute_metrics().observation
    };
    let from_board = observe(
        &mut Census::new(),
        engine.space(),
        engine.original_points(),
        cfg.area,
        &reports,
    );
    assert!(from_pool.surviving_points < 1.0 && from_pool.homogeneity > 0.0);
    assert_eq!(from_pool, from_board);
    for (pool, board) in [
        (from_pool.homogeneity, from_board.homogeneity),
        (from_pool.surviving_points, from_board.surviving_points),
        (from_pool.points_per_node, from_board.points_per_node),
    ] {
        assert_eq!(pool.to_bits(), board.to_bits());
    }
}
