//! Cross-substrate equivalence: one [`Scenario`] value — the paper's
//! three phases plus a continuous churn window — executes on **all
//! four** execution substrates through the one `Substrate` seam and the
//! one `run_experiment` driver, with identical population arithmetic,
//! and every substrate recovers the shape.
//!
//! This used to be three hand-wired test files (engine+cluster here,
//! netsim in `crates/netsim/tests/equivalence.rs`, TCP in
//! `crates/transport/tests/equivalence.rs`), each with its own driving
//! loop. The unified experiment plane makes it one parameterized script
//! through one code path — which *is* the paper's core claim
//! (conf_icdcs_BougetKKT14): the self-organizing shape survives the
//! same failure scenarios regardless of how messages move.

use polystyrene_repro::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const COLS: usize = 8;
const ROWS: usize = 4;

/// Converge 20 rounds → kill the right half-torus → 2 rounds of 5% churn
/// → re-inject 16 fresh nodes → observe to round 55.
fn shared_scenario() -> Scenario<[f64; 2]> {
    Scenario::new(55)
        .at(
            20,
            ScenarioEvent::FailOriginalRegion(Arc::new(|p: &[f64; 2]| p[0] >= COLS as f64 / 2.0)),
        )
        .at(
            25,
            ScenarioEvent::Churn {
                rate: 0.05,
                rounds: 2,
            },
        )
        .at(
            35,
            ScenarioEvent::Inject(shapes::torus_grid_offset(COLS / 2, ROWS, 1.0)),
        )
}

/// Population after the script: 32 founders − 16 (half torus) − 1 − 1
/// (5% churn of 16 then 15, rounded) + 16 injected.
const EXPECTED_FINAL_ALIVE: usize = 30;

fn lab_config() -> LabConfig {
    let mut cfg = LabConfig::default();
    cfg.area = (COLS * ROWS) as f64;
    cfg.seed = 11;
    cfg.tman.view_cap = 20;
    cfg.tman.m = 8;
    cfg.poly.replication = 4;
    // 8 ms leaves debug-build message handling headroom per round on a
    // loaded CI box for the wall-clock substrates.
    cfg.tick = Duration::from_millis(8);
    cfg
}

fn run_on(kind: SubstrateKind) -> ExperimentTrace {
    let mut substrate = build_substrate(
        kind,
        Torus2::new(COLS as f64, ROWS as f64),
        shapes::torus_grid(COLS, ROWS, 1.0),
        &lab_config(),
    );
    run_experiment(substrate.as_mut(), &shared_scenario())
}

fn assert_population_arithmetic(kind: SubstrateKind, alive: &[usize]) {
    assert_eq!(alive.len(), 55, "{kind}");
    assert_eq!(alive[19], 32, "{kind}: pre-failure population");
    assert_eq!(alive[20], 16, "{kind}: half torus down");
    assert_eq!(alive[26], 14, "{kind}: two churn rounds");
    assert_eq!(
        *alive.last().unwrap(),
        EXPECTED_FINAL_ALIVE,
        "{kind}: after re-injection"
    );
}

#[test]
fn deterministic_substrates_agree_exactly_and_recover() {
    // Engine and netsim share the script, the driver and (here) even
    // the recovery thresholds: the event kernel under an ideal link
    // collapses to round-synchronized delivery, so its population
    // arithmetic must match the engine's round by round. The kernel is
    // built concretely (same configuration the factory applies) so its
    // internal drop/in-flight counters stay checkable.
    let engine = run_on(SubstrateKind::Engine);
    let cfg = lab_config();
    let mut n = NetSimConfig::default();
    n.tman = cfg.tman;
    n.poly = cfg.poly;
    n.area = cfg.area;
    n.seed = cfg.seed;
    n.link = cfg.link;
    let mut sim = NetSim::new(
        Torus2::new(COLS as f64, ROWS as f64),
        shapes::torus_grid(COLS, ROWS, 1.0),
        n,
    );
    let netsim = run_experiment(&mut sim, &shared_scenario());
    // An ideal link drops nothing and leaves nothing in flight between
    // rounds — delivery is round-synchronized.
    assert!(sim.history().iter().all(|m| m.dropped_messages == 0));
    assert!(sim.history().iter().all(|m| m.in_flight == 0));
    assert_population_arithmetic(SubstrateKind::Engine, &engine.populations());
    assert_eq!(
        engine.populations(),
        netsim.populations(),
        "the two deterministic substrates disagree on who is alive after the same script"
    );
    for (kind, trace) in [
        (SubstrateKind::Engine, &engine),
        (SubstrateKind::Netsim, &netsim),
    ] {
        let last = trace.final_observation().unwrap();
        assert!(
            last.homogeneity < last.reference_homogeneity,
            "{kind} failed to reshape: {} vs reference {}",
            last.homogeneity,
            last.reference_homogeneity
        );
        assert!(
            last.surviving_points > 0.8,
            "{kind} lost too many points: {}",
            last.surviving_points
        );
    }
    // An ideal netsim link parks nothing between rounds.
    assert!(netsim.observations.iter().all(|o| o.parked_points == 0));
}

/// Shared assertions for the wall-clock substrates: identical
/// population arithmetic, looser quality thresholds (snapshots catch
/// points mid-migration), same qualitative claim — homogeneity returns
/// below threshold and the points survived the blast.
fn assert_live_recovery(kind: SubstrateKind, trace: &ExperimentTrace) {
    assert_population_arithmetic(kind, &trace.populations());
    let best_tail_homogeneity = trace.observations[40..]
        .iter()
        .map(|o| o.homogeneity)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_tail_homogeneity < 1.0,
        "{kind} failed to reshape: best tail homogeneity {best_tail_homogeneity}"
    );
    let last = trace.final_observation().unwrap();
    assert!(
        last.surviving_points > 0.6,
        "{kind} lost too many points: {}",
        last.surviving_points
    );
}

#[test]
fn cluster_runs_the_same_scenario_and_recovers() {
    assert_live_recovery(SubstrateKind::Cluster, &run_on(SubstrateKind::Cluster));
}

#[test]
fn tcp_runs_the_same_scenario_and_recovers() {
    // Every protocol message crosses a real loopback socket as framed
    // codec bytes — and the numbers must still match the engine's. The
    // deployment is built concretely (same configuration the factory
    // applies) so the socket frame counter stays checkable: a fabric
    // that short-circuited in-process would pass the population
    // arithmetic while moving zero bytes.
    let cfg = lab_config();
    let mut tcp_config = TcpConfig::default();
    tcp_config.runtime = cfg.runtime();
    let mut substrate = LiveSubstrate::new(
        TcpCluster::spawn(
            Torus2::new(COLS as f64, ROWS as f64),
            shapes::torus_grid(COLS, ROWS, 1.0),
            tcp_config,
        ),
        cfg.seed,
        cfg.round_timeout,
    );
    let trace = run_experiment(&mut substrate, &shared_scenario());
    assert_live_recovery(SubstrateKind::Tcp, &trace);
    assert!(
        substrate.cluster().sent_frames() > 1000,
        "a 55-round scenario must push real traffic through the sockets (saw {})",
        substrate.cluster().sent_frames()
    );
}
