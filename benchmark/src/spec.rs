//! What the benchmark runs and what it reports: the four workloads and
//! the two metric tables. `BENCHMARK.json` is generated from these
//! tables (`--calibrate`), and the self-tests hold every run to them.

use polystyrene_lab::{SubstrateKind, TrafficDist};
use polystyrene_protocol::LinkProfile;

/// Seconds of measured window per run: `run_seconds` of `BENCHMARK.json`
/// and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// Convergence rounds after the build — the paper's phase 1, and the
/// second half of `setup_s`.
pub const WARMUP_ROUNDS: u32 = 20;

/// Quiet rounds run after the measured window so queries still in
/// flight complete or expire before the traffic identity is checked.
pub const SETTLE_ROUNDS: u32 = 10;

/// One workload: a substrate at a size, a traffic mix and a failure
/// script. An *episode* is one fresh substrate taken through build,
/// warm-up and the script (`steady` rounds, kill the half-torus
/// `x ≥ cols/2`, `reshape` rounds, re-inject the dead half's founding
/// positions, `absorb` rounds); a run repeats episodes until the
/// measured windows add up to `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: SubstrateKind,
    pub cols: usize,
    pub rows: usize,
    /// Protocol tick of the live substrates (the deterministic ones have
    /// no wall clock).
    pub tick_ms: u64,
    /// Link model; only the netsim kernel honours latency and jitter.
    pub link: LinkProfile,
    /// Queries offered at every round boundary (open loop).
    pub rate: usize,
    pub dist: TrafficDist,
    /// Size of the key universe the queries draw from.
    pub keys: usize,
    pub steady: u32,
    pub reshape: u32,
    pub absorb: u32,
    /// Floor on the final `surviving_points` of every episode.
    pub min_survival: f64,
    /// Engine only: run plain T-Man (the twin behind `sim.poly_share`).
    pub tman_only: bool,
}

impl Workload {
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    pub fn script_rounds(&self) -> u32 {
        self.steady + self.reshape + self.absorb
    }

    pub fn is_live(&self) -> bool {
        matches!(self.kind, SubstrateKind::Cluster | SubstrateKind::Tcp)
    }

    /// Hop budget per query. A converged overlay routes in three to
    /// four hops at every size here (views hold long links), so sixteen
    /// never cuts a good route short — and it bounds what a query that
    /// wanders into the dead half can cost, which is what keeps the
    /// post-kill rounds' work from swinging with the seed.
    pub fn ttl(&self) -> u32 {
        16
    }

    /// The same script at a size that finishes in a second or two —
    /// `--smoke` and the self-tests.
    pub fn smoke(mut self) -> Self {
        if self.is_live() {
            (self.cols, self.rows, self.tick_ms) = (4, 4, 10);
        } else {
            (self.cols, self.rows) = (16, 8);
        }
        self.rate = self.rate.min(32);
        self.keys = self.keys.min(64);
        // Injected node threads need a few ticks to reach the board.
        (self.steady, self.reshape, self.absorb) = (4, 24, 16);
        self
    }

    /// The comparison run a traced run adds, if the workload has one:
    /// the engine without the Polystyrene layer, the kernel without
    /// traffic, the TCP deployment's grid on the in-process cluster.
    pub fn twin(&self) -> Option<Workload> {
        let mut twin = *self;
        match self.kind {
            SubstrateKind::Engine => twin.tman_only = true,
            SubstrateKind::Netsim => twin.rate = 0,
            SubstrateKind::Tcp => twin.kind = SubstrateKind::Cluster,
            SubstrateKind::Cluster => return None,
        }
        Some(twin)
    }
}

const IDEAL: LinkProfile = LinkProfile {
    latency: 0,
    jitter: 0,
    loss: 0.0,
};

/// The four workloads, in the order every listing uses.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine-catastrophe",
        why: "8192-node cycle engine, light traffic: protocol phases, slab dispatch and the measurement pass do all the work; netsim, runtime, transport and codec do none",
        kind: SubstrateKind::Engine,
        cols: 128,
        rows: 64,
        tick_ms: 0,
        link: IDEAL,
        rate: 256,
        dist: TrafficDist::Uniform,
        keys: 1024,
        steady: 4,
        reshape: 16,
        absorb: 8,
        min_survival: 0.95,
        tman_only: false,
    },
    Workload {
        name: "netsim-traffic",
        why: "3200-node event kernel under zipf load: calendar queue, network model, QueryBatch forwarding and the traffic fabric carry about half the time; the engine is idle",
        kind: SubstrateKind::Netsim,
        cols: 80,
        rows: 40,
        tick_ms: 0,
        link: LinkProfile {
            latency: 2,
            jitter: 1,
            loss: 0.0,
        },
        rate: 2000,
        dist: TrafficDist::Zipf(0.99),
        keys: 1024,
        steady: 10,
        reshape: 36,
        absorb: 10,
        min_survival: 0.95,
        tman_only: false,
    },
    Workload {
        name: "cluster-traffic",
        why: "64 node threads at a 10 ms tick: mailboxes, tick loop, gateway admission and the observation board, with no codec and no sockets; paced, so CPU per node-round is what moves",
        kind: SubstrateKind::Cluster,
        cols: 8,
        rows: 8,
        tick_ms: 10,
        link: IDEAL,
        rate: 16,
        dist: TrafficDist::Uniform,
        keys: 1024,
        steady: 100,
        reshape: 100,
        absorb: 100,
        min_survival: 0.80,
        tman_only: false,
    },
    Workload {
        name: "tcp-traffic",
        why: "32 nodes over loopback TCP at a 40 ms tick: the cluster's node loop plus codec, framing, sockets and reader threads; its distance from cluster-traffic is the transport",
        kind: SubstrateKind::Tcp,
        cols: 8,
        rows: 4,
        tick_ms: 40,
        link: IDEAL,
        rate: 8,
        dist: TrafficDist::Uniform,
        keys: 1024,
        steady: 40,
        reshape: 40,
        absorb: 40,
        min_survival: 0.80,
        tman_only: false,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the system sees; every workload emits every one
/// (untraced run). Bounds live in `BENCHMARK.json`, not here.
pub const END_TO_END: [MetricDef; 6] = [
    down("setup_s", "s"),
    up("node_rounds_per_s", "1/s"),
    up("queries_per_s", "1/s"),
    up("query_availability", "ratio"),
    down("peak_rss_mb", "MB"),
    up("surviving_points", "ratio"),
];

/// The per-layer ledger (traced run). A layer that is not on a
/// workload's path reads 0 there: it did none of the work.
pub const PER_LAYER: [MetricDef; 93] = [
    // lab: the harness's own calls through the `Substrate` seam.
    down("lab.build_ms", "ms"),
    down("lab.warmup_ms", "ms"),
    down("lab.step_ms_p50", "ms"),
    down("lab.step_ms_p95", "ms"),
    down("lab.step_ms.steady_p50", "ms"),
    down("lab.step_ms.reshaping_p50", "ms"),
    down("lab.step_ms.absorbing_p50", "ms"),
    down("lab.offer_ms_p50", "ms"),
    down("lab.drain_ms_p50", "ms"),
    down("lab.observe_ms_p50", "ms"),
    down("lab.kill_ms", "ms"),
    down("lab.inject_ms", "ms"),
    down("lab.trafficgen_us_p50", "us"),
    down("lab.generator_lag_ms_p95", "ms"),
    down("lab.harness_self_ms_p50", "ms"),
    down("lab.allocs_per_round", "count"),
    down("lab.alloc_bytes_per_round", "B"),
    down("lab.trace_overhead_pct", "%"),
    // End-to-end candidates whose spread is wider than any bound.
    down("lab.cpu_us_per_node_round", "us"),
    down("lab.round_ms_p50", "ms"),
    down("lab.round_ms_p95", "ms"),
    down("lab.reshape_ms", "ms"),
    down("lab.failed_queries_share", "ratio"),
    down("lab.destroyed_points_share", "ratio"),
    // sim: the cycle engine (engine-catastrophe only).
    down("sim.measure_ms_p50", "ms"),
    down("sim.measure_share", "ratio"),
    down("sim.tman_only_step_ms_p50", "ms"),
    down("sim.poly_share", "ratio"),
    down("sim.us_per_node_round", "us"),
    down("sim.cost_units_per_node", "count"),
    down("sim.tman_cost_share", "ratio"),
    down("sim.reshaping_rounds", "count"),
    // netsim: the event kernel (netsim-traffic only).
    down("netsim.measure_ms_p50", "ms"),
    down("netsim.measure_share", "ratio"),
    down("netsim.sent_msgs_per_round", "count"),
    down("netsim.dropped_msgs_per_round", "count"),
    down("netsim.in_flight_p50", "count"),
    down("netsim.parked_points_max", "count"),
    down("netsim.ns_per_message", "ns"),
    down("netsim.traffic_share", "ratio"),
    down("netsim.queue.push_pop_ns", "ns"),
    down("netsim.reshaping_rounds", "count"),
    down("netsim.query_latency_ticks_p50", "ticks"),
    down("netsim.query_latency_ticks_p99", "ticks"),
    down("netsim.query_mean_hops", "count"),
    // Layer probes: public functions timed on the run's own data.
    down("protocol.codec.encode_ns_per_event", "ns"),
    down("protocol.codec.decode_ns_per_event", "ns"),
    down("protocol.codec.bytes_per_event", "B"),
    down("protocol.bufpool.take_put_ns", "ns"),
    down("topology.rank.k_closest_ns", "ns"),
    down("topology.tman_exchange_ns", "ns"),
    down("topology.gridindex.build_ms", "ms"),
    down("topology.gridindex.nearest_ns", "ns"),
    down("core.split_ns", "ns"),
    down("core.plan_backups_ns", "ns"),
    down("core.recover_ns", "ns"),
    down("space.medoid_ns", "ns"),
    down("space.diameter_ns", "ns"),
    // runtime: the threaded cluster (cluster-traffic only).
    down("runtime.spawn_ms", "ms"),
    down("runtime.shutdown_ms", "ms"),
    down("runtime.await_ticks_ms_p50", "ms"),
    down("runtime.await_ticks_ms_p95", "ms"),
    down("runtime.tick_overrun_ms_p95", "ms"),
    down("runtime.node_tick_overrun_ms", "ms"),
    down("runtime.observe_ms_p50", "ms"),
    down("runtime.offer_ms_p50", "ms"),
    down("runtime.threads_peak", "count"),
    down("runtime.round_timeouts", "count"),
    down("runtime.shed_queries", "count"),
    down("runtime.reshaping_ticks", "ticks"),
    down("runtime.query_latency_ticks_p99", "ticks"),
    // transport: the TCP deployment (tcp-traffic only).
    down("transport.spawn_ms", "ms"),
    down("transport.shutdown_ms", "ms"),
    down("transport.await_ticks_ms_p50", "ms"),
    down("transport.await_ticks_ms_p95", "ms"),
    down("transport.node_tick_overrun_ms", "ms"),
    down("transport.observe_ms_p50", "ms"),
    down("transport.cpu_us_per_node_round", "us"),
    down("transport.cpu_overhead_us_per_node_round", "us"),
    down("transport.sent_frames_per_node_round", "count"),
    down("transport.cpu_us_per_frame", "us"),
    down("transport.framing.roundtrip_ns_per_frame", "ns"),
    down("transport.threads_peak", "count"),
    down("transport.fds_peak", "count"),
    down("transport.round_timeouts", "count"),
    down("transport.reshaping_ticks", "ticks"),
    down("transport.query_latency_ticks_p99", "ticks"),
    // Counts behind the ratios, so every ratio can be read with its base.
    up("lab.episodes", "count"),
    up("lab.rounds", "count"),
    up("lab.queries_presented", "count"),
    up("lab.queries_delivered", "count"),
    up("lab.points_founded", "count"),
    up("lab.node_rounds", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_driver_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name));
            assert!(seen.insert(w.name), "workload name reused: {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn scripts_leave_room_for_every_phase() {
        for w in WORKLOADS.into_iter().chain(WORKLOADS.map(Workload::smoke)) {
            assert!(w.steady > 0 && w.reshape > 0 && w.absorb > 0, "{}", w.name);
            assert!(
                w.cols % 2 == 0,
                "{}: the kill splits the torus in half",
                w.name
            );
            assert_eq!(w.is_live(), w.tick_ms > 0, "{}", w.name);
        }
    }

    #[test]
    fn twins_change_exactly_one_thing() {
        let [engine, netsim, cluster, tcp] = WORKLOADS;
        assert!(engine.twin().unwrap().tman_only);
        assert_eq!(netsim.twin().unwrap().rate, 0);
        assert_eq!(tcp.twin().unwrap().kind, SubstrateKind::Cluster);
        assert_eq!(tcp.twin().unwrap().nodes(), tcp.nodes());
        assert!(cluster.twin().is_none());
    }
}
