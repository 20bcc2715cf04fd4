//! The one experiment driver: any [`Scenario`] on any [`Substrate`].
//!
//! [`run_experiment`] owns the window bookkeeping a script implies —
//! churn windows fire every round until expiry, partition masks are
//! installed and healed when their window lapses — and collects one
//! [`RoundObservation`] per round into an [`ExperimentTrace`]. Repeated
//! seeded runs stream into an [`ExperimentSummary`] (per-round
//! min/mean/max without retaining per-run series), and
//! [`summary_json`] is the single hand-rolled JSON emitter every
//! experiment binary shares.

use crate::substrate::Substrate;
use crate::traffic::TrafficLoad;
use polystyrene_protocol::observe::{reshaping_time, RoundObservation};
use polystyrene_protocol::scenario::{Scenario, ScenarioEvent};
use polystyrene_space::stats::{ci95, ConfidenceInterval};
use std::fmt::Write as _;

/// Drives `substrate` through `scenario`: for each round, applies the
/// events scheduled for it (churn events open a window that then fires
/// every round until it expires; partition events install a mask that is
/// healed when their window expires), advances one round, and records
/// the observation — the single scenario-execution code path of the
/// whole repository, so what a script means cannot drift between
/// substrates.
///
/// The substrate may have run before; the returned trace covers only
/// this scenario's rounds, and its analytics are positional (round `i`
/// of the scenario is observation `i`), so they are independent of the
/// substrate's own round labels.
pub fn run_experiment<P: Clone>(
    substrate: &mut (impl Substrate<P> + ?Sized),
    scenario: &Scenario<P>,
) -> ExperimentTrace {
    run_experiment_with_traffic(substrate, scenario, None)
}

/// [`run_experiment`] with an application workload riding along: each
/// round, the load's key batch is offered to the substrate *before* the
/// round advances (queries resolve while the shape reshapes), and the
/// round's drained [`polystyrene_protocol::observe::TrafficStats`]
/// replace the observation's `traffic` field. With `traffic = None` this is exactly [`run_experiment`] —
/// the drain seam is never touched, so scenario-only runs cannot
/// perturb or be perturbed by the traffic plane.
pub fn run_experiment_with_traffic<P: Clone>(
    substrate: &mut (impl Substrate<P> + ?Sized),
    scenario: &Scenario<P>,
    mut traffic: Option<&mut TrafficLoad<P>>,
) -> ExperimentTrace {
    let failure_round = scenario.first_failure_round();
    let mut observations = Vec::with_capacity(scenario.total_rounds() as usize);
    let mut kill_tick = None;
    // Active churn windows: (first round NOT churned, rate).
    let mut churns: Vec<(u32, f64)> = Vec::new();
    // First round past the active partition window. A later Partition
    // event replaces the mask AND the window (windows do not stack; see
    // `ScenarioEvent::Partition`) — keeping the substrate's single mask
    // and the heal schedule in lockstep.
    let mut partition_heal: Option<u32> = None;
    for round in 0..scenario.total_rounds() {
        if partition_heal.is_some_and(|h| round >= h) {
            substrate.heal();
            partition_heal = None;
        }
        if let Some(events) = scenario.events_at(round) {
            for event in events {
                match event {
                    ScenarioEvent::FailOriginalRegion(pred) => {
                        substrate.kill_region(pred.as_ref());
                    }
                    ScenarioEvent::FailRandomFraction(fraction) => {
                        substrate.kill_fraction(*fraction);
                    }
                    ScenarioEvent::FailNodes(ids) => {
                        substrate.kill_nodes(ids);
                    }
                    ScenarioEvent::Inject(positions) => {
                        substrate.inject(positions);
                    }
                    ScenarioEvent::Churn { rate, rounds } => {
                        churns.push((round.saturating_add(*rounds), *rate));
                    }
                    ScenarioEvent::Partition { groups, rounds } => {
                        substrate.partition(groups);
                        partition_heal = Some(round.saturating_add(*rounds));
                    }
                }
            }
        }
        churns.retain(|&(until, _)| round < until);
        for &(_, rate) in &churns {
            substrate.kill_fraction(rate);
        }
        // The survivors' progress clock right after the first failure
        // fired: the reference point reshaping ticks are counted from
        // (an entropy-free read on the deterministic substrates).
        if kill_tick.is_none() && failure_round == Some(round) {
            kill_tick = Some(substrate.observe().ticks);
        }
        let mut round_reads_writes = (0u64, 0u64);
        if let Some(load) = traffic.as_deref_mut() {
            let ttl = load.ttl();
            let (reads0, writes0) = (load.reads(), load.writes());
            let keys = load.next_round();
            substrate.offer_traffic(keys, ttl);
            // The workload's read/write split is generator-side
            // accounting (the overlay routes both identically); the
            // per-round delta rides the observation next to the
            // substrate-side delivery counters.
            round_reads_writes = (load.reads() - reads0, load.writes() - writes0);
        }
        let mut obs = substrate.step();
        if traffic.is_some() {
            obs.traffic = substrate.drain_traffic();
            obs.traffic.reads = round_reads_writes.0;
            obs.traffic.writes = round_reads_writes.1;
        }
        observations.push(obs);
    }
    // A window outlasting the scenario still heals the fabric on exit.
    if partition_heal.is_some() {
        substrate.heal();
    }
    ExperimentTrace {
        observations,
        failure_round,
        kill_tick,
    }
}

/// One seeded run of a scenario on some substrate: the per-round
/// observations plus the failure reference points its analytics are
/// computed from.
#[derive(Clone, Debug)]
pub struct ExperimentTrace {
    /// One observation per scenario round, in order.
    pub observations: Vec<RoundObservation>,
    /// The scenario round of the first failure event, if any.
    pub failure_round: Option<u32>,
    /// The survivors' progress clock right after the first failure was
    /// applied.
    pub kill_tick: Option<u64>,
}

impl ExperimentTrace {
    /// First post-failure observation index, if the scenario fails
    /// anything: events at round `r` fire before round `r+1` executes,
    /// so observation `r` is the first sample that saw the failure.
    fn failure_index(&self) -> Option<usize> {
        self.failure_round.map(|fr| fr as usize)
    }

    /// Rounds from the failure until homogeneity first drops below the
    /// reference bound — the one [`reshaping_time`] rule — or `None` if
    /// it never does (or the scenario has no failure).
    pub fn reshaping_rounds(&self) -> Option<u32> {
        reshaping_time(&self.observations, self.failure_round?)
    }

    /// Protocol ticks from the kill until the recovery crossing — the
    /// progress-denominated reshaping time the wall-clock substrates are
    /// gated on (wall-clock hiccups stretch rounds, not this clock).
    pub fn reshaping_ticks(&self) -> Option<u64> {
        let kill = self.kill_tick?;
        let crossing =
            &self.observations[self.failure_index()? + self.reshaping_rounds()? as usize - 1];
        Some(crossing.ticks.saturating_sub(kill).max(1))
    }

    /// Fraction of initial data points surviving the failure — Table
    /// II's "Reliability", measured on the first post-failure
    /// observation (`1.0` if the scenario never fails anything).
    pub fn reliability(&self) -> f64 {
        self.failure_index()
            .and_then(|fr| self.observations.get(fr))
            .map(|o| o.surviving_points)
            .unwrap_or(1.0)
    }

    /// The last observation, if any round ran.
    pub fn final_observation(&self) -> Option<&RoundObservation> {
        self.observations.last()
    }

    /// Per-round alive populations — the arithmetic the cross-substrate
    /// equivalence checks compare.
    pub fn populations(&self) -> Vec<usize> {
        self.observations.iter().map(|o| o.alive_nodes).collect()
    }
}

/// Streaming summary of one per-round quantity: count, mean, min, max —
/// no per-run storage.
#[derive(Clone, Copy, Debug)]
pub struct RoundStat {
    /// Runs that reached this round.
    pub count: usize,
    sum: f64,
    /// Minimum across runs.
    pub min: f64,
    /// Maximum across runs.
    pub max: f64,
}

impl Default for RoundStat {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl RoundStat {
    fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean across the runs that reached this round.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Per-round streaming statistics over repeated runs (runs may have
/// different lengths; round `r` summarizes the runs that reached it).
#[derive(Clone, Debug, Default)]
pub struct SeriesStats {
    rounds: Vec<RoundStat>,
}

impl SeriesStats {
    /// Folds one run's per-round series into the statistics.
    pub fn push_run(&mut self, series: impl Iterator<Item = f64>) {
        for (r, v) in series.enumerate() {
            if r >= self.rounds.len() {
                self.rounds.resize_with(r + 1, RoundStat::default);
            }
            self.rounds[r].push(v);
        }
    }

    /// Number of rounds of the longest run.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no run was pushed.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The per-round statistic, if round `r` was reached.
    pub fn at(&self, r: usize) -> Option<&RoundStat> {
        self.rounds.get(r)
    }

    /// The final round's statistic.
    pub fn last(&self) -> Option<&RoundStat> {
        self.rounds.last()
    }

    /// Per-round means.
    pub fn means(&self) -> Vec<f64> {
        self.rounds.iter().map(RoundStat::mean).collect()
    }
}

/// Aggregate of repeated seeded runs of one experiment configuration:
/// streaming per-round series plus the per-run headline scalars
/// (reshaping, reliability) the paper's tables report.
#[derive(Clone, Debug, Default)]
pub struct ExperimentSummary {
    /// Runs aggregated.
    pub runs: usize,
    /// Per-round alive population.
    pub alive_nodes: SeriesStats,
    /// Per-round homogeneity.
    pub homogeneity: SeriesStats,
    /// Per-round reference homogeneity.
    pub reference_homogeneity: SeriesStats,
    /// Per-round surviving fraction.
    pub surviving_points: SeriesStats,
    /// Per-round stored points per node.
    pub points_per_node: SeriesStats,
    /// Per-round cost units per node (zero on unmetered substrates).
    pub cost_units: SeriesStats,
    /// Per-round query availability (delivered / offered; `1.0` on
    /// quiet rounds, so scenario-only runs stay trivially available).
    pub traffic_availability: SeriesStats,
    /// Per-round median query latency, in protocol ticks.
    pub traffic_p50: SeriesStats,
    /// Per-round p99 query latency, in protocol ticks.
    pub traffic_p99: SeriesStats,
    /// Total read-intent queries the workloads drew, across all runs.
    pub traffic_reads: u64,
    /// Total write-intent queries the workloads drew, across all runs.
    pub traffic_writes: u64,
    /// Total queries shed at gateway ingress, across all runs (zero on
    /// substrates without an admission bound).
    pub traffic_shed: u64,
    /// Per-run reshaping time in rounds (`None` = never reshaped).
    pub reshaping_rounds: Vec<Option<u32>>,
    /// Per-run reshaping time in protocol ticks.
    pub reshaping_ticks: Vec<Option<u64>>,
    /// Per-run reliability.
    pub reliabilities: Vec<f64>,
}

impl ExperimentSummary {
    /// Folds one run into the aggregate.
    pub fn push(&mut self, trace: &ExperimentTrace) {
        self.runs += 1;
        self.alive_nodes
            .push_run(trace.observations.iter().map(|o| o.alive_nodes as f64));
        self.homogeneity
            .push_run(trace.observations.iter().map(|o| o.homogeneity));
        self.reference_homogeneity
            .push_run(trace.observations.iter().map(|o| o.reference_homogeneity));
        self.surviving_points
            .push_run(trace.observations.iter().map(|o| o.surviving_points));
        self.points_per_node
            .push_run(trace.observations.iter().map(|o| o.points_per_node));
        self.cost_units
            .push_run(trace.observations.iter().map(|o| o.cost_units));
        self.traffic_availability
            .push_run(trace.observations.iter().map(|o| o.traffic.availability()));
        self.traffic_p50
            .push_run(trace.observations.iter().map(|o| o.traffic.latency_p50));
        self.traffic_p99
            .push_run(trace.observations.iter().map(|o| o.traffic.latency_p99));
        for o in &trace.observations {
            self.traffic_reads += o.traffic.reads;
            self.traffic_writes += o.traffic.writes;
            self.traffic_shed += o.traffic.shed;
        }
        self.reshaping_rounds.push(trace.reshaping_rounds());
        self.reshaping_ticks.push(trace.reshaping_ticks());
        self.reliabilities.push(trace.reliability());
    }

    /// Runs whose shape recovered.
    pub fn recovered_runs(&self) -> usize {
        self.reshaping_rounds.iter().flatten().count()
    }

    /// Runs that never reshaped within the scenario.
    pub fn unreshaped_runs(&self) -> usize {
        self.runs - self.recovered_runs()
    }

    /// Mean reshaping time in rounds over the runs that reshaped.
    pub fn mean_reshaping_rounds(&self) -> Option<f64> {
        let done: Vec<f64> = self
            .reshaping_rounds
            .iter()
            .flatten()
            .map(|&t| f64::from(t))
            .collect();
        (!done.is_empty()).then(|| done.iter().sum::<f64>() / done.len() as f64)
    }

    /// Mean reshaping time in protocol ticks over the runs that
    /// reshaped.
    pub fn mean_reshaping_ticks(&self) -> Option<f64> {
        let done: Vec<f64> = self
            .reshaping_ticks
            .iter()
            .flatten()
            .map(|&t| t as f64)
            .collect();
        (!done.is_empty()).then(|| done.iter().sum::<f64>() / done.len() as f64)
    }

    /// Mean cost units per node per round over the whole series, or
    /// `None` before any run was pushed — the one-number traffic figure
    /// the baseline differ tracks per substrate.
    pub fn mean_cost_units(&self) -> Option<f64> {
        let means = self.cost_units.means();
        (!means.is_empty()).then(|| means.iter().sum::<f64>() / means.len() as f64)
    }

    /// Mean per-round query availability over the whole series, or
    /// `None` before any run was pushed — the one-number traffic figure
    /// the availability gates and the baseline differ track.
    pub fn mean_traffic_availability(&self) -> Option<f64> {
        let means = self.traffic_availability.means();
        (!means.is_empty()).then(|| means.iter().sum::<f64>() / means.len() as f64)
    }

    /// Mean per-round median query latency (protocol ticks) over the
    /// whole series, or `None` before any run was pushed — the
    /// saturation sweep's per-rate latency figure.
    pub fn mean_traffic_p50(&self) -> Option<f64> {
        let means = self.traffic_p50.means();
        (!means.is_empty()).then(|| means.iter().sum::<f64>() / means.len() as f64)
    }

    /// Mean per-round p99 query latency (protocol ticks) over the whole
    /// series, or `None` before any run was pushed.
    pub fn mean_traffic_p99(&self) -> Option<f64> {
        let means = self.traffic_p99.means();
        (!means.is_empty()).then(|| means.iter().sum::<f64>() / means.len() as f64)
    }

    /// The worst per-round mean availability across the series — the
    /// collapse depth an availability gate checks at the kill round.
    pub fn min_traffic_availability(&self) -> Option<f64> {
        self.traffic_availability
            .means()
            .into_iter()
            .min_by(f64::total_cmp)
    }

    /// Mean ± CI95 of the reshaping time in rounds (over runs that
    /// reshaped).
    pub fn reshaping_ci(&self) -> ConfidenceInterval {
        let done: Vec<f64> = self
            .reshaping_rounds
            .iter()
            .flatten()
            .map(|&t| f64::from(t))
            .collect();
        ci95(&done)
    }

    /// Mean ± CI95 of the reliability, in percent (Table II convention).
    pub fn reliability_percent_ci(&self) -> ConfidenceInterval {
        let percents: Vec<f64> = self.reliabilities.iter().map(|r| r * 100.0).collect();
        ci95(&percents)
    }
}

/// A float as a JSON number token, with `precision` fractional digits —
/// or the JSON literal `null` when the value is not finite.
///
/// The experiment binaries hand-roll their JSON, and `format!("{v:.6}")`
/// happily prints `NaN` or `inf` for the degenerate sweeps that produce them
/// (an empty cluster's infinite homogeneity, a 0-run mean) — which is
/// not JSON, and silently breaks every `BENCH_*.json` consumer
/// downstream. Every hand-rolled emitter must route floats through
/// here.
pub fn json_f64(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

fn json_stat(out: &mut String, stat: Option<&RoundStat>, precision: usize) {
    match stat {
        Some(s) => {
            let _ = write!(
                out,
                "{{\"min\":{},\"mean\":{},\"max\":{}}}",
                json_f64(s.min, precision),
                json_f64(s.mean(), precision),
                json_f64(s.max, precision)
            );
        }
        None => out.push_str("null"),
    }
}

/// The single hand-rolled JSON emitter of the experiment plane: one
/// record per `(label, summary)` entry, under shared metadata. `meta`
/// values must already be valid JSON tokens (numbers, `true`, quoted
/// strings) — every float should come out of [`json_f64`].
pub fn summary_json(
    figure: &str,
    meta: &[(&str, String)],
    entries: &[(String, &ExperimentSummary)],
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"figure\":\"{figure}\"");
    for (key, value) in meta {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    out.push_str(",\"entries\":[");
    for (i, (label, s)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let reshaping_rounds = match s.mean_reshaping_rounds() {
            Some(m) => json_f64(m, 2),
            None => "null".to_string(),
        };
        let reshaping_ticks = match s.mean_reshaping_ticks() {
            Some(m) => json_f64(m, 2),
            None => "null".to_string(),
        };
        let cost_units = match s.mean_cost_units() {
            Some(m) => json_f64(m, 3),
            None => "null".to_string(),
        };
        let traffic_availability = match s.mean_traffic_availability() {
            Some(m) => json_f64(m, 4),
            None => "null".to_string(),
        };
        let min_traffic_availability = match s.min_traffic_availability() {
            Some(m) => json_f64(m, 4),
            None => "null".to_string(),
        };
        let traffic_p50 = match s.mean_traffic_p50() {
            Some(m) => json_f64(m, 2),
            None => "null".to_string(),
        };
        let traffic_p99 = match s.mean_traffic_p99() {
            Some(m) => json_f64(m, 2),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"label\":\"{label}\",\"runs\":{},\"recovered_runs\":{},\
             \"mean_reshaping_rounds\":{reshaping_rounds},\"mean_reshaping_ticks\":{reshaping_ticks},\
             \"mean_cost_units\":{cost_units},\
             \"mean_traffic_availability\":{traffic_availability},\
             \"min_traffic_availability\":{min_traffic_availability},\
             \"mean_traffic_p50\":{traffic_p50},\"mean_traffic_p99\":{traffic_p99},\
             \"traffic_reads\":{},\"traffic_writes\":{},\"traffic_shed\":{},\
             \"reliability_mean\":{},\"final_alive_nodes\":",
            s.runs,
            s.recovered_runs(),
            s.traffic_reads,
            s.traffic_writes,
            s.traffic_shed,
            json_f64(s.reliability_percent_ci().mean, 2),
        );
        json_stat(&mut out, s.alive_nodes.last(), 0);
        out.push_str(",\"final_homogeneity\":");
        json_stat(&mut out, s.homogeneity.last(), 6);
        out.push_str(",\"final_reference_homogeneity\":");
        json_stat(&mut out, s.reference_homogeneity.last(), 6);
        out.push_str(",\"final_surviving_points\":");
        json_stat(&mut out, s.surviving_points.last(), 6);
        out.push_str(",\"final_points_per_node\":");
        json_stat(&mut out, s.points_per_node.last(), 3);
        out.push_str(",\"final_traffic_availability\":");
        json_stat(&mut out, s.traffic_availability.last(), 4);
        out.push_str(",\"final_traffic_p50\":");
        json_stat(&mut out, s.traffic_p50.last(), 2);
        out.push_str(",\"final_traffic_p99\":");
        json_stat(&mut out, s.traffic_p99.last(), 2);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_membership::NodeId;
    use polystyrene_protocol::observe::TrafficStats;

    /// A substrate that records what was done to it — pins the driver's
    /// window semantics independently of any real backend.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<String>,
        rounds: u32,
    }

    impl Substrate<[f64; 2]> for Recorder {
        fn kill_region(&mut self, _: &(dyn Fn(&[f64; 2]) -> bool + Send + Sync)) -> Vec<NodeId> {
            self.calls.push(format!("region@{}", self.rounds));
            Vec::new()
        }
        fn kill_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
            self.calls
                .push(format!("fraction({fraction})@{}", self.rounds));
            Vec::new()
        }
        fn kill_nodes(&mut self, ids: &[NodeId]) -> Vec<NodeId> {
            self.calls
                .push(format!("nodes({})@{}", ids.len(), self.rounds));
            Vec::new()
        }
        fn inject(&mut self, positions: &[[f64; 2]]) -> Vec<NodeId> {
            self.calls
                .push(format!("inject({})@{}", positions.len(), self.rounds));
            Vec::new()
        }
        fn partition(&mut self, groups: &[Vec<NodeId>]) {
            self.calls
                .push(format!("partition({})@{}", groups.len(), self.rounds));
        }
        fn heal(&mut self) {
            self.calls.push(format!("heal@{}", self.rounds));
        }
        fn step(&mut self) -> RoundObservation {
            self.rounds += 1;
            self.observe()
        }
        fn observe(&self) -> RoundObservation {
            RoundObservation {
                round: self.rounds,
                alive_nodes: 0,
                homogeneity: 0.0,
                reference_homogeneity: 0.0,
                surviving_points: 1.0,
                points_per_node: 0.0,
                parked_points: 0,
                cost_units: 0.0,
                ticks: u64::from(self.rounds),
                traffic: TrafficStats::default(),
            }
        }
    }

    fn obs(homogeneity: f64, reference: f64, surviving: f64, ticks: u64) -> RoundObservation {
        RoundObservation {
            round: 0,
            alive_nodes: 10,
            homogeneity,
            reference_homogeneity: reference,
            surviving_points: surviving,
            points_per_node: 0.0,
            parked_points: 0,
            cost_units: 0.0,
            ticks,
            traffic: TrafficStats::default(),
        }
    }

    #[test]
    fn driver_runs_every_round_and_applies_in_order() {
        let scenario: Scenario<[f64; 2]> = Scenario::new(5)
            .at(1, ScenarioEvent::FailNodes(vec![NodeId::new(0)]))
            .at(3, ScenarioEvent::Inject(vec![[0.0, 0.0], [1.0, 0.0]]));
        let mut rec = Recorder::default();
        let trace = run_experiment(&mut rec, &scenario);
        assert_eq!(rec.rounds, 5);
        assert_eq!(trace.observations.len(), 5);
        assert_eq!(rec.calls, vec!["nodes(1)@1", "inject(2)@3"]);
        assert_eq!(trace.failure_round, Some(1));
    }

    #[test]
    fn churn_window_fires_every_round_until_expiry() {
        let scenario: Scenario<[f64; 2]> = Scenario::new(6).at(
            2,
            ScenarioEvent::Churn {
                rate: 0.25,
                rounds: 3,
            },
        );
        let mut rec = Recorder::default();
        run_experiment(&mut rec, &scenario);
        assert_eq!(
            rec.calls,
            vec!["fraction(0.25)@2", "fraction(0.25)@3", "fraction(0.25)@4"]
        );
    }

    #[test]
    fn overlapping_churn_windows_stack() {
        let scenario: Scenario<[f64; 2]> = Scenario::new(4)
            .at(
                0,
                ScenarioEvent::Churn {
                    rate: 0.1,
                    rounds: 2,
                },
            )
            .at(
                1,
                ScenarioEvent::Churn {
                    rate: 0.2,
                    rounds: 1,
                },
            );
        let mut rec = Recorder::default();
        run_experiment(&mut rec, &scenario);
        assert_eq!(
            rec.calls,
            vec!["fraction(0.1)@0", "fraction(0.1)@1", "fraction(0.2)@1"]
        );
    }

    #[test]
    fn partition_window_installs_then_heals() {
        let scenario: Scenario<[f64; 2]> = Scenario::new(6).at(
            1,
            ScenarioEvent::Partition {
                groups: vec![vec![NodeId::new(0)], vec![NodeId::new(1)]],
                rounds: 2,
            },
        );
        let mut rec = Recorder::default();
        run_experiment(&mut rec, &scenario);
        assert_eq!(rec.calls, vec!["partition(2)@1", "heal@3"]);
    }

    #[test]
    fn partition_outlasting_the_scenario_still_heals() {
        let scenario: Scenario<[f64; 2]> = Scenario::new(3).at(
            2,
            ScenarioEvent::Partition {
                groups: vec![vec![NodeId::new(5)]],
                rounds: 10,
            },
        );
        let mut rec = Recorder::default();
        run_experiment(&mut rec, &scenario);
        assert_eq!(rec.calls, vec!["partition(1)@2", "heal@3"]);
    }

    #[test]
    fn later_partition_replaces_mask_and_window() {
        let scenario: Scenario<[f64; 2]> = Scenario::new(8)
            .at(
                0,
                ScenarioEvent::Partition {
                    groups: vec![vec![NodeId::new(0)]],
                    rounds: 5,
                },
            )
            .at(
                2,
                ScenarioEvent::Partition {
                    groups: vec![vec![NodeId::new(1)]],
                    rounds: 1,
                },
            );
        let mut rec = Recorder::default();
        run_experiment(&mut rec, &scenario);
        // Windows do not stack: the round-2 event replaces both the mask
        // and the window, so its own 1-round cut ends at round 3 — the
        // first event's longer window dies with its mask (the substrate
        // holds exactly one mask, so mask and heal stay in lockstep).
        assert_eq!(
            rec.calls,
            vec!["partition(1)@0", "partition(1)@2", "heal@3"]
        );
    }

    #[test]
    fn trace_analytics_follow_the_paper_rules() {
        // Failure at round 2: observation index 2 is the first
        // post-failure sample; the crossing at index 3 is 2 rounds after
        // the failure.
        let trace = ExperimentTrace {
            observations: vec![
                obs(0.1, 0.5, 1.0, 1),
                obs(0.1, 0.5, 1.0, 2),
                obs(5.0, 0.7, 0.9, 3),
                obs(0.6, 0.7, 0.9, 4),
                obs(0.5, 0.7, 0.9, 5),
            ],
            failure_round: Some(2),
            kill_tick: Some(2),
        };
        assert_eq!(trace.reshaping_rounds(), Some(2));
        assert_eq!(trace.reshaping_ticks(), Some(2));
        assert_eq!(trace.reliability(), 0.9);
        assert_eq!(trace.populations().len(), 5);

        // The pre-failure sample must not count as a recovery even when
        // it is below the reference.
        let early = ExperimentTrace {
            observations: vec![obs(0.1, 0.7, 1.0, 1), obs(0.2, 0.7, 0.9, 2)],
            failure_round: Some(1),
            kill_tick: Some(1),
        };
        assert_eq!(early.reshaping_rounds(), Some(1));

        // No failure: trivially reliable, no reshaping defined.
        let calm = ExperimentTrace {
            observations: vec![obs(0.1, 0.5, 1.0, 1)],
            failure_round: None,
            kill_tick: None,
        };
        assert_eq!(calm.reshaping_rounds(), None);
        assert_eq!(calm.reliability(), 1.0);

        // Never recovering yields None.
        let stuck = ExperimentTrace {
            observations: vec![obs(0.1, 0.5, 1.0, 1), obs(5.0, 0.7, 0.5, 2)],
            failure_round: Some(1),
            kill_tick: Some(1),
        };
        assert_eq!(stuck.reshaping_rounds(), None);
        assert_eq!(stuck.reshaping_ticks(), None);
    }

    #[test]
    fn summary_streams_min_mean_max() {
        let mk = |h: f64| ExperimentTrace {
            observations: vec![obs(h, 0.5, 1.0, 1), obs(h * 2.0, 0.5, 1.0, 2)],
            failure_round: Some(0),
            kill_tick: Some(0),
        };
        let mut summary = ExperimentSummary::default();
        summary.push(&mk(1.0));
        summary.push(&mk(3.0));
        assert_eq!(summary.runs, 2);
        let last = summary.homogeneity.last().unwrap();
        assert_eq!(last.count, 2);
        assert_eq!(last.min, 2.0);
        assert_eq!(last.max, 6.0);
        assert_eq!(last.mean(), 4.0);
        assert_eq!(summary.homogeneity.means(), vec![2.0, 4.0]);
        // Both runs "reshaped" at the first sample below reference?
        // Neither did (homogeneity above reference throughout).
        assert_eq!(summary.recovered_runs(), 0);
        assert_eq!(summary.unreshaped_runs(), 2);
        assert_eq!(summary.mean_reshaping_rounds(), None);
    }

    #[test]
    fn summary_handles_ragged_runs() {
        let mut summary = ExperimentSummary::default();
        summary.push(&ExperimentTrace {
            observations: vec![obs(1.0, 0.5, 1.0, 1)],
            failure_round: None,
            kill_tick: None,
        });
        summary.push(&ExperimentTrace {
            observations: vec![obs(3.0, 0.5, 1.0, 1), obs(5.0, 0.5, 1.0, 2)],
            failure_round: None,
            kill_tick: None,
        });
        assert_eq!(summary.homogeneity.len(), 2);
        assert_eq!(summary.homogeneity.at(0).unwrap().count, 2);
        assert_eq!(summary.homogeneity.at(1).unwrap().count, 1);
    }

    #[test]
    fn series_accumulator_handles_ragged_runs() {
        let mut stats = SeriesStats::default();
        stats.push_run([1.0, 2.0, 3.0].into_iter());
        stats.push_run([3.0, 4.0].into_iter());
        assert_eq!(stats.at(0).unwrap().count, 2);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.means(), vec![2.0, 3.0, 3.0]);
        assert_eq!(stats.last().unwrap().count, 1);
    }

    #[test]
    fn empty_accumulator() {
        let stats = SeriesStats::default();
        assert_eq!(stats.len(), 0);
        assert!(stats.means().is_empty());
    }

    proptest::proptest! {
        #[test]
        fn accumulator_means_match_manual_average(
            a in proptest::collection::vec(-10.0..10.0f64, 1..10),
            b in proptest::collection::vec(-10.0..10.0f64, 1..10),
        ) {
            let mut stats = SeriesStats::default();
            stats.push_run(a.iter().copied());
            stats.push_run(b.iter().copied());
            for (r, m) in stats.means().iter().enumerate() {
                let samples: Vec<f64> = a.get(r).into_iter().chain(b.get(r)).copied().collect();
                proptest::prop_assert!((m - polystyrene_space::stats::mean(&samples)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn json_f64_emits_null_for_non_finite_values() {
        assert_eq!(json_f64(1.25, 2), "1.25");
        assert_eq!(json_f64(-0.5, 3), "-0.500");
        assert_eq!(json_f64(0.0, 0), "0");
        // The degenerate-sweep values that used to produce invalid JSON.
        assert_eq!(json_f64(f64::NAN, 6), "null");
        assert_eq!(json_f64(f64::INFINITY, 6), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY, 2), "null");
    }

    #[test]
    fn summary_json_is_wellformed() {
        let mut summary = ExperimentSummary::default();
        summary.push(&ExperimentTrace {
            observations: vec![obs(2.0, 0.7, 0.9, 1), obs(0.5, 0.7, 0.9, 2)],
            failure_round: Some(0),
            kill_tick: Some(0),
        });
        let json = summary_json(
            "test_fig",
            &[("nodes", "32".to_string()), ("runs", "1".to_string())],
            &[("engine".to_string(), &summary)],
        );
        assert!(json.starts_with("{\"figure\":\"test_fig\",\"nodes\":32,\"runs\":1,"));
        assert!(json.contains("\"label\":\"engine\""));
        assert!(json.contains("\"mean_reshaping_rounds\":2.00"));
        assert!(json.contains("\"final_homogeneity\":{\"min\":0.500000"));
        // Quiet observations count as fully available (nothing offered,
        // nothing lost) and carry a zero p99.
        assert!(json.contains("\"mean_traffic_availability\":1.0000"));
        assert!(json.contains("\"min_traffic_availability\":1.0000"));
        assert!(json.contains("\"traffic_reads\":0,\"traffic_writes\":0,\"traffic_shed\":0"));
        assert!(json.contains("\"final_traffic_availability\":{\"min\":1.0000"));
        assert!(json.contains("\"final_traffic_p99\":{\"min\":0.00"));
        assert!(json.ends_with("]}"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Empty summary: stats are null, not NaN tokens.
        let empty = ExperimentSummary::default();
        let json = summary_json("t", &[], &[("x".to_string(), &empty)]);
        assert!(json.contains("\"final_homogeneity\":null"));
        assert!(json.contains("\"mean_traffic_availability\":null"));
        assert!(json.contains("\"final_traffic_availability\":null"));
    }
}
