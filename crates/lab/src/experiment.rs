//! The one experiment driver: any [`Scenario`] on any [`Substrate`].
//!
//! [`run_experiment`] owns the window bookkeeping a script implies —
//! churn windows fire every round until expiry, partition masks are
//! installed and healed when their window lapses — and collects one
//! [`RoundObservation`] per round into an [`ExperimentTrace`]. Repeated
//! seeded runs stream into an [`ExperimentSummary`] (per-round
//! min/mean/max without retaining per-run series), and
//! [`summary_json`] is the single hand-rolled JSON emitter every
//! figure shares.

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

/// One per-round quantity an [`ExperimentSummary`] tracks. One table
/// (`Series::row`) says how each is read and printed; the summary and
/// [`summary_json`] walk [`Series::ALL`], so a new series is one variant
/// and one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Alive population.
    AliveNodes,
    /// Homogeneity.
    Homogeneity,
    /// Reference homogeneity `H`.
    ReferenceHomogeneity,
    /// Surviving fraction of the founding points.
    SurvivingPoints,
    /// Stored points per node.
    PointsPerNode,
    /// Cost units per node (zero on unmetered substrates).
    CostUnits,
    /// Query availability (delivered / presented; `1.0` on quiet rounds,
    /// so scenario-only runs stay trivially available).
    TrafficAvailability,
    /// Median query latency, in protocol ticks.
    TrafficP50,
    /// p99 query latency, in protocol ticks.
    TrafficP99,
}

/// [`summary_json`] prints `mean_<key>`: the mean of the per-round means.
const MEAN: u8 = 1;
/// [`summary_json`] prints `min_<key>`: the worst per-round mean.
const MIN: u8 = 2;
/// [`summary_json`] prints `final_<key>`: the last round's min/mean/max.
const FINAL: u8 = 4;

/// One row of the series table: the JSON key, the reader, the print
/// precision and the aggregates printed (`MEAN | MIN | FINAL`).
struct Row(&'static str, fn(&RoundObservation) -> f64, usize, u8);

impl Series {
    /// Every series, in declaration order: the order [`summary_json`]
    /// prints them in, and each one's slot in the summary.
    pub const ALL: [Series; 9] = [
        Series::AliveNodes,
        Series::Homogeneity,
        Series::ReferenceHomogeneity,
        Series::SurvivingPoints,
        Series::PointsPerNode,
        Series::CostUnits,
        Series::TrafficAvailability,
        Series::TrafficP50,
        Series::TrafficP99,
    ];

    /// The series table.
    fn row(self) -> Row {
        match self {
            Series::AliveNodes => Row("alive_nodes", |o| o.alive_nodes as f64, 0, FINAL),
            Series::Homogeneity => Row("homogeneity", |o| o.homogeneity, 6, FINAL),
            Series::ReferenceHomogeneity => Row(
                "reference_homogeneity",
                |o| o.reference_homogeneity,
                6,
                FINAL,
            ),
            Series::SurvivingPoints => Row("surviving_points", |o| o.surviving_points, 6, FINAL),
            Series::PointsPerNode => Row("points_per_node", |o| o.points_per_node, 3, FINAL),
            Series::CostUnits => Row("cost_units", |o| o.cost_units, 3, MEAN),
            Series::TrafficAvailability => Row(
                "traffic_availability",
                |o| o.traffic.availability(),
                4,
                MEAN | MIN | FINAL,
            ),
            Series::TrafficP50 => Row("traffic_p50", |o| o.traffic.latency_p50, 2, MEAN | FINAL),
            Series::TrafficP99 => Row("traffic_p99", |o| o.traffic.latency_p99, 2, MEAN | FINAL),
        }
    }
}

/// Aggregate of repeated seeded runs of one experiment configuration:
/// streaming per-round statistics of every [`Series`] (index the
/// summary by one) plus the per-run headline scalars (reshaping,
/// reliability) the paper's tables report.
#[derive(Clone, Debug, Default)]
pub struct ExperimentSummary {
    /// Runs aggregated.
    pub runs: usize,
    series: [SeriesStats; Series::ALL.len()],
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

impl std::ops::Index<Series> for ExperimentSummary {
    type Output = SeriesStats;

    fn index(&self, series: Series) -> &SeriesStats {
        &self.series[series as usize]
    }
}

impl ExperimentSummary {
    /// Folds one run into the aggregate.
    pub fn push(&mut self, trace: &ExperimentTrace) {
        self.runs += 1;
        for series in Series::ALL {
            let Row(_, read, ..) = series.row();
            self.series[series as usize].push_run(trace.observations.iter().map(read));
        }
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

    /// Mean of `series`' per-round means, or `None` before any run was
    /// pushed — the one-number figure the availability gates and the
    /// baseline differ track.
    pub fn mean(&self, series: Series) -> Option<f64> {
        let means = self[series].means();
        (!means.is_empty()).then(|| means.iter().sum::<f64>() / means.len() as f64)
    }

    /// The lowest per-round mean of `series`, or `None` before any run
    /// was pushed — for availability, the collapse depth a gate checks
    /// at the kill round.
    pub fn min(&self, series: Series) -> Option<f64> {
        self[series].means().into_iter().min_by(f64::total_cmp)
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
/// The figures hand-roll their JSON, and `format!("{v:.6}")`
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

/// A JSON object of one value per label, in order — the artifacts'
/// per-row `wall_secs`, `peak_rss_mb` and `knee_rate` maps. Values must
/// already be JSON tokens (floats through [`json_f64`]).
pub fn json_object<L: std::fmt::Display>(members: impl IntoIterator<Item = (L, String)>) -> String {
    let members: Vec<String> = members
        .into_iter()
        .map(|(label, value)| format!("\"{label}\":{value}"))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// A JSON array of the labels as strings — the artifacts' `substrates`
/// list.
pub fn json_strings<L: std::fmt::Display>(labels: impl IntoIterator<Item = L>) -> String {
    let labels: Vec<String> = labels.into_iter().map(|l| format!("\"{l}\"")).collect();
    format!("[{}]", labels.join(","))
}

fn json_stat(stat: Option<&RoundStat>, precision: usize) -> String {
    match stat {
        Some(s) => format!(
            "{{\"min\":{},\"mean\":{},\"max\":{}}}",
            json_f64(s.min, precision),
            json_f64(s.mean(), precision),
            json_f64(s.max, precision)
        ),
        None => "null".to_string(),
    }
}

/// The single hand-rolled JSON emitter of the experiment plane: one
/// record per `(label, summary)` entry, under shared metadata. `meta`
/// values must already be valid JSON tokens (numbers, `true`, quoted
/// strings) — every float should come out of [`json_f64`]. Each entry
/// prints the [`Series`] table's aggregates: the `mean_` and `min_`
/// keys after the reshaping times, the `final_` keys last.
pub fn summary_json(
    figure: &str,
    meta: &[(&str, String)],
    entries: &[(String, &ExperimentSummary)],
) -> String {
    let json_opt = |v: Option<f64>, precision| json_f64(v.unwrap_or(f64::NAN), precision);
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
        let _ = write!(
            out,
            "{{\"label\":\"{label}\",\"runs\":{},\"recovered_runs\":{},\
             \"mean_reshaping_rounds\":{},\"mean_reshaping_ticks\":{}",
            s.runs,
            s.recovered_runs(),
            json_opt(s.mean_reshaping_rounds(), 2),
            json_opt(s.mean_reshaping_ticks(), 2),
        );
        for series in Series::ALL {
            let Row(key, _, precision, aggregates) = series.row();
            if aggregates & MEAN != 0 {
                let _ = write!(
                    out,
                    ",\"mean_{key}\":{}",
                    json_opt(s.mean(series), precision)
                );
            }
            if aggregates & MIN != 0 {
                let _ = write!(out, ",\"min_{key}\":{}", json_opt(s.min(series), precision));
            }
        }
        let _ = write!(
            out,
            ",\"traffic_reads\":{},\"traffic_writes\":{},\"traffic_shed\":{},\
             \"reliability_mean\":{}",
            s.traffic_reads,
            s.traffic_writes,
            s.traffic_shed,
            json_f64(s.reliability_percent_ci().mean, 2),
        );
        for series in Series::ALL {
            let Row(key, _, precision, aggregates) = series.row();
            if aggregates & FINAL != 0 {
                let stat = json_stat(s[series].last(), precision);
                let _ = write!(out, ",\"final_{key}\":{stat}");
            }
        }
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
        let last = summary[Series::Homogeneity].last().unwrap();
        assert_eq!(last.count, 2);
        assert_eq!(last.min, 2.0);
        assert_eq!(last.max, 6.0);
        assert_eq!(last.mean(), 4.0);
        assert_eq!(summary[Series::Homogeneity].means(), vec![2.0, 4.0]);
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
        assert_eq!(summary[Series::Homogeneity].len(), 2);
        assert_eq!(summary[Series::Homogeneity].at(0).unwrap().count, 2);
        assert_eq!(summary[Series::Homogeneity].at(1).unwrap().count, 1);
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
    fn json_object_and_strings_keep_label_order() {
        let walls = [("netsim", 1.5), ("cluster", f64::NAN)];
        assert_eq!(
            json_object(walls.map(|(l, s)| (l, json_f64(s, 3)))),
            "{\"netsim\":1.500,\"cluster\":null}"
        );
        assert_eq!(json_object(Vec::<(&str, String)>::new()), "{}");
        assert_eq!(json_strings(["engine", "tcp"]), "[\"engine\",\"tcp\"]");
        assert_eq!(json_strings(Vec::<&str>::new()), "[]");
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

    /// Pins every byte `summary_json` prints for two runs of different
    /// lengths: the first reshapes, the second never does and reads a
    /// NaN latency in its last round (printed `null`).
    #[test]
    fn summary_json_pins_every_key() {
        let round = |alive: usize, h: f64, surviving: f64, ppn: f64, cost: f64, ticks: u64| {
            RoundObservation {
                alive_nodes: alive,
                points_per_node: ppn,
                cost_units: cost,
                ..obs(h, 0.7, surviving, ticks)
            }
        };
        let traffic = |offered, delivered, shed, p50, p99| TrafficStats {
            offered,
            delivered,
            shed,
            reads: offered,
            writes: 1,
            latency_p50: p50,
            latency_p99: p99,
            ..TrafficStats::default()
        };
        let mut reshapes = vec![
            round(10, 0.4, 1.0, 3.0, 12.5, 1),
            round(6, 2.5, 0.875, 2.25, 20.0, 3),
            round(6, 0.6, 0.875, 3.5, 15.25, 5),
        ];
        reshapes[0].traffic = traffic(8, 8, 0, 2.0, 4.0);
        reshapes[1].traffic = traffic(8, 4, 2, 3.0, 9.0);
        reshapes[2].traffic = traffic(8, 7, 0, 2.5, 5.0);
        let mut stuck = vec![
            round(12, 0.45, 1.0, 2.75, 11.0, 1),
            round(5, 3.0, 0.75, 1.5, 9.5, 2),
        ];
        stuck[0].traffic = traffic(4, 4, 0, 1.0, 2.0);
        stuck[1].traffic = traffic(4, 1, 1, f64::NAN, f64::NAN);
        let mut summary = ExperimentSummary::default();
        summary.push(&ExperimentTrace {
            observations: reshapes,
            failure_round: Some(1),
            kill_tick: Some(2),
        });
        summary.push(&ExperimentTrace {
            observations: stuck,
            failure_round: Some(1),
            kill_tick: Some(1),
        });
        let json = summary_json(
            "pin",
            &[("nodes", "12".to_string())],
            &[("a".to_string(), &summary)],
        );
        assert_eq!(
            json,
            concat!(
                r#"{"figure":"pin","nodes":12,"entries":[{"label":"a","runs":2,"recovered_runs":1,"#,
                r#""mean_reshaping_rounds":2.00,"mean_reshaping_ticks":3.00,"mean_cost_units":13.917,"#,
                r#""mean_traffic_availability":0.7250,"min_traffic_availability":0.3000,"#,
                r#""mean_traffic_p50":null,"mean_traffic_p99":null,"#,
                r#""traffic_reads":32,"traffic_writes":5,"traffic_shed":3,"reliability_mean":81.25,"#,
                r#""final_alive_nodes":{"min":6,"mean":6,"max":6},"#,
                r#""final_homogeneity":{"min":0.600000,"mean":0.600000,"max":0.600000},"#,
                r#""final_reference_homogeneity":{"min":0.700000,"mean":0.700000,"max":0.700000},"#,
                r#""final_surviving_points":{"min":0.875000,"mean":0.875000,"max":0.875000},"#,
                r#""final_points_per_node":{"min":3.500,"mean":3.500,"max":3.500},"#,
                r#""final_traffic_availability":{"min":0.8750,"mean":0.8750,"max":0.8750},"#,
                r#""final_traffic_p50":{"min":2.50,"mean":2.50,"max":2.50},"#,
                r#""final_traffic_p99":{"min":5.00,"mean":5.00,"max":5.00}}]}"#,
            )
        );
    }
}
