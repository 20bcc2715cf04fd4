//! Shared harness code for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper, an ablation or an extension (the README's "Reproducing the
//! paper's figures" lists them):
//!
//! * paper: `fig1_tman_failure`, `fig6_7_quality`, `fig8_9_snapshots`,
//!   `table2_reshaping`, `fig10a_scaling`, `fig10b_split`;
//! * ablations: `ablation` (projection, K, backup placement);
//! * extensions: `ext_routing_recovery`, `substrate_matrix`,
//!   `fig_loss_latency`, `fig_traffic`, `fig_traffic_scale`,
//!   `fig_tcp_loopback`;
//! * `baseline_diff`, the CI gate over their JSON artifacts.
//!
//! The figure binaries accept the same flags:
//!
//! ```text
//! --cols N        torus grid columns    (default: figure-specific)
//! --rows N        torus grid rows
//! --runs N        repeated seeded runs  (paper: 25)
//! --k N           replication factor    (paper: 2, 4 or 8)
//! --seed N        base seed
//! --out DIR       CSV/JSON output dir   (default: target/experiments)
//! --substrate S   execution substrate: engine|netsim|cluster|tcp
//! ```
//!
//! They drive whatever `--substrate` names through the unified
//! experiment plane (`polystyrene-lab`): one `Substrate` seam, one
//! scenario driver, one observation record — so every scenario runs on
//! every substrate. The three that read engine internals
//! (`fig6_7_quality`, `fig8_9_snapshots`, `ext_routing_recovery`) reject
//! any other substrate. `tests/gates.rs` gates steady-state
//! allocations and live heap per node with a counting allocator;
//! wall-clock timing lives in the repo benchmark (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod minijson;

use polystyrene::prelude::{PolystyreneConfig, SplitStrategy};
use polystyrene_lab::{
    build_engine, build_substrate, run_experiment, ExperimentSummary, LabConfig, SeriesStats,
    SubstrateKind, TrafficDist,
};
use polystyrene_sim::prelude::*;
use polystyrene_space::stats::{ci95, ConfidenceInterval};
use polystyrene_space::torus::Torus2;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use polystyrene_lab::json_f64;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Torus grid columns.
    pub cols: usize,
    /// Torus grid rows.
    pub rows: usize,
    /// Number of repeated seeded runs.
    pub runs: usize,
    /// Replication factor K.
    pub k: usize,
    /// Base seed.
    pub seed: u64,
    /// Output directory for CSV/JSON dumps.
    pub out: PathBuf,
    /// Execution substrate the figure runs on (`--substrate`;
    /// out-of-vocabulary values are rejected at parse time).
    pub substrate: SubstrateKind,
    /// Whether `--substrate` was passed explicitly (binaries whose
    /// default substrate is figure-specific check this).
    pub substrate_given: bool,
    /// Base link latency in simulated ticks (`--net-latency`; netsim
    /// substrate only).
    pub net_latency: u64,
    /// Uniform extra link jitter in simulated ticks (`--net-jitter`).
    pub net_jitter: u64,
    /// Link loss probability in `[0, 1]` (`--net-loss`; out-of-range
    /// values are rejected at parse time).
    pub net_loss: f64,
    /// Duration of scripted partitions in rounds (`--partition-rounds`;
    /// 0 = the scenario has no partition window).
    pub partition_rounds: u32,
    /// Application queries offered per round (`--traffic-rate`; 0 = no
    /// workload rides the scenario).
    pub traffic_rate: usize,
    /// Size of the workload's key universe (`--traffic-keys`; must be
    /// positive when the rate is).
    pub traffic_keys: usize,
    /// Fraction of traffic requests that are reads (`--read-fraction`;
    /// out-of-range values are rejected at parse time).
    pub read_fraction: f64,
    /// Key-popularity distribution of the workload (`--traffic-dist`;
    /// `uniform` or `zipf:<s>` with a positive finite exponent —
    /// malformed values are rejected at parse time).
    pub traffic_dist: TrafficDist,
    /// Figure-specific `--key value` pairs, restricted to the keys the
    /// binary declared via [`CommonArgs::parse_with`].
    pub extra: HashMap<String, String>,
}

/// The flags every experiment binary accepts.
const COMMON_KEYS: [&str; 15] = [
    "cols",
    "rows",
    "runs",
    "k",
    "seed",
    "out",
    "substrate",
    "net-latency",
    "net-jitter",
    "net-loss",
    "partition-rounds",
    "traffic-rate",
    "traffic-keys",
    "read-fraction",
    "traffic-dist",
];

/// The usage line: every accepted flag, sorted.
fn usage(extra_keys: &[&str]) -> String {
    let mut keys: Vec<String> = COMMON_KEYS
        .iter()
        .chain(extra_keys.iter())
        .map(|k| format!("--{k}"))
        .collect();
    keys.sort();
    format!("accepted flags (each takes a value): {}", keys.join(" "))
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            cols: 80,
            rows: 40,
            runs: 5,
            k: 4,
            seed: 1,
            out: PathBuf::from("target/experiments"),
            substrate: SubstrateKind::Engine,
            substrate_given: false,
            net_latency: 2,
            net_jitter: 1,
            net_loss: 0.0,
            partition_rounds: 0,
            traffic_rate: 16,
            traffic_keys: 64,
            read_fraction: 0.9,
            traffic_dist: TrafficDist::Uniform,
            extra: HashMap::new(),
        }
    }
}

impl CommonArgs {
    /// Parses `--key value` pairs from `std::env::args`, starting from the
    /// given defaults. Equivalent to [`CommonArgs::parse_with`] with no
    /// figure-specific keys.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments or unknown
    /// flags.
    pub fn parse(defaults: CommonArgs) -> Self {
        Self::parse_with(defaults, &[])
    }

    /// Parses `--key value` pairs from `std::env::args`, starting from the
    /// given defaults; `extra_keys` lists the figure-specific flags this
    /// binary additionally accepts (retrieved via
    /// [`CommonArgs::extra_usize`]).
    ///
    /// Unknown flags are rejected with a usage message listing every
    /// accepted one — a typo like `--max-node` must fail loudly instead
    /// of silently sweeping with defaults. So must a *repeated* flag:
    /// last-one-wins silently discarded half of a sweep script's intent
    /// when a line was copy-pasted and only one occurrence edited.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments, unknown
    /// flags, or duplicate occurrences of the same flag.
    pub fn parse_with(defaults: CommonArgs, extra_keys: &[&str]) -> Self {
        Self::parse_argv(defaults, extra_keys, std::env::args().skip(1).collect())
    }

    /// [`CommonArgs::parse`] for the figures that read engine internals
    /// (proximity, snapshots, the T-Man baseline) and so run on the
    /// cycle engine only.
    ///
    /// # Panics
    ///
    /// As [`CommonArgs::parse`], and also when `--substrate` names
    /// anything but `engine`: the flag must never silently yield engine
    /// numbers.
    pub fn parse_engine_only(defaults: CommonArgs) -> Self {
        Self::parse(defaults).require_engine()
    }

    fn require_engine(self) -> Self {
        assert!(
            self.substrate == SubstrateKind::Engine,
            "--substrate {}: this figure reads engine internals and runs on the engine only\n{}",
            self.substrate,
            usage(&[])
        );
        self
    }

    fn parse_argv(defaults: CommonArgs, extra_keys: &[&str], argv: Vec<String>) -> Self {
        let usage = || usage(extra_keys);
        let mut args = defaults;
        let mut seen: HashSet<String> = HashSet::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, got {:?}\n{}", argv[i], usage()));
            let value = argv
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing value for --{key}\n{}", usage()))
                .clone();
            assert!(
                seen.insert(key.to_string()),
                "duplicate flag --{key} (each flag may appear once)\n{}",
                usage()
            );
            match key {
                "cols" => args.cols = value.parse().expect("--cols expects an integer"),
                "rows" => args.rows = value.parse().expect("--rows expects an integer"),
                "runs" => args.runs = value.parse().expect("--runs expects an integer"),
                "k" => args.k = value.parse().expect("--k expects an integer"),
                "seed" => args.seed = value.parse().expect("--seed expects an integer"),
                "out" => args.out = PathBuf::from(value),
                "substrate" => {
                    args.substrate = value
                        .parse()
                        .unwrap_or_else(|e: String| panic!("{e}\n{}", usage()));
                    args.substrate_given = true;
                }
                "net-latency" => {
                    args.net_latency = value.parse().expect("--net-latency expects an integer")
                }
                "net-jitter" => {
                    args.net_jitter = value.parse().expect("--net-jitter expects an integer")
                }
                "net-loss" => {
                    let loss: f64 = value.parse().expect("--net-loss expects a number");
                    assert!(
                        (0.0..=1.0).contains(&loss),
                        "--net-loss must be a probability in [0, 1], got {loss}\n{}",
                        usage()
                    );
                    args.net_loss = loss;
                }
                "partition-rounds" => {
                    args.partition_rounds = value
                        .parse()
                        .expect("--partition-rounds expects an integer")
                }
                "traffic-rate" => {
                    args.traffic_rate = value.parse().expect("--traffic-rate expects an integer")
                }
                "traffic-keys" => {
                    let keys: usize = value.parse().expect("--traffic-keys expects an integer");
                    assert!(
                        keys > 0,
                        "--traffic-keys must be positive (use --traffic-rate 0 to \
                         disable the workload)\n{}",
                        usage()
                    );
                    args.traffic_keys = keys;
                }
                "read-fraction" => {
                    let fraction: f64 = value.parse().expect("--read-fraction expects a number");
                    assert!(
                        (0.0..=1.0).contains(&fraction),
                        "--read-fraction must be a fraction in [0, 1], got {fraction}\n{}",
                        usage()
                    );
                    args.read_fraction = fraction;
                }
                "traffic-dist" => {
                    args.traffic_dist = value
                        .parse()
                        .unwrap_or_else(|e: String| panic!("--traffic-dist: {e}\n{}", usage()));
                }
                _ if extra_keys.contains(&key) => {
                    args.extra.insert(key.to_string(), value);
                }
                _ => panic!("unknown flag --{key}\n{}", usage()),
            }
            i += 2;
        }
        args
    }

    /// An integer from [`CommonArgs::extra`], or the default.
    pub fn extra_usize(&self, key: &str, default: usize) -> usize {
        self.extra
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// The paper scenario for the configured grid.
    pub fn paper_scenario(&self) -> PaperScenario {
        PaperScenario {
            cols: self.cols,
            rows: self.rows,
            ..Default::default()
        }
    }

    /// The link profile described by the `--net-*` flags.
    pub fn link_profile(&self) -> polystyrene_protocol::LinkProfile {
        polystyrene_protocol::LinkProfile {
            latency: self.net_latency,
            jitter: self.net_jitter,
            loss: self.net_loss,
        }
    }

    /// The substrate-agnostic lab configuration for these args: K and
    /// split applied to the protocol, the `--net-*` link profile
    /// installed, area left at the grid's surface.
    pub fn lab_config(&self, split: SplitStrategy) -> LabConfig {
        let mut cfg = LabConfig::default();
        cfg.poly = PolystyreneConfig::builder()
            .replication(self.k)
            .split(split)
            .build();
        cfg.seed = self.seed;
        cfg.area = (self.cols * self.rows) as f64;
        cfg.link = self.link_profile();
        cfg
    }
}

/// Runs the three-phase paper scenario `runs` times with consecutive
/// seeds on the cycle engine, through the one scenario driver, and
/// aggregates the traces — the runs behind Figs. 6 and 7. Also returns
/// the per-round proximity (Fig. 6b), the one series the unified
/// observation does not carry, read off the engine history. `cfg`
/// supplies K, split and the base seed; `cfg.tman_only` runs the T-Man
/// baseline.
pub fn run_quality(
    paper: &PaperScenario,
    cfg: &LabConfig,
    runs: usize,
) -> (ExperimentSummary, SeriesStats) {
    let (w, h) = paper.extents();
    let mut summary = ExperimentSummary::default();
    let mut proximity = SeriesStats::default();
    for run in 0..runs {
        let mut run_cfg = *cfg;
        run_cfg.seed = cfg.seed + run as u64;
        run_cfg.area = paper.area();
        let mut engine = build_engine(Torus2::new(w, h), paper.shape(), &run_cfg);
        summary.push(&run_experiment(&mut engine, &paper.script()));
        proximity.push_run(engine.history().iter().map(|m| m.proximity));
    }
    (summary, proximity)
}

/// Runs `paper`'s script `runs` times with consecutive seeds on the
/// given substrate and aggregates the unified observations — the
/// workhorse behind every reshaping table and every `--substrate`
/// sweep.
pub fn run_summary(
    kind: SubstrateKind,
    paper: &PaperScenario,
    base: &LabConfig,
    runs: usize,
) -> ExperimentSummary {
    summary_and_phases(kind, paper, base, runs).0
}

/// [`run_summary`] plus, on the cycle engine, its phase ledger
/// ([`Engine::phase_ns`]) summed over the runs.
fn summary_and_phases(
    kind: SubstrateKind,
    paper: &PaperScenario,
    base: &LabConfig,
    runs: usize,
) -> (ExperimentSummary, Option<[u64; ENGINE_PHASES.len()]>) {
    let (w, h) = paper.extents();
    let mut summary = ExperimentSummary::default();
    let mut phases = None;
    for run in 0..runs {
        let mut cfg = *base;
        cfg.seed = base.seed + run as u64;
        cfg.area = paper.area();
        let trace = if kind == SubstrateKind::Engine {
            let mut engine = build_engine(Torus2::new(w, h), paper.shape(), &cfg);
            let trace = run_experiment(&mut engine, &paper.script());
            let sum = phases.get_or_insert([0; ENGINE_PHASES.len()]);
            for (sum, ns) in sum.iter_mut().zip(engine.phase_ns()) {
                *sum += ns;
            }
            trace
        } else {
            let mut substrate = build_substrate(kind, Torus2::new(w, h), paper.shape(), &cfg);
            run_experiment(substrate.as_mut(), &paper.script())
        };
        summary.push(&trace);
    }
    (summary, phases)
}

/// One row of the Table II / Fig. 10 reshaping-time sweeps.
#[derive(Clone, Debug)]
pub struct ReshapingRow {
    /// Label of the row (e.g. "K=4" or a network size).
    pub label: String,
    /// Number of founding nodes.
    pub nodes: usize,
    /// Reshaping time mean ± CI95 (rounds).
    pub reshaping: ConfidenceInterval,
    /// Runs that never reshaped.
    pub unreshaped: usize,
    /// Reliability mean ± CI95 (percent).
    pub reliability: ConfidenceInterval,
    /// Wall clock spent producing this row (all its runs).
    pub elapsed: Duration,
    /// On the cycle engine, the mean wall-clock milliseconds per round
    /// of each of [`ENGINE_PHASES`] over the row's runs; `None` on the
    /// other substrates.
    pub phase_ms: Option<[f64; ENGINE_PHASES.len()]>,
}

impl ReshapingRow {
    /// Builds a row from a lab summary.
    pub fn from_summary(
        label: String,
        nodes: usize,
        summary: &ExperimentSummary,
        elapsed: Duration,
    ) -> Self {
        Self {
            label,
            nodes,
            reshaping: summary.reshaping_ci(),
            unreshaped: summary.unreshaped_runs(),
            reliability: summary.reliability_percent_ci(),
            elapsed,
            phase_ms: None,
        }
    }
}

/// One reshaping-table row: `paper`'s script run `runs` times on the
/// given substrate from the finished configuration `cfg` (K, split,
/// projection, placement, base seed, link profile), timed — the row of
/// Table II, of the Fig. 10 sweeps and of the ablations.
pub fn reshaping_row(
    kind: SubstrateKind,
    paper: &PaperScenario,
    cfg: &LabConfig,
    runs: usize,
    label: String,
) -> ReshapingRow {
    let started = Instant::now();
    let (summary, phases) = summary_and_phases(kind, paper, cfg, runs);
    let mut row =
        ReshapingRow::from_summary(label, paper.node_count(), &summary, started.elapsed());
    let rounds = f64::from(paper.script().total_rounds()) * runs as f64;
    row.phase_ms = phases.map(|ns| ns.map(|ns| ns as f64 / 1e6 / rounds));
    row
}

/// Formats a [`ReshapingRow`] table in the paper's Table II layout,
/// plus the wall-clock column of the sweep harness.
pub fn render_reshaping_table(title: &str, rows: &[ReshapingRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let reshaping = if r.reshaping.n == 0 {
                format!("— ({} runs never reshaped)", r.unreshaped)
            } else if r.unreshaped > 0 {
                format!("{} ({} runs never reshaped)", r.reshaping, r.unreshaped)
            } else {
                r.reshaping.to_string()
            };
            vec![
                r.label.clone(),
                r.nodes.to_string(),
                reshaping,
                format!(
                    "{:.2} ± {:.2}",
                    r.reliability.mean, r.reliability.half_width
                ),
                format!("{:.2}", r.elapsed.as_secs_f64()),
            ]
        })
        .collect();
    render_table(
        title,
        &[
            "config",
            "nodes",
            "reshaping time (rounds)",
            "reliability (%)",
            "wall (s)",
        ],
        &table_rows,
    )
}

/// Standard grid shapes for the scaling sweeps (Fig. 10), from 100
/// nodes to the top of the paper's "Size of network" axis (100 →
/// 100 000, log scale). The paper's largest *measured* run is the
/// 320×160 torus (51 200 nodes); the final 320×320 step carries the
/// sweep to the axis limit.
pub fn scaling_sizes(max_nodes: usize) -> Vec<(usize, usize)> {
    [
        (10, 10),
        (20, 10),
        (20, 20),
        (40, 20),
        (40, 40),
        (80, 40),
        (80, 80),
        (160, 80),
        (160, 160),
        (320, 160),
        (320, 320),
    ]
    .into_iter()
    .filter(|&(c, r)| c * r <= max_nodes)
    .collect()
}

/// `VmHWM` of `/proc/self/status` in MB, or NaN off Linux: the
/// process's peak resident set so far. Sweeps whose rows ascend in size
/// read it after each row as that row's peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean of the last `n` samples of a series (steady-state estimate).
pub fn steady_state(series: &[f64], n: usize) -> f64 {
    if series.is_empty() {
        return f64::NAN;
    }
    let tail = &series[series.len().saturating_sub(n)..];
    ci95(tail).mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_argv_accepts_common_and_declared_extra_flags() {
        let args = CommonArgs::parse_argv(
            CommonArgs::default(),
            &["max-nodes"],
            vec!["--cols", "8", "--max-nodes", "400"]
                .into_iter()
                .map(String::from)
                .collect(),
        );
        assert_eq!(args.cols, 8);
        assert_eq!(args.extra_usize("max-nodes", 0), 400);
        assert!(!args.substrate_given);
    }

    #[test]
    fn parse_argv_accepts_every_substrate() {
        for (name, kind) in [
            ("engine", SubstrateKind::Engine),
            ("netsim", SubstrateKind::Netsim),
            ("cluster", SubstrateKind::Cluster),
            ("tcp", SubstrateKind::Tcp),
        ] {
            let args = CommonArgs::parse_argv(
                CommonArgs::default(),
                &[],
                vec!["--substrate".to_string(), name.to_string()],
            );
            assert_eq!(args.substrate, kind);
            assert!(args.substrate_given);
        }
    }

    #[test]
    #[should_panic(expected = "unknown substrate \"engien\"")]
    fn parse_argv_rejects_unknown_substrate() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--substrate".to_string(), "engien".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate flag --seed")]
    fn parse_argv_rejects_duplicate_flags() {
        // Last-one-wins used to hide the copy-paste typo here: the
        // second --seed silently overrode the first.
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--seed", "1", "--cols", "8", "--seed", "2"]
                .into_iter()
                .map(String::from)
                .collect(),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate flag --max-nodes")]
    fn parse_argv_rejects_duplicate_extra_flags() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &["max-nodes"],
            vec!["--max-nodes", "400", "--max-nodes", "800"]
                .into_iter()
                .map(String::from)
                .collect(),
        );
    }

    #[test]
    fn parse_argv_accepts_net_flags() {
        let args = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec![
                "--net-latency",
                "5",
                "--net-jitter",
                "2",
                "--net-loss",
                "0.1",
                "--partition-rounds",
                "7",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        );
        assert_eq!(args.net_latency, 5);
        assert_eq!(args.net_jitter, 2);
        assert!((args.net_loss - 0.1).abs() < 1e-12);
        assert_eq!(args.partition_rounds, 7);
        let link = args.link_profile();
        assert_eq!(link.latency, 5);
        assert_eq!(link.jitter, 2);
    }

    #[test]
    #[should_panic(expected = "--net-loss must be a probability in [0, 1]")]
    fn parse_argv_rejects_out_of_range_loss() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--net-loss".to_string(), "1.5".to_string()],
        );
    }

    #[test]
    fn parse_argv_accepts_traffic_flags() {
        let args = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec![
                "--traffic-rate",
                "32",
                "--traffic-keys",
                "128",
                "--read-fraction",
                "0.75",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        );
        assert_eq!(args.traffic_rate, 32);
        assert_eq!(args.traffic_keys, 128);
        assert!((args.read_fraction - 0.75).abs() < 1e-12);
        assert_eq!(args.traffic_dist, TrafficDist::Uniform);
    }

    #[test]
    fn parse_argv_accepts_traffic_distributions() {
        let args = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--traffic-dist".to_string(), "zipf:1.2".to_string()],
        );
        match args.traffic_dist {
            TrafficDist::Zipf(s) => assert!((s - 1.2).abs() < 1e-12),
            other => panic!("expected zipf, parsed {other:?}"),
        }
        let uniform = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--traffic-dist".to_string(), "uniform".to_string()],
        );
        assert_eq!(uniform.traffic_dist, TrafficDist::Uniform);
    }

    #[test]
    #[should_panic(expected = "unknown traffic distribution")]
    fn parse_argv_rejects_unknown_traffic_distribution() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--traffic-dist".to_string(), "pareto".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "zipf exponent must be a positive finite number")]
    fn parse_argv_rejects_non_positive_zipf_exponent() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--traffic-dist".to_string(), "zipf:-1".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "--read-fraction must be a fraction in [0, 1]")]
    fn parse_argv_rejects_out_of_range_read_fraction() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--read-fraction".to_string(), "-0.2".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "--traffic-keys must be positive")]
    fn parse_argv_rejects_empty_key_universe() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--traffic-keys".to_string(), "0".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "unknown flag --traffic-rat")]
    fn parse_argv_rejects_typoed_traffic_flag() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--traffic-rat".to_string(), "8".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "unknown flag --net-los")]
    fn parse_argv_rejects_typoed_net_flag() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--net-los".to_string(), "0.1".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "unknown flag --max-node")]
    fn parse_argv_rejects_typoed_flags() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &["max-nodes"],
            vec!["--max-node".to_string(), "400".to_string()],
        );
    }

    #[test]
    #[should_panic(expected = "missing value for --seed")]
    fn parse_argv_rejects_dangling_flag() {
        let _ = CommonArgs::parse_argv(CommonArgs::default(), &[], vec!["--seed".to_string()]);
    }

    #[test]
    fn engine_figures_accept_only_the_engine() {
        let args = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--substrate".to_string(), "engine".to_string()],
        );
        assert_eq!(args.require_engine().substrate, SubstrateKind::Engine);
    }

    #[test]
    #[should_panic(expected = "--substrate netsim: this figure reads engine internals")]
    fn engine_figures_reject_other_substrates() {
        let _ = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec!["--substrate".to_string(), "netsim".to_string()],
        )
        .require_engine();
    }

    #[test]
    fn lab_config_carries_k_split_and_link() {
        let args = CommonArgs::parse_argv(
            CommonArgs::default(),
            &[],
            vec![
                "--k",
                "8",
                "--cols",
                "10",
                "--rows",
                "10",
                "--net-loss",
                "0.2",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        );
        let cfg = args.lab_config(SplitStrategy::Advanced);
        assert_eq!(cfg.poly.replication, 8);
        assert_eq!(cfg.area, 100.0);
        assert!((cfg.link.loss - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scaling_sizes_filtered_and_sorted() {
        let sizes = scaling_sizes(3200);
        assert_eq!(sizes.first(), Some(&(10, 10)));
        assert_eq!(sizes.last(), Some(&(80, 40)));
        assert!(sizes.iter().all(|&(c, r)| c * r <= 3200));
        let all = scaling_sizes(usize::MAX);
        assert_eq!(all.last(), Some(&(320, 320)));
        assert_eq!(all.last().map(|&(c, r)| c * r), Some(102_400));
        assert_eq!(scaling_sizes(51_200).last(), Some(&(320, 160)));
    }

    #[test]
    fn steady_state_tail_mean() {
        assert!((steady_state(&[1.0, 2.0, 3.0, 5.0], 2) - 4.0).abs() < 1e-12);
        assert!(steady_state(&[], 3).is_nan());
        assert!((steady_state(&[2.0], 10) - 2.0).abs() < 1e-12);
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
    fn reshaping_table_renders_unreshaped_marker() {
        let rows = vec![ReshapingRow {
            label: "K=2".into(),
            nodes: 100,
            reshaping: ConfidenceInterval {
                mean: 0.0,
                half_width: 0.0,
                n: 0,
            },
            unreshaped: 3,
            reliability: ConfidenceInterval {
                mean: 50.0,
                half_width: 1.0,
                n: 3,
            },
            elapsed: Duration::from_millis(1234),
            phase_ms: None,
        }];
        let t = render_reshaping_table("T", &rows);
        assert!(t.contains("never reshaped"));
        assert!(t.contains("wall (s)"));
        assert!(t.contains("1.23"));
    }

    #[test]
    fn tiny_end_to_end_table2_row() {
        let paper = PaperScenario::reshaping_only(12, 6, 8, 25);
        let mut cfg = LabConfig::default();
        cfg.poly.replication = 3;
        let row = reshaping_row(SubstrateKind::Engine, &paper, &cfg, 2, "K=3".into());
        assert_eq!(row.nodes, 72);
        assert!(row.reliability.mean > 70.0);
    }

    #[test]
    fn tiny_quality_run_aggregates() {
        let paper = PaperScenario {
            cols: 12,
            rows: 6,
            step: 1.0,
            failure_round: 10,
            inject_round: None,
            total_rounds: 30,
        };
        let mut cfg = LabConfig::default();
        cfg.poly.replication = 3;
        let (summary, proximity) = run_quality(&paper, &cfg, 2);
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.homogeneity.len(), 30);
        assert_eq!(proximity.len(), 30);
        assert_eq!(summary.reference_homogeneity.len(), 30);
        assert_eq!(summary.reliabilities.len(), 2);
        assert_eq!(summary.recovered_runs() + summary.unreshaped_runs(), 2);
        assert!(summary.unreshaped_runs() == 0, "tiny torus must reshape");
        // The baseline heals links but the shape is lost for good.
        cfg.tman_only = true;
        let (tman, _) = run_quality(&paper, &cfg, 1);
        assert_eq!(tman.recovered_runs(), 0);
        assert_eq!(tman.unreshaped_runs(), 1);
        assert!(tman.reliability_percent_ci().mean < 60.0);
    }
}
