//! The `figures` driver: every table and figure of the paper, an
//! ablation, the extensions and the baseline differ, one module each
//! under [`figures`], run as subcommands of the one binary
//! (`src/bin/figures.rs`; the README's "Reproducing the paper's
//! figures" lists each with its flags):
//!
//! * paper: `fig1_tman_failure`, `fig6_7_quality`, `fig8_9_snapshots`,
//!   `table2_reshaping`, `fig10a_scaling`, `fig10b_split`;
//! * ablations: `ablation` (projection, K, backup placement);
//! * extensions: `ext_routing_recovery`, `substrate_matrix`,
//!   `fig_loss_latency`, `fig_traffic`, `fig_traffic_scale`,
//!   `fig_tcp_loopback`;
//! * `diff`, the CI gate over their JSON artifacts.
//!
//! ```text
//! figures <command> [--flag value]...
//! figures table2_reshaping --runs 1
//! figures diff --baseline crates/bench/baselines/BENCH_matrix.json \
//!     --current target/experiments/substrate_matrix.json
//! ```
//!
//! Each subcommand accepts exactly the flags it reads
//! ([`figures::COMMANDS`]); any other flag, a repeated one or a
//! malformed value panics with its usage list. The figures with a
//! `--substrate` flag drive that substrate through the unified
//! experiment plane (`polystyrene-lab`): one `Substrate` seam, one
//! scenario driver, one observation record. The three that read engine
//! internals (`fig6_7_quality`, `fig8_9_snapshots`,
//! `ext_routing_recovery`) have no such flag. A figure hands its
//! artifacts and failed gates back as an [`Output`]; the driver writes
//! the files into `--out` and exits 1 on any failure.
//! `tests/gates.rs` gates steady-state allocations and live heap per
//! node with a counting allocator; wall-clock timing lives in the repo
//! benchmark (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod minijson;
pub mod report;
pub mod snapshot;

use polystyrene::prelude::SplitStrategy;
use polystyrene_lab::{
    build_substrate, run_experiment, ExperimentSummary, SeriesStats, SubstrateKind,
};
use polystyrene_protocol::{LinkProfile, SubstrateConfig};
use polystyrene_sim::prelude::*;
use polystyrene_space::stats::{ci95, ConfidenceInterval};
use polystyrene_space::torus::Torus2;
use report::render_table;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

pub use polystyrene_lab::json_f64;

/// Heap allocations (and reallocations) so far, counted by the
/// `figures` binary's global allocator; it stays 0 in a process
/// without that allocator, such as a test binary.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// One subcommand's command line: `--key value` pairs whose keys the
/// subcommand declared. Each value is parsed where the subcommand reads
/// it, against the default it passes there.
#[derive(Clone, Debug)]
pub struct Args {
    flags: &'static [&'static str],
    values: Vec<(String, String)>,
}

/// The usage line: every accepted flag, sorted.
fn usage(flags: &[&str]) -> String {
    let mut keys: Vec<String> = flags.iter().map(|k| format!("--{k}")).collect();
    keys.sort();
    format!("accepted flags (each takes a value): {}", keys.join(" "))
}

impl Args {
    /// Parses `--key value` pairs; `flags` lists every key the
    /// subcommand reads.
    ///
    /// Any other key is rejected with a usage message listing the
    /// accepted ones — a typo like `--max-node`, or `--k` for a figure
    /// that sweeps K itself, must fail loudly instead of running with
    /// defaults. So must a *repeated* flag: last-one-wins silently
    /// discarded half of a sweep script's intent when a line was
    /// copy-pasted and only one occurrence edited.
    ///
    /// # Errors
    ///
    /// The message, usage list included, for a malformed pair, an
    /// undeclared flag, or a duplicate.
    pub fn try_parse(flags: &'static [&'static str], argv: &[String]) -> Result<Self, String> {
        let mut values: Vec<(String, String)> = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {arg:?}\n{}", usage(flags)))?;
            let value = argv
                .next()
                .ok_or_else(|| format!("missing value for --{key}\n{}", usage(flags)))?;
            if !flags.contains(&key) {
                return Err(format!("unknown flag --{key}\n{}", usage(flags)));
            }
            if values.iter().any(|(k, _)| k == key) {
                return Err(format!(
                    "duplicate flag --{key} (each flag may appear once)\n{}",
                    usage(flags)
                ));
            }
            values.push((key.to_string(), value.clone()));
        }
        Ok(Self { flags, values })
    }

    /// [`Args::try_parse`].
    ///
    /// # Panics
    ///
    /// With [`Args::try_parse`]'s message where that returns an error.
    pub fn parse(flags: &'static [&'static str], argv: &[String]) -> Self {
        Self::try_parse(flags, argv).unwrap_or_else(|e| panic!("{e}"))
    }

    fn value(&self, key: &str) -> Option<&str> {
        assert!(
            self.flags.contains(&key),
            "--{key} is read but not among the declared flags"
        );
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `--key` was passed (the figures whose default is a set of
    /// substrates check this for `--substrate`).
    pub fn given(&self, key: &str) -> bool {
        self.value(key).is_some()
    }

    /// The value of `--key`, or `default` when the flag is absent.
    ///
    /// # Panics
    ///
    /// With the usage list when the value does not parse as a `T`.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.value(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|e| panic!("--{key} {v:?}: {e}\n{}", usage(self.flags)))
        })
    }

    /// The link profile of the `--net-latency`, `--net-jitter` and
    /// `--net-loss` flags, from the figure's default latency and jitter
    /// and no loss.
    ///
    /// # Panics
    ///
    /// As [`Args::get`], and when the loss is not a probability.
    pub fn link(&self, latency: u64, jitter: u64) -> LinkProfile {
        let loss: f64 = self.get("net-loss", 0.0);
        assert!(
            (0.0..=1.0).contains(&loss),
            "--net-loss must be a probability in [0, 1], got {loss}\n{}",
            usage(self.flags)
        );
        LinkProfile {
            latency: self.get("net-latency", latency),
            jitter: self.get("net-jitter", jitter),
            loss,
        }
    }

    /// `--read-fraction`: the share of traffic requests that are reads
    /// (default 0.9).
    ///
    /// # Panics
    ///
    /// As [`Args::get`], and when the value is outside `[0, 1]`.
    pub fn read_fraction(&self) -> f64 {
        let fraction: f64 = self.get("read-fraction", 0.9);
        assert!(
            (0.0..=1.0).contains(&fraction),
            "--read-fraction must be a fraction in [0, 1], got {fraction}\n{}",
            usage(self.flags)
        );
        fraction
    }

    /// `--traffic-keys`: the size of the workload's key universe.
    ///
    /// # Panics
    ///
    /// As [`Args::get`], and when the value is 0.
    pub fn traffic_keys(&self, default: usize) -> usize {
        let keys = self.get("traffic-keys", default);
        assert!(
            keys > 0,
            "--traffic-keys must be positive\n{}",
            usage(self.flags)
        );
        keys
    }
}

/// What a subcommand hands back to the driver: the artifacts it made,
/// which the driver writes into `--out`, and the gates it failed.
#[derive(Debug, Default)]
pub struct Output {
    files: Vec<(String, String)>,
    failures: Vec<String>,
}

impl Output {
    /// Adds the artifact `name` with its full text.
    pub fn file(&mut self, name: impl Into<String>, text: String) {
        self.files.push((name.into(), text));
    }

    /// Adds the CSV artifact `name` ([`report::csv`]).
    pub fn csv(&mut self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        self.file(name, report::csv(headers, rows));
    }

    /// Records a failed gate; the driver prints it after `FAIL: ` and
    /// exits 1.
    pub fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }

    /// The failed gates so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Writes the artifacts into `--out` (default
    /// `target/experiments`), names them on stdout, and returns the
    /// failed gates. Only a subcommand with artifacts reads `--out`.
    ///
    /// # Panics
    ///
    /// When the directory or a file cannot be written.
    pub fn finish(self, args: &Args) -> Vec<String> {
        if !self.files.is_empty() {
            let dir: PathBuf = args.get("out", PathBuf::from("target/experiments"));
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
            for (name, text) in &self.files {
                let path = dir.join(name);
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            }
            let names: Vec<&str> = self.files.iter().map(|(name, _)| name.as_str()).collect();
            println!("\nwritten to {}: {}", dir.display(), names.join(", "));
        }
        self.failures
    }
}

/// The lab configuration the figures start from: K replicas and
/// `split` on the protocol, the base seed and the link profile; the
/// runners set the area per scenario.
pub fn lab_config(k: usize, split: SplitStrategy, seed: u64, link: LinkProfile) -> SubstrateConfig {
    let mut cfg = SubstrateConfig::default();
    cfg.poly.replication = k;
    cfg.poly.split = split;
    cfg.seed = seed;
    cfg.link = link;
    cfg
}

/// Runs the three-phase paper scenario `runs` times with consecutive
/// seeds on the cycle engine, through the one scenario driver, and
/// aggregates the traces — the runs behind Figs. 6 and 7. Also returns
/// the per-round proximity (Fig. 6b), the one series the unified
/// observation does not carry, read off the engine history. `cfg`
/// supplies K, split and the base seed; `tman_only` runs the T-Man
/// baseline ([`Engine::disable_polystyrene`]).
pub fn run_quality(
    paper: &PaperScenario,
    cfg: &SubstrateConfig,
    tman_only: bool,
    runs: usize,
) -> (ExperimentSummary, SeriesStats) {
    let (w, h) = paper.extents();
    let mut summary = ExperimentSummary::default();
    let mut proximity = SeriesStats::default();
    for run in 0..runs {
        let mut run_cfg = *cfg;
        run_cfg.seed = cfg.seed + run as u64;
        run_cfg.area = paper.area();
        let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), run_cfg);
        if tman_only {
            engine.disable_polystyrene();
        }
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
    base: &SubstrateConfig,
    runs: usize,
) -> ExperimentSummary {
    summary_and_phases(kind, paper, base, runs).0
}

/// [`run_summary`] plus, on the cycle engine, its phase ledger
/// ([`Engine::phase_ns`]) summed over the runs.
fn summary_and_phases(
    kind: SubstrateKind,
    paper: &PaperScenario,
    base: &SubstrateConfig,
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
            let mut engine = Engine::new(Torus2::new(w, h), paper.shape(), cfg);
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
    cfg: &SubstrateConfig,
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

/// The default top of a Fig. 10 sweep on `kind`. The live clusters run
/// every node on one worker pool (a thread per core) in wall-clock
/// ticks, so their rounds cost real time at every size and their sweep
/// stops at 400 nodes until larger grids have been measured.
pub fn default_max_nodes(kind: SubstrateKind) -> usize {
    match kind {
        SubstrateKind::Engine | SubstrateKind::Netsim => 6400,
        SubstrateKind::Cluster | SubstrateKind::Tcp => 400,
    }
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
    use polystyrene_lab::{Series, TrafficDist};

    /// The flags the parser tests declare.
    const FLAGS: &[&str] = &[
        "cols",
        "k",
        "seed",
        "out",
        "substrate",
        "max-nodes",
        "net-latency",
        "net-jitter",
        "net-loss",
        "partition-rounds",
        "traffic-rate",
        "traffic-keys",
        "read-fraction",
        "traffic-dist",
    ];

    fn parse(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(FLAGS, &argv)
    }

    #[test]
    fn parse_argv_accepts_common_and_declared_extra_flags() {
        let args = parse(&["--cols", "8", "--max-nodes", "400"]);
        assert_eq!(args.get("cols", 80usize), 8);
        assert_eq!(args.get("max-nodes", 0usize), 400);
        assert_eq!(args.get("seed", 1u64), 1);
        assert!(!args.given("substrate"));
    }

    #[test]
    #[should_panic(expected = "--runs is read but not among the declared flags")]
    fn reading_an_undeclared_flag_panics() {
        let _ = parse(&[]).get("runs", 1usize);
    }

    #[test]
    fn parse_argv_accepts_every_substrate() {
        for (name, kind) in [
            ("engine", SubstrateKind::Engine),
            ("netsim", SubstrateKind::Netsim),
            ("cluster", SubstrateKind::Cluster),
            ("tcp", SubstrateKind::Tcp),
        ] {
            let args = parse(&["--substrate", name]);
            assert_eq!(args.get("substrate", SubstrateKind::Engine), kind);
            assert!(args.given("substrate"));
        }
    }

    #[test]
    #[should_panic(expected = "unknown substrate \"engien\"")]
    fn parse_argv_rejects_unknown_substrate() {
        let _ = parse(&["--substrate", "engien"]).get("substrate", SubstrateKind::Engine);
    }

    #[test]
    #[should_panic(expected = "duplicate flag --seed")]
    fn parse_argv_rejects_duplicate_flags() {
        // Last-one-wins used to hide the copy-paste typo here: the
        // second --seed silently overrode the first.
        let _ = parse(&["--seed", "1", "--cols", "8", "--seed", "2"]);
    }

    #[test]
    #[should_panic(expected = "duplicate flag --max-nodes")]
    fn parse_argv_rejects_duplicate_extra_flags() {
        let _ = parse(&["--max-nodes", "400", "--max-nodes", "800"]);
    }

    #[test]
    fn parse_argv_accepts_net_flags() {
        let args = parse(&[
            "--net-latency",
            "5",
            "--net-jitter",
            "2",
            "--net-loss",
            "0.1",
            "--partition-rounds",
            "7",
        ]);
        let link = args.link(2, 1);
        assert_eq!(link.latency, 5);
        assert_eq!(link.jitter, 2);
        assert!((link.loss - 0.1).abs() < 1e-12);
        assert_eq!(args.get("partition-rounds", 0u32), 7);
        let defaults = parse(&[]).link(2, 1);
        assert_eq!((defaults.latency, defaults.jitter), (2, 1));
        assert_eq!(defaults.loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "--net-loss must be a probability in [0, 1]")]
    fn parse_argv_rejects_out_of_range_loss() {
        let _ = parse(&["--net-loss", "1.5"]).link(2, 1);
    }

    #[test]
    fn parse_argv_accepts_traffic_flags() {
        let args = parse(&[
            "--traffic-rate",
            "32",
            "--traffic-keys",
            "128",
            "--read-fraction",
            "0.75",
        ]);
        assert_eq!(args.get("traffic-rate", 16usize), 32);
        assert_eq!(args.traffic_keys(64), 128);
        assert!((args.read_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(
            args.get("traffic-dist", TrafficDist::Uniform),
            TrafficDist::Uniform
        );
    }

    #[test]
    fn parse_argv_accepts_traffic_distributions() {
        let args = parse(&["--traffic-dist", "zipf:1.2"]);
        match args.get("traffic-dist", TrafficDist::Uniform) {
            TrafficDist::Zipf(s) => assert!((s - 1.2).abs() < 1e-12),
            other => panic!("expected zipf, parsed {other:?}"),
        }
        let uniform = parse(&["--traffic-dist", "uniform"]);
        assert_eq!(
            uniform.get("traffic-dist", TrafficDist::Zipf(0.99)),
            TrafficDist::Uniform
        );
    }

    #[test]
    #[should_panic(expected = "unknown traffic distribution")]
    fn parse_argv_rejects_unknown_traffic_distribution() {
        let _ = parse(&["--traffic-dist", "pareto"]).get("traffic-dist", TrafficDist::Uniform);
    }

    #[test]
    #[should_panic(expected = "zipf exponent must be a positive finite number")]
    fn parse_argv_rejects_non_positive_zipf_exponent() {
        let _ = parse(&["--traffic-dist", "zipf:-1"]).get("traffic-dist", TrafficDist::Uniform);
    }

    #[test]
    #[should_panic(expected = "--read-fraction must be a fraction in [0, 1]")]
    fn parse_argv_rejects_out_of_range_read_fraction() {
        let _ = parse(&["--read-fraction", "-0.2"]).read_fraction();
    }

    #[test]
    #[should_panic(expected = "--traffic-keys must be positive")]
    fn parse_argv_rejects_empty_key_universe() {
        let _ = parse(&["--traffic-keys", "0"]).traffic_keys(64);
    }

    #[test]
    #[should_panic(expected = "unknown flag --traffic-rat")]
    fn parse_argv_rejects_typoed_traffic_flag() {
        let _ = parse(&["--traffic-rat", "8"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --net-los")]
    fn parse_argv_rejects_typoed_net_flag() {
        let _ = parse(&["--net-los", "0.1"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --max-node")]
    fn parse_argv_rejects_typoed_flags() {
        let _ = parse(&["--max-node", "400"]);
    }

    #[test]
    #[should_panic(expected = "missing value for --seed")]
    fn parse_argv_rejects_dangling_flag() {
        let _ = parse(&["--seed"]);
    }

    #[test]
    #[should_panic(expected = "--cols \"eight\"")]
    fn parse_argv_rejects_malformed_values() {
        let _ = parse(&["--cols", "eight"]).get("cols", 80usize);
    }

    /// The three figures that read engine internals run on the engine
    /// and declare no `--substrate` at all, so not even `engine` is
    /// accepted.
    #[test]
    fn engine_figures_accept_only_the_engine() {
        for name in ["fig6_7_quality", "fig8_9_snapshots", "ext_routing_recovery"] {
            let command = figures::COMMANDS
                .iter()
                .find(|c| c.name == name)
                .expect("a subcommand");
            assert!(!command.flags.contains(&"substrate"), "{name}");
            let err = Args::try_parse(command.flags, &["--substrate".into(), "engine".into()])
                .expect_err(name);
            assert!(err.starts_with("unknown flag --substrate\naccepted flags"));
        }
    }

    #[test]
    #[should_panic(expected = "unknown flag --substrate")]
    fn engine_figures_reject_other_substrates() {
        let _ = figures::parse(&[
            "fig6_7_quality".into(),
            "--substrate".into(),
            "netsim".into(),
        ]);
    }

    #[test]
    fn lab_config_carries_k_split_and_link() {
        let args = parse(&["--k", "8", "--net-loss", "0.2"]);
        let cfg = lab_config(
            args.get("k", 4),
            SplitStrategy::Basic,
            args.get("seed", 1),
            args.link(2, 1),
        );
        assert_eq!(cfg.poly.replication, 8);
        assert_eq!(cfg.poly.split, SplitStrategy::Basic);
        assert_eq!(cfg.seed, 1);
        assert!((cfg.link.loss - 0.2).abs() < 1e-12);
    }

    #[test]
    fn output_writes_its_files_into_out_and_returns_its_failures() {
        let dir = std::env::temp_dir().join(format!("figures-output-{}", std::process::id()));
        let args = parse(&["--out", dir.to_str().expect("utf-8 temp dir")]);
        let mut out = Output::default();
        out.csv("a.csv", &["x"], &[vec!["1".into()]]);
        out.file("b.json", "{}\n".into());
        out.fail("gate".into());
        assert_eq!(out.finish(&args), vec!["gate".to_string()]);
        assert_eq!(
            std::fs::read_to_string(dir.join("a.csv")).unwrap(),
            "x\n1\n"
        );
        assert_eq!(std::fs::read_to_string(dir.join("b.json")).unwrap(), "{}\n");
        std::fs::remove_dir_all(dir).ok();
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
        let mut cfg = SubstrateConfig::default();
        cfg.seed = 1;
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
        let mut cfg = SubstrateConfig::default();
        cfg.seed = 1;
        cfg.poly.replication = 3;
        let (summary, proximity) = run_quality(&paper, &cfg, false, 2);
        assert_eq!(summary.runs, 2);
        assert_eq!(summary[Series::Homogeneity].len(), 30);
        assert_eq!(proximity.len(), 30);
        assert_eq!(summary[Series::ReferenceHomogeneity].len(), 30);
        assert_eq!(summary.reliabilities.len(), 2);
        assert_eq!(summary.recovered_runs() + summary.unreshaped_runs(), 2);
        assert!(summary.unreshaped_runs() == 0, "tiny torus must reshape");
        // The baseline heals links but the shape is lost for good.
        let (tman, _) = run_quality(&paper, &cfg, true, 1);
        assert_eq!(tman.recovered_runs(), 0);
        assert_eq!(tman.unreshaped_runs(), 1);
        assert!(tman.reliability_percent_ci().mean < 60.0);
    }
}
