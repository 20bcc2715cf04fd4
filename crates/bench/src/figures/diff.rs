//! **Baseline differ** — the CI regression gate over the figures' JSON
//! artifacts (the committed `crates/bench/baselines/BENCH_*.json`).
//!
//! Compares the current run against a committed baseline snapshot and
//! fails when any tracked metric gets worse by more than
//! `--max-regression` (default 0.25, i.e. 25%), or at all where the
//! metric is exact:
//!
//! * `mean_reshaping_rounds` per substrate entry — convergence speed,
//! * `mean_cost_units` per substrate entry — the paper's bandwidth
//!   unit price (Sec. IV-A),
//! * `mean_traffic_availability` per substrate entry, when present —
//!   the traffic plane's served fraction, gated as its complement
//!   (unavailability is lower-is-better) against an absolute floor,
//! * `wall_secs` per substrate from the artifact metadata — real time,
//! * `allocs_per_round` from the artifact metadata, when present — the
//!   netsim sweep's steady-state allocation count, gated exactly: the
//!   sweep is seeded and counts the same on any core count.
//!
//! Other keys are carried along, not read: `fig_loss_latency`'s
//! per-row `peak_rss_mb`, for one, depends on the allocator and the box.
//!
//! Improvements (lower values) always pass; a substrate present in the
//! baseline but missing from the current run is a failure, so the gate
//! cannot be dodged by dropping a substrate from the matrix. Noisy
//! metrics (wall-clock everywhere, round counts on the live threaded
//! substrates) are gated against a denominator *floor* so small
//! baselines are judged on absolute drift instead of timer noise. The
//! deterministic substrates' (engine, netsim) round and cost metrics
//! are exact: the scenario is seeded and replays bit for bit, so any
//! increase over the committed value fails.
//!
//! ```sh
//! figures diff --baseline crates/bench/baselines/BENCH_matrix.json \
//!     --current target/experiments/substrate_matrix.json
//! ```

use crate::minijson::{parse, Json};
use crate::{Args, Output};

/// The flags the differ reads; it writes no file.
pub const FLAGS: &[&str] = &["baseline", "current", "max-regression"];

/// Denominator floor for wall-clock comparisons: a 25% gate on a
/// 5-second floor allows 1.25 s of absolute drift, which covers the
/// live substrates' run-to-run scheduler noise while still catching an
/// order-of-magnitude blow-up.
const WALL_FLOOR_SECS: f64 = 5.0;

/// Denominator floor for `mean_reshaping_rounds` on the *live*
/// substrates (cluster, tcp), whose round counts are quantized and
/// wall-clock-scheduling dependent (observed drifting 1–8 rounds run
/// to run on the shared scenario). A 25% gate on a 20-round floor
/// allows 5 rounds of absolute drift — beyond anything the scenario
/// produces by timing alone — while a convergence regression that
/// doubles the budget still trips. The deterministic substrates
/// (engine, netsim) reproduce their round counts exactly and are gated
/// exactly.
const LIVE_ROUNDS_FLOOR: f64 = 20.0;

/// Denominator floor for the traffic plane's unserved fraction
/// (`1 − mean_traffic_availability`). The deterministic substrates
/// serve the catastrophe scenario at ~98–99% mean availability, so the
/// baseline unavailability is a couple of percent; gating it exactly
/// would let one extra dropped query per run trip the diff. A 25% gate
/// on a 0.02 floor allows half a point of absolute availability drift
/// while a substrate that stops serving queries still fails loudly.
const UNAVAILABILITY_FLOOR: f64 = 0.02;

/// Substrates whose scenario runs are bit-reproducible; everything
/// else is a live threaded deployment with wall-clock jitter.
///
/// In the matrix artifact the entry *labels* name substrates; in a
/// single-substrate artifact (e.g. `fig_loss_latency`'s sweep, whose
/// labels are `loss=0.05` rows) the substrate is named once in the
/// document metadata and covers every entry — see
/// [`doc_is_deterministic`].
fn is_deterministic(label: &str) -> bool {
    matches!(label, "engine" | "netsim")
}

/// Whether the document's `substrate` metadata pins every entry to a
/// deterministic substrate (absent in the matrix artifact, where the
/// per-entry label decides instead).
fn doc_is_deterministic(doc: &Json) -> bool {
    doc.get("substrate")
        .and_then(Json::as_str)
        .is_some_and(is_deterministic)
}

/// One tracked metric for one substrate: where it was, where it is.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// `label/metric`, or the metadata key.
    pub what: String,
    /// The committed value.
    pub baseline: f64,
    /// This run's value.
    pub current: f64,
    /// Minimum denominator for the relative change. Zero for the
    /// deterministic metrics; wall-clock uses `WALL_FLOOR_SECS` so that short
    /// baselines (the deterministic substrates finish in milliseconds,
    /// the live ones in a couple of seconds with ±30% scheduler noise
    /// on the 1-core CI box) are gated on absolute seconds rather than
    /// timer noise, while genuinely long benches stay relatively gated.
    pub floor: f64,
    /// Whether any increase fails, whatever `--max-regression` allows:
    /// a value the run reproduces exactly.
    pub exact: bool,
}

impl Comparison {
    /// Fractional change; positive = worse (all tracked metrics are
    /// lower-is-better).
    pub fn regression(&self) -> f64 {
        let denom = self.baseline.max(self.floor);
        if denom <= 0.0 {
            // A zero baseline can't be regressed against in relative
            // terms; treat any measurable current value as neutral.
            0.0
        } else {
            (self.current - self.baseline) / denom
        }
    }

    /// Whether this comparison fails under `max_regression`.
    pub fn fails(&self, max_regression: f64) -> bool {
        self.regression() > if self.exact { 0.0 } else { max_regression }
    }
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("failed to read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("failed to parse {path}: {e}"))
}

/// The `entries` array keyed by each entry's `label`.
fn entries_by_label(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("entries")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|e| e.get("label").and_then(Json::as_str).map(|l| (l, e)))
                .collect()
        })
        .unwrap_or_default()
}

fn lookup<'a>(entries: &[(&str, &'a Json)], label: &str) -> Option<&'a Json> {
    entries.iter().find(|(l, _)| *l == label).map(|(_, e)| *e)
}

/// Compares the `current` artifact against its `baseline`: every
/// tracked metric, and the failures — a metric more than
/// `max_regression` worse, or one the baseline measured and the current
/// run does not.
pub fn compare(baseline: &Json, current: &Json, max_regression: f64) -> (Vec<Comparison>, Vec<String>) {
    let baseline_entries = entries_by_label(baseline);
    let current_entries = entries_by_label(current);
    let all_deterministic = doc_is_deterministic(baseline);

    let mut comparisons: Vec<Comparison> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // Per-entry metrics. The baseline drives the loop: every substrate
    // it measured must still be measured.
    for (label, base_entry) in &baseline_entries {
        let Some(cur_entry) = lookup(&current_entries, label) else {
            failures.push(format!(
                "{label}: present in baseline, missing from current run"
            ));
            continue;
        };
        let deterministic = all_deterministic || is_deterministic(label);
        for metric in ["mean_reshaping_rounds", "mean_cost_units"] {
            let base = base_entry.get(metric).and_then(Json::as_f64);
            let cur = cur_entry.get(metric).and_then(Json::as_f64);
            match (base, cur) {
                (Some(b), Some(c)) => comparisons.push(Comparison {
                    what: format!("{label}/{metric}"),
                    baseline: b,
                    current: c,
                    floor: if metric == "mean_reshaping_rounds" && !deterministic {
                        LIVE_ROUNDS_FLOOR
                    } else {
                        0.0
                    },
                    exact: deterministic,
                }),
                (Some(_), None) => {
                    failures.push(format!("{label}/{metric}: measured in baseline, null now"))
                }
                // Metric absent from the baseline: nothing to gate on.
                (None, _) => {}
            }
        }
        // Availability is the one higher-is-better metric; gate its
        // complement (the unserved fraction) through the same
        // lower-is-better machinery. The floor keeps a near-perfect
        // baseline (unavailability ~0.01) from turning sub-percent
        // drift into a huge relative regression: 25% of a 0.02 floor
        // allows half a point of absolute availability drift.
        if let Some(b) = base_entry
            .get("mean_traffic_availability")
            .and_then(Json::as_f64)
        {
            match cur_entry
                .get("mean_traffic_availability")
                .and_then(Json::as_f64)
            {
                Some(c) => comparisons.push(Comparison {
                    what: format!("{label}/traffic_unavailability"),
                    baseline: 1.0 - b,
                    current: 1.0 - c,
                    floor: UNAVAILABILITY_FLOOR,
                    exact: false,
                }),
                None => failures.push(format!(
                    "{label}/mean_traffic_availability: measured in baseline, null now"
                )),
            }
        }
    }

    // Wall-clock from the metadata object.
    if let Some(base_walls) = baseline.get("wall_secs").and_then(Json::as_obj) {
        let cur_walls = current.get("wall_secs").and_then(Json::as_obj);
        for (label, base) in base_walls {
            let Some(b) = base.as_f64() else { continue };
            let cur = cur_walls
                .and_then(|w| w.iter().find(|(l, _)| l == label))
                .and_then(|(_, v)| v.as_f64());
            match cur {
                Some(c) => comparisons.push(Comparison {
                    what: format!("{label}/wall_secs"),
                    baseline: b,
                    current: c,
                    floor: WALL_FLOOR_SECS,
                    exact: false,
                }),
                None => failures.push(format!(
                    "{label}/wall_secs: measured in baseline, missing from current run"
                )),
            }
        }
    }

    // Scalar metadata metrics (lower-is-better, exact): currently the
    // netsim sweep's allocation count, which a seeded sweep reproduces
    // to the allocation. A baseline that measured it must keep being
    // measured — dropping the scalar is a failure, exactly like
    // dropping a substrate.
    if let Some(b) = baseline.get("allocs_per_round").and_then(Json::as_f64) {
        match current.get("allocs_per_round").and_then(Json::as_f64) {
            Some(c) => comparisons.push(Comparison {
                what: "allocs_per_round".to_string(),
                baseline: b,
                current: c,
                floor: 0.0,
                exact: true,
            }),
            None => failures.push(
                "allocs_per_round: measured in baseline, missing from current run".to_string(),
            ),
        }
    }

    if comparisons.is_empty() && failures.is_empty() {
        failures.push("no comparable metrics found — wrong files?".to_string());
    }
    for c in &comparisons {
        if c.fails(max_regression) {
            let limit = if c.exact {
                "exact".to_string()
            } else {
                format!("limit +{:.0}%", max_regression * 100.0)
            };
            failures.push(format!(
                "{}: {:.3} -> {:.3} (+{:.1}%, {limit})",
                c.what,
                c.baseline,
                c.current,
                c.regression() * 100.0,
            ));
        }
    }
    (comparisons, failures)
}

/// Runs the differ: prints every comparison and fails on each
/// [`compare`] failure.
pub fn run(args: &Args) -> Output {
    let baseline_path: String = args.get("baseline", String::new());
    let current_path: String = args.get("current", String::new());
    let max_regression = args.get("max-regression", 0.25);
    assert!(!baseline_path.is_empty(), "--baseline is required");
    assert!(!current_path.is_empty(), "--current is required");
    let (comparisons, failures) = compare(
        &load(&baseline_path),
        &load(&current_path),
        max_regression,
    );
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "metric", "baseline", "current", "change"
    );
    for c in &comparisons {
        let verdict = if c.fails(max_regression) { "  FAIL" } else { "" };
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>+7.1}%{verdict}",
            c.what,
            c.baseline,
            c.current,
            c.regression() * 100.0
        );
    }
    let mut out = Output::default();
    if failures.is_empty() {
        println!(
            "\nOK: {} metric(s) within +{:.0}% of baseline",
            comparisons.len(),
            max_regression * 100.0
        );
    } else {
        eprintln!();
    }
    for f in failures {
        out.fail(f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-substrate matrix artifact: the engine's and the cluster's
    /// reshaping rounds and wall-clock seconds.
    fn matrix(engine: (f64, f64), cluster: (f64, f64)) -> Json {
        parse(&format!(
            "{{\"figure\":\"substrate_matrix\",\
             \"wall_secs\":{{\"engine\":{},\"cluster\":{}}},\
             \"entries\":[{{\"label\":\"engine\",\"mean_reshaping_rounds\":{}}},\
             {{\"label\":\"cluster\",\"mean_reshaping_rounds\":{}}}]}}",
            engine.1, cluster.1, engine.0, cluster.0
        ))
        .expect("valid JSON")
    }

    fn failures(baseline: &Json, current: &Json) -> Vec<String> {
        compare(baseline, current, 0.25).1
    }

    #[test]
    fn deterministic_reshaping_rounds_have_no_floor() {
        // One round more on a 2-round engine baseline is +50 %.
        let f = failures(&matrix((2.0, 0.1), (6.0, 1.0)), &matrix((3.0, 0.1), (6.0, 1.0)));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("engine/mean_reshaping_rounds: 2.000 -> 3.000"));
    }

    #[test]
    fn deterministic_entry_metrics_fail_on_any_increase() {
        // +2.5 % is inside the 25 % gate, but the engine replays exactly.
        let baseline = matrix((2.0, 0.1), (6.0, 1.0));
        let f = failures(&baseline, &matrix((2.05, 0.1), (6.0, 1.0)));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].starts_with("engine/mean_reshaping_rounds: 2.000 -> 2.050 (+2.5%, exact)"),
            "{f:?}"
        );
        assert!(failures(&baseline, &matrix((1.95, 0.1), (6.0, 1.0))).is_empty());
        // The live cluster keeps its 20-round floor: +1 round passes.
        assert!(failures(&baseline, &matrix((2.0, 0.1), (7.0, 1.0))).is_empty());
        // Cost units of a single-substrate netsim artifact are exact too.
        let sweep = |cost: f64| {
            parse(&format!(
                "{{\"substrate\":\"netsim\",\"entries\":[{{\"label\":\"loss=0\",\"mean_cost_units\":{cost}}}]}}"
            ))
            .unwrap()
        };
        let f = failures(&sweep(120.0), &sweep(120.01));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("loss=0/mean_cost_units: 120.000 -> 120.010"));
        assert!(failures(&sweep(120.0), &sweep(119.0)).is_empty());
    }

    #[test]
    fn live_round_drift_inside_the_floor_passes() {
        // +4 rounds on the cluster is +67 % of its baseline but 20 % of
        // the 20-round floor.
        let f = failures(&matrix((2.0, 0.1), (6.0, 1.0)), &matrix((2.0, 0.1), (10.0, 1.0)));
        assert!(f.is_empty(), "{f:?}");
        // Past the floor's 25 % (5 rounds) it fails.
        let f = failures(&matrix((2.0, 0.1), (6.0, 1.0)), &matrix((2.0, 0.1), (12.0, 1.0)));
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn wall_secs_above_the_floor_is_gated_relatively() {
        let baseline = matrix((2.0, 10.0), (6.0, 1.0));
        let f = failures(&baseline, &matrix((2.0, 12.6), (6.0, 1.0)));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("engine/wall_secs: 10.000 -> 12.600 (+26.0%"));
        assert!(failures(&baseline, &matrix((2.0, 12.4), (6.0, 1.0))).is_empty());
        // Under the 5 s floor, +1 s on a 1 s baseline is 20 %.
        assert!(failures(&baseline, &matrix((2.0, 10.0), (6.0, 2.0))).is_empty());
    }

    #[test]
    fn a_substrate_missing_from_the_current_run_fails() {
        let current = parse(
            "{\"wall_secs\":{\"engine\":0.1,\"cluster\":1.0},\
             \"entries\":[{\"label\":\"engine\",\"mean_reshaping_rounds\":2}]}",
        )
        .unwrap();
        let f = failures(&matrix((2.0, 0.1), (6.0, 1.0)), &current);
        assert_eq!(
            f,
            vec!["cluster: present in baseline, missing from current run".to_string()]
        );
    }

    #[test]
    fn allocs_per_round_has_no_floor() {
        let doc = |n: u32| parse(&format!("{{\"allocs_per_round\":{n},\"entries\":[]}}")).unwrap();
        let f = failures(&doc(3), &doc(4));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("allocs_per_round: 3.000 -> 4.000"));
        // The gate is exact: one allocation more fails at any size.
        let f = failures(&doc(114), &doc(115));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("allocs_per_round: 114.000 -> 115.000 (+0.9%, exact)"));
        assert!(failures(&doc(114), &doc(114)).is_empty());
        assert!(failures(&doc(114), &doc(113)).is_empty());
        let missing = parse("{\"entries\":[]}").unwrap();
        assert_eq!(
            failures(&doc(3), &missing),
            vec!["allocs_per_round: measured in baseline, missing from current run".to_string()]
        );
    }

    #[test]
    fn improvements_pass() {
        let (comparisons, f) = compare(
            &matrix((4.0, 20.0), (9.0, 3.0)),
            &matrix((2.0, 1.0), (3.0, 0.5)),
            0.25,
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(comparisons.len(), 4);
        assert!(comparisons.iter().all(|c| c.regression() < 0.0));
    }

    #[test]
    fn documents_without_tracked_metrics_fail() {
        let empty = parse("{\"entries\":[]}").unwrap();
        assert_eq!(
            failures(&empty, &empty),
            vec!["no comparable metrics found — wrong files?".to_string()]
        );
    }
}
