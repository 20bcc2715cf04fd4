//! **Baseline differ** — the CI regression gate over the benchmark
//! JSON artifacts (`BENCH_matrix.json`, `BENCH_netsim.json`).
//!
//! Compares the current run against a committed baseline snapshot and
//! fails (exit 1) when any tracked metric gets worse by more than
//! `--max-regression` (default 0.25, i.e. 25%):
//!
//! * `mean_reshaping_rounds` per substrate entry — convergence speed,
//! * `mean_cost_units` per substrate entry — the paper's bandwidth
//!   unit price (Sec. IV-A),
//! * `mean_traffic_availability` per substrate entry, when present —
//!   the traffic plane's served fraction, gated as its complement
//!   (unavailability is lower-is-better) against an absolute floor,
//! * `wall_secs` per substrate from the artifact metadata — real time,
//! * `allocs_per_round` from the artifact metadata, when present — the
//!   netsim sweep's deterministic steady-state allocation count (gated
//!   exactly: the probe is seeded and single-threaded).
//!
//! Other keys are carried along, not read: `fig_loss_latency`'s
//! per-row `peak_rss_mb`, for one, depends on the allocator and the box.
//!
//! Improvements (lower values) always pass; a substrate present in the
//! baseline but missing from the current run is a failure, so the gate
//! cannot be dodged by dropping a substrate from the matrix. Noisy
//! metrics (wall-clock everywhere, round counts on the live threaded
//! substrates) are gated against a denominator *floor* so small
//! baselines are judged on absolute drift instead of timer noise; the
//! deterministic substrates' round and cost metrics are gated exactly.
//!
//! ```sh
//! cargo run --release -p polystyrene-bench --bin baseline_diff -- \
//!     --baseline crates/bench/baselines/BENCH_matrix.json \
//!     --current  target/experiments/substrate_matrix.json
//! ```

use polystyrene_bench::minijson::{parse, Json};

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
/// with no floor.
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
struct Comparison {
    what: String,
    baseline: f64,
    current: f64,
    /// Minimum denominator for the relative change. Zero for exact
    /// metrics; wall-clock uses [`WALL_FLOOR_SECS`] so that short
    /// baselines (the deterministic substrates finish in milliseconds,
    /// the live ones in a couple of seconds with ±30% scheduler noise
    /// on the 1-core CI box) are gated on absolute seconds rather than
    /// timer noise, while genuinely long benches stay relatively gated.
    floor: f64,
}

impl Comparison {
    /// Fractional change; positive = worse (all tracked metrics are
    /// lower-is-better).
    fn regression(&self) -> f64 {
        let denom = self.baseline.max(self.floor);
        if denom <= 0.0 {
            // A zero baseline can't be regressed against in relative
            // terms; treat any measurable current value as neutral.
            0.0
        } else {
            (self.current - self.baseline) / denom
        }
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

fn main() {
    let mut baseline_path = String::new();
    let mut current_path = String::new();
    let mut max_regression = 0.25f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--baseline" => baseline_path = value("--baseline"),
            "--current" => current_path = value("--current"),
            "--max-regression" => {
                max_regression = value("--max-regression")
                    .parse()
                    .expect("--max-regression must be a number")
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(!baseline_path.is_empty(), "--baseline is required");
    assert!(!current_path.is_empty(), "--current is required");

    let baseline = load(&baseline_path);
    let current = load(&current_path);
    let baseline_entries = entries_by_label(&baseline);
    let current_entries = entries_by_label(&current);
    let all_deterministic = doc_is_deterministic(&baseline);

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
        for metric in ["mean_reshaping_rounds", "mean_cost_units"] {
            let base = base_entry.get(metric).and_then(Json::as_f64);
            let cur = cur_entry.get(metric).and_then(Json::as_f64);
            match (base, cur) {
                (Some(b), Some(c)) => comparisons.push(Comparison {
                    what: format!("{label}/{metric}"),
                    baseline: b,
                    current: c,
                    floor: if metric == "mean_reshaping_rounds"
                        && !all_deterministic
                        && !is_deterministic(label)
                    {
                        LIVE_ROUNDS_FLOOR
                    } else {
                        0.0
                    },
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
                }),
                None => failures.push(format!(
                    "{label}/wall_secs: measured in baseline, missing from current run"
                )),
            }
        }
    }

    // Scalar metadata metrics (lower-is-better, exact): currently the
    // netsim sweep's deterministic allocation telemetry. A baseline
    // that measured it must keep being measured — dropping the scalar
    // is a failure, exactly like dropping a substrate.
    if let Some(b) = baseline.get("allocs_per_round").and_then(Json::as_f64) {
        match current.get("allocs_per_round").and_then(Json::as_f64) {
            Some(c) => comparisons.push(Comparison {
                what: "allocs_per_round".to_string(),
                baseline: b,
                current: c,
                floor: 0.0,
            }),
            None => failures.push(
                "allocs_per_round: measured in baseline, missing from current run".to_string(),
            ),
        }
    }

    assert!(
        !comparisons.is_empty() || !failures.is_empty(),
        "no comparable metrics found — wrong files?"
    );

    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "metric", "baseline", "current", "change"
    );
    for c in &comparisons {
        let r = c.regression();
        let verdict = if r > max_regression { "  FAIL" } else { "" };
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>+7.1}%{verdict}",
            c.what,
            c.baseline,
            c.current,
            r * 100.0
        );
        if r > max_regression {
            failures.push(format!(
                "{}: {:.3} -> {:.3} (+{:.1}%, limit +{:.0}%)",
                c.what,
                c.baseline,
                c.current,
                r * 100.0,
                max_regression * 100.0
            ));
        }
    }

    if !failures.is_empty() {
        eprintln!();
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nOK: {} metric(s) within +{:.0}% of baseline",
        comparisons.len(),
        max_regression * 100.0
    );
}
