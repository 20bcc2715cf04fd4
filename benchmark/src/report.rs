//! What leaves the process: the metric lines and the result line of a
//! run, the result file of a suite, the generated `BENCHMARK.json`,
//! and the `compare` table.

use crate::json::{self, Json};
use crate::run::RunResult;
use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Regression bound no calibration goes below: host times on a shared
/// two-core box move by a few percent between identical runs.
pub const BOUND_FLOOR: f64 = 0.10;

/// The contract's ceiling; a metric that needs more is not end-to-end
/// material.
pub const BOUND_CEILING: f64 = 0.25;

/// One line per metric: `workload metric value unit [note]`.
pub fn metric_lines(workload: &str, result: &RunResult) -> String {
    let mut out = String::new();
    for r in &result.readings {
        let _ = write!(
            out,
            "{workload} {} {} {}",
            r.name,
            json::num(r.value),
            r.unit
        );
        if let Some(note) = &r.note {
            let _ = write!(out, " ({note})");
        }
        out.push('\n');
    }
    out
}

/// The last line of a run's standard output.
pub fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.violations.is_empty(),
        result.attempted,
        result.failed,
        json::metrics_object(result.readings.iter().map(|r| (r.name, r.value, r.unit))),
    )
}

/// One child run as the suite recorded it.
pub struct SuiteRun {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// The child's result line, verbatim.
    pub result: String,
}

/// `{"runs":[{"workload":…,"seed":…,"trace":…,"result":{…}},…]}`.
pub fn results_json(runs: &[SuiteRun]) -> String {
    let mut out = String::from("{\"runs\":[\n");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{}}}",
            json::quote(&r.workload),
            r.seed,
            u8::from(r.trace),
            r.result
        );
    }
    out.push_str("\n]}\n");
    out
}

/// `workload → metric → one value per run`, from a results file.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn samples_of(results: &str) -> Result<Samples, String> {
    let doc = json::parse(results)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no \"runs\" array")?;
    let mut samples = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run without a workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("a run without metrics")?;
        let by_metric = samples.entry(workload.to_string()).or_default();
        for (name, reading) in metrics {
            let value = reading
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} without a value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(samples)
}

/// The bound a metric's calibration spreads call for: three times the
/// widest interquartile share any workload showed (so the spread the
/// driver sees stays under a third of it), floored, rounded up to a
/// whole percent, and capped at the contract's ceiling. `setup_s` takes
/// the ceiling outright.
pub fn calibrated_bound(name: &str, spreads: &[f64]) -> f64 {
    if name == "setup_s" {
        return BOUND_CEILING;
    }
    let widest = spreads.iter().copied().fold(0.0, f64::max);
    let wanted = ((3.0 * widest).max(BOUND_FLOOR) * 100.0 - 1e-9).ceil() / 100.0;
    wanted.min(BOUND_CEILING)
}

/// What a calibration says about a metric whose widest spread the
/// ceiling cannot cover three times over.
fn steadiness_flag(name: &str, spreads: &[f64]) -> &'static str {
    let widest = spreads.iter().copied().fold(0.0, f64::max);
    if name == "setup_s" {
        ""
    } else if widest > BOUND_CEILING / 2.0 {
        "  <-- spread above half the ceiling: make it per-layer"
    } else if widest > BOUND_CEILING / 3.0 {
        "  <-- spread above a third of the ceiling: steady it further"
    } else {
        ""
    }
}

/// The spread table of a calibration and the bounds it implies, one
/// per end-to-end metric in table order.
pub fn calibration(samples: &Samples) -> (String, Vec<(&'static str, f64)>) {
    let mut table = String::from("workload metric median q1 q3 iqr_share min max runs\n");
    let mut bounds = Vec::new();
    for m in &END_TO_END {
        let mut spreads = Vec::new();
        for w in &WORKLOADS {
            let Some(values) = samples.get(w.name).and_then(|by| by.get(m.name)) else {
                continue;
            };
            let (q1, q2, q3) = quartiles(values);
            let spread = iqr_share(values);
            spreads.push(spread);
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let _ = writeln!(
                table,
                "{} {} {q2:.6} {q1:.6} {q3:.6} {spread:.4} {min:.6} {max:.6} {}",
                w.name,
                m.name,
                values.len()
            );
        }
        let bound = calibrated_bound(m.name, &spreads);
        let flag = steadiness_flag(m.name, &spreads);
        let _ = writeln!(table, "=> {} bound {bound:.2}{flag}", m.name);
        bounds.push((m.name, bound));
    }
    (table, bounds)
}

fn metric_entry(m: &MetricDef, bound: Option<f64>) -> String {
    let mut out = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        json::quote(m.name),
        json::quote(m.unit),
        json::quote(m.better.as_str())
    );
    if let Some(b) = bound {
        let _ = write!(out, ", \"bound\": {b}");
    }
    out.push('}');
    out
}

/// `BENCHMARK.json`, generated from the tables and the given bounds.
pub fn benchmark_json(bounds: &[(&str, f64)]) -> String {
    let bound_of = |name: &str| {
        bounds
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(BOUND_FLOOR, |(_, b)| b.min(BOUND_CEILING))
    };
    let list = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json::quote(w.name),
                    json::quote(w.why)
                ))
                .collect()
        ),
        list(
            END_TO_END
                .iter()
                .map(|m| metric_entry(m, Some(bound_of(m.name))))
                .collect()
        ),
        list(PER_LAYER.iter().map(|m| metric_entry(m, None)).collect()),
    )
}

/// The end-to-end bounds a `BENCHMARK.json` fixes.
pub fn bounds_of(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no \"end_to_end\" array")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Pairs of runs below which no gain is claimed.
const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one (metric, workload) pair: `a` the parent's runs, `b` the
/// change's, paired in run order.
///
/// * regressed — the change's median is worse by more than `bound`;
/// * improved — there are at least ten pairs, the change wins at least
///   nine tenths of them (ties count for neither) and the medians
///   differ by more than the parent's interquartile distance;
/// * unresolved — the parent's own spread is wider than the bound, and
///   not every run of the change beats every run of the parent;
/// * unchanged — otherwise.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    // Signed so that positive means "the change is worse".
    let worse = |parent: f64, change: f64| match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    let (ma, mb) = (median(a), median(b));
    let (q1, _, q3) = quartiles(a);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| worse(x, y) < 0.0).count();
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(x, y) < 0.0));
    if worse(ma, mb) > bound * ma.abs() {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && worse(ma, mb) < -(q3 - q1) {
        Verdict::Improved
    } else if iqr_share(a) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table of two result files: one row per (metric,
/// workload) pair present in both, end-to-end pairs judged against
/// their bound, per-layer pairs listed with their medians only.
pub fn compare(a: &Samples, b: &Samples, bounds: &BTreeMap<String, f64>) -> String {
    let mut out = String::from(
        "workload metric unit parent_median change_median change% bound runs verdict\n",
    );
    for w in &WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(va), Some(vb)) = (
                a.get(w.name).and_then(|by| by.get(m.name)),
                b.get(w.name).and_then(|by| by.get(m.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            let (bound, verdict) = match bounds.get(m.name) {
                Some(&bound) => (
                    format!("{bound:.2}"),
                    judge(m.better, bound, va, vb).as_str(),
                ),
                None => ("-".to_string(), "-"),
            };
            let _ = writeln!(
                out,
                "{} {} {} {} {} {change:+.2} {bound} {}/{} {verdict}",
                w.name,
                m.name,
                m.unit,
                json::num(ma),
                json::num(mb),
                va.len(),
                vb.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Reading;

    fn result(readings: Vec<Reading>) -> RunResult {
        RunResult {
            readings,
            attempted: 120,
            failed: 0,
            violations: Vec::new(),
            fingerprint: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&result(vec![Reading {
            name: "setup_s",
            value: 0.8127,
            unit: "s",
            note: None,
        }]));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(120.0));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.8127));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn metric_lines_carry_name_value_unit_and_note() {
        let text = metric_lines(
            "engine-catastrophe",
            &result(vec![Reading {
                name: "lab.step_ms_p95",
                value: 12.5,
                unit: "ms",
                note: Some("p90 of 120".into()),
            }]),
        );
        assert_eq!(
            text,
            "engine-catastrophe lab.step_ms_p95 12.5 ms (p90 of 120)\n"
        );
    }

    #[test]
    fn results_round_trip_into_samples() {
        let line = result_line(&result(vec![Reading {
            name: "setup_s",
            value: 2.0,
            unit: "s",
            note: None,
        }]));
        let runs: Vec<SuiteRun> = (1..=3)
            .map(|seed| SuiteRun {
                workload: "tcp-traffic".into(),
                seed,
                trace: false,
                result: line.clone(),
            })
            .collect();
        let samples = samples_of(&results_json(&runs)).unwrap();
        assert_eq!(samples["tcp-traffic"]["setup_s"], vec![2.0, 2.0, 2.0]);
        assert!(samples_of("{\"runs\":[{\"seed\":1}]}").is_err());
        assert!(samples_of("[]").is_err());
    }

    #[test]
    fn generated_benchmark_json_is_well_formed_and_complete() {
        let text = benchmark_json(&[("setup_s", 0.25), ("queries_per_s", 0.12)]);
        assert!(text.len() < 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("workloads").and_then(Json::as_arr).unwrap().len(),
            4
        );
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in e2e {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=BOUND_CEILING).contains(&bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|m| m.as_obj().unwrap().len() == 3));
        let bounds = bounds_of(&text).unwrap();
        assert_eq!(bounds["queries_per_s"], 0.12);
        assert_eq!(bounds["setup_s"], 0.25);
        assert_eq!(bounds["peak_rss_mb"], BOUND_FLOOR);
    }

    #[test]
    fn bounds_follow_the_calibration_rule() {
        assert_eq!(calibrated_bound("setup_s", &[0.01]), 0.25);
        assert_eq!(calibrated_bound("queries_per_s", &[0.01, 0.02]), 0.10);
        assert_eq!(calibrated_bound("queries_per_s", &[0.01, 0.052]), 0.16);
        assert_eq!(calibrated_bound("queries_per_s", &[0.09]), BOUND_CEILING);
        assert_eq!(steadiness_flag("queries_per_s", &[0.08]), "");
        assert!(steadiness_flag("queries_per_s", &[0.09]).contains("third"));
        assert!(steadiness_flag("queries_per_s", &[0.13]).contains("per-layer"));
        assert_eq!(steadiness_flag("setup_s", &[0.2]), "");
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let same = parent;
        assert_eq!(
            judge(Better::Lower, 0.1, &parent, &same),
            Verdict::Unchanged
        );
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(Better::Lower, 0.1, &parent, &slower),
            Verdict::Regressed
        );
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(
            judge(Better::Higher, 0.1, &parent, &slower),
            Verdict::Improved
        );
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            judge(Better::Lower, 0.1, &parent, &faster),
            Verdict::Improved
        );
        // A gain inside the parent's own spread is not a gain.
        let noisy = [
            100.0, 130.0, 70.0, 120.0, 80.0, 125.0, 75.0, 110.0, 90.0, 100.0,
        ];
        let slightly: Vec<f64> = noisy.iter().map(|v| v - 1.0).collect();
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy, &slightly),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy, &[60.0; 10]),
            Verdict::Unchanged
        );
        // Fewer than ten pairs claim nothing.
        assert_eq!(
            judge(Better::Lower, 0.1, &parent[..9], &faster[..9]),
            Verdict::Unchanged
        );
        // A gain must also exceed the parent's interquartile distance.
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy, &[50.0; 10]),
            Verdict::Improved
        );
    }
}
