//! The repo benchmark: four substrate workloads, end-to-end host-time
//! and survival metrics, and an outside-in per-layer ledger.
//!
//! ```text
//! polystyrene-benchmark --workload W --seed S --seconds T --trace 0|1
//!     one run of one workload, in this process: metric lines
//!     (`workload metric value unit`), then the result line
//! polystyrene-benchmark [--seed S] [--seconds T] [--trace] [--smoke]
//!     every workload, each in a process of its own; writes results.json
//! polystyrene-benchmark --calibrate N
//!     N seeds per workload; prints the spreads, rewrites BENCHMARK.json
//! polystyrene-benchmark compare A.json B.json
//!     one row per (metric, workload) with both medians and a verdict
//! ```
//!
//! `--root DIR` names the repository checkout (for `BENCHMARK.json`),
//! `--out DIR` where result and trace files go; `run.sh` passes both.

mod alloc;
mod harness;
mod json;
mod probes;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use report::SuiteRun;
use spec::{Workload, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds of a `--smoke` run: one episode per pass.
const SMOKE_SECONDS: f64 = 0.2;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    calibrate: Option<u64>,
    root: PathBuf,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]] \
[--smoke] [--calibrate N] [--root DIR] [--out DIR] | run.sh compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        calibrate: None,
        root: PathBuf::from("."),
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut seconds_given = false;
    let mut positional = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
                seconds_given = true;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--calibrate" => {
                args.calibrate = Some(
                    value("--calibrate")?
                        .parse()
                        .ok()
                        .filter(|n| (2..=100).contains(n))
                        .ok_or("--calibrate takes a run count from 2 to 100")?,
                );
            }
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--out" => args.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    match positional.as_slice() {
        [] => {}
        [verb, a, b] if verb == "compare" => {
            args.compare = Some((PathBuf::from(a), PathBuf::from(b)));
        }
        other => return Err(format!("unexpected arguments {other:?}")),
    }
    if args.smoke && !seconds_given {
        args.seconds = SMOKE_SECONDS;
    }
    Ok(args)
}

fn sized(w: Workload, smoke: bool) -> Workload {
    if smoke {
        w.smoke()
    } else {
        w
    }
}

/// One workload in this process.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let w = spec::workload(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; the workloads are {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let w = sized(w, args.smoke);
    let result = run::run(&w, args.seed, args.seconds, args.trace, &args.out)
        .map_err(|e| format!("writing the trace under {}: {e}", args.out.display()))?;
    print!("{}", report::metric_lines(w.name, &result));
    if let Some(fp) = result.fingerprint {
        println!("{} fingerprint {fp:016x}", w.name);
    }
    for v in &result.violations {
        eprintln!("{} CHECK FAILED {v}", w.name);
    }
    println!("{}", report::result_line(&result));
    Ok(result.violations.is_empty())
}

/// Runs one workload in a child process (so peak memory and CPU are
/// the workload's own), echoes its metric lines and returns its result
/// line; `Err` if it exited non-zero.
fn child(args: &Args, w: &Workload, seed: u64, trace: bool) -> Result<SuiteRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting the {} run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("the {} run exited with {}", w.name, output.status));
    }
    Ok(SuiteRun {
        workload: w.name.to_string(),
        seed,
        trace,
        result,
    })
}

/// Every workload over `seeds`, untraced and (if asked) traced; writes
/// `results.json` and returns the runs.
fn suite(args: &Args, seeds: std::ops::RangeInclusive<u64>) -> Result<Vec<SuiteRun>, String> {
    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        for seed in seeds.clone() {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                match child(args, w, seed, trace) {
                    Ok(run) => runs.push(run),
                    Err(e) => failures.push(e),
                }
            }
        }
    }
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join("results.json"), report::results_json(&runs)))
        .map_err(|e| format!("writing {}: {e}", args.out.join("results.json").display()))?;
    if failures.is_empty() {
        Ok(runs)
    } else {
        Err(failures.join("; "))
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let bounds = report::bounds_of(&read(&args.root.join("BENCHMARK.json"))?)?;
        let parent = report::samples_of(&read(a)?).map_err(|e| format!("{}: {e}", a.display()))?;
        let change = report::samples_of(&read(b)?).map_err(|e| format!("{}: {e}", b.display()))?;
        print!("{}", report::compare(&parent, &change, &bounds));
        return Ok(true);
    }
    if let Some(name) = &args.workload {
        return single(args, name);
    }
    if let Some(n) = args.calibrate {
        let runs = suite(args, 1..=n)?;
        let samples = report::samples_of(&report::results_json(&runs))?;
        let (table, bounds) = report::calibration(&samples);
        print!("{table}");
        let path = args.root.join("BENCHMARK.json");
        std::fs::write(&path, report::benchmark_json(&bounds))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("bounds written to {}", path.display());
        return Ok(true);
    }
    suite(args, args.seed..=args.seed).map(|_| true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload tcp-traffic --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("tcp-traffic"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        let b = parse("--workload tcp-traffic --seed 42 --seconds 10 --trace 0").unwrap();
        assert!(!b.trace);
    }

    #[test]
    fn bare_trace_and_smoke_work_by_hand() {
        let a = parse("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(a.seconds, SMOKE_SECONDS);
        assert_eq!(parse("--trace --seed 3").unwrap().seed, 3);
        assert_eq!(parse("").unwrap().seconds, f64::from(RUN_SECONDS));
    }

    #[test]
    fn compare_takes_two_files() {
        let a = parse("compare a.json b.json --root /tmp").unwrap();
        assert_eq!(
            a.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
        assert!(parse("compare a.json").is_err());
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--calibrate 1",
            "--frobnicate",
            "stray",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }

    /// The committed `BENCHMARK.json` lists exactly the tables' metrics
    /// and workloads: regenerating it with its own bounds changes
    /// nothing.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the root");
        let bounds = report::bounds_of(&committed).unwrap();
        let bounds: Vec<(&str, f64)> = bounds.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        assert_eq!(report::benchmark_json(&bounds), committed);
    }
}
