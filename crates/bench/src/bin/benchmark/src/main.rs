//! The repository's end-to-end benchmark: four single-thread workloads
//! over the HyperEar pipeline, every output checked against a reference,
//! and a separate traced run that replays each session through every
//! layer's public function. `README.md` next to this file explains the
//! workloads and the layer → metric → workload map.
//!
//! ```text
//! benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                 [--out DIR]
//! benchmark compare --base RUN.json RUN.json... --change RUN.json RUN.json...
//!                   [--spec BENCHMARK.json]
//! ```
//!
//! `run` prints every metric as `workload metric=value unit`, writes
//! `run.json` (and `trace-<workload>.json` when traced) under `--out`
//! (default `target/benchmark`), and ends with one JSON line holding
//! `correct`, `attempted`, `failed` and the metrics `BENCHMARK.json` lists
//! for the run's kind: its end-to-end metrics untraced, its per-layer
//! metrics traced. Each workload runs in a child process (this binary
//! re-executed with the internal `child` subcommand), so peak RSS and the
//! allocation counter are the workload's own, and a panic, non-zero exit
//! or missed deadline fails that workload's sessions without stopping the
//! others.

mod compare;
mod layers;
mod metrics;
mod trace;
mod workloads;
mod yardstick;

use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{Options, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOC.allocations()
}

/// Default measurement time per workload, seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Time a child may spend rendering and setting up, on top of twice its
/// measurement time, before the parent kills it.
const SETUP_ALLOWANCE_S: f64 = 30.0;
/// glibc's default mmap threshold (128 KiB), set explicitly for the child,
/// which turns off glibc's raising of it after each large free. With the
/// raising on, large buffers freed during rendering and set-up stay in the
/// heap by however the seed's allocation order fragments it, and the same
/// workload's peak RSS moved by 17% from seed to seed; fixed, it moves by
/// under 4%, and the peak is the memory the workload holds.
const MMAP_THRESHOLD: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<Workload>,
    options: Options,
    out: PathBuf,
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Workload::ALL.to_vec(),
        options: Options {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            recordings: None,
        },
        out: PathBuf::from("target/benchmark"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                let w = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => {
                parsed.options.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.options.seconds = s;
            }
            "--trace" => {
                parsed.options.trace = match it.peek().map(|s| s.as_str()) {
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
            "--out" => parsed.out = PathBuf::from(value(&mut it, arg)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One workload's outcome as the parent saw it.
#[derive(Debug)]
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Why the child produced no result, if it did not.
    error: Option<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0
    }
}

fn child_args(args: &RunArgs, workload: Workload) -> Vec<String> {
    let o = &args.options;
    vec![
        "child".to_string(),
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        o.seed.to_string(),
        "--seconds".to_string(),
        o.seconds.to_string(),
        "--trace".to_string(),
        if o.trace { "1" } else { "0" }.to_string(),
        "--out".to_string(),
        args.out.display().to_string(),
    ]
}

/// Runs one workload in a child process and waits for it, killing it at
/// the deadline. A child that dies, fails or overruns has every session
/// it reported as attempted counted failed.
fn run_child(args: &RunArgs, workload: Workload) -> Report {
    let mut report = Report {
        workload,
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        error: None,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.error = Some(format!("cannot locate the benchmark binary: {e}"));
            return report;
        }
    };
    let spawned = Command::new(exe)
        .args(child_args(args, workload))
        .env(MMAP_THRESHOLD.0, MMAP_THRESHOLD.1)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            report.error = Some(format!("cannot start the child: {e}"));
            return report;
        }
    };
    let progress = Arc::new(AtomicU64::new(0));
    let result = Arc::new(Mutex::new(None::<String>));
    let stdout = child.stdout.take().expect("stdout is piped");
    let reader = {
        let (progress, result) = (Arc::clone(&progress), Arc::clone(&result));
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(n) = line.strip_prefix("progress ") {
                    progress.store(n.trim().parse().unwrap_or(0), Ordering::Relaxed);
                } else if let Some(json) = line.strip_prefix("result ") {
                    *result.lock().expect("reader is the only writer") = Some(json.to_string());
                }
            }
        })
    };
    let deadline =
        Instant::now() + Duration::from_secs_f64(2.0 * (args.options.seconds + SETUP_ALLOWANCE_S));
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("missed its deadline and was killed".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("could not be waited for: {e}"));
            }
        }
    };
    let _ = reader.join();
    let line = result.lock().expect("reader has finished").take();
    let parsed = match (status, line) {
        (Ok(status), Some(line)) if status.success() => parse_child(&line),
        (Ok(status), _) => Err(format!("exited with {status} and no result")),
        (Err(e), _) => Err(e),
    };
    match parsed {
        Ok((attempted, failed, metrics)) => {
            report.attempted = attempted;
            report.failed = failed;
            report.metrics = metrics;
        }
        Err(e) => {
            let attempted = progress.load(Ordering::Relaxed).max(1);
            report.attempted = attempted;
            report.failed = attempted;
            report.error = Some(e);
        }
    }
    report
}

fn parse_child(line: &str) -> Result<(u64, u64, Metrics), String> {
    let json = Json::parse(line).map_err(|e| format!("unreadable result: {e}"))?;
    let count = |k: &str| {
        json.get(k)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or(format!("result has no {k}"))
    };
    let metrics = Metrics::from_json(json.get("metrics").ok_or("result has no metrics")?)?;
    Ok((count("attempted")?, count("failed")?, metrics))
}

/// The result-line object: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(attempted as f64)),
        ("failed", Json::Number(failed as f64)),
        ("metrics", metrics.to_json()),
    ])
}

/// The metrics `BENCHMARK.json` lists for this kind of run, in its order;
/// `None` when one is missing or not finite.
fn listed(metrics: &Metrics, trace: bool, prefix: &str) -> Option<Metrics> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Metrics::default();
    for (name, unit) in names {
        let v = metrics.get(name).filter(|v| v.is_finite())?;
        out.set(&format!("{prefix}{name}"), v, unit);
    }
    Some(out)
}

fn run(args: &RunArgs) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("benchmark: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let mut reports = Vec::new();
    for &workload in &args.workloads {
        let report = run_child(args, workload);
        let name = workload.name();
        match &report.error {
            Some(e) => println!("{name} FAILED: child {e}"),
            None => {
                for (metric, value, unit) in report.metrics.iter() {
                    println!("{name} {metric}={value} {unit}");
                }
            }
        }
        println!(
            "{name} attempted={} failed={} correct={}",
            report.attempted,
            report.failed,
            report.correct()
        );
        reports.push(report);
    }

    let trace = args.options.trace;
    let workloads = reports
        .iter()
        .map(|r| {
            let j = result_json(r.correct(), r.attempted, r.failed, &r.metrics);
            (r.workload.name().to_string(), j)
        })
        .collect();
    let run_json = Json::obj(vec![
        ("seed", Json::Number(args.options.seed as f64)),
        ("seconds", Json::Number(args.options.seconds)),
        ("trace", Json::Bool(trace)),
        ("workloads", Json::Object(workloads)),
    ]);
    let path = args.out.join("run.json");
    if let Err(e) = std::fs::write(&path, run_json.render() + "\n") {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    // One workload: its listed metrics by name. Several: prefixed by
    // workload.
    let mut all = Metrics::default();
    let mut complete = true;
    for r in &reports {
        let prefix = if reports.len() == 1 {
            String::new()
        } else {
            format!("{}.", r.workload.name())
        };
        match listed(&r.metrics, trace, &prefix) {
            Some(m) => m.iter().for_each(|(n, v, u)| all.set(n, v, u)),
            None => complete = false,
        }
    }
    let correct = complete && reports.iter().all(Report::correct);
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    println!("{}", result_json(correct, attempted, failed, &all).render());
    if reports.iter().all(|r| r.error.is_none()) && complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The child side: run one workload in this process and print its result.
fn child(args: &RunArgs) -> ExitCode {
    let [workload] = args.workloads[..] else {
        eprintln!("benchmark child: exactly one --workload");
        return ExitCode::FAILURE;
    };
    let parent = std::os::unix::process::parent_id();
    let mut last = Instant::now();
    let mut progress = |n: u64| {
        if last.elapsed() >= Duration::from_millis(500) {
            last = Instant::now();
            // A parent that was killed leaves nobody to stop this child.
            if std::os::unix::process::parent_id() != parent {
                std::process::exit(1);
            }
            println!("progress {n}");
        }
    };
    let run = workloads::run(workload, &args.options, &mut progress);
    if args.options.trace {
        let path = args.out.join(format!("trace-{}.json", workload.name()));
        if let Err(e) = run.tracer.write(&path) {
            eprintln!("benchmark child: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let json = result_json(run.failed == 0, run.attempted, run.failed, &run.metrics);
    println!("progress {}", run.attempted);
    println!("result {}", json.render());
    ExitCode::SUCCESS
}

fn usage() -> &'static str {
    "usage: benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
     [--out DIR]\n       \
     benchmark compare --base RUN.json... --change RUN.json... [--spec BENCHMARK.json]"
}

fn compare(args: &[String]) -> ExitCode {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut side = None;
    let usage_error = || {
        eprintln!("{}", usage());
        ExitCode::FAILURE
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--change" => side = Some(&mut change),
            "--spec" => match it.next() {
                Some(path) => spec = PathBuf::from(path),
                None => return usage_error(),
            },
            file => match side.as_deref_mut() {
                Some(files) if !file.starts_with("--") => files.push(file.to_string()),
                _ => return usage_error(),
            },
        }
    }
    match compare::run(&base, &change, Path::new(&spec)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "child" | "compare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    if command == "compare" {
        return compare(rest);
    }
    match parse_run(rest) {
        Ok(parsed) if command == "child" => child(&parsed),
        Ok(parsed) => run(&parsed),
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        Json::parse(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn registries_match_benchmark_json() {
        let spec = spec();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// Every workload, untraced and traced, on a 300 ms budget over two
    /// recordings: every metric `BENCHMARK.json` names is emitted and
    /// finite, and no output differs from its reference.
    #[test]
    fn every_workload_emits_every_listed_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let options = Options {
                    seed: 1,
                    seconds: 0.3,
                    trace,
                    recordings: Some(2),
                };
                let run = workloads::run(workload, &options, &mut |_| {});
                let label = format!("{} trace={trace}", workload.name());
                assert!(run.attempted > 0, "{label}: nothing attempted");
                assert_eq!(run.failed, 0, "{label}: outputs differ from references");
                assert_eq!(run.metrics.get("failed_ops_frac"), Some(0.0), "{label}");
                let missing: Vec<&str> = (if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                })
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !run.metrics.get(n).is_some_and(f64::is_finite))
                .collect();
                assert!(
                    missing.is_empty(),
                    "{label}: missing or non-finite {missing:?}"
                );
            }
        }
    }

    #[test]
    fn run_arguments_parse_in_the_benchmark_json_form() {
        let args: Vec<String> = "--workload stream_fleet --seed 7 --seconds 20 --trace 0"
            .split(' ')
            .map(str::to_string)
            .collect();
        let parsed = parse_run(&args).expect("valid arguments");
        assert_eq!(parsed.workloads, vec![Workload::StreamFleet]);
        assert_eq!(parsed.options.seed, 7);
        assert!(!parsed.options.trace);
        let traced = parse_run(&["--trace".to_string()]).expect("bare --trace");
        assert!(traced.options.trace);
        assert_eq!(traced.workloads.len(), 4);
        assert!(parse_run(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_run(&["--seconds".to_string(), "0".to_string()]).is_err());
    }
}
