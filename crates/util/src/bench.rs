//! A std-only micro-benchmark harness.
//!
//! Replaces the external benchmark framework the bench targets were
//! written against: each benchmark is warmed up, then timed over a
//! fixed number of samples (each a batch of iterations sized so the
//! clock resolution is irrelevant), and summarized as median / p95 /
//! min per-iteration time, printed to stdout and optionally written as
//! JSON for machine consumption.
//!
//! Environment variables:
//!
//! - `HYPEREAR_BENCH_WARMUP_MS` — warmup per benchmark (default 100).
//! - `HYPEREAR_BENCH_SAMPLES` — timed samples per benchmark (default 30).
//! - `HYPEREAR_BENCH_SAMPLE_MS` — target duration of one sample (default 10).
//! - `HYPEREAR_BENCH_JSON_DIR` — when set, `finish()` writes
//!   `<dir>/<suite>.json`.
//!
//! ```no_run
//! use hyperear_util::bench::Suite;
//! use std::hint::black_box;
//!
//! let mut suite = Suite::new("example");
//! suite.bench("sum_1k", || black_box((0..1_000u64).sum::<u64>()));
//! suite.finish();
//! ```

use crate::json::{Json, ToJson};
use std::time::{Duration, Instant};

/// Harness configuration; read from the environment by [`Suite::new`].
#[derive(Debug, Clone)]
pub(crate) struct BenchConfig {
    /// Warmup time per benchmark.
    pub warmup: Duration,
    /// Timed samples per benchmark.
    pub samples: usize,
    /// Target wall time of a single sample (sets the batch size).
    pub sample_target: Duration,
    /// Directory for JSON reports (`None` = stdout only).
    pub json_dir: Option<std::path::PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(100),
            samples: 30,
            sample_target: Duration::from_millis(10),
            json_dir: None,
        }
    }
}

impl BenchConfig {
    /// Reads the `HYPEREAR_BENCH_*` environment variables.
    #[must_use]
    pub(crate) fn from_env() -> Self {
        let mut c = BenchConfig::default();
        let ms = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        if let Some(v) = ms("HYPEREAR_BENCH_WARMUP_MS") {
            c.warmup = Duration::from_millis(v);
        }
        if let Some(v) = ms("HYPEREAR_BENCH_SAMPLES") {
            c.samples = (v as usize).max(1);
        }
        if let Some(v) = ms("HYPEREAR_BENCH_SAMPLE_MS") {
            c.sample_target = Duration::from_millis(v.max(1));
        }
        if let Ok(dir) = std::env::var("HYPEREAR_BENCH_JSON_DIR") {
            if !dir.trim().is_empty() {
                c.json_dir = Some(std::path::PathBuf::from(dir.trim()));
            }
        }
        c
    }
}

/// One benchmark's measured timing summary (per-iteration nanoseconds).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Elements processed per iteration (for throughput), if declared.
    pub elements: Option<u64>,
    /// Heap allocations per iteration (minimum over samples), when the
    /// suite has an allocation counter installed
    /// ([`Suite::set_alloc_counter`]).
    pub allocs_per_iter: Option<f64>,
}

impl BenchResult {
    /// Throughput in million elements per second at the median time.
    #[must_use]
    pub(crate) fn melem_per_s(&self) -> Option<f64> {
        let e = self.elements?;
        if self.median_ns > 0.0 {
            Some(e as f64 * 1e3 / self.median_ns)
        } else {
            None
        }
    }

    /// Median time per processed element in nanoseconds — ns per audio
    /// sample for the DSP kernels, whose `elements` declare the samples
    /// handled per iteration. Normalizes kernels that run over different
    /// capture lengths onto one comparable scale; `None` when the
    /// benchmark declared no element count.
    #[must_use]
    pub(crate) fn ns_per_sample(&self) -> Option<f64> {
        let e = self.elements?;
        if e > 0 {
            Some(self.median_ns / e as f64)
        } else {
            None
        }
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::String(self.name.clone())),
            (
                "iters_per_sample",
                Json::Number(self.iters_per_sample as f64),
            ),
            ("samples", Json::Number(self.samples as f64)),
            ("min_ns", Json::Number(self.min_ns)),
            ("median_ns", Json::Number(self.median_ns)),
            ("p95_ns", Json::Number(self.p95_ns)),
            ("mean_ns", Json::Number(self.mean_ns)),
        ];
        if let Some(e) = self.elements {
            fields.push(("elements", Json::Number(e as f64)));
            if let Some(t) = self.melem_per_s() {
                fields.push(("melem_per_s", Json::Number(t)));
            }
            if let Some(t) = self.ns_per_sample() {
                fields.push(("ns_per_sample", Json::Number(t)));
            }
        }
        if let Some(a) = self.allocs_per_iter {
            fields.push(("allocs_per_iter", Json::Number(a)));
        }
        Json::obj(fields)
    }
}

/// Interpolated percentile of an unsorted sample set, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A named collection of benchmarks run sequentially.
#[derive(Debug)]
pub struct Suite {
    name: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
    alloc_counter: Option<fn() -> u64>,
    violations: Vec<String>,
}

impl Suite {
    /// A suite configured from the environment.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self::with_config(name, BenchConfig::from_env())
    }

    /// A suite with an explicit configuration.
    #[must_use]
    pub(crate) fn with_config(name: &str, config: BenchConfig) -> Self {
        println!("== bench suite `{name}` ==");
        Suite {
            name: name.to_string(),
            config,
            results: Vec::new(),
            alloc_counter: None,
            violations: Vec::new(),
        }
    }

    /// Installs a cumulative allocation counter (typically the
    /// `allocations()` reading of a `#[global_allocator]`
    /// `CountingAllocator` in the bench binary). Once set, every result
    /// reports allocations per iteration next to its timings, and
    /// [`Suite::bench_allocfree`] expectations are enforced.
    pub fn set_alloc_counter(&mut self, counter: fn() -> u64) {
        self.alloc_counter = Some(counter);
    }

    /// Benchmarks `f`, printing and retaining the summary.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, f: F) {
        self.run_one(name, None, false, f);
    }

    /// Benchmarks `f`, additionally reporting throughput over
    /// `elements` items per iteration.
    pub fn bench_with_elements<R, F: FnMut() -> R>(&mut self, name: &str, elements: u64, f: F) {
        self.run_one(name, Some(elements), false, f);
    }

    /// Benchmarks `f` and records the expectation that its steady state
    /// performs zero heap allocations. A violation (or a missing
    /// allocation counter) makes [`Suite::finish`] panic, so a CI smoke
    /// run fails loudly when a warm path regresses into allocating.
    pub fn bench_allocfree<R, F: FnMut() -> R>(&mut self, name: &str, f: F) {
        self.run_one(name, None, true, f);
    }

    /// [`Suite::bench_allocfree`] with throughput over `elements` items
    /// per iteration.
    pub fn bench_allocfree_with_elements<R, F: FnMut() -> R>(
        &mut self,
        name: &str,
        elements: u64,
        f: F,
    ) {
        self.run_one(name, Some(elements), true, f);
    }

    fn run_one<R, F: FnMut() -> R>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        expect_alloc_free: bool,
        mut f: F,
    ) {
        // Warmup, counting iterations to estimate the batch size.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warmup || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let batch =
            ((self.config.sample_target.as_secs_f64() / per_iter.max(1e-9)).ceil() as u64).max(1);
        // Timed samples.
        let mut sample_ns = Vec::with_capacity(self.config.samples);
        let mut sample_allocs = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let allocs_before = self.alloc_counter.map(|c| c());
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = t0.elapsed();
            if let (Some(counter), Some(before)) = (self.alloc_counter, allocs_before) {
                sample_allocs.push((counter() - before) as f64 / batch as f64);
            }
            sample_ns.push(elapsed.as_nanos() as f64 / batch as f64);
        }
        // Minimum over samples: transient growth (a buffer reaching its
        // high-water mark mid-run) doesn't mask a truly clean steady state.
        let allocs_per_iter = sample_allocs.iter().copied().reduce(f64::min);
        if expect_alloc_free {
            match allocs_per_iter {
                None => self.violations.push(format!(
                    "`{name}` expects zero allocations but no allocation counter is installed \
                     (call Suite::set_alloc_counter)"
                )),
                Some(a) if a > 0.0 => self.violations.push(format!(
                    "`{name}` expects zero allocations, measured {a}/iter"
                )),
                Some(_) => {}
            }
        }
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: batch,
            samples: sample_ns.len(),
            min_ns: sample_ns.iter().copied().fold(f64::INFINITY, f64::min),
            median_ns: percentile(&sample_ns, 50.0),
            p95_ns: percentile(&sample_ns, 95.0),
            mean_ns: sample_ns.iter().sum::<f64>() / sample_ns.len() as f64,
            elements,
            allocs_per_iter,
        };
        println!("{}", render_row(&result));
        self.results.push(result);
    }

    /// The results measured so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing line and writes the JSON report when
    /// `HYPEREAR_BENCH_JSON_DIR` is set.
    ///
    /// # Panics
    ///
    /// Panics if any [`Suite::bench_allocfree`] expectation was violated
    /// (the JSON report is still written first), turning steady-state
    /// allocation regressions into a nonzero bench exit status.
    pub fn finish(self) {
        if let Some(dir) = &self.config.json_dir {
            let report = Json::obj(vec![
                ("suite", Json::String(self.name.clone())),
                ("results", self.results.to_json()),
            ]);
            let path = dir.join(format!("{}.json", self.name));
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.render()))
            {
                Ok(()) => println!("json report: {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
        println!(
            "== suite `{}` complete: {} benchmarks ==",
            self.name,
            self.results.len()
        );
        if !self.violations.is_empty() {
            for v in &self.violations {
                eprintln!("allocation regression: {v}");
            }
            panic!(
                "suite `{}`: {} allocation expectation(s) violated",
                self.name,
                self.violations.len()
            );
        }
    }
}

/// Formats nanoseconds adaptively (ns / µs / ms / s).
#[must_use]
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

fn render_row(r: &BenchResult) -> String {
    use std::fmt::Write;
    let mut row = format!(
        "{:<38} median {:>9}  p95 {:>9}  min {:>9}  ({} samples × {} iters)",
        r.name,
        fmt_ns(r.median_ns),
        fmt_ns(r.p95_ns),
        fmt_ns(r.min_ns),
        r.samples,
        r.iters_per_sample,
    );
    if let Some(t) = r.melem_per_s() {
        let _ = write!(row, "  {t:.1} Melem/s");
    }
    if let Some(t) = r.ns_per_sample() {
        let _ = write!(row, "  {t:.2} ns/sample");
    }
    if let Some(a) = r.allocs_per_iter {
        let _ = write!(row, "  {a:.1} allocs/iter");
    }
    row
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact, analytically-derived values
mod tests {
    use super::*;

    fn fast_config() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(1),
            samples: 5,
            sample_target: Duration::from_micros(200),
            json_dir: None,
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn bench_produces_ordered_stats() {
        let mut suite = Suite::with_config("selftest", fast_config());
        let mut acc = 0u64;
        suite.bench("trivial", || {
            acc = acc.wrapping_add(1);
            std::hint::black_box(acc)
        });
        let r = &suite.results()[0];
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns + 1e-9);
        assert_eq!(r.samples, 5);
        suite.finish();
    }

    #[test]
    fn throughput_reported_when_elements_known() {
        let mut suite = Suite::with_config("selftest2", fast_config());
        suite.bench_with_elements("sum", 1_000, || {
            std::hint::black_box((0..1_000u64).sum::<u64>())
        });
        let r = &suite.results()[0];
        assert!(r.melem_per_s().unwrap() > 0.0);
        // ns/sample is exactly median over declared elements.
        assert_eq!(r.ns_per_sample().unwrap(), r.median_ns / 1_000.0);
        let json = r.to_json();
        assert!(json.get("melem_per_s").is_some());
        assert!(json.get("ns_per_sample").is_some());
        assert_eq!(json.field::<String>("name").unwrap(), "sum");
    }

    #[test]
    fn ns_per_sample_absent_without_elements() {
        let mut suite = Suite::with_config("selftest3", fast_config());
        suite.bench("plain", || std::hint::black_box(1u64));
        let r = &suite.results()[0];
        assert!(r.ns_per_sample().is_none());
        assert!(r.to_json().get("ns_per_sample").is_none());
    }

    #[test]
    fn alloc_counter_reports_per_iteration_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static FAKE_ALLOCS: AtomicU64 = AtomicU64::new(0);
        fn read_fake() -> u64 {
            FAKE_ALLOCS.load(Ordering::Relaxed)
        }
        let mut suite = Suite::with_config("alloctest", fast_config());
        suite.set_alloc_counter(read_fake);
        // Simulates exactly 2 allocations per iteration.
        suite.bench("two_per_iter", || {
            FAKE_ALLOCS.fetch_add(2, Ordering::Relaxed);
        });
        // Touches no allocator at all.
        suite.bench_allocfree("clean", || std::hint::black_box(3u64 * 7));
        let results = suite.results();
        assert_eq!(results[0].allocs_per_iter, Some(2.0));
        assert_eq!(results[1].allocs_per_iter, Some(0.0));
        assert!(results[0].to_json().get("allocs_per_iter").is_some());
        suite.finish(); // no violations: must not panic
    }

    #[test]
    fn allocfree_violation_fails_the_suite() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static FAKE_ALLOCS: AtomicU64 = AtomicU64::new(0);
        fn read_fake() -> u64 {
            FAKE_ALLOCS.load(Ordering::Relaxed)
        }
        let result = std::panic::catch_unwind(|| {
            let mut suite = Suite::with_config("allocfail", fast_config());
            suite.set_alloc_counter(read_fake);
            suite.bench_allocfree("dirty", || {
                FAKE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            });
            suite.finish();
        });
        assert!(result.is_err(), "violation must panic in finish()");
    }

    #[test]
    fn allocfree_without_counter_fails_the_suite() {
        let result = std::panic::catch_unwind(|| {
            let mut suite = Suite::with_config("allocmisconfig", fast_config());
            suite.bench_allocfree("unverifiable", || std::hint::black_box(1u64));
            suite.finish();
        });
        assert!(result.is_err(), "missing counter must panic in finish()");
    }

    #[test]
    fn json_report_written_to_dir() {
        let dir = std::env::temp_dir().join("hyperear_bench_selftest");
        let mut config = fast_config();
        config.json_dir = Some(dir.clone());
        let mut suite = Suite::with_config("jsontest", config);
        suite.bench("noop", || std::hint::black_box(1u64));
        suite.finish();
        let text = std::fs::read_to_string(dir.join("jsontest.json")).unwrap();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.field::<String>("suite").unwrap(), "jsontest");
        assert_eq!(v.get("results").unwrap().as_array().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
