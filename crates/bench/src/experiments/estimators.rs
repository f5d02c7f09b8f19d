//! `repro estimators`: accuracy-vs-cost of the TDoA estimator bank
//! under the injected fault matrix.
//!
//! Sweeps the full PR 3 fault matrix (clean baseline plus every fault
//! class in [`hyperear_sim::fault::matrix`] at three intensities)
//! through five pipeline configurations: each fixed
//! [`hyperear::config::TdoaEstimator`] variant plus an
//! escalating policy that starts on plain cross-correlation and walks
//! the estimator ladder only when the monitored outcome degrades. Every
//! seeded recording is rendered (and faulted) exactly once and replayed
//! through all five engines, so the comparison is paired: differences
//! in the error columns come from the estimator, not the realization.
//!
//! The contract under test: on clean input the escalating policy never
//! leaves plain cross-correlation (its clean errors are bit-identical
//! to the plain column and its clean cost is the plain cost), and under
//! NLOS multipath its median floor error is no worse than plain
//! cross-correlation — escalation buys robustness without a clean-path
//! tax.

use std::time::Instant;

use crate::harness::{floor_error, parallel_trials_with_state, seed_range, SessionSpec};
use crate::report::{fmt_m, Report};
use hyperear::config::{HyperEarConfig, TdoaEstimator};
use hyperear::metrics::OutcomeTally;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear_sim::fault::{matrix, Fault, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::RenderContext;

use super::Scale;

/// The intensities each fault class is swept at (matches `repro faults`).
const INTENSITIES: [f64; 3] = [0.35, 0.7, 1.0];

/// One pipeline configuration under comparison.
struct Contender {
    label: &'static str,
    config: HyperEarConfig,
}

fn contenders(base: &HyperEarConfig) -> Vec<Contender> {
    let mut out = Vec::new();
    for est in TdoaEstimator::ALL {
        let mut config = base.clone();
        config.estimator.initial = est;
        out.push(Contender {
            label: est.name(),
            config,
        });
    }
    let mut config = base.clone();
    config.estimator.escalation = true;
    out.push(Contender {
        label: "escalating",
        config,
    });
    out
}

/// Aggregate of one (condition, contender) pair.
#[derive(Default)]
struct Cell {
    tally: OutcomeTally,
    errors: Vec<f64>,
    /// Total pipeline wall time across the cell's sessions, microseconds.
    micros: u128,
    /// Sessions whose result reports the contender's initial estimator.
    on_initial: usize,
    /// Escalation retries recorded across the cell's diagnostics.
    escalations: usize,
}

/// One swept fault condition.
struct Condition {
    label: String,
    faults: Vec<Fault>,
    seed_base: u64,
}

/// Per-worker state: one warm engine per contender plus the shared
/// render context. Workers render each seed once and replay it through
/// every engine.
struct BankWorker {
    ctx: RenderContext,
    engines: Vec<Option<SessionEngine>>,
}

impl BankWorker {
    fn new(n: usize) -> Self {
        BankWorker {
            ctx: RenderContext::new(),
            engines: (0..n).map(|_| None).collect(),
        }
    }
}

/// Outcome of one session under one contender.
struct Run {
    outcome: SessionOutcome,
    error: Option<f64>,
    micros: u128,
}

fn sweep(spec: &SessionSpec, bank: &[Contender], condition: &Condition, n: usize) -> Vec<Cell> {
    let seeds = seed_range(condition.seed_base, n);
    let rows = parallel_trials_with_state(
        &seeds,
        || BankWorker::new(bank.len()),
        |worker, seed| {
            let mut rec = spec.render_with(seed, &mut worker.ctx).ok()?;
            if !condition.faults.is_empty() {
                // The plan seed follows the session seed, so every session
                // sees a different (but reproducible) fault realization.
                let plan = condition
                    .faults
                    .iter()
                    .fold(FaultPlan::new(seed ^ 0xE571), |p, &f| p.with(f));
                plan.apply(&mut rec).ok()?;
            }
            let input = SessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                left: &rec.audio.left,
                right: &rec.audio.right,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            };
            let mut runs = Vec::with_capacity(bank.len());
            for (slot, contender) in worker.engines.iter_mut().zip(bank) {
                if slot.is_none() {
                    *slot = Some(SessionEngine::new(contender.config.clone()).ok()?);
                }
                let engine = slot.as_mut().expect("engine just ensured");
                let t0 = Instant::now();
                let outcome = engine.run_monitored(&input);
                let micros = t0.elapsed().as_micros();
                let error = outcome.result().and_then(|r| floor_error(&rec, r));
                runs.push(Run {
                    outcome,
                    error,
                    micros,
                });
            }
            Some(runs)
        },
    );
    let mut cells: Vec<Cell> = (0..bank.len()).map(|_| Cell::default()).collect();
    for runs in rows.into_iter().flatten() {
        for (cell, (run, contender)) in cells.iter_mut().zip(runs.iter().zip(bank)) {
            cell.tally.record(&run.outcome);
            cell.micros += run.micros;
            if let Some(e) = run.error {
                cell.errors.push(e);
            }
            if let Some(result) = run.outcome.result() {
                if result.estimator == contender.config.estimator.initial {
                    cell.on_initial += 1;
                }
            }
            if let Some(d) = run.outcome.diagnostics() {
                cell.escalations += d.escalations;
            }
        }
    }
    cells
}

fn median(errors: &[f64]) -> Option<f64> {
    if errors.is_empty() {
        return None;
    }
    let mut sorted = errors.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[sorted.len() / 2])
}

fn fmt_med(errors: &[f64]) -> String {
    median(errors).map_or_else(|| "   --".to_string(), |m| format!("{:>6}", fmt_m(m)))
}

fn mean_ms(cell: &Cell) -> f64 {
    if cell.tally.sessions == 0 {
        return 0.0;
    }
    cell.micros as f64 / cell.tally.sessions as f64 / 1000.0
}

/// Runs the experiment.
#[must_use]
#[allow(clippy::too_many_lines)]
pub(crate) fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "estimators",
        "TDoA estimator bank: accuracy vs. cost across the fault matrix",
    );
    let spec = SessionSpec {
        slides: 5,
        ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 3.0)
    };
    let bank = contenders(&spec.config);
    let n = scale.sessions_2d;
    report.line(format!(
        "  Protocol: ruler 2D @ 3 m, 5 slides, {}, {n} sessions/cell, monitored pipeline.",
        spec.environment.name
    ));
    report.line("  Each seeded recording is rendered+faulted once and replayed through every");
    report.line("  contender (paired comparison). Cost is mean pipeline wall time per session.");
    report.blank();

    // Conditions: clean baseline, then every fault class x intensity.
    let mut conditions = vec![Condition {
        label: "clean baseline".to_string(),
        faults: Vec::new(),
        seed_base: 53_000,
    }];
    let classes = matrix(1.0).len();
    for class in 0..classes {
        for (j, &intensity) in INTENSITIES.iter().enumerate() {
            let fault = matrix(intensity)[class];
            conditions.push(Condition {
                label: format!("{} x{intensity:.2}", fault.name()),
                faults: vec![fault],
                seed_base: 53_000 + 1_000 * (class as u64 + 1) + 100 * j as u64,
            });
        }
    }

    // grid[c][k]: condition c under contender k.
    let grid: Vec<Vec<Cell>> = conditions
        .iter()
        .map(|condition| sweep(&spec, &bank, condition, n))
        .collect();

    // Per-condition medians, one compact row per swept cell.
    report.line(format!(
        "  {:<28}{}",
        "median floor error",
        bank.iter()
            .map(|c| format!(" {:>10}", c.label))
            .collect::<String>()
    ));
    for (condition, cells) in conditions.iter().zip(&grid) {
        report.line(format!(
            "  {:<28}{}",
            condition.label,
            cells
                .iter()
                .map(|cell| format!(" {:>10}", fmt_med(&cell.errors).trim()))
                .collect::<String>()
        ));
    }
    report.blank();

    // Accuracy-vs-cost table: one row per contender, aggregated over
    // the fault cells (everything but the clean baseline).
    report.line(format!(
        "  {:<16} {:>10} {:>9} {:>10} {:>8} {:>9} {:>9}",
        "contender", "clean med", "clean ms", "fault med", "usable", "fault ms", "esc/swap"
    ));
    let mut fault_errors: Vec<Vec<f64>> = (0..bank.len()).map(|_| Vec::new()).collect();
    for (k, contender) in bank.iter().enumerate() {
        let clean = &grid[0][k];
        let mut fault_tally = OutcomeTally::new();
        let mut micros = 0u128;
        let mut escalations = 0usize;
        let mut swapped = 0usize;
        for cells in grid.iter().skip(1) {
            let cell = &cells[k];
            fault_errors[k].extend_from_slice(&cell.errors);
            micros += cell.micros;
            escalations += cell.escalations;
            swapped += (cell.tally.ok + cell.tally.degraded).saturating_sub(cell.on_initial);
            fault_tally.ok += cell.tally.ok;
            fault_tally.degraded += cell.tally.degraded;
            fault_tally.failed += cell.tally.failed;
            fault_tally.sessions += cell.tally.sessions;
        }
        let fault_ms = if fault_tally.sessions == 0 {
            0.0
        } else {
            micros as f64 / fault_tally.sessions as f64 / 1000.0
        };
        report.line(format!(
            "  {:<16} {:>10} {:>9.1} {:>10} {:>7.0}% {:>9.1} {:>6}/{}",
            contender.label,
            fmt_med(&clean.errors).trim(),
            mean_ms(clean),
            fmt_med(&fault_errors[k]).trim(),
            100.0 * fault_tally.usable_fraction(),
            fault_ms,
            escalations,
            swapped,
        ));
        report.cdf_row(&format!("{} (faulted)", contender.label), &fault_errors[k]);
    }
    report.blank();

    // Contract 1: every session under every contender returns a typed
    // outcome — no panics, no silently missing cells.
    let mut sessions = 0usize;
    let mut typed = 0usize;
    for cells in &grid {
        for cell in cells {
            sessions += cell.tally.sessions;
            typed += cell.tally.ok + cell.tally.degraded + cell.tally.failed;
        }
    }
    let typed_held = sessions == typed && sessions == conditions.len() * bank.len() * n;

    // Contract 2: clean sessions never escalate. The escalating
    // contender's clean cell stays on plain cross-correlation with zero
    // retries, and its clean errors are bit-identical to the plain
    // column (same recording, same estimator, same code path).
    let plain_idx = 0;
    let esc_idx = bank.len() - 1;
    let plain_clean = &grid[0][plain_idx];
    let esc_clean = &grid[0][esc_idx];
    let clean_held = esc_clean.escalations == 0
        && esc_clean.on_initial == esc_clean.tally.sessions
        && esc_clean.errors == plain_clean.errors;

    // Contract 3: under NLOS multipath (pooled over intensities) the
    // escalating policy's median floor error is no worse than plain
    // cross-correlation on the same recordings.
    let mut plain_nlos = Vec::new();
    let mut esc_nlos = Vec::new();
    for (condition, cells) in conditions.iter().zip(&grid) {
        if condition.label.starts_with("nlos-multipath") {
            plain_nlos.extend_from_slice(&cells[plain_idx].errors);
            esc_nlos.extend_from_slice(&cells[esc_idx].errors);
        }
    }
    let (plain_med, esc_med) = (median(&plain_nlos), median(&esc_nlos));
    let nlos_held = match (plain_med, esc_med) {
        (Some(p), Some(e)) => e <= p,
        _ => false,
    };
    report.line(format!(
        "  NLOS multipath pooled median: plain {} vs escalating {}.",
        plain_med.map_or_else(|| "--".to_string(), fmt_m),
        esc_med.map_or_else(|| "--".to_string(), fmt_m),
    ));
    report.line(format!(
        "  estimator-contract: typed outcomes {}, clean stays plain {}, \
         nlos no worse {}: {}",
        if typed_held { "ok" } else { "FAIL" },
        if clean_held { "ok" } else { "FAIL" },
        if nlos_held { "ok" } else { "FAIL" },
        if typed_held && clean_held && nlos_held {
            "HELD"
        } else {
            "VIOLATED"
        }
    ));
    report
}
