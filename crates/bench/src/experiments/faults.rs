//! `repro faults`: graceful degradation under the injected fault matrix.
//!
//! Sweeps every fault class in [`hyperear_sim::fault::matrix`] across
//! three intensities (plus a clean baseline and the full combined
//! matrix), runs each corrupted session through the *monitored* pipeline
//! ([`hyperear::pipeline::SessionEngine::run_monitored`]), and reports
//! outcome rates, per-stage rejection diagnostics, and floor-error CDFs
//! per cell. The contract under test: a corrupted session either
//! recovers within the re-slide budget (`Ok`/`Degraded` with a usable
//! estimate) or returns a typed `Failed` with diagnostics — never a
//! panic — and the whole sweep is exactly repeatable from its seeds.

use crate::harness::{
    floor_error, parallel_trials_with_state, seed_range, SessionSpec, TrialWorker,
};
use crate::report::Report;
use hyperear::config::HyperEarConfig;
use hyperear::metrics::OutcomeTally;
use hyperear_sim::fault::{matrix, Fault, FaultLog, FaultPlan};
use hyperear_sim::phone::PhoneModel;

use super::Scale;

/// The intensities each fault class is swept at.
const INTENSITIES: [f64; 3] = [0.35, 0.7, 1.0];

/// One swept condition's aggregate.
struct Cell {
    label: String,
    tally: OutcomeTally,
    errors: Vec<f64>,
    injected: usize,
}

fn injected_events(log: &FaultLog) -> usize {
    log.beacons_dropped
        + log.beacons_clipped
        + log.multipath_echoes
        + log.channel_dropouts
        + log.bursts
        + log.imu_gaps
        + log.saturated_samples
}

fn sweep(spec: &SessionSpec, faults: &[Fault], label: String, seed_base: u64, n: usize) -> Cell {
    let seeds = seed_range(seed_base, n);
    let rows = parallel_trials_with_state(&seeds, TrialWorker::new, |worker, seed| {
        // The plan seed follows the session seed, so every session sees a
        // different (but reproducible) realization of the same fault mix.
        let plan = faults
            .iter()
            .fold(FaultPlan::new(seed ^ 0xFA17), |p, &f| p.with(f));
        let (rec, log, outcome) = spec
            .run_monitored_with(seed, (!faults.is_empty()).then_some(&plan), worker)
            .ok()?;
        let error = outcome.result().and_then(|r| floor_error(&rec, r));
        Some((log, outcome, error))
    });
    let mut cell = Cell {
        label,
        tally: OutcomeTally::new(),
        errors: Vec::new(),
        injected: 0,
    };
    for row in rows.into_iter().flatten() {
        let (log, outcome, error) = row;
        cell.tally.record(&outcome);
        cell.injected += injected_events(&log);
        if let Some(e) = error {
            cell.errors.push(e);
        }
    }
    cell
}

fn report_cell(report: &mut Report, cell: &Cell) {
    let t = &cell.tally;
    report.line(format!(
        "  {:<34} ok={} deg={} fail={} usable={:>3.0}%  rej={} nofix={} dropped={} inj={}",
        cell.label,
        t.ok,
        t.degraded,
        t.failed,
        100.0 * t.usable_fraction(),
        t.slides_rejected,
        t.slides_without_fix,
        t.slides_dropped,
        cell.injected,
    ));
    report.cdf_row(&cell.label, &cell.errors);
}

/// The N>2 cell: a 3-microphone array session with one extra channel
/// fully dropped (cross-channel dropout). The primary pair is intact,
/// so the session must stay usable; only the planar bearing prior —
/// which needs every channel — is allowed to disappear.
fn array_dropout_cell(report: &mut Report, n: usize) {
    use hyperear::pipeline::{ArraySessionInput, SessionEngine};
    use hyperear_geom::devices;
    use hyperear_sim::environment::Environment;
    use hyperear_sim::scenario::ScenarioBuilder;

    let preset = devices::TABLET_TRIANGLE;
    let config = HyperEarConfig::for_device(preset);
    let Ok(mut engine) = SessionEngine::new(config) else {
        report.line("  array cell: engine construction failed");
        return;
    };
    let array = preset.array();
    let mut tally = OutcomeTally::new();
    let (mut dropped, mut prior_intact, mut prior_dropped) = (0usize, 0usize, 0usize);
    for k in 0..n.max(2) {
        let rec = match ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(3.0)
            .slides(5)
            .seed(43_000 + k as u64)
            .render_array(&array)
        {
            Ok(rec) => rec,
            Err(_) => continue,
        };
        let mut channels = rec.audio.channels.clone();
        let drop_extra = k % 2 == 1;
        if drop_extra {
            channels[2].iter_mut().for_each(|s| *s = 0.0);
            dropped += 1;
        }
        let refs: Vec<&[f64]> = channels.iter().map(Vec::as_slice).collect();
        let outcome = engine.run_monitored(&ArraySessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            channels: &refs,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        });
        tally.record(&outcome);
        if outcome.result().is_some_and(|r| r.bearing.is_some()) {
            if drop_extra {
                prior_dropped += 1;
            } else {
                prior_intact += 1;
            }
        }
    }
    report.line(format!(
        "  {:<34} ok={} deg={} fail={} usable={:>3.0}%  ch2-dropped={} prior kept {}->{} ",
        "array 3-mic ch2 dropout",
        tally.ok,
        tally.degraded,
        tally.failed,
        100.0 * tally.usable_fraction(),
        dropped,
        prior_intact,
        prior_dropped,
    ));
    let typed = tally.ok + tally.degraded + tally.failed;
    report.line(format!(
        "  Array degradation contract (every array session returns a typed outcome, \
         dropout only costs the bearing prior): {}",
        if typed == tally.sessions && tally.sessions > 0 && prior_dropped == 0 && prior_intact > 0 {
            "HELD"
        } else {
            "VIOLATED"
        }
    ));
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "faults",
        "Fault-matrix sweep: session outcomes and error CDFs vs. fault intensity",
    );
    let spec = SessionSpec {
        slides: 5,
        ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 3.0)
    };
    let n = scale.sessions_2d;
    report.line(format!(
        "  Protocol: ruler 2D @ 3 m, 5 slides, {}, {n} sessions/cell, monitored pipeline.",
        spec.environment.name
    ));
    report.line("  Per cell: outcome counts, per-stage rejections (rej=quality-gate, nofix=no");
    report.line("  acoustic fix, dropped=re-slide budget), injected fault events, error CDF.");
    report.blank();

    let mut cells = Vec::new();
    cells.push(sweep(&spec, &[], "clean baseline".to_string(), 23_000, n));
    let classes = matrix(1.0).len();
    for class in 0..classes {
        for (j, &intensity) in INTENSITIES.iter().enumerate() {
            let fault = matrix(intensity)[class];
            let label = format!("{} x{intensity:.2}", fault.name());
            let base = 23_000 + 1_000 * (class as u64 + 1) + 100 * j as u64;
            cells.push(sweep(&spec, &[fault], label, base, n));
        }
    }
    for (j, &intensity) in INTENSITIES.iter().enumerate() {
        let faults = matrix(intensity);
        let label = format!("combined matrix x{intensity:.2}");
        cells.push(sweep(&spec, &faults, label, 33_000 + 100 * j as u64, n));
    }
    for cell in &cells {
        report_cell(&mut report, cell);
    }
    array_dropout_cell(&mut report, n.min(8));

    report.blank();
    let total_sessions: usize = cells.iter().map(|c| c.tally.sessions).sum();
    let typed: usize = cells
        .iter()
        .map(|c| c.tally.ok + c.tally.degraded + c.tally.failed)
        .sum();
    let clean_usable = cells[0].tally.usable_fraction();
    let mild_usable: f64 = {
        let mild: Vec<&Cell> = cells
            .iter()
            .skip(1)
            .filter(|c| c.label.ends_with("x0.35"))
            .collect();
        mild.iter().map(|c| c.tally.usable_fraction()).sum::<f64>() / mild.len().max(1) as f64
    };
    report.line(format!(
        "  Degradation contract (every session returns a typed outcome): {}",
        if typed == total_sessions && total_sessions > 0 {
            "HELD"
        } else {
            "VIOLATED"
        }
    ));
    report.line(format!(
        "  Clean usable rate {:.0}%; mean usable rate at mild (x0.35) intensity {:.0}%.",
        100.0 * clean_usable,
        100.0 * mild_usable,
    ));
    report
}
