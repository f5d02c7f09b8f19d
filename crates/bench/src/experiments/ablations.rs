//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! Beyond the paper's own figures, these isolate the contribution of each
//! pipeline stage by switching it off and re-running the 2D ruler
//! condition at 5 m:
//!
//! - sub-sample interpolation (parabolic → integer peaks),
//! - SFO correction (estimated period → nominal 200 ms),
//! - Eq. 4 drift correction (corrected → raw integral displacement),
//! - aggregation policy (median → joint least squares),
//! - quality gate (in-hand condition, gate on → off).

use crate::harness::{collect_floor_errors, collect_slide_errors, seed_range, SessionSpec};
use crate::report::Report;
use hyperear::config::{Aggregation, HyperEarConfig, Interpolation};
use hyperear::metrics::Cdf;
use hyperear_sim::phone::PhoneModel;

use super::Scale;

fn mean_of(errors: &[f64]) -> f64 {
    Cdf::new(errors).map(|c| c.stats().mean).unwrap_or(f64::NAN)
}

/// Runs all ablations.
#[must_use]
pub(crate) fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "ablations",
        "Ablations: per-stage contribution at 5 m (ruler 2D unless noted)",
    );
    let phone = PhoneModel::galaxy_s4();
    let base_config = HyperEarConfig::galaxy_s4();
    let seeds_2d = seed_range(90_000, scale.sessions_2d);

    // Baseline.
    let spec = SessionSpec::ruler_2d(phone.clone(), base_config.clone(), 5.0);
    let base_errors = collect_slide_errors(&spec, &seeds_2d);
    report.cdf_row("full pipeline (baseline)", &base_errors);
    let base_mean = mean_of(&base_errors);

    // Interpolation off.
    let mut config = base_config.clone();
    config.detection.interpolation = Interpolation::None;
    let spec = SessionSpec::ruler_2d(phone.clone(), config, 5.0);
    let errors = collect_slide_errors(&spec, &seeds_2d);
    report.cdf_row("- sub-sample interpolation", &errors);
    let no_interp = mean_of(&errors);

    // SFO correction off.
    let mut config = base_config.clone();
    config.sfo_correction = false;
    let spec = SessionSpec::ruler_2d(phone.clone(), config, 5.0);
    let errors = collect_slide_errors(&spec, &seeds_2d);
    report.cdf_row("- SFO correction", &errors);
    let no_sfo = mean_of(&errors);

    // Drift correction off.
    let mut config = base_config.clone();
    config.inertial.drift_correction = false;
    let spec = SessionSpec::ruler_2d(phone.clone(), config, 5.0);
    let errors = collect_slide_errors(&spec, &seeds_2d);
    report.cdf_row("- Eq. 4 drift correction", &errors);

    // Joint aggregation (alternative, not expected to be worse).
    let mut config = base_config.clone();
    config.aggregation = Aggregation::Joint;
    let spec = SessionSpec::ruler_2d(phone.clone(), config, 5.0);
    let errors = collect_slide_errors(&spec, &seeds_2d);
    report.cdf_row("median → joint aggregation", &errors);

    // Quality gate, in-hand 3D condition.
    let seeds_3d = seed_range(95_000, scale.sessions_3d);
    let spec = SessionSpec::hand_3d(phone.clone(), base_config.clone(), 5.0);
    let errors_gated = collect_floor_errors(&spec, &seeds_3d);
    report.cdf_row("in-hand 3D, gate on", &errors_gated);
    let mut config = base_config;
    config.quality_gate_enabled = false;
    let spec = SessionSpec::hand_3d(phone, config, 5.0);
    let errors_ungated = collect_floor_errors(&spec, &seeds_3d);
    report.cdf_row("in-hand 3D, gate off", &errors_ungated);

    report.blank();
    report.line(format!(
        "  SFO correction matters:          {} (mean {:.3} m -> {:.3} m without)",
        if no_sfo > 1.5 * base_mean {
            "CONFIRMED"
        } else {
            "not confirmed at this scale"
        },
        base_mean,
        no_sfo
    ));
    report.line(format!(
        "  Sub-sample interpolation matters: {} (mean {:.3} m -> {:.3} m without)",
        if no_interp > base_mean {
            "CONFIRMED"
        } else {
            "not confirmed at this scale"
        },
        base_mean,
        no_interp
    ));
    report
}
