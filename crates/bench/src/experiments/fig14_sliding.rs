//! Fig. 14: CDF of 2D localization errors under different sliding
//! distances (Note3 on the slide ruler, speaker 5 m away).
//!
//! Paper anchors: mean error ≈ 142 cm for 10–20 cm slides versus ≈ 18 cm
//! for 50–60 cm slides — increasing the sliding range greatly reduces
//! error. The quality gate is disabled here (the short-slide buckets are
//! exactly what it would reject).

use crate::harness::{collect_slide_errors, seed_range, SessionSpec};
use crate::report::Report;
use hyperear::config::HyperEarConfig;
use hyperear::metrics::Cdf;
use hyperear_sim::phone::PhoneModel;

use super::Scale;

/// Runs the experiment.
#[must_use]
pub(crate) fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig14",
        "Fig. 14: 2D error CDF vs sliding distance (Note3, ruler, 5 m)",
    );
    let buckets = [
        ("Sliding 10-20cm", 0.15, 14_000u64),
        ("Sliding 30-40cm", 0.35, 14_100),
        ("Sliding 40-50cm", 0.45, 14_200),
        ("Sliding 50-60cm", 0.55, 14_300),
    ];
    let mut means = Vec::new();
    for (label, distance, seed_base) in buckets {
        let mut config = HyperEarConfig::galaxy_note3();
        config.quality_gate_enabled = false;
        let spec = SessionSpec {
            slide_distance: distance,
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_note3(), config, 5.0)
        };
        let errors = collect_slide_errors(&spec, &seed_range(seed_base, scale.sessions_2d));
        report.cdf_row(label, &errors);
        report.cdf_curve(label, &errors, &[0.25, 0.5, 1.0, 2.0]);
        if let Ok(cdf) = Cdf::new(&errors) {
            means.push(cdf.stats().mean);
        } else {
            means.push(f64::NAN);
        }
    }
    report.blank();
    report.line("  Paper anchors: mean ≈ 142 cm (10-20 cm) → ≈ 18 cm (50-60 cm).");
    let improves = means
        .first()
        .zip(means.last())
        .is_some_and(|(a, b)| *a > 2.0 * *b);
    report.line(format!(
        "  Paper claim (longer slides greatly reduce error): {}",
        if improves {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    report
}
