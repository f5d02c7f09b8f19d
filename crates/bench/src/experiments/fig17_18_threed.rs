//! Figs. 17 & 18: CDFs of 3D localization error with 5-slide aggregation,
//! phone held in hand, speaker at 0.5 m stature, ranges 1–7 m.
//!
//! Paper anchors at 7 m: S4 mean 15.8 cm / p90 25.2 cm; Note3 mean
//! 19.4 cm / p90 37.5 cm. Errors are floor-map distances (the projected
//! location of Section VI-B against ground truth).

use crate::harness::{collect_floor_errors, seed_range, SessionSpec};
use crate::report::Report;
use hyperear::config::HyperEarConfig;
use hyperear::metrics::Cdf;
use hyperear_sim::phone::PhoneModel;

use super::Scale;

const RANGES: [f64; 5] = [1.0, 2.0, 3.0, 5.0, 7.0];

fn run_phone(
    id: &str,
    title: &str,
    phone: PhoneModel,
    config: HyperEarConfig,
    seed_base: u64,
    scale: &Scale,
) -> Report {
    let mut report = Report::new(id, title);
    let mut means = Vec::new();
    for (i, &range) in RANGES.iter().enumerate() {
        let spec = SessionSpec::hand_3d(phone.clone(), config.clone(), range);
        let errors = collect_floor_errors(
            &spec,
            &seed_range(seed_base + 100 * i as u64, scale.sessions_3d),
        );
        report.cdf_row(&format!("{range} m"), &errors);
        means.push(
            Cdf::new(&errors)
                .map(|c| c.stats().mean)
                .unwrap_or(f64::NAN),
        );
    }
    report.blank();
    report.line("  Paper anchors @7m: S4 15.8cm/25.2cm, Note3 19.4cm/37.5cm (mean/p90).");
    let ordered = means
        .first()
        .zip(means.last())
        .is_some_and(|(a, b)| *b >= *a);
    report.line(format!(
        "  Paper claim (accurate 3D localization, degrading with range): {}",
        if ordered {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    report
}

/// Fig. 17 (Galaxy S4, in hand).
#[must_use]
pub(crate) fn run_s4(scale: &Scale) -> Report {
    run_phone(
        "fig17",
        "Fig. 17: 3D error CDF vs range (S4 in hand, 5-slide aggregation)",
        PhoneModel::galaxy_s4(),
        HyperEarConfig::galaxy_s4(),
        17_000,
        scale,
    )
}

/// Fig. 18 (Galaxy Note3, in hand).
#[must_use]
pub(crate) fn run_note3(scale: &Scale) -> Report {
    run_phone(
        "fig18",
        "Fig. 18: 3D error CDF vs range (Note3 in hand, 5-slide aggregation)",
        PhoneModel::galaxy_note3(),
        HyperEarConfig::galaxy_note3(),
        18_000,
        scale,
    )
}
