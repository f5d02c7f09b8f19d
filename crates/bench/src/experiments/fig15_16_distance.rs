//! Figs. 15 & 16: CDFs of 2D localization error versus speaker distance
//! (1–7 m), phone on the slide ruler with 50–60 cm slides.
//!
//! Paper anchors (S4): mean 2.0 cm / p90 3.5 cm at 1 m; mean 14.4 cm /
//! p90 22.3 cm at 7 m. The Note3 performs slightly worse than the S4.

use crate::harness::{collect_slide_errors, seed_range, SessionSpec};
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
        let spec = SessionSpec::ruler_2d(phone.clone(), config.clone(), range);
        let errors = collect_slide_errors(
            &spec,
            &seed_range(seed_base + 100 * i as u64, scale.sessions_2d),
        );
        report.cdf_row(&format!("{range} m"), &errors);
        means.push(
            Cdf::new(&errors)
                .map(|c| c.stats().mean)
                .unwrap_or(f64::NAN),
        );
    }
    report.blank();
    report.line("  Paper anchors (S4): mean 2.0cm/p90 3.5cm @1m; 14.4cm/22.3cm @7m.");
    let grows = means
        .first()
        .zip(means.last())
        .is_some_and(|(a, b)| *b > *a);
    report.line(format!(
        "  Paper claim (accuracy gradually decreases with range): {}",
        if grows {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    report
}

/// Fig. 15 (Galaxy S4).
#[must_use]
pub(crate) fn run_s4(scale: &Scale) -> Report {
    run_phone(
        "fig15",
        "Fig. 15: 2D error CDF vs range (S4, ruler, 50-60 cm slides)",
        PhoneModel::galaxy_s4(),
        HyperEarConfig::galaxy_s4(),
        15_000,
        scale,
    )
}

/// Fig. 16 (Galaxy Note3).
#[must_use]
pub(crate) fn run_note3(scale: &Scale) -> Report {
    run_phone(
        "fig16",
        "Fig. 16: 2D error CDF vs range (Note3, ruler, 50-60 cm slides)",
        PhoneModel::galaxy_note3(),
        HyperEarConfig::galaxy_note3(),
        16_000,
        scale,
    )
}
