//! Extension (paper §IX future work): non-line-of-sight operation.
//!
//! "Second, the system assumes a speaker and the phone to be in LoS
//! condition. In the future, we will utilize the mobility of the user."
//!
//! We attenuate the direct path progressively (an obstruction between
//! user and speaker) while reflections stay intact, and measure how 2D
//! accuracy degrades. Past ~20 dB the matched filter starts locking onto
//! early reflections, whose path geometry no longer satisfies the
//! triangulation model — the failure mode that motivates "move and try
//! again".

use crate::harness::{collect_slide_errors, parallel_trials, seed_range, SessionSpec};
use crate::report::Report;
use hyperear::config::HyperEarConfig;
use hyperear::metrics::Cdf;
use hyperear_sim::phone::PhoneModel;

use super::Scale;

/// Runs the experiment.
#[must_use]
pub(crate) fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "ext-nlos",
        "Extension: direct-path obstruction sweep (ruler 2D, 5 m, meeting room)",
    );
    let mut means = Vec::new();
    for (i, &attenuation) in [0.0f64, 6.0, 12.0, 20.0, 30.0].iter().enumerate() {
        let spec = SessionSpec {
            direct_path_attenuation_db: attenuation,
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 5.0)
        };
        let errors = collect_slide_errors(
            &spec,
            &seed_range(71_000 + 100 * i as u64, scale.sessions_2d),
        );
        report.cdf_row(&format!("direct path -{attenuation} dB"), &errors);
        means.push(
            Cdf::new(&errors)
                .map(|c| c.stats().mean)
                .unwrap_or(f64::NAN),
        );
    }
    // NLoS detectability: compare the matched-filter beacon strength of
    // clear versus blocked sessions — the cue an app uses to ask the user
    // to move (the paper's mobility mitigation).
    let strength_of = |attenuation: f64, base: u64| -> Option<f64> {
        let spec = SessionSpec {
            direct_path_attenuation_db: attenuation,
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 5.0)
        };
        let vals: Vec<f64> = parallel_trials(&seed_range(base, 3), |seed| {
            spec.run(seed).ok().map(|(_, r)| r.mean_beacon_strength)
        })
        .into_iter()
        .flatten()
        .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    report.blank();
    if let (Some(s_clear), Some(s_blocked)) = (strength_of(0.0, 72_000), strength_of(30.0, 72_100))
    {
        report.line(format!(
            "  NLoS detectability: mean beacon strength {:.3} (clear) vs {:.3} (blocked),",
            s_clear, s_blocked
        ));
        report.line(format!(
            "  a {:.0}x drop — an app can flag the obstruction and ask the user to move.",
            s_clear / s_blocked.max(1e-9)
        ));
    }
    let clear = means[0];
    let worst = means
        .iter()
        .rev()
        .find(|m| m.is_finite())
        .copied()
        .unwrap_or(f64::NAN);
    report.line(format!(
        "  Degradation: {:.1} cm (clear LoS) -> {:.1} cm (deep obstruction).",
        clear * 100.0,
        worst * 100.0
    ));
    report.line("  LoS is indeed load-bearing: once reflections dominate, the hyperbola");
    report.line("  model sees a phantom source at the image position. User mobility (a");
    report.line("  few steps sideways) restores the direct path — the paper's proposed fix.");
    report
}
