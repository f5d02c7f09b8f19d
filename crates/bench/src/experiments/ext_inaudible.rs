//! Extension (paper §IX future work): inaudible beacons.
//!
//! "First, the system adopts a linear chirp sound signal that is audible
//! to the human ear. ... In the future, we will examine to use inaudible
//! sound signals and investigate the impact of signal distortion due to
//! frequency selectivity of smartphone microphones."
//!
//! We move the beacon to a 16–19.5 kHz near-ultrasonic chirp and model
//! the phone microphone's high-frequency roll-off (3 dB/kHz above
//! 15 kHz). The matched filter keeps using the *clean* reference, so the
//! distortion shows up exactly where it would on hardware: as a weaker,
//! slightly skewed correlation peak.

use crate::harness::{collect_slide_errors, seed_range, SessionSpec};
use crate::report::Report;
use hyperear::config::HyperEarConfig;
use hyperear::metrics::Cdf;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::speaker::SpeakerModel;

use super::Scale;

/// Runs the experiment.
#[must_use]
pub(crate) fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "ext-inaudible",
        "Extension: audible (2-6.4 kHz) vs near-ultrasonic (16-19.5 kHz) beacon, ruler, 5 m",
    );
    let phone = PhoneModel::galaxy_s4();

    // Audible baseline.
    let audible_spec = SessionSpec::ruler_2d(phone.clone(), HyperEarConfig::galaxy_s4(), 5.0);
    let audible = collect_slide_errors(&audible_spec, &seed_range(70_000, scale.sessions_2d));
    report.cdf_row("audible 2-6.4 kHz", &audible);

    // Near-ultrasonic: the pipeline must be told the new band.
    let speaker = SpeakerModel::inaudible();
    let mut config = HyperEarConfig::galaxy_s4();
    config.beacon.f0 = speaker.chirp_f0;
    config.beacon.f1 = speaker.chirp_f1;
    config.beacon.duration = speaker.chirp_duration;
    let mut envelope_config = config.clone();
    envelope_config.detection.envelope_detection = true;
    let inaudible_spec = SessionSpec {
        speaker: Some(speaker.clone()),
        ..SessionSpec::ruler_2d(phone.clone(), config, 5.0)
    };
    let inaudible = collect_slide_errors(&inaudible_spec, &seed_range(70_500, scale.sessions_2d));
    report.cdf_row("inaudible, raw correlation", &inaudible);

    // Envelope detection strips the ~2.5-sample carrier ripple that makes
    // raw peak-picking hop cycles at 17.75 kHz.
    let envelope_spec = SessionSpec {
        speaker: Some(speaker),
        ..SessionSpec::ruler_2d(phone, envelope_config, 5.0)
    };
    let enveloped = collect_slide_errors(&envelope_spec, &seed_range(70_500, scale.sessions_2d));
    report.cdf_row("inaudible, envelope detection", &enveloped);

    report.blank();
    let a_mean = Cdf::new(&audible)
        .map(|c| c.stats().mean)
        .unwrap_or(f64::NAN);
    let i_mean = Cdf::new(&inaudible)
        .map(|c| c.stats().mean)
        .unwrap_or(f64::NAN);
    let e_mean = Cdf::new(&enveloped)
        .map(|c| c.stats().mean)
        .unwrap_or(f64::NAN);
    report.line(format!(
        "  Raw peak-picking degrades ~{:.0}x at 16-19.5 kHz ({:.1} cm vs {:.1} cm):",
        i_mean / a_mean,
        i_mean * 100.0,
        a_mean * 100.0
    ));
    report.line("  the correlation rings at a ~2.5-sample carrier period, so maxima hop");
    report.line("  cycles, and the mic's HF roll-off costs matched-filter gain on top.");
    report.line(format!(
        "  Envelope (Hilbert) detection removes the carrier: mean {:.1} cm — inaudible",
        e_mean * 100.0
    ));
    report.line("  operation is viable with the right detector, quantifying and partly");
    report.line("  solving the distortion concern of the paper's future-work section.");
    report
}
