//! §VII-A experimental-setup constants: the two phones and the beacon.

use crate::report::Report;
use hyperear_dsp::SPEED_OF_SOUND;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::speaker::SpeakerModel;

/// Runs the check.
#[must_use]
pub(crate) fn run() -> Report {
    let mut report = Report::new("tab-phones", "§VII-A: experimental hardware constants");
    report.line("  phone                      mic sep   fs        bits  N (Eq. 2)");
    for phone in [PhoneModel::galaxy_s4(), PhoneModel::galaxy_note3()] {
        report.line(format!(
            "  {:<25}  {:>5.2}cm  {:>6.0}Hz   {:>2}   {:>3}",
            phone.name,
            phone.mic_separation * 100.0,
            phone.audio_sample_rate,
            phone.audio_bits,
            phone.distinguishable_hyperbolas(SPEED_OF_SOUND)
        ));
    }
    report.blank();
    let speaker = SpeakerModel::new();
    report.line(format!(
        "  beacon: {}-{} Hz up-down chirp, {} ms, every {} ms (paper: 2-6.4 kHz / 200 ms)",
        speaker.chirp_f0,
        speaker.chirp_f1,
        speaker.chirp_duration * 1_000.0,
        speaker.period * 1_000.0
    ));
    report.line("  paper values: S4 D = 13.66 cm (N = 35), Note3 D = 15.12 cm, 16-bit 44.1 kHz");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        let text = run().render();
        assert!(text.contains("13.66"));
        assert!(text.contains("15.12"));
        assert!(text.contains("35"), "{text}");
    }
}
