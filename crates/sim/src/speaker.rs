//! The beacon speaker.
//!
//! "A cheap desktop speaker with 2W RMS power and 150Hz-20kHz frequency
//! response is used ... connected to a laptop which keeps playing chirp
//! signals on every 200ms" (Section VII-A). The speaker has its *own*
//! clock: beacon emission times drift relative to the phone's ADC clock,
//! which is precisely the SFO problem Acoustic Signal Preprocessing must
//! correct.

use crate::SimError;
use hyperear_dsp::chirp::{Chirp, ChirpShape};

/// Configuration of the beacon source.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeakerModel {
    /// Lower chirp band edge, hertz.
    pub chirp_f0: f64,
    /// Upper chirp band edge, hertz.
    pub chirp_f1: f64,
    /// Chirp duration, seconds.
    pub chirp_duration: f64,
    /// Nominal beacon repetition period, seconds.
    pub period: f64,
    /// Clock skew of the speaker's playback clock, parts per million.
    /// The *actual* emission period is `period · (1 + ppm·1e-6)`.
    pub clock_ppm: f64,
    /// Source amplitude at 1 m, linear full-scale units.
    pub amplitude_at_1m: f64,
    /// Frequency-sweep shape of the emitted chirp. Multi-beacon scenes
    /// give each co-located speaker a distinct band/shape signature.
    pub chirp_shape: ChirpShape,
}

impl Default for SpeakerModel {
    fn default() -> Self {
        SpeakerModel {
            chirp_f0: Chirp::HYPEREAR_F0,
            chirp_f1: Chirp::HYPEREAR_F1,
            chirp_duration: Chirp::HYPEREAR_DURATION,
            period: Chirp::HYPEREAR_PERIOD,
            clock_ppm: 23.0,
            amplitude_at_1m: 0.25,
            chirp_shape: ChirpShape::UpDown,
        }
    }
}

impl SpeakerModel {
    /// Creates the paper's default beacon configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A near-ultrasonic beacon (16–19.5 kHz) — the paper's future-work
    /// direction: "we will examine to use inaudible sound signals and
    /// investigate the impact of signal distortion due to frequency
    /// selectivity of smartphone microphones". Most adults cannot hear
    /// above ~16 kHz; the band still fits under the 22.05 kHz Nyquist
    /// limit. The chirp is lengthened to 60 ms to partially recover the
    /// time-bandwidth product lost to the narrower sweep.
    #[must_use]
    pub fn inaudible() -> Self {
        SpeakerModel {
            chirp_f0: 16_000.0,
            chirp_f1: 19_500.0,
            chirp_duration: 0.06,
            ..SpeakerModel::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for out-of-range fields.
    pub(crate) fn validate(&self, audio_sample_rate: f64) -> Result<(), SimError> {
        if self.chirp_f0 <= 0.0 || self.chirp_f1 <= self.chirp_f0 {
            return Err(SimError::invalid(
                "chirp_f0/chirp_f1",
                format!(
                    "need 0 < f0 < f1, got {} / {}",
                    self.chirp_f0, self.chirp_f1
                ),
            ));
        }
        if self.chirp_f1 >= audio_sample_rate / 2.0 {
            return Err(SimError::invalid(
                "chirp_f1",
                format!(
                    "band edge {} above Nyquist {}",
                    self.chirp_f1,
                    audio_sample_rate / 2.0
                ),
            ));
        }
        if !(0.001..=self.period).contains(&self.chirp_duration) {
            return Err(SimError::invalid(
                "chirp_duration",
                format!(
                    "must be within [1 ms, period {}], got {}",
                    self.period, self.chirp_duration
                ),
            ));
        }
        if !(0.01..=5.0).contains(&self.period) {
            return Err(SimError::invalid(
                "period",
                format!("must be within [0.01, 5] s, got {}", self.period),
            ));
        }
        if self.clock_ppm.abs() > 200.0 {
            return Err(SimError::invalid(
                "clock_ppm",
                format!("must be within ±200 ppm, got {}", self.clock_ppm),
            ));
        }
        if !(self.amplitude_at_1m > 0.0 && self.amplitude_at_1m <= 1.0) {
            return Err(SimError::invalid(
                "amplitude_at_1m",
                format!("must be in (0, 1], got {}", self.amplitude_at_1m),
            ));
        }
        Ok(())
    }

    /// The actual emission period including clock skew, seconds.
    #[must_use]
    pub(crate) fn actual_period(&self) -> f64 {
        self.period * (1.0 + self.clock_ppm * 1e-6)
    }

    /// The emission start time of beacon `k` (0-based), seconds on the
    /// true (wall) clock.
    #[must_use]
    pub(crate) fn emission_time(&self, k: usize) -> f64 {
        k as f64 * self.actual_period()
    }

    /// Number of beacons fully emitted within `duration` seconds.
    #[must_use]
    pub(crate) fn beacons_within(&self, duration: f64) -> usize {
        if duration <= self.chirp_duration {
            return 0;
        }
        (((duration - self.chirp_duration) / self.actual_period()).floor() as usize) + 1
    }

    /// Synthesizes the reference chirp at the given sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Dsp`] if the parameters cannot be synthesized.
    pub(crate) fn reference_chirp(&self, sample_rate: f64) -> Result<Chirp, SimError> {
        Ok(Chirp::new(
            self.chirp_f0,
            self.chirp_f1,
            self.chirp_duration,
            sample_rate,
            self.chirp_shape,
        )?)
    }

    /// The speaker for beacon signature `k` of a K-beacon deployment:
    /// half-overlapping sub-bands of this speaker's chirp band (width
    /// `2·span/(K+1)`, hop `span/(K+1)`) with alternating up/down sweeps
    /// — the simulator-side mirror of the pipeline's
    /// `MultiBeaconConfig::distinct_bands`. The overlap keeps every
    /// sub-band wide enough that matched-filter peaks don't slip
    /// between carrier ridges, while the alternating sweep directions
    /// keep overlapping neighbours quasi-orthogonal. `k = 0` of 1
    /// returns the speaker unchanged.
    #[must_use]
    pub fn with_signature(&self, k: usize, beacons: usize) -> Self {
        let beacons = beacons.max(1);
        let k = k.min(beacons - 1);
        if beacons == 1 {
            return self.clone();
        }
        let hop = (self.chirp_f1 - self.chirp_f0) / (beacons + 1) as f64;
        SpeakerModel {
            chirp_f0: self.chirp_f0 + k as f64 * hop,
            chirp_f1: self.chirp_f0 + (k + 2) as f64 * hop,
            chirp_shape: if k.is_multiple_of(2) {
                ChirpShape::Up
            } else {
                ChirpShape::Down
            },
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_beacon() {
        let s = SpeakerModel::new();
        assert_eq!(s.chirp_f0, 2_000.0);
        assert_eq!(s.chirp_f1, 6_400.0);
        assert_eq!(s.period, 0.2);
        assert!(s.validate(44_100.0).is_ok());
    }

    #[test]
    fn actual_period_includes_skew() {
        let mut s = SpeakerModel::new();
        s.clock_ppm = 50.0;
        assert!((s.actual_period() - 0.2 * 1.00005).abs() < 1e-12);
        assert_eq!(s.emission_time(0), 0.0);
        assert!((s.emission_time(10) - 10.0 * s.actual_period()).abs() < 1e-12);
    }

    #[test]
    fn beacons_within_counts_complete_chirps() {
        let s = SpeakerModel::new(); // 40 ms chirp, ~200 ms period
        assert_eq!(s.beacons_within(0.0), 0);
        assert_eq!(s.beacons_within(0.05), 1);
        assert_eq!(s.beacons_within(1.0), 5); // k=0..4 fit (0.8+0.04 < 1.0)
        assert_eq!(s.beacons_within(2.0), 10);
    }

    #[test]
    fn reference_chirp_is_synthesizable() {
        let s = SpeakerModel::new();
        let c = s.reference_chirp(44_100.0).unwrap();
        assert_eq!(c.samples().len(), 1764);
    }

    #[test]
    fn inaudible_preset_is_valid_and_high_band() {
        let s = SpeakerModel::inaudible();
        assert!(s.validate(44_100.0).is_ok());
        assert!(s.chirp_f0 >= 16_000.0);
        assert!(s.chirp_f1 < 22_050.0);
        let c = s.reference_chirp(44_100.0).unwrap();
        assert_eq!(c.samples().len(), (0.06 * 44_100.0) as usize);
    }

    #[test]
    fn with_signature_partitions_the_band_with_alternating_sweeps() {
        let base = SpeakerModel::new(); // 2000–6400 Hz, hop 880 for K=4
        assert_eq!(base.with_signature(0, 1), base);
        let sigs: Vec<SpeakerModel> = (0..4).map(|k| base.with_signature(k, 4)).collect();
        for (k, s) in sigs.iter().enumerate() {
            assert!(s.validate(44_100.0).is_ok(), "signature {k}");
            assert!((s.chirp_f0 - (2_000.0 + k as f64 * 880.0)).abs() < 1e-9);
            assert!((s.chirp_f1 - s.chirp_f0 - 1_760.0).abs() < 1e-9);
            assert!(s.chirp_f1 <= base.chirp_f1 + 1e-9);
            let expect = if k.is_multiple_of(2) {
                ChirpShape::Up
            } else {
                ChirpShape::Down
            };
            assert_eq!(s.chirp_shape, expect);
            // Untouched fields ride along.
            assert_eq!(s.period, base.period);
            assert_eq!(s.clock_ppm, base.clock_ppm);
        }
        // The signature shape reaches the synthesized chirp.
        let c = sigs[1].reference_chirp(44_100.0).unwrap();
        assert_eq!(c.samples().len(), 1764);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let base = SpeakerModel::new();
        let mut s = base.clone();
        s.chirp_f0 = 0.0;
        assert!(s.validate(44_100.0).is_err());
        let mut s = base.clone();
        s.chirp_f1 = 30_000.0;
        assert!(s.validate(44_100.0).is_err());
        let mut s = base.clone();
        s.chirp_duration = 0.5;
        assert!(s.validate(44_100.0).is_err());
        let mut s = base.clone();
        s.period = 10.0;
        assert!(s.validate(44_100.0).is_err());
        let mut s = base.clone();
        s.clock_ppm = 1_000.0;
        assert!(s.validate(44_100.0).is_err());
        let mut s = base;
        s.amplitude_at_1m = 0.0;
        assert!(s.validate(44_100.0).is_err());
    }
}
