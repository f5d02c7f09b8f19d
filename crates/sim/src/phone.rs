//! Phone hardware models.
//!
//! The paper evaluates on a Samsung Galaxy S4 (mic separation 13.66 cm)
//! and a Samsung Galaxy Note3 (15.12 cm), both recording 16-bit stereo at
//! 44.1 kHz with a 100 Hz IMU (Section VII-A). The models below capture
//! exactly the hardware constants the algorithms care about.

use crate::SimError;
use hyperear_geom::devices;

/// Static description of a phone's sensing hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneModel {
    /// Human-readable model name.
    pub name: String,
    /// Distance between the two onboard microphones, metres. The mics sit
    /// on the phone's long (y) axis.
    pub mic_separation: f64,
    /// Audio sampling rate exposed by the OS, hertz.
    pub audio_sample_rate: f64,
    /// ADC bit depth.
    pub audio_bits: u8,
    /// IMU (accelerometer and gyroscope) sampling rate, hertz.
    pub imu_sample_rate: f64,
    /// Sampling-frequency offset of the audio clock relative to nominal,
    /// parts per million. Applied identically to both channels: they share
    /// one ADC clock.
    pub audio_clock_ppm: f64,
    /// Low edge of the microphones' usable frequency response, hertz.
    pub mic_response_low_hz: f64,
    /// High edge of the microphones' usable frequency response, hertz.
    pub mic_response_high_hz: f64,
    /// Knee above which the microphone response rolls off, hertz.
    /// Phone microphones are voice-optimized; their sensitivity droops in
    /// the near-ultrasonic band — the "frequency selectivity" distortion
    /// the paper's future-work section flags for inaudible beacons.
    pub hf_knee_hz: f64,
    /// Roll-off slope above the knee, dB per kHz (positive = attenuation).
    pub hf_rolloff_db_per_khz: f64,
}

impl PhoneModel {
    /// The Samsung Galaxy S4 configuration from the paper.
    #[must_use]
    pub fn galaxy_s4() -> Self {
        PhoneModel {
            name: "Samsung Galaxy S4".to_string(),
            mic_separation: devices::GALAXY_S4.mic_separation,
            audio_sample_rate: 44_100.0,
            audio_bits: 16,
            imu_sample_rate: 100.0,
            audio_clock_ppm: 12.0,
            mic_response_low_hz: 100.0,
            mic_response_high_hz: 20_000.0,
            hf_knee_hz: 15_000.0,
            hf_rolloff_db_per_khz: 3.0,
        }
    }

    /// The Samsung Galaxy Note3 configuration from the paper.
    #[must_use]
    pub fn galaxy_note3() -> Self {
        PhoneModel {
            name: "Samsung Galaxy Note3".to_string(),
            mic_separation: devices::GALAXY_NOTE3.mic_separation,
            audio_sample_rate: 44_100.0,
            audio_bits: 16,
            imu_sample_rate: 100.0,
            audio_clock_ppm: -18.0,
            mic_response_low_hz: 100.0,
            mic_response_high_hz: 20_000.0,
            hf_knee_hz: 15_000.0,
            hf_rolloff_db_per_khz: 3.0,
        }
    }

    /// Validates the model's physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for out-of-range fields.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if !(0.01..=1.0).contains(&self.mic_separation) {
            return Err(SimError::invalid(
                "mic_separation",
                format!("must be within [0.01, 1.0] m, got {}", self.mic_separation),
            ));
        }
        if !(8_000.0..=192_000.0).contains(&self.audio_sample_rate) {
            return Err(SimError::invalid(
                "audio_sample_rate",
                format!(
                    "must be within [8k, 192k] Hz, got {}",
                    self.audio_sample_rate
                ),
            ));
        }
        if self.audio_bits == 0 || self.audio_bits > 32 {
            return Err(SimError::invalid(
                "audio_bits",
                format!("must be within [1, 32], got {}", self.audio_bits),
            ));
        }
        if !(10.0..=1_000.0).contains(&self.imu_sample_rate) {
            return Err(SimError::invalid(
                "imu_sample_rate",
                format!("must be within [10, 1000] Hz, got {}", self.imu_sample_rate),
            ));
        }
        if self.audio_clock_ppm.abs() > 200.0 {
            return Err(SimError::invalid(
                "audio_clock_ppm",
                format!("must be within ±200 ppm, got {}", self.audio_clock_ppm),
            ));
        }
        if !(self.hf_knee_hz > 0.0 && self.hf_knee_hz < self.audio_sample_rate) {
            return Err(SimError::invalid(
                "hf_knee_hz",
                format!("must be in (0, fs), got {}", self.hf_knee_hz),
            ));
        }
        if !(self.hf_rolloff_db_per_khz >= 0.0 && self.hf_rolloff_db_per_khz.is_finite()) {
            return Err(SimError::invalid(
                "hf_rolloff_db_per_khz",
                format!("must be non-negative, got {}", self.hf_rolloff_db_per_khz),
            ));
        }
        if self.mic_response_low_hz <= 0.0
            || self.mic_response_high_hz <= self.mic_response_low_hz
            || self.mic_response_high_hz > self.audio_sample_rate / 2.0
        {
            return Err(SimError::invalid(
                "mic_response",
                format!(
                    "band [{}, {}] invalid for fs {}",
                    self.mic_response_low_hz, self.mic_response_high_hz, self.audio_sample_rate
                ),
            ));
        }
        Ok(())
    }

    /// Number of distinguishable hyperbolas per paper Eq. 2 at sound speed
    /// `speed_of_sound`.
    #[must_use]
    pub fn distinguishable_hyperbolas(&self, speed_of_sound: f64) -> usize {
        (2.0 * self.mic_separation * self.audio_sample_rate / speed_of_sound).floor() as usize
    }

    /// The effective audio sample rate including the clock offset, hertz.
    #[must_use]
    pub(crate) fn effective_sample_rate(&self) -> f64 {
        self.audio_sample_rate * (1.0 + self.audio_clock_ppm * 1e-6)
    }

    /// The microphone's amplitude gain at `freq_hz` (1.0 in the flat
    /// region, dropping above the high-frequency knee).
    #[must_use]
    pub(crate) fn mic_gain_at(&self, freq_hz: f64) -> f64 {
        if freq_hz <= self.hf_knee_hz {
            1.0
        } else {
            let db = self.hf_rolloff_db_per_khz * (freq_hz - self.hf_knee_hz) / 1_000.0;
            10f64.powf(-db / 20.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperear_dsp::SPEED_OF_SOUND;

    #[test]
    fn presets_match_paper_constants() {
        let s4 = PhoneModel::galaxy_s4();
        assert_eq!(s4.mic_separation, 0.1366);
        assert_eq!(s4.audio_sample_rate, 44_100.0);
        assert_eq!(s4.audio_bits, 16);
        assert_eq!(s4.imu_sample_rate, 100.0);
        let n3 = PhoneModel::galaxy_note3();
        assert_eq!(n3.mic_separation, 0.1512);
        assert!(s4.validate().is_ok());
        assert!(n3.validate().is_ok());
    }

    #[test]
    fn s4_has_35_hyperbolas() {
        assert_eq!(
            PhoneModel::galaxy_s4().distinguishable_hyperbolas(SPEED_OF_SOUND),
            35
        );
    }

    #[test]
    fn note3_has_more_hyperbolas_than_s4() {
        let s4 = PhoneModel::galaxy_s4().distinguishable_hyperbolas(SPEED_OF_SOUND);
        let n3 = PhoneModel::galaxy_note3().distinguishable_hyperbolas(SPEED_OF_SOUND);
        assert!(n3 > s4);
    }

    #[test]
    fn effective_rate_reflects_ppm() {
        let mut m = PhoneModel::galaxy_s4();
        m.audio_clock_ppm = 100.0;
        assert!((m.effective_sample_rate() - 44_100.0 * 1.0001).abs() < 1e-6);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let base = PhoneModel::galaxy_s4();
        let mut m = base.clone();
        m.mic_separation = 0.0;
        assert!(m.validate().is_err());
        let mut m = base.clone();
        m.audio_sample_rate = 1_000.0;
        assert!(m.validate().is_err());
        let mut m = base.clone();
        m.audio_bits = 0;
        assert!(m.validate().is_err());
        let mut m = base.clone();
        m.imu_sample_rate = 1.0;
        assert!(m.validate().is_err());
        let mut m = base.clone();
        m.audio_clock_ppm = 500.0;
        assert!(m.validate().is_err());
        let mut m = base.clone();
        m.mic_response_high_hz = 50.0;
        assert!(m.validate().is_err());
        let mut m = base.clone();
        m.hf_knee_hz = 0.0;
        assert!(m.validate().is_err());
        let mut m = base;
        m.hf_rolloff_db_per_khz = -1.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn mic_gain_is_flat_then_rolls_off() {
        let m = PhoneModel::galaxy_s4();
        assert_eq!(m.mic_gain_at(4_000.0), 1.0);
        assert_eq!(m.mic_gain_at(15_000.0), 1.0);
        // 3 dB/kHz above 15 kHz: at 19 kHz the loss is 12 dB.
        let g19 = m.mic_gain_at(19_000.0);
        assert!((20.0 * g19.log10() + 12.0).abs() < 1e-9, "gain {g19}");
        assert!(m.mic_gain_at(21_000.0) < g19);
    }
}
