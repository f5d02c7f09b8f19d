//! The naive TDoA localization baselines of paper Section II-C.
//!
//! Two strawmen quantify why HyperEar exists:
//!
//! 1. **Fixed pair** — one position, two microphones 13–15 cm apart,
//!    integer-sample TDoA. Yields only a hyperbola (direction-ish
//!    information); its ambiguity-region width explodes with range
//!    (Fig. 3, [`hyperear_geom::tdoa_regions`]).
//! 2. **Naive two-position scheme** (Fig. 2) — move the phone between two
//!    known positions and intersect the two hyperbolas, but with TDoAs
//!    quantized to the 44.1 kHz grid and no sub-sample interpolation.
//!    This is HyperEar minus its signal-processing contributions; the
//!    paper quotes errors up to 18.6 cm at 1 m and 266.7 cm at 5 m.

use crate::HyperEarError;
use hyperear_geom::triangulate::{solve_slide, SlideGeometry};
use hyperear_geom::Vec2;

/// Configuration of the naive two-position scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveConfig {
    /// Microphone separation on the phone, metres.
    pub mic_separation: f64,
    /// Distance the phone is moved between the two measurement
    /// positions, metres. The paper's naive scheme has no slide — the
    /// baseline is another phone-scale length.
    pub move_distance: f64,
    /// ADC sampling rate, hertz.
    pub sample_rate: f64,
    /// Speed of sound, m/s.
    pub speed_of_sound: f64,
    /// Search-region bound: estimates are clamped to this range, metres.
    /// Any practical implementation bounds its solution to the indoor
    /// space; without a bound, a quantized TDoA difference of zero sends
    /// the range estimate to infinity.
    pub max_range: f64,
}

impl NaiveConfig {
    /// The Galaxy S4 moved by its own microphone separation — the
    /// configuration §II-C's numbers describe.
    #[must_use]
    pub fn galaxy_s4() -> Self {
        NaiveConfig {
            mic_separation: 0.1366,
            move_distance: 0.1366,
            sample_rate: 44_100.0,
            speed_of_sound: 343.0,
            max_range: 10.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for non-positive
    /// fields.
    pub(crate) fn validate(&self) -> Result<(), HyperEarError> {
        for (name, v) in [
            ("mic_separation", self.mic_separation),
            ("move_distance", self.move_distance),
            ("sample_rate", self.sample_rate),
            ("speed_of_sound", self.speed_of_sound),
            ("max_range", self.max_range),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(HyperEarError::invalid(
                    "naive config",
                    format!("{name} must be positive, got {v}"),
                ));
            }
        }
        Ok(())
    }
}

/// Runs the naive two-position scheme against a ground-truth speaker at
/// `speaker` (in the movement frame: x along the movement, origin at the
/// midpoint of Mic1's two positions) and returns the estimated position.
///
/// The forward model is exact; the *measurements* are quantized to whole
/// ADC samples before triangulation — precisely the §II-C setup. There is
/// no measurement noise: the returned error is the pure quantization
/// ambiguity.
///
/// # Errors
///
/// Returns [`HyperEarError::InvalidParameter`] for an invalid config or
/// a speaker on the movement line, and propagates solver failures.
pub(crate) fn naive_two_position_estimate(
    speaker: Vec2,
    config: &NaiveConfig,
) -> Result<Vec2, HyperEarError> {
    config.validate()?;
    if speaker.y <= 0.0 {
        return Err(HyperEarError::invalid(
            "speaker",
            "speaker must be in the upper half-plane",
        ));
    }
    let exact =
        SlideGeometry::from_ground_truth(config.move_distance, config.mic_separation, speaker);
    let quantum = config.speed_of_sound / config.sample_rate;
    let quantize = |dd: f64| (dd / quantum).round() * quantum;
    let quantized = SlideGeometry::new(
        exact.d_prime,
        exact.mic_offset,
        quantize(exact.delta_d1),
        quantize(exact.delta_d2),
    )?;
    let position = solve_slide(&quantized)?.position;
    // Clamp to the bounded search region (see `NaiveConfig::max_range`).
    let r = position.norm();
    Ok(if r > config.max_range {
        position * (config.max_range / r)
    } else {
        position
    })
}

/// The localization error of the naive scheme for a speaker at `speaker`.
///
/// # Errors
///
/// Returns [`HyperEarError::InvalidParameter`] for an invalid config or
/// a speaker on the movement line, and propagates solver failures.
pub fn naive_two_position_error(speaker: Vec2, config: &NaiveConfig) -> Result<f64, HyperEarError> {
    Ok((naive_two_position_estimate(speaker, config)? - speaker).norm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates() {
        assert!(NaiveConfig::galaxy_s4().validate().is_ok());
        let mut c = NaiveConfig::galaxy_s4();
        c.sample_rate = 0.0;
        assert!(c.validate().is_err());
        let mut c = NaiveConfig::galaxy_s4();
        c.move_distance = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn error_grows_superlinearly_with_range() {
        // The §II-C effect: mean quantization error at 5 m is much worse
        // than 5× the error at 1 m.
        let config = NaiveConfig::galaxy_s4();
        let mean_err = |range: f64| {
            let offsets = [-0.35, -0.21, -0.07, 0.07, 0.21, 0.35];
            let errs: Vec<f64> = offsets
                .iter()
                .map(|&dx| naive_two_position_error(Vec2::new(dx, range), &config).unwrap())
                .collect();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let e1 = mean_err(1.0);
        let e5 = mean_err(5.0);
        assert!(e5 > 8.0 * e1, "e1 {e1} e5 {e5}");
        // Same order of magnitude as the paper's quotes (0.186 m, 2.667 m).
        assert!((0.02..0.6).contains(&e1), "1 m error {e1}");
        assert!((0.5..8.0).contains(&e5), "5 m error {e5}");
    }

    #[test]
    fn longer_baseline_beats_naive() {
        // Quantization error with a 55 cm slide is far below the naive
        // 13.66 cm movement — the core HyperEar claim, pre-DSP.
        let speaker = Vec2::new(0.1, 5.0);
        let naive = naive_two_position_error(speaker, &NaiveConfig::galaxy_s4()).unwrap();
        let slid = naive_two_position_error(
            speaker,
            &NaiveConfig {
                move_distance: 0.55,
                ..NaiveConfig::galaxy_s4()
            },
        )
        .unwrap();
        assert!(slid < naive, "slid {slid} naive {naive}");
    }

    #[test]
    fn zero_quantization_error_cases_exist() {
        // A speaker whose Δds land exactly on the grid has zero error —
        // quantization ambiguity is position-dependent.
        let config = NaiveConfig::galaxy_s4();
        let errs: Vec<f64> = (0..40)
            .map(|i| {
                let dx = -0.4 + i as f64 * 0.02;
                naive_two_position_error(Vec2::new(dx, 2.0), &config).unwrap()
            })
            .collect();
        let min = errs.iter().cloned().fold(f64::MAX, f64::min);
        let max = errs.iter().cloned().fold(0.0f64, f64::max);
        assert!(min < 0.3 * max, "min {min} max {max}");
    }

    #[test]
    fn invalid_speaker_rejected() {
        let config = NaiveConfig::galaxy_s4();
        assert!(naive_two_position_estimate(Vec2::new(0.0, 0.0), &config).is_err());
        assert!(naive_two_position_estimate(Vec2::new(0.0, -1.0), &config).is_err());
    }
}
