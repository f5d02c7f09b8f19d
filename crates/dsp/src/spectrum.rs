//! Spectral estimation helpers.
//!
//! Used to verify that synthesized beacons stay inside their nominal band,
//! to calibrate simulated noise spectra against the paper's SNR points, and
//! by tests that check filter behaviour.

use crate::error::check_rate;
use crate::fft::try_next_pow2;
use crate::plan::{shared_real_plan, Planes};
use crate::window::Window;
use crate::DspError;

/// One-sided power spectrum of a real signal.
///
/// Returns `(frequencies_hz, power)` with `len/2 + 1` bins. Power is scaled
/// so that summing all bins approximates the mean-square signal value
/// (a periodogram with window compensation).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] for a sample rate that is not finite
/// and positive.
pub(crate) fn power_spectrum(
    signal: &[f64],
    sample_rate: f64,
    window: Window,
) -> Result<(Vec<f64>, Vec<f64>), DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "power_spectrum input",
        });
    }
    check_rate(sample_rate)?;
    let mut windowed = signal.to_vec();
    window.apply(&mut windowed)?;
    let n = try_next_pow2(signal.len())?;
    let mut bins = Planes::default();
    shared_real_plan(n)?.rfft_half_into(&windowed, &mut bins)?;
    let half = bins.len();
    let gain = window.coherent_gain(signal.len());
    let norm = 1.0 / (n as f64 * signal.len() as f64 * gain * gain);
    let freqs = (0..half)
        .map(|k| k as f64 * sample_rate / n as f64)
        .collect();
    let power = (0..half)
        .map(|k| {
            // One-sided: double interior bins.
            let scale = if k == 0 || k == half - 1 { 1.0 } else { 2.0 };
            scale * bins.at(k).norm_sqr() * norm
        })
        .collect();
    Ok((freqs, power))
}

/// Fraction of total signal energy lying inside `[low_hz, high_hz]`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] for a sample rate that is not finite
/// and positive, or a band that is empty or outside `[0, fs/2]`.
pub fn band_energy_fraction(
    signal: &[f64],
    sample_rate: f64,
    low_hz: f64,
    high_hz: f64,
) -> Result<f64, DspError> {
    if low_hz >= high_hz {
        return Err(DspError::invalid(
            "low_hz/high_hz",
            format!("band must satisfy low < high, got {low_hz} >= {high_hz}"),
        ));
    }
    if low_hz < 0.0 || high_hz > sample_rate / 2.0 {
        return Err(DspError::invalid(
            "band",
            format!(
                "band [{low_hz}, {high_hz}] outside [0, {}]",
                sample_rate / 2.0
            ),
        ));
    }
    let (freqs, power) = power_spectrum(signal, sample_rate, Window::Hann)?;
    let total: f64 = power.iter().sum();
    if total == 0.0 {
        return Ok(0.0);
    }
    let in_band: f64 = freqs
        .iter()
        .zip(&power)
        .filter(|(f, _)| **f >= low_hz && **f <= high_hz)
        .map(|(_, p)| p)
        .sum();
    Ok(in_band / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn band_energy_concentrated_for_tone() {
        let fs = 44_100.0;
        let signal = tone(3_000.0, fs, 8192);
        let inside = band_energy_fraction(&signal, fs, 2_500.0, 3_500.0).unwrap();
        let outside = band_energy_fraction(&signal, fs, 10_000.0, 20_000.0).unwrap();
        assert!(inside > 0.99, "inside {inside}");
        assert!(outside < 0.001, "outside {outside}");
    }

    #[test]
    fn power_sums_to_mean_square() {
        let fs = 1_000.0;
        let signal = tone(100.0, fs, 1024);
        let ms: f64 = signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64;
        let (_, power) = power_spectrum(&signal, fs, Window::Rectangular).unwrap();
        let total: f64 = power.iter().sum();
        assert!((total - ms).abs() / ms < 0.02, "{total} vs {ms}");
    }

    #[test]
    fn two_tones_both_visible() {
        let fs = 44_100.0;
        let n = 8192;
        let mut signal = tone(2_000.0, fs, n);
        let t2 = tone(6_000.0, fs, n);
        for (a, b) in signal.iter_mut().zip(&t2) {
            *a += 0.5 * b;
        }
        let low = band_energy_fraction(&signal, fs, 1_800.0, 2_200.0).unwrap();
        let high = band_energy_fraction(&signal, fs, 5_800.0, 6_200.0).unwrap();
        assert!(low > 0.7, "low {low}");
        assert!(high > 0.15, "high {high}");
    }

    #[test]
    fn zero_signal_band_fraction_is_zero() {
        let z = vec![0.0; 1024];
        assert_eq!(
            band_energy_fraction(&z, 44_100.0, 100.0, 200.0).unwrap(),
            0.0
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(power_spectrum(&[], 44_100.0, Window::Hann).is_err());
        assert!(power_spectrum(&[1.0], 0.0, Window::Hann).is_err());
        assert!(band_energy_fraction(&[1.0; 64], 44_100.0, 300.0, 200.0).is_err());
        assert!(band_energy_fraction(&[1.0; 64], 44_100.0, -10.0, 200.0).is_err());
        assert!(band_energy_fraction(&[1.0; 64], 44_100.0, 100.0, 44_100.0).is_err());
    }

    #[test]
    fn frequencies_are_monotonic_to_nyquist() {
        let (freqs, _) = power_spectrum(&tone(100.0, 1_000.0, 256), 1_000.0, Window::Hann).unwrap();
        assert!(freqs.windows(2).all(|w| w[1] > w[0]));
        assert!((freqs.last().unwrap() - 500.0).abs() < 1e-9);
        assert_eq!(freqs[0], 0.0);
    }
}
