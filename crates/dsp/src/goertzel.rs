//! Goertzel single-bin DFT.
//!
//! Cheaper than an FFT when only one frequency matters — the phase of
//! one tone across channels, for phase-tracking direction finding.

use crate::DspError;

/// Complex DFT bin of `signal` at the frequency nearest `freq_hz`:
/// `(re, im)`, amplitude-normalized by `n/2` so a unit on-bin tone has
/// magnitude ≈ 1 regardless of window length.
///
/// `re² + im²` is the bin's power. Phase-tracking direction finding
/// compares `atan2(im, re)` across channels, where the inter-channel
/// phase difference `Δφ = 2π·f·τ` encodes the pair delay `τ` — the
/// Swadloon construction.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] for a non-positive sample rate or a
/// frequency outside `[0, fs/2]`.
pub fn goertzel_bin(
    signal: &[f64],
    freq_hz: f64,
    sample_rate: f64,
) -> Result<(f64, f64), DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "goertzel input",
        });
    }
    crate::error::check_rate(sample_rate)?;
    if !(0.0..=sample_rate / 2.0).contains(&freq_hz) {
        return Err(DspError::invalid(
            "freq_hz",
            format!("must be in [0, {}], got {freq_hz}", sample_rate / 2.0),
        ));
    }
    let n = signal.len();
    let k = (0.5 + n as f64 * freq_hz / sample_rate).floor();
    let omega = 2.0 * std::f64::consts::PI * k / n as f64;
    let coeff = 2.0 * omega.cos();
    let (mut s1, mut s2) = (0.0, 0.0);
    for &x in signal {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    // Standard Goertzel finalization: X[k] = s1 − s2·e^{−jω}.
    let re = s1 - s2 * omega.cos();
    let im = s2 * omega.sin();
    let half_n = n as f64 / 2.0;
    Ok((re / half_n, im / half_n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    /// The bin's power `|X(f)|²` (normalized by `n²/4`).
    fn power(signal: &[f64], freq: f64, fs: f64) -> f64 {
        let (re, im) = goertzel_bin(signal, freq, fs).unwrap();
        re * re + im * im
    }

    /// The bin's phase, radians.
    fn phase(signal: &[f64], freq: f64, fs: f64) -> f64 {
        let (re, im) = goertzel_bin(signal, freq, fs).unwrap();
        im.atan2(re)
    }

    #[test]
    fn detects_matching_tone() {
        let fs = 44_100.0;
        let signal = tone(4_000.0, fs, 4410);
        let on = power(&signal, 4_000.0, fs);
        let off = power(&signal, 9_000.0, fs);
        assert!(on > 1000.0 * off, "on {on} off {off}");
    }

    #[test]
    fn amplitude_scaling_is_quadratic() {
        let fs = 8_000.0;
        let s1 = tone(1_000.0, fs, 1600);
        let s2: Vec<f64> = s1.iter().map(|x| 2.0 * x).collect();
        let p1 = power(&s1, 1_000.0, fs);
        let p2 = power(&s2, 1_000.0, fs);
        assert!((p2 / p1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn unit_tone_power_is_about_one() {
        // With the n²/4 normalization a unit-amplitude on-bin tone yields ~1.
        let fs = 8_000.0;
        let signal = tone(1_000.0, fs, 1600);
        let p = power(&signal, 1_000.0, fs);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(goertzel_bin(&[], 100.0, 8_000.0).is_err());
        assert!(goertzel_bin(&[1.0], -5.0, 8_000.0).is_err());
        assert!(goertzel_bin(&[1.0], 5_000.0, 8_000.0).is_err());
        assert!(goertzel_bin(&[1.0], 100.0, 0.0).is_err());
    }

    #[test]
    fn phase_difference_encodes_delay() {
        // Two copies of a tone offset by a known fractional delay: the
        // bin phase difference must equal 2π·f·τ.
        let fs = 44_100.0;
        let f = 4_000.0;
        let tau = 2.5e-5; // 25 µs ≈ 1.1 samples
        let n = 4410;
        let a: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * (i as f64 / fs)).sin())
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * (i as f64 / fs - tau)).sin())
            .collect();
        let pa = phase(&a, f, fs);
        let pb = phase(&b, f, fs);
        let mut dphi = pa - pb;
        while dphi > std::f64::consts::PI {
            dphi -= std::f64::consts::TAU;
        }
        while dphi <= -std::f64::consts::PI {
            dphi += std::f64::consts::TAU;
        }
        let expected = 2.0 * std::f64::consts::PI * f * tau;
        assert!(
            (dphi - expected).abs() < 0.02,
            "dphi {dphi} expected {expected}"
        );
    }

    #[test]
    fn bin_rejects_bad_inputs() {
        assert!(goertzel_bin(&[], 100.0, 8_000.0).is_err());
        assert!(goertzel_bin(&[1.0], 5_000.0, 8_000.0).is_err());
        assert!(goertzel_bin(&[1.0], 100.0, 0.0).is_err());
    }

    #[test]
    fn silence_has_zero_power() {
        let p = power(&[0.0; 256], 1_000.0, 8_000.0);
        assert_eq!(p, 0.0);
    }
}
