//! Second-order (biquad) IIR filter sections.
//!
//! Coefficients follow the Audio-EQ-Cookbook (RBJ) formulas. The simulator
//! uses cascaded biquads to shape microphone frequency responses and to
//! colour noise (voice-band hum, mall broadband noise).

use crate::DspError;

/// The biquad response families supported by [`Biquad::design`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiquadKind {
    /// Low-pass with -12 dB/octave rolloff above the corner.
    LowPass,
    /// High-pass with -12 dB/octave rolloff below the corner.
    HighPass,
    /// Band-pass with 0 dB peak gain at the centre frequency.
    BandPass,
    /// Band-reject (notch) at the centre frequency.
    Notch,
}

/// A single direct-form-I biquad section with persistent state.
///
/// # Example
///
/// ```
/// use hyperear_dsp::filter::{Biquad, BiquadKind};
///
/// # fn main() -> Result<(), hyperear_dsp::DspError> {
/// let mut lp = Biquad::design(BiquadKind::LowPass, 1_000.0, 44_100.0, 0.707)?;
/// let out = lp.process_block(&[1.0, 0.0, 0.0, 0.0]);
/// assert_eq!(out.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Biquad {
    // Normalized coefficients (a0 == 1).
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    // State: previous inputs and outputs.
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Designs a biquad of the given `kind`.
    ///
    /// `freq_hz` is the corner/centre frequency, `q` the resonance quality
    /// factor (0.707 for a Butterworth-like response).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `freq_hz` is not in
    /// `(0, fs/2)` or `q` is not positive.
    pub fn design(
        kind: BiquadKind,
        freq_hz: f64,
        sample_rate: f64,
        q: f64,
    ) -> Result<Self, DspError> {
        crate::error::check_rate(sample_rate)?;
        if !(freq_hz > 0.0 && freq_hz < sample_rate / 2.0) {
            return Err(DspError::invalid(
                "freq_hz",
                format!("must be in (0, {}), got {freq_hz}", sample_rate / 2.0),
            ));
        }
        if q <= 0.0 {
            return Err(DspError::invalid("q", "must be positive"));
        }
        let omega = 2.0 * std::f64::consts::PI * freq_hz / sample_rate;
        let (sin_w, cos_w) = omega.sin_cos();
        let alpha = sin_w / (2.0 * q);
        let a0 = 1.0 + alpha;

        let (b0, b1, b2, a1, a2) = match kind {
            BiquadKind::LowPass => {
                let b1 = 1.0 - cos_w;
                (b1 / 2.0, b1, b1 / 2.0, -2.0 * cos_w, 1.0 - alpha)
            }
            BiquadKind::HighPass => {
                let b1 = -(1.0 + cos_w);
                (
                    (1.0 + cos_w) / 2.0,
                    b1,
                    (1.0 + cos_w) / 2.0,
                    -2.0 * cos_w,
                    1.0 - alpha,
                )
            }
            BiquadKind::BandPass => (alpha, 0.0, -alpha, -2.0 * cos_w, 1.0 - alpha),
            BiquadKind::Notch => (1.0, -2.0 * cos_w, 1.0, -2.0 * cos_w, 1.0 - alpha),
        };
        Ok(Biquad {
            b0: b0 / a0,
            b1: b1 / a0,
            b2: b2 / a0,
            a1: a1 / a0,
            a2: a2 / a0,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        })
    }

    /// Processes one sample, updating the filter state.
    #[inline]
    pub(crate) fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Processes a block of samples, returning a new vector.
    pub fn process_block(&mut self, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| self.process(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn low_pass_attenuates_high_frequencies() {
        let fs = 44_100.0;
        let mut lp = Biquad::design(BiquadKind::LowPass, 1_000.0, fs, 0.707).unwrap();
        let low = lp.process_block(&tone(100.0, fs, 8192));
        let mut lp = Biquad::design(BiquadKind::LowPass, 1_000.0, fs, 0.707).unwrap();
        let high = lp.process_block(&tone(10_000.0, fs, 8192));
        assert!(rms(&low[2000..]) > 0.6);
        assert!(rms(&high[2000..]) < 0.05);
    }

    #[test]
    fn high_pass_attenuates_low_frequencies() {
        let fs = 44_100.0;
        let mut hp = Biquad::design(BiquadKind::HighPass, 2_000.0, fs, 0.707).unwrap();
        let low = hp.process_block(&tone(100.0, fs, 8192));
        let mut hp = Biquad::design(BiquadKind::HighPass, 2_000.0, fs, 0.707).unwrap();
        let high = hp.process_block(&tone(10_000.0, fs, 8192));
        assert!(rms(&low[2000..]) < 0.05);
        assert!(rms(&high[2000..]) > 0.6);
    }

    #[test]
    fn band_pass_peaks_at_center() {
        let fs = 44_100.0;
        // Steady-state gain of a unit tone (RMS 1/√2) at `f`.
        let gain = |f: f64| {
            let mut bp = Biquad::design(BiquadKind::BandPass, 4_000.0, fs, 1.0).unwrap();
            rms(&bp.process_block(&tone(f, fs, 8192))[2000..]) * std::f64::consts::SQRT_2
        };
        assert!((gain(4_000.0) - 1.0).abs() < 0.01);
        assert!(gain(500.0) < 0.3);
        assert!(gain(16_000.0) < 0.3);
    }

    #[test]
    fn notch_nulls_center_frequency() {
        let fs = 44_100.0;
        let gain = |f: f64| {
            let mut notch = Biquad::design(BiquadKind::Notch, 4_000.0, fs, 5.0).unwrap();
            rms(&notch.process_block(&tone(f, fs, 16_384))[8_000..]) * std::f64::consts::SQRT_2
        };
        assert!(gain(4_000.0) < 1e-3);
        assert!(gain(400.0) > 0.9);
    }

    #[test]
    fn invalid_designs_are_rejected() {
        assert!(Biquad::design(BiquadKind::LowPass, 0.0, 44_100.0, 0.7).is_err());
        assert!(Biquad::design(BiquadKind::LowPass, 30_000.0, 44_100.0, 0.7).is_err());
        assert!(Biquad::design(BiquadKind::LowPass, 100.0, 44_100.0, 0.0).is_err());
        assert!(Biquad::design(BiquadKind::LowPass, 100.0, 0.0, 0.7).is_err());
    }
}
