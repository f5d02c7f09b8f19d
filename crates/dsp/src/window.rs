//! Analysis window functions.
//!
//! Windows are used when designing FIR filters ([`crate::filter::fir`]),
//! building fractional-delay kernels ([`crate::delay`]) and estimating
//! spectra ([`crate::spectrum`]).

use crate::DspError;

/// The supported window shapes.
///
/// # Example
///
/// ```
/// use hyperear_dsp::window::Window;
///
/// let w = Window::Hann.coefficients(8).unwrap();
/// assert_eq!(w.len(), 8);
/// assert!(w[0] < 1e-12); // Hann tapers to zero at the edges
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// All-ones window (no tapering).
    Rectangular,
    /// Raised-cosine window with zero endpoints; good general default.
    #[default]
    Hann,
    /// Raised-cosine on a pedestal; slightly better close-in sidelobes.
    Hamming,
    /// Three-term cosine window with very low sidelobes.
    Blackman,
}

impl Window {
    /// Evaluates the window at position `i` of an `n`-point window.
    ///
    /// Uses the symmetric (filter-design) convention with denominator
    /// `n - 1`, so the first and last coefficients are the window's
    /// endpoint values.
    #[must_use]
    pub(crate) fn value(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64;
        let tau = 2.0 * std::f64::consts::PI;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (tau * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
        }
    }

    /// Returns the `n` coefficients of this window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `n` is zero.
    pub fn coefficients(self, n: usize) -> Result<Vec<f64>, DspError> {
        if n == 0 {
            return Err(DspError::invalid("n", "window length must be positive"));
        }
        Ok((0..n).map(|i| self.value(i, n)).collect())
    }

    /// Multiplies `signal` by this window in place.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if the signal is empty.
    pub(crate) fn apply(self, signal: &mut [f64]) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput {
                what: "window apply",
            });
        }
        let n = signal.len();
        for (i, s) in signal.iter_mut().enumerate() {
            *s *= self.value(i, n);
        }
        Ok(())
    }

    /// Multiplies `signal` by precomputed window coefficients in place.
    ///
    /// Equivalent to [`Window::apply`] when `coeffs` came from
    /// [`Window::coefficients`] with `n == signal.len()`, but routes the
    /// multiply through the shared lane-aware kernel so repeated
    /// applications (STFT frames, batched periodograms) skip the per-sample
    /// trigonometry and autovectorize. Bit-identical to the uncached path.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidParameter`] on a length mismatch.
    pub(crate) fn apply_coefficients(coeffs: &[f64], signal: &mut [f64]) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput {
                what: "window apply",
            });
        }
        if coeffs.len() != signal.len() {
            return Err(DspError::invalid(
                "coeffs",
                format!(
                    "window has {} coefficients but signal has {} samples",
                    coeffs.len(),
                    signal.len()
                ),
            ));
        }
        crate::complex::mul_assign_real(signal, coeffs);
        Ok(())
    }

    /// The coherent gain of the window: the mean of its coefficients.
    ///
    /// Needed to correct amplitude estimates taken from windowed spectra.
    #[must_use]
    pub(crate) fn coherent_gain(self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        (0..n).map(|i| self.value(i, n)).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let w = Window::Rectangular.coefficients(5).unwrap();
        assert!(w.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let c = w.coefficients(33).unwrap();
            for i in 0..c.len() {
                assert!((c[i] - c[c.len() - 1 - i]).abs() < 1e-12, "{w:?} at {i}");
            }
        }
    }

    #[test]
    fn peaks_at_center() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let c = w.coefficients(33).unwrap();
            let max = c.iter().cloned().fold(f64::MIN, f64::max);
            assert!((c[16] - max).abs() < 1e-12, "{w:?}");
            assert!((max - 1.0).abs() < 1e-9, "{w:?} peak should be ~1");
        }
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = Window::Hann.coefficients(17).unwrap();
        assert!(c[0].abs() < 1e-12);
        assert!(c[16].abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints_are_pedestal() {
        let c = Window::Hamming.coefficients(17).unwrap();
        assert!((c[0] - 0.08).abs() < 1e-9);
    }

    #[test]
    fn apply_matches_coefficients() {
        let mut signal = vec![2.0; 16];
        Window::Hann.apply(&mut signal).unwrap();
        let c = Window::Hann.coefficients(16).unwrap();
        for (s, w) in signal.iter().zip(&c) {
            assert!((s - 2.0 * w).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_apply_is_bit_identical_to_uncached() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            for n in [1usize, 2, 7, 64, 255] {
                let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
                let mut direct = signal.clone();
                w.apply(&mut direct).unwrap();
                let coeffs = w.coefficients(n).unwrap();
                let mut cached = signal.clone();
                Window::apply_coefficients(&coeffs, &mut cached).unwrap();
                assert_eq!(direct, cached, "{w:?} n={n}");
            }
        }
    }

    #[test]
    fn cached_apply_rejects_mismatch_and_empty() {
        let coeffs = Window::Hann.coefficients(8).unwrap();
        let mut signal = vec![1.0; 7];
        assert!(Window::apply_coefficients(&coeffs, &mut signal).is_err());
        let mut empty: Vec<f64> = vec![];
        assert!(Window::apply_coefficients(&coeffs, &mut empty).is_err());
    }

    #[test]
    fn zero_length_is_error() {
        assert!(Window::Hann.coefficients(0).is_err());
        let mut empty: Vec<f64> = vec![];
        assert!(Window::Hann.apply(&mut empty).is_err());
    }

    #[test]
    fn single_point_window_is_one() {
        assert_eq!(Window::Blackman.value(0, 1), 1.0);
    }

    #[test]
    fn coherent_gain_sanity() {
        // Hann coherent gain tends to 0.5 for long windows.
        let g = Window::Hann.coherent_gain(4096);
        assert!((g - 0.5).abs() < 1e-3);
        assert_eq!(Window::Rectangular.coherent_gain(100), 1.0);
        assert_eq!(Window::Hann.coherent_gain(0), 0.0);
    }
}
