use std::fmt;

/// Errors produced by the DSP primitives in this crate.
///
/// Every fallible public function in `hyperear-dsp` returns
/// `Result<_, DspError>`. The variants carry enough context to diagnose the
/// offending call without a debugger.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DspError {
    /// An input slice was empty where at least one sample is required.
    EmptyInput {
        /// The function or parameter the empty input was passed to.
        what: &'static str,
    },
    /// A numeric parameter was outside its valid domain.
    InvalidParameter {
        /// The parameter name.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// Two inputs that must agree in length did not.
    LengthMismatch {
        /// Description of the first operand.
        left: usize,
        /// Description of the second operand.
        right: usize,
        /// The operation that required matching lengths.
        what: &'static str,
    },
    /// A request referenced an index outside the signal.
    OutOfRange {
        /// The requested index or position.
        index: usize,
        /// The length of the signal being indexed.
        len: usize,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::EmptyInput { what } => write!(f, "empty input for {what}"),
            DspError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            DspError::LengthMismatch { left, right, what } => {
                write!(f, "length mismatch in {what}: {left} vs {right}")
            }
            DspError::OutOfRange { index, len } => {
                write!(f, "index {index} out of range for signal of length {len}")
            }
        }
    }
}

impl std::error::Error for DspError {}

impl DspError {
    /// Convenience constructor for [`DspError::InvalidParameter`].
    pub(crate) fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        DspError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }
}

/// Checks that a sample rate is finite and positive: NaN, infinities,
/// zero and negative rates are [`DspError::InvalidParameter`].
pub(crate) fn check_rate(sample_rate: f64) -> Result<(), DspError> {
    if !(sample_rate.is_finite() && sample_rate > 0.0) {
        return Err(DspError::invalid(
            "sample_rate",
            format!("must be finite and positive, got {sample_rate}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DspError::EmptyInput { what: "fft input" };
        assert!(e.to_string().contains("fft input"));
        let e = DspError::invalid("cutoff", "must be positive");
        assert!(e.to_string().contains("cutoff"));
        assert!(e.to_string().contains("must be positive"));
        let e = DspError::LengthMismatch {
            left: 3,
            right: 5,
            what: "dot product",
        };
        assert!(e.to_string().contains("3 vs 5"));
        let e = DspError::OutOfRange { index: 9, len: 4 };
        assert!(e.to_string().contains('9'));
    }

    /// Every public entry point that takes a sample rate rejects the
    /// same five hostile rates with a typed error, never an `Ok` built
    /// on a NaN or infinite rate.
    #[test]
    fn non_finite_and_non_positive_rates_are_invalid() {
        use crate::estimator::{AnalyticSpectrum, CorrelationSpectrum, EstimatorScratch};
        use crate::filter::{Biquad, BiquadKind, FirFilter};
        use crate::window::Window;
        use crate::Complex;
        let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut real = CorrelationSpectrum::default();
        real.compute(&signal).unwrap();
        let analytic_seq: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let mut analytic = AnalyticSpectrum::default();
        analytic.compute(&analytic_seq).unwrap();
        let mut est = EstimatorScratch::default();
        for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let results: [(&str, Result<(), DspError>); 9] = [
                ("stft", crate::stft::stft(&signal, 64, 32, rate).map(drop)),
                (
                    "band_energy_fraction",
                    crate::spectrum::band_energy_fraction(&signal, rate, 100.0, 200.0).map(drop),
                ),
                (
                    "goertzel_bin",
                    crate::goertzel::goertzel_bin(&signal, 100.0, rate).map(drop),
                ),
                (
                    "Biquad::design",
                    Biquad::design(BiquadKind::LowPass, 100.0, rate, 0.707).map(drop),
                ),
                (
                    "FirFilter::band_pass",
                    FirFilter::band_pass(100.0, 200.0, rate, 31, Window::Hann).map(drop),
                ),
                (
                    "Chirp::new",
                    crate::chirp::Chirp::new(
                        100.0,
                        200.0,
                        0.01,
                        rate,
                        crate::chirp::ChirpShape::Up,
                    )
                    .map(drop),
                ),
                (
                    "CorrelationSpectrum::subband_coherence_into",
                    real.subband_coherence_into(rate, 100.0, 200.0, 4, &mut est, &mut Vec::new())
                        .map(drop),
                ),
                (
                    "AnalyticSpectrum::subband_coherence_into",
                    analytic
                        .subband_coherence_into(rate, 100.0, 200.0, 4, &mut est, &mut Vec::new())
                        .map(drop),
                ),
                ("check_rate", check_rate(rate)),
            ];
            for (what, result) in results {
                assert!(
                    matches!(result, Err(DspError::InvalidParameter { .. })),
                    "{what} at rate {rate}: {result:?}"
                );
            }
        }
        assert!(check_rate(44_100.0).is_ok());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
