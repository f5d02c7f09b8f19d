use hyperear_dsp::DspError;
use std::fmt;

/// Errors produced by the inertial-processing chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ImuError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint that was violated.
        reason: String,
    },
    /// The trace is too short for the requested operation.
    TraceTooShort {
        /// Samples available.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// A DSP primitive failed.
    Dsp(DspError),
}

impl fmt::Display for ImuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImuError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            ImuError::TraceTooShort { have, need } => {
                write!(
                    f,
                    "inertial trace too short: have {have} samples, need {need}"
                )
            }
            ImuError::Dsp(e) => write!(f, "dsp error in inertial chain: {e}"),
        }
    }
}

impl std::error::Error for ImuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImuError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DspError> for ImuError {
    fn from(e: DspError) -> Self {
        ImuError::Dsp(e)
    }
}

impl ImuError {
    /// Convenience constructor for [`ImuError::InvalidParameter`].
    pub fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        ImuError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }
}

/// Checks that a sample rate is finite and positive: NaN, infinities,
/// zero and negative rates are [`ImuError::InvalidParameter`].
pub(crate) fn check_rate(sample_rate: f64) -> Result<(), ImuError> {
    if !(sample_rate.is_finite() && sample_rate > 0.0) {
        return Err(ImuError::invalid(
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
    fn display_is_contextual() {
        assert!(ImuError::invalid("fs", "must be positive")
            .to_string()
            .contains("fs"));
        assert!(ImuError::TraceTooShort { have: 3, need: 10 }
            .to_string()
            .contains("3"));
        let e = ImuError::from(DspError::EmptyInput { what: "sma" });
        assert!(e.to_string().contains("dsp error"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImuError>();
    }

    /// Every rate check in the crate rejects NaN, both infinities, zero
    /// and negative rates with [`ImuError::InvalidParameter`].
    #[test]
    fn non_finite_and_non_positive_rates_are_invalid() {
        use crate::analyze::{analyze_session, SessionConfig};
        use crate::displacement::integrate_velocity_into;
        use crate::rotation::integrate_rate_into;
        use crate::velocity::{correct_linear_drift_into, integrate_acceleration_into};
        use hyperear_geom::Vec3;
        let trace = [0.0, 0.1, 0.2, 0.1];
        let still = vec![Vec3::new(0.0, 0.0, 9.81); 64];
        let gyro = vec![Vec3::new(0.0, 0.0, 0.0); 64];
        let mut out = Vec::new();
        for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let results: [(&str, Result<(), ImuError>); 5] = [
                (
                    "analyze_session",
                    analyze_session(&still, &gyro, rate, &SessionConfig::default()).map(drop),
                ),
                (
                    "integrate_velocity_into",
                    integrate_velocity_into(&trace, rate, &mut out),
                ),
                (
                    "integrate_rate_into",
                    integrate_rate_into(&trace, rate, &mut out),
                ),
                (
                    "integrate_acceleration_into",
                    integrate_acceleration_into(&trace, rate, &mut out),
                ),
                (
                    "correct_linear_drift_into",
                    correct_linear_drift_into(&trace, rate, &mut out).map(drop),
                ),
            ];
            for (name, result) in results {
                assert!(
                    matches!(result, Err(ImuError::InvalidParameter { .. })),
                    "{name} accepted rate {rate}: {result:?}"
                );
            }
        }
    }
}
