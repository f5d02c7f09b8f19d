use hyperear_dsp::DspError;
use hyperear_geom::GeomError;
use std::fmt;

/// Errors produced while building or rendering simulations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A scenario or model parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint that was violated.
        reason: String,
    },
    /// A DSP primitive failed while rendering.
    Dsp(DspError),
    /// A geometric construction failed while rendering.
    Geom(GeomError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            SimError::Dsp(e) => write!(f, "dsp error during simulation: {e}"),
            SimError::Geom(e) => write!(f, "geometry error during simulation: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Dsp(e) => Some(e),
            SimError::Geom(e) => Some(e),
            SimError::InvalidParameter { .. } => None,
        }
    }
}

impl From<DspError> for SimError {
    fn from(e: DspError) -> Self {
        SimError::Dsp(e)
    }
}

impl From<GeomError> for SimError {
    fn from(e: GeomError) -> Self {
        SimError::Geom(e)
    }
}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidParameter`].
    pub(crate) fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        SimError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }
}

/// Checks that the rate `name` is finite and positive: NaN, infinities,
/// zero and negative rates are [`SimError::InvalidParameter`].
pub(crate) fn check_rate(name: &'static str, rate: f64) -> Result<(), SimError> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(SimError::invalid(
            name,
            format!("must be finite and positive, got {rate}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SimError::invalid("range", "must be positive");
        assert!(e.to_string().contains("range"));
        assert!(e.source().is_none());
        let e = SimError::from(DspError::EmptyInput { what: "x" });
        assert!(e.to_string().contains("dsp error"));
        assert!(e.source().is_some());
        let e = SimError::from(GeomError::invalid("d", "bad"));
        assert!(e.to_string().contains("geometry error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    /// Every rate check in the crate rejects NaN, both infinities, zero
    /// and negative rates with [`SimError::InvalidParameter`].
    #[test]
    fn non_finite_and_non_positive_rates_are_invalid() {
        use crate::imu::{sample_imu, ImuModel};
        use crate::mic::{apply_mic_response_with, render_clean_channel};
        use crate::motion::{MotionBuilder, MotionProfile};
        use crate::noise::{generate, NoiseKind};
        use crate::rng::SimRng;
        use hyperear_dsp::plan::DspScratch;
        use hyperear_geom::{Vec2, Vec3};
        let mut rng = SimRng::seed_from(1);
        let motion = MotionBuilder::new(Vec3::new(0.0, 0.0, 1.3), Vec2::new(1.0, 0.0), 0.1366)
            .unwrap()
            .profile(MotionProfile::ruler())
            .build(2, 0.0, 0, &mut rng)
            .unwrap();
        let mut scratch = DspScratch::new();
        let origin = |_: f64| Vec3::new(0.0, 0.0, 0.0);
        for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let results: [(&str, Result<(), SimError>); 4] = [
                (
                    "render_clean_channel",
                    render_clean_channel(&[1.0], &[], &[], &origin, rate, 343.0, 1.0, 16).map(drop),
                ),
                (
                    "apply_mic_response_with",
                    apply_mic_response_with(&[1.0, 0.5], &|_| 1.0, rate, &mut scratch).map(drop),
                ),
                (
                    "noise::generate",
                    generate(NoiseKind::White, 16, rate, &mut rng).map(drop),
                ),
                (
                    "sample_imu",
                    sample_imu(&motion, &ImuModel::phone_grade(), rate, &mut rng).map(drop),
                ),
            ];
            for (name, result) in results {
                assert!(
                    matches!(result, Err(SimError::InvalidParameter { .. })),
                    "{name} accepted rate {rate}: {result:?}"
                );
            }
        }
    }
}
