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
}
