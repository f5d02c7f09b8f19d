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

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
