//! The slide quality gate (paper Section VII-B).
//!
//! "In HyperEar, slides with an estimated distance over 50cm and z-axis
//! rotation angle less than 20° are automatically selected for use."

use crate::ImuError;

/// Acceptance thresholds for a slide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityGate {
    /// Minimum absolute slide distance, metres.
    pub min_distance: f64,
    /// Maximum z-axis rotation during the slide, degrees.
    pub max_rotation_deg: f64,
}

impl Default for QualityGate {
    fn default() -> Self {
        QualityGate {
            min_distance: 0.5,
            max_rotation_deg: 20.0,
        }
    }
}

impl hyperear_util::ToJson for QualityGate {
    fn to_json(&self) -> hyperear_util::Json {
        use hyperear_util::Json;
        // A disabled gate has an infinite rotation bound; JSON has no
        // infinity, so that case is encoded as null.
        let rotation = if self.max_rotation_deg.is_finite() {
            Json::Number(self.max_rotation_deg)
        } else {
            Json::Null
        };
        Json::obj(vec![
            ("min_distance", Json::Number(self.min_distance)),
            ("max_rotation_deg", rotation),
        ])
    }
}

impl hyperear_util::FromJson for QualityGate {
    fn from_json(json: &hyperear_util::Json) -> Result<Self, hyperear_util::JsonError> {
        use hyperear_util::{Json, JsonError};
        let max_rotation_deg = match json.get("max_rotation_deg") {
            Some(Json::Null) => f64::INFINITY,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| JsonError::schema("max_rotation_deg must be a number or null"))?,
            None => return Err(JsonError::schema("missing field max_rotation_deg")),
        };
        Ok(QualityGate {
            min_distance: json.field("min_distance")?,
            max_rotation_deg,
        })
    }
}

/// Why a slide was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejection {
    /// The estimated distance was below the gate's minimum.
    TooShort {
        /// The estimated |distance| in metres.
        distance: f64,
    },
    /// The z-rotation exceeded the gate's maximum.
    TooMuchRotation {
        /// The measured rotation in degrees.
        rotation_deg: f64,
    },
}

impl QualityGate {
    /// Validates the gate.
    ///
    /// # Errors
    ///
    /// Returns [`ImuError::InvalidParameter`] for negative thresholds.
    pub fn validate(&self) -> Result<(), ImuError> {
        if !(self.min_distance >= 0.0 && self.min_distance.is_finite()) {
            return Err(ImuError::invalid(
                "min_distance",
                format!("must be non-negative and finite, got {}", self.min_distance),
            ));
        }
        if self.max_rotation_deg.is_nan() || self.max_rotation_deg < 0.0 {
            return Err(ImuError::invalid(
                "max_rotation_deg",
                format!("must be non-negative, got {}", self.max_rotation_deg),
            ));
        }
        Ok(())
    }

    /// Checks a slide against the gate. `Ok(())` means accepted.
    ///
    /// # Errors
    ///
    /// This function does not error; it returns the rejection reason in
    /// the `Err` variant of a plain `Result` for ergonomic `?`-free
    /// filtering.
    #[allow(clippy::result_large_err)]
    pub fn check(&self, distance: f64, rotation_deg: f64) -> Result<(), Rejection> {
        if distance.abs() < self.min_distance {
            return Err(Rejection::TooShort {
                distance: distance.abs(),
            });
        }
        if rotation_deg > self.max_rotation_deg {
            return Err(Rejection::TooMuchRotation { rotation_deg });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gate_values() {
        let g = QualityGate::default();
        assert_eq!(g.min_distance, 0.5);
        assert_eq!(g.max_rotation_deg, 20.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn accepts_good_slides() {
        let g = QualityGate::default();
        assert!(g.check(0.55, 3.0).is_ok());
        assert!(g.check(-0.6, 19.9).is_ok());
    }

    #[test]
    fn rejects_short_slides() {
        let g = QualityGate::default();
        match g.check(0.3, 1.0) {
            Err(Rejection::TooShort { distance }) => assert!((distance - 0.3).abs() < 1e-12),
            other => panic!("expected TooShort, got {other:?}"),
        }
    }

    #[test]
    fn rejects_rotated_slides() {
        let g = QualityGate::default();
        match g.check(0.6, 25.0) {
            Err(Rejection::TooMuchRotation { rotation_deg }) => {
                assert_eq!(rotation_deg, 25.0);
            }
            other => panic!("expected TooMuchRotation, got {other:?}"),
        }
    }

    #[test]
    fn disabled_gate_accepts_anything() {
        let g = QualityGate {
            min_distance: 0.0,
            max_rotation_deg: f64::INFINITY,
        };
        assert!(g.check(0.01, 180.0).is_ok());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn invalid_gate_rejected() {
        let g = QualityGate {
            min_distance: -1.0,
            max_rotation_deg: 20.0,
        };
        assert!(g.validate().is_err());
        let g = QualityGate {
            min_distance: 0.5,
            max_rotation_deg: -5.0,
        };
        assert!(g.validate().is_err());
    }
}
