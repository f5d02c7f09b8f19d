//! Planar rotations and the phone's roll frame.
//!
//! Speaker Direction Finding rolls the phone around its z-axis; the angle
//! `α ∈ [0°, 360°)` between the speaker direction and the phone's +y axis
//! determines the measured TDoA (paper Fig. 6–7). This module provides the
//! angle conventions used throughout: degree wrapping and the left/right
//! side.

/// Wraps an angle in degrees to `[0, 360)`.
///
/// # Example
///
/// ```
/// use hyperear_geom::rotation::wrap_degrees;
/// assert_eq!(wrap_degrees(-90.0), 270.0);
/// assert_eq!(wrap_degrees(720.5), 0.5);
/// ```
#[must_use]
pub fn wrap_degrees(angle: f64) -> f64 {
    let a = angle % 360.0;
    if a < 0.0 {
        a + 360.0
    } else {
        a
    }
}

/// Which side of the phone the speaker is on, per the paper's convention:
/// "the speaker is considered on the right-side of the phone when
/// α ∈ [0°, 180°) and on the left-side when α ∈ [180°, 360°)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// α ∈ [0°, 180°): speaker toward the phone's +x axis.
    Right,
    /// α ∈ [180°, 360°): speaker toward the phone's -x axis.
    Left,
}

impl hyperear_util::ToJson for Side {
    fn to_json(&self) -> hyperear_util::Json {
        hyperear_util::Json::String(
            match self {
                Side::Right => "right",
                Side::Left => "left",
            }
            .to_string(),
        )
    }
}

impl hyperear_util::FromJson for Side {
    fn from_json(json: &hyperear_util::Json) -> Result<Self, hyperear_util::JsonError> {
        match json.as_str() {
            Some("right") => Ok(Side::Right),
            Some("left") => Ok(Side::Left),
            other => Err(hyperear_util::JsonError::schema(format!(
                "side must be \"right\" or \"left\", got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_degrees_cases() {
        assert_eq!(wrap_degrees(0.0), 0.0);
        assert_eq!(wrap_degrees(359.9), 359.9);
        assert_eq!(wrap_degrees(360.0), 0.0);
        assert_eq!(wrap_degrees(-1.0), 359.0);
        assert_eq!(wrap_degrees(725.0), 5.0);
    }
}
