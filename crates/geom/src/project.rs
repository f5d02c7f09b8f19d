//! Projected Location Estimation (paper Section VI-B, Eq. 7).
//!
//! In 3D the phone and speaker rarely share a horizontal plane, and the
//! speaker's height is unknown. HyperEar slides the phone on two horizontal
//! planes separated by a stature change `H`. Each plane yields a slant
//! distance `Lᵢ` to the speaker; the triangle `(L1, L2, H)` then gives the
//! elevation angle β and the *projected* (floor-map) distance
//! `L* = L1·sin β`, with `β = arccos((H² + L1² − L2²) / (2·H·L1))`.

use crate::GeomError;

/// The two-stature slant-range measurements of the 3D protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionMeasurement {
    /// Slant distance from the upper slide plane to the speaker, metres.
    pub l1: f64,
    /// Slant distance from the lower slide plane to the speaker, metres.
    pub l2: f64,
    /// Vertical stature change between the planes (positive, metres),
    /// measured by integrating z-axis acceleration during the height
    /// change.
    pub h: f64,
}

/// The result of projected-location estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedLocation {
    /// Elevation angle β at the upper plane, radians.
    pub beta: f64,
    /// Projected (floor-map) distance `L* = L1·sin β`, metres.
    pub l_star: f64,
    /// Height of the speaker below the upper plane: `L1·cos β`, metres.
    /// Positive means the speaker is below the upper slide plane.
    pub depth: f64,
}

impl ProjectionMeasurement {
    /// Validates and creates a measurement.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidParameter`] for non-positive or
    /// non-finite inputs.
    pub fn new(l1: f64, l2: f64, h: f64) -> Result<Self, GeomError> {
        for (name, v) in [("l1", l1), ("l2", l2), ("h", h)] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(GeomError::invalid(
                    name,
                    format!("must be positive and finite, got {v}"),
                ));
            }
        }
        Ok(ProjectionMeasurement { l1, l2, h })
    }

    /// Solves Eq. 7 for the projected distance.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::Degenerate`] when `(L1, L2, H)` violate the
    /// triangle inequality beyond numeric tolerance — physically impossible
    /// measurements, usually meaning the stature change estimate collapsed.
    pub fn solve(&self) -> Result<ProjectedLocation, GeomError> {
        let cos_beta =
            (self.h * self.h + self.l1 * self.l1 - self.l2 * self.l2) / (2.0 * self.h * self.l1);
        // Allow slight numeric overshoot; reject genuinely impossible sets.
        if cos_beta.abs() > 1.0 + 1e-6 {
            return Err(GeomError::Degenerate {
                what: format!(
                    "measurements (L1={}, L2={}, H={}) violate the triangle inequality (cos β = {cos_beta})",
                    self.l1, self.l2, self.h
                ),
            });
        }
        let cos_beta = cos_beta.clamp(-1.0, 1.0);
        let beta = cos_beta.acos();
        Ok(ProjectedLocation {
            beta,
            l_star: self.l1 * beta.sin(),
            depth: self.l1 * cos_beta,
        })
    }
}

/// The forward model: slant ranges and projected distance for a speaker at
/// horizontal distance `ground_distance` and `depth` metres below the
/// upper slide plane, with stature change `h`.
///
/// Useful for tests and the simulator.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] for non-positive
/// `ground_distance` or `h`.
pub fn forward_model(
    ground_distance: f64,
    depth: f64,
    h: f64,
) -> Result<ProjectionMeasurement, GeomError> {
    if ground_distance <= 0.0 {
        return Err(GeomError::invalid("ground_distance", "must be positive"));
    }
    if h <= 0.0 {
        return Err(GeomError::invalid("h", "must be positive"));
    }
    let l1 = (ground_distance * ground_distance + depth * depth).sqrt();
    let d2 = depth - h; // speaker depth below the lower plane
    let l2 = (ground_distance * ground_distance + d2 * d2).sqrt();
    ProjectionMeasurement::new(l1, l2, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_solve_round_trips() {
        for (ground, depth, h) in [
            (5.0, 0.8, 0.4),
            (7.0, 1.0, 0.5),
            (2.0, 0.3, 0.3),
            (1.0, 1.2, 0.6),
        ] {
            let m = forward_model(ground, depth, h).unwrap();
            let sol = m.solve().unwrap();
            assert!(
                (sol.l_star - ground).abs() < 1e-9,
                "ground {ground}: L* {}",
                sol.l_star
            );
            assert!((sol.depth - depth).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_is_right_angle_for_level_speaker() {
        // Speaker exactly on the upper plane: depth → 0, β → 90°.
        let m = forward_model(5.0, 1e-9, 0.5).unwrap();
        let sol = m.solve().unwrap();
        assert!((sol.beta - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
        assert!((sol.l_star - 5.0).abs() < 1e-6);
    }

    #[test]
    fn speaker_above_upper_plane_gives_obtuse_beta() {
        // Negative depth (speaker above the phone's upper plane).
        let m = forward_model(4.0, -0.5, 0.4).unwrap();
        let sol = m.solve().unwrap();
        assert!(sol.beta > std::f64::consts::FRAC_PI_2);
        assert!((sol.l_star - 4.0).abs() < 1e-9);
        assert!((sol.depth + 0.5).abs() < 1e-9);
    }

    #[test]
    fn paper_stature_example() {
        // Speaker at 0.5 m stature, phone slides at ~1.3 m and ~0.9 m: the
        // depths below the planes are 0.8 and 0.4.
        let m = forward_model(7.0, 0.8, 0.4).unwrap();
        let sol = m.solve().unwrap();
        assert!((sol.l_star - 7.0).abs() < 1e-9);
    }

    #[test]
    fn errors_in_h_shift_l_star_mildly_for_far_speakers() {
        // For a far speaker, L* ≈ L1, so even a 10% stature-change error
        // moves the projection only slightly — the robustness PLE relies on.
        let truth = forward_model(7.0, 0.8, 0.4).unwrap();
        let perturbed = ProjectionMeasurement::new(truth.l1, truth.l2, 0.44).unwrap();
        let sol = perturbed.solve().unwrap();
        assert!((sol.l_star - 7.0).abs() < 0.1, "L* {}", sol.l_star);
    }

    #[test]
    fn impossible_triangle_is_degenerate() {
        // L2 larger than L1 + H: no triangle.
        let m = ProjectionMeasurement::new(1.0, 3.0, 0.5).unwrap();
        assert!(matches!(m.solve(), Err(GeomError::Degenerate { .. })));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(ProjectionMeasurement::new(0.0, 1.0, 0.5).is_err());
        assert!(ProjectionMeasurement::new(1.0, -1.0, 0.5).is_err());
        assert!(ProjectionMeasurement::new(1.0, 1.0, 0.0).is_err());
        assert!(ProjectionMeasurement::new(f64::NAN, 1.0, 0.5).is_err());
        assert!(forward_model(0.0, 0.5, 0.4).is_err());
        assert!(forward_model(5.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn slight_numeric_overshoot_is_tolerated() {
        // cos β marginally above 1 from floating point: clamped, not fatal.
        let l1 = 5.0;
        let h = 0.5;
        let l2 = (l1 - h) * (1.0 + 1e-9); // nearly collinear
        let m = ProjectionMeasurement::new(l1, l2, h).unwrap();
        let sol = m.solve().unwrap();
        assert!(sol.beta >= 0.0);
    }
}
