//! Half-hyperbola loci from distance-difference measurements.
//!
//! A TDoA `Δt` between two receivers at `f1`, `f2` constrains the source to
//! the half-hyperbola `|p − f1| − |p − f2| = Δd` with `Δd = Δt·S`
//! (paper Eq. 1). This module represents that locus exactly (no conic
//! canonicalization, the solvers work on the residual directly).

use crate::{GeomError, Vec2};

/// The locus of points whose distance difference to two foci is constant:
/// `|p − f1| − |p − f2| = Δd`.
///
/// `Δd` is signed: positive means the source is farther from `f1`. Unlike a
/// full conic hyperbola, this is one branch only, which is exactly what one
/// TDoA measurement pins down.
///
/// # Example
///
/// ```
/// use hyperear_geom::{Vec2, hyperbola::HalfHyperbola};
///
/// # fn main() -> Result<(), hyperear_geom::GeomError> {
/// let f1 = Vec2::new(-0.07, 0.0);
/// let f2 = Vec2::new(0.07, 0.0);
/// let speaker = Vec2::new(0.5, 3.0);
/// let dd = speaker.distance(f1) - speaker.distance(f2);
/// let h = HalfHyperbola::new(f1, f2, dd)?;
/// assert!(h.residual(speaker).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfHyperbola {
    focus1: Vec2,
    focus2: Vec2,
    delta_d: f64,
}

impl HalfHyperbola {
    /// Creates the locus for foci `f1`, `f2` and signed distance
    /// difference `delta_d = |p−f1| − |p−f2|`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InfeasibleMeasurement`] when `|delta_d|`
    /// exceeds the baseline `|f1 − f2|` (no point can have a distance
    /// difference larger than the focal separation) and
    /// [`GeomError::Degenerate`] for coincident foci.
    pub fn new(focus1: Vec2, focus2: Vec2, delta_d: f64) -> Result<Self, GeomError> {
        let baseline = focus1.distance(focus2);
        if baseline < 1e-12 {
            return Err(GeomError::Degenerate {
                what: "hyperbola foci coincide".into(),
            });
        }
        if delta_d.abs() > baseline {
            return Err(GeomError::InfeasibleMeasurement { delta_d, baseline });
        }
        Ok(HalfHyperbola {
            focus1,
            focus2,
            delta_d,
        })
    }

    /// Signed residual `(|p−f1| − |p−f2|) − Δd`; zero on the locus.
    #[must_use]
    pub fn residual(&self, p: Vec2) -> f64 {
        p.distance(self.focus1) - p.distance(self.focus2) - self.delta_d
    }

    /// Gradient of [`HalfHyperbola::residual`] with respect to `p`.
    ///
    /// Returns `None` when `p` coincides with a focus (gradient undefined).
    #[must_use]
    pub(crate) fn residual_gradient(&self, p: Vec2) -> Option<Vec2> {
        let u1 = (p - self.focus1).normalized()?;
        let u2 = (p - self.focus2).normalized()?;
        Some(u1 - u2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn foci() -> (Vec2, Vec2) {
        (Vec2::new(-0.07, 0.0), Vec2::new(0.07, 0.0))
    }

    #[test]
    fn construction_validates_feasibility() {
        let (f1, f2) = foci();
        assert!(HalfHyperbola::new(f1, f2, 0.1).is_ok());
        assert!(matches!(
            HalfHyperbola::new(f1, f2, 0.2),
            Err(GeomError::InfeasibleMeasurement { .. })
        ));
        assert!(matches!(
            HalfHyperbola::new(f1, f1, 0.0),
            Err(GeomError::Degenerate { .. })
        ));
    }

    #[test]
    fn residual_zero_on_generated_points() {
        let (f1, f2) = foci();
        for speaker in [
            Vec2::new(1.0, 2.0),
            Vec2::new(-0.5, 4.0),
            Vec2::new(0.01, 0.3),
            Vec2::new(3.0, -1.0),
        ] {
            let dd = speaker.distance(f1) - speaker.distance(f2);
            let h = HalfHyperbola::new(f1, f2, dd).unwrap();
            assert!(h.residual(speaker).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_difference_is_perpendicular_bisector() {
        let (f1, f2) = foci();
        let h = HalfHyperbola::new(f1, f2, 0.0).unwrap();
        for y in [-3.0, -1.0, 0.5, 2.0] {
            assert!(h.residual(Vec2::new(0.0, y)).abs() < 1e-12);
        }
        assert!(h.residual(Vec2::new(0.5, 1.0)).abs() > 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (f1, f2) = foci();
        let h = HalfHyperbola::new(f1, f2, 0.05).unwrap();
        let p = Vec2::new(0.8, 1.3);
        let g = h.residual_gradient(p).unwrap();
        let eps = 1e-7;
        let gx = (h.residual(p + Vec2::new(eps, 0.0)) - h.residual(p - Vec2::new(eps, 0.0)))
            / (2.0 * eps);
        let gy = (h.residual(p + Vec2::new(0.0, eps)) - h.residual(p - Vec2::new(0.0, eps)))
            / (2.0 * eps);
        assert!((g.x - gx).abs() < 1e-6);
        assert!((g.y - gy).abs() < 1e-6);
    }

    #[test]
    fn gradient_undefined_at_focus() {
        let (f1, f2) = foci();
        let h = HalfHyperbola::new(f1, f2, 0.0).unwrap();
        assert!(h.residual_gradient(f1).is_none());
    }

    #[test]
    fn sign_convention() {
        let (f1, f2) = foci();
        // Speaker far on the +x side is closer to f2: positive difference.
        let speaker = Vec2::new(5.0, 0.0);
        let dd = speaker.distance(f1) - speaker.distance(f2);
        assert!(dd > 0.0);
        // And |dd| approaches the baseline in the far field along the axis.
        assert!((dd - 0.14).abs() < 1e-3);
    }
}
