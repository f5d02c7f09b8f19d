//! Volunteer profiles.
//!
//! The paper's experiments use "10 volunteers, four females and six males
//! with stature ranging from 160cm to 187cm" (Section VII-A). Each
//! volunteer here carries a stature (which sets the slide planes of the
//! 3D protocol) and a hand-stability profile (which sets motion
//! perturbations and IMU tremor).

use crate::motion::MotionProfile;

/// One experimental volunteer.
#[derive(Debug, Clone, PartialEq)]
pub struct Volunteer {
    /// Identifier, e.g. "V3".
    pub name: String,
    /// Standing height, metres.
    pub stature: f64,
    /// Hand-motion perturbation profile.
    pub profile: MotionProfile,
    /// Extra accelerometer noise from hand tremor, m/s².
    pub tremor_accel_std: f64,
}

impl Volunteer {
    /// The height at which this volunteer comfortably holds a phone for
    /// the upper slide plane (~72% of stature).
    #[must_use]
    pub(crate) fn upper_slide_height(&self) -> f64 {
        0.72 * self.stature
    }
}

/// The ten-volunteer roster of the paper: four females and six males,
/// statures 1.60–1.87 m, with a mix of hand stabilities.
#[must_use]
pub fn roster() -> Vec<Volunteer> {
    let steady = MotionProfile::steady_hand();
    let average = MotionProfile::average_hand();
    let shaky = MotionProfile::shaky_hand();
    let spec: [(&str, f64, &MotionProfile, f64); 10] = [
        ("F1", 1.60, &steady, 0.03),
        ("F2", 1.63, &average, 0.05),
        ("F3", 1.66, &average, 0.05),
        ("F4", 1.70, &steady, 0.03),
        ("M1", 1.70, &average, 0.05),
        ("M2", 1.74, &shaky, 0.08),
        ("M3", 1.77, &average, 0.05),
        ("M4", 1.80, &steady, 0.03),
        ("M5", 1.83, &average, 0.05),
        ("M6", 1.87, &shaky, 0.08),
    ];
    spec.into_iter()
        .map(|(name, stature, profile, tremor)| Volunteer {
            name: name.to_string(),
            stature,
            profile: *profile,
            tremor_accel_std: tremor,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper_composition() {
        let r = roster();
        assert_eq!(r.len(), 10);
        assert_eq!(r.iter().filter(|v| v.name.starts_with('F')).count(), 4);
        assert_eq!(r.iter().filter(|v| v.name.starts_with('M')).count(), 6);
        let min = r.iter().map(|v| v.stature).fold(f64::MAX, f64::min);
        let max = r.iter().map(|v| v.stature).fold(f64::MIN, f64::max);
        assert_eq!(min, 1.60);
        assert_eq!(max, 1.87);
    }

    #[test]
    fn slide_heights_are_plausible() {
        for v in roster() {
            let upper = v.upper_slide_height();
            assert!((1.1..1.4).contains(&upper), "{}: {upper}", v.name);
        }
    }

    #[test]
    fn profiles_validate() {
        for v in roster() {
            assert!(v.profile.validate().is_ok(), "{}", v.name);
            assert!(v.tremor_accel_std >= 0.0);
        }
    }

    #[test]
    fn names_are_unique() {
        let r = roster();
        let mut names: Vec<&str> = r.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }
}
