//! Displacement derivation (paper Section V-B, final step).
//!
//! "Given the corrected sliding velocity v*(t), the displacement between
//! any two time instants during a slide can be derived by taking the
//! integral of v*(t) over time."

use crate::velocity::{correct_linear_drift_into, integrate_acceleration_into};
use crate::ImuError;

/// Integrates a velocity trace (trapezoidal) into a displacement trace,
/// written into a caller-owned buffer that is cleared and reused.
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] for fewer than 2 samples and
/// [`ImuError::InvalidParameter`] for a non-positive sample rate.
pub(crate) fn integrate_velocity_into(
    velocity: &[f64],
    sample_rate: f64,
    out: &mut Vec<f64>,
) -> Result<(), ImuError> {
    if velocity.len() < 2 {
        return Err(ImuError::TraceTooShort {
            have: velocity.len(),
            need: 2,
        });
    }
    if sample_rate <= 0.0 {
        return Err(ImuError::invalid("sample_rate", "must be positive"));
    }
    let dt = 1.0 / sample_rate;
    out.clear();
    out.reserve(velocity.len());
    out.push(0.0);
    for i in 1..velocity.len() {
        let prev = out[i - 1];
        out.push(prev + 0.5 * (velocity[i - 1] + velocity[i]) * dt);
    }
    Ok(())
}

/// Reusable work buffers for [`segment_kinematics`]: one velocity chain
/// (raw, drift-corrected, displacement) that a session engine can carry
/// across slides without reallocating.
#[derive(Debug, Clone, Default)]
pub struct DisplacementScratch {
    velocity: Vec<f64>,
    corrected: Vec<f64>,
    displacement: Vec<f64>,
}

/// Per-segment kinematic summary produced by [`segment_kinematics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentKinematics {
    /// Signed net displacement, metres (end minus start).
    pub distance: f64,
    /// Raw integrated velocity at the segment end, m/s — the zero-velocity
    /// residual the Eq. 4 correction removes. Near zero for a clean slide;
    /// large values mean the accelerometer drifted badly and the distance
    /// estimate is suspect.
    pub end_velocity_residual: f64,
    /// The fitted Eq. 4 drift slope `err_a`, m/s².
    pub drift_slope: f64,
}

/// Allocation-free per-segment kinematics: acceleration → drift-corrected
/// velocity → displacement, plus the zero-velocity residual diagnostics
/// used for per-slide confidence scoring.
///
/// `distance` is the `D′` (for horizontal slides) or `H` contribution
/// (for stature changes) of the paper's geometry.
///
/// # Errors
///
/// Combines the conditions of velocity estimation and velocity
/// integration ([`ImuError::TraceTooShort`] for fewer than 2 samples,
/// [`ImuError::InvalidParameter`] for a non-positive sample rate).
pub fn segment_kinematics(
    accel: &[f64],
    sample_rate: f64,
    drift_correction: bool,
    scratch: &mut DisplacementScratch,
) -> Result<SegmentKinematics, ImuError> {
    integrate_acceleration_into(accel, sample_rate, &mut scratch.velocity)?;
    let end_velocity_residual = scratch.velocity[scratch.velocity.len() - 1];
    let drift_slope =
        correct_linear_drift_into(&scratch.velocity, sample_rate, &mut scratch.corrected)?;
    let trace = if drift_correction {
        &scratch.corrected
    } else {
        &scratch.velocity
    };
    integrate_velocity_into(trace, sample_rate, &mut scratch.displacement)?;
    let distance = scratch.displacement[scratch.displacement.len() - 1];
    Ok(SegmentKinematics {
        distance,
        end_velocity_residual,
        drift_slope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::velocity::estimate_velocity;

    /// The drift-corrected net displacement of `accel`.
    fn displacement(accel: &[f64], fs: f64) -> Result<f64, ImuError> {
        segment_kinematics(accel, fs, true, &mut DisplacementScratch::default()).map(|k| k.distance)
    }

    fn integrate_velocity(velocity: &[f64], fs: f64) -> Result<Vec<f64>, ImuError> {
        let mut out = Vec::new();
        integrate_velocity_into(velocity, fs, &mut out)?;
        Ok(out)
    }

    fn min_jerk_accel(dist: f64, n: usize, fs: f64) -> Vec<f64> {
        let duration = (n - 1) as f64 / fs;
        (0..n)
            .map(|i| {
                let tau = i as f64 / (n - 1) as f64;
                let a = 60.0 * tau - 180.0 * tau * tau + 120.0 * tau * tau * tau;
                a * dist / (duration * duration)
            })
            .collect()
    }

    #[test]
    fn clean_slide_recovers_distance() {
        for dist in [0.15, 0.35, 0.55, -0.55] {
            let accel = min_jerk_accel(dist, 81, 100.0);
            let d = displacement(&accel, 100.0).unwrap();
            assert!((d - dist).abs() < 0.002, "dist {dist}: estimated {d}");
        }
    }

    #[test]
    fn biased_slide_still_recovers_distance() {
        // A constant bias produces linear velocity drift; after Eq. 4 the
        // displacement error collapses. (A 0.2 m/s² bias uncorrected would
        // add ½·0.2·0.8² = 6.4 cm.)
        let mut accel = min_jerk_accel(0.55, 81, 100.0);
        for a in &mut accel {
            *a += 0.2;
        }
        let d = displacement(&accel, 100.0).unwrap();
        assert!((d - 0.55).abs() < 0.005, "estimated {d}");
    }

    #[test]
    fn integrate_velocity_of_constant() {
        let v = vec![2.0; 101];
        let d = integrate_velocity(&v, 100.0).unwrap();
        assert!((d[100] - 2.0).abs() < 1e-12);
        assert_eq!(d[0], 0.0);
    }

    #[test]
    fn displacement_is_monotonic_for_positive_velocity() {
        let v: Vec<f64> = (0..100).map(|i| (i as f64 / 50.0).min(1.0)).collect();
        let d = integrate_velocity(&v, 100.0).unwrap();
        for w in d.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(integrate_velocity(&[], 100.0).is_err());
        assert!(integrate_velocity(&[1.0], 100.0).is_err());
        assert!(integrate_velocity(&[1.0, 2.0], 0.0).is_err());
        assert!(displacement(&[1.0], 100.0).is_err());
    }

    #[test]
    fn segment_kinematics_matches_staged_pipeline() {
        let mut accel = min_jerk_accel(0.55, 81, 100.0);
        for a in &mut accel {
            *a += 0.2;
        }
        let mut scratch = DisplacementScratch::default();
        for drift_correction in [true, false] {
            // The staged pipeline: velocity, optional Eq. 4 correction,
            // displacement.
            let v = estimate_velocity(&accel, 100.0).unwrap();
            let trace = if drift_correction {
                &v.corrected
            } else {
                &v.raw
            };
            let reference = *integrate_velocity(trace, 100.0).unwrap().last().unwrap();
            for _ in 0..2 {
                let kin =
                    segment_kinematics(&accel, 100.0, drift_correction, &mut scratch).unwrap();
                assert_eq!(kin.distance, reference);
                // The residual is the raw end velocity: bias 0.2 over 0.8 s.
                assert!((kin.end_velocity_residual - 0.16).abs() < 0.01);
                assert!((kin.drift_slope - 0.2).abs() < 1e-9);
            }
        }
        let mut empty = DisplacementScratch::default();
        assert!(segment_kinematics(&[1.0], 100.0, true, &mut empty).is_err());
    }

    #[test]
    fn half_segment_displacement_partial() {
        // Displacement at mid-slide of a min-jerk is half the total.
        let accel = min_jerk_accel(0.5, 81, 100.0);
        let v = estimate_velocity(&accel, 100.0).unwrap();
        let d = integrate_velocity(&v.corrected, 100.0).unwrap();
        assert!((d[40] - 0.25).abs() < 0.005, "mid displacement {}", d[40]);
    }
}
