//! Sliding-velocity estimation with linear drift correction
//! (paper Section V-B, Eq. 4, Fig. 9).
//!
//! Integrating noisy acceleration drifts; the paper observes (citing its
//! SenSpeed work) that "the accumulative error of integral is
//! approximately a linear function of time", and that "the true velocity
//! at both ends of a slide is zero". So: integrate, read the end-point
//! velocity error `v(t2)`, fit the line `err_a·(t − t1)` with
//! `err_a = v(t2)/(t2 − t1)`, and subtract it.

use crate::error::check_rate;
use crate::ImuError;

/// A velocity trace over one movement segment.
#[derive(Debug, Clone, PartialEq)]
pub struct VelocityEstimate {
    /// Raw integral velocity (drifts).
    pub raw: Vec<f64>,
    /// Drift-corrected velocity (zero at both ends by construction).
    pub corrected: Vec<f64>,
    /// The fitted drift slope `err_a`, m/s² — diagnostic for how bad the
    /// accelerometer error was over this slide.
    pub drift_slope: f64,
    /// Sampling rate, hertz.
    pub sample_rate: f64,
}

/// Integrates acceleration over a segment (trapezoidal rule) into raw
/// velocity, assuming zero initial velocity.
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] for fewer than 2 samples and
/// [`ImuError::InvalidParameter`] for a sample rate that is not finite
/// and positive.
pub fn integrate_acceleration(accel: &[f64], sample_rate: f64) -> Result<Vec<f64>, ImuError> {
    let mut v = Vec::new();
    integrate_acceleration_into(accel, sample_rate, &mut v)?;
    Ok(v)
}

/// Allocation-free form of [`integrate_acceleration`] writing into a
/// caller-owned buffer that is cleared and reused.
///
/// # Errors
///
/// Same conditions as [`integrate_acceleration`].
pub(crate) fn integrate_acceleration_into(
    accel: &[f64],
    sample_rate: f64,
    out: &mut Vec<f64>,
) -> Result<(), ImuError> {
    if accel.len() < 2 {
        return Err(ImuError::TraceTooShort {
            have: accel.len(),
            need: 2,
        });
    }
    check_rate(sample_rate)?;
    let dt = 1.0 / sample_rate;
    out.clear();
    out.reserve(accel.len());
    out.push(0.0);
    for i in 1..accel.len() {
        let dv = 0.5 * (accel[i - 1] + accel[i]) * dt;
        let prev = out[i - 1];
        out.push(prev + dv);
    }
    Ok(())
}

/// Applies the Eq. 4 linear drift correction to a raw velocity trace:
/// `v*(t) = v(t) − err_a·(t − t1)` with `err_a = v(t2)/(t2 − t1)`.
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] for fewer than 2 samples.
pub fn correct_linear_drift(raw: &[f64], sample_rate: f64) -> Result<(Vec<f64>, f64), ImuError> {
    let mut corrected = Vec::new();
    let err_a = correct_linear_drift_into(raw, sample_rate, &mut corrected)?;
    Ok((corrected, err_a))
}

/// Allocation-free form of [`correct_linear_drift`] writing into a
/// caller-owned buffer; returns the fitted drift slope `err_a`.
///
/// # Errors
///
/// Same conditions as [`correct_linear_drift`].
pub(crate) fn correct_linear_drift_into(
    raw: &[f64],
    sample_rate: f64,
    out: &mut Vec<f64>,
) -> Result<f64, ImuError> {
    if raw.len() < 2 {
        return Err(ImuError::TraceTooShort {
            have: raw.len(),
            need: 2,
        });
    }
    check_rate(sample_rate)?;
    let duration = (raw.len() - 1) as f64 / sample_rate;
    let err_a = raw[raw.len() - 1] / duration;
    let dt = 1.0 / sample_rate;
    out.clear();
    out.extend(
        raw.iter()
            .enumerate()
            .map(|(i, &v)| v - err_a * (i as f64 * dt)),
    );
    Ok(err_a)
}

/// Full per-slide velocity estimation: integrate then drift-correct.
///
/// # Errors
///
/// Combines the conditions of [`integrate_acceleration`] and
/// [`correct_linear_drift`].
pub fn estimate_velocity(accel: &[f64], sample_rate: f64) -> Result<VelocityEstimate, ImuError> {
    let raw = integrate_acceleration(accel, sample_rate)?;
    let (corrected, drift_slope) = correct_linear_drift(&raw, sample_rate)?;
    Ok(VelocityEstimate {
        raw,
        corrected,
        drift_slope,
        sample_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean min-jerk acceleration profile: distance d over n samples.
    fn min_jerk_accel(d: f64, n: usize, fs: f64) -> Vec<f64> {
        let duration = (n - 1) as f64 / fs;
        (0..n)
            .map(|i| {
                let tau = i as f64 / (n - 1) as f64;
                let a = 60.0 * tau - 180.0 * tau * tau + 120.0 * tau * tau * tau;
                a * d / (duration * duration)
            })
            .collect()
    }

    #[test]
    fn clean_integration_ends_near_zero() {
        let accel = min_jerk_accel(0.5, 81, 100.0);
        let v = integrate_acceleration(&accel, 100.0).unwrap();
        assert_eq!(v[0], 0.0);
        assert!(v[80].abs() < 1e-3, "end velocity {}", v[80]);
        // Peak velocity = 1.875·d/T at mid.
        let peak = v.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 1.875 * 0.5 / 0.8).abs() < 0.01, "peak {peak}");
    }

    #[test]
    fn constant_bias_is_fully_removed() {
        // A constant accelerometer bias integrates to an exactly linear
        // velocity error — the case Eq. 4 removes perfectly.
        let mut accel = min_jerk_accel(0.5, 81, 100.0);
        for a in &mut accel {
            *a += 0.2; // large bias
        }
        let est = estimate_velocity(&accel, 100.0).unwrap();
        assert!(est.raw[80].abs() > 0.1, "raw drift should be visible");
        assert!(est.corrected[80].abs() < 1e-12, "corrected end not zero");
        assert!(
            (est.drift_slope - 0.2).abs() < 1e-9,
            "slope {}",
            est.drift_slope
        );
        // The corrected curve matches the clean integral everywhere.
        let clean = integrate_acceleration(&min_jerk_accel(0.5, 81, 100.0), 100.0).unwrap();
        for (c, t) in est.corrected.iter().zip(&clean) {
            assert!((c - t).abs() < 1e-9);
        }
    }

    #[test]
    fn corrected_velocity_zero_at_both_ends() {
        let mut accel = min_jerk_accel(0.4, 101, 100.0);
        // Arbitrary slow error ramp.
        for (i, a) in accel.iter_mut().enumerate() {
            *a += 0.05 + 0.001 * i as f64;
        }
        let est = estimate_velocity(&accel, 100.0).unwrap();
        assert_eq!(est.corrected[0], 0.0);
        assert!(est.corrected.last().unwrap().abs() < 1e-12);
    }

    #[test]
    fn fig9_shape_drift_grows_with_time() {
        // Reproduces the Fig. 9 observation: raw integral departs from
        // the corrected curve, increasingly with time.
        let mut accel = min_jerk_accel(0.5, 101, 100.0);
        for a in &mut accel {
            *a += 0.1;
        }
        let est = estimate_velocity(&accel, 100.0).unwrap();
        let gap_early = (est.raw[10] - est.corrected[10]).abs();
        let gap_late = (est.raw[90] - est.corrected[90]).abs();
        assert!(gap_late > 5.0 * gap_early);
    }

    #[test]
    fn trapezoid_matches_analytic_for_linear_accel() {
        // a(t) = t  ⇒  v(t) = t²/2 exactly under trapezoidal integration.
        let fs = 100.0;
        let accel: Vec<f64> = (0..101).map(|i| i as f64 / fs).collect();
        let v = integrate_acceleration(&accel, fs).unwrap();
        for (i, &vi) in v.iter().enumerate() {
            let t = i as f64 / fs;
            assert!((vi - t * t / 2.0).abs() < 1e-9, "at {i}");
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(integrate_acceleration(&[], 100.0).is_err());
        assert!(integrate_acceleration(&[1.0], 100.0).is_err());
        assert!(integrate_acceleration(&[1.0, 2.0], 0.0).is_err());
        assert!(correct_linear_drift(&[1.0], 100.0).is_err());
        assert!(correct_linear_drift(&[1.0, 2.0], 0.0).is_err());
        let mut buf = Vec::new();
        assert!(integrate_acceleration_into(&[1.0], 100.0, &mut buf).is_err());
        assert!(correct_linear_drift_into(&[1.0], 100.0, &mut buf).is_err());
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let mut accel = min_jerk_accel(0.5, 81, 100.0);
        for (i, a) in accel.iter_mut().enumerate() {
            *a += 0.07 + 0.002 * i as f64;
        }
        let raw_ref = integrate_acceleration(&accel, 100.0).unwrap();
        let (corr_ref, slope_ref) = correct_linear_drift(&raw_ref, 100.0).unwrap();
        let (mut raw, mut corr) = (vec![9.0; 5], vec![9.0; 5]); // stale contents
        for _ in 0..2 {
            integrate_acceleration_into(&accel, 100.0, &mut raw).unwrap();
            let slope = correct_linear_drift_into(&raw, 100.0, &mut corr).unwrap();
            assert_eq!(raw, raw_ref);
            assert_eq!(corr, corr_ref);
            assert_eq!(slope, slope_ref);
        }
    }
}
