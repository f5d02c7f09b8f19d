//! Gyroscope integration for the z-rotation quality gate.
//!
//! "Slides with an estimated distance over 50cm and z-axis rotation angle
//! less than 20° are automatically selected for use" (Section VII-B). The
//! rotation angle over a slide window comes from integrating the
//! gyroscope's z-axis.

use crate::ImuError;

/// Integrates an angular-rate trace (rad/s) into an angle trace (rad),
/// starting from zero, trapezoidal rule.
///
/// The trace is written into `out` (cleared and reused).
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] for fewer than 2 samples and
/// [`ImuError::InvalidParameter`] for a non-positive sample rate.
pub fn integrate_rate_into(
    rate: &[f64],
    sample_rate: f64,
    out: &mut Vec<f64>,
) -> Result<(), ImuError> {
    if rate.len() < 2 {
        return Err(ImuError::TraceTooShort {
            have: rate.len(),
            need: 2,
        });
    }
    if sample_rate <= 0.0 {
        return Err(ImuError::invalid("sample_rate", "must be positive"));
    }
    let dt = 1.0 / sample_rate;
    out.clear();
    out.reserve(rate.len());
    out.push(0.0);
    for i in 1..rate.len() {
        let prev = out[i - 1];
        out.push(prev + 0.5 * (rate[i - 1] + rate[i]) * dt);
    }
    Ok(())
}

/// Integrates the gyroscope z-axis into a session yaw trace with the
/// constant gyro bias removed by least-squares detrending of the
/// integrated angle.
///
/// This is the "Rotation Estimation" component of the paper's
/// architecture (Fig. 5): the yaw at each beacon time feeds the
/// rotation-corrected augmented TDoA. The sensitivity there is brutal —
/// a residual bias of `b` rad/s leaks `D·b·Δt` metres of false distance
/// difference into Mic2's augmented TDoA, with a *constant sign in time*
/// that alternates against back-and-forth slides. LS-detrending the
/// integrated angle estimates the bias far more robustly than averaging
/// any rate window: zero-mean hand wobble contributes only
/// `O(amplitude/(ω·T²))` to the fitted slope.
///
/// Assumption: the user's net orientation is unchanged over the session
/// (they keep facing the speaker), so any sustained rotation trend *is*
/// drift. A deliberate net turn would be absorbed into the bias.
///
/// The trace is written into `out` (cleared and reused).
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] for fewer than 2 samples and
/// [`ImuError::InvalidParameter`] for a non-positive sample rate.
pub fn yaw_trace_into(
    gyro_z: &[f64],
    sample_rate: f64,
    out: &mut Vec<f64>,
) -> Result<(), ImuError> {
    integrate_rate_into(gyro_z, sample_rate, out)?;
    let n = out.len() as f64;
    let t_mean = (n - 1.0) / 2.0;
    let a_mean = out.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &a) in out.iter().enumerate() {
        let dt = i as f64 - t_mean;
        sxx += dt * dt;
        sxy += dt * (a - a_mean);
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    for (i, a) in out.iter_mut().enumerate() {
        *a = *a - a_mean - slope * (i as f64 - t_mean);
    }
    Ok(())
}

/// The maximum absolute rotation (degrees) accumulated over a window of
/// gyroscope z-axis samples — the quantity the 20° gate inspects.
///
/// A constant-rate (bias-like) component is removed first using the same
/// zero-rotation endpoint reasoning as the velocity drift correction: the
/// hand returns to its orientation by the end of a slide, so a net linear
/// trend in the integrated angle is treated as bias.
///
/// The intermediate angle trace lives in `angle` (cleared and reused).
///
/// # Errors
///
/// Same conditions as [`integrate_rate_into`].
pub fn max_rotation_deg_with(
    gyro_z: &[f64],
    sample_rate: f64,
    angle: &mut Vec<f64>,
) -> Result<f64, ImuError> {
    integrate_rate_into(gyro_z, sample_rate, angle)?;
    let n = angle.len();
    let end = angle[n - 1];
    let max = angle
        .iter()
        .enumerate()
        .map(|(i, &a)| (a - end * i as f64 / (n - 1) as f64).abs())
        .fold(0.0f64, f64::max);
    Ok(max.to_degrees())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integrate_rate(rate: &[f64], fs: f64) -> Result<Vec<f64>, ImuError> {
        let mut out = Vec::new();
        integrate_rate_into(rate, fs, &mut out)?;
        Ok(out)
    }

    fn yaw_trace(gyro_z: &[f64], fs: f64) -> Result<Vec<f64>, ImuError> {
        let mut out = Vec::new();
        yaw_trace_into(gyro_z, fs, &mut out)?;
        Ok(out)
    }

    fn max_rotation_deg(gyro_z: &[f64], fs: f64) -> Result<f64, ImuError> {
        max_rotation_deg_with(gyro_z, fs, &mut Vec::new())
    }

    #[test]
    fn constant_rate_integrates_linearly() {
        let rate = vec![0.1; 101];
        let angle = integrate_rate(&rate, 100.0).unwrap();
        assert!((angle[100] - 0.1).abs() < 1e-12);
        assert_eq!(angle[0], 0.0);
    }

    #[test]
    fn still_gyro_reports_no_rotation() {
        let deg = max_rotation_deg(&[0.0; 100], 100.0).unwrap();
        assert_eq!(deg, 0.0);
    }

    #[test]
    fn sinusoidal_wobble_is_measured() {
        // Yaw wobble of ±10°: rate = d/dt(A·sin(ωt)).
        let fs = 100.0;
        let amp = 10f64.to_radians();
        let freq = 0.5;
        let w = std::f64::consts::TAU * freq;
        let rate: Vec<f64> = (0..200)
            .map(|i| amp * w * (w * i as f64 / fs).cos())
            .collect();
        let deg = max_rotation_deg(&rate, fs).unwrap();
        assert!((deg - 10.0).abs() < 1.0, "measured {deg}");
    }

    #[test]
    fn gyro_bias_is_discounted() {
        // Pure bias looks like a steady rotation the hand did not make;
        // the endpoint detrending removes it.
        let rate = vec![0.05; 100];
        let deg = max_rotation_deg(&rate, 100.0).unwrap();
        assert!(deg < 0.01, "bias leaked {deg}°");
    }

    #[test]
    fn wobble_plus_bias_measures_wobble() {
        // One full wobble period so the hand truly returns to its
        // starting orientation (the assumption the detrending makes).
        let fs = 100.0;
        let amp = 15f64.to_radians();
        let w = std::f64::consts::TAU * 0.5;
        let rate: Vec<f64> = (0..=200)
            .map(|i| amp * w * (w * i as f64 / fs).cos() + 0.02)
            .collect();
        let deg = max_rotation_deg(&rate, fs).unwrap();
        assert!((deg - 15.0).abs() < 2.0, "measured {deg}");
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(integrate_rate(&[], 100.0).is_err());
        assert!(integrate_rate(&[0.1], 100.0).is_err());
        assert!(integrate_rate(&[0.1, 0.2], 0.0).is_err());
        assert!(max_rotation_deg(&[0.1], 100.0).is_err());
        assert!(yaw_trace(&[0.1], 100.0).is_err());
        assert!(yaw_trace(&[0.1, 0.2], 0.0).is_err());
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let fs = 100.0;
        let w = std::f64::consts::TAU * 0.5;
        let gyro: Vec<f64> = (0..300)
            .map(|i| 0.02 + 0.1 * w * (w * i as f64 / fs).cos())
            .collect();
        let angle_ref = integrate_rate(&gyro, fs).unwrap();
        let yaw_ref = yaw_trace(&gyro, fs).unwrap();
        let deg_ref = max_rotation_deg(&gyro, fs).unwrap();
        let mut buf = vec![9.0; 7]; // stale contents
        for _ in 0..2 {
            integrate_rate_into(&gyro, fs, &mut buf).unwrap();
            assert_eq!(buf, angle_ref);
            yaw_trace_into(&gyro, fs, &mut buf).unwrap();
            assert_eq!(buf, yaw_ref);
            assert_eq!(max_rotation_deg_with(&gyro, fs, &mut buf).unwrap(), deg_ref);
        }
        assert!(integrate_rate_into(&[0.1], fs, &mut buf).is_err());
        assert!(yaw_trace_into(&[0.1], fs, &mut buf).is_err());
        assert!(max_rotation_deg_with(&[0.1], fs, &mut buf).is_err());
    }

    #[test]
    fn yaw_trace_removes_constant_bias() {
        // A pure 0.02 rad/s bias with no real rotation must detrend to a
        // flat yaw trace.
        let yaw = yaw_trace(&[0.02; 400], 100.0).unwrap();
        for &y in &yaw {
            assert!(y.abs() < 1e-9, "residual yaw {y}");
        }
    }

    #[test]
    fn yaw_trace_differences_are_bias_free() {
        // The pipeline consumes yaw *differences* between nearby times;
        // a bias plus wobble must leave those differences accurate.
        let fs = 100.0;
        let amp = 0.08;
        let w = std::f64::consts::TAU * 0.4;
        let gyro: Vec<f64> = (0..1800)
            .map(|i| 0.01 + amp * w * (w * i as f64 / fs).cos())
            .collect();
        let yaw = yaw_trace(&gyro, fs).unwrap();
        for (i, j) in [(100usize, 260usize), (600, 760), (1200, 1360)] {
            let est = yaw[j] - yaw[i];
            let truth = amp * ((w * j as f64 / fs).sin() - (w * i as f64 / fs).sin());
            assert!((est - truth).abs() < 0.005, "({i},{j}): {est} vs {truth}");
        }
    }

    #[test]
    fn yaw_trace_preserves_wobble_shape() {
        // Integer number of wobble periods: the detrended trace should
        // match the true wobble up to a constant offset.
        let fs = 100.0;
        let amp = 0.1;
        let w = std::f64::consts::TAU * 0.5;
        // Session-length trace (10 wobble periods): the LS slope error
        // decays as 1/T², so shape fidelity needs a realistic duration.
        let gyro: Vec<f64> = (0..2000)
            .map(|i| amp * w * (w * i as f64 / fs).cos())
            .collect();
        let yaw = yaw_trace(&gyro, fs).unwrap();
        let offset = yaw[0] - 0.0; // truth starts at sin(0) = 0
        for i in (0..2000).step_by(100) {
            let truth = amp * (w * i as f64 / fs).sin();
            // The detrend's residual is a slow, small warp; what the
            // pipeline consumes (short-span differences) is tested
            // separately with a tighter bound.
            assert!(
                (yaw[i] - offset - truth).abs() < 0.02,
                "at {i}: {} vs {truth}",
                yaw[i] - offset
            );
        }
    }
}
