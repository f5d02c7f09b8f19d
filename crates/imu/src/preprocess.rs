//! Motion Signal Preprocessing (paper Section V-A-1).
//!
//! "We first use gravimeter to cancel the gravity to get linear
//! acceleration data. ... We remove such high frequency noise by passing
//! each signal through a low pass filter ... a moving average (SMA)
//! filter ... n ... 4 to achieve -3dB cut-off frequency at 15Hz with the
//! sampling rate ... 100Hz."

use crate::ImuError;
use hyperear_geom::Vec3;

/// Estimates the gravity vector from an initial stationary window of raw
/// accelerometer samples (the "gravimeter" of the paper: on Android this
/// is `TYPE_GRAVITY`, a long-horizon low-pass of the accelerometer).
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] if fewer than `window` samples are
/// available, [`ImuError::InvalidParameter`] for a zero window, and an
/// error if the estimated vector is implausibly far from 9.8 m/s²
/// (the window was not actually stationary).
pub(crate) fn estimate_gravity(accel: &[Vec3], window: usize) -> Result<Vec3, ImuError> {
    if window == 0 {
        return Err(ImuError::invalid("window", "must be positive"));
    }
    if accel.len() < window {
        return Err(ImuError::TraceTooShort {
            have: accel.len(),
            need: window,
        });
    }
    let mut sum = Vec3::ZERO;
    for a in &accel[..window] {
        sum += *a;
    }
    let g = sum / window as f64;
    let mag = g.norm();
    if !(8.0..=11.5).contains(&mag) {
        return Err(ImuError::invalid(
            "accel",
            format!(
                "gravity estimate has magnitude {mag:.2} m/s²; the calibration window does not look stationary"
            ),
        ));
    }
    Ok(g)
}

/// Convenience: gravity estimation, removal, and smoothing in one call.
///
/// Returns `(linear_acceleration, gravity_estimate)`.
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] if fewer than `gravity_window`
/// samples are available, [`ImuError::InvalidParameter`] for a zero
/// `gravity_window` or `sma_window`, and an error if the gravity estimate is
/// implausibly far from 9.8 m/s² (the window was not actually
/// stationary).
pub fn preprocess(
    accel: &[Vec3],
    gravity_window: usize,
    sma_window: usize,
) -> Result<(Vec<Vec3>, Vec3), ImuError> {
    let mut out = Vec::new();
    let gravity = preprocess_into(accel, gravity_window, sma_window, &mut out)?;
    Ok((out, gravity))
}

/// Allocation-free form of [`preprocess`]: gravity removal and SMA
/// smoothing are fused into one pass over a caller-owned output buffer.
///
/// Output sample `i` is the unweighted mean of the last
/// `min(i + 1, sma_window)` gravity-subtracted samples: the first
/// `sma_window - 1` outputs average the partial window seen so far, so
/// the output has the input's length and no start-up transient.
///
/// Returns the gravity estimate; the smoothed linear acceleration is
/// written to `out`.
///
/// # Errors
///
/// Combines the error conditions of [`estimate_gravity`] with
/// [`ImuError::InvalidParameter`] for a zero `sma_window`.
pub(crate) fn preprocess_into(
    accel: &[Vec3],
    gravity_window: usize,
    sma_window: usize,
    out: &mut Vec<Vec3>,
) -> Result<Vec3, ImuError> {
    let gravity = estimate_gravity(accel, gravity_window)?;
    if sma_window == 0 {
        return Err(ImuError::invalid("sma_window", "must be positive"));
    }
    let n = sma_window;
    out.clear();
    out.reserve(accel.len());
    let (mut ax, mut ay, mut az) = (0.0_f64, 0.0_f64, 0.0_f64);
    for i in 0..accel.len() {
        let lin = accel[i] - gravity;
        ax += lin.x;
        ay += lin.y;
        az += lin.z;
        if i >= n {
            let old = accel[i - n] - gravity;
            ax -= old.x;
            ay -= old.y;
            az -= old.z;
        }
        let count = (i + 1).min(n) as f64;
        out.push(Vec3::new(ax / count, ay / count, az / count));
    }
    Ok(gravity)
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: f64 = 9.806_65;

    fn stationary(n: usize) -> Vec<Vec3> {
        vec![Vec3::new(0.0, 0.0, -G); n]
    }

    #[test]
    fn gravity_estimate_from_clean_stationary() {
        let g = estimate_gravity(&stationary(100), 50).unwrap();
        assert!((g - Vec3::new(0.0, 0.0, -G)).norm() < 1e-12);
    }

    #[test]
    fn gravity_estimate_averages_noise() {
        let mut accel = stationary(200);
        for (i, a) in accel.iter_mut().enumerate() {
            let e = if i % 2 == 0 { 0.1 } else { -0.1 };
            a.x += e;
            a.y -= e;
        }
        let g = estimate_gravity(&accel, 200).unwrap();
        assert!(g.x.abs() < 1e-9);
        assert!(g.y.abs() < 1e-9);
    }

    #[test]
    fn moving_window_is_rejected() {
        // A window full of large motion does not look like gravity.
        let accel = vec![Vec3::new(5.0, 5.0, -15.0); 100];
        assert!(estimate_gravity(&accel, 100).is_err());
        let accel = vec![Vec3::new(0.0, 0.0, -3.0); 100];
        assert!(estimate_gravity(&accel, 100).is_err());
    }

    #[test]
    fn short_or_empty_traces_are_errors() {
        assert!(estimate_gravity(&stationary(10), 50).is_err());
        assert!(estimate_gravity(&stationary(10), 0).is_err());
    }

    #[test]
    fn preprocess_pipeline_end_to_end() {
        let mut accel = stationary(300);
        // A motion burst after the calibration window.
        for a in accel.iter_mut().skip(150).take(20) {
            a.y += 3.0;
        }
        let (linear, gravity) = preprocess(&accel, 100, 4).unwrap();
        assert!((gravity.z + G).abs() < 1e-9);
        // Stationary part is near zero, burst part is visible.
        assert!(linear[50].norm() < 1e-9);
        let burst_peak = linear[150..175].iter().map(|v| v.y).fold(0.0, f64::max);
        assert!(burst_peak > 2.0);
    }

    #[test]
    fn smoothing_warmup_averages_the_partial_window() {
        // An impulse at sample 0 lies inside the gravity window, so the
        // estimate carries 8/64 of it on y and every other linear sample
        // is -0.125 (all exact in binary).
        let mut accel = stationary(64);
        accel[0].y += 8.0;
        let mut out = Vec::new();
        let g = preprocess_into(&accel, 64, 4, &mut out).unwrap();
        assert_eq!(g.y, 0.125);
        let y: Vec<f64> = out.iter().map(|v| v.y).collect();
        assert_eq!(y[0], 7.875);
        assert_eq!(y[1], 3.875); // (7.875 - 0.125) / 2
        assert!((y[2] - 7.625 / 3.0).abs() < 1e-12);
        assert_eq!(y[3], 1.875); // (7.875 - 3 * 0.125) / 4
                                 // A full window from here on, and the impulse has left it.
        assert!(y[4..].iter().all(|&v| v == -0.125));
        assert!(out.iter().all(|v| v.x == 0.0 && v.z.abs() < 1e-12));
    }

    #[test]
    fn smoothing_steady_state_is_the_window_mean() {
        let mut accel = stationary(56);
        for (k, a) in accel.iter_mut().skip(50).enumerate() {
            a.y += (k + 1) as f64; // 1, 2, ..., 6 after the gravity window
        }
        let mut out = Vec::new();
        preprocess_into(&accel, 50, 3, &mut out).unwrap();
        assert!(out[..50].iter().all(|v| v.norm() < 1e-12));
        assert!((out[53].y - 3.0).abs() < 1e-12); // (2 + 3 + 4) / 3
        assert!((out[55].y - 5.0).abs() < 1e-12); // (4 + 5 + 6) / 3
    }

    #[test]
    fn smoothing_averages_alternating_noise() {
        let mut accel = stationary(100);
        for (i, a) in accel.iter_mut().enumerate() {
            let e = if i % 2 == 0 { 0.5 } else { -0.5 };
            a.x += e;
            a.y -= e;
        }
        let mut out = Vec::new();
        preprocess_into(&accel, 100, 4, &mut out).unwrap();
        assert!(out[4..].iter().all(|v| v.norm() < 1e-9));
    }

    #[test]
    fn preprocess_into_overwrites_a_stale_buffer() {
        let mut accel = stationary(260);
        for (i, a) in accel.iter_mut().enumerate().skip(120).take(60) {
            a.y += 1.5 + 0.03 * (i % 7) as f64;
            a.z -= 0.4;
        }
        let (fresh, g_fresh) = preprocess(&accel, 100, 4).unwrap();
        let mut out = vec![Vec3::new(9.0, 9.0, 9.0); 3]; // stale contents
        for _ in 0..2 {
            let g = preprocess_into(&accel, 100, 4, &mut out).unwrap();
            assert_eq!(g, g_fresh);
            assert_eq!(out, fresh);
        }
    }

    #[test]
    fn zero_sma_window_is_rejected() {
        let mut out = Vec::new();
        assert!(matches!(
            preprocess_into(&stationary(100), 50, 0, &mut out),
            Err(ImuError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn preprocess_preserves_length() {
        let accel = stationary(120);
        let (linear, _) = preprocess(&accel, 60, 4).unwrap();
        assert_eq!(linear.len(), 120);
    }
}
