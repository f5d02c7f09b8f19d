//! Inertial sensor error models.
//!
//! The paper's Phone Displacement Estimation fights "low-quality
//! acceleration readings" (Section V): white noise, constant bias, and —
//! dominant in practice — gravity leaking into the horizontal axes as the
//! hand's tilt wanders. This module samples a [`crate::motion::PhoneMotion`]
//! at the IMU rate and corrupts it exactly that way.

use crate::error::check_rate;
use crate::motion::PhoneMotion;
use crate::rng::SimRng;
use crate::SimError;
use hyperear_geom::Vec3;

/// Standard gravity, m/s².
pub(crate) const GRAVITY: f64 = 9.806_65;

/// Error magnitudes of a phone-grade MEMS IMU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ImuModel {
    /// White noise std of each accelerometer axis per sample, m/s².
    pub accel_noise_std: f64,
    /// Constant per-axis accelerometer bias std, m/s².
    pub accel_bias_std: f64,
    /// White noise std of each gyroscope axis per sample, rad/s.
    pub gyro_noise_std: f64,
    /// Constant per-axis gyroscope bias std, rad/s.
    pub gyro_bias_std: f64,
    /// Extra accelerometer noise from hand tremor, m/s² (zero on the
    /// slide ruler).
    pub tremor_accel_std: f64,
}

impl ImuModel {
    /// A typical phone-grade MEMS IMU (LSM330-class parts of the paper's
    /// era).
    #[must_use]
    pub(crate) fn phone_grade() -> Self {
        ImuModel {
            accel_noise_std: 0.02,
            accel_bias_std: 0.03,
            gyro_noise_std: 0.004,
            gyro_bias_std: 0.002,
            tremor_accel_std: 0.0,
        }
    }

    /// The same IMU with added hand-tremor noise.
    #[must_use]
    pub(crate) fn with_tremor(mut self, tremor_accel_std: f64) -> Self {
        self.tremor_accel_std = tremor_accel_std;
        self
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for negative magnitudes.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("accel_noise_std", self.accel_noise_std),
            ("accel_bias_std", self.accel_bias_std),
            ("gyro_noise_std", self.gyro_noise_std),
            ("gyro_bias_std", self.gyro_bias_std),
            ("tremor_accel_std", self.tremor_accel_std),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(SimError::invalid(
                    "imu model",
                    format!("{name} must be non-negative and finite, got {v}"),
                ));
            }
        }
        Ok(())
    }
}

/// A sampled IMU recording in the phone frame.
///
/// Axes: x = lateral, y = slide axis (the phone's long axis), z = up.
/// Accelerometer samples include gravity, bias and noise — exactly what
/// Android's raw `TYPE_ACCELEROMETER` would deliver.
#[derive(Debug, Clone, PartialEq)]
pub struct ImuTrace {
    /// Sampling rate, hertz.
    pub sample_rate: f64,
    /// Raw accelerometer samples, m/s².
    pub accel: Vec<Vec3>,
    /// Raw gyroscope samples, rad/s.
    pub gyro: Vec<Vec3>,
}

/// Samples `motion` at `sample_rate` through the IMU error model.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for a sample rate that is not
/// finite and positive or an invalid model.
pub(crate) fn sample_imu(
    motion: &PhoneMotion,
    model: &ImuModel,
    sample_rate: f64,
    rng: &mut SimRng,
) -> Result<ImuTrace, SimError> {
    model.validate()?;
    check_rate("sample_rate", sample_rate)?;
    let n = (motion.total_duration * sample_rate).ceil() as usize;
    if n == 0 {
        return Err(SimError::invalid("motion", "motion has zero duration"));
    }
    let accel_bias = Vec3::new(
        rng.gaussian(0.0, model.accel_bias_std),
        rng.gaussian(0.0, model.accel_bias_std),
        rng.gaussian(0.0, model.accel_bias_std),
    );
    let gyro_bias = Vec3::new(
        rng.gaussian(0.0, model.gyro_bias_std),
        rng.gaussian(0.0, model.gyro_bias_std),
        rng.gaussian(0.0, model.gyro_bias_std),
    );
    let accel_std = (model.accel_noise_std * model.accel_noise_std
        + model.tremor_accel_std * model.tremor_accel_std)
        .sqrt();
    let mut accel = Vec::with_capacity(n);
    let mut gyro = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / sample_rate;
        let linear = motion.linear_acceleration_phone(t);
        let (roll, pitch) = motion.tilt(t);
        // Small-angle gravity leakage: pitch (about the lateral x axis)
        // leaks gravity into the slide axis y; roll leaks into x.
        let gravity = Vec3::new(
            GRAVITY * roll.sin(),
            -GRAVITY * pitch.sin(),
            -GRAVITY * roll.cos() * pitch.cos(),
        );
        accel.push(Vec3::new(
            linear.x + gravity.x + accel_bias.x + rng.gaussian(0.0, accel_std),
            linear.y + gravity.y + accel_bias.y + rng.gaussian(0.0, accel_std),
            linear.z + gravity.z + accel_bias.z + rng.gaussian(0.0, accel_std),
        ));
        let w = motion.angular_velocity(t);
        gyro.push(Vec3::new(
            w.x + gyro_bias.x + rng.gaussian(0.0, model.gyro_noise_std),
            w.y + gyro_bias.y + rng.gaussian(0.0, model.gyro_noise_std),
            w.z + gyro_bias.z + rng.gaussian(0.0, model.gyro_noise_std),
        ));
    }
    Ok(ImuTrace {
        sample_rate,
        accel,
        gyro,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::{MotionBuilder, MotionProfile};
    use hyperear_geom::Vec2;

    fn motion(profile: MotionProfile, seed: u64) -> PhoneMotion {
        let mut rng = SimRng::seed_from(seed);
        MotionBuilder::new(Vec3::new(0.0, 0.0, 1.3), Vec2::new(1.0, 0.0), 0.1366)
            .unwrap()
            .profile(profile)
            .build(2, 0.0, 0, &mut rng)
            .unwrap()
    }

    #[test]
    fn trace_has_expected_length_and_rate() {
        let m = motion(MotionProfile::ruler(), 1);
        let mut rng = SimRng::seed_from(2);
        let trace = sample_imu(&m, &ImuModel::phone_grade(), 100.0, &mut rng).unwrap();
        assert_eq!(
            trace.accel.len(),
            (m.total_duration * 100.0).ceil() as usize
        );
        assert_eq!(trace.accel.len(), trace.gyro.len());
    }

    #[test]
    fn stationary_accel_reads_minus_g_on_z() {
        let m = motion(MotionProfile::ruler(), 3);
        let mut rng = SimRng::seed_from(4);
        let trace = sample_imu(&m, &ImuModel::phone_grade(), 100.0, &mut rng).unwrap();
        // Average over the initial hold (first second).
        let mean_z: f64 = trace.accel[..100].iter().map(|a| a.z).sum::<f64>() / 100.0;
        assert!((mean_z + GRAVITY).abs() < 0.1, "mean z accel {mean_z}");
    }

    #[test]
    fn slide_shows_up_on_y_axis() {
        let m = motion(MotionProfile::ruler(), 5);
        let mut rng = SimRng::seed_from(6);
        let trace = sample_imu(&m, &ImuModel::phone_grade(), 100.0, &mut rng).unwrap();
        let slide = m.slides[0];
        let during: Vec<f64> = trace
            .accel
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let t = *i as f64 / 100.0;
                t >= slide.start_time && t <= slide.end_time()
            })
            .map(|(_, a)| a.y.abs())
            .collect();
        let peak = during.iter().cloned().fold(0.0, f64::max);
        // Min-jerk peak accel = 5.77·d/T² ≈ 5.77·0.55/0.64 ≈ 5 m/s².
        assert!(peak > 2.0, "peak slide accel {peak}");
    }

    #[test]
    fn bias_is_constant_within_a_trace() {
        // With noise disabled, stationary y-axis readings equal bias +
        // gravity leakage; on the ruler the leakage is tiny, so the y
        // readings should be almost constant.
        let m = motion(MotionProfile::ruler(), 7);
        let model = ImuModel {
            accel_noise_std: 0.0,
            accel_bias_std: 0.05,
            gyro_noise_std: 0.0,
            gyro_bias_std: 0.0,
            tremor_accel_std: 0.0,
        };
        let mut rng = SimRng::seed_from(8);
        let trace = sample_imu(&m, &model, 100.0, &mut rng).unwrap();
        let first = trace.accel[0].y;
        let spread = trace.accel[..100]
            .iter()
            .map(|a| (a.y - first).abs())
            .fold(0.0, f64::max);
        assert!(spread < 0.01, "stationary spread {spread}");
    }

    #[test]
    fn tremor_increases_noise() {
        let m = motion(MotionProfile::average_hand(), 9);
        let quiet_model = ImuModel::phone_grade();
        let shaky_model = ImuModel::phone_grade().with_tremor(0.3);
        let mut rng1 = SimRng::seed_from(10);
        let mut rng2 = SimRng::seed_from(10);
        let quiet = sample_imu(&m, &quiet_model, 100.0, &mut rng1).unwrap();
        let shaky = sample_imu(&m, &shaky_model, 100.0, &mut rng2).unwrap();
        let var = |t: &ImuTrace| {
            let mean: f64 = t.accel[..100].iter().map(|a| a.x).sum::<f64>() / 100.0;
            t.accel[..100]
                .iter()
                .map(|a| (a.x - mean).powi(2))
                .sum::<f64>()
                / 100.0
        };
        assert!(var(&shaky) > 5.0 * var(&quiet));
    }

    #[test]
    fn gyro_tracks_yaw_wobble() {
        let m = motion(MotionProfile::shaky_hand(), 11);
        let model = ImuModel {
            gyro_noise_std: 0.0,
            gyro_bias_std: 0.0,
            ..ImuModel::phone_grade()
        };
        let mut rng = SimRng::seed_from(12);
        let trace = sample_imu(&m, &model, 100.0, &mut rng).unwrap();
        // Integrate gyro z over the whole trace and compare against the
        // yaw wobble's net change.
        let dt = 1.0 / 100.0;
        let integrated: f64 = trace.gyro.iter().map(|g| g.z * dt).sum();
        let expected = m.yaw.value(trace.accel.len() as f64 * dt) - m.yaw.value(0.0);
        assert!(
            (integrated - expected).abs() < 0.02,
            "{integrated} vs {expected}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let m = motion(MotionProfile::average_hand(), 13);
        let mut r1 = SimRng::seed_from(14);
        let mut r2 = SimRng::seed_from(14);
        let a = sample_imu(&m, &ImuModel::phone_grade(), 100.0, &mut r1).unwrap();
        let b = sample_imu(&m, &ImuModel::phone_grade(), 100.0, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let m = motion(MotionProfile::ruler(), 15);
        let mut rng = SimRng::seed_from(16);
        assert!(sample_imu(&m, &ImuModel::phone_grade(), 0.0, &mut rng).is_err());
        let mut bad = ImuModel::phone_grade();
        bad.accel_noise_std = -1.0;
        assert!(sample_imu(&m, &bad, 100.0, &mut rng).is_err());
        assert!(bad.validate().is_err());
    }
}
