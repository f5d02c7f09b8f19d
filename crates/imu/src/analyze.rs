//! Session-level inertial analysis.
//!
//! Chains the whole of paper Section V: gravity removal → SMA smoothing →
//! power segmentation (y-axis for slides, z-axis for stature changes) →
//! drift-corrected velocity → displacement → z-rotation measurement.
//! The output is everything the localization stage needs from the IMU:
//! per-slide windows, signed distances `D′`, rotation for the quality
//! gate, and the stature change `H` of the 3D protocol.

use crate::displacement::{segment_kinematics, DisplacementScratch};
use crate::error::check_rate;
use crate::preprocess::preprocess_into;
use crate::rotation::max_rotation_deg_with;
use crate::segment::{segment_movements_into, Segment, SegmentConfig};
use crate::ImuError;
use hyperear_geom::Vec3;

/// Configuration for [`analyze_session`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Samples of the initial stationary window used to estimate gravity.
    pub gravity_window: usize,
    /// SMA smoothing window (paper: 4 samples at 100 Hz).
    pub sma_window: usize,
    /// Movement segmentation parameters.
    pub segmenter: SegmentConfig,
    /// Whether to apply the Eq. 4 linear drift correction (true in the
    /// paper; false only for the ablation experiment).
    pub drift_correction: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            gravity_window: 60,
            sma_window: 4,
            segmenter: SegmentConfig::default(),
            drift_correction: true,
        }
    }
}

impl hyperear_util::ToJson for SessionConfig {
    fn to_json(&self) -> hyperear_util::Json {
        use hyperear_util::Json;
        Json::obj(vec![
            ("gravity_window", Json::Number(self.gravity_window as f64)),
            ("sma_window", Json::Number(self.sma_window as f64)),
            ("segmenter", self.segmenter.to_json()),
            ("drift_correction", Json::Bool(self.drift_correction)),
        ])
    }
}

impl hyperear_util::FromJson for SessionConfig {
    fn from_json(json: &hyperear_util::Json) -> Result<Self, hyperear_util::JsonError> {
        Ok(SessionConfig {
            gravity_window: json.field("gravity_window")?,
            sma_window: json.field("sma_window")?,
            segmenter: json.field("segmenter")?,
            drift_correction: json.field("drift_correction")?,
        })
    }
}

/// One detected and measured slide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlideEstimate {
    /// The slide's sample window.
    pub segment: Segment,
    /// Start time, seconds.
    pub start_time: f64,
    /// End time, seconds.
    pub end_time: f64,
    /// Signed displacement along the phone's y (slide) axis, metres.
    pub distance: f64,
    /// Maximum z-rotation over the slide, degrees.
    pub rotation_deg: f64,
    /// Raw integrated y-velocity at the slide end before the Eq. 4
    /// correction, m/s. The zero-velocity assumption says this should be
    /// ~0; a large residual flags a drift-corrupted slide for the
    /// confidence scoring downstream.
    pub end_velocity_residual: f64,
}

/// One detected vertical stature change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatureChange {
    /// The movement's sample window.
    pub segment: Segment,
    /// Signed vertical displacement, metres (negative = lowered).
    pub height_change: f64,
}

/// The full inertial summary of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionAnalysis {
    /// Gravity vector estimated from the calibration window, m/s².
    pub gravity: Vec3,
    /// Detected slides in time order.
    pub slides: Vec<SlideEstimate>,
    /// Detected stature changes in time order.
    pub stature_changes: Vec<StatureChange>,
}

/// Analyzes raw accelerometer and gyroscope traces into slides and
/// stature changes.
///
/// Movements are classified by dominant axis: a segment found on the
/// y-axis whose y-displacement dominates is a slide; a z-axis segment
/// whose vertical displacement dominates is a stature change. Segments
/// detected on both axes (a sloppy diagonal movement) are assigned to the
/// axis with the larger displacement.
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] for traces shorter than the
/// gravity window and propagates component errors.
pub fn analyze_session(
    accel: &[Vec3],
    gyro: &[Vec3],
    sample_rate: f64,
    config: &SessionConfig,
) -> Result<SessionAnalysis, ImuError> {
    let mut scratch = AnalyzeScratch::new();
    let mut out = SessionAnalysis {
        gravity: Vec3::ZERO,
        slides: Vec::new(),
        stature_changes: Vec::new(),
    };
    analyze_session_with(accel, gyro, sample_rate, config, &mut scratch, &mut out)?;
    Ok(out)
}

/// Reusable work buffers for [`analyze_session_with`]: every intermediate
/// trace of the inertial chain, so a warm session engine re-analyzes
/// without heap allocation.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeScratch {
    linear: Vec<Vec3>,
    axis_y: Vec<f64>,
    axis_z: Vec<f64>,
    gyro_z: Vec<f64>,
    power: Vec<f64>,
    segments_y: Vec<Segment>,
    segments_z: Vec<Segment>,
    displacement: DisplacementScratch,
    angle: Vec<f64>,
}

impl AnalyzeScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Allocation-free form of [`analyze_session`]: intermediates live in
/// `scratch` and the result is written into `out` (whose `slides` and
/// `stature_changes` vectors are cleared and reused). Results are
/// identical to [`analyze_session`].
///
/// # Errors
///
/// Same conditions as [`analyze_session`].
pub fn analyze_session_with(
    accel: &[Vec3],
    gyro: &[Vec3],
    sample_rate: f64,
    config: &SessionConfig,
    scratch: &mut AnalyzeScratch,
    out: &mut SessionAnalysis,
) -> Result<(), ImuError> {
    check_rate(sample_rate)?;
    if accel.len() != gyro.len() {
        return Err(ImuError::invalid(
            "accel/gyro",
            format!("length mismatch: {} vs {}", accel.len(), gyro.len()),
        ));
    }
    let gravity = preprocess_into(
        accel,
        config.gravity_window,
        config.sma_window,
        &mut scratch.linear,
    )?;
    scratch.axis_y.clear();
    scratch.axis_y.extend(scratch.linear.iter().map(|v| v.y));
    scratch.axis_z.clear();
    scratch.axis_z.extend(scratch.linear.iter().map(|v| v.z));
    scratch.gyro_z.clear();
    scratch.gyro_z.extend(gyro.iter().map(|v| v.z));

    segment_movements_into(
        &scratch.axis_y,
        &config.segmenter,
        &mut scratch.power,
        &mut scratch.segments_y,
    )?;
    segment_movements_into(
        &scratch.axis_z,
        &config.segmenter,
        &mut scratch.power,
        &mut scratch.segments_z,
    )?;

    out.gravity = gravity;
    out.slides.clear();
    out.stature_changes.clear();

    for si in 0..scratch.segments_y.len() {
        let seg = scratch.segments_y[si];
        let kin_y = segment_kinematics(
            &scratch.axis_y[seg.start..seg.end],
            sample_rate,
            config.drift_correction,
            &mut scratch.displacement,
        )?;
        let kin_z = segment_kinematics(
            &scratch.axis_z[seg.start..seg.end],
            sample_rate,
            config.drift_correction,
            &mut scratch.displacement,
        )?;
        if kin_y.distance.abs() < kin_z.distance.abs() {
            continue; // dominated by vertical motion; the z pass owns it
        }
        let rotation = max_rotation_deg_with(
            &scratch.gyro_z[seg.start..seg.end],
            sample_rate,
            &mut scratch.angle,
        )?;
        out.slides.push(SlideEstimate {
            segment: seg,
            start_time: seg.start as f64 / sample_rate,
            end_time: seg.end as f64 / sample_rate,
            distance: kin_y.distance,
            rotation_deg: rotation,
            end_velocity_residual: kin_y.end_velocity_residual,
        });
    }
    for si in 0..scratch.segments_z.len() {
        let seg = scratch.segments_z[si];
        let kin_z = segment_kinematics(
            &scratch.axis_z[seg.start..seg.end],
            sample_rate,
            config.drift_correction,
            &mut scratch.displacement,
        )?;
        let kin_y = segment_kinematics(
            &scratch.axis_y[seg.start..seg.end],
            sample_rate,
            config.drift_correction,
            &mut scratch.displacement,
        )?;
        if kin_z.distance.abs() <= kin_y.distance.abs() {
            continue; // this is a slide, already handled above
        }
        out.stature_changes.push(StatureChange {
            segment: seg,
            height_change: kin_z.distance,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: f64 = 9.806_65;
    const FS: f64 = 100.0;

    fn min_jerk_accel(dist: f64, n: usize) -> Vec<f64> {
        let duration = (n - 1) as f64 / FS;
        (0..n)
            .map(|i| {
                let tau = i as f64 / (n - 1) as f64;
                let a = 60.0 * tau - 180.0 * tau * tau + 120.0 * tau * tau * tau;
                a * dist / (duration * duration)
            })
            .collect()
    }

    /// Builds a raw trace: hold, slide(s) on y, optional z drop.
    fn build_trace(slide_dists: &[f64], drop: Option<f64>) -> (Vec<Vec3>, Vec<Vec3>) {
        let mut accel = vec![Vec3::new(0.0, 0.0, -G); 150];
        for &d in slide_dists {
            let profile = min_jerk_accel(d, 81);
            for &a in &profile {
                accel.push(Vec3::new(0.0, a, -G));
            }
            accel.extend(std::iter::repeat_n(Vec3::new(0.0, 0.0, -G), 70));
        }
        if let Some(h) = drop {
            let profile = min_jerk_accel(-h, 101);
            for &a in &profile {
                accel.push(Vec3::new(0.0, 0.0, a - G));
            }
            accel.extend(std::iter::repeat_n(Vec3::new(0.0, 0.0, -G), 70));
        }
        let gyro = vec![Vec3::ZERO; accel.len()];
        (accel, gyro)
    }

    #[test]
    fn single_slide_measured_accurately() {
        let (accel, gyro) = build_trace(&[0.55], None);
        let session = analyze_session(&accel, &gyro, FS, &SessionConfig::default()).unwrap();
        assert_eq!(session.slides.len(), 1);
        let s = &session.slides[0];
        assert!((s.distance - 0.55).abs() < 0.01, "distance {}", s.distance);
        assert!(s.rotation_deg < 0.1);
        assert!(session.stature_changes.is_empty());
        assert!((session.gravity.z + G).abs() < 1e-9);
    }

    #[test]
    fn back_and_forth_slides_have_signs() {
        let (accel, gyro) = build_trace(&[0.5, -0.5, 0.5], None);
        let session = analyze_session(&accel, &gyro, FS, &SessionConfig::default()).unwrap();
        assert_eq!(session.slides.len(), 3);
        assert!(session.slides[0].distance > 0.4);
        assert!(session.slides[1].distance < -0.4);
        assert!(session.slides[2].distance > 0.4);
        // Time ordering.
        assert!(session.slides[0].end_time <= session.slides[1].start_time);
    }

    #[test]
    fn stature_change_detected_on_z() {
        let (accel, gyro) = build_trace(&[0.55], Some(0.4));
        let session = analyze_session(&accel, &gyro, FS, &SessionConfig::default()).unwrap();
        assert_eq!(session.slides.len(), 1);
        assert_eq!(session.stature_changes.len(), 1);
        let h = session.stature_changes[0].height_change;
        assert!((h + 0.4).abs() < 0.01, "height change {h}");
    }

    #[test]
    fn rotation_is_reported_per_slide() {
        let (accel, mut gyro) = build_trace(&[0.55], None);
        // Inject a yaw wobble during the slide (samples 150..231).
        let amp = 25f64.to_radians();
        let w = std::f64::consts::TAU * 1.0;
        for (i, g) in gyro.iter_mut().enumerate().take(231).skip(150) {
            let t = (i - 150) as f64 / FS;
            g.z = amp * w * (w * t).cos();
        }
        let session = analyze_session(&accel, &gyro, FS, &SessionConfig::default()).unwrap();
        assert_eq!(session.slides.len(), 1);
        assert!(
            session.slides[0].rotation_deg > 15.0,
            "rotation {}",
            session.slides[0].rotation_deg
        );
    }

    #[test]
    fn mismatched_traces_rejected() {
        let (accel, _) = build_trace(&[0.5], None);
        let gyro = vec![Vec3::ZERO; 10];
        assert!(analyze_session(&accel, &gyro, FS, &SessionConfig::default()).is_err());
        assert!(analyze_session(
            &accel,
            &vec![Vec3::ZERO; accel.len()],
            0.0,
            &SessionConfig::default()
        )
        .is_err());
    }

    #[test]
    fn short_trace_rejected() {
        let accel = vec![Vec3::new(0.0, 0.0, -G); 10];
        let gyro = vec![Vec3::ZERO; 10];
        assert!(analyze_session(&accel, &gyro, FS, &SessionConfig::default()).is_err());
    }

    #[test]
    fn quiet_session_has_no_movements() {
        let accel = vec![Vec3::new(0.0, 0.0, -G); 400];
        let gyro = vec![Vec3::ZERO; 400];
        let session = analyze_session(&accel, &gyro, FS, &SessionConfig::default()).unwrap();
        assert!(session.slides.is_empty());
        assert!(session.stature_changes.is_empty());
    }

    #[test]
    fn with_variant_matches_allocating_form() {
        let (mut accel, gyro) = build_trace(&[0.5, -0.5], Some(0.4));
        // A little accelerometer bias so the residual field is non-zero.
        for a in accel.iter_mut().skip(150) {
            a.y += 0.05;
        }
        let cfg = SessionConfig::default();
        let reference = analyze_session(&accel, &gyro, FS, &cfg).unwrap();
        let mut scratch = AnalyzeScratch::new();
        let mut out = SessionAnalysis {
            gravity: Vec3::new(9.0, 9.0, 9.0),
            slides: Vec::new(),
            stature_changes: Vec::new(),
        };
        for _ in 0..2 {
            analyze_session_with(&accel, &gyro, FS, &cfg, &mut scratch, &mut out).unwrap();
            assert_eq!(out, reference); // bit-identical, including residuals
        }
        assert!(!reference.slides.is_empty());
        for s in &reference.slides {
            assert!(
                s.end_velocity_residual.abs() > 1e-4,
                "bias should leave a visible residual, got {}",
                s.end_velocity_residual
            );
        }
    }

    #[test]
    fn works_on_simulated_recording() {
        // End-to-end against the full simulator with ruler motion.
        use hyperear_sim::phone::PhoneModel;
        use hyperear_sim::scenario::ScenarioBuilder;
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(hyperear_sim::environment::Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(5)
            .render()
            .unwrap();
        let session = analyze_session(
            &rec.imu.accel,
            &rec.imu.gyro,
            rec.imu.sample_rate,
            &SessionConfig::default(),
        )
        .unwrap();
        assert_eq!(session.slides.len(), 2, "slides: {:?}", session.slides);
        for (est, truth) in session.slides.iter().zip(&rec.truth.motion.slides) {
            let err = (est.distance - truth.distance).abs();
            assert!(
                err < 0.02,
                "estimated {} true {} (err {err})",
                est.distance,
                truth.distance
            );
        }
    }

    #[test]
    fn simulated_two_stature_protocol() {
        use hyperear_sim::phone::PhoneModel;
        use hyperear_sim::scenario::ScenarioBuilder;
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(hyperear_sim::environment::Environment::anechoic())
            .speaker_range(3.0)
            .speaker_stature(0.5)
            .slides(2)
            .slides_low(2)
            .stature_drop(0.4)
            .seed(6)
            .render()
            .unwrap();
        let session = analyze_session(
            &rec.imu.accel,
            &rec.imu.gyro,
            rec.imu.sample_rate,
            &SessionConfig::default(),
        )
        .unwrap();
        assert_eq!(session.slides.len(), 4);
        assert_eq!(session.stature_changes.len(), 1);
        let h = session.stature_changes[0].height_change;
        assert!((h + 0.4).abs() < 0.03, "stature change {h}");
    }
}
