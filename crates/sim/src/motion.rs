//! Phone motion: minimum-jerk slides with hand perturbations.
//!
//! Section V of the paper assumes slides that start and end at rest —
//! that zero-velocity constraint is what the linear drift correction
//! exploits. Human point-to-point movements are well described by
//! minimum-jerk profiles (smooth position, bell-shaped velocity, zero
//! velocity/acceleration at both ends), so slides are generated from that
//! family and perturbed per volunteer:
//!
//! - **lateral sway** — slow sinusoidal deviation of the true path from
//!   the slide line (true displacement error),
//! - **tilt wander** — slow roll/pitch drift that leaks gravity into the
//!   accelerometer's horizontal axes (the dominant integration error),
//! - **z-rotation jitter** — yaw wobble that the paper's quality gate
//!   rejects above 20°,
//! - **tremor** — high-frequency sensor-domain noise (modelled in
//!   [`crate::imu`], not as true motion).
//!
//! The ruler mode of Section VII-B zeroes all perturbations.

use crate::rng::SimRng;
use crate::SimError;
use hyperear_geom::{Vec2, Vec3};

/// Normalized minimum-jerk progress at normalized time `tau ∈ [0, 1]`.
///
/// Returns `(s, v, a)`: position fraction, velocity and acceleration in
/// normalized units (multiply by `distance`, `distance/T`, `distance/T²`).
///
/// # Example
///
/// ```
/// let (s, v, a) = hyperear_sim::motion::min_jerk_progress(0.5);
/// assert!((s - 0.5).abs() < 1e-12);     // halfway at mid-time
/// assert!(v > 1.0);                      // peak velocity 1.875
/// assert!(a.abs() < 1e-9);               // zero acceleration at mid-time
/// ```
#[must_use]
pub fn min_jerk_progress(tau: f64) -> (f64, f64, f64) {
    let t = tau.clamp(0.0, 1.0);
    let t2 = t * t;
    let t3 = t2 * t;
    let t4 = t3 * t;
    let t5 = t4 * t;
    let s = 10.0 * t3 - 15.0 * t4 + 6.0 * t5;
    let v = 30.0 * t2 - 60.0 * t3 + 30.0 * t4;
    let a = 60.0 * t - 180.0 * t2 + 120.0 * t3;
    (s, v, a)
}

/// One planned slide (or vertical stature change) along an axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlidePlan {
    /// Start time within the session, seconds.
    pub start_time: f64,
    /// Movement duration, seconds.
    pub duration: f64,
    /// Signed displacement along the slide axis, metres (negative slides
    /// move backwards along the axis).
    pub distance: f64,
}

impl SlidePlan {
    /// End time of the movement.
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.start_time + self.duration
    }

    /// Signed axis displacement, velocity and acceleration at time `t`.
    #[must_use]
    pub fn kinematics(&self, t: f64) -> (f64, f64, f64) {
        if t <= self.start_time {
            return (0.0, 0.0, 0.0);
        }
        if t >= self.end_time() {
            return (self.distance, 0.0, 0.0);
        }
        let tau = (t - self.start_time) / self.duration;
        let (s, v, a) = min_jerk_progress(tau);
        (
            s * self.distance,
            v * self.distance / self.duration,
            a * self.distance / (self.duration * self.duration),
        )
    }
}

/// Smooth pseudo-random perturbation built from a few sinusoids.
#[derive(Debug, Clone, PartialEq)]
pub struct Wobble {
    components: Vec<(f64, f64, f64)>, // (amplitude, freq_hz, phase)
}

impl Wobble {
    /// A wobble with `n` components, amplitudes summing to roughly
    /// `amplitude`, spread over `[f_lo, f_hi]` Hz.
    #[must_use]
    pub(crate) fn random(amplitude: f64, f_lo: f64, f_hi: f64, n: usize, rng: &mut SimRng) -> Self {
        let comps = (0..n)
            .map(|_| {
                (
                    amplitude / n as f64 * rng.uniform_in(0.5, 1.5),
                    rng.uniform_in(f_lo, f_hi),
                    rng.uniform_in(0.0, std::f64::consts::TAU),
                )
            })
            .collect();
        Wobble { components: comps }
    }

    /// Value at time `t`.
    #[must_use]
    pub(crate) fn value(&self, t: f64) -> f64 {
        self.components
            .iter()
            .map(|&(a, f, p)| a * (std::f64::consts::TAU * f * t + p).sin())
            .sum()
    }

    /// Second derivative at time `t` (for true-acceleration rendering).
    #[must_use]
    pub(crate) fn accel(&self, t: f64) -> f64 {
        self.components
            .iter()
            .map(|&(a, f, p)| {
                let w = std::f64::consts::TAU * f;
                -a * w * w * (w * t + p).sin()
            })
            .sum()
    }
}

/// Per-volunteer motion perturbation magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionProfile {
    /// RMS amplitude of lateral path sway, metres.
    pub sway_m: f64,
    /// RMS roll/pitch wander, degrees (leaks gravity into the horizontal
    /// accelerometer axes).
    pub tilt_deg: f64,
    /// RMS z-rotation (yaw) wander, degrees (the quality gate rejects
    /// slides beyond 20°).
    pub z_rotation_deg: f64,
    /// Fractional jitter of the commanded slide distance.
    pub distance_jitter: f64,
    /// Fractional jitter of the commanded slide duration.
    pub duration_jitter: f64,
}

impl MotionProfile {
    /// The level slide ruler of Section VII-B: essentially perfect motion.
    #[must_use]
    pub fn ruler() -> Self {
        MotionProfile {
            sway_m: 0.000_2,
            tilt_deg: 0.02,
            z_rotation_deg: 0.02,
            distance_jitter: 0.002,
            duration_jitter: 0.01,
        }
    }

    /// A steady volunteer hand.
    #[must_use]
    pub(crate) fn steady_hand() -> Self {
        MotionProfile {
            sway_m: 0.004,
            tilt_deg: 0.35,
            z_rotation_deg: 3.0,
            distance_jitter: 0.04,
            duration_jitter: 0.10,
        }
    }

    /// An average volunteer hand.
    #[must_use]
    pub fn average_hand() -> Self {
        MotionProfile {
            sway_m: 0.007,
            tilt_deg: 0.55,
            z_rotation_deg: 6.0,
            distance_jitter: 0.07,
            duration_jitter: 0.15,
        }
    }

    /// A shaky volunteer hand (some slides will fail the quality gate).
    #[must_use]
    pub(crate) fn shaky_hand() -> Self {
        MotionProfile {
            sway_m: 0.012,
            tilt_deg: 0.9,
            z_rotation_deg: 12.0,
            distance_jitter: 0.12,
            duration_jitter: 0.22,
        }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for negative magnitudes.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("sway_m", self.sway_m),
            ("tilt_deg", self.tilt_deg),
            ("z_rotation_deg", self.z_rotation_deg),
            ("distance_jitter", self.distance_jitter),
            ("duration_jitter", self.duration_jitter),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(SimError::invalid(
                    "profile",
                    format!("{name} must be non-negative and finite, got {v}"),
                ));
            }
        }
        Ok(())
    }
}

/// The complete motion of the phone over a session: holds, slides and
/// stature changes along a fixed horizontal axis, plus smooth
/// perturbations.
///
/// Positions refer to the phone's **Mic1**; Mic2 sits `mic_offset` metres
/// further along the slide axis (the phone's y-axis is aligned with the
/// slide direction after direction finding).
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneMotion {
    /// Mic1 position at `t = 0`, world frame, metres.
    pub origin: Vec3,
    /// Horizontal unit vector of the slide axis.
    pub axis: Vec2,
    /// Mic2 offset along the axis, metres.
    pub mic_offset: f64,
    /// Horizontal slides along the axis.
    pub slides: Vec<SlidePlan>,
    /// Vertical stature changes (displacement applied along −z when
    /// `distance` is positive: the user lowers the phone).
    pub stature_changes: Vec<SlidePlan>,
    /// Total session duration, seconds.
    pub total_duration: f64,
    /// Lateral sway perpendicular to the axis (horizontal).
    pub sway_perp: Wobble,
    /// Vertical sway.
    pub sway_vert: Wobble,
    /// Roll tilt wander, radians.
    pub tilt_roll: Wobble,
    /// Pitch tilt wander, radians.
    pub tilt_pitch: Wobble,
    /// Yaw (z-rotation) wander, radians.
    pub yaw: Wobble,
}

impl PhoneMotion {
    /// Signed axis displacement (and derivatives) accumulated over all
    /// horizontal slides at time `t`.
    #[must_use]
    pub(crate) fn axis_kinematics(&self, t: f64) -> (f64, f64, f64) {
        self.slides.iter().fold((0.0, 0.0, 0.0), |acc, s| {
            let k = s.kinematics(t);
            (acc.0 + k.0, acc.1 + k.1, acc.2 + k.2)
        })
    }

    /// Vertical displacement (and derivatives) from stature changes at
    /// time `t` (negative = lowered).
    #[must_use]
    pub(crate) fn vertical_kinematics(&self, t: f64) -> (f64, f64, f64) {
        self.stature_changes.iter().fold((0.0, 0.0, 0.0), |acc, s| {
            let k = s.kinematics(t);
            (acc.0 - k.0, acc.1 - k.1, acc.2 - k.2)
        })
    }

    /// Mic1 world position at time `t`, including sway.
    #[must_use]
    pub fn mic1_position(&self, t: f64) -> Vec3 {
        let (d, _, _) = self.axis_kinematics(t);
        let (z, _, _) = self.vertical_kinematics(t);
        let perp = self.axis.perp();
        let sway = self.sway_perp.value(t);
        Vec3::new(
            self.origin.x + self.axis.x * d + perp.x * sway,
            self.origin.y + self.axis.y * d + perp.y * sway,
            self.origin.z + z + self.sway_vert.value(t),
        )
    }

    /// Mic2 world position at time `t`.
    #[must_use]
    pub(crate) fn mic2_position(&self, t: f64) -> Vec3 {
        let m1 = self.mic1_position(t);
        // Yaw wobble swings mic2 slightly off the axis.
        let yaw = self.yaw.value(t);
        let dir = self.axis.rotated(yaw);
        Vec3::new(
            m1.x + dir.x * self.mic_offset,
            m1.y + dir.y * self.mic_offset,
            m1.z,
        )
    }

    /// World position at time `t` of a point rigidly mounted at
    /// device-frame `offset` from Mic1.
    ///
    /// Device +y is the slide axis (yaw wobble included — the same
    /// swinging [`PhoneMotion::mic2_position`] models) and device +x its
    /// counter-clockwise horizontal perpendicular, which the scenario
    /// geometry points toward the speaker side. Offsets are treated as
    /// horizontal (tilt wander moves the IMU, not the mic heights), so
    /// `device_position(t, (0, 0))` is exactly `mic1_position(t)` and
    /// `device_position(t, (0, mic_offset))` exactly `mic2_position(t)`.
    #[must_use]
    pub(crate) fn device_position(&self, t: f64, offset: Vec2) -> Vec3 {
        let m1 = self.mic1_position(t);
        let yaw = self.yaw.value(t);
        let dir = self.axis.rotated(yaw);
        let perp = dir.perp();
        Vec3::new(
            m1.x + dir.x * offset.y + perp.x * offset.x,
            m1.y + dir.y * offset.y + perp.y * offset.x,
            m1.z,
        )
    }

    /// True linear acceleration of the phone in the *phone frame* at time
    /// `t` (x = lateral, y = slide axis, z = vertical), excluding gravity
    /// and sensor error.
    #[must_use]
    pub(crate) fn linear_acceleration_phone(&self, t: f64) -> Vec3 {
        let (_, _, a_axis) = self.axis_kinematics(t);
        let (_, _, a_vert) = self.vertical_kinematics(t);
        Vec3::new(
            self.sway_perp.accel(t),
            a_axis,
            a_vert + self.sway_vert.accel(t),
        )
    }

    /// Roll and pitch tilt at time `t`, radians.
    #[must_use]
    pub(crate) fn tilt(&self, t: f64) -> (f64, f64) {
        (self.tilt_roll.value(t), self.tilt_pitch.value(t))
    }

    /// Angular velocity in the phone frame at time `t`, rad/s, obtained by
    /// central differencing the tilt/yaw wobbles.
    #[must_use]
    pub(crate) fn angular_velocity(&self, t: f64) -> Vec3 {
        let h = 1e-4;
        let d = |w: &Wobble| (w.value(t + h) - w.value(t - h)) / (2.0 * h);
        Vec3::new(d(&self.tilt_roll), d(&self.tilt_pitch), d(&self.yaw))
    }
}

/// Builds a session's [`PhoneMotion`] from a plan and a volunteer profile.
#[derive(Debug, Clone)]
pub(crate) struct MotionBuilder {
    origin: Vec3,
    axis: Vec2,
    mic_offset: f64,
    profile: MotionProfile,
    hold: f64,
    slide_distance: f64,
    slide_duration: f64,
}

impl MotionBuilder {
    /// Creates a builder for a phone whose Mic1 starts at `origin`,
    /// sliding along the horizontal unit direction `axis`, with Mic2
    /// `mic_offset` metres further along the axis.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a non-unit axis or
    /// non-positive mic offset.
    pub(crate) fn new(origin: Vec3, axis: Vec2, mic_offset: f64) -> Result<Self, SimError> {
        if (axis.norm() - 1.0).abs() > 1e-6 {
            return Err(SimError::invalid(
                "axis",
                format!("slide axis must be a unit vector, |axis| = {}", axis.norm()),
            ));
        }
        if !(mic_offset > 0.0 && mic_offset.is_finite()) {
            return Err(SimError::invalid(
                "mic_offset",
                format!("must be positive, got {mic_offset}"),
            ));
        }
        Ok(MotionBuilder {
            origin,
            axis,
            mic_offset,
            profile: MotionProfile::ruler(),
            hold: 1.2,
            slide_distance: 0.55,
            slide_duration: 0.8,
        })
    }

    /// Sets the volunteer/ruler motion profile.
    #[must_use]
    pub(crate) fn profile(mut self, profile: MotionProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the initial stationary hold (the SFO calibration window).
    #[must_use]
    pub(crate) fn hold_duration(mut self, seconds: f64) -> Self {
        self.hold = seconds;
        self
    }

    /// Sets the commanded slide distance, metres.
    #[must_use]
    pub(crate) fn slide_distance(mut self, metres: f64) -> Self {
        self.slide_distance = metres;
        self
    }

    /// Sets the commanded slide duration, seconds.
    #[must_use]
    pub(crate) fn slide_duration(mut self, seconds: f64) -> Self {
        self.slide_duration = seconds;
        self
    }

    /// Builds the motion: an initial hold, then `slides` back-and-forth
    /// movements (odd slides return to the start), an optional stature
    /// change of `stature_drop` metres, then the same slide pattern at the
    /// second stature if `slides_low > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for non-positive durations,
    /// distances, or a degenerate plan (no slides at all).
    pub(crate) fn build(
        &self,
        slides: usize,
        stature_drop: f64,
        slides_low: usize,
        rng: &mut SimRng,
    ) -> Result<PhoneMotion, SimError> {
        self.profile.validate()?;
        if slides == 0 && slides_low == 0 {
            return Err(SimError::invalid(
                "slides",
                "plan must contain at least one slide",
            ));
        }
        if self.slide_distance <= 0.0 || self.slide_duration <= 0.0 || self.hold < 0.2 {
            return Err(SimError::invalid(
                "slide_distance/slide_duration/hold",
                "distances and durations must be positive (hold ≥ 0.2 s)",
            ));
        }
        if slides_low > 0 && stature_drop <= 0.0 {
            return Err(SimError::invalid(
                "stature_drop",
                "two-stature plans need a positive stature change",
            ));
        }
        let p = &self.profile;
        let gap = 0.7; // stationary gap between movements, seconds
        let mut t = self.hold;
        let mut slide_plans = Vec::new();
        let mut stature_plans = Vec::new();
        let mut direction = 1.0;
        let mut make_slides = |count: usize, t: &mut f64, rng: &mut SimRng| {
            for _ in 0..count {
                let dist =
                    self.slide_distance * (1.0 + rng.gaussian(0.0, p.distance_jitter)) * direction;
                let dur =
                    (self.slide_duration * (1.0 + rng.gaussian(0.0, p.duration_jitter))).max(0.3);
                slide_plans.push(SlidePlan {
                    start_time: *t,
                    duration: dur,
                    distance: dist,
                });
                *t += dur + gap;
                direction = -direction;
            }
        };
        make_slides(slides, &mut t, rng);
        if slides_low > 0 {
            let drop_dur = 1.0;
            stature_plans.push(SlidePlan {
                start_time: t,
                duration: drop_dur,
                distance: stature_drop,
            });
            t += drop_dur + gap;
            // Second calibration hold at the new stature.
            t += self.hold * 0.5;
            make_slides(slides_low, &mut t, rng);
        }
        let total = t + 0.5;
        Ok(PhoneMotion {
            origin: self.origin,
            axis: self.axis,
            mic_offset: self.mic_offset,
            slides: slide_plans,
            stature_changes: stature_plans,
            total_duration: total,
            sway_perp: Wobble::random(p.sway_m, 0.3, 1.2, 3, rng),
            sway_vert: Wobble::random(p.sway_m * 0.7, 0.3, 1.2, 3, rng),
            tilt_roll: Wobble::random(p.tilt_deg.to_radians(), 0.2, 1.0, 3, rng),
            tilt_pitch: Wobble::random(p.tilt_deg.to_radians(), 0.2, 1.0, 3, rng),
            yaw: Wobble::random(p.z_rotation_deg.to_radians(), 0.15, 0.8, 3, rng),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> MotionBuilder {
        MotionBuilder::new(Vec3::new(2.0, 3.0, 1.3), Vec2::new(1.0, 0.0), 0.1366).unwrap()
    }

    #[test]
    fn min_jerk_boundary_conditions() {
        let (s0, v0, a0) = min_jerk_progress(0.0);
        let (s1, v1, a1) = min_jerk_progress(1.0);
        assert_eq!((s0, v0, a0), (0.0, 0.0, 0.0));
        assert!((s1 - 1.0).abs() < 1e-12);
        assert!(v1.abs() < 1e-12);
        assert!(a1.abs() < 1e-9);
    }

    #[test]
    fn min_jerk_velocity_peaks_mid_motion() {
        let (_, v_mid, _) = min_jerk_progress(0.5);
        assert!((v_mid - 1.875).abs() < 1e-12);
        assert!(min_jerk_progress(0.2).1 < v_mid);
        assert!(min_jerk_progress(0.8).1 < v_mid);
    }

    #[test]
    fn min_jerk_monotonic_position() {
        let mut prev = 0.0;
        for i in 1..=100 {
            let (s, _, _) = min_jerk_progress(i as f64 / 100.0);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn slide_kinematics_at_rest_outside_window() {
        let s = SlidePlan {
            start_time: 1.0,
            duration: 0.8,
            distance: 0.5,
        };
        assert_eq!(s.kinematics(0.5), (0.0, 0.0, 0.0));
        assert_eq!(s.kinematics(2.5), (0.5, 0.0, 0.0));
        let (d, v, _) = s.kinematics(1.4);
        assert!((d - 0.25).abs() < 1e-12);
        assert!(v > 0.0);
    }

    #[test]
    fn ruler_motion_is_nearly_ideal() {
        let mut rng = SimRng::seed_from(1);
        let motion = builder().build(2, 0.0, 0, &mut rng).unwrap();
        assert_eq!(motion.slides.len(), 2);
        // Back-and-forth: second slide reverses.
        assert!(motion.slides[0].distance > 0.0);
        assert!(motion.slides[1].distance < 0.0);
        // Sway stays sub-millimetre on the ruler.
        for k in 0..50 {
            let t = motion.total_duration * k as f64 / 50.0;
            assert!(motion.sway_perp.value(t).abs() < 0.002);
        }
    }

    #[test]
    fn positions_move_along_axis() {
        let mut rng = SimRng::seed_from(2);
        let motion = builder().build(1, 0.0, 0, &mut rng).unwrap();
        let before = motion.mic1_position(0.1);
        let slide = motion.slides[0];
        let after = motion.mic1_position(slide.end_time() + 0.1);
        let moved = after - before;
        assert!((moved.x - slide.distance).abs() < 0.005, "moved {moved:?}");
        assert!(moved.y.abs() < 0.005);
        assert!(moved.z.abs() < 0.005);
        // Mic2 stays mic_offset along the axis.
        let m2 = motion.mic2_position(0.1);
        assert!((m2.x - before.x - 0.1366).abs() < 1e-3);
    }

    #[test]
    fn two_stature_plan_drops_height() {
        let mut rng = SimRng::seed_from(3);
        let motion = builder().build(2, 0.4, 2, &mut rng).unwrap();
        assert_eq!(motion.slides.len(), 4);
        assert_eq!(motion.stature_changes.len(), 1);
        let sc = motion.stature_changes[0];
        let before = motion.mic1_position(sc.start_time - 0.1).z;
        let after = motion.mic1_position(sc.end_time() + 0.1).z;
        assert!((before - after - 0.4).abs() < 0.01, "dz {}", before - after);
    }

    #[test]
    fn acceleration_integrates_to_velocity() {
        // ∫a dt over a slide ≈ 0 (zero start/end velocity).
        let mut rng = SimRng::seed_from(4);
        let motion = builder().build(1, 0.0, 0, &mut rng).unwrap();
        let s = motion.slides[0];
        let steps = 4000;
        let dt = (s.duration + 0.4) / steps as f64;
        let mut v = 0.0;
        for i in 0..steps {
            let t = s.start_time - 0.2 + i as f64 * dt;
            v += motion.linear_acceleration_phone(t).y * dt;
        }
        assert!(v.abs() < 1e-3, "residual velocity {v}");
    }

    #[test]
    fn acceleration_integrates_to_distance() {
        let mut rng = SimRng::seed_from(5);
        let motion = builder().build(1, 0.0, 0, &mut rng).unwrap();
        let s = motion.slides[0];
        let steps = 8000;
        let dt = (s.duration + 0.4) / steps as f64;
        let (mut v, mut d) = (0.0, 0.0);
        for i in 0..steps {
            let t = s.start_time - 0.2 + i as f64 * dt;
            v += motion.linear_acceleration_phone(t).y * dt;
            d += v * dt;
        }
        assert!(
            (d - s.distance).abs() < 2e-3,
            "distance {d} vs {}",
            s.distance
        );
    }

    #[test]
    fn shaky_hand_has_more_yaw_than_ruler() {
        let mut rng1 = SimRng::seed_from(6);
        let ruler = builder().build(1, 0.0, 0, &mut rng1).unwrap();
        let mut rng2 = SimRng::seed_from(6);
        let shaky = builder()
            .profile(MotionProfile::shaky_hand())
            .build(1, 0.0, 0, &mut rng2)
            .unwrap();
        let s = shaky.slides[0];
        // The largest |yaw| over the slide, degrees.
        let max_yaw = |m: &PhoneMotion| {
            (0..=64)
                .map(|i| {
                    let t = s.start_time + (s.end_time() - s.start_time) * f64::from(i) / 64.0;
                    m.yaw.value(t).abs()
                })
                .fold(0.0f64, f64::max)
                .to_degrees()
        };
        let (yr, ys) = (max_yaw(&ruler), max_yaw(&shaky));
        assert!(ys > 10.0 * yr, "ruler {yr} shaky {ys}");
    }

    #[test]
    fn invalid_plans_rejected() {
        let mut rng = SimRng::seed_from(7);
        assert!(builder().build(0, 0.0, 0, &mut rng).is_err());
        assert!(builder().build(1, 0.0, 2, &mut rng).is_err()); // missing drop
        assert!(builder()
            .slide_distance(-0.5)
            .build(1, 0.0, 0, &mut rng)
            .is_err());
        assert!(MotionBuilder::new(Vec3::ZERO, Vec2::new(2.0, 0.0), 0.14).is_err());
        assert!(MotionBuilder::new(Vec3::ZERO, Vec2::new(1.0, 0.0), 0.0).is_err());
    }

    #[test]
    fn angular_velocity_matches_wobble_derivative() {
        let mut rng = SimRng::seed_from(8);
        let motion = builder()
            .profile(MotionProfile::average_hand())
            .build(1, 0.0, 0, &mut rng)
            .unwrap();
        let t = 1.0;
        let w = motion.angular_velocity(t);
        let h = 1e-5;
        let expected = (motion.yaw.value(t + h) - motion.yaw.value(t - h)) / (2.0 * h);
        assert!((w.z - expected).abs() < 1e-3);
    }

    #[test]
    fn profiles_validate() {
        assert!(MotionProfile::ruler().validate().is_ok());
        assert!(MotionProfile::steady_hand().validate().is_ok());
        assert!(MotionProfile::average_hand().validate().is_ok());
        assert!(MotionProfile::shaky_hand().validate().is_ok());
        let mut p = MotionProfile::ruler();
        p.sway_m = -1.0;
        assert!(p.validate().is_err());
    }
}
