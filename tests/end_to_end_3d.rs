//! End-to-end 3D (two-stature) localization: the full projected-location
//! protocol against ground truth, in hand.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;
use hyperear_sim::volunteer::roster;

#[test]
fn projected_location_recovers_floor_distance() {
    let user = &roster()[0];
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .speaker_stature(0.5)
        .volunteer(user)
        .slides(5)
        .slides_low(5)
        .stature_drop(0.4)
        .seed(3100)
        .render()
        .expect("render");
    let result = SessionEngine::new(HyperEarConfig::galaxy_s4())
        .expect("config")
        .run(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })
        .expect("session");

    // Both stature phases produced estimates.
    let upper = result.upper.expect("upper");
    let lower = result.lower.expect("lower");
    assert!((upper.range - rec.truth.slant_distance_upper).abs() < 0.4);
    assert!((lower.range - rec.truth.slant_distance_lower).abs() < 0.4);

    // The stature change was measured from the z-axis accelerometer.
    let h = result.stature_drop.expect("stature drop");
    assert!((h - 0.4).abs() < 0.05, "measured H = {h}");

    // The projection lands near the true floor distance.
    let projected = result.projected.expect("projection");
    assert!(
        (projected.l_star - rec.truth.ground_distance).abs() < 0.4,
        "L* {:.3} truth {:.3}",
        projected.l_star,
        rec.truth.ground_distance
    );
    assert_eq!(result.best_range(), Some(projected.l_star));
}

#[test]
fn every_volunteer_completes_a_session() {
    // All ten hand profiles — including the shaky ones — must produce a
    // usable session at 3 m (some slides may be gate-rejected).
    for (i, user) in roster().iter().enumerate() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(3.0)
            .speaker_stature(0.5)
            .volunteer(user)
            .slides(3)
            .slides_low(3)
            .stature_drop(0.4)
            .seed(3200 + i as u64)
            .render()
            .expect("render");
        let result = SessionEngine::new(HyperEarConfig::galaxy_s4())
            .expect("config")
            .run(&SessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                left: &rec.audio.left,
                right: &rec.audio.right,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            });
        let result = match result {
            Ok(r) => r,
            Err(e) => panic!("{}: session failed: {e}", user.name),
        };
        let range = result.best_range().expect("range");
        assert!(
            (range - 3.0).abs() < 1.0,
            "{}: estimate {range:.2} m",
            user.name
        );
    }
}

#[test]
fn shaky_hands_reject_more_slides_than_the_ruler() {
    let shaky = &roster()[5]; // M2, shaky profile
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .volunteer(shaky)
        .slides(6)
        .seed(3300)
        .render()
        .expect("render");
    let result = SessionEngine::new(HyperEarConfig::galaxy_s4())
        .expect("config")
        .run(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })
        .expect("session");
    // The shaky profile (12° typical yaw) must trip the 20° gate at least
    // occasionally across six slides... or at minimum report rotations
    // far above ruler level.
    let max_rotation = result
        .slides
        .iter()
        .map(|s| s.inertial.rotation_deg)
        .fold(0.0f64, f64::max);
    assert!(
        max_rotation > 2.0,
        "shaky session max rotation {max_rotation}°"
    );
}
