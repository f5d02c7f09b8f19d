//! Quickstart: simulate one HyperEar session and localize the speaker.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A chirp-beacon speaker sits 5 m from the user in a quiet meeting room.
//! The user holds the phone in-direction and slides it back and forth
//! five times; the pipeline recovers the speaker's distance from the
//! stereo recording and the IMU traces alone — no synchronization, no
//! infrastructure.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Simulate the physical session (stand-in for real hardware).
    let recording = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(5)
        .seed(2024)
        .render()?;
    println!(
        "Rendered {:.1} s of stereo audio and {} IMU samples.",
        recording.audio.left.len() as f64 / recording.audio.sample_rate,
        recording.imu.accel.len()
    );

    // 2. Run the HyperEar pipeline exactly as a phone app would: build
    //    a reusable engine once, then process sessions into a caller-
    //    owned result (the allocation-free steady state of a real app).
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4())?;
    let mut result = SessionResult::empty();
    engine.run_into(
        &SessionInput {
            audio_sample_rate: recording.audio.sample_rate,
            left: &recording.audio.left,
            right: &recording.audio.right,
            imu_sample_rate: recording.imu.sample_rate,
            accel: &recording.imu.accel,
            gyro: &recording.imu.gyro,
        },
        &mut result,
    )?;

    // 3. Report.
    println!(
        "Detected {} + {} beacons; recovered beacon period {:.6} s ({:+.1} ppm vs nominal).",
        result.beacons_left, result.beacons_right, result.period.period, result.period.offset_ppm
    );
    for (i, slide) in result.slides.iter().enumerate() {
        println!(
            "  slide {}: distance {:+.3} m, rotation {:.1} deg, {}",
            i + 1,
            slide.inertial.distance,
            slide.inertial.rotation_deg,
            if slide.fix.is_some() {
                "localized"
            } else {
                "no fix"
            }
        );
    }
    let estimate = result.upper.ok_or("no aggregated estimate")?;
    println!(
        "Estimated speaker distance: {:.2} m (ground truth {:.2} m, error {:.1} cm)",
        estimate.range,
        recording.truth.slant_distance_upper,
        (estimate.range - recording.truth.slant_distance_upper).abs() * 100.0
    );
    Ok(())
}
