//! Noisy-mall robustness: localize the same tag across the paper's four
//! acoustic environments (Fig. 19's scenario as a runnable demo).
//!
//! ```text
//! cargo run --release --example noisy_mall
//! ```
//!
//! The band-pass front end shrugs off chatting (voice sits below the
//! 2 kHz chirp-band edge); overlapping mall music and busy-hour crowd
//! noise progressively erode accuracy.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;
use hyperear_sim::volunteer::roster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One warm engine across all four environments, processing into a
    // reused result whose slide storage is scavenged between sessions.
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4())?;
    let mut result = SessionResult::empty();
    let user = &roster()[0];
    println!("Localizing a tag 7 m away across environments (3D, in hand):\n");
    for (i, environment) in Environment::fig19_set().into_iter().enumerate() {
        let recording = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(environment.clone())
            .speaker_range(7.0)
            .speaker_stature(0.5)
            .volunteer(user)
            .slides(5)
            .slides_low(5)
            .stature_drop(0.4)
            .seed(9_000 + i as u64)
            .render()?;
        let outcome = engine.run_into(
            &SessionInput {
                audio_sample_rate: recording.audio.sample_rate,
                left: &recording.audio.left,
                right: &recording.audio.right,
                imu_sample_rate: recording.imu.sample_rate,
                accel: &recording.imu.accel,
                gyro: &recording.imu.gyro,
            },
            &mut result,
        );
        match outcome {
            Ok(()) => {
                let range = result.best_range().unwrap_or(f64::NAN);
                let usable = result.slides.iter().filter(|s| s.fix.is_some()).count();
                println!(
                    "  {:<36} estimate {:>5.2} m (err {:>5.1} cm), {:>2}/{} slides usable, {} beacons",
                    environment.name,
                    range,
                    (range - recording.truth.ground_distance).abs() * 100.0,
                    usable,
                    result.slides.len(),
                    result.beacons_left.min(result.beacons_right),
                );
            }
            Err(e) => println!("  {:<36} session failed: {e}", environment.name),
        }
    }
    println!("\nGround truth: 7.00 m.");
    Ok(())
}
