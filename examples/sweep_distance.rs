//! Distance sweep: HyperEar versus the naive §II-C baseline, 1–7 m.
//!
//! ```text
//! cargo run --release --example sweep_distance
//! ```
//!
//! Reproduces the core comparison of the paper in one table: the naive
//! fixed-baseline two-position scheme collapses past a couple of metres,
//! while the slide-augmented scheme keeps centimetre-level accuracy.

use hyperear::baseline::{naive_two_position_error, NaiveConfig};
use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear_geom::Vec2;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One warm engine for the whole sweep: detector tables, FFT plans
    // and scratch buffers are built once, and the reused result's slide
    // storage is scavenged between sessions.
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4())?;
    let mut result = SessionResult::empty();
    let naive_config = NaiveConfig::galaxy_s4();
    println!("range    naive scheme (quantized)    HyperEar (5 slides, ruler)");
    for range in [1.0, 2.0, 3.0, 5.0, 7.0] {
        // Naive baseline: mean quantization error over lateral offsets.
        let mut naive_sum = 0.0;
        let mut naive_n = 0;
        for i in 0..21 {
            let dx = -0.2 + i as f64 * 0.02;
            if let Ok(e) = naive_two_position_error(Vec2::new(dx, range), &naive_config) {
                naive_sum += e;
                naive_n += 1;
            }
        }
        let naive_mean = naive_sum / naive_n as f64;

        // HyperEar pipeline on a simulated ruler session.
        let recording = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(range)
            .slides(5)
            .seed(7_000 + range as u64)
            .render()?;
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
        let estimate = result.upper.ok_or("no estimate")?;
        let hyperear_err = (estimate.range - recording.truth.slant_distance_upper).abs();
        println!(
            "{range:>4.0} m   {:>10.1} cm               {:>8.1} cm",
            naive_mean * 100.0,
            hyperear_err * 100.0
        );
    }
    println!("\n(The paper quotes naive errors of 18.6 cm @ 1 m and 266.7 cm @ 5 m.)");
    Ok(())
}
