//! Find-my-keys: the paper's motivating scenario, end to end in 3D.
//!
//! ```text
//! cargo run --release --example find_keys
//! ```
//!
//! A beacon tag on a key ring lies on a 0.5 m-high shelf somewhere in a
//! meeting room. The user first *rolls* the phone to find the tag's
//! direction (Speaker Direction Finding), then runs the two-stature slide
//! protocol; the pipeline reports where on the floor map the keys are.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear::sdf::{find_crossings, guidance, Guidance, RollObservation};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{rotation_sweep, ScenarioBuilder};
use hyperear_sim::volunteer::roster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let phone = PhoneModel::galaxy_s4();
    let keys_range = 4.0; // the keys are 4 m away (unknown to the user)

    // --- Phase 1: Speaker Direction Finding. ---------------------------
    println!("Phase 1: roll the phone to find the tag's direction...");
    let sweep = rotation_sweep(&phone, keys_range, 360, 0.2, 7)?;
    let observations: Vec<RollObservation> = sweep
        .iter()
        .map(|s| RollObservation {
            roll_degrees: s.alpha_degrees,
            tdoa: s.tdoa_ms / 1_000.0,
        })
        .collect();
    // Live guidance as the user rolls.
    let mut stopped_at = None;
    for obs in &observations {
        match guidance(obs.tdoa, phone.mic_separation, 343.0, 0.05)? {
            Guidance::Stop => {
                stopped_at = Some(obs.roll_degrees);
                break;
            }
            Guidance::KeepRolling => {}
        }
    }
    println!(
        "  guidance said STOP at roll ~{:.0}° (in-direction)",
        stopped_at.unwrap_or(f64::NAN)
    );
    let crossings = find_crossings(&observations)?;
    println!(
        "  offline analysis finds in-direction crossings at: {}",
        crossings
            .iter()
            .map(|c| format!("{:.1}° ({:?} side)", c.roll_degrees, c.side))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- Phase 2: two-stature slides and localization. ------------------
    println!("Phase 2: slide five times at two statures...");
    let user = &roster()[4]; // an average-handed volunteer
    let recording = ScenarioBuilder::new(phone)
        .environment(Environment::room_quiet())
        .speaker_range(keys_range)
        .speaker_stature(0.5) // the shelf height (unknown to the pipeline)
        .volunteer(user)
        .slides(5)
        .slides_low(5)
        .stature_drop(0.4)
        .seed(4242)
        .render()?;
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

    let projected = result.projected.ok_or("no projected estimate")?;
    println!(
        "  measured stature change H = {:.2} m, elevation beta = {:.1} deg",
        result.stature_drop.unwrap_or(f64::NAN),
        projected.beta.to_degrees()
    );
    println!(
        "Your keys are ~{:.2} m ahead on the floor map (truth: {:.2} m, error {:.1} cm).",
        projected.l_star,
        recording.truth.ground_distance,
        (projected.l_star - recording.truth.ground_distance).abs() * 100.0
    );
    Ok(())
}
