//! Smoke tests mirroring the runnable examples: one quick 2D session per
//! example scenario, so `cargo test -q` exercises the exact public API
//! surface `examples/quickstart.rs` and `examples/find_keys.rs` drive.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput};
use hyperear::sdf::{find_crossings, guidance, Guidance, RollObservation};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{rotation_sweep, Recording, ScenarioBuilder};
use hyperear_sim::volunteer::roster;

fn run_pipeline(recording: &Recording) -> hyperear::pipeline::SessionResult {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).expect("engine");
    engine
        .run(&SessionInput {
            audio_sample_rate: recording.audio.sample_rate,
            left: &recording.audio.left,
            right: &recording.audio.right,
            imu_sample_rate: recording.imu.sample_rate,
            accel: &recording.imu.accel,
            gyro: &recording.imu.gyro,
        })
        .expect("session")
}

/// The `quickstart` example scenario, shortened to two slides: a quiet
/// meeting room, ruler-grade motion, speaker 5 m away in-plane.
#[test]
fn quickstart_scenario_produces_an_estimate() {
    let recording = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(2)
        .seed(2024)
        .render()
        .expect("render");
    assert!(!recording.audio.left.is_empty());
    assert_eq!(recording.audio.left.len(), recording.audio.right.len());
    assert!(!recording.imu.accel.is_empty());

    let result = run_pipeline(&recording);
    assert!(result.beacons_left > 0, "no beacons detected on the left");
    assert!(result.beacons_right > 0, "no beacons detected on the right");
    let estimate = result.upper.expect("no aggregated estimate");
    let err = (estimate.range - recording.truth.slant_distance_upper).abs();
    assert!(
        err < 0.5,
        "quickstart range error {err:.3} m (estimate {:.2}, truth {:.2})",
        estimate.range,
        recording.truth.slant_distance_upper
    );
}

/// Phase 1 of the `find_keys` example: Speaker Direction Finding over a
/// roll sweep must issue a STOP near the in-direction posture and find
/// at least one zero-TDoA crossing.
#[test]
fn find_keys_direction_finding_guides_to_stop() {
    let phone = PhoneModel::galaxy_s4();
    let sweep = rotation_sweep(&phone, 4.0, 180, 0.2, 7).expect("sweep");
    let observations: Vec<RollObservation> = sweep
        .iter()
        .map(|s| RollObservation {
            roll_degrees: s.alpha_degrees,
            tdoa: s.tdoa_ms / 1_000.0,
        })
        .collect();
    let stopped = observations.iter().find_map(|obs| {
        match guidance(obs.tdoa, phone.mic_separation, 343.0, 0.05).expect("guidance") {
            Guidance::Stop => Some(obs.roll_degrees),
            Guidance::KeepRolling => None,
        }
    });
    assert!(
        stopped.is_some(),
        "guidance never said STOP over a full sweep"
    );
    let crossings = find_crossings(&observations).expect("crossings");
    assert!(!crossings.is_empty(), "no in-direction crossings found");
}

/// Phase 2 of the `find_keys` example, shortened to a single-stature 2D
/// session: in-hand motion by a roster volunteer, speaker 4 m away.
#[test]
fn find_keys_scenario_localizes_in_hand() {
    let user = &roster()[4];
    let recording = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .volunteer(user)
        .slides(2)
        .seed(4242)
        .render()
        .expect("render");
    let result = run_pipeline(&recording);
    let estimate = result.upper.expect("no aggregated estimate");
    let err = (estimate.range - recording.truth.slant_distance_upper).abs();
    assert!(
        err < 1.0,
        "find_keys range error {err:.3} m (estimate {:.2}, truth {:.2})",
        estimate.range,
        recording.truth.slant_distance_upper
    );
}
