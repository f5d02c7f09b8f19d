//! Integration tests for the future-work extensions: inaudible beacons
//! and non-line-of-sight operation.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear::HyperEarError;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;

fn run(rec: &Recording, config: HyperEarConfig) -> Result<SessionResult, HyperEarError> {
    SessionEngine::new(config)?.run(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    })
}

fn inaudible_config() -> HyperEarConfig {
    let speaker = SpeakerModel::inaudible();
    let mut config = HyperEarConfig::galaxy_s4();
    config.beacon.f0 = speaker.chirp_f0;
    config.beacon.f1 = speaker.chirp_f1;
    config.beacon.duration = speaker.chirp_duration;
    // High-band beacons need carrier-free peak detection.
    config.detection.envelope_detection = true;
    config
}

#[test]
fn inaudible_beacon_localizes_at_close_range() {
    // Under the 3 dB/kHz roll-off the near-ultrasonic beacon still works
    // at 2 m, just with degraded margins.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_model(SpeakerModel::inaudible())
        .speaker_range(2.0)
        .slides(5)
        .seed(6100)
        .render()
        .expect("render");
    let result = run(&rec, inaudible_config()).expect("session");
    let est = result.upper.expect("estimate");
    // Accuracy is an order of magnitude worse than the audible beacon's
    // (the HF roll-off narrows the effective bandwidth and widens the
    // envelope lobe), but the system still functions — the ext-inaudible
    // experiment quantifies the degradation properly over many sessions.
    assert!(
        (est.range - 2.0).abs() < 1.0,
        "inaudible estimate {:.2} m",
        est.range
    );
}

#[test]
fn audible_config_cannot_hear_inaudible_beacon() {
    // A pipeline configured for the 2-6.4 kHz band must not detect the
    // 16-19.5 kHz beacon (its band-pass removes it) — and must fail with
    // the insufficient-beacons error, not a wrong answer.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_model(SpeakerModel::inaudible())
        .speaker_range(2.0)
        .slides(2)
        .seed(6200)
        .render()
        .expect("render");
    match run(&rec, HyperEarConfig::galaxy_s4()) {
        Err(HyperEarError::InsufficientBeacons { .. }) => {}
        other => panic!("expected InsufficientBeacons, got {other:?}"),
    }
}

#[test]
fn obstruction_degrades_accuracy_and_strength() {
    let clear = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(3)
        .seed(6300)
        .render()
        .expect("render");
    let blocked = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(3)
        .direct_path_attenuation_db(30.0)
        .seed(6300)
        .render()
        .expect("render");
    let r_clear = run(&clear, HyperEarConfig::galaxy_s4()).expect("clear session");
    let r_blocked = run(&blocked, HyperEarConfig::galaxy_s4()).expect("blocked session");
    // Accuracy degrades...
    let e_clear = (r_clear.upper.expect("clear est").range - 5.0).abs();
    let e_blocked = (r_blocked.upper.expect("blocked est").range - 5.0).abs();
    assert!(
        e_blocked > e_clear,
        "blocked {e_blocked:.3} should exceed clear {e_clear:.3}"
    );
    // ...and the strength diagnostic flags the obstruction.
    assert!(
        r_blocked.mean_beacon_strength < 0.7 * r_clear.mean_beacon_strength,
        "strength {:.3} vs {:.3}",
        r_blocked.mean_beacon_strength,
        r_clear.mean_beacon_strength
    );
}

#[test]
fn mild_obstruction_is_tolerated() {
    // 6 dB of direct-path loss: detection margin shrinks but localization
    // stays centimetre-level (the direct path still dominates).
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .slides(3)
        .direct_path_attenuation_db(6.0)
        .seed(6400)
        .render()
        .expect("render");
    let result = run(&rec, HyperEarConfig::galaxy_s4()).expect("session");
    let est = result.upper.expect("estimate");
    assert!(
        (est.range - 4.0).abs() < 0.3,
        "estimate {:.2} under mild obstruction",
        est.range
    );
}
