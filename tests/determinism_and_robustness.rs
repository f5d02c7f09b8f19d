//! Determinism, cross-environment robustness, and failure-injection
//! behaviour of the full stack.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear::HyperEarError;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};

fn run(rec: &Recording) -> Result<SessionResult, HyperEarError> {
    SessionEngine::new(HyperEarConfig::galaxy_s4())?.run(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    })
}

#[test]
fn identical_seeds_give_identical_results() {
    let build = || {
        ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(4.0)
            .slides(3)
            .seed(5100)
            .render()
            .expect("render")
    };
    let a = build();
    let b = build();
    assert_eq!(a.audio.left, b.audio.left);
    assert_eq!(a.imu.accel, b.imu.accel);
    let ra = run(&a).expect("run a");
    let rb = run(&b).expect("run b");
    assert_eq!(ra.upper, rb.upper);
    assert_eq!(ra.period.period, rb.period.period);
}

#[test]
fn all_fig19_environments_complete_at_5m() {
    for (i, env) in Environment::fig19_set().into_iter().enumerate() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(env.clone())
            .speaker_range(5.0)
            .slides(5)
            .seed(5200 + i as u64)
            .render()
            .expect("render");
        let result = run(&rec).unwrap_or_else(|e| panic!("{}: {e}", env.name));
        let est = result.upper.expect("estimate");
        assert!(
            (est.range - rec.truth.slant_distance_upper).abs() < 1.0,
            "{}: estimate {:.2}",
            env.name,
            est.range
        );
    }
}

#[test]
fn truncated_imu_is_rejected_cleanly() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(2)
        .seed(5300)
        .render()
        .expect("render");
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).expect("config");
    let result = engine.run(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel[..10],
        gyro: &rec.imu.gyro[..10],
    });
    assert!(result.is_err(), "10-sample IMU trace must not succeed");
}

#[test]
fn wrong_beacon_config_fails_gracefully() {
    // The pipeline is told the beacon repeats every 150 ms while the
    // speaker actually uses 200 ms: SFO estimation must detect the
    // mismatch instead of producing a silently wrong answer.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(2)
        .seed(5400)
        .render()
        .expect("render");
    let mut config = HyperEarConfig::galaxy_s4();
    config.beacon.period = 0.15;
    let mut engine = SessionEngine::new(config).expect("config");
    let outcome = engine.run(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    });
    match outcome {
        Err(_) => {}
        Ok(result) => {
            // If it survives (beacon indexing can alias), the estimate
            // must at least be flagged implausible by its magnitude.
            let range = result.best_range().unwrap_or(f64::INFINITY);
            assert!(
                (range - 3.0).abs() > 0.5,
                "a mis-configured period must not produce a confident correct answer by luck"
            );
        }
    }
}

#[test]
fn stereo_recording_round_trips_through_pcm() {
    // The byte-level codec path a real app would use.
    use hyperear_dsp::quantize::{
        decode_pcm16, deinterleave_stereo, dequantize_i16, encode_pcm16, interleave_stereo,
        quantize_i16,
    };
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(2)
        .seed(5500)
        .render()
        .expect("render");
    let left = quantize_i16(&rec.audio.left);
    let right = quantize_i16(&rec.audio.right);
    let bytes = encode_pcm16(&interleave_stereo(&left, &right).expect("interleave"));
    let (l2, r2) = deinterleave_stereo(&decode_pcm16(&bytes).expect("decode")).expect("split");
    let left_back = dequantize_i16(&l2);
    let right_back = dequantize_i16(&r2);
    // Recording samples are already on the 16-bit grid, so the round
    // trip is exact and the pipeline result is identical.
    let result = SessionEngine::new(HyperEarConfig::galaxy_s4())
        .expect("config")
        .run(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &left_back,
            right: &right_back,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })
        .expect("session");
    let direct = run(&rec).expect("direct");
    assert_eq!(result.upper, direct.upper);
}
