//! Ablation contrasts: disabling each signal-processing stage must hurt
//! in the way the paper's design narrative predicts.

use hyperear::config::{HyperEarConfig, Interpolation};
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear::HyperEarError;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};

fn render(seed: u64) -> Recording {
    ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(5)
        .seed(seed)
        .render()
        .expect("render")
}

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

/// Ground truth expressed in the first slide's frame (x along the slide
/// axis from the midpoint of Mic1's travel, y the slant distance).
fn truth_position(rec: &Recording) -> hyperear_geom::Vec2 {
    let slide = rec.truth.motion.slides[0];
    let a = rec.truth.motion.mic1_position(slide.start_time);
    let b = rec.truth.motion.mic1_position(slide.end_time());
    let mid = (a + b) * 0.5;
    let axis = rec.truth.motion.axis;
    let d = rec.truth.speaker_position - mid;
    let along = d.x * axis.x + d.y * axis.y;
    let horiz_perp = -d.x * axis.y + d.y * axis.x;
    hyperear_geom::Vec2::new(along, (horiz_perp * horiz_perp + d.z * d.z).sqrt())
}

/// Mean 2D position error (the full Euclidean error the paper scores):
/// SFO bias is common to both microphones, so it cancels in the *range*
/// and shows up in the along-axis coordinate — range-only scoring would
/// hide it.
fn mean_error(config: &HyperEarConfig, seeds: &[u64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for &seed in seeds {
        let rec = render(seed);
        if let Ok(result) = run(&rec, config.clone()) {
            if let Some(est) = result.upper {
                sum += (est.position - truth_position(&rec)).norm();
                n += 1;
            }
        }
    }
    assert!(n > 0, "no session succeeded for {config:?}");
    sum / n as f64
}

const SEEDS: [u64; 3] = [4101, 4102, 4103];

#[test]
fn sfo_correction_is_load_bearing() {
    // The speaker clock is ~23 ppm off and the ADC ~12 ppm: without the
    // estimated period, the augmented TDoA inherits n·T·ppm of error.
    let base = mean_error(&HyperEarConfig::galaxy_s4(), &SEEDS);
    let mut config = HyperEarConfig::galaxy_s4();
    config.sfo_correction = false;
    let without = mean_error(&config, &SEEDS);
    assert!(
        without > 3.0 * base,
        "sfo off should hurt: base {base:.3} vs without {without:.3}"
    );
}

#[test]
fn interpolation_improves_over_integer_peaks() {
    let base = mean_error(&HyperEarConfig::galaxy_s4(), &SEEDS);
    let mut config = HyperEarConfig::galaxy_s4();
    config.detection.interpolation = Interpolation::None;
    let without = mean_error(&config, &SEEDS);
    assert!(
        without > base,
        "integer peaks should be worse: base {base:.3} vs {without:.3}"
    );
}

#[test]
fn sinc_interpolation_is_at_least_as_good_as_parabolic_nearby() {
    let mut config = HyperEarConfig::galaxy_s4();
    config.detection.interpolation = Interpolation::Sinc;
    let sinc = mean_error(&config, &SEEDS);
    let parabolic = mean_error(&HyperEarConfig::galaxy_s4(), &SEEDS);
    // Not strictly ordered in noise; they must agree within the error
    // budget (both are sub-sample refiners).
    assert!(
        (sinc - parabolic).abs() < 0.2,
        "sinc {sinc:.3} vs parabolic {parabolic:.3}"
    );
}

#[test]
fn rotation_correction_matters_in_hand() {
    use hyperear_sim::volunteer::roster;
    let user = &roster()[4];
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .volunteer(user)
        .slides(5)
        .seed(4200)
        .render()
        .expect("render");
    let with = run(&rec, HyperEarConfig::galaxy_s4())
        .expect("with correction")
        .upper
        .expect("estimate")
        .range;
    let mut config = HyperEarConfig::galaxy_s4();
    config.rotation_correction = false;
    let err_with = (with - rec.truth.slant_distance_upper).abs();
    // A total failure, or no aggregated estimate at all, without the
    // correction also proves the point — only a *better* uncorrected
    // estimate would contradict it.
    if let Ok(result) = run(&rec, config) {
        if let Some(range) = result.upper.map(|e| e.range) {
            let err_without = (range - rec.truth.slant_distance_upper).abs();
            assert!(
                err_without > err_with,
                "correction should help: {err_with:.3} vs {err_without:.3}"
            );
        }
    }
    assert!(err_with < 0.5, "corrected error {err_with:.3}");
}

#[test]
fn band_pass_defends_against_voice_noise() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_chatting())
        .speaker_range(5.0)
        .slides(5)
        .seed(4300)
        .render()
        .expect("render");
    let with = run(&rec, HyperEarConfig::galaxy_s4()).expect("with band-pass");
    let est = with.upper.expect("estimate");
    assert!(
        (est.range - rec.truth.slant_distance_upper).abs() < 0.3,
        "chatting room estimate {:.3}",
        est.range
    );
}
