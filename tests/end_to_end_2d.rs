//! End-to-end 2D localization across crates: simulator → pipeline →
//! metrics, with error budgets tied to the paper's ruler experiments.

use hyperear::config::{Aggregation, HyperEarConfig};
use hyperear::metrics::stats;
use hyperear::pipeline::{SessionEngine, SessionInput};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};

fn run(rec: &Recording, config: HyperEarConfig) -> hyperear::pipeline::SessionResult {
    SessionEngine::new(config)
        .expect("valid config")
        .run(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })
        .expect("session succeeds")
}

#[test]
fn ruler_sessions_stay_centimetre_accurate_to_5m() {
    for (range, budget_m) in [(1.0, 0.05), (3.0, 0.15), (5.0, 0.15)] {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(range)
            .slides(5)
            .seed(500 + range as u64)
            .render()
            .expect("render");
        let result = run(&rec, HyperEarConfig::galaxy_s4());
        let est = result.upper.expect("estimate");
        let err = (est.range - rec.truth.slant_distance_upper).abs();
        assert!(
            err < budget_m,
            "range {range}: error {err:.3} m exceeds budget {budget_m}"
        );
    }
}

#[test]
fn seven_metre_error_matches_paper_band() {
    // Paper (S4 ruler @ 7 m): mean 14.4 cm. Allow 3x headroom per session.
    let mut errors = Vec::new();
    for seed in 0..4u64 {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(7.0)
            .slides(5)
            .seed(600 + seed)
            .render()
            .expect("render");
        let result = run(&rec, HyperEarConfig::galaxy_s4());
        let est = result.upper.expect("estimate");
        errors.push((est.range - rec.truth.slant_distance_upper).abs());
    }
    let s = stats(&errors).expect("stats");
    assert!(s.mean < 0.45, "mean error {:.3} m at 7 m", s.mean);
}

#[test]
fn note3_works_like_s4() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_note3())
        .environment(Environment::room_quiet())
        .speaker_range(5.0)
        .slides(5)
        .seed(700)
        .render()
        .expect("render");
    let result = run(&rec, HyperEarConfig::galaxy_note3());
    let est = result.upper.expect("estimate");
    assert!(
        (est.range - 5.0).abs() < 0.2,
        "note3 estimate {:.3}",
        est.range
    );
}

#[test]
fn joint_aggregation_agrees_with_median() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(4.0)
        .slides(5)
        .seed(800)
        .render()
        .expect("render");
    let median = run(&rec, HyperEarConfig::galaxy_s4())
        .upper
        .expect("median estimate");
    let mut config = HyperEarConfig::galaxy_s4();
    config.aggregation = Aggregation::Joint;
    let joint = run(&rec, config).upper.expect("joint estimate");
    assert!(
        (median.range - joint.range).abs() < 0.2,
        "median {:.3} vs joint {:.3}",
        median.range,
        joint.range
    );
}

#[test]
fn per_slide_reports_are_complete() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(4)
        .seed(900)
        .render()
        .expect("render");
    let result = run(&rec, HyperEarConfig::galaxy_s4());
    assert_eq!(result.slides.len(), 4);
    for (i, report) in result.slides.iter().enumerate() {
        assert!(report.accepted, "slide {i} should pass the gate");
        assert!(report.tdoa.is_some(), "slide {i} has TDoA");
        assert!(report.fix.is_some(), "slide {i} has a fix");
        // Back-and-forth directions alternate.
        let expected_sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        assert!(report.inertial.distance * expected_sign > 0.0);
    }
    assert!(result.beacons_left > 10);
    assert!(result.beacons_right > 10);
}
