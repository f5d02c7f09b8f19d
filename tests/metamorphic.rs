//! Metamorphic relations: how the outcome of a transformed capture
//! relates to the original's, checked on random simulated scenes with
//! neither ground truth nor a recorded past run.
//!
//! **Power-of-two gain.** Scaling both channels by `2^k` scales every
//! correlation, noise floor and threshold by `2^k` exactly (a
//! power-of-two product only moves the exponent), so detection picks the
//! same peaks at the same fractional lags. Every field of the
//! [`SessionOutcome`] must then be bit-identical to the original's,
//! except `mean_beacon_strength`, which scales by `2^k` exactly.
//!
//! Each case renders a whole session, so a routine run checks a few
//! (`CASES`); set `HYPEREAR_PROP_CASES` for a long run.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;
use hyperear_util::prop::{self, f64_range, usize_range};
use hyperear_util::prop_assert;

/// Cases per run when `HYPEREAR_PROP_CASES` is unset.
const CASES: usize = 8;

/// The outcome's mean beacon strength, when it carries a result.
fn strength(outcome: &mut SessionOutcome) -> Option<&mut f64> {
    match outcome {
        SessionOutcome::Ok(result) | SessionOutcome::Degraded { result, .. } => {
            Some(&mut result.mean_beacon_strength)
        }
        SessionOutcome::Failed { .. } => None,
    }
}

#[test]
fn power_of_two_gain_scales_only_the_beacon_strength() {
    // Scene seed, speaker range (m), and the gain exponent k in -3..=7.
    let strat = (
        usize_range(0, 9_999),
        f64_range(2.0, 7.0),
        usize_range(0, 10),
    );
    prop::check_cases(
        "power_of_two_gain_scales_only_the_beacon_strength",
        CASES,
        strat,
        |&(seed, range, k)| {
            let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .speaker_range(range)
                .slides(3)
                .seed(9_100 + seed as u64)
                .render()
                .expect("render");
            let gain = 2f64.powi(k as i32 - 3);
            let scale = |x: &[f64]| x.iter().map(|s| s * gain).collect::<Vec<_>>();
            let (left, right) = (scale(&rec.audio.left), scale(&rec.audio.right));
            let input = |left, right| SessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                left,
                right,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            };
            let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).expect("engine");
            let mut want = engine.run_monitored(&input(&rec.audio.left, &rec.audio.right));
            let mut got = engine.run_monitored(&input(&left, &right));
            if let (Some(w), Some(g)) = (strength(&mut want), strength(&mut got)) {
                prop_assert!(*g == *w * gain, "strength {g} against {w} · {gain}");
                *g = *w;
            }
            prop_assert!(got == want, "gain {gain}: {got:?}\nagainst {want:?}");
            prop::pass()
        },
    );
}
