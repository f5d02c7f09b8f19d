//! Property-based tests of the core pipeline invariants, on the
//! workspace's own harness (`hyperear_util::prop`).

use hyperear::asp::BeaconArrival;
use hyperear::baseline::{naive_two_position_error, NaiveConfig};
use hyperear::config::Aggregation;
use hyperear::localize::{localize_with, slide_geometry, LocalizeScratch};
use hyperear::metrics::Cdf;
use hyperear::sfo::{estimate_period_with, SfoScratch};
use hyperear::tdoa::{augmented_tdoa_with, channel_delta_t_with, TdoaScratch};
use hyperear_geom::triangulate::SlideGeometry;
use hyperear_geom::Vec2;
use hyperear_util::prop::{self, bool_any, f64_range, usize_range, vec_f64};
use hyperear_util::prop_assert;

#[test]
fn sfo_recovers_any_plausible_clock_offset() {
    let strat = (
        f64_range(-150.0, 150.0),
        f64_range(0.0, 0.2),
        usize_range(4, 12),
    );
    prop::check(
        "sfo_recovers_any_plausible_clock_offset",
        strat,
        |&(ppm, phase, count)| {
            let period = 0.2 * (1.0 + ppm * 1e-6);
            let arrivals: Vec<BeaconArrival> = (0..count)
                .map(|k| BeaconArrival {
                    time: phase + k as f64 * period,
                    strength: 1.0,
                })
                .collect();
            let window_end = phase + count as f64 * period + 0.1;
            let est =
                estimate_period_with(&arrivals, &[(0.0, window_end)], 0.2, &mut SfoScratch::new())
                    .unwrap();
            prop_assert!((est.period - period).abs() < 1e-12);
            prop_assert!((est.offset_ppm - ppm).abs() < 1e-3);
            prop::pass()
        },
    );
}

#[test]
fn augmented_tdoa_recovers_any_step() {
    let strat = (f64_range(-50.0, 50.0), f64_range(0.0, 3.0));
    prop::check(
        "augmented_tdoa_recovers_any_step",
        strat,
        |&(step_mm, jitter_us)| {
            // Beacons 0-4 pre-slide, 8-12 post-slide; the post ones are
            // delayed by the distance step. Deterministic alternating jitter.
            let period = 0.2;
            let step_s = step_mm / 1_000.0 / 343.0;
            let arrivals: Vec<BeaconArrival> = (0..13)
                .map(|k| {
                    let j = if k % 2 == 0 { jitter_us } else { -jitter_us } * 1e-6;
                    BeaconArrival {
                        time: 0.05 + k as f64 * period + if k >= 8 { step_s } else { 0.0 } + j,
                        strength: 1.0,
                    }
                })
                .collect();
            let (dt, pairs) = channel_delta_t_with(
                &arrivals,
                (0.0, 0.9),
                (1.6, 10.0),
                period,
                3,
                &mut TdoaScratch::new(),
            )
            .unwrap();
            prop_assert!(pairs >= 1);
            // Median over pairs bounds the jitter's influence.
            prop_assert!(
                (dt - step_s).abs() <= 2.0 * jitter_us * 1e-6 + 1e-12,
                "dt {dt} step {step_s}"
            );
            prop::pass()
        },
    );
}

#[test]
fn augmented_pair_is_consistent_across_channels() {
    prop::check(
        "augmented_pair_is_consistent_across_channels",
        f64_range(-30.0, 30.0),
        |&step_mm| {
            let period = 0.2;
            let step_s = step_mm / 1_000.0 / 343.0;
            let mk = |offset: f64| -> Vec<BeaconArrival> {
                (0..13)
                    .map(|k| BeaconArrival {
                        time: 0.05 + offset + k as f64 * period + if k >= 8 { step_s } else { 0.0 },
                        strength: 1.0,
                    })
                    .collect()
            };
            let left = mk(0.0);
            let right = mk(0.000_2);
            let t = augmented_tdoa_with(
                &left,
                &right,
                (0.0, 0.9),
                (1.6, 10.0),
                period,
                343.0,
                3,
                &mut TdoaScratch::new(),
            )
            .unwrap();
            prop_assert!((t.delta_d1 - step_mm / 1_000.0).abs() < 1e-9);
            prop_assert!((t.delta_d2 - step_mm / 1_000.0).abs() < 1e-9);
            prop::pass()
        },
    );
}

#[test]
fn localize_round_trips_through_slide_geometry() {
    let strat = (f64_range(-0.8, 0.8), f64_range(0.5, 8.0), bool_any());
    prop::check(
        "localize_round_trips_through_slide_geometry",
        strat,
        |&(sx, sy, backward)| {
            let speaker = Vec2::new(sx, sy);
            let forward = SlideGeometry::from_ground_truth(0.55, 0.1366, speaker);
            let (d1, d2, dist) = if backward {
                (-forward.delta_d1, -forward.delta_d2, -0.55)
            } else {
                (forward.delta_d1, forward.delta_d2, 0.55)
            };
            let tdoa = hyperear::tdoa::AugmentedTdoa {
                delta_d1: d1,
                delta_d2: d2,
                pairs_mic1: 1,
                pairs_mic2: 1,
            };
            let g = slide_geometry(dist, 0.1366, &tdoa).unwrap();
            let est =
                localize_with(&[g], Aggregation::Median, &mut LocalizeScratch::new()).unwrap();
            prop_assert!(
                (est.position - speaker).norm() < 1e-4,
                "speaker {speaker:?} got {:?}",
                est.position
            );
            prop::pass()
        },
    );
}

#[test]
fn cdf_percentiles_are_monotone() {
    prop::check(
        "cdf_percentiles_are_monotone",
        vec_f64(0.0, 5.0, 2, 64),
        |errors| {
            let cdf = Cdf::new(errors).unwrap();
            let mut prev = cdf.percentile(0.0);
            for p in [10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
                let v = cdf.percentile(p);
                prop_assert!(v >= prev);
                prev = v;
            }
            let s = cdf.stats();
            prop_assert!(s.median <= s.p90 + 1e-12);
            prop_assert!(s.p90 <= s.max + 1e-12);
            prop_assert!(s.mean <= s.max + 1e-12);
            prop::pass()
        },
    );
}

#[test]
fn cdf_fraction_below_is_monotone_and_bounded() {
    let strat = (
        vec_f64(0.0, 5.0, 1, 64),
        f64_range(-1.0, 6.0),
        f64_range(0.0, 2.0),
    );
    prop::check(
        "cdf_fraction_below_is_monotone_and_bounded",
        strat,
        |(errors, x, dx)| {
            let cdf = Cdf::new(errors).unwrap();
            let lo = cdf.fraction_below(*x);
            let hi = cdf.fraction_below(x + dx);
            prop_assert!((0.0..=1.0).contains(&lo), "fraction {lo} out of [0, 1]");
            prop_assert!(hi >= lo, "fraction_below not monotone: {lo} > {hi}");
            // Every error is ≤ the maximum, none is below the minimum.
            prop_assert!((cdf.fraction_below(cdf.percentile(100.0)) - 1.0).abs() < 1e-12);
            prop_assert!(cdf.fraction_below(cdf.percentile(0.0) - 1e-9) == 0.0);
            prop::pass()
        },
    );
}

#[test]
fn metrics_reject_degenerate_inputs_with_typed_errors() {
    let strat = (f64_range(0.1, 1_000.0), vec_f64(0.0, 5.0, 1, 16));
    prop::check(
        "metrics_reject_degenerate_inputs_with_typed_errors",
        strat,
        |(excess, errors)| {
            // Empty and non-finite inputs are errors, not panics.
            prop_assert!(Cdf::new(&[]).is_err());
            prop_assert!(Cdf::new(&[1.0, f64::NAN]).is_err());
            prop_assert!(Cdf::new(&[f64::INFINITY]).is_err());
            // In-range percentiles lie within the sample range.
            let cdf = Cdf::new(errors).unwrap();
            let p = (excess % 100.0).clamp(0.0, 100.0);
            let v = cdf.percentile(p);
            prop_assert!(v >= cdf.percentile(0.0) && v <= cdf.percentile(100.0));
            prop::pass()
        },
    );
}

#[test]
fn naive_error_is_bounded_by_search_region() {
    let strat = (f64_range(-0.4, 0.4), f64_range(0.5, 8.0));
    prop::check(
        "naive_error_is_bounded_by_search_region",
        strat,
        |&(sx, sy)| {
            let config = NaiveConfig::galaxy_s4();
            let e = naive_two_position_error(Vec2::new(sx, sy), &config).unwrap();
            // Estimate clamped to max_range ⇒ error ≤ truth_norm + max_range.
            let bound = Vec2::new(sx, sy).norm() + config.max_range;
            prop_assert!(e <= bound + 1e-9);
            prop_assert!(e.is_finite());
            prop::pass()
        },
    );
}
