//! Property-based tests of the geometric invariants, on the workspace's
//! own harness (`hyperear_util::prop`).

use hyperear_geom::hyperbola::HalfHyperbola;
use hyperear_geom::project::forward_model;
use hyperear_geom::rotation::wrap_degrees;
use hyperear_geom::tdoa_regions::TdoaQuantizer;
use hyperear_geom::triangulate::{solve_slide, SlideGeometry};
use hyperear_geom::Vec2;
use hyperear_util::prop::{self, f64_range};
use hyperear_util::{prop_assert, prop_assert_eq, prop_assume};

#[test]
fn hyperbola_contains_its_generator() {
    let strat = (
        f64_range(-5.0, 5.0),
        f64_range(0.2, 8.0),
        f64_range(0.05, 0.5),
    );
    prop::check(
        "hyperbola_contains_its_generator",
        strat,
        |&(sx, sy, half_base)| {
            let f1 = Vec2::new(-half_base, 0.0);
            let f2 = Vec2::new(half_base, 0.0);
            let speaker = Vec2::new(sx, sy);
            let dd = speaker.distance(f1) - speaker.distance(f2);
            let h = HalfHyperbola::new(f1, f2, dd).unwrap();
            prop_assert!(h.residual(speaker).abs() < 1e-10);
            prop::pass()
        },
    );
}

#[test]
fn triangulation_recovers_random_speakers() {
    let strat = (
        f64_range(-1.5, 1.5),
        f64_range(0.5, 9.0),
        f64_range(0.2, 0.7),
        f64_range(0.08, 0.2),
    );
    prop::check(
        "triangulation_recovers_random_speakers",
        strat,
        |&(sx, sy, d_prime, mic_offset)| {
            let speaker = Vec2::new(sx, sy);
            let geometry = SlideGeometry::from_ground_truth(d_prime, mic_offset, speaker);
            let solution = solve_slide(&geometry).unwrap();
            prop_assert!(
                (solution.position - speaker).norm() < 1e-4,
                "speaker {speaker:?} got {:?}",
                solution.position
            );
            prop::pass()
        },
    );
}

#[test]
fn backward_slides_recover_too() {
    let strat = (
        f64_range(-1.0, 1.0),
        f64_range(0.5, 8.0),
        f64_range(0.2, 0.7),
    );
    prop::check(
        "backward_slides_recover_too",
        strat,
        |&(sx, sy, d_prime)| {
            let speaker = Vec2::new(sx, sy);
            let geometry = SlideGeometry::from_ground_truth(d_prime, -0.1366, speaker);
            let solution = solve_slide(&geometry).unwrap();
            prop_assert!((solution.position - speaker).norm() < 1e-4);
            prop::pass()
        },
    );
}

#[test]
fn projection_round_trips() {
    let strat = (
        f64_range(0.5, 9.0),
        f64_range(-1.0, 1.5),
        f64_range(0.2, 0.8),
    );
    prop::check("projection_round_trips", strat, |&(ground, depth, h)| {
        prop_assume!(depth.abs() > 1e-3);
        let m = forward_model(ground, depth, h).unwrap();
        let sol = m.solve().unwrap();
        prop_assert!((sol.l_star - ground).abs() < 1e-6);
        prop_assert!((sol.depth - depth).abs() < 1e-6);
        prop::pass()
    });
}

#[test]
fn wrap_degrees_is_idempotent_and_in_range() {
    prop::check(
        "wrap_degrees_is_idempotent_and_in_range",
        f64_range(-1000.0, 1000.0),
        |&angle| {
            let w = wrap_degrees(angle);
            prop_assert!((0.0..360.0).contains(&w));
            prop_assert!((wrap_degrees(w) - w).abs() < 1e-12);
            // Wrapping preserves the angle modulo 360.
            prop_assert!(((angle - w) / 360.0).fract().abs() < 1e-9);
            prop::pass()
        },
    );
}

#[test]
fn region_index_is_antisymmetric() {
    let strat = (f64_range(0.05, 4.0), f64_range(0.2, 6.0));
    prop::check("region_index_is_antisymmetric", strat, |&(x, y)| {
        let q = TdoaQuantizer::new(
            Vec2::new(-0.0683, 0.0),
            Vec2::new(0.0683, 0.0),
            44_100.0,
            343.0,
        )
        .unwrap();
        let left = q.region_index(Vec2::new(-x, y));
        let right = q.region_index(Vec2::new(x, y));
        prop_assert_eq!(left, -right);
        prop::pass()
    });
}

#[test]
fn solve_handles_noisy_measurements() {
    let strat = (
        f64_range(-0.5, 0.5),
        f64_range(1.0, 8.0),
        f64_range(-2e-4, 2e-4),
        f64_range(-2e-4, 2e-4),
    );
    prop::check(
        "solve_handles_noisy_measurements",
        strat,
        |&(sx, sy, noise1, noise2)| {
            let speaker = Vec2::new(sx, sy);
            let mut g = SlideGeometry::from_ground_truth(0.55, 0.1366, speaker);
            g.delta_d1 += noise1;
            g.delta_d2 += noise2;
            // Must converge (possibly far from truth — that is physics, not a bug).
            let solution = solve_slide(&g).unwrap();
            prop_assert!(solution.position.y > 0.0);
            prop_assert!(solution.residual.is_finite());
            prop::pass()
        },
    );
}
