//! Property-based tests of the inertial-chain invariants, on the
//! workspace's own harness (`hyperear_util::prop`).

use hyperear_imu::displacement::{segment_kinematics, DisplacementScratch};
use hyperear_imu::rotation::{max_rotation_deg_with, yaw_trace_into};
use hyperear_imu::segment::{power_levels, segment_movements_into, SegmentConfig};
use hyperear_imu::velocity::{correct_linear_drift, estimate_velocity, integrate_acceleration};
use hyperear_util::prop::{self, f64_range, usize_range, vec_f64, vec_of};
use hyperear_util::{prop_assert, prop_assert_eq, prop_assume};

fn min_jerk_accel(dist: f64, n: usize, fs: f64) -> Vec<f64> {
    let duration = (n - 1) as f64 / fs;
    (0..n)
        .map(|i| {
            let tau = i as f64 / (n - 1) as f64;
            let a = 60.0 * tau - 180.0 * tau * tau + 120.0 * tau * tau * tau;
            a * dist / (duration * duration)
        })
        .collect()
}

#[test]
fn drift_correction_is_exact_for_linear_drift() {
    let strat = (
        f64_range(-1.0, 1.0),
        f64_range(-0.5, 0.5),
        usize_range(41, 200),
    );
    prop::check(
        "drift_correction_is_exact_for_linear_drift",
        strat,
        |&(dist, bias, n)| {
            prop_assume!(dist.abs() > 0.05);
            let mut accel = min_jerk_accel(dist, n, 100.0);
            for a in &mut accel {
                *a += bias;
            }
            let est = estimate_velocity(&accel, 100.0).unwrap();
            // The corrected end velocity is exactly zero, and the recovered
            // drift slope equals the injected bias.
            prop_assert!(est.corrected.last().unwrap().abs() < 1e-9);
            prop_assert!((est.drift_slope - bias).abs() < 1e-9);
            prop::pass()
        },
    );
}

#[test]
fn displacement_recovers_distance_under_bias() {
    let strat = (
        f64_range(-1.0, 1.0),
        f64_range(-0.3, 0.3),
        usize_range(61, 160),
    );
    prop::check(
        "displacement_recovers_distance_under_bias",
        strat,
        |&(dist, bias, n)| {
            prop_assume!(dist.abs() > 0.05);
            let mut accel = min_jerk_accel(dist, n, 100.0);
            for a in &mut accel {
                *a += bias;
            }
            let d = segment_kinematics(&accel, 100.0, true, &mut DisplacementScratch::default())
                .unwrap()
                .distance;
            prop_assert!(
                (d - dist).abs() < 0.01 * (1.0 + dist.abs()),
                "dist {dist} est {d}"
            );
            prop::pass()
        },
    );
}

#[test]
fn integration_is_linear() {
    let strat = (f64_range(0.1, 5.0), usize_range(10, 100));
    prop::check("integration_is_linear", strat, |&(scale, n)| {
        let accel: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
        let scaled: Vec<f64> = accel.iter().map(|a| a * scale).collect();
        let v1 = integrate_acceleration(&accel, 100.0).unwrap();
        let v2 = integrate_acceleration(&scaled, 100.0).unwrap();
        for (a, b) in v1.iter().zip(&v2) {
            prop_assert!((a * scale - b).abs() < 1e-9);
        }
        prop::pass()
    });
}

#[test]
fn corrected_velocity_endpoints_are_zero() {
    prop::check(
        "corrected_velocity_endpoints_are_zero",
        vec_f64(-2.0, 2.0, 8, 64),
        |raw| {
            let mut raw = raw.clone();
            raw[0] = 0.0; // integration always starts at rest
            let (corrected, _) = correct_linear_drift(&raw, 100.0).unwrap();
            prop_assert!(corrected[0].abs() < 1e-12);
            prop_assert!(corrected.last().unwrap().abs() < 1e-12);
            prop::pass()
        },
    );
}

#[test]
fn power_levels_are_nonnegative_and_bounded() {
    prop::check(
        "power_levels_are_nonnegative_and_bounded",
        vec_f64(-3.0, 3.0, 8, 128),
        |signal| {
            let p = power_levels(signal, 4).unwrap();
            prop_assert_eq!(p.len(), signal.len());
            let max_sq = signal.iter().map(|x| x * x).fold(0.0f64, f64::max);
            for v in p {
                prop_assert!(v >= 0.0);
                prop_assert!(v <= max_sq + 1e-12);
            }
            prop::pass()
        },
    );
}

#[test]
fn segments_are_sorted_and_disjoint() {
    let strat = vec_of((usize_range(0, 8), usize_range(20, 60)), 1, 4);
    prop::check("segments_are_sorted_and_disjoint", strat, |bursts| {
        // Build a trace with bursts at deterministic, spread positions.
        let mut signal = vec![0.0; 1000];
        for (k, &(slot, len)) in bursts.iter().enumerate() {
            let start = 100 + (slot + k * 3) % 8 * 110;
            for i in 0..len.min(90) {
                signal[start + i] = 2.0;
            }
        }
        let mut segments = Vec::new();
        segment_movements_into(
            &signal,
            &SegmentConfig::default(),
            &mut Vec::new(),
            &mut segments,
        )
        .unwrap();
        for pair in segments.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start);
        }
        for s in &segments {
            prop_assert!(s.start < s.end);
            prop_assert!(s.end <= signal.len());
        }
        prop::pass()
    });
}

#[test]
fn yaw_trace_differences_track_wobble() {
    let strat = (
        f64_range(0.01, 0.3),
        f64_range(0.2, 0.8),
        f64_range(-0.05, 0.05),
    );
    prop::check(
        "yaw_trace_differences_track_wobble",
        strat,
        |&(amp, freq, bias)| {
            let fs = 100.0;
            let w = std::f64::consts::TAU * freq;
            let gyro: Vec<f64> = (0..1800)
                .map(|i| bias + amp * w * (w * i as f64 / fs).cos())
                .collect();
            let mut yaw = Vec::new();
            yaw_trace_into(&gyro, fs, &mut yaw).unwrap();
            let (i, j) = (700usize, 860usize);
            let est = yaw[j] - yaw[i];
            let truth = amp * ((w * j as f64 / fs).sin() - (w * i as f64 / fs).sin());
            prop_assert!(
                (est - truth).abs() < 0.01 + 0.05 * amp,
                "est {est} truth {truth}"
            );
            prop::pass()
        },
    );
}

#[test]
fn rotation_gate_measures_constant_wobble() {
    prop::check(
        "rotation_gate_measures_constant_wobble",
        f64_range(1.0, 30.0),
        |&amp_deg| {
            let fs = 100.0;
            let amp = amp_deg.to_radians();
            let w = std::f64::consts::TAU * 0.5;
            let rate: Vec<f64> = (0..=200)
                .map(|i| amp * w * (w * i as f64 / fs).cos())
                .collect();
            let measured = max_rotation_deg_with(&rate, fs, &mut Vec::new()).unwrap();
            prop_assert!((measured - amp_deg).abs() < 0.1 * amp_deg + 0.5);
            prop::pass()
        },
    );
}

#[test]
fn velocity_then_displacement_is_consistent() {
    let strat = (f64_range(0.1, 1.0), usize_range(81, 160));
    prop::check(
        "velocity_then_displacement_is_consistent",
        strat,
        |&(dist, n)| {
            let accel = min_jerk_accel(dist, n, 100.0);
            let kin = segment_kinematics(&accel, 100.0, true, &mut DisplacementScratch::default())
                .unwrap();
            prop_assert!((kin.distance - dist).abs() < 0.01);
            prop::pass()
        },
    );
}
