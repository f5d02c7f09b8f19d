//! Sampling-frequency-offset correction (paper Section III, "SFO
//! Correction" stage of Acoustic Signal Preprocessing).
//!
//! The speaker's playback clock and the phone's ADC clock each run a few
//! tens of ppm off nominal, so the *recorded* beacon period differs from
//! the nominal 200 ms. The augmented TDoA `Δt′ = t2 − t1 − n·T` spans
//! `n ≈ 8` periods; an uncorrected 20 ppm error contributes
//! `8 × 0.2 s × 20e-6 = 32 µs ≈ 11 mm` of fake distance difference — more
//! than the entire signal for a 7 m speaker. The fix is to *measure* the
//! recorded period: while the phone is stationary, consecutive beacons
//! arrive exactly one period apart, so a least-squares line through
//! (beacon index, arrival time) pairs recovers `T̂` to sub-microsecond
//! precision.

use crate::asp::BeaconArrival;
use crate::HyperEarError;

/// The recovered beacon period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodEstimate {
    /// Estimated period on the recording clock, seconds.
    pub period: f64,
    /// Implied clock offset versus nominal, parts per million.
    pub offset_ppm: f64,
    /// Total beacons that entered the fit.
    pub beacons_used: usize,
    /// Stationary windows that contributed.
    pub windows_used: usize,
    /// RMS of the per-arrival least-squares fit residuals, seconds.
    ///
    /// Clean arrivals fit their window's line to sub-microsecond level;
    /// multipath-shifted or double-detected beacons inflate this. The
    /// degradation policy reads it as a session-level confidence signal
    /// (zero when the estimate is the nominal fallback).
    pub residual_rms: f64,
}

/// Reusable work buffers for [`estimate_period_with`].
#[derive(Debug, Clone, Default)]
pub struct SfoScratch {
    times: Vec<f64>,
    ks: Vec<f64>,
    sorted: Vec<f64>,
}

impl SfoScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Estimates the recorded beacon period from arrivals inside stationary
/// windows.
///
/// Each window contributes an independent least-squares slope of arrival
/// time versus beacon index (indices recovered by rounding against the
/// nominal period); windows are combined with information weights
/// `Σ(k − k̄)²`. Windows with fewer than two arrivals are skipped.
///
/// The per-window index and time buffers live in `scratch`, cleared
/// and reused.
///
/// # Errors
///
/// Returns [`HyperEarError::InsufficientBeacons`] when no window has two
/// or more arrivals, and [`HyperEarError::InvalidParameter`] when the
/// estimate deviates from nominal by more than 1000 ppm (the beacon
/// source is not what the configuration claims).
pub fn estimate_period_with(
    arrivals: &[BeaconArrival],
    stationary_windows: &[(f64, f64)],
    nominal_period: f64,
    scratch: &mut SfoScratch,
) -> Result<PeriodEstimate, HyperEarError> {
    if nominal_period <= 0.0 {
        return Err(HyperEarError::invalid("nominal_period", "must be positive"));
    }
    let mut total_weight = 0.0;
    let mut weighted_slope = 0.0;
    let mut beacons_used = 0;
    let mut windows_used = 0;
    let mut residual_sq_sum = 0.0;
    for &(start, end) in stationary_windows {
        let times = &mut scratch.times;
        times.clear();
        times.extend(
            arrivals
                .iter()
                .map(|a| a.time)
                .filter(|&t| t >= start && t <= end),
        );
        if times.len() < 2 {
            continue;
        }
        // Beacon indices relative to the window's first arrival.
        let t0 = times[0];
        let ks = &mut scratch.ks;
        ks.clear();
        ks.extend(times.iter().map(|&t| ((t - t0) / nominal_period).round()));
        // Guard against duplicate indices (double-detections).
        let sorted = &mut scratch.sorted;
        sorted.clear();
        sorted.extend_from_slice(ks);
        sorted.sort_unstable_by(f64::total_cmp);
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            continue;
        }
        let n = times.len() as f64;
        let k_mean = ks.iter().sum::<f64>() / n;
        let t_mean = times.iter().sum::<f64>() / n;
        let sxx: f64 = ks.iter().map(|k| (k - k_mean) * (k - k_mean)).sum();
        if sxx <= 0.0 {
            continue;
        }
        let sxy: f64 = ks
            .iter()
            .zip(times.iter())
            .map(|(k, t)| (k - k_mean) * (t - t_mean))
            .sum();
        let slope = sxy / sxx;
        for (k, t) in ks.iter().zip(times.iter()) {
            let fitted = t_mean + slope * (k - k_mean);
            residual_sq_sum += (t - fitted) * (t - fitted);
        }
        weighted_slope += slope * sxx;
        total_weight += sxx;
        beacons_used += times.len();
        windows_used += 1;
    }
    if windows_used == 0 {
        return Err(HyperEarError::InsufficientBeacons {
            stage: "SFO period estimation",
            found: arrivals.len().min(1),
            required: 2,
        });
    }
    let period = weighted_slope / total_weight;
    let offset_ppm = (period / nominal_period - 1.0) * 1e6;
    if offset_ppm.abs() > 1_000.0 {
        return Err(HyperEarError::invalid(
            "arrivals",
            format!(
                "estimated beacon period {period:.6}s deviates {offset_ppm:.0} ppm from nominal {nominal_period}s"
            ),
        ));
    }
    Ok(PeriodEstimate {
        period,
        offset_ppm,
        beacons_used,
        windows_used,
        residual_rms: (residual_sq_sum / beacons_used as f64).sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals_with_period(t0: f64, period: f64, count: usize) -> Vec<BeaconArrival> {
        (0..count)
            .map(|k| BeaconArrival {
                time: t0 + k as f64 * period,
                strength: 1.0,
            })
            .collect()
    }

    #[test]
    fn exact_period_from_clean_arrivals() {
        let true_period = 0.2 * (1.0 + 35e-6);
        let arrivals = arrivals_with_period(0.05, true_period, 6);
        let est =
            estimate_period_with(&arrivals, &[(0.0, 1.2)], 0.2, &mut SfoScratch::new()).unwrap();
        assert!((est.period - true_period).abs() < 1e-12);
        assert!((est.offset_ppm - 35.0).abs() < 1e-6);
        assert_eq!(est.beacons_used, 6);
        assert_eq!(est.windows_used, 1);
    }

    #[test]
    fn jittered_arrivals_average_out() {
        let true_period = 0.2 * (1.0 - 20e-6);
        let jitter = [1e-6, -2e-6, 1.5e-6, -0.5e-6, 0.8e-6, -1.2e-6];
        let arrivals: Vec<BeaconArrival> = (0..6)
            .map(|k| BeaconArrival {
                time: 0.02 + k as f64 * true_period + jitter[k],
                strength: 1.0,
            })
            .collect();
        let est =
            estimate_period_with(&arrivals, &[(0.0, 1.2)], 0.2, &mut SfoScratch::new()).unwrap();
        assert!(
            (est.period - true_period).abs() < 1e-6,
            "estimated {} vs {true_period}",
            est.period
        );
    }

    #[test]
    fn multiple_windows_are_combined() {
        let true_period = 0.2 * (1.0 + 50e-6);
        let mut arrivals = arrivals_with_period(0.05, true_period, 4);
        // Second stationary window after a movement gap; different phase.
        arrivals.extend(arrivals_with_period(2.0, true_period, 4));
        let est = estimate_period_with(
            &arrivals,
            &[(0.0, 0.9), (1.9, 2.9)],
            0.2,
            &mut SfoScratch::new(),
        )
        .unwrap();
        assert_eq!(est.windows_used, 2);
        assert_eq!(est.beacons_used, 8);
        assert!((est.period - true_period).abs() < 1e-10);
    }

    #[test]
    fn arrivals_during_movement_are_excluded() {
        let true_period = 0.2;
        let mut arrivals = arrivals_with_period(0.05, true_period, 4);
        // A badly-shifted arrival inside the movement gap must not matter.
        arrivals.push(BeaconArrival {
            time: 1.37,
            strength: 1.0,
        });
        arrivals.extend(arrivals_with_period(2.0, true_period, 4));
        let est = estimate_period_with(
            &arrivals,
            &[(0.0, 0.9), (1.9, 2.9)],
            0.2,
            &mut SfoScratch::new(),
        )
        .unwrap();
        assert!((est.period - 0.2).abs() < 1e-12);
        assert_eq!(est.beacons_used, 8);
    }

    #[test]
    fn missed_beacons_are_bridged_by_index_rounding() {
        // Arrivals at k = 0, 1, 3, 4 (beacon 2 was masked by noise).
        let true_period = 0.2 * (1.0 + 10e-6);
        let mut arrivals = arrivals_with_period(0.05, true_period, 5);
        arrivals.remove(2);
        let est =
            estimate_period_with(&arrivals, &[(0.0, 1.2)], 0.2, &mut SfoScratch::new()).unwrap();
        assert!((est.period - true_period).abs() < 1e-10);
        assert_eq!(est.beacons_used, 4);
    }

    #[test]
    fn no_stationary_beacons_is_an_error() {
        let arrivals = arrivals_with_period(5.0, 0.2, 4);
        let result = estimate_period_with(&arrivals, &[(0.0, 1.0)], 0.2, &mut SfoScratch::new());
        assert!(matches!(
            result,
            Err(HyperEarError::InsufficientBeacons { .. })
        ));
        let result = estimate_period_with(&[], &[(0.0, 1.0)], 0.2, &mut SfoScratch::new());
        assert!(result.is_err());
    }

    #[test]
    fn wildly_wrong_period_is_rejected() {
        // Arrivals every 0.3 s against a nominal of 0.2 s: not this beacon.
        let arrivals = arrivals_with_period(0.05, 0.3, 5);
        // Index rounding maps 0.3 to k = 2, 3... producing a slope far off.
        let result = estimate_period_with(&arrivals, &[(0.0, 2.0)], 0.2, &mut SfoScratch::new());
        assert!(result.is_err());
    }

    #[test]
    fn invalid_nominal_rejected() {
        assert!(estimate_period_with(&[], &[(0.0, 1.0)], 0.0, &mut SfoScratch::new()).is_err());
    }

    #[test]
    fn residual_rms_tracks_arrival_jitter() {
        let clean = arrivals_with_period(0.05, 0.2, 6);
        let est = estimate_period_with(&clean, &[(0.0, 1.2)], 0.2, &mut SfoScratch::new()).unwrap();
        assert!(
            est.residual_rms < 1e-12,
            "clean residual {}",
            est.residual_rms
        );
        let jitter = [40e-6, -80e-6, 60e-6, -20e-6, 30e-6, -50e-6];
        let noisy: Vec<BeaconArrival> = (0..6)
            .map(|k| BeaconArrival {
                time: 0.05 + k as f64 * 0.2 + jitter[k],
                strength: 1.0,
            })
            .collect();
        let est = estimate_period_with(&noisy, &[(0.0, 1.2)], 0.2, &mut SfoScratch::new()).unwrap();
        assert!(
            est.residual_rms > 1e-5 && est.residual_rms < 1e-3,
            "jittered residual {}",
            est.residual_rms
        );
    }

    #[test]
    fn with_variant_matches_allocating_form() {
        let true_period = 0.2 * (1.0 + 50e-6);
        let mut arrivals = arrivals_with_period(0.05, true_period, 4);
        arrivals.extend(arrivals_with_period(2.0, true_period, 4));
        let windows = [(0.0, 0.9), (1.9, 2.9)];
        let reference =
            estimate_period_with(&arrivals, &windows, 0.2, &mut SfoScratch::new()).unwrap();
        let mut scratch = SfoScratch::new();
        for _ in 0..2 {
            let est = estimate_period_with(&arrivals, &windows, 0.2, &mut scratch).unwrap();
            assert_eq!(est, reference);
        }
        assert!(estimate_period_with(&[], &windows, 0.2, &mut scratch).is_err());
    }

    #[test]
    fn single_arrival_windows_are_skipped() {
        let true_period = 0.2;
        let mut arrivals = arrivals_with_period(0.05, true_period, 3);
        arrivals.push(BeaconArrival {
            time: 5.0,
            strength: 1.0,
        });
        let est = estimate_period_with(
            &arrivals,
            &[(0.0, 0.7), (4.9, 5.1)],
            0.2,
            &mut SfoScratch::new(),
        )
        .unwrap();
        assert_eq!(est.windows_used, 1);
    }
}
