//! Augmented TDoA measurement (paper Section VI-A).
//!
//! "Instead of measuring a TDoA based on two microphones at the same
//! position, it measures a TDoA based on two positions at the same
//! microphone": for each microphone, take a beacon heard while stationary
//! *before* the slide (position p1) and one heard after it (position p2),
//! and compute `Δt′ = t2 − t1 − n·T̂` where `n` is the number of beacon
//! periods elapsed and `T̂` the SFO-corrected period. `Δd = Δt′·S` is then
//! the distance difference between the two positions — the synthetic
//! long-baseline measurement that defeats the phone's 13–15 cm limit.

use crate::asp::BeaconArrival;
use crate::HyperEarError;

/// A time window `[start, end]` in seconds.
pub(crate) type TimeWindow = (f64, f64);

/// The augmented TDoA measurements of one slide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmentedTdoa {
    /// Distance difference `d(p2) − d(p1)` at Mic1, metres.
    pub delta_d1: f64,
    /// Distance difference `d(p2) − d(p1)` at Mic2, metres.
    pub delta_d2: f64,
    /// Beacon pairs averaged into `delta_d1`.
    pub pairs_mic1: usize,
    /// Beacon pairs averaged into `delta_d2`.
    pub pairs_mic2: usize,
}

/// Reusable working storage for the TDoA computation.
///
/// The per-slide arrival filtering and pair deltas live here so the
/// session loop ([`crate::pipeline::SessionEngine`]) reuses one set of
/// buffers across all slides instead of allocating three vectors per
/// channel per slide.
#[derive(Debug, Clone, Default)]
pub struct TdoaScratch {
    pre: Vec<f64>,
    post: Vec<f64>,
    deltas: Vec<f64>,
}

impl TdoaScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        TdoaScratch::default()
    }

    /// Bytes currently reserved by the scratch buffers.
    ///
    /// Feeds the session-level working-set accounting
    /// ([`crate::pipeline::SessionEngine::working_set_bytes`]); sized by
    /// beacons per slide, not capture length.
    #[must_use]
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.pre.capacity() + self.post.capacity() + self.deltas.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Computes one channel's augmented time difference, averaged over up to
/// `beacons_per_side` pre-slide and post-slide beacons.
///
/// Working storage comes from `scratch` (cleared and reused).
///
/// # Errors
///
/// Returns [`HyperEarError::InsufficientBeacons`] when either side of the
/// slide has no usable beacon.
pub fn channel_delta_t_with(
    arrivals: &[BeaconArrival],
    pre_window: TimeWindow,
    post_window: TimeWindow,
    period: f64,
    beacons_per_side: usize,
    scratch: &mut TdoaScratch,
) -> Result<(f64, usize), HyperEarError> {
    if period <= 0.0 {
        return Err(HyperEarError::invalid("period", "must be positive"));
    }
    if beacons_per_side == 0 {
        return Err(HyperEarError::invalid(
            "beacons_per_side",
            "must be positive",
        ));
    }
    scratch.pre.clear();
    scratch.pre.extend(
        arrivals
            .iter()
            .map(|a| a.time)
            .filter(|&t| t >= pre_window.0 && t <= pre_window.1),
    );
    scratch.post.clear();
    scratch.post.extend(
        arrivals
            .iter()
            .map(|a| a.time)
            .filter(|&t| t >= post_window.0 && t <= post_window.1),
    );
    let (pre, post) = (&scratch.pre, &scratch.post);
    if pre.is_empty() || post.is_empty() {
        return Err(HyperEarError::InsufficientBeacons {
            stage: "augmented TDoA",
            found: pre.len().min(post.len()),
            required: 1,
        });
    }
    // Use the beacons closest to the slide: the last pre, the first post.
    let pre_used = &pre[pre.len().saturating_sub(beacons_per_side)..];
    let post_used = &post[..beacons_per_side.min(post.len())];
    scratch.deltas.clear();
    for &t1 in pre_used {
        for &t2 in post_used {
            let n = ((t2 - t1) / period).round();
            scratch.deltas.push(t2 - t1 - n * period);
        }
    }
    // Median over pairs: robust against a single echo-captured or
    // noise-shifted beacon, which would drag a mean.
    let deltas = &mut scratch.deltas;
    // Unstable sort is result-identical here (total_cmp ties are
    // bit-identical values) and does not allocate.
    deltas.sort_unstable_by(f64::total_cmp);
    let count = deltas.len();
    let median = if count % 2 == 1 {
        deltas[count / 2]
    } else {
        0.5 * (deltas[count / 2 - 1] + deltas[count / 2])
    };
    Ok((median, count))
}

/// Computes the augmented TDoA pair for one slide from both channels'
/// beacon arrivals.
///
/// `pre_window`/`post_window` are the stationary windows bracketing the
/// slide (derived from the inertial segmentation); `period` the
/// SFO-corrected beacon period; `speed_of_sound` converts time to
/// distance.
///
/// Working storage comes from `scratch` (cleared and reused).
///
/// # Errors
///
/// Returns [`HyperEarError::InsufficientBeacons`] when either channel
/// lacks beacons on either side.
#[allow(clippy::too_many_arguments)]
pub fn augmented_tdoa_with(
    left: &[BeaconArrival],
    right: &[BeaconArrival],
    pre_window: TimeWindow,
    post_window: TimeWindow,
    period: f64,
    speed_of_sound: f64,
    beacons_per_side: usize,
    scratch: &mut TdoaScratch,
) -> Result<AugmentedTdoa, HyperEarError> {
    if speed_of_sound <= 0.0 {
        return Err(HyperEarError::invalid("speed_of_sound", "must be positive"));
    }
    let (dt1, pairs1) = channel_delta_t_with(
        left,
        pre_window,
        post_window,
        period,
        beacons_per_side,
        scratch,
    )?;
    let (dt2, pairs2) = channel_delta_t_with(
        right,
        pre_window,
        post_window,
        period,
        beacons_per_side,
        scratch,
    )?;
    Ok(AugmentedTdoa {
        delta_d1: dt1 * speed_of_sound,
        delta_d2: dt2 * speed_of_sound,
        pairs_mic1: pairs1,
        pairs_mic2: pairs2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: f64 = 343.0;

    /// Arrivals at `t0 + k·period + extra_delay(k)` where `extra_delay`
    /// jumps by `delta_t` for beacons after the slide.
    fn arrivals(
        t0: f64,
        period: f64,
        count: usize,
        slide_after: usize,
        delta_t: f64,
    ) -> Vec<BeaconArrival> {
        (0..count)
            .map(|k| BeaconArrival {
                time: t0 + k as f64 * period + if k >= slide_after { delta_t } else { 0.0 },
                strength: 1.0,
            })
            .collect()
    }

    #[test]
    fn recovers_step_in_propagation_delay() {
        // The slide moves the mic so that propagation lengthens by 2 mm
        // (≈5.8 µs). Beacons 0-4 are pre-slide, 8-12 post-slide.
        let period = 0.2;
        let dt_true = 0.002 / S;
        let a = arrivals(0.05, period, 13, 8, dt_true);
        let (dt, pairs) = channel_delta_t_with(
            &a,
            (0.0, 0.05 + 4.2 * period),
            (0.05 + 7.8 * period, 10.0),
            period,
            3,
            &mut TdoaScratch::new(),
        )
        .unwrap();
        assert!((dt - dt_true).abs() < 1e-12, "dt {dt} vs {dt_true}");
        assert_eq!(pairs, 9);
    }

    #[test]
    fn sfo_corrected_period_removes_bias() {
        // With a 50 ppm-fast beacon, using the nominal period injects
        // n·T·50e-6 of error; using the true period does not.
        let true_period = 0.2 * (1.0 + 50e-6);
        let dt_true = 0.004 / S;
        let a = arrivals(0.05, true_period, 13, 8, dt_true);
        let pre = (0.0, 0.05 + 4.2 * true_period);
        let post = (0.05 + 7.8 * true_period, 10.0);
        let (dt_good, _) =
            channel_delta_t_with(&a, pre, post, true_period, 3, &mut TdoaScratch::new()).unwrap();
        assert!((dt_good - dt_true).abs() < 1e-12);
        let (dt_bad, _) =
            channel_delta_t_with(&a, pre, post, 0.2, 3, &mut TdoaScratch::new()).unwrap();
        // Nominal-period error: ~8 periods × 0.2 s × 50 ppm = 80 µs.
        assert!(
            (dt_bad - dt_true).abs() > 5e-5,
            "uncorrected error unexpectedly small: {}",
            (dt_bad - dt_true).abs()
        );
    }

    #[test]
    fn averaging_reduces_jitter() {
        let period = 0.2;
        let dt_true = 0.003 / S;
        let mut a = arrivals(0.05, period, 13, 8, dt_true);
        // Deterministic ±2 µs jitter on every arrival.
        for (k, arr) in a.iter_mut().enumerate() {
            arr.time += if k % 2 == 0 { 2e-6 } else { -2e-6 };
        }
        let pre = (0.0, 0.9);
        let post = (1.6, 10.0);
        let (dt3, _) =
            channel_delta_t_with(&a, pre, post, period, 3, &mut TdoaScratch::new()).unwrap();
        let (dt1, _) =
            channel_delta_t_with(&a, pre, post, period, 1, &mut TdoaScratch::new()).unwrap();
        assert!(
            (dt3 - dt_true).abs() <= (dt1 - dt_true).abs() + 1e-12,
            "averaging should not hurt: {dt3} vs {dt1}"
        );
    }

    #[test]
    fn both_channels_combined() {
        let period = 0.2;
        let dt1 = 0.0020 / S;
        let dt2 = 0.0015 / S;
        let left = arrivals(0.05, period, 13, 8, dt1);
        let right = arrivals(0.051, period, 13, 8, dt2);
        let result = augmented_tdoa_with(
            &left,
            &right,
            (0.0, 0.9),
            (1.65, 10.0),
            period,
            S,
            3,
            &mut TdoaScratch::new(),
        )
        .unwrap();
        assert!((result.delta_d1 - 0.0020).abs() < 1e-9);
        assert!((result.delta_d2 - 0.0015).abs() < 1e-9);
        assert_eq!(result.pairs_mic1, 9);
        assert_eq!(result.pairs_mic2, 9);
    }

    #[test]
    fn missing_beacons_on_one_side_is_an_error() {
        let period = 0.2;
        let a = arrivals(0.05, period, 5, 99, 0.0); // all pre-slide
        let result = channel_delta_t_with(
            &a,
            (0.0, 2.0),
            (3.0, 4.0),
            period,
            3,
            &mut TdoaScratch::new(),
        );
        assert!(matches!(
            result,
            Err(HyperEarError::InsufficientBeacons { .. })
        ));
    }

    #[test]
    fn negative_delta_t_for_approaching_mic() {
        let period = 0.2;
        let dt_true = -0.005 / S; // mic moved toward the speaker
        let a = arrivals(0.05, period, 13, 8, dt_true);
        let (dt, _) = channel_delta_t_with(
            &a,
            (0.0, 0.9),
            (1.6, 10.0),
            period,
            2,
            &mut TdoaScratch::new(),
        )
        .unwrap();
        assert!((dt - dt_true).abs() < 1e-12);
        assert!(dt < 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let a = arrivals(0.05, 0.2, 13, 8, 0.0);
        assert!(
            channel_delta_t_with(&a, (0.0, 0.9), (1.6, 9.0), 0.0, 3, &mut TdoaScratch::new())
                .is_err()
        );
        assert!(
            channel_delta_t_with(&a, (0.0, 0.9), (1.6, 9.0), 0.2, 0, &mut TdoaScratch::new())
                .is_err()
        );
        assert!(augmented_tdoa_with(
            &a,
            &a,
            (0.0, 0.9),
            (1.6, 9.0),
            0.2,
            0.0,
            3,
            &mut TdoaScratch::new()
        )
        .is_err());
    }

    #[test]
    fn delta_t_larger_than_half_period_is_aliased() {
        // Physical sanity: the scheme assumes |Δt′| << T/2; a 40 m jump in
        // propagation (0.116 s > T/2) aliases into the next beacon index.
        // Document the behaviour: the measured value wraps.
        let period = 0.2;
        let dt_true = 0.116;
        let a = arrivals(0.05, period, 13, 8, dt_true);
        let (dt, _) = channel_delta_t_with(
            &a,
            (0.0, 0.9),
            (1.8, 10.0),
            period,
            1,
            &mut TdoaScratch::new(),
        )
        .unwrap();
        assert!((dt - (dt_true - period)).abs() < 1e-12, "aliased dt {dt}");
    }
}
