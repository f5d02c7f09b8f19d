//! Direction-finding front-ends over the microphone array.
//!
//! The paper's Speaker Direction Finding protocol makes the user roll
//! the phone until the inter-mic TDoA crosses zero. With more than two
//! microphones (or with carrier phase), direction is observable from a
//! single stationary capture, and SDF converges without any rolling.
//! This module provides the two front-ends the roadmap names:
//!
//! - **Arrival-time planar DOA** ([`planar_bearing_from_arrivals`]):
//!   per-pair beacon arrival-time differences fed to the far-field
//!   least-squares solver of [`hyperear_geom::doa`] — the 3-microphone
//!   2D DOA construction (Kovalyov et al., PAPERS.md).
//! - **Phase-tracking DOA** ([`phase_tracking_bearing`]): Swadloon-style
//!   (Huang et al., PAPERS.md) — compare the narrowband carrier phase
//!   across channels; the pairwise phase difference `Δφ = 2π·f·τ`
//!   encodes the pair delay directly, with no peak picking at all.
//!
//! Both produce a [`BearingPrior`] in the device frame that feeds the
//! existing SDF/guide stage, and both run
//! in fixed storage — no heap — so array sessions stay inside the
//! counting-allocator gates.

use crate::asp::BeaconArrival;
use crate::error::HyperEarError;
use hyperear_dsp::goertzel::goertzel_bin;
use hyperear_geom::doa::planar_doa;
use hyperear_geom::{MicArray, Vec2, MAX_MICS, MAX_PAIRS};

/// Cap on matched beacons folded into one pair-delay median. Odd so the
/// median is an element, fixed so the fold never allocates.
const MAX_MATCHED_BEACONS: usize = 33;

/// A direction estimate in the device frame, produced by one of the
/// front-ends and consumed by the SDF/guide stage as a prior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BearingPrior {
    /// Unit direction from the array toward the speaker in the device
    /// frame (+x along the primary mic pair).
    pub direction: Vec2,
    /// `atan2(direction.y, direction.x)`, radians in (−π, π].
    pub bearing: f64,
    /// RMS inconsistency of the pairwise delays with the far-field
    /// plane wave at the solution, metres (0 for 2-pair-exact fits).
    pub residual: f64,
    /// Soft confidence in (0, 1]: 1 for perfectly consistent delays,
    /// rolling off as the residual approaches the array aperture scale.
    pub confidence: f64,
    /// Number of microphone pairs that constrained the estimate.
    pub pairs_used: usize,
}

impl BearingPrior {
    fn from_direction(direction: Vec2, residual: f64, aperture: f64, pairs_used: usize) -> Self {
        // Same soft-factor shape the slide pipeline uses: unity when the
        // pairwise delays agree, 1/2 when the RMS inconsistency reaches
        // a tenth of the aperture.
        let tol = (0.1 * aperture).max(f64::MIN_POSITIVE);
        let r = residual / tol;
        BearingPrior {
            direction,
            bearing: direction.angle(),
            residual,
            confidence: 1.0 / (1.0 + r * r),
            pairs_used,
        }
    }
}

pub(crate) fn validate_channel_count(
    array: &MicArray,
    channels: usize,
) -> Result<(), HyperEarError> {
    if channels != array.len() {
        return Err(HyperEarError::invalid(
            "channels",
            format!(
                "array describes {} microphones but {channels} channels were given",
                array.len()
            ),
        ));
    }
    Ok(())
}

/// Per-pair delays `t_i − t_j` (seconds) from per-channel beacon
/// arrivals, written into `out` in [`MicArray::pairs`] order.
///
/// Beacons are matched ordinally (the `k`-th arrival on channel `i`
/// against the `k`-th on channel `j` — sub-millisecond pair delays
/// cannot reorder beacons 200 ms apart), and each pair's delay is the
/// median over up to 33 matched beacons, in fixed storage.
///
/// # Errors
///
/// [`HyperEarError::InvalidParameter`] if the channel count disagrees
/// with the array, `out` is too short, or any channel pair shares no
/// beacons.
pub(crate) fn arrival_pair_delays(
    array: &MicArray,
    arrivals: &[&[BeaconArrival]],
    out: &mut [f64],
) -> Result<usize, HyperEarError> {
    validate_channel_count(array, arrivals.len())?;
    if out.len() < array.pair_count() {
        return Err(HyperEarError::invalid(
            "out",
            format!(
                "needs one slot per pair ({}), got {}",
                array.pair_count(),
                out.len()
            ),
        ));
    }
    let mut n = 0usize;
    for pair in array.pairs() {
        let pair = pair.map_err(HyperEarError::from)?;
        let (a, b) = (arrivals[pair.i], arrivals[pair.j]);
        let matched = a.len().min(b.len()).min(MAX_MATCHED_BEACONS);
        if matched == 0 {
            return Err(HyperEarError::InsufficientBeacons {
                stage: "doa pair delay",
                found: 0,
                required: 1,
            });
        }
        let mut deltas = [0.0f64; MAX_MATCHED_BEACONS];
        for k in 0..matched {
            deltas[k] = a[k].time - b[k].time;
        }
        let d = &mut deltas[..matched];
        d.sort_unstable_by(f64::total_cmp);
        out[n] = if matched % 2 == 1 {
            d[matched / 2]
        } else {
            0.5 * (d[matched / 2 - 1] + d[matched / 2])
        };
        n += 1;
    }
    Ok(n)
}

/// Bearing from per-pair delays: planar least squares for 2D-spanning
/// arrays, front-half-plane pair inversion for collinear ones.
///
/// A collinear array (the two-mic phone included) only observes the
/// `cos` of the angle off its line; the sign of the perpendicular
/// component is unobservable — exactly the left/right ambiguity the
/// paper's rolling SDF protocol exists to break. The estimate is
/// reported in the half-plane `x ≥ 0` (the paper's "right side"),
/// matching the default [`Side::Right`] assumption of the config.
///
/// # Errors
///
/// Propagates [`hyperear_geom::GeomError`]s from the planar solver, and
/// [`HyperEarError::InvalidParameter`] for delay-count mismatches or an
/// out-of-range pair delay (`|c·τ| > D`).
pub(crate) fn bearing_from_pair_delays(
    array: &MicArray,
    delays: &[f64],
    speed_of_sound: f64,
) -> Result<BearingPrior, HyperEarError> {
    if array.is_collinear() {
        array.validate().map_err(HyperEarError::from)?;
        if delays.len() != array.pair_count() {
            return Err(HyperEarError::invalid(
                "delays",
                format!(
                    "expected one delay per pair ({}), got {}",
                    array.pair_count(),
                    delays.len()
                ),
            ));
        }
        let pair = array.pair(0, 1).map_err(HyperEarError::from)?;
        let tau = delays[0];
        // c·τ_01 = u·(p_1 − p_0)  ⇒  u·axis = c·τ/D.
        let along = speed_of_sound * tau / pair.baseline;
        if !along.is_finite() || along.abs() > 1.0 + 1e-9 {
            return Err(HyperEarError::invalid(
                "delays",
                format!(
                    "pair delay {tau} s implies |cos| = {} > 1 on a {} m baseline",
                    along.abs(),
                    pair.baseline
                ),
            ));
        }
        let along = along.clamp(-1.0, 1.0);
        let perp = (1.0 - along * along).sqrt();
        // Two perpendicular candidates; fold into the x ≥ 0 half-plane
        // (ties broken toward +y) — the unobservable component.
        let a = pair.axis * along + pair.axis.perp() * perp;
        let b = pair.axis * along - pair.axis.perp() * perp;
        let direction = if (a.x, a.y) >= (b.x, b.y) { a } else { b };
        Ok(BearingPrior::from_direction(
            direction,
            0.0,
            array.aperture(),
            1,
        ))
    } else {
        // Far-field feasibility, pair by pair: no plane wave can make
        // |c·τ| exceed the baseline. An infeasible delay means at least
        // one channel's arrivals are not the beacon (a dead or jammed
        // microphone), and a least-squares fit over it would be
        // confidently wrong rather than merely noisy.
        if delays.len() == array.pair_count() {
            for (k, pair) in array.pairs().enumerate() {
                let pair = pair.map_err(HyperEarError::from)?;
                let path = speed_of_sound * delays[k];
                // ~2.5 sample periods of slack at 44.1 kHz: measurement
                // noise can push a near-endfire pair slightly past its
                // baseline, but never by centimetres.
                if !path.is_finite() || path.abs() > pair.baseline + 0.02 {
                    return Err(HyperEarError::invalid(
                        "delays",
                        format!(
                            "pair ({}, {}) delay {} s implies a {:.3} m path difference on a \
                             {:.3} m baseline",
                            pair.i,
                            pair.j,
                            delays[k],
                            path.abs(),
                            pair.baseline
                        ),
                    ));
                }
            }
        }
        let est = planar_doa(array, delays, speed_of_sound).map_err(HyperEarError::from)?;
        Ok(BearingPrior::from_direction(
            est.direction,
            est.residual,
            array.aperture(),
            est.pairs_used,
        ))
    }
}

/// The arrival-time planar DOA front-end: per-channel beacon arrivals in,
/// bearing prior out.
///
/// # Errors
///
/// [`HyperEarError::InvalidParameter`] if the channel count disagrees
/// with the array, a channel pair shares no beacons, or a pair delay is
/// out of range (`|c·τ| > D`); planar-solver [`hyperear_geom::GeomError`]s
/// propagate.
pub fn planar_bearing_from_arrivals(
    array: &MicArray,
    arrivals: &[&[BeaconArrival]],
    speed_of_sound: f64,
) -> Result<BearingPrior, HyperEarError> {
    let mut delays = [0.0f64; MAX_PAIRS];
    let n = arrival_pair_delays(array, arrivals, &mut delays)?;
    bearing_from_pair_delays(array, &delays[..n], speed_of_sound)
}

/// Per-pair delays from narrowband carrier phase at `probe_hz`.
///
/// Each channel's Goertzel bin phase is compared pairwise:
/// `τ_ij = (φ_j − φ_i) / (2π·f)`, wrapped to (−½f, ½f]. The probe must
/// satisfy `probe_hz ≤ c / (2·aperture)` so no pair's true delay can
/// wrap — the unambiguous regime of phase-based ranging.
///
/// # Errors
///
/// [`HyperEarError::InvalidParameter`] for an ambiguous probe frequency
/// or mismatched channel counts; DSP errors from the Goertzel kernel.
pub(crate) fn phase_pair_delays(
    array: &MicArray,
    channels: &[&[f64]],
    sample_rate: f64,
    probe_hz: f64,
    speed_of_sound: f64,
    out: &mut [f64],
) -> Result<usize, HyperEarError> {
    validate_channel_count(array, channels.len())?;
    if !(speed_of_sound > 0.0 && speed_of_sound.is_finite()) {
        return Err(HyperEarError::invalid("speed_of_sound", "must be positive"));
    }
    let max_unambiguous = speed_of_sound / (2.0 * array.aperture());
    if !(probe_hz > 0.0 && probe_hz <= max_unambiguous) {
        return Err(HyperEarError::invalid(
            "probe_hz",
            format!(
                "phase is ambiguous above c/(2·aperture) = {max_unambiguous:.1} Hz for this \
                 array, got {probe_hz}"
            ),
        ));
    }
    if out.len() < array.pair_count() {
        return Err(HyperEarError::invalid(
            "out",
            format!(
                "needs one slot per pair ({}), got {}",
                array.pair_count(),
                out.len()
            ),
        ));
    }
    let mut phases = [0.0f64; MAX_MICS];
    for (k, ch) in channels.iter().enumerate() {
        let (re, im) = goertzel_bin(ch, probe_hz, sample_rate).map_err(HyperEarError::from)?;
        phases[k] = im.atan2(re);
    }
    let mut n = 0usize;
    for pair in array.pairs() {
        let pair = pair.map_err(HyperEarError::from)?;
        // A delay on channel i shows up as a phase lag: φ_i = φ − 2πf·t_i,
        // so φ_j − φ_i = 2πf·(t_i − t_j) = 2πf·τ_ij.
        let mut dphi = phases[pair.j] - phases[pair.i];
        while dphi > std::f64::consts::PI {
            dphi -= std::f64::consts::TAU;
        }
        while dphi <= -std::f64::consts::PI {
            dphi += std::f64::consts::TAU;
        }
        out[n] = dphi / (std::f64::consts::TAU * probe_hz);
        n += 1;
    }
    Ok(n)
}

/// The Swadloon-style phase-tracking DOA front-end: raw channel slices
/// in, bearing prior out. No peak detection anywhere — direction comes
/// purely from carrier phase.
///
/// # Errors
///
/// [`HyperEarError::InvalidParameter`] for an ambiguous probe frequency,
/// mismatched channel counts or an out-of-range pair delay (`|c·τ| >
/// D`); DSP errors from the Goertzel kernel and planar-solver
/// [`hyperear_geom::GeomError`]s propagate.
pub fn phase_tracking_bearing(
    array: &MicArray,
    channels: &[&[f64]],
    sample_rate: f64,
    probe_hz: f64,
    speed_of_sound: f64,
) -> Result<BearingPrior, HyperEarError> {
    let mut delays = [0.0f64; MAX_PAIRS];
    let n = phase_pair_delays(
        array,
        channels,
        sample_rate,
        probe_hz,
        speed_of_sound,
        &mut delays,
    )?;
    bearing_from_pair_delays(array, &delays[..n], speed_of_sound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperear_geom::doa::far_field_pair_delays;
    use hyperear_geom::rotation::wrap_degrees;

    /// The paper's roll angle α in degrees `[0, 360)`: the angle between
    /// the speaker direction and the device +y axis, toward +x.
    fn alpha(prior: &BearingPrior) -> f64 {
        wrap_degrees(90.0 - prior.bearing.to_degrees())
    }

    /// `|a − b|` wrapped into `[0, π]`, radians.
    fn angle_error(a: f64, b: f64) -> f64 {
        let d = a - b;
        d.sin().atan2(d.cos()).abs()
    }

    fn arrivals_for_bearing(
        array: &MicArray,
        bearing: f64,
        n_beacons: usize,
    ) -> Vec<Vec<BeaconArrival>> {
        let mut delays = [0.0f64; MAX_PAIRS];
        far_field_pair_delays(array, bearing, 343.0, &mut delays).unwrap();
        // Recover per-channel offsets from a reference channel 0: the
        // (0, k) pair delay is t_0 − t_k, so t_k = −delay.
        let mut offsets = vec![0.0f64; array.len()];
        for (k, slot) in offsets.iter_mut().enumerate().skip(1) {
            *slot = -delays[k - 1];
        }
        (0..array.len())
            .map(|k| {
                (0..n_beacons)
                    .map(|b| BeaconArrival {
                        time: 1.0 + b as f64 * 0.2 + offsets[k],
                        strength: 1.0,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn arrival_front_end_recovers_bearing_on_triangle() {
        let array = MicArray::triangle(0.1366);
        for deg in [-150.0f64, -45.0, 10.0, 80.0, 170.0] {
            let bearing = deg.to_radians();
            let arrivals = arrivals_for_bearing(&array, bearing, 5);
            let refs: Vec<&[BeaconArrival]> = arrivals.iter().map(|a| a.as_slice()).collect();
            let prior = planar_bearing_from_arrivals(&array, &refs, 343.0).unwrap();
            let err = angle_error(prior.bearing, bearing);
            assert!(err < 1e-9, "bearing {deg}°: err {err}");
            assert!(prior.confidence > 0.99);
            assert_eq!(prior.pairs_used, 3);
        }
    }

    #[test]
    fn two_mic_arrival_front_end_reports_half_plane() {
        let array = MicArray::two_mic(0.1366);
        // Broadside (u = (1, 0), α = 90°): zero pair delay, folded to
        // the Right half-plane — the paper's in-direction position.
        let arrivals = arrivals_for_bearing(&array, 0.0, 3);
        let refs: Vec<&[BeaconArrival]> = arrivals.iter().map(|a| a.as_slice()).collect();
        let prior = planar_bearing_from_arrivals(&array, &refs, 343.0).unwrap();
        assert!((prior.direction.x - 1.0).abs() < 1e-9);
        assert!(alpha(&prior) < 180.0, "right half-plane");
        assert!((alpha(&prior) - 90.0).abs() < 1e-9);
        // Endfire up the pair axis (u = (0, 1), α = 0°) is observable...
        let arrivals = arrivals_for_bearing(&array, std::f64::consts::FRAC_PI_2, 3);
        let refs: Vec<&[BeaconArrival]> = arrivals.iter().map(|a| a.as_slice()).collect();
        let prior = planar_bearing_from_arrivals(&array, &refs, 343.0).unwrap();
        assert!(
            (prior.direction.y - 1.0).abs() < 1e-6,
            "{:?}",
            prior.direction
        );
        // ...and so is the angle off the axis (here α = 170°), but the
        // left/right sign is not: the fold reports the Right half-plane
        // mirror — the ambiguity the rolling SDF protocol exists to
        // break.
        let true_bearing = (-80.0f64).to_radians(); // u = (cos, sin), x > 0
        let arrivals = arrivals_for_bearing(&array, true_bearing, 3);
        let refs: Vec<&[BeaconArrival]> = arrivals.iter().map(|a| a.as_slice()).collect();
        let prior = planar_bearing_from_arrivals(&array, &refs, 343.0).unwrap();
        assert!((alpha(&prior) - 170.0).abs() < 1e-6);
        assert!(prior.direction.x >= 0.0 && prior.direction.y < 0.0);
    }

    #[test]
    fn phase_front_end_recovers_bearing_from_delayed_tones() {
        let array = MicArray::triangle(0.1366);
        let fs = 44_100.0;
        let f = 1_000.0; // < c/(2·aperture) ≈ 1255 Hz: unambiguous
        let bearing = 0.6f64;
        let mut delays = [0.0f64; MAX_PAIRS];
        far_field_pair_delays(&array, bearing, 343.0, &mut delays).unwrap();
        let mut offsets = [0.0f64; 3];
        // pairs order: (0,1), (0,2), (1,2); t_0 − t_k = delays.
        offsets[1] = -delays[0];
        offsets[2] = -delays[1];
        let n = 8_820;
        let channels: Vec<Vec<f64>> = offsets
            .iter()
            .map(|&t0| {
                (0..n)
                    .map(|i| (std::f64::consts::TAU * f * (i as f64 / fs - t0)).sin())
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();
        let prior = phase_tracking_bearing(&array, &refs, fs, f, 343.0).unwrap();
        let err = angle_error(prior.bearing, bearing);
        assert!(err < 0.05, "bearing err {err} rad");
        assert!(prior.confidence > 0.5, "confidence {}", prior.confidence);
    }

    #[test]
    fn ambiguous_probe_frequency_is_rejected() {
        let array = MicArray::triangle(0.1366);
        let chans = [vec![0.0; 64], vec![0.0; 64], vec![0.0; 64]];
        let refs: Vec<&[f64]> = chans.iter().map(|c| c.as_slice()).collect();
        // 2 kHz wraps on a 13.66 cm aperture.
        let err = phase_tracking_bearing(&array, &refs, 44_100.0, 2_000.0, 343.0).unwrap_err();
        assert!(
            matches!(err, HyperEarError::InvalidParameter { .. }),
            "{err}"
        );
    }

    #[test]
    fn channel_count_mismatch_is_typed() {
        let array = MicArray::triangle(0.1366);
        let arrivals: Vec<Vec<BeaconArrival>> = vec![Vec::new(); 2];
        let refs: Vec<&[BeaconArrival]> = arrivals.iter().map(|a| a.as_slice()).collect();
        assert!(planar_bearing_from_arrivals(&array, &refs, 343.0).is_err());
    }

    #[test]
    fn empty_channel_yields_insufficient_beacons() {
        let array = MicArray::two_mic(0.1366);
        let a = vec![BeaconArrival {
            time: 1.0,
            strength: 1.0,
        }];
        let refs: Vec<&[BeaconArrival]> = vec![&a, &[]];
        let err = planar_bearing_from_arrivals(&array, &refs, 343.0).unwrap_err();
        assert!(
            matches!(err, HyperEarError::InsufficientBeacons { .. }),
            "{err}"
        );
    }

    #[test]
    fn infeasible_pair_delay_is_typed() {
        let array = MicArray::two_mic(0.1366);
        // 10 ms delay on a 13.66 cm baseline: |Δd| = 3.4 m >> D.
        let err = bearing_from_pair_delays(&array, &[0.01], 343.0).unwrap_err();
        assert!(
            matches!(err, HyperEarError::InvalidParameter { .. }),
            "{err}"
        );
    }
}
