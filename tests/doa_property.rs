//! DOA contract tier: property tests of both direction-finding
//! front-ends across random 3- and 4-microphone geometries.
//!
//! Each property round-trips a known bearing through one front-end's
//! full path — synthesize the observation (beacon arrival times, or raw
//! carrier samples), estimate, compare — so the pinned tolerances are
//! end-to-end accuracy claims, not solver-only ones. Geometries are
//! drawn at random and degenerate draws (coincident / collinear mics)
//! are discarded through the typed `GeomError`s, which doubles as a
//! check that random junk cannot reach the solvers.
//!
//! `scripts/verify.sh --doa` runs this binary with `--nocapture` and
//! greps the `doa-contract: … HELD` lines.

use hyperear::asp::BeaconArrival;
use hyperear::doa::{phase_tracking_bearing, planar_bearing_from_arrivals};
use hyperear_geom::doa::far_field_pair_delays;
use hyperear_geom::{MicArray, Vec2, MAX_PAIRS};
use hyperear_util::prop::{self, f64_range, usize_range, vec_f64};
use hyperear_util::prop_assert;

/// `|a − b|` wrapped into `[0, π]`, radians.
fn angle_error(a: f64, b: f64) -> f64 {
    let d = a - b;
    d.sin().atan2(d.cos()).abs()
}

const SOUND: f64 = 343.0;
const FS: f64 = 44_100.0;

/// Draws an N-mic array from 2(N−1) coordinates: mic 0 at the origin,
/// the rest inside a ±12 cm box. Returns `None` for draws the geometry
/// layer rejects (coincident or collinear placements).
fn draw_array(n: usize, coords: &[f64]) -> Option<MicArray> {
    let mut positions = [Vec2::ZERO; 4];
    for k in 1..n {
        positions[k] = Vec2::new(coords[2 * (k - 1)], coords[2 * (k - 1) + 1]);
    }
    let array = MicArray::from_positions(&positions[..n]).ok()?;
    array.validate_planar().ok()?;
    Some(array)
}

/// Per-channel arrival offsets consistent with a far-field plane wave
/// from `bearing` (channel 0 as the time reference).
fn channel_offsets(array: &MicArray, bearing: f64) -> Vec<f64> {
    let mut delays = [0.0f64; MAX_PAIRS];
    far_field_pair_delays(array, bearing, SOUND, &mut delays).unwrap();
    // pairs() enumerates (0,1), (0,2), …, (0,n−1) first, and
    // delay[k] = t_0 − t_k, so channel k starts at −delay[k−1].
    let mut offsets = vec![0.0f64; array.len()];
    for (k, slot) in offsets.iter_mut().enumerate().skip(1) {
        *slot = -delays[k - 1];
    }
    offsets
}

#[test]
fn arrival_doa_recovers_bearing_on_random_arrays() {
    let strat = (
        usize_range(3, 5),
        vec_f64(-0.12, 0.12, 6, 7),
        f64_range(-std::f64::consts::PI, std::f64::consts::PI),
        usize_range(1, 9),
    );
    prop::check(
        "arrival_doa_recovers_bearing_on_random_arrays",
        strat,
        |(n, coords, bearing, beacons)| {
            let (n, bearing, beacons) = (*n, *bearing, *beacons);
            let Some(array) = draw_array(n, coords) else {
                return prop::pass(); // degenerate draw, typed-rejected
            };
            let offsets = channel_offsets(&array, bearing);
            let arrivals: Vec<Vec<BeaconArrival>> = offsets
                .iter()
                .map(|&off| {
                    (0..beacons)
                        .map(|b| BeaconArrival {
                            time: 0.5 + b as f64 * 0.2 + off,
                            strength: 1.0,
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[BeaconArrival]> = arrivals.iter().map(|a| a.as_slice()).collect();
            let prior = planar_bearing_from_arrivals(&array, &refs, SOUND).unwrap();
            let err = angle_error(prior.bearing, bearing);
            prop_assert!(err < 1e-9, "bearing err {err} on {n}-mic array");
            prop_assert!(prior.confidence > 0.99);
            prop_assert!(prior.pairs_used == array.pair_count());
            prop::pass()
        },
    );
    println!("doa-contract: arrival front-end on random 3/4-mic arrays: HELD");
}

#[test]
fn phase_doa_recovers_bearing_on_random_arrays() {
    let strat = (
        usize_range(3, 5),
        vec_f64(-0.12, 0.12, 6, 7),
        f64_range(-std::f64::consts::PI, std::f64::consts::PI),
    );
    prop::check(
        "phase_doa_recovers_bearing_on_random_arrays",
        strat,
        |(n, coords, bearing)| {
            let (n, bearing) = (*n, *bearing);
            let Some(array) = draw_array(n, coords) else {
                return prop::pass();
            };
            // Probe safely inside the unambiguous regime, snapped onto a
            // Goertzel bin so windowing leakage cannot bias the phase.
            let len = 4096usize;
            let limit = SOUND / (2.0 * array.aperture());
            let bin = ((0.8 * limit) * len as f64 / FS).floor().max(1.0);
            let probe = bin * FS / len as f64;
            let offsets = channel_offsets(&array, bearing);
            let channels: Vec<Vec<f64>> = offsets
                .iter()
                .map(|&off| {
                    (0..len)
                        .map(|s| {
                            let t = s as f64 / FS;
                            (std::f64::consts::TAU * probe * (t - off)).sin()
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();
            let prior = phase_tracking_bearing(&array, &refs, FS, probe, SOUND).unwrap();
            let err = angle_error(prior.bearing, bearing);
            // Phase reads through a finite window: allow a degree.
            prop_assert!(
                err < 2e-2,
                "bearing err {err} on {n}-mic array, probe {probe} Hz"
            );
            prop::pass()
        },
    );
    println!("doa-contract: phase-tracking front-end on random 3/4-mic arrays: HELD");
}
