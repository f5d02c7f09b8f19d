//! Far-field planar direction-of-arrival from pairwise delays.
//!
//! For a source far beyond the array aperture, the wavefront is a
//! plane: the distance from the source to mic `i` is `R − u·p_i` where
//! `u` is the unit direction from the array toward the source in the
//! device frame. Two mics then measure
//!
//! ```text
//! c·τ_ij = d_i − d_j = u·(p_j − p_i),     τ_ij = t_i − t_j
//! ```
//!
//! — one linear constraint on `u` per pair. Three non-collinear mics
//! give (at least) two independent constraints, which is exactly the
//! 3-microphone 2D DOA construction of Kovalyov et al. (PAPERS.md); the
//! solver below takes every pair and solves the 2×2 normal equations,
//! so redundant pairs of 4+-mic arrays average their noise down for
//! free.
//!
//! Everything here is fixed-size arithmetic on `Copy` values — no heap,
//! so the session hot path can call it under the counting-allocator
//! gates.

use crate::array::{MicArray, MAX_PAIRS};
use crate::error::GeomError;
use crate::vec::Vec2;

/// Relative conditioning floor for the 2×2 normal equations: below
/// this, the pair axes do not span the plane (collinear array).
const RANK_EPS: f64 = 1e-9;

/// A planar direction estimate in the device frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoaEstimate {
    /// Unit direction from the array toward the source.
    pub direction: Vec2,
    /// Bearing `atan2(direction.y, direction.x)`, radians in (−π, π].
    pub bearing: f64,
    /// RMS residual of the pairwise constraints at the solution,
    /// metres. Small residual ⇒ the delays were consistent with *some*
    /// far-field plane wave; large residual flags multipath or a
    /// near-field source.
    pub residual: f64,
    /// Number of pairwise delays that constrained the estimate.
    pub pairs_used: usize,
}

/// Solves the far-field planar DOA from per-pair delays.
///
/// `pair_delays[k]` is `t_i − t_j` (seconds, arrival at mic `i` minus
/// arrival at mic `j`) for the `k`-th pair in [`MicArray::pairs`] order
/// (`(0,1), (0,2), …`). Delays must cover every pair of the array.
///
/// # Errors
///
/// - [`GeomError::InvalidParameter`] for a non-positive speed of sound,
///   non-finite delays, or a delay count that doesn't match the array.
/// - Whatever [`MicArray::validate_planar`] rejects — in particular
///   [`GeomError::CollinearMics`] for arrays that cannot observe a 2D
///   direction.
/// - [`GeomError::Degenerate`] if the normal equations lose rank
///   numerically despite a planar-valid array.
pub fn planar_doa(
    array: &MicArray,
    pair_delays: &[f64],
    speed_of_sound: f64,
) -> Result<DoaEstimate, GeomError> {
    array.validate_planar()?;
    if !(speed_of_sound > 0.0 && speed_of_sound.is_finite()) {
        return Err(GeomError::invalid(
            "speed_of_sound",
            format!("must be positive and finite, got {speed_of_sound}"),
        ));
    }
    if pair_delays.len() != array.pair_count() {
        return Err(GeomError::invalid(
            "pair_delays",
            format!(
                "expected one delay per pair ({}), got {}",
                array.pair_count(),
                pair_delays.len()
            ),
        ));
    }
    // Accumulate the normal equations AᵀA·u = Aᵀb with rows
    // a_k = p_j − p_i and b_k = c·τ_ij, in fixed storage.
    let mut rows = [(Vec2::ZERO, 0.0f64); MAX_PAIRS];
    let mut n_rows = 0usize;
    let (mut axx, mut axy, mut ayy) = (0.0f64, 0.0f64, 0.0f64);
    let (mut bx, mut by) = (0.0f64, 0.0f64);
    for (k, pair) in array.pairs().enumerate() {
        let pair = pair?;
        let tau = pair_delays[k];
        if !tau.is_finite() {
            return Err(GeomError::invalid(
                "pair_delays",
                format!(
                    "delay for pair ({}, {}) is not finite: {tau}",
                    pair.i, pair.j
                ),
            ));
        }
        let a = pair.axis * pair.baseline; // p_j − p_i
        let b = speed_of_sound * tau;
        rows[n_rows] = (a, b);
        n_rows += 1;
        axx += a.x * a.x;
        axy += a.x * a.y;
        ayy += a.y * a.y;
        bx += a.x * b;
        by += a.y * b;
    }
    let det = axx * ayy - axy * axy;
    let scale = (axx + ayy).max(f64::MIN_POSITIVE);
    if det <= RANK_EPS * scale * scale {
        return Err(GeomError::Degenerate {
            what: format!("planar DOA normal equations are rank-deficient (det {det:.3e})"),
        });
    }
    let u = Vec2::new((ayy * bx - axy * by) / det, (axx * by - axy * bx) / det);
    let direction = u.normalized().ok_or_else(|| GeomError::Degenerate {
        what: "pairwise delays are all zero; direction is unobservable".into(),
    })?;
    let mut ss = 0.0f64;
    for &(a, b) in &rows[..n_rows] {
        let r = direction.dot(a) - b;
        ss += r * r;
    }
    Ok(DoaEstimate {
        direction,
        bearing: direction.angle(),
        residual: (ss / n_rows as f64).sqrt(),
        pairs_used: n_rows,
    })
}

/// Exact far-field pair delays a plane wave from `bearing` (radians,
/// device frame) would produce on `array` — `t_i − t_j` per pair in
/// [`MicArray::pairs`] order, written into `out`.
///
/// The forward model of [`planar_doa`]; property tests and simulators
/// use it to generate consistent ground-truth delays.
///
/// # Errors
///
/// [`GeomError::InvalidParameter`] if `out` is shorter than the pair
/// count or the speed of sound is invalid; pair errors propagate.
pub fn far_field_pair_delays(
    array: &MicArray,
    bearing: f64,
    speed_of_sound: f64,
    out: &mut [f64],
) -> Result<usize, GeomError> {
    if !(speed_of_sound > 0.0 && speed_of_sound.is_finite()) {
        return Err(GeomError::invalid(
            "speed_of_sound",
            format!("must be positive and finite, got {speed_of_sound}"),
        ));
    }
    if out.len() < array.pair_count() {
        return Err(GeomError::invalid(
            "out",
            format!(
                "needs one slot per pair ({}), got {}",
                array.pair_count(),
                out.len()
            ),
        ));
    }
    let u = Vec2::new(bearing.cos(), bearing.sin());
    let mut n = 0usize;
    for pair in array.pairs() {
        let pair = pair?;
        // c·(t_i − t_j) = u·(p_j − p_i)
        out[n] = u.dot(pair.axis * pair.baseline) / speed_of_sound;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recover(array: &MicArray, bearing: f64) -> DoaEstimate {
        let mut delays = [0.0; MAX_PAIRS];
        let n = far_field_pair_delays(array, bearing, 343.0, &mut delays).unwrap();
        planar_doa(array, &delays[..n], 343.0).unwrap()
    }

    #[test]
    fn triangle_recovers_exact_bearings() {
        let a = MicArray::triangle(0.1366);
        for deg in [-170, -90, -31, 0, 17, 45, 90, 135, 179] {
            let bearing = (deg as f64).to_radians();
            let est = recover(&a, bearing);
            let err = (est.bearing - bearing).abs().min(
                (est.bearing - bearing + std::f64::consts::TAU)
                    .abs()
                    .min((est.bearing - bearing - std::f64::consts::TAU).abs()),
            );
            assert!(err < 1e-9, "bearing {deg}°: err {err}");
            assert!(est.residual < 1e-12);
            assert_eq!(est.pairs_used, 3);
        }
    }

    #[test]
    fn rectangle_uses_all_six_pairs() {
        let a = MicArray::rectangle(0.2, 0.08);
        let est = recover(&a, 1.1);
        assert_eq!(est.pairs_used, 6);
        assert!((est.bearing - 1.1).abs() < 1e-9);
    }

    #[test]
    fn collinear_array_is_rejected_typed() {
        let a = MicArray::two_mic(0.1366);
        let err = planar_doa(&a, &[0.0], 343.0).unwrap_err();
        assert!(matches!(err, GeomError::CollinearMics { .. }), "{err}");
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let a = MicArray::triangle(0.1366);
        assert!(planar_doa(&a, &[0.0; 3], 0.0).is_err());
        assert!(planar_doa(&a, &[0.0; 2], 343.0).is_err());
        assert!(planar_doa(&a, &[f64::NAN, 0.0, 0.0], 343.0).is_err());
        let mut out = [0.0; 1];
        assert!(far_field_pair_delays(&a, 0.3, 343.0, &mut out).is_err());
    }

    #[test]
    fn all_zero_delays_are_degenerate_not_a_panic() {
        let a = MicArray::triangle(0.1366);
        let err = planar_doa(&a, &[0.0; 3], 343.0).unwrap_err();
        assert!(matches!(err, GeomError::Degenerate { .. }), "{err}");
    }

    #[test]
    fn noisy_delays_still_land_near_truth() {
        let a = MicArray::triangle(0.1366);
        let bearing = 0.7f64;
        let mut delays = [0.0; MAX_PAIRS];
        let n = far_field_pair_delays(&a, bearing, 343.0, &mut delays).unwrap();
        // ±2 µs of delay noise ≈ 0.7 mm path error on a 13.66 cm side.
        let noise = [2e-6, -1.5e-6, 1e-6];
        for k in 0..n {
            delays[k] += noise[k];
        }
        let est = planar_doa(&a, &delays[..n], 343.0).unwrap();
        assert!((est.bearing - bearing).abs() < 0.05, "{}", est.bearing);
        assert!(est.residual > 0.0);
    }
}
